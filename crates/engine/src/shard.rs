//! Sharded serving: N independent engines behind one socket.
//!
//! With `ServeOptions::shards > 1` the Unix-socket server keeps its one
//! accept loop and its I/O event loops ([`crate::serve`]) and puts N
//! **engine shards** behind them:
//!
//! ```text
//!                        ┌──────────────┐
//!   accept thread ──────▶│ I/O event    │  hash-route by graph identity,
//!   (one, shared)        │ loops        │  then run inline on that shard:
//!                        │ (workers per │ ┌─────────────────────────┐
//!                        │  shard; each │▶│ shard 0: Engine+catalog │
//!                        │  owns its    │ │ + result cache + warm/  │
//!                        │  connections)│ │ incremental state       │
//!                        │              │ ├─────────────────────────┤
//!                        │              │▶│ shard 1: …              │
//!                        └──────────────┘ └─────────────────────────┘
//! ```
//!
//! * Each shard owns a full [`Engine`] — its own [`GraphCatalog`],
//!   [`ResultCache`], and warm-seed/incremental state. Shards share
//!   **nothing**: no lock is ever taken by more than one shard, so one
//!   shard's contended catalog or session never slows another shard's
//!   requests.
//! * The routing rule is pure and stable: FNV-1a over the request's
//!   graph identity (`"g:" + name` for session graphs, `"f:" + path`
//!   for file graphs), mod the shard count. Every `create_graph`,
//!   mutation, and query for the same named graph therefore lands on
//!   the same shard, which is what keeps all per-session invariants
//!   (version monotonicity, warm restarts, incremental re-peeling) of
//!   the single-engine server valid per-shard, unchanged.
//! * The event loop that decodes a request also answers it, inline, on
//!   the engine of the shard it routes to: the one-shard path plus an
//!   index. Responses therefore leave each connection in request order,
//!   and a 1-shard and an N-shard server answer the same single-client
//!   transcript with byte-identical response *content* (`elapsed_ms`
//!   differs per run; `loads` counts per-shard catalog loads).
//! * An N-shard server runs `workers` event loops per shard. A long
//!   request holds up the other connections of its event loop, at every
//!   shard count.
//! * `stats` and `shutdown` never reach a shard: the serve loop answers
//!   `stats` from every shard's counters (the single-engine schema,
//!   fields summed, plus a trailing `"shards"` breakdown array) and
//!   `shutdown` latches the global stop flag directly.
//!
//! With one shard there is no routing hash and no per-shard counter:
//! the `ShardRuntime` holds the caller's engine, and requests count
//! into the server's own metrics.
//!
//! [`GraphCatalog`]: crate::GraphCatalog
//! [`ResultCache`]: crate::ResultCache

use std::sync::atomic::Ordering;

use crate::catalog::{fnv1a, fnv1a_update};
use crate::minijson::{self, Value};
use crate::serve::{ServeMetrics, ShardCounters};
use crate::{Engine, ServeOptions};

/// Picks the shard serving a request, from the request's graph
/// identity: the session-graph `name` if present, else the `file` path,
/// else shard 0 (identity-free requests have no affinity to honor).
///
/// The hash is FNV-1a over a tagged key (`"g:" + name` / `"f:" + path`)
/// so a file named like a session graph cannot collide with it. The
/// function is pure — the same request routes to the same shard across
/// restarts, which is what pins a named graph's whole session (create,
/// mutations, queries) to one engine.
pub fn routing_shard(graph: Option<&str>, file: Option<&str>, shards: usize) -> usize {
    let shards = shards.max(1);
    let (tag, key) = match (graph, file) {
        (Some(name), _) => (b'g', name),
        (None, Some(path)) => (b'f', path),
        (None, None) => return 0,
    };
    let hash = fnv1a_update(fnv1a(&[tag, b':']), key.as_bytes());
    (hash % shards as u64) as usize
}

/// The engines a server runs: the caller's own at one shard, or one
/// built per shard.
enum Engines<'e> {
    Caller(&'e Engine),
    Owned(Vec<Engine>),
}

/// Everything per-shard, for every shard count. At one shard it holds
/// the caller's engine and nothing else. At n shards it holds n engines
/// and per shard the requests routed there and the ops its engine
/// answered.
pub(crate) struct ShardRuntime<'e> {
    engines: Engines<'e>,
    counters: Vec<ShardCounters>,
}

impl<'e> ShardRuntime<'e> {
    /// The runtime for `options.shards`. With a data dir in `options`,
    /// each shard's engine opens its own `shard-<i>` subdirectory — WAL
    /// and snapshot files are as shard-private as the locks are, so
    /// durability adds no cross-shard contention. At one shard that is
    /// `template` itself, which opens `shard-0` unless the caller
    /// already did; at n shards `template` only donates its tuning to
    /// n fresh engines.
    pub(crate) fn new(template: &'e Engine, options: &ServeOptions) -> std::io::Result<Self> {
        let shards = options.shards.max(1);
        if shards == 1 {
            open_shard_dir(template, options, 0)?;
            return Ok(ShardRuntime {
                engines: Engines::Caller(template),
                counters: Vec::new(),
            });
        }
        let engines = (0..shards)
            .map(|i| shard_engine(template, options, i))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardRuntime {
            engines: Engines::Owned(engines),
            counters: (0..shards).map(|_| ShardCounters::default()).collect(),
        })
    }

    pub(crate) fn engines(&self) -> &[Engine] {
        match &self.engines {
            Engines::Caller(engine) => std::slice::from_ref(*engine),
            Engines::Owned(engines) => engines,
        }
    }

    /// Per-shard counters; empty at one shard.
    pub(crate) fn counters(&self) -> &[ShardCounters] {
        &self.counters
    }

    /// The engine that answers a request, and the metrics its outcome
    /// counts into: at one shard the caller's engine and `metrics`; at
    /// n shards the shard the request's graph identity routes to, whose
    /// `routed` counter this bumps.
    pub(crate) fn route<'a>(
        &'a self,
        fields: &[(String, Value)],
        metrics: &'a ServeMetrics,
    ) -> (&'a Engine, &'a ServeMetrics) {
        let engines = match &self.engines {
            Engines::Caller(engine) => return (engine, metrics),
            Engines::Owned(engines) => engines,
        };
        let graph = minijson::get(fields, "graph").and_then(Value::as_str);
        let file = minijson::get(fields, "file").and_then(Value::as_str);
        let shard = routing_shard(graph, file, engines.len());
        let counters = &self.counters[shard];
        counters.routed.fetch_add(1, Ordering::Relaxed);
        (&engines[shard], &counters.metrics)
    }
}

/// Opens `<data_dir>/shard-<index>` on `engine` unless it is already
/// durable. Graphs recover on the shard whose directory they were
/// written to; restarting with a different `--shards` count strands
/// them on dirs the routing hash no longer picks (documented — shard
/// rebalancing is a ROADMAP item).
fn open_shard_dir(engine: &Engine, options: &ServeOptions, index: usize) -> std::io::Result<()> {
    let Some(dir) = &options.data_dir else {
        return Ok(());
    };
    if engine.catalog().is_durable() {
        return Ok(());
    }
    engine
        .catalog()
        .open_data_dir(
            &dir.join(format!("shard-{index}")),
            options.fsync_every,
            options.snapshot_every,
        )
        .map(drop)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// A fresh engine stamped with `template`'s tuning — every knob the
/// serve CLI exposes is copied so an N-shard server behaves like N
/// independently configured 1-shard servers.
fn shard_engine(
    template: &Engine,
    options: &ServeOptions,
    index: usize,
) -> std::io::Result<Engine> {
    let engine = Engine::new();
    engine
        .catalog()
        .set_max_entries(template.catalog().max_entries());
    engine.results().set_budget(template.results().budget());
    engine.set_incremental_threshold(template.incremental_threshold());
    open_shard_dir(&engine, options, index)?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeSummary;
    use crate::ResourcePolicy;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn sock_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsg_shard_{name}_{}.sock", std::process::id()))
    }

    fn fixture(name: &str, content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("dsg_shard_{name}_{}", std::process::id()));
        std::fs::write(&path, content).expect("fixture write");
        path
    }

    fn connect_retry(path: &Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(path) {
                return stream;
            }
            // Test-only: wait for the server thread to bind its socket.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server socket {} never came up", path.display());
    }

    fn spawn_server(sock: PathBuf, options: ServeOptions) -> std::thread::JoinHandle<ServeSummary> {
        std::thread::spawn(move || {
            let engine = Engine::new();
            crate::serve::serve_unix(&engine, &ResourcePolicy::default(), &sock, &options)
                .expect("serve_unix failed")
        })
    }

    /// Sends every request line, then reads exactly `expect` response
    /// lines.
    fn exchange(stream: &mut UnixStream, requests: &str, expect: usize) -> Vec<String> {
        stream.write_all(requests.as_bytes()).expect("send");
        read_lines(stream, expect)
    }

    fn read_lines(stream: &mut UnixStream, expect: usize) -> Vec<String> {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        (0..expect)
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
                line.trim_end().to_string()
            })
            .collect()
    }

    /// Drops `"key":<value>` (with its leading comma) from a response
    /// line — for the two run-dependent fields, `elapsed_ms` and the
    /// per-engine `loads` counter.
    fn strip_field(line: &str, key: &str) -> String {
        let pat = format!(",\"{key}\":");
        match line.find(&pat) {
            None => line.to_string(),
            Some(start) => {
                let rest = &line[start + pat.len()..];
                let end = rest.find([',', '}']).expect("unterminated field");
                format!("{}{}", &line[..start], &rest[end..])
            }
        }
    }

    fn strip_run_dependent(line: &str) -> String {
        strip_field(&strip_field(line, "elapsed_ms"), "loads")
    }

    #[test]
    fn routing_is_deterministic_and_tagged() {
        // Precomputed FNV-1a values: h("g:alpha") = 13295628215524255688,
        // h("g:beta") = 25966380842540422, h("f:/tmp/a.txt") =
        // 587426745370860717, h("f:g:alpha") = 344651217429707284.
        // A restart (or another process) recomputes the same hash — the
        // function is pure, which is the whole determinism story.
        assert_eq!(routing_shard(Some("alpha"), None, 2), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 4), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 8), 0);
        assert_eq!(routing_shard(Some("beta"), None, 4), 2);
        assert_eq!(routing_shard(Some("beta"), None, 8), 6);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 2), 1);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 8), 5);
        // The graph name wins when both identities are present (the
        // serve layer rejects that request anyway; routing must still
        // be total), and the g:/f: tags keep a file named like a
        // session graph on its own routing key.
        assert_eq!(
            routing_shard(Some("alpha"), Some("/tmp/a.txt"), 8),
            routing_shard(Some("alpha"), None, 8)
        );
        assert_eq!(routing_shard(None, Some("g:alpha"), 8), 4);
        // Identity-free requests (and the degenerate shard counts)
        // pin to shard 0.
        assert_eq!(routing_shard(None, None, 8), 0);
        assert_eq!(routing_shard(Some("anything"), None, 1), 0);
        assert_eq!(routing_shard(Some("anything"), None, 0), 0);
    }

    #[test]
    fn sharded_transcript_is_byte_identical_to_single_shard() {
        let a = fixture("parity_a.txt", "0 1\n0 2\n1 2\n2 3\n");
        let b = fixture("parity_b.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n");
        let requests = format!(
            concat!(
                "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":2,\"algorithm\":\"charikar\",\"file\":\"{a}\"}}\n",
                "{{\"id\":3,\"algorithm\":\"approx\",\"file\":\"{b}\"}}\n",
                "{{\"id\":4,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":5,\"op\":\"create_graph\",\"graph\":\"pg\",\"edges\":\"0 1, 1 2, 0 2\"}}\n",
                "{{\"id\":6,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":7,\"op\":\"add_edges\",\"graph\":\"pg\",\"edges\":\"2 3\"}}\n",
                "{{\"id\":8,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":9,\"op\":\"shutdown\"}}\n",
            ),
            a = a.display(),
            b = b.display(),
        );
        let mut transcripts = Vec::new();
        for shards in [1usize, 4] {
            let sock = sock_path(&format!("parity{shards}"));
            let server = spawn_server(
                sock.clone(),
                ServeOptions {
                    workers: 2,
                    max_connections: 8,
                    shards,
                    ..ServeOptions::default()
                },
            );
            let mut conn = connect_retry(&sock);
            let lines = exchange(&mut conn, &requests, 9);
            server.join().expect("server panicked");
            transcripts.push(
                lines
                    .iter()
                    .map(|l| strip_run_dependent(l))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "4-shard responses must be byte-identical to 1-shard (minus elapsed_ms/loads)"
        );
        // And they carried real results, not errors.
        assert!(transcripts[0].iter().all(|l| l.contains("\"ok\":true")));
    }

    /// One hostile transcript per wire format gets the same replies from
    /// a 1-shard and a 2-shard server: per-request errors keep the
    /// connection open, input that cannot be re-synchronized (a line
    /// over the cap, a damaged batch item) gets one error reply and then
    /// EOF, and the server goes on serving. Read timeouts turn a missing
    /// reply into a failure rather than a hang.
    #[test]
    fn hostile_input_gets_the_same_replies_at_one_and_two_shards() {
        use crate::frame::{self, Opcode};
        use std::io::Read;

        // A blank line, malformed JSON, invalid UTF-8, an unknown op,
        // then a line that never ends within the cap.
        let mut jsonl = b"\n{\"id\":1,\n{\"id\":2,\"algorithm\":\"appr\xff\xfe\"}\n\
            {\"id\":3,\"op\":\"frobnicate\"}\n"
            .to_vec();
        jsonl.resize(jsonl.len() + frame::DEFAULT_MAX_FRAME + 1, b'x');
        // One batch frame: two good requests, a payload with an unknown
        // key tag, then an item with an unknown opcode.
        let mut items = Vec::new();
        for (op, line) in [
            (
                "create_graph",
                "{\"id\":4,\"graph\":\"h\",\"edges\":\"0 1, 1 2, 0 2\"}",
            ),
            (
                "query",
                "{\"id\":5,\"algorithm\":\"approx\",\"graph\":\"h\"}",
            ),
        ] {
            let fields = minijson::parse_object(line).expect("request parses");
            frame::encode_batch_item(op, &fields, &mut items).expect("encodes");
        }
        items.push(Opcode::Query.byte());
        items.extend_from_slice(&2u32.to_le_bytes());
        items.extend_from_slice(&[0x7E, 0]);
        items.push(0x7F);
        let mut batch = Vec::new();
        let len_at = frame::begin_frame(Opcode::Batch, &mut batch);
        batch.extend_from_slice(&items);
        frame::end_frame(&mut batch, len_at);

        let mut transcripts = Vec::new();
        for shards in [1usize, 2] {
            let sock = sock_path(&format!("hostile{shards}"));
            let server = spawn_server(
                sock.clone(),
                ServeOptions {
                    workers: 2,
                    max_connections: 8,
                    shards,
                    ..ServeOptions::default()
                },
            );
            let mut replies = Vec::new();
            let mut conn = connect_retry(&sock);
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            conn.write_all(&jsonl).expect("send");
            let mut out = String::new();
            conn.read_to_string(&mut out).expect("replies, then EOF");
            replies.extend(out.lines().map(strip_run_dependent));

            let mut conn = connect_retry(&sock);
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            conn.write_all(&batch).expect("send");
            let mut out = Vec::new();
            conn.read_to_end(&mut out).expect("reply frames, then EOF");
            let mut rest = &out[..];
            while let Some(header) = rest.get(..frame::HEADER_LEN) {
                let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
                let end = frame::HEADER_LEN + len;
                let json = std::str::from_utf8(&rest[frame::HEADER_LEN..end]).expect("utf8");
                replies.push(strip_run_dependent(json));
                rest = &rest[end..];
            }

            let mut conn = connect_retry(&sock);
            let tail = exchange(
                &mut conn,
                "{\"id\":6,\"op\":\"create_graph\",\"graph\":\"ok\"}\n{\"op\":\"shutdown\"}\n",
                2,
            );
            assert!(tail[0].starts_with("{\"id\":6,\"ok\":true"), "{}", tail[0]);
            let summary = server.join().expect("server panicked");
            assert_eq!(summary.errors, 6, "{summary:?}");
            transcripts.push(replies);
        }
        assert_eq!(transcripts[0], transcripts[1]);
        let replies = &transcripts[0];
        assert_eq!(replies.len(), 8, "{replies:#?}");
        assert!(
            replies[0].starts_with("{\"id\":null,\"ok\":false"),
            "{}",
            replies[0]
        );
        assert!(
            replies[1].contains("unknown algorithm 'appr\u{FFFD}\u{FFFD}'"),
            "{}",
            replies[1]
        );
        assert!(
            replies[2].contains("unknown op 'frobnicate'"),
            "{}",
            replies[2]
        );
        assert!(
            replies[3].contains("exceeds the 16777216-byte cap"),
            "{}",
            replies[3]
        );
        assert!(
            replies[4].starts_with("{\"id\":4,\"ok\":true"),
            "{}",
            replies[4]
        );
        assert!(
            replies[5].starts_with("{\"id\":5,\"ok\":true"),
            "{}",
            replies[5]
        );
        assert!(
            replies[6].contains("unknown field-key tag 0x7e"),
            "{}",
            replies[6]
        );
        assert!(
            replies[7].contains("unknown frame opcode 0x7f"),
            "{}",
            replies[7]
        );
    }

    #[test]
    fn binary_and_batched_requests_flow_through_the_router() {
        let a = fixture("bin_a.txt", "0 1\n0 2\n1 2\n");
        let sock = sock_path("binary");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        connect_retry(&sock);
        let mut requests = String::new();
        for id in 1..=6 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"algorithm\":\"approx\",\"file\":\"{}\"}}\n",
                a.display()
            ));
        }
        requests.push_str("{\"id\":7,\"op\":\"stats\"}\n");
        requests.push_str("{\"id\":8,\"op\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let stats = crate::serve::client_unix_opts(
            &sock,
            std::io::Cursor::new(requests),
            &mut out,
            &crate::serve::ClientOptions {
                binary: true,
                pipeline: 4,
            },
        )
        .expect("binary client failed");
        server.join().expect("server panicked");
        assert_eq!(stats.exchanges, 8);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 8);
        // Replies in request order, all ok, stats merged from 2 shards.
        for (index, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{}", index + 1)),
                "out of order: {line}"
            );
            assert!(line.contains("\"ok\":true"), "not ok: {line}");
        }
        assert!(lines[6].contains("\"shards\":[{\"shard\":0,"));
    }

    #[test]
    fn stats_merge_sums_shards_and_keeps_the_flat_field_order() {
        let sock = sock_path("stats");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        let mut conn = connect_retry(&sock);
        // "a" routes to shard 1 and "b" to shard 0 of 2 (FNV-1a above),
        // so this session exercises both engines. "ghost" names no graph
        // and routes to shard 1, whose engine rejects the mutation.
        assert_eq!(routing_shard(Some("a"), None, 2), 1);
        assert_eq!(routing_shard(Some("b"), None, 2), 0);
        assert_eq!(routing_shard(Some("ghost"), None, 2), 1);
        let lines = exchange(
            &mut conn,
            concat!(
                "{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1, 1 2\"}\n",
                "{\"id\":2,\"op\":\"create_graph\",\"graph\":\"b\",\"edges\":\"0 1\"}\n",
                "{\"id\":3,\"op\":\"add_edges\",\"graph\":\"a\",\"edges\":\"2 0\"}\n",
                "{\"id\":4,\"algorithm\":\"approx\",\"graph\":\"a\"}\n",
                "{\"id\":5,\"algorithm\":\"approx\",\"graph\":\"b\"}\n",
                "{\"id\":6,\"op\":\"add_edges\",\"graph\":\"ghost\",\"edges\":\"0 1\"}\n",
                "{\"id\":7,\"op\":\"stats\"}\n",
                "{\"id\":8,\"op\":\"shutdown\"}\n",
            ),
            8,
        );
        let summary = server.join().expect("server panicked");
        assert!(
            lines[5].starts_with("{\"id\":6,\"ok\":false"),
            "{}",
            lines[5]
        );
        assert_eq!(summary.errors, 1, "{summary:?}");
        let stats = &lines[6];
        // Counters summed across both engines.
        assert!(stats.contains("\"graphs_named\":2"), "{stats}");
        assert!(stats.contains("\"mutations\":1"), "{stats}");
        assert!(stats.contains("\"result_misses\":2"), "{stats}");
        // Named arrays concatenated in shard order: b (shard 0) first.
        let named_b = stats.find("\"name\":\"b\"").expect("named b");
        let named_a = stats.find("\"name\":\"a\"").expect("named a");
        assert!(named_b < named_a, "{stats}");
        // Per-shard breakdown proves the routing split: shard 0 ran b's
        // create + query, shard 1 ran a's create + add + query and
        // counted the failed mutation of "ghost" as its own error.
        assert!(
            stats.contains("{\"shard\":0,\"routed\":2,\"queries\":1,\"mutations\":1,\"errors\":0,"),
            "{stats}"
        );
        assert!(
            stats.contains("{\"shard\":1,\"routed\":4,\"queries\":1,\"mutations\":2,\"errors\":1,"),
            "{stats}"
        );
        // The flat prefix keeps the exact single-engine field order, so
        // existing stats consumers parse a sharded server unchanged.
        let order = [
            "\"ok\":",
            "\"loads\":",
            "\"hits\":",
            "\"stat_scans\":",
            "\"evictions\":",
            "\"graphs\":",
            "\"result_hits\":",
            "\"result_misses\":",
            "\"result_insertions\":",
            "\"result_evictions\":",
            "\"result_entries\":",
            "\"result_bytes\":",
            "\"conn_active\":",
            "\"conn_peak\":",
            "\"mutations\":",
            "\"graphs_named\":",
            "\"warm_hits\":",
            "\"warm_fallbacks\":",
            "\"incremental_hits\":",
            "\"incremental_fallbacks\":",
            "\"replayed_ops\":",
            "\"dropped_tail_records\":",
            "\"named\":",
            "\"shards\":",
        ];
        let mut last = 0usize;
        for key in order {
            let at = stats
                .find(key)
                .unwrap_or_else(|| panic!("missing {key} in {stats}"));
            assert!(at > last, "field {key} out of order in {stats}");
            last = at;
        }
    }
}
