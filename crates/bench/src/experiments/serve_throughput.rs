//! **Serve-throughput experiment** — the wire-path story end to end:
//! the same (clients × workers) grid measured over three transports —
//! JSONL lockstep, binary frames lockstep, and binary frames pipelined
//! — reporting q/s **and tail latency** (p50/p99 per request) per cell,
//! with content parity across transports asserted per row.
//!
//! Per case, three fresh [`dsg_engine::Engine`]s serve three Unix
//! sockets with a worker pool ([`dsg_engine::ServeOptions`]), one per
//! transport, all started up front. On each, a single warm-up
//! connection first sends one round (one query per distinct graph
//! file) and its response transcript — stripped of the
//! nondeterministic `elapsed_ms` — must be **byte-identical** to the
//! JSONL transcript of the same case (fresh servers make the cache
//! counters deterministic, so this is an exact comparison, not a
//! fuzzy one). Then [`dsg_engine::client_fan_out`] opens `clients`
//! connections that each send `repeat` rounds, the fan-out behind
//! `densest client --parallel N [--binary] [--pipeline K]`, and
//! per-request latencies from every connection are folded into the
//! p50/p99 columns. The timed phase runs `TRIALS` times per transport,
//! the transports taking turns within a trial in an order rotated each
//! trial, so a slow spell of the host lands on every transport alike;
//! the fastest trial of each is reported (min-time benchmarking:
//! scheduler noise only ever slows a trial down).
//!
//! Afterwards the `stats` op is parsed (with the same `minijson`
//! parser the server uses) and the run `assert!`s the properties the
//! CI smoke steps rely on:
//!
//! * **single-flight loading** — `loads` equals the number of distinct
//!   graph files, no matter how many clients raced on them cold;
//! * **result caching** — every timed-phase query repeats the warm-up
//!   queries, so *all* of them must be result-cache replays;
//! * **transport parity** — binary and pipelined transcripts match the
//!   JSONL transcript exactly (modulo `elapsed_ms`);
//! * **the wire path pays for itself** — on the 1×1 cell, where the
//!   measurement is least scheduler-noisy, pipelined binary q/s must
//!   beat JSONL lockstep by at least [`MIN_PIPELINE_SPEEDUP`]×. The
//!   floor is deliberately conservative for noisy CI runners; the
//!   table reports the honest measured ratio.
//!
//! On a single-CPU container the measured q/s does not scale with
//! workers (the compute is serialized by the hardware) — but the
//! *transport* speedup survives, because it removes per-request round
//! trips and syscalls rather than adding parallelism.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use dsg_datasets::{flickr_standin, livejournal_standin, Scale};
use dsg_engine::minijson::{self, Value};
use dsg_engine::{
    client_fan_out, client_unix_opts, percentile, routing_shard, serve_unix, ClientOptions, Engine,
    FanOutConn, ResourcePolicy, ServeOptions,
};
use dsg_graph::io::write_text;

use crate::table::{fmt_f, Table};

/// Conservative internal floor for the pipelined-binary speedup over
/// JSONL lockstep on the 1×1 cell. Measured runs on a single-CPU
/// container sit at 3.0–3.5× (result-cache replays make the wire the
/// bottleneck); the floor is set well below that so noisy CI runners
/// don't flake, while still catching the fast path silently rotting
/// back to per-request round trips.
pub const MIN_PIPELINE_SPEEDUP: f64 = 2.0;

/// Requests kept in flight per connection for the pipelined transport.
const PIPELINE_DEPTH: usize = 128;

/// Timed-phase trials per row; the fastest trial is reported. On a
/// shared single-CPU runner the spread between trials is scheduler
/// noise, and min-time is the standard way to strip it without
/// inflating the result (every trial really ran that fast end to end).
const TRIALS: usize = 3;

/// One (transport × clients × workers) measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Case label (`clients x workers`).
    pub case: String,
    /// Wire transport: `jsonl`, `binary`, or `binary+pipe`.
    pub transport: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
    /// Query rounds each client issued.
    pub repeat: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Timed-phase query requests answered.
    pub queries: u64,
    /// Wall-clock milliseconds of the timed client phase.
    pub wall_ms: f64,
    /// Queries per second.
    pub qps: f64,
    /// Median per-request latency (ms) across all connections.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency (ms).
    pub p99_ms: f64,
    /// `qps / qps(jsonl)` for the same case (1.0 on the jsonl row).
    pub speedup: f64,
    /// Graph loads (must equal the number of distinct graph files).
    pub loads: u64,
    /// Result-cache replays.
    pub result_hits: u64,
    /// Concurrent-connection high-water mark the server observed.
    pub conn_peak: u64,
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_serve_throughput");
    std::fs::create_dir_all(&dir).expect("cannot create serve-throughput data dir");
    dir
}

/// Pulls a numeric field out of a parsed stats response.
fn stat_u64(fields: &[(String, Value)], key: &str) -> u64 {
    minijson::get(fields, key)
        .and_then(Value::as_uint)
        .unwrap_or_else(|| panic!("stats response missing '{key}'"))
}

/// Removes the nondeterministic `elapsed_ms` field (always last on
/// query responses) so transcripts compare byte-for-byte.
fn strip_elapsed(text: &str) -> String {
    text.lines()
        .map(|line| match line.find(",\"elapsed_ms\":") {
            Some(at) => format!("{}}}", &line[..at]),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Folds a timed phase's connections: total exchanges, each connection's
/// transcript, and every latency sample. A failed connection panics,
/// naming `what`.
fn fold_conns(conns: Vec<FanOutConn>, what: &str) -> (u64, Vec<String>, Vec<f64>) {
    let mut exchanges = 0;
    let mut transcripts = Vec::with_capacity(conns.len());
    let mut latencies = Vec::new();
    for conn in conns {
        if let Some(e) = conn.error {
            panic!("{what} failed: {e}");
        }
        exchanges += conn.stats.exchanges;
        latencies.extend(conn.stats.latencies_ms);
        transcripts.push(String::from_utf8(conn.transcript).expect("utf8 response"));
    }
    (exchanges, transcripts, latencies)
}

/// Sends `stats` then `shutdown` over one lockstep JSONL connection and
/// returns both replies.
fn stats_then_shutdown(sock: &Path) -> String {
    let mut out = Vec::new();
    client_unix_opts(
        sock,
        Cursor::new("{\"op\":\"stats\",\"id\":\"s\"}\n{\"op\":\"shutdown\"}\n"),
        &mut out,
        &ClientOptions::default(),
    )
    .expect("stats client failed");
    String::from_utf8(out).expect("utf8 stats")
}

/// One transport's timed trials: the fastest trial's wall time and
/// latencies, the requests all trials answered, and the first failed
/// reply.
struct Timed {
    wall_ms: f64,
    latencies: Vec<f64>,
    answered: u64,
    failed: Option<String>,
}

/// The three transports under measurement.
fn transports() -> [(&'static str, ClientOptions); 3] {
    [
        (
            "jsonl",
            ClientOptions {
                binary: false,
                pipeline: 1,
            },
        ),
        (
            "binary",
            ClientOptions {
                binary: true,
                pipeline: 1,
            },
        ),
        (
            "binary+pipe",
            ClientOptions {
                binary: true,
                pipeline: PIPELINE_DEPTH,
            },
        ),
    ]
}

/// Runs the experiment at the given scale.
pub fn run(scale: Scale) -> Vec<Row> {
    // Two distinct graph files so "loads == distinct graphs" is a
    // stronger assertion than "loads == 1".
    let dir = data_dir();
    let graphs = [
        (dir.join("serve_a.txt"), flickr_standin(scale)),
        (dir.join("serve_b.txt"), livejournal_standin(scale)),
    ];
    for (path, list) in &graphs {
        write_text(path, list).expect("write serve-throughput edge file");
    }
    let distinct_graphs = graphs.len() as u64;

    // One round = one query per graph file. The timed phase repeats it
    // enough that pipelining has windows to fill.
    let round: String = graphs
        .iter()
        .enumerate()
        .map(|(i, (path, _))| {
            format!(
                "{{\"id\":{i},\"algorithm\":\"approx\",\"file\":\"{}\",\"epsilon\":0.5}}\n",
                path.display()
            )
        })
        .collect();
    let repeat = 1024;

    let cases: &[(usize, usize)] = &[(1, 1), (2, 2), (4, 4)];
    let arms = transports();
    let mut rows = Vec::new();
    for &(clients, workers) in cases {
        // One fresh server per transport, all started up front, so the
        // arms' timed trials can interleave on equal terms.
        let engines: Vec<Engine> = arms.iter().map(|_| Engine::new()).collect();
        let socks: Vec<PathBuf> = arms
            .iter()
            .map(|(transport, _)| dir.join(format!("serve_{clients}x{workers}_{transport}.sock")))
            .collect();
        let policy = ResourcePolicy::default();
        let options = ServeOptions {
            workers,
            max_connections: 2 * clients.max(1),
            shards: 1,
            ..ServeOptions::default()
        };
        let requests = vec![round.repeat(repeat); clients];
        let expected = (clients * repeat * graphs.len()) as u64;
        let (warmups, timed, stats) = std::thread::scope(|s| {
            let servers: Vec<_> = engines
                .iter()
                .zip(&socks)
                .map(|(engine, sock)| {
                    let _ = std::fs::remove_file(sock);
                    let (policy, options) = (&policy, &options);
                    s.spawn(move || {
                        serve_unix(engine, policy, sock, options).expect("serve loop failed")
                    })
                })
                .collect();
            for sock in &socks {
                for _ in 0..300 {
                    if sock.exists() {
                        break;
                    }
                    // Harness-only: wait for the server thread to bind.
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                assert!(sock.exists(), "server socket never appeared");
            }

            // Parity warm-up: one connection, one round, fresh server
            // — the transcript is fully deterministic (cold cache
            // counters included), so each arm's must match JSONL's.
            let warmups: Vec<String> = arms
                .iter()
                .zip(&socks)
                .map(|((_, client_options), sock)| {
                    let mut out = Vec::new();
                    client_unix_opts(sock, Cursor::new(round.clone()), &mut out, client_options)
                        .expect("warm-up client failed");
                    strip_elapsed(&String::from_utf8(out).expect("utf8 response"))
                })
                .collect();

            // Timed phase: `clients` connections × `repeat` rounds per
            // arm, [`TRIALS`] times. The arms take turns within a trial,
            // in an order rotated each trial, so a slow spell of the
            // host falls on every arm alike; each arm keeps its fastest
            // trial (and its latencies).
            let mut timed: Vec<Timed> = arms
                .iter()
                .map(|_| Timed {
                    wall_ms: f64::INFINITY,
                    latencies: Vec::new(),
                    answered: 0,
                    failed: None,
                })
                .collect();
            for trial in 0..TRIALS {
                for turn in 0..arms.len() {
                    let arm = (trial + turn) % arms.len();
                    let started = std::time::Instant::now();
                    let conns = client_fan_out(&socks[arm], &requests, &arms[arm].1);
                    let trial_wall = started.elapsed().as_secs_f64() * 1e3;
                    let (exchanged, transcripts, trial_lats) = fold_conns(conns, "client");
                    let t = &mut timed[arm];
                    t.answered += exchanged;
                    t.failed = t.failed.take().or_else(|| {
                        let mut lines = transcripts.iter().flat_map(|t| t.lines());
                        lines
                            .find(|line| !line.contains("\"ok\":true"))
                            .map(str::to_string)
                    });
                    if trial_wall < t.wall_ms {
                        t.wall_ms = trial_wall;
                        t.latencies = trial_lats;
                    }
                }
            }

            // Read each server's counters, then shut it down.
            let stats: Vec<(String, bool)> = socks
                .iter()
                .zip(servers)
                .map(|(sock, server)| {
                    let out = stats_then_shutdown(sock);
                    (out, server.join().expect("server thread panicked").shutdown)
                })
                .collect();
            (warmups, timed, stats)
        });

        // Asserted only now, with the servers down: a panic inside the
        // scope would leave the serve threads running and deadlock it.
        let mut jsonl_qps = 0.0;
        for (arm, (transport, _)) in arms.iter().enumerate() {
            let transport = *transport;
            assert_eq!(
                warmups[arm], warmups[0],
                "{transport} responses must be byte-identical in content to JSONL \
                 ({clients} clients, {workers} workers)"
            );
            let Timed {
                wall_ms,
                latencies,
                answered,
                failed,
            } = &timed[arm];
            assert!(failed.is_none(), "query failed under load: {failed:?}");
            assert_eq!(
                *answered,
                expected * TRIALS as u64,
                "every request must be answered"
            );
            let (out, shutdown) = &stats[arm];
            assert!(shutdown, "server must exit via shutdown");
            assert!(!socks[arm].exists(), "socket file must be removed");
            let stats_line = out.lines().next().expect("stats response");
            let fields = minijson::parse_object(stats_line).expect("stats parses");
            let loads = stat_u64(&fields, "loads");
            let result_hits = stat_u64(&fields, "result_hits");
            let conn_peak = stat_u64(&fields, "conn_peak");
            // The properties this experiment exists to pin down.
            assert_eq!(
                loads, distinct_graphs,
                "single-flight: each distinct graph loads exactly once \
                 ({transport}, {clients} clients, {workers} workers)"
            );
            // The warm-up round computed both results; every timed
            // query in every trial repeats one of them, so all must be
            // replays.
            let expected_hits = expected * TRIALS as u64;
            assert!(
                result_hits >= expected_hits,
                "expected ≥ {expected_hits} result-cache hits, got {result_hits} ({transport})"
            );

            let qps = if *wall_ms > 0.0 {
                expected as f64 / (wall_ms / 1e3)
            } else {
                0.0
            };
            if arm == 0 {
                jsonl_qps = qps;
            }
            let speedup = if jsonl_qps > 0.0 {
                qps / jsonl_qps
            } else {
                0.0
            };
            if transport == "binary+pipe" && clients == 1 && workers == 1 {
                assert!(
                    speedup >= MIN_PIPELINE_SPEEDUP,
                    "pipelined binary must beat JSONL lockstep by ≥ {MIN_PIPELINE_SPEEDUP}x \
                     on the 1x1 cell (got {speedup:.2}x: {qps:.0} q/s vs {jsonl_qps:.0} q/s)"
                );
            }
            rows.push(Row {
                case: format!("{clients}x{workers}"),
                transport,
                clients,
                repeat,
                workers,
                queries: expected,
                wall_ms: *wall_ms,
                qps,
                p50_ms: percentile(latencies, 50.0),
                p99_ms: percentile(latencies, 99.0),
                speedup,
                loads,
                result_hits,
                conn_peak,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Sharded serving: the same socket, N hash-routed engine shards.
// ---------------------------------------------------------------------------

/// One shard-count measurement of the sharded table.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Engine shards behind the socket (`densest serve --shards`).
    pub shards: usize,
    /// Concurrent client connections (one per graph file, so the load
    /// on each shard is disjoint at the highest shard count).
    pub clients: usize,
    /// I/O workers per shard (`densest serve --workers`), each
    /// answering its connections' requests inline.
    pub workers: usize,
    /// Timed-phase query requests answered per trial.
    pub queries: u64,
    /// Wall-clock milliseconds of the fastest timed trial.
    pub wall_ms: f64,
    /// Aggregate queries per second across all connections.
    pub qps: f64,
    /// Median per-request latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile per-request latency (ms).
    pub p99_ms: f64,
    /// `qps / qps(reference row)` — scaling vs the first shard count.
    pub speedup: f64,
    /// Per-shard `routed` counters, `/`-joined (`-` on a 1-shard row,
    /// which keeps no per-shard counters).
    pub routed: String,
    /// Whether every response was byte-identical to the reference
    /// shard count's transcript (asserted — a row only exists if so).
    pub parity: bool,
}

/// Extracts a numeric counter from a raw JSON response line. The
/// sharded stats response embeds arrays (`named`, `shards`) that the
/// flat request parser rejects by design, so counters are read
/// textually here.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("stats response missing '{key}': {line}"));
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("stats field '{key}' is not a number: {line}"))
}

/// Removes one `,"key":value` scalar field from every line.
fn strip_scalar(text: &str, key: &str) -> String {
    let pat = format!(",\"{key}\":");
    text.lines()
        .map(|line| match line.find(&pat) {
            Some(at) => {
                let rest = &line[at + pat.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                format!("{}{}", &line[..at], &rest[end..])
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Strips the fields that legitimately differ between shard counts:
/// `elapsed_ms` (nondeterministic) and `loads` (an engine-cumulative
/// counter — a 1-shard server loads every file into one engine, shard
/// engines load only their own). Everything else must match exactly.
fn strip_run_dependent(text: &str) -> String {
    strip_scalar(&strip_scalar(text, "elapsed_ms"), "loads")
}

/// Runs the sharded-serving comparison: the same multi-graph workload
/// against one server per shard count, byte parity and per-shard
/// routing asserted against the first count (normally 1).
pub fn run_sharded(scale: Scale, shard_counts: &[usize]) -> Vec<ShardRow> {
    assert!(!shard_counts.is_empty(), "need at least one shard count");
    let max_shards = shard_counts.iter().copied().max().unwrap().max(1);
    let dir = data_dir();

    // One graph file per residue class mod the highest shard count,
    // probed by file name: at that count every file routes to a
    // distinct shard, so a connection pinned to one file generates
    // disjoint-shard load. (Any smaller count in the list divides the
    // load coarser but stays deterministic.)
    let mut files: Vec<String> = Vec::new();
    let mut covered = vec![false; max_shards];
    for i in 0u32.. {
        if files.len() == max_shards {
            break;
        }
        assert!(i < 10_000, "could not cover every shard residue");
        let key = dir
            .join(format!("shard_graph_{i}.txt"))
            .display()
            .to_string();
        let residue = routing_shard(None, Some(&key), max_shards);
        if !covered[residue] {
            covered[residue] = true;
            files.push(key);
        }
    }
    for (i, key) in files.iter().enumerate() {
        let mut list = if i % 2 == 0 {
            flickr_standin(scale)
        } else {
            livejournal_standin(scale)
        };
        // Every file must hold a *distinct* graph: the result cache
        // keys on the content fingerprint, so two identical files
        // would replay each other's results on a 1-shard server but
        // not across shards — a spurious parity break. A pendant edge
        // to a fresh node makes each file unique.
        let fresh = list.num_nodes;
        list.edges.push((0, fresh + i as u32));
        list.num_nodes = fresh + i as u32 + 1;
        write_text(PathBuf::from(key), &list).expect("write sharded edge file");
    }

    let clients = files.len();
    let workers = 2;
    let repeat = 512;
    let timed_options = ClientOptions {
        binary: true,
        pipeline: PIPELINE_DEPTH,
    };

    // One warm-up round: one query per file, in file order.
    let round: String = files
        .iter()
        .enumerate()
        .map(|(i, key)| {
            format!("{{\"id\":{i},\"algorithm\":\"approx\",\"file\":\"{key}\",\"epsilon\":0.5}}\n")
        })
        .collect();

    let mut ref_warmup = String::new();
    let mut ref_timed: Vec<String> = Vec::new();
    let mut ref_qps = 0.0;
    let mut rows = Vec::new();
    for (row_idx, &shards) in shard_counts.iter().enumerate() {
        let sock = dir.join(format!("serve_shards_{shards}.sock"));
        let _ = std::fs::remove_file(&sock);
        let engine = Engine::new();
        let policy = ResourcePolicy::default();
        let options = ServeOptions {
            workers,
            max_connections: 2 * clients + 2,
            shards,
            ..ServeOptions::default()
        };
        let mut row = std::thread::scope(|s| {
            let server = {
                let (engine, sock) = (&engine, sock.clone());
                s.spawn(move || {
                    serve_unix(engine, &policy, &sock, &options).expect("sharded serve loop failed")
                })
            };
            for _ in 0..300 {
                if sock.exists() {
                    break;
                }
                // Harness-only: wait for the server thread to bind.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(sock.exists(), "sharded server socket never appeared");

            // Warm-up + parity: a single JSONL connection runs the
            // round; the stripped transcript must be byte-identical
            // across shard counts.
            let warmup = {
                let mut out = Vec::new();
                client_unix_opts(
                    &sock,
                    Cursor::new(round.clone()),
                    &mut out,
                    &ClientOptions::default(),
                )
                .expect("sharded warm-up client failed");
                strip_run_dependent(&String::from_utf8(out).expect("utf8 response"))
            };
            // Timed phase: one pipelined binary connection per file.
            let requests: Vec<String> = files
                .iter()
                .map(|key| {
                    format!("{{\"algorithm\":\"approx\",\"file\":\"{key}\",\"epsilon\":0.5}}\n")
                        .repeat(repeat)
                })
                .collect();
            let expected = (clients * repeat) as u64;
            let mut wall_ms = f64::INFINITY;
            let mut latencies: Vec<f64> = Vec::new();
            let mut transcripts: Vec<String> = Vec::new();
            for trial in 0..TRIALS {
                let started = std::time::Instant::now();
                let conns = client_fan_out(&sock, &requests, &timed_options);
                let trial_wall = started.elapsed().as_secs_f64() * 1e3;
                let (total, outs, trial_lats) = fold_conns(conns, "sharded client");
                assert_eq!(total, expected, "every sharded request must be answered");
                if trial == 0 {
                    transcripts = outs.iter().map(|out| strip_run_dependent(out)).collect();
                }
                if trial_wall < wall_ms {
                    wall_ms = trial_wall;
                    latencies = trial_lats;
                }
            }

            // Counters, then shutdown. The merged stats keep the flat
            // 1-shard schema; in sharded mode a per-shard breakdown
            // array follows, and its `routed` counters must match the
            // per-file request counts exactly — every request touched
            // its home shard and no other (zero cross-shard traffic).
            let out = stats_then_shutdown(&sock);
            let stats_line = out.lines().next().expect("stats response").to_string();
            let summary = server.join().expect("sharded server thread panicked");
            assert!(summary.shutdown, "sharded server must exit via shutdown");
            assert!(!sock.exists(), "sharded socket file must be removed");

            // Parity — asserted only now, with the server down: a
            // panic inside the scope would otherwise leave the serve
            // thread running and deadlock the join instead of failing.
            for t in &transcripts {
                for line in t.lines() {
                    assert!(line.contains("\"ok\":true"), "sharded query failed: {line}");
                }
            }
            if row_idx == 0 {
                ref_warmup = warmup;
                ref_timed = transcripts;
            } else {
                assert_eq!(
                    warmup, ref_warmup,
                    "a {shards}-shard server must answer byte-identically to the \
                     {}-shard reference",
                    shard_counts[0]
                );
                assert_eq!(
                    transcripts, ref_timed,
                    "sharded timed-phase responses must be byte-identical to the \
                     reference transcript ({shards} shards)"
                );
            }

            assert_eq!(
                field_u64(&stats_line, "loads"),
                clients as u64,
                "single-flight per shard: each file loads exactly once ({shards} shards)"
            );
            let replays = (TRIALS * clients * repeat) as u64;
            let result_hits = field_u64(&stats_line, "result_hits");
            assert!(
                result_hits >= replays,
                "expected ≥ {replays} result-cache hits, got {result_hits} ({shards} shards)"
            );
            let routed = if shards == 1 {
                "-".to_string()
            } else {
                let mut per_shard = vec![0u64; shards];
                for key in &files {
                    per_shard[routing_shard(None, Some(key), shards)] +=
                        1 + (TRIALS * repeat) as u64;
                }
                for (k, expect) in per_shard.iter().enumerate() {
                    let want = format!("\"shard\":{k},\"routed\":{expect}");
                    assert!(
                        stats_line.contains(&want),
                        "per-shard breakdown must prove disjoint routing: \
                         missing {want} in {stats_line}"
                    );
                }
                per_shard
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/")
            };

            ShardRow {
                shards,
                clients,
                workers,
                queries: expected,
                wall_ms,
                qps: if wall_ms > 0.0 {
                    expected as f64 / (wall_ms / 1e3)
                } else {
                    0.0
                },
                p50_ms: percentile(&latencies, 50.0),
                p99_ms: percentile(&latencies, 99.0),
                speedup: 0.0, // filled in below
                routed,
                parity: true,
            }
        });
        if row_idx == 0 {
            ref_qps = row.qps;
        }
        row.speedup = if ref_qps > 0.0 {
            row.qps / ref_qps
        } else {
            0.0
        };
        rows.push(row);
    }

    // The scaling criterion: 4 shards must reach 1.5x the 1-shard
    // aggregate q/s — hard only where the hardware can parallelize.
    // On a 1-CPU container shards serialize on the core and the honest
    // result is ~1x (or below: more threads, same silicon), so the
    // floor degrades to a warning there.
    if shard_counts[0] == 1 {
        if let Some(best) = rows
            .iter()
            .filter(|r| r.shards >= 4)
            .map(|r| r.speedup)
            .max_by(|a, b| a.partial_cmp(b).expect("finite speedups"))
        {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            if cores >= 4 {
                assert!(
                    best >= 1.5,
                    "4-shard aggregate q/s must reach 1.5x the 1-shard server on a \
                     {cores}-core host (got {best:.2}x)"
                );
            } else if best < 1.5 {
                eprintln!(
                    "[serve-throughput] WARNING: sharded speedup {best:.2}x is below the \
                     1.5x multi-core floor ({cores} CPU(s) visible — shards serialize \
                     on the hardware; recorded warn-only)"
                );
            }
        }
    }
    rows
}

/// Renders the sharded rows as a paper-style table.
pub fn to_shard_table(rows: &[ShardRow]) -> Table {
    let mut t = Table::new(
        "Sharded serving: hash-routed engine shards behind one socket \
         (pipelined binary, one connection per graph file; byte parity and \
         disjoint per-shard routing asserted vs the first row)",
        &[
            "shards", "clients", "workers", "queries", "wall ms", "q/s", "p50 ms", "p99 ms",
            "speedup", "routed", "parity",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.shards.to_string(),
            r.clients.to_string(),
            r.workers.to_string(),
            r.queries.to_string(),
            fmt_f(r.wall_ms, 2),
            fmt_f(r.qps, 0),
            fmt_f(r.p50_ms, 3),
            fmt_f(r.p99_ms, 3),
            fmt_f(r.speedup, 2),
            r.routed.clone(),
            if r.parity { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t
}

/// Renders the rows as a paper-style table.
pub fn to_table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Serve throughput: transports x concurrent clients vs one worker-pool server \
         (two graph files; speedup is vs the same case's jsonl row)",
        &[
            "case",
            "transport",
            "clients",
            "workers",
            "queries",
            "wall ms",
            "q/s",
            "p50 ms",
            "p99 ms",
            "speedup",
            "loads",
            "res hits",
            "conn peak",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.case.clone(),
            r.transport.to_string(),
            r.clients.to_string(),
            r.workers.to_string(),
            r.queries.to_string(),
            fmt_f(r.wall_ms, 2),
            fmt_f(r.qps, 0),
            fmt_f(r.p50_ms, 3),
            fmt_f(r.p99_ms, 3),
            fmt_f(r.speedup, 2),
            r.loads.to_string(),
            r.result_hits.to_string(),
            r.conn_peak.to_string(),
        ]);
    }
    t
}
