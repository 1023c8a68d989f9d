//! `densest` — a command-line densest-subgraph tool over edge-list files.
//!
//! The binary is a thin layer over the `dsg-engine` query engine: each
//! query flag becomes the serve request field of the same name, the
//! serve protocol's own parser ([`parse_query`]) turns the fields into a
//! source, a query and a policy, the engine's planner picks
//! the execution backend (in-memory, file-streamed, sketched, MapReduce
//! with an in-RAM or spill-to-disk shuffle), and one
//! unified [`Report`] drives both the human and `--json` output. Run
//! `densest --help` for the full usage, including the long-running
//! `serve` mode that answers repeated JSONL queries against a
//! catalog-cached graph.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

use densest_subgraph::engine::minijson::Value;
use densest_subgraph::engine::{
    parse_query, percentile, Algorithm, BackendRequest, ClientOptions, Engine, EngineError,
    Outcome, Report, ResourcePolicy, ServeOptions,
};
use densest_subgraph::graph::NodeSet;

const USAGE: &str =
    "usage: densest <approx|atleast-k|directed|charikar|exact|enumerate> <edge-file> \
     [--epsilon f] [--k n] [--delta f] [--threads n] [--sketch b] [--stream] [--binary] \
     [--directed-input] [--backend auto|memory|stream|mapreduce] [--memory-budget bytes] \
     [--flow-backend dinic|push-relabel] [--json] [--quiet]\n\
       densest serve [--socket <path>] [--workers n] [--max-connections n] [--shards n] \
     [--threads n] [--memory-budget bytes] [--max-graphs n] \
     [--result-cache bytes] [--data-dir <path>] [--fsync-every n] \
     [--snapshot-every n] [--quiet]\n\
       densest client --socket <path> [--repeat n] [--parallel n] [--binary] \
     [--pipeline n]\n\
       densest --help";

const HELP: &str = "densest — densest-subgraph queries over edge-list files

usage:
  densest <algorithm> <edge-file> [options]     one-shot query
  densest serve [options]                       long-running JSONL server
  densest client --socket <path> [options]      client for a serve socket
  densest --help | -h                           this help

algorithms:
  approx     Algorithm 1  — undirected (2+2ε)-approximation  [default]
  atleast-k  Algorithm 2  — at least k nodes, (3+3ε)-approximation
  directed   Algorithm 3  — directed density with a c-sweep
  charikar   exact greedy peeling (2-approximation, in-memory)
  exact      Goldberg max-flow optimum (in-memory)
  enumerate  node-disjoint dense communities

query options (each sets the serve request field of the same name,
--directed-input -> \"directed_input\"; the server's parser reads them, so a
bad value gets the server's error text, before any file is read):
  --epsilon <f>        approximation parameter ε >= 0 (default 0.5)
  --k <n>              size floor for atleast-k, >= 1 (default 10)
  --delta <f>          c-grid resolution for directed, > 1 (default 2)
  --sketch <b>         use a Count-Sketch degree oracle with width b >= 1
                       (t=5)
  --binary             input is the dsg binary edge format
  --directed-input     parse the file as directed (for `directed`)
  --flow-backend <s>   max-flow solver, `exact` only: dinic (default) or
                       push-relabel
  --threads <n>        MapReduce worker threads, 1 to 256 (default 1); every
                       other backend runs serially (serve: the default)
  --memory-budget <b>  working-set budget in bytes (suffixes k/m/g allowed);
                       graphs whose in-memory estimate exceeds it are planned
                       on the out-of-core streamed backend automatically
                       (serve: the default)
  --backend <s>        force a backend instead of planning: auto (default),
                       memory, stream, mapreduce
  --stream             shorthand for --backend stream (approx, atleast-k):
                       run straight over the file, one re-read per pass,
                       O(n) memory — the edge list is never materialized

output options (one-shot):
  --json               print a one-line machine-readable JSON summary
  --quiet              print only the summary line

serve mode:
  densest serve reads one flat JSON request per line (stdin, or a Unix
  socket with --socket) and writes one JSON response per line. A query
  request carries the query options above as fields, plus \"file\" or
  \"graph\" and enumerate's \"min_density\" and \"max_communities\". Socket
  mode serves many clients concurrently: an accept thread hands
  connections to --workers worker threads per shard (default 4), each
  answering its connections' requests itself, one at a time, and at most
  --max-connections connections are open at once (default 64; at the
  cap the accept thread waits until one closes, so further clients wait
  in the socket backlog — that is the backpressure). All workers
  share one engine: graphs are loaded once into a catalog (single-flight
  — concurrent cold requests trigger exactly one load) and every further
  query is a cache hit; repeated identical queries are replayed from a
  result cache without recomputing (bounded at --result-cache bytes,
  default 64m; 0 disables it). The response's `loads` and
  `result_cache_hit` counters prove both, and a {\"op\":\"stats\"} request
  reports the full counter set including the concurrent-connection high
  water mark. The catalog keeps at most --max-graphs graphs (default 32,
  LRU eviction). The loop exits cleanly on EOF (stdin), on client
  disconnect (socket: that connection only), or on a {\"op\":\"shutdown\"}
  request, which drains in-flight queries before removing the socket
  file. Example session:

    $ densest serve --socket /tmp/dsg.sock &
    $ printf '%s\\n' \\
        '{\"id\":1,\"algorithm\":\"approx\",\"file\":\"g.txt\",\"epsilon\":0.5}' \\
        '{\"id\":2,\"algorithm\":\"exact\",\"file\":\"g.txt\"}' \\
        '{\"op\":\"shutdown\"}' | densest client --socket /tmp/dsg.sock
    {\"id\":1,\"ok\":true,\"result\":{...},\"cache_hit\":0,\"result_cache_hit\":0,\"loads\":1,\"elapsed_ms\":...}
    {\"id\":2,\"ok\":true,\"result\":{...},\"cache_hit\":1,\"result_cache_hit\":0,\"loads\":1,\"elapsed_ms\":...}
    {\"id\":null,\"ok\":true,\"bye\":true}

  The nested `result` object is byte-identical to the one-shot `--json`
  summary of the same query (minus the nondeterministic elapsed_ms) —
  cold, catalog-cached, and result-cache-replayed alike.

sharded serving (socket mode):
  --shards n (default 1) splits the server into n independent engines —
  each with its own catalog, result cache, and warm/incremental state —
  behind one socket, with --workers worker threads per shard. A worker
  routes every request it reads by a stable hash of its graph identity
  (\"graph\" name, else \"file\" path) and answers it on that shard's
  engine, so a named graph's whole session always lands on the same
  shard and shards never touch each other's locks. Responses stay
  byte-identical in content to a 1-shard server; the stats op reports
  merged counters plus a per-shard \"shards\" breakdown.

mutable graph sessions (serve mode):
  {\"op\":\"create_graph\",\"graph\":\"g\",\"directed\":false,\"edges\":\"0 1, 1 2\"}
  makes a named in-memory mutable graph; {\"op\":\"add_edges\"} /
  {\"op\":\"remove_edges\"} mutate it in batches (edges are one flat
  string of 'u v' pairs) and {\"op\":\"compact\"} folds its delta logs
  into a fresh base. Queries target it with \"graph\":\"g\" instead of
  \"file\". Every mutation bumps the graph's version; cached results of
  older versions are structurally unreachable and evicted eagerly, so a
  query after a mutation always recomputes (result_cache_hit: 0). After
  a small delta, approx and directed queries take the incremental tier
  first: the mutation journal is replayed through the stored peel trace
  and only the affected region is re-peeled, verified against the
  published snapshot before answering (the tier gives up once the
  affected set passes 5% of the nodes, at least 8). Past that, and for
  every atleast-k query, a warm restart re-peels the already-materialized
  snapshot (delta logs auto-compact once they outnumber the base edges).
  The stats op reports per-graph version/delta_edges/compactions plus
  warm and incremental hit/fallback counters.

durable sessions (serve mode):
  --data-dir <path> makes named graphs survive restarts: every session
  op (create/add/remove/compact) is appended to a checksummed
  write-ahead log under <path> *before* the new version is published,
  and a compacted snapshot is rotated in every --snapshot-every records
  (default 256). On startup the server replays log-over-snapshot and
  resumes at the exact version it stopped at — versions never regress,
  so result-cache and warm-seed invariants hold across a crash. A torn
  tail record (kill mid-append) fails its checksum and is dropped
  whole, never replayed partially. --fsync-every n fsyncs the log after
  every nth record (default 1 = every record; 0 = leave flushing to the
  OS). Each shard persists under its own <path>/shard-<i> subdirectory,
  so the shard count must be stable across restarts of the same data
  dir. The stats op reports per-graph wal_bytes/snapshot_version/
  last_fsync plus server-wide replayed_ops/dropped_tail_records.

client mode:
  densest client forwards each stdin line to the server and prints each
  response line; without other flags it reads the next line only once
  the previous response is printed. --repeat n sends the whole request
  set n times; --parallel n spreads those rounds across n concurrent
  connections (round-robin — total work is repeat x request-set
  regardless of the connection count; responses are printed grouped per
  connection, and a throughput summary with per-connection p50/p99
  latency goes to stderr).
  --binary switches the connection to the length-prefixed binary frame
  protocol (the server detects it per connection; response lines stay
  byte-identical to JSONL), and --pipeline n sends windows of up to n
  requests (at most 64 KiB each), the next one before the previous
  one's responses are read — in binary mode a window travels as one
  batch frame. The throughput experiment and the CI concurrent-serve
  smoke are built on these flags.

The input is a whitespace-separated `u v [w]` edge list with `#` comments
(SNAP format), or the compact binary format with --binary. The planner is
deterministic and explainable: the chosen backend and the rules that fired
are reported in the JSON summary (`backend`, `plan`) and on stderr.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// Parses a flag value, naming the flag in the error. Never panics on
/// user input — asserts deep inside the kernels are not an error path.
fn parse_value<T: std::str::FromStr>(name: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value '{raw}' for {name}");
        exit(2);
    })
}

/// A byte size: plain bytes or a k/m/g (KiB multiple) suffix; `None`
/// if it does not parse or overflows.
fn parse_bytes(raw: &str) -> Option<u64> {
    let s = raw.trim().to_ascii_lowercase();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') => (&s[..s.len() - 1], 1 << 10),
        Some(b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (&s[..], 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// A byte-size flag of `serve` (`--memory-budget`, `--result-cache`).
fn byte_flag(name: &str, raw: &str) -> u64 {
    parse_bytes(raw).unwrap_or_else(|| {
        eprintln!("invalid value '{raw}' for {name}");
        exit(2);
    })
}

/// The value type of a one-shot query flag.
#[derive(Clone, Copy)]
enum FlagType {
    Number,
    Unsigned,
    /// A byte size with an optional k/m/g suffix.
    Bytes,
    Text,
    /// No value: the field is `true`.
    Flag,
}

/// The one-shot query flags. `--foo-bar v` sets the request field
/// `foo_bar`, and `dsg_engine::parse_query` — the serve protocol's
/// parser — reads the fields, so defaults, ranges and error texts are
/// the server's. A value that does not read as its type is passed on as
/// a string, which the parser refuses by the field's name.
const QUERY_FLAGS: [(&str, FlagType); 11] = [
    ("--epsilon", FlagType::Number),
    ("--k", FlagType::Unsigned),
    ("--delta", FlagType::Number),
    ("--threads", FlagType::Unsigned),
    ("--sketch", FlagType::Unsigned),
    ("--stream", FlagType::Flag),
    ("--binary", FlagType::Flag),
    ("--directed-input", FlagType::Flag),
    ("--backend", FlagType::Text),
    ("--memory-budget", FlagType::Bytes),
    ("--flow-backend", FlagType::Text),
];

fn print_set(nodes: &NodeSet, quiet: bool) {
    if quiet {
        return;
    }
    let v = nodes.to_vec();
    let shown: Vec<String> = v.iter().take(50).map(|u| u.to_string()).collect();
    let ellipsis = if v.len() > 50 { ", …" } else { "" };
    println!("nodes: [{}{}]", shown.join(", "), ellipsis);
}

/// Renders the human-readable result, matching the pre-engine output of
/// every algorithm branch byte for byte.
fn print_human(report: &Report, quiet: bool) {
    match (&report.query.algorithm, &report.outcome) {
        (Algorithm::Approx { epsilon, .. }, _) => {
            println!(
                "density {:.6} on {} nodes ({} passes, ε = {})",
                report.density(),
                report.node_count(),
                report.passes().unwrap_or(0),
                epsilon
            );
            print_set(report.best_set().expect("approx has a set"), quiet);
        }
        (Algorithm::AtLeastK { k, .. }, _) => {
            println!(
                "density {:.6} on {} nodes (k = {}, {} passes)",
                report.density(),
                report.node_count(),
                k,
                report.passes().unwrap_or(0)
            );
            print_set(report.best_set().expect("atleast-k has a set"), quiet);
        }
        (Algorithm::Directed { delta, .. }, Outcome::Sweep(sweep)) => {
            println!(
                "density {:.6} with |S| = {}, |T| = {} (best c = {:.4}, δ = {})",
                sweep.best.best_density,
                sweep.best.best_s.len(),
                sweep.best.best_t.len(),
                sweep.best.c,
                delta
            );
            if !quiet {
                println!("S:");
                print_set(&sweep.best.best_s, false);
                println!("T:");
                print_set(&sweep.best.best_t, false);
            }
        }
        (Algorithm::Charikar, _) => {
            println!(
                "density {:.6} on {} nodes (exact greedy 2-approximation)",
                report.density(),
                report.node_count()
            );
            print_set(report.best_set().expect("charikar has a set"), quiet);
        }
        (Algorithm::Exact { .. }, Outcome::Exact(r)) => {
            println!(
                "optimum density {:.6} on {} nodes ({} max-flow calls)",
                r.density,
                r.set.len(),
                r.flow_calls
            );
            print_set(&r.set, quiet);
        }
        (Algorithm::Enumerate { .. }, Outcome::Communities(comms)) => {
            println!("{} node-disjoint dense communities:", comms.len());
            for c in comms {
                println!(
                    "  round {}: density {:.4} on {} nodes",
                    c.round,
                    c.density,
                    c.nodes.len()
                );
                print_set(&c.nodes, quiet);
            }
        }
        (alg, _) => unreachable!("outcome shape mismatch for {}", alg.name()),
    }
}

/// Prints an engine error and exits: 1 when the file could not be read
/// or streamed, else 2 with the words a server would reply.
fn fail(path: &str, e: EngineError) -> ! {
    match e {
        EngineError::Graph(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }
        EngineError::StreamFailed(e) => {
            eprintln!("streaming {path} failed: {e}");
            exit(1);
        }
        e => {
            eprintln!("{e}");
            exit(2);
        }
    }
}

/// One-shot query mode: flags → request fields → the serve protocol's
/// parser → plan + execute via the engine → render.
fn run_query(algorithm: String, path: String, mut args: impl Iterator<Item = String>) {
    let mut fields = vec![
        ("algorithm".to_string(), Value::Str(algorithm)),
        ("file".to_string(), Value::Str(path.clone())),
    ];
    let (mut json, mut quiet) = (false, false);
    while let Some(flag) = args.next() {
        let flag_type = match flag.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--quiet" => {
                quiet = true;
                continue;
            }
            name => match QUERY_FLAGS.iter().find(|(f, _)| *f == name) {
                Some(&(_, flag_type)) => flag_type,
                None => {
                    eprintln!("unknown flag '{name}'");
                    usage();
                }
            },
        };
        let value = match flag_type {
            FlagType::Flag => Value::Bool(true),
            flag_type => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    exit(2);
                });
                let number = match flag_type {
                    FlagType::Number => raw.parse().ok(),
                    FlagType::Unsigned => raw.parse::<u64>().ok().map(|n| n as f64),
                    FlagType::Bytes => parse_bytes(&raw).map(|n| n as f64),
                    FlagType::Text | FlagType::Flag => None,
                };
                number.map_or(Value::Str(raw), Value::Num)
            }
        };
        fields.push((flag[2..].replace('-', "_"), value));
    }
    let (source, query, policy) =
        parse_query(&fields, &ResourcePolicy::default()).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });

    let engine = Engine::new();
    // A one-shot process can never replay a cached result; a zero
    // budget makes the engine skip the report deep-clone entirely.
    engine.results().set_budget(0);
    let report = engine
        .execute(&source, &query, &policy)
        .unwrap_or_else(|e| fail(&path, e));
    // Warn when --threads could not take effect, instead of silently
    // ignoring the flag: only the MapReduce backend uses threads.
    if policy.threads > 1 && query.backend != Some(BackendRequest::MapReduce) {
        eprintln!("warning: --threads has no effect without --backend mapreduce (serial run)");
    }

    if !quiet && !json {
        if matches!(report.plan.backend.name(), "stream" | "sketch-stream") {
            eprintln!(
                "streaming {path}: {} nodes, {} edges (out-of-core; edge list not materialized)",
                report.graph_nodes, report.graph_edges
            );
        } else {
            eprintln!(
                "loaded {path}: {} nodes, {} edges",
                report.graph_nodes, report.graph_edges
            );
        }
        eprintln!("plan: {}", report.plan.explain());
        if let Some((words, exact)) = report.sketch_words {
            // exact = n; an empty graph would divide by zero.
            let pct = if exact == 0 {
                100.0
            } else {
                100.0 * words as f64 / exact as f64
            };
            eprintln!("sketch: {words} words vs {exact} exact ({pct:.0}%)");
        }
    }

    if json {
        println!("{}", report.json_object(true));
        return;
    }
    print_human(&report, quiet);
    if !quiet {
        if let Some(state) = report.state_bytes {
            eprintln!(
                "peak streaming state ≈ {} bytes for {} nodes (edge file re-read {} times)",
                state,
                report.graph_nodes,
                report.passes().unwrap_or(0)
            );
        }
    }
}

/// `densest serve`: the long-running JSONL loop (stdin, or a Unix
/// socket with an accept thread + worker pool).
fn run_serve(args: impl Iterator<Item = String>) {
    let mut socket: Option<PathBuf> = None;
    let mut policy = ResourcePolicy::default();
    let mut options = ServeOptions::default();
    let mut max_graphs = densest_subgraph::engine::catalog::DEFAULT_MAX_ENTRIES;
    let mut result_cache_bytes = densest_subgraph::engine::result_cache::DEFAULT_RESULT_CACHE_BYTES;
    let mut quiet = false;
    let mut it = args.collect::<Vec<_>>().into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--workers" => {
                options.workers = parse_value("--workers", &value("--workers"));
                if options.workers == 0 {
                    eprintln!("--workers must be at least 1");
                    exit(2);
                }
            }
            "--max-connections" => {
                options.max_connections =
                    parse_value("--max-connections", &value("--max-connections"));
                if options.max_connections == 0 {
                    eprintln!("--max-connections must be at least 1");
                    exit(2);
                }
            }
            "--shards" => {
                options.shards = parse_value("--shards", &value("--shards"));
                if options.shards == 0 {
                    eprintln!("--shards must be at least 1");
                    exit(2);
                }
            }
            "--data-dir" => options.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync-every" => {
                options.fsync_every = parse_value("--fsync-every", &value("--fsync-every"));
            }
            "--snapshot-every" => {
                options.snapshot_every =
                    parse_value("--snapshot-every", &value("--snapshot-every"));
                if options.snapshot_every == 0 {
                    eprintln!("--snapshot-every must be at least 1");
                    exit(2);
                }
            }
            "--threads" => {
                policy.threads = parse_value("--threads", &value("--threads"));
                // The planner's rule for every query's policy, checked
                // once for the default that queries without `threads`
                // inherit.
                if let Err(message) = policy.validate() {
                    eprintln!("--threads: {message}");
                    exit(2);
                }
            }
            "--memory-budget" => {
                policy.memory_budget_bytes =
                    Some(byte_flag("--memory-budget", &value("--memory-budget")));
            }
            "--max-graphs" => {
                max_graphs = parse_value("--max-graphs", &value("--max-graphs"));
                if max_graphs == 0 {
                    eprintln!("--max-graphs must be at least 1");
                    exit(2);
                }
            }
            "--result-cache" => {
                result_cache_bytes = byte_flag("--result-cache", &value("--result-cache"));
            }
            "--quiet" => quiet = true,
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    let engine = Engine::new();
    engine.catalog().set_max_entries(max_graphs);
    engine.results().set_budget(result_cache_bytes);
    if options.shards > 1 && socket.is_none() {
        eprintln!("--shards requires --socket (stdin mode is one connection)");
        exit(2);
    }
    // Durable sessions: single-engine modes (stdin, or socket with one
    // shard) open the data dir here so the banner can report recovery;
    // sharded servers open one `shard-<i>` subdirectory per shard
    // inside `serve_unix`.
    if let Some(dir) = &options.data_dir {
        if options.shards <= 1 {
            let recovery = engine
                .catalog()
                .open_data_dir(
                    &dir.join("shard-0"),
                    options.fsync_every,
                    options.snapshot_every,
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot open --data-dir {}: {e}", dir.display());
                    exit(1);
                });
            if !quiet {
                eprintln!(
                    "durable sessions under {} (fsync every {}, snapshot every {}): recovered {} \
                     graphs, replayed {} ops, dropped {} torn tails, resuming at version {}",
                    dir.display(),
                    options.fsync_every,
                    options.snapshot_every,
                    recovery.graphs,
                    recovery.replayed_ops,
                    recovery.dropped_tail_records,
                    recovery.max_version,
                );
            }
        } else if !quiet {
            eprintln!(
                "durable sessions under {} (fsync every {}, snapshot every {}, one subdir per \
                 shard)",
                dir.display(),
                options.fsync_every,
                options.snapshot_every,
            );
        }
    }
    let summary = match &socket {
        Some(path) => {
            if !quiet {
                let workers = options.workers.max(1);
                let pool = if options.shards > 1 {
                    format!("{} engine shards x {workers} workers", options.shards)
                } else {
                    format!("{workers} workers")
                };
                eprintln!(
                    "serving JSONL queries on socket {} ({pool}, {} connections max)",
                    path.display(),
                    options.max_connections.max(1),
                );
            }
            densest_subgraph::engine::serve_unix(&engine, &policy, path, &options)
        }
        None => {
            if !quiet {
                eprintln!("serving JSONL queries on stdin (EOF shuts down)");
            }
            densest_subgraph::engine::serve_stdio(&engine, &policy)
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        exit(1);
    });
    if !quiet {
        eprintln!(
            "served {} queries and {} mutations ({} errors) over {} connections (peak {} \
             concurrent): {} graph loads, {} cache hits, {} result-cache hits, {} incremental \
             re-peels ({} fallbacks), {} warm restarts; {}",
            summary.queries,
            summary.mutations,
            summary.errors,
            summary.connections,
            summary.peak_connections,
            summary.loads,
            summary.cache_hits,
            summary.result_hits,
            summary.incremental_hits,
            summary.incremental_fallbacks,
            summary.warm_hits,
            if summary.shutdown {
                "shutdown requested"
            } else {
                "input closed"
            }
        );
    }
}

/// `densest client --socket <path> [--repeat n] [--parallel n]
/// [--binary] [--pipeline n]`: forward stdin requests to a server,
/// optionally over the binary frame transport, pipelined, repeating
/// the request set and fanning it out over parallel connections.
fn run_client(args: impl Iterator<Item = String>) {
    let mut socket: Option<PathBuf> = None;
    let mut repeat: usize = 1;
    let mut parallel: usize = 1;
    let mut client_options = ClientOptions::default();
    let mut it = args.collect::<Vec<_>>().into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--repeat" => {
                repeat = parse_value("--repeat", &value("--repeat"));
                if repeat == 0 {
                    eprintln!("--repeat must be at least 1");
                    exit(2);
                }
            }
            "--parallel" => {
                parallel = parse_value("--parallel", &value("--parallel"));
                if parallel == 0 {
                    eprintln!("--parallel must be at least 1");
                    exit(2);
                }
            }
            "--binary" => client_options.binary = true,
            "--pipeline" => {
                client_options.pipeline = parse_value("--pipeline", &value("--pipeline"));
                if client_options.pipeline == 0 {
                    eprintln!("--pipeline must be at least 1");
                    exit(2);
                }
            }
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    let socket = socket.unwrap_or_else(|| {
        eprintln!("densest client requires --socket <path>");
        exit(2);
    });
    let stdin = std::io::stdin();
    if repeat == 1 && parallel == 1 && client_options == ClientOptions::default() {
        // Plain mode streams stdin: the lockstep client answers each
        // line before it reads the next, so it stays interactive.
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = densest_subgraph::engine::client_unix_opts(
            &socket,
            stdin.lock(),
            &mut stdout,
            &client_options,
        ) {
            eprintln!("client failed: {e}");
            exit(1);
        }
        return;
    }
    // Every other mode reads the whole request set first. It is
    // repeated `repeat` times and the rounds are spread round-robin
    // across the `parallel` connections — total work is repeat x
    // request-set no matter the connection count, so the throughput
    // grid varies concurrency without varying load.
    let requests: String = {
        use std::io::Read;
        let mut buf = String::new();
        if let Err(e) = stdin.lock().read_to_string(&mut buf) {
            eprintln!("client failed reading stdin: {e}");
            exit(1);
        }
        buf
    };
    let mut round = String::with_capacity(requests.len() + 1);
    for line in requests.lines().filter(|l| !l.trim().is_empty()) {
        round.push_str(line);
        round.push('\n');
    }
    let per_conn_requests: Vec<String> = (0..parallel)
        .map(|conn| round.repeat(repeat / parallel + usize::from(conn < repeat % parallel)))
        .collect();
    let expected_per_conn: Vec<usize> = per_conn_requests
        .iter()
        .map(|r| r.lines().count())
        .collect();
    // Per connection: the responses received so far (printed even when
    // the connection later died), the latency stats, and the error if it
    // failed mid-round — a failed connection must surface *which* one
    // died after *how many* exchanges, and the process must exit
    // non-zero, not just report throughput.
    let started = std::time::Instant::now();
    let outputs =
        densest_subgraph::engine::client_fan_out(&socket, &per_conn_requests, &client_options);
    let elapsed = started.elapsed().as_secs_f64();
    let mut total_exchanges = 0u64;
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut failures = 0usize;
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        for (conn, out) in outputs.iter().enumerate() {
            let stats = &out.stats;
            total_exchanges += stats.exchanges;
            all_latencies.extend_from_slice(&stats.latencies_ms);
            if stdout.write_all(&out.transcript).is_err() {
                failures += 1;
            }
            if let Some(e) = &out.error {
                failures += 1;
                eprintln!(
                    "client connection {conn} failed after {}/{} exchanges: {e}",
                    stats.exchanges, expected_per_conn[conn]
                );
            } else if parallel > 1 {
                eprintln!(
                    "client connection {conn}: {} exchanges, p50 {:.3} ms, p99 {:.3} ms",
                    stats.exchanges,
                    stats.percentile_ms(50.0),
                    stats.percentile_ms(99.0)
                );
            }
        }
    }
    eprintln!(
        "client: {} exchanges over {} connection(s) x {} repeat(s) [{}{}] in {:.1} ms \
         ({:.0} req/s, p50 {:.3} ms, p99 {:.3} ms){}",
        total_exchanges,
        parallel,
        repeat,
        if client_options.binary {
            "binary"
        } else {
            "jsonl"
        },
        if client_options.pipeline > 1 {
            format!(", pipeline {}", client_options.pipeline)
        } else {
            String::new()
        },
        elapsed * 1e3,
        if elapsed > 0.0 {
            total_exchanges as f64 / elapsed
        } else {
            0.0
        },
        percentile(&all_latencies, 50.0),
        percentile(&all_latencies, 99.0),
        if failures > 0 {
            format!("; {failures} connection(s) FAILED")
        } else {
            String::new()
        }
    );
    // A parallel fan-out is usually a benchmark run; round it off with
    // the server's maintenance counters so a mutate-heavy workload shows
    // how many answers the incremental tier carried. Best-effort: a
    // server that went away between the run and this probe just skips
    // the line.
    if parallel > 1 && failures == 0 {
        if let Some((inc_hits, inc_fallbacks, warm_hits)) = fetch_server_maintenance(&socket) {
            eprintln!(
                "server maintenance: {inc_hits} incremental re-peels \
                 ({inc_fallbacks} fallbacks), {warm_hits} warm restarts"
            );
        }
    }
    if failures > 0 {
        exit(1);
    }
}

/// One best-effort `stats` exchange: the server's incremental
/// hit/fallback and warm-hit counters, or `None` if the probe failed.
fn fetch_server_maintenance(socket: &std::path::Path) -> Option<(u64, u64, u64)> {
    use densest_subgraph::engine::minijson;
    let mut out = Vec::new();
    densest_subgraph::engine::client_unix_opts(
        socket,
        std::io::Cursor::new("{\"op\":\"stats\"}\n".to_string()),
        &mut out,
        &ClientOptions::default(),
    )
    .ok()?;
    let line = std::str::from_utf8(&out).ok()?.lines().next()?;
    let fields = minijson::parse_object(line).ok()?;
    let uint = |key: &str| minijson::get(&fields, key).and_then(minijson::Value::as_uint);
    Some((
        uint("incremental_hits")?,
        uint("incremental_fallbacks")?,
        uint("warm_hits")?,
    ))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next().unwrap_or_else(|| usage());
    match first.as_str() {
        "--help" | "-h" | "help" => {
            println!("{HELP}");
        }
        "serve" => run_serve(args),
        "client" => run_client(args),
        _ => {
            let path = args.next().unwrap_or_else(|| usage());
            run_query(first, path, args);
        }
    }
}
