//! `densest` — a command-line densest-subgraph tool over edge-list files.
//!
//! The binary is a thin parser over the `dsg-engine` query engine: flags
//! become a [`Query`] + [`ResourcePolicy`], the engine's planner picks
//! the execution backend (in-memory, file-streamed, sketched, MapReduce
//! with an in-RAM or spill-to-disk shuffle), and one
//! unified [`Report`] drives both the human and `--json` output. Run
//! `densest --help` for the full usage, including the long-running
//! `serve` mode that answers repeated JSONL queries against a
//! catalog-cached graph.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

use densest_subgraph::engine::{
    percentile, Algorithm, BackendRequest, ClientOptions, Engine, EngineError, Outcome, Query,
    Report, ResourcePolicy, ServeOptions, Source,
};
use densest_subgraph::flow::FlowBackend;
use densest_subgraph::graph::NodeSet;

const USAGE: &str =
    "usage: densest <approx|atleast-k|directed|charikar|exact|enumerate> <edge-file> \
     [--epsilon f] [--k n] [--delta f] [--threads n] [--sketch b] [--stream] [--binary] \
     [--directed-input] [--backend auto|memory|stream|mapreduce] [--memory-budget bytes] \
     [--flow-backend dinic|push-relabel] [--json] [--quiet]\n\
       densest serve [--socket <path>] [--workers n] [--max-connections n] [--shards n] \
     [--threads n] [--memory-budget bytes] [--max-graphs n] \
     [--result-cache bytes] [--incremental-threshold f] [--data-dir <path>] \
     [--fsync-every n] [--snapshot-every n] [--quiet]\n\
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

query options:
  --epsilon <f>        approximation parameter ε (default 0.5)
  --k <n>              size floor for atleast-k (default 10)
  --delta <f>          c-grid resolution for directed (default 2, must be > 1)
  --sketch <b>         use a Count-Sketch degree oracle with width b (t=5)
  --binary             input is the dsg binary edge format
  --directed-input     parse the file as directed (for `directed`)
  --flow-backend <s>   max-flow solver for `exact`: dinic (default) or
                       push-relabel
  --json               print a one-line machine-readable JSON summary
  --quiet              print only the summary line

planner options (one-shot and serve):
  --threads <n>        MapReduce worker threads, 1 to 256 (default 1); every
                       other backend runs serially
  --memory-budget <b>  working-set budget in bytes (suffixes k/m/g allowed);
                       graphs whose in-memory estimate exceeds it are planned
                       on the out-of-core streamed backend automatically
  --backend <s>        force a backend instead of planning: auto (default),
                       memory, stream, mapreduce
  --stream             shorthand for --backend stream (approx, atleast-k):
                       run straight over the file, one re-read per pass,
                       O(n) memory — the edge list is never materialized

serve mode:
  densest serve reads one flat JSON request per line (stdin, or a Unix
  socket with --socket) and writes one JSON response per line. Socket
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
  published snapshot before answering (--incremental-threshold bounds
  the affected set at that fraction of the nodes, default 0.05; 0
  disables the tier). Past that, and for every atleast-k query, a warm
  restart re-peels the already-materialized snapshot (delta logs
  auto-compact once they outnumber the base edges). The stats op reports
  per-graph version/delta_edges/compactions plus warm and incremental
  hit/fallback counters.

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

const ALGORITHMS: [&str; 6] = [
    "approx",
    "atleast-k",
    "directed",
    "charikar",
    "exact",
    "enumerate",
];

/// Parses a flag value, naming the flag in the error. Never panics on
/// user input — asserts deep inside the kernels are not an error path.
fn parse_value<T: std::str::FromStr>(name: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value '{raw}' for {name}");
        exit(2);
    })
}

/// Byte-size flags (`--memory-budget`, `--result-cache`) accept plain
/// bytes or k/m/g (KiB multiple) suffixes.
fn parse_budget(name: &str, raw: &str) -> u64 {
    let (digits, mult) = match raw.trim().to_ascii_lowercase() {
        s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1024u64),
        s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1024 * 1024),
        s if s.ends_with('g') => (s[..s.len() - 1].to_string(), 1024 * 1024 * 1024),
        s => (s, 1),
    };
    let n: u64 = parse_value(name, &digits);
    n.checked_mul(mult).unwrap_or_else(|| {
        eprintln!("invalid value '{raw}' for {name} (overflows)");
        exit(2);
    })
}

struct Options {
    algorithm: String,
    path: String,
    epsilon: f64,
    k: usize,
    delta: f64,
    threads: usize,
    sketch_b: Option<u32>,
    stream: bool,
    backend: Option<BackendRequest>,
    memory_budget: Option<u64>,
    flow_backend: Option<FlowBackend>,
    binary: bool,
    directed_input: bool,
    json: bool,
    quiet: bool,
}

/// Parses the shared query/planner flags; `algorithm`/`path` are already
/// consumed by the caller. Used by the one-shot mode.
fn parse_options(algorithm: String, path: String, args: impl Iterator<Item = String>) -> Options {
    let mut o = Options {
        algorithm,
        path,
        epsilon: 0.5,
        k: 10,
        delta: 2.0,
        threads: 1,
        sketch_b: None,
        stream: false,
        backend: None,
        memory_budget: None,
        flow_backend: None,
        binary: false,
        directed_input: false,
        json: false,
        quiet: false,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--epsilon" => {
                o.epsilon = parse_value("--epsilon", &value("--epsilon"));
                // NaN/inf parse as f64 but poison every threshold
                // comparison downstream; reject them here by name.
                if !o.epsilon.is_finite() || o.epsilon < 0.0 {
                    eprintln!("--epsilon must be a finite number >= 0 (got {})", o.epsilon);
                    exit(2);
                }
            }
            "--k" => {
                o.k = parse_value("--k", &value("--k"));
                if o.k == 0 {
                    eprintln!("--k must be at least 1");
                    exit(2);
                }
            }
            "--delta" => {
                o.delta = parse_value("--delta", &value("--delta"));
                if !o.delta.is_finite() || o.delta <= 1.0 {
                    eprintln!("--delta must be a finite number > 1 (got {})", o.delta);
                    exit(2);
                }
            }
            "--threads" => {
                o.threads = parse_value("--threads", &value("--threads"));
                if o.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    exit(2);
                }
            }
            "--sketch" => {
                let b: u32 = parse_value("--sketch", &value("--sketch"));
                if b == 0 {
                    eprintln!("--sketch width must be at least 1");
                    exit(2);
                }
                o.sketch_b = Some(b);
            }
            "--stream" => o.stream = true,
            "--backend" => {
                let raw = value("--backend");
                o.backend = BackendRequest::parse(&raw).unwrap_or_else(|| {
                    eprintln!(
                        "invalid value '{raw}' for --backend \
                         (auto|memory|stream|mapreduce)"
                    );
                    exit(2);
                });
            }
            "--memory-budget" => {
                o.memory_budget = Some(parse_budget("--memory-budget", &value("--memory-budget")));
            }
            "--flow-backend" => {
                let raw = value("--flow-backend");
                o.flow_backend = Some(match raw.as_str() {
                    "dinic" => FlowBackend::Dinic,
                    "push-relabel" => FlowBackend::PushRelabel,
                    _ => {
                        eprintln!("invalid value '{raw}' for --flow-backend (dinic|push-relabel)");
                        exit(2);
                    }
                });
            }
            "--binary" => o.binary = true,
            "--directed-input" => o.directed_input = true,
            "--json" => o.json = true,
            "--quiet" => o.quiet = true,
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    if o.stream && !matches!(o.algorithm.as_str(), "approx" | "atleast-k") {
        eprintln!(
            "--stream supports only 'approx' and 'atleast-k' (got '{}'; the other algorithms \
             need the whole graph in memory)",
            o.algorithm
        );
        exit(2);
    }
    if o.flow_backend.is_some() && o.algorithm != "exact" {
        eprintln!(
            "--flow-backend applies only to 'exact' (got '{}')",
            o.algorithm
        );
        exit(2);
    }
    o
}

/// Assembles the engine query from parsed flags.
fn build_query(o: &Options) -> Query {
    let algorithm = match o.algorithm.as_str() {
        "approx" => Algorithm::Approx {
            epsilon: o.epsilon,
            sketch: o.sketch_b,
        },
        "atleast-k" => Algorithm::AtLeastK {
            k: o.k,
            epsilon: o.epsilon,
        },
        "directed" => Algorithm::Directed {
            delta: o.delta,
            epsilon: o.epsilon,
        },
        "charikar" => Algorithm::Charikar,
        "exact" => Algorithm::Exact {
            flow: o.flow_backend.unwrap_or_default(),
        },
        "enumerate" => Algorithm::Enumerate {
            epsilon: o.epsilon,
            min_density: 1.0,
            max_communities: 32,
        },
        other => unreachable!("algorithm validated against ALGORITHMS ({other})"),
    };
    let backend = if o.stream {
        Some(BackendRequest::Streamed)
    } else {
        o.backend
    };
    Query { algorithm, backend }
}

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
fn print_human(o: &Options, report: &Report) {
    match (&report.query.algorithm, &report.outcome) {
        (Algorithm::Approx { epsilon, .. }, _) => {
            println!(
                "density {:.6} on {} nodes ({} passes, ε = {})",
                report.density(),
                report.node_count(),
                report.passes().unwrap_or(0),
                epsilon
            );
            print_set(report.best_set().expect("approx has a set"), o.quiet);
        }
        (Algorithm::AtLeastK { k, .. }, _) => {
            println!(
                "density {:.6} on {} nodes (k = {}, {} passes)",
                report.density(),
                report.node_count(),
                k,
                report.passes().unwrap_or(0)
            );
            print_set(report.best_set().expect("atleast-k has a set"), o.quiet);
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
            if !o.quiet {
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
            print_set(report.best_set().expect("charikar has a set"), o.quiet);
        }
        (Algorithm::Exact { .. }, Outcome::Exact(r)) => {
            println!(
                "optimum density {:.6} on {} nodes ({} max-flow calls)",
                r.density,
                r.set.len(),
                r.flow_calls
            );
            print_set(&r.set, o.quiet);
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
                print_set(&c.nodes, o.quiet);
            }
        }
        (alg, _) => unreachable!("outcome shape mismatch for {}", alg.name()),
    }
}

/// Renders an engine error exactly as the pre-engine CLI did, and exits.
fn fail(o: &Options, e: EngineError) -> ! {
    match e {
        EngineError::Graph(e) => {
            eprintln!("cannot read {}: {e}", o.path);
            exit(1);
        }
        EngineError::StreamFailed(e) => {
            eprintln!("streaming {} failed: {e}", o.path);
            exit(1);
        }
        EngineError::KTooLarge { k, n } => {
            eprintln!("--k {k} exceeds the graph's {n} nodes");
            exit(2);
        }
        EngineError::InvalidQuery(msg) | EngineError::Unsupported(msg) => {
            eprintln!("{msg}");
            exit(2);
        }
        // Named session graphs exist only inside a running server; the
        // one-shot CLI can never hold one, but the match stays
        // exhaustive so a new error variant is a compile error here.
        e @ (EngineError::UnknownGraph { .. }
        | EngineError::GraphExists { .. }
        | EngineError::StaleGraph { .. }
        | EngineError::Persistence(_)) => {
            eprintln!("{e}");
            exit(2);
        }
    }
}

/// One-shot query mode: parse → plan + execute via the engine → render.
fn run_query(algorithm: String, path: String, rest: impl Iterator<Item = String>) {
    let o = parse_options(algorithm, path, rest);
    let query = build_query(&o);
    let policy = ResourcePolicy {
        memory_budget_bytes: o.memory_budget,
        threads: o.threads,
    };
    let source = Source::File {
        path: PathBuf::from(&o.path),
        binary: o.binary,
        directed_input: o.directed_input,
    };

    let engine = Engine::new();
    // A one-shot process can never replay a cached result; a zero
    // budget makes the engine skip the report deep-clone entirely.
    engine.results().set_budget(0);
    let report = engine
        .execute(&source, &query, &policy)
        .unwrap_or_else(|e| fail(&o, e));
    // Warn when --threads could not take effect, instead of silently
    // ignoring the flag: only the MapReduce backend uses threads.
    if o.threads > 1 && query.backend != Some(BackendRequest::MapReduce) {
        eprintln!("warning: --threads has no effect without --backend mapreduce (serial run)");
    }

    if !o.quiet && !o.json {
        if matches!(report.plan.backend.name(), "stream" | "sketch-stream") {
            eprintln!(
                "streaming {}: {} nodes, {} edges (out-of-core; edge list not materialized)",
                o.path, report.graph_nodes, report.graph_edges
            );
        } else {
            eprintln!(
                "loaded {}: {} nodes, {} edges",
                o.path, report.graph_nodes, report.graph_edges
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

    if o.json {
        println!("{}", report.json_object(true));
        return;
    }
    print_human(&o, &report);
    if !o.quiet {
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
    let mut incremental_threshold: Option<f64> = None;
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
                    Some(parse_budget("--memory-budget", &value("--memory-budget")));
            }
            "--max-graphs" => {
                max_graphs = parse_value("--max-graphs", &value("--max-graphs"));
                if max_graphs == 0 {
                    eprintln!("--max-graphs must be at least 1");
                    exit(2);
                }
            }
            "--result-cache" => {
                result_cache_bytes = parse_budget("--result-cache", &value("--result-cache"));
            }
            "--incremental-threshold" => {
                let t: f64 =
                    parse_value("--incremental-threshold", &value("--incremental-threshold"));
                if !t.is_finite() || t < 0.0 {
                    eprintln!("--incremental-threshold must be a finite number >= 0 (got {t})");
                    exit(2);
                }
                incremental_threshold = Some(t);
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
    if let Some(t) = incremental_threshold {
        engine.set_incremental_threshold(t);
    }
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
        alg if ALGORITHMS.contains(&alg) => {
            let path = args.next().unwrap_or_else(|| usage());
            run_query(first, path, args);
        }
        other => {
            eprintln!("unknown algorithm '{other}'");
            usage();
        }
    }
}
