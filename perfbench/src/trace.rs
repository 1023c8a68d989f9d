//! The traced run (`--trace 1`): the workload's setup and one episode's
//! timed sequence, replayed in-process against an engine configured like
//! the workload's server. A span goes around each public call on the
//! request path (`minijson::parse_object`, `frame::decode_request_payload`,
//! `Engine::execute_serve`, `Engine::create_graph`/`add_edges`/
//! `remove_edges`); for the layers those calls wrap, the same public
//! call is made directly on the same inputs under its own span. Counts
//! are read from engine counters between calls. `serve.*` and `shard.*`
//! come from lockstep round trips to in-process `serve_unix` servers.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dsg_engine::minijson::{self, FieldScratch, Value};
use dsg_engine::persistence::{encode_record, Durability, GraphWal};
use dsg_engine::result_cache::CacheKey;
use dsg_engine::{
    frame, planner, routing_shard, Algorithm, BackendRequest, CatalogEntry, Engine, GraphCatalog,
    GraphId, Query, ResourcePolicy, ResultCache, ServeOptions, ServeReport, Source,
};
use dsg_graph::stream::TextFileStream;
use dsg_graph::wal::SessionOp;
use dsg_graph::{DeltaGraph, EdgeList, GraphKind};

use crate::inputs::{self, SHARDS};
use crate::server::{exchange, script, shutdown, wait_ready, Req};
use crate::spans::{self_times, Tracer};
use crate::stats::median;
use crate::workloads::{FSYNC_EVERY, SNAPSHOT_EVERY, WORKERS};
use crate::{metric, Metric, RunOutput};

/// Request kinds whose engine time is reported separately.
const QUERY_KINDS: [&str; 5] = ["approx", "approx_t2", "atleast_k", "directed", "stream"];
/// Kernel instantiations the traced run calls directly.
const KERNEL_KINDS: [&str; 4] = ["approx", "approx_t2", "atleast_k", "directed"];
const TIERS: [&str; 4] = ["replay", "incremental", "warm", "cold"];

/// Every incremental-tier fallback reason in the engine at this commit
/// (slugged); anything else counts under `other`.
const FALLBACK_REASONS: [&str; 14] = [
    "affected set exceeds the incremental threshold",
    "too many affected-set expansions",
    "expansion made no progress",
    "trace arity does not match policy",
    "node count shrank",
    "content changed but the journal window is empty",
    "stored trace does not match the query",
    "node count changed (the directed grid depends on it)",
    "sweep grid changed since the seed",
    "re-score against the snapshot mismatched",
    "journal epoch changed since the base snapshot",
    "journal window is not monotone",
    "base snapshot too stale",
    "journal moved past the base snapshot",
];

/// A fallback reason as a metric-name component: `[a-z0-9_]`, at most
/// 40 characters.
pub fn slug(reason: &str) -> String {
    let mut out = String::new();
    for c in reason.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.truncate(40);
    out.trim_end_matches('_').to_string()
}

/// One request, decoded into the engine call the server would make.
enum Call {
    Query {
        source: Source,
        query: Query,
        policy: ResourcePolicy,
    },
    Create {
        name: String,
        kind: GraphKind,
        edges: Vec<(u32, u32)>,
    },
    Mutate {
        name: String,
        add: bool,
        edges: Vec<(u32, u32)>,
    },
}

fn pairs(raw: &str) -> Vec<(u32, u32)> {
    let ids: Vec<u32> = raw
        .split_whitespace()
        .map(|t| t.parse().expect("generated edge ids"))
        .collect();
    ids.chunks(2).map(|p| (p[0], p[1])).collect()
}

/// Maps the request shapes the benchmark generates onto engine calls,
/// with the server's defaults (ε = 0.5, k = 10, δ = 2, one thread).
fn decode(fields: &[(String, Value)]) -> Call {
    let get = |k: &str| minijson::get(fields, k);
    let s = |k: &str| get(k).and_then(Value::as_str).map(str::to_string);
    let n = |k: &str, d: f64| get(k).and_then(Value::as_num).unwrap_or(d);
    let op = s("op").unwrap_or_else(|| "query".into());
    match op.as_str() {
        "create_graph" => Call::Create {
            name: s("graph").expect("graph"),
            kind: if get("directed").and_then(Value::as_bool) == Some(true) {
                GraphKind::Directed
            } else {
                GraphKind::Undirected
            },
            edges: pairs(&s("edges").unwrap_or_default()),
        },
        "add_edges" | "remove_edges" => Call::Mutate {
            name: s("graph").expect("graph"),
            add: op == "add_edges",
            edges: pairs(&s("edges").expect("edges")),
        },
        _ => {
            let epsilon = n("epsilon", 0.5);
            let algorithm = match s("algorithm").as_deref() {
                Some("atleast-k") => Algorithm::AtLeastK {
                    k: n("k", 10.0) as usize,
                    epsilon,
                },
                Some("directed") => Algorithm::Directed {
                    delta: n("delta", 2.0),
                    epsilon,
                },
                _ => Algorithm::Approx {
                    epsilon,
                    sketch: None,
                },
            };
            let stream = get("stream").and_then(Value::as_bool) == Some(true);
            let source = match (s("file"), s("graph")) {
                (Some(path), _) => Source::text(path),
                (_, Some(name)) => Source::named(name),
                _ => panic!("generated queries name a file or a graph"),
            };
            Call::Query {
                source,
                query: Query {
                    algorithm,
                    backend: stream.then_some(BackendRequest::Streamed),
                },
                policy: ResourcePolicy {
                    threads: n("threads", 1.0) as usize,
                    ..ResourcePolicy::default()
                },
            }
        }
    }
}

/// The workload's steps: setup requests, then one episode's timed
/// sequence (the replay connections interleaved).
struct Steps {
    reqs: Vec<Req>,
    first_timed: usize,
    /// Probe a 2-shard server next to the 1-shard one (`shard.*`).
    shard_probe: bool,
    durable: bool,
    /// Requests for the serve probe: its setup, then the probed prefix.
    probe_setup: Vec<Req>,
    probe: Vec<Req>,
}

fn steps(workload: &str, seed: u64, dir: &Path) -> Steps {
    match workload {
        "replay" => {
            let plan = inputs::replay_plan(dir, seed);
            let setup = plan.setup();
            let mut timed = Vec::new();
            for i in 0..plan.seq[0].len().max(plan.seq[1].len()) {
                for seq in &plan.seq {
                    if let Some(&q) = seq.get(i) {
                        timed.push(plan.distinct[q].clone());
                    }
                }
            }
            let probe = timed[..2000].to_vec();
            Steps {
                first_timed: setup.len(),
                reqs: setup.iter().cloned().chain(timed).collect(),
                shard_probe: true,
                durable: false,
                probe_setup: setup,
                probe,
            }
        }
        "sweep" => {
            let plan = inputs::sweep_plan(dir, seed);
            let timed: Vec<Req> = plan.seq.iter().map(|i| i.req.clone()).collect();
            Steps {
                first_timed: plan.warmup.len(),
                reqs: plan
                    .warmup
                    .iter()
                    .cloned()
                    .chain(timed.iter().cloned())
                    .collect(),
                shard_probe: false,
                durable: false,
                probe_setup: plan.warmup.clone(),
                probe: timed[..12].to_vec(),
            }
        }
        _ => {
            let plan = inputs::session_plan(seed);
            let timed: Vec<Req> = plan.ops.iter().map(|o| o.req.clone()).collect();
            Steps {
                first_timed: plan.setup.len(),
                reqs: plan
                    .setup
                    .iter()
                    .cloned()
                    .chain(timed.iter().cloned())
                    .collect(),
                shard_probe: false,
                durable: true,
                probe_setup: plan.setup.clone(),
                probe: timed[..60].to_vec(),
            }
        }
    }
}

/// An engine configured like the workload's server (durable for
/// `session`, with the server's fsync and snapshot policy).
fn engine(s: &Steps, data: &Path) -> io::Result<Engine> {
    let e = Engine::new();
    if s.durable {
        e.catalog()
            .open_data_dir(&data.join("shard-0"), FSYNC_EVERY, SNAPSHOT_EVERY)
            .map_err(io::Error::other)?;
    }
    Ok(e)
}

/// The request-path call, untraced (only its time is wanted).
fn execute(engine: &Engine, call: &Call) {
    let _ = match call {
        Call::Query {
            source,
            query,
            policy,
        } => engine.execute_serve(source, query, policy).map(drop),
        Call::Create { name, kind, edges } => engine.create_graph(name, *kind, edges).map(drop),
        Call::Mutate { name, add, edges } => if *add {
            engine.add_edges(name, edges)
        } else {
            engine.remove_edges(name, edges)
        }
        .map(drop),
    };
}

/// The request-path calls alone, untraced; returns their nanoseconds.
fn plain_step(req: &Req, engine: &Engine) -> u128 {
    let t = Instant::now();
    let fields = minijson::parse_object(req.line()).expect("generated requests parse");
    let mut scratch = FieldScratch::new();
    frame::decode_request_payload(req.payload(), &mut scratch).expect("generated frames decode");
    let parsed = t.elapsed();
    let call = decode(&fields);
    let t = Instant::now();
    execute(engine, &call);
    (parsed + t.elapsed()).as_nanos()
}

/// Engine counters read between calls.
#[derive(Clone, Copy, Default)]
struct Snap {
    result_hits: u64,
    inc_hits: u64,
    inc_fallbacks: u64,
    warm_hits: u64,
}

fn snap(e: &Engine) -> Snap {
    let inc = e.incremental_stats();
    Snap {
        result_hits: e.results().stats().hits,
        inc_hits: inc.hits,
        inc_fallbacks: inc.fallbacks,
        warm_hits: e.warm_stats().hits,
    }
}

#[derive(Default)]
struct Acc {
    queries: u64,
    tiers: [u64; 4],
    kernel_passes: BTreeMap<&'static str, u64>,
    kernel_visits: BTreeMap<&'static str, f64>,
    inc_attempts: u64,
    inc_hits: u64,
    affected: u64,
    window_ops: u64,
    fallbacks: BTreeMap<String, u64>,
    stream_passes: u64,
    stream_edges: u64,
    mutations: u64,
    edges_copied: u64,
    fsyncs: u64,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_ns: u64,
    failed: u64,
}

struct Traced<'a> {
    tr: Tracer,
    engine: &'a Engine,
    shadow_cache: ResultCache,
    shadow_catalog: GraphCatalog,
    mirrors: HashMap<String, DeltaGraph>,
    wals: HashMap<String, GraphWal>,
    durability: Option<Durability>,
    since_base: HashMap<String, u64>,
    acc: Acc,
}

impl Traced<'_> {
    fn step(&mut self, req: &Req, timed: bool) {
        let root = self.tr.enter("request");
        let fields = self
            .tr
            .time("minijson.parse_object", || {
                minijson::parse_object(req.line())
            })
            .expect("generated requests parse");
        let mut scratch = FieldScratch::new();
        self.tr
            .time("frame.decode_request_payload", || {
                frame::decode_request_payload(req.payload(), &mut scratch)
            })
            .expect("generated frames decode");
        let call = decode(&fields);
        let engine = self.engine;
        match call {
            Call::Query {
                source,
                query,
                policy,
            } => self.query(engine, req.kind, &source, &query, &policy, timed),
            Call::Create { name, kind, edges } => {
                let out = self.tr.time("catalog.create_graph", || {
                    engine.create_graph(&name, kind, &edges)
                });
                let Ok(out) = out else {
                    self.acc.failed += 1;
                    self.tr.exit(root);
                    return;
                };
                let mut list = match kind {
                    GraphKind::Directed => EdgeList::new_directed(0),
                    GraphKind::Undirected => EdgeList::new_undirected(0),
                };
                for &(u, v) in &edges {
                    list.num_nodes = list.num_nodes.max(u.max(v) + 1);
                    list.push(u, v);
                }
                let mirror = DeltaGraph::new(list).expect("generated graphs are valid");
                if let Some(d) = &self.durability {
                    let mut wal = d.create_graph_wal(&name).expect("scratch WAL");
                    let op = SessionOp::Create {
                        kind,
                        edges: Cow::Borrowed(&edges),
                    };
                    wal.append(out.version, &op, &mirror)
                        .expect("scratch WAL append");
                    self.wals.insert(name.clone(), wal);
                }
                self.mirrors.insert(name, mirror);
            }
            Call::Mutate { name, add, edges } => {
                let out = self.tr.time("catalog.mutate", || {
                    if add {
                        engine.add_edges(&name, &edges)
                    } else {
                        engine.remove_edges(&name, &edges)
                    }
                });
                let Ok(out) = out else {
                    self.acc.failed += 1;
                    self.tr.exit(root);
                    return;
                };
                *self.since_base.entry(name.clone()).or_default() += out.applied;
                self.acc.mutations += 1;
                let mirror = self.mirrors.get_mut(&name).expect("mutated graphs exist");
                self.tr.time("delta.apply", || {
                    if add {
                        mirror.add_edges(&edges).expect("fresh edges apply");
                    } else {
                        mirror.remove_edges(&edges);
                    }
                });
                let copied = self.tr.time("delta.materialize", || mirror.materialize());
                self.acc.edges_copied += copied.num_edges() as u64;
                drop(copied);
                if let Some(wal) = self.wals.get_mut(&name) {
                    let op = if add {
                        SessionOp::Add(Cow::Borrowed(&edges))
                    } else {
                        SessionOp::Remove(Cow::Borrowed(&edges))
                    };
                    let before = wal.wal_stats();
                    let id = self.tr.enter("persistence.append");
                    wal.append(out.version, &op, mirror)
                        .expect("scratch WAL append");
                    self.tr.exit(id);
                    let after = wal.wal_stats();
                    self.acc.fsyncs += after.last_fsync - before.last_fsync;
                    let mut buf = Vec::new();
                    encode_record(out.version, &op, &mut buf);
                    self.acc.wal_bytes += buf.len() as u64;
                    if after.snapshot_version != before.snapshot_version {
                        self.acc.snapshots += 1;
                        self.acc.snapshot_ns += self.tr.spans[id].ns();
                    }
                }
            }
        }
        self.tr.exit(root);
    }

    fn query(
        &mut self,
        engine: &Engine,
        kind: &'static str,
        source: &Source,
        query: &Query,
        policy: &ResourcePolicy,
        timed: bool,
    ) {
        let kind = if kind == "approx_repeel" {
            "approx"
        } else {
            kind
        };
        let before = snap(engine);
        let name = format!("engine.execute_serve.{kind}");
        let Ok(out) = self
            .tr
            .time(&name, || engine.execute_serve(source, query, policy))
        else {
            self.acc.failed += 1;
            return;
        };
        let after = snap(engine);
        let report = match &out {
            ServeReport::Shared { report, .. } => report.as_ref(),
            ServeReport::Owned(report) => report.as_ref(),
        };
        self.tr
            .time("report.json_str", || black_box(report.json_str().len()));
        let tier = if after.result_hits > before.result_hits {
            0
        } else if after.inc_hits > before.inc_hits {
            1
        } else if after.warm_hits > before.warm_hits {
            2
        } else {
            3
        };
        if timed {
            self.acc.queries += 1;
            self.acc.tiers[tier] += 1;
        }

        // The layers the call wraps, called directly on the same inputs.
        let graph_kind = source.kind_for(&query.algorithm);
        let (meta, entry, key) = match source {
            Source::File { path, .. } => {
                let loaded = self.shadow_catalog.peek(path, false, graph_kind);
                let entry = match loaded {
                    Some(e) => e,
                    None => {
                        let (e, _) = self
                            .tr
                            .time("catalog.get_or_load", || {
                                self.shadow_catalog.get_or_load(path, false, graph_kind)
                            })
                            .expect("generated files load");
                        self.tr.time("csr.build", || match graph_kind {
                            GraphKind::Undirected => black_box(e.csr_undirected().num_edges()),
                            GraphKind::Directed => black_box(e.csr_directed().num_edges()),
                        });
                        e
                    }
                };
                let key =
                    CacheKey::new(GraphId::file(entry.fingerprint), graph_kind, query, policy);
                (entry.meta, entry, key)
            }
            Source::Named { name } => {
                let (g, e) = engine
                    .catalog()
                    .get_named(name)
                    .expect("named graph exists");
                let key = CacheKey::new(
                    GraphId::named(g.fingerprint(), e.version),
                    graph_kind,
                    query,
                    policy,
                );
                (e.meta, e, key)
            }
            Source::Memory { .. } => unreachable!("the benchmark sends no memory sources"),
        };
        let label = source.label();
        let hit = self.tr.time("result_cache.lookup_shared", || {
            self.shadow_cache.lookup_shared(&key, &label)
        });
        if hit.is_none() {
            self.shadow_cache.insert(key, report);
        }
        if tier == 0 {
            return;
        }
        self.tr
            .time("planner.plan", || planner::plan(query, &meta, policy))
            .expect("generated queries plan");
        if let Source::Named { name } = source {
            let window = self.since_base.get(name).copied().unwrap_or(0);
            if after.inc_hits + after.inc_fallbacks > before.inc_hits + before.inc_fallbacks {
                self.acc.inc_attempts += 1;
                let last = engine.last_incremental().expect("an attempt was recorded");
                match last.reason {
                    None => {
                        self.acc.inc_hits += 1;
                        self.acc.affected += last.affected as u64;
                        self.acc.window_ops += window;
                    }
                    Some(reason) => {
                        let slugged = if FALLBACK_REASONS.contains(&reason) {
                            slug(reason)
                        } else {
                            "other".into()
                        };
                        *self.acc.fallbacks.entry(slugged).or_default() += 1;
                    }
                }
            }
            if tier >= 2 {
                // A full re-peel stores a fresh incremental base.
                self.since_base.insert(name.clone(), 0);
            }
        }
        if tier == 1 {
            return;
        }
        if kind == "stream" {
            let Source::File { path, .. } = source else {
                return;
            };
            let Algorithm::Approx { epsilon, .. } = query.algorithm else {
                return;
            };
            let mut stream = TextFileStream::open_auto(path).expect("generated files stream");
            let run = self.tr.time("stream.approx_densest", || {
                dsg_core::undirected::approx_densest(&mut stream, epsilon)
            });
            self.acc.stream_passes += u64::from(run.passes);
            self.acc.stream_edges += u64::from(run.passes) * stream.num_edges();
            return;
        }
        // Session re-peels run on a fresh snapshot: build its CSR too.
        let fresh;
        let entry: &CatalogEntry = if matches!(source, Source::Named { .. }) {
            fresh = CatalogEntry::from_list(entry.list.clone(), 0, 0);
            self.tr.time("csr.build", || match graph_kind {
                GraphKind::Undirected => black_box(fresh.csr_undirected().num_edges()),
                GraphKind::Directed => black_box(fresh.csr_directed().num_edges()),
            });
            &fresh
        } else {
            &entry
        };
        let k = KERNEL_KINDS
            .iter()
            .find(|k| **k == kind)
            .copied()
            .unwrap_or("approx");
        let span = format!("kernel.{k}");
        let (passes, visits) = match query.algorithm {
            Algorithm::Approx { epsilon, .. } => {
                let csr = entry.csr_undirected();
                let run = self.tr.time(&span, || {
                    if policy.threads > 1 {
                        dsg_core::undirected::approx_densest_csr_parallel(
                            &csr,
                            epsilon,
                            policy.threads,
                        )
                    } else {
                        dsg_core::undirected::approx_densest_csr(&csr, epsilon)
                    }
                });
                (
                    run.passes,
                    run.trace.iter().map(|p| p.edge_weight).sum::<f64>(),
                )
            }
            Algorithm::AtLeastK { k, epsilon } => {
                let csr = entry.csr_undirected();
                let run = self.tr.time(&span, || {
                    dsg_core::large::approx_densest_at_least_k_csr(&csr, k, epsilon.max(1e-6))
                });
                (
                    run.passes,
                    run.trace.iter().map(|p| p.edge_weight).sum::<f64>(),
                )
            }
            Algorithm::Directed { delta, epsilon } => {
                let csr = entry.csr_directed();
                let sweep = self.tr.time(&span, || {
                    dsg_core::directed::sweep_c_csr(&csr, delta, epsilon)
                });
                // The traced sibling gives the live edges of every pass.
                let (_, traces) = dsg_core::directed::sweep_c_csr_traced(&csr, delta, epsilon);
                let visits = traces
                    .iter()
                    .flat_map(|(_, t)| t.passes.iter().map(|p| p.total_weight))
                    .sum::<f64>();
                (sweep.per_c.iter().map(|c| c.2).sum(), visits)
            }
            _ => return,
        };
        *self.acc.kernel_passes.entry(k).or_default() += u64::from(passes);
        *self.acc.kernel_visits.entry(k).or_default() += visits;
    }
}

/// Round trips through an in-process `serve_unix` server.
struct Probe {
    /// Round trip minus the reply's own `elapsed_ms`, per query (µs).
    overhead_us: Vec<f64>,
    rtt_us: Vec<f64>,
    /// Requests routed to each shard (sharded servers only).
    routed: Vec<u64>,
    /// Setup replies without `elapsed_ms` and `loads`, which a 1-shard
    /// and an n-shard server must agree on.
    setup: Vec<String>,
}

fn serve_probe(dir: &Path, shards: usize, s: &Steps) -> io::Result<Probe> {
    let sock = dir.join(format!("probe{shards}.sock"));
    let engine = Engine::new();
    let options = ServeOptions {
        workers: WORKERS,
        shards,
        data_dir: s.durable.then(|| dir.join(format!("probe{shards}-data"))),
        fsync_every: FSYNC_EVERY,
        snapshot_every: SNAPSHOT_EVERY,
        ..ServeOptions::default()
    };
    let policy = ResourcePolicy::default();
    let stats = Req::new("stats", "stats", vec![]);
    let bye = Req::new("shutdown", "shutdown", vec![]);
    // Setup, the probed requests, stats and shutdown, in one lockstep
    // connection.
    let reqs = script(s.probe_setup.iter().chain(&s.probe).chain([&stats, &bye]));
    let (n_setup, n_probe) = (s.probe_setup.len(), s.probe.len());
    std::thread::scope(|scope| {
        let server = scope.spawn(|| dsg_engine::serve_unix(&engine, &policy, &sock, &options));
        let run = || -> io::Result<Probe> {
            wait_ready(&sock, || Ok(()))?;
            let ex = exchange(&sock, &reqs, false)?;
            let mut probe = Probe {
                overhead_us: Vec::new(),
                rtt_us: Vec::new(),
                routed: Vec::new(),
                setup: ex.replies[..n_setup]
                    .iter()
                    .map(|r| crate::json::shard_neutral(r))
                    .collect(),
            };
            for i in n_setup..n_setup + n_probe {
                let rtt = ex.latencies_ms[i] * 1e3;
                if let Some(el) = crate::json::elapsed_ms(&ex.replies[i]) {
                    probe.overhead_us.push(rtt - el * 1e3);
                    probe.rtt_us.push(rtt);
                }
            }
            let v = crate::json::parse(&ex.replies[n_setup + n_probe]).map_err(io::Error::other)?;
            probe.routed = v
                .arr("shards")
                .iter()
                .map(|x| x.num("routed").unwrap_or(0.0) as u64)
                .collect();
            Ok(probe)
        };
        let out = run();
        if out.is_err() {
            // Unblock the server so the scope can join it.
            let _ = shutdown(&sock);
        }
        server
            .join()
            .expect("probe server thread panicked")
            .map_err(|e| io::Error::other(format!("probe server: {e}")))?;
        out
    })
}

pub fn run(workload: &str, seed: u64, dir: &Path) -> io::Result<RunOutput> {
    let s = steps(workload, seed, dir);

    // Every request also runs untraced on an engine of its own, alternating
    // which copy goes first, so the tracing overhead compares the same
    // work under the same host conditions.
    let plain_engine = engine(&s, &dir.join("plain"))?;
    let traced_engine = engine(&s, &dir.join("traced"))?;
    let scratch_wal: PathBuf = dir.join("scratch-wal");
    let mut t = Traced {
        tr: Tracer::new(),
        engine: &traced_engine,
        shadow_cache: ResultCache::default(),
        shadow_catalog: GraphCatalog::new(),
        mirrors: HashMap::new(),
        wals: HashMap::new(),
        durability: s
            .durable
            .then(|| Durability::open(&scratch_wal, FSYNC_EVERY, SNAPSHOT_EVERY))
            .transpose()
            .map_err(io::Error::other)?,
        since_base: HashMap::new(),
        acc: Acc::default(),
    };
    let mut counts_before = [0; 7];
    let mut plain_ns = 0u128;
    for (i, req) in s.reqs.iter().enumerate() {
        let timed = i >= s.first_timed;
        if i == s.first_timed {
            counts_before = counts(&traced_engine);
        }
        t.tr.request = i as u64;
        if i % 2 == 1 {
            t.step(req, timed);
        }
        let ns = plain_step(req, &plain_engine);
        if timed {
            plain_ns += ns;
        }
        if i % 2 == 0 {
            t.step(req, timed);
        }
    }
    let counts_after = counts(&traced_engine);
    let cache = traced_engine.results().stats();

    let mut problems = Vec::new();
    let probe = serve_probe(dir, 1, &s)?;
    let (hop_us, routed_min_share) = if s.shard_probe {
        // The same requests against a sharded server: its router hop, its
        // split of the traffic, and content parity with one shard.
        let sharded = serve_probe(dir, SHARDS, &s)?;
        let mut expect = [0u64; SHARDS];
        for req in s.probe_setup.iter().chain(&s.probe) {
            let fields = minijson::parse_object(req.line()).expect("generated requests parse");
            if let Call::Query {
                source: Source::File { path, .. },
                ..
            } = decode(&fields)
            {
                expect[routing_shard(None, path.to_str(), SHARDS)] += 1;
            }
        }
        if sharded.routed != expect {
            problems.push(format!(
                "routed per shard {:?} != hash split {expect:?}",
                sharded.routed
            ));
        }
        if sharded.setup != probe.setup {
            problems.push("1-shard and 2-shard setup transcripts differ".into());
        }
        let total: u64 = sharded.routed.iter().sum();
        let min = sharded.routed.iter().min().copied().unwrap_or(0);
        (
            median(&sharded.rtt_us) - median(&probe.rtt_us),
            min as f64 / total.max(1) as f64,
        )
    } else {
        (0.0, 1.0)
    };

    // ---- report -------------------------------------------------------
    let tr = &t.tr;
    let selfs = self_times(&tr.spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in tr.spans.iter().zip(&selfs) {
        // Timed-phase spans, plus loads and creates (which only setup does).
        let setup_layer = matches!(
            span.name.as_str(),
            "catalog.get_or_load" | "catalog.create_graph" | "csr.build"
        );
        if span.request >= s.first_timed as u64 || setup_layer {
            let e = by_name.entry(span.name.as_str()).or_default();
            e.0 += 1;
            e.1 += span.ns();
            e.2 += self_ns;
        }
    }
    println!("spans (name, count, total ms, self ms):");
    for (name, (n, total, own)) in &by_name {
        println!(
            "  {name:40} {n:>8} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let mean = |name: &str, scale: f64| -> f64 {
        by_name
            .get(name)
            .map_or(0.0, |&(n, _, own)| own as f64 / n.max(1) as f64 / scale)
    };
    let request_path_ns: u64 = by_name
        .iter()
        .filter(|(n, _)| {
            n.starts_with("minijson.")
                || n.starts_with("frame.")
                || n.starts_with("engine.execute_serve")
                || **n == "catalog.mutate"
        })
        .map(|(_, v)| v.1)
        .sum();
    let overhead = request_path_ns as f64 / plain_ns.max(1) as f64 - 1.0;
    println!(
        "tracing overhead: request-path calls took {:.3} ms traced vs {:.3} ms untraced ({:+.1}%)",
        request_path_ns as f64 / 1e6,
        plain_ns as f64 / 1e6,
        overhead * 100.0
    );

    let delta = |i: usize| counts_after[i] - counts_before[i];
    let loads = counts_after[0];
    println!(
        "counts (timed phase): loads {loads} result_hits {} mutations {} incremental_hits {} \
         incremental_fallbacks {} warm_hits {} warm_fallbacks {}",
        delta(1),
        delta(2),
        delta(3),
        delta(4),
        delta(5),
        delta(6)
    );
    let a = &t.acc;
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let q = a.queries.max(1) as f64;
    let mut m: Vec<Metric> = vec![
        metric("serve.overhead_us", median(&probe.overhead_us), "us"),
        metric(
            "minijson.parse_us",
            mean("minijson.parse_object", 1e3),
            "us",
        ),
        metric(
            "frame.decode_us",
            mean("frame.decode_request_payload", 1e3),
            "us",
        ),
        metric("shard.hop_us", hop_us, "us"),
        metric("shard.routed_min_share", routed_min_share, "share"),
        metric(
            "result_cache.lookup_us",
            mean("result_cache.lookup_shared", 1e3),
            "us",
        ),
        metric(
            "result_cache.hit_ratio",
            per(delta(1) as f64, a.queries),
            "share",
        ),
        metric("result_cache.bytes", cache.bytes as f64, "bytes"),
        metric("result_cache.evictions", cache.evictions as f64, "count"),
        metric("catalog.load_ms", mean("catalog.get_or_load", 1e6), "ms"),
        metric("catalog.create_ms", mean("catalog.create_graph", 1e6), "ms"),
        metric("catalog.mutate_us", mean("catalog.mutate", 1e3), "us"),
        metric("delta.apply_us", mean("delta.apply", 1e3), "us"),
        metric("delta.materialize_us", mean("delta.materialize", 1e3), "us"),
        metric(
            "delta.edges_copied_per_mutation",
            per(a.edges_copied as f64, a.mutations),
            "count",
        ),
        metric(
            "persistence.append_us",
            mean("persistence.append", 1e3),
            "us",
        ),
        metric(
            "persistence.fsyncs_per_mutation",
            per(a.fsyncs as f64, a.mutations),
            "count",
        ),
        metric(
            "persistence.wal_bytes_per_mutation",
            per(a.wal_bytes as f64, a.mutations),
            "bytes",
        ),
        metric(
            "persistence.snapshot_ms",
            per(a.snapshot_ns as f64 / 1e6, a.snapshots),
            "ms",
        ),
        metric("persistence.snapshots", a.snapshots as f64, "count"),
        metric("planner.plan_us", mean("planner.plan", 1e3), "us"),
    ];
    for k in QUERY_KINDS {
        m.push(metric(
            format!("engine.execute_ms.{k}"),
            mean(&format!("engine.execute_serve.{k}"), 1e6),
            "ms",
        ));
    }
    for (i, tier) in TIERS.iter().enumerate() {
        m.push(metric(
            format!("engine.tier_share.{tier}"),
            a.tiers[i] as f64 / q,
            "share",
        ));
    }
    m.push(metric(
        "incremental.hit_ratio",
        per(a.inc_hits as f64, a.inc_attempts),
        "share",
    ));
    m.push(metric(
        "incremental.affected_nodes",
        per(a.affected as f64, a.inc_hits),
        "count",
    ));
    m.push(metric(
        "incremental.window_ops",
        per(a.window_ops as f64, a.inc_hits),
        "count",
    ));
    for reason in FALLBACK_REASONS
        .iter()
        .map(|r| slug(r))
        .chain(["other".to_string()])
    {
        let n = a.fallbacks.get(&reason).copied().unwrap_or(0);
        m.push(metric(
            format!("incremental.fallbacks.{reason}"),
            n as f64,
            "count",
        ));
    }
    let mut kernel_ns = 0u64;
    let mut kernel_visits = 0.0;
    for k in KERNEL_KINDS {
        let name = format!("kernel.{k}");
        let (n, _, own) = by_name.get(name.as_str()).copied().unwrap_or_default();
        kernel_ns += own;
        let visits = a.kernel_visits.get(k).copied().unwrap_or(0.0);
        kernel_visits += visits;
        m.push(metric(
            format!("kernel.peel_ms.{k}"),
            per(own as f64 / 1e6, n),
            "ms",
        ));
        m.push(metric(
            format!("kernel.passes.{k}"),
            per(a.kernel_passes.get(k).copied().unwrap_or(0) as f64, n),
            "count",
        ));
        m.push(metric(
            format!("kernel.edge_visits.{k}"),
            per(visits, n),
            "count",
        ));
    }
    m.push(metric(
        "kernel.ns_per_edge_visit",
        if kernel_visits > 0.0 {
            kernel_ns as f64 / kernel_visits
        } else {
            0.0
        },
        "ns",
    ));
    m.push(metric("csr.build_ms", mean("csr.build", 1e6), "ms"));
    let (_, stream_total, _) = by_name
        .get("stream.approx_densest")
        .copied()
        .unwrap_or_default();
    m.push(metric(
        "stream.pass_ms",
        per(stream_total as f64 / 1e6, a.stream_passes),
        "ms",
    ));
    m.push(metric(
        "stream.ns_per_edge",
        per(stream_total as f64, a.stream_edges),
        "ns",
    ));
    m.push(metric(
        "report.render_us",
        mean("report.json_str", 1e3),
        "us",
    ));
    m.push(metric("trace.overhead_share", overhead, "share"));
    for x in &m {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    let attempted = (s.reqs.len() - s.first_timed) as u64;
    if a.failed > 0 {
        problems.push(format!("{} traced requests failed", a.failed));
    }
    Ok((m, attempted, a.failed, problems))
}

/// `[loads, result hits, mutations, incremental hits, incremental
/// fallbacks, warm hits, warm fallbacks]` of one engine.
fn counts(e: &Engine) -> [u64; 7] {
    let inc = e.incremental_stats();
    let warm = e.warm_stats();
    [
        e.catalog().stats().loads,
        e.results().stats().hits,
        e.catalog().mutations(),
        inc.hits,
        inc.fallbacks,
        warm.hits,
        warm.fallbacks,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_slug_into_short_metric_names() {
        assert_eq!(slug("base snapshot too stale"), "base_snapshot_too_stale");
        assert_eq!(
            slug("node count changed (the directed grid depends on it)"),
            "node_count_changed_the_directed_grid_dep"
        );
        for r in FALLBACK_REASONS {
            let name = format!("incremental.fallbacks.{}", slug(r));
            assert!(name.len() <= 64, "{name}");
        }
    }
}
