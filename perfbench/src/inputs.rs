//! Seeded inputs: graphs from `dsg_graph::gen`, written to edge files,
//! and the fixed request sequence of each workload. One `--seed` drives
//! everything; the server only ever sees these files and requests.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use dsg_engine::minijson::Value;
use dsg_engine::{routing_shard, Algorithm, Engine, Query, Report, ResourcePolicy, Source};
use dsg_graph::gen::{self, RmatParams};
use dsg_graph::{io, DeltaGraph, EdgeList, GraphKind, SplitMix64};

use crate::server::Req;

/// Replay: graph files, distinct queries per file, and the requests each
/// connection sends in the timed phase.
const REPLAY_FILES: usize = 4;
const REPLAY_NODES: u32 = 30_000;
const REPLAY_OPS_PER_CONN: usize = 60_000;
/// Engine shards of the sharded server the traced `replay` run probes.
pub const SHARDS: usize = 2;

/// Sweep: the undirected file (about 140k edges) and the directed file.
const SWEEP_NODES: u32 = 35_000;
const SWEEP_DIRECTED_SCALE: u32 = 15;
const SWEEP_DIRECTED_ARCS: usize = 90_000;

/// Session: the main graph (at least 100k edges) and the directed one.
const SESSION_NODES: u32 = 30_000;
const SESSION_DIRECTED_SCALE: u32 = 14;
const SESSION_DIRECTED_ARCS: usize = 60_000;
const SESSION_ROUNDS: usize = 400;
/// Every fifth round goes to the directed graph.
const SESSION_DIRECTED_EVERY: usize = 5;
/// A batch is removed this many of its graph's rounds after it was added.
const SESSION_WINDOW: usize = 16;
const SESSION_BATCH: usize = 16;
const SESSION_DIRECTED_BATCH: usize = 8;
/// Every this many main-graph rounds the batch exceeds the incremental
/// tier's budget (5% of nodes may be affected), forcing a re-peel.
const SESSION_BIG_EVERY: usize = 32;
const SESSION_BIG_BATCH: usize = 1_500;

/// An answer the checks compare: density, node count, passes.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub density: f64,
    pub nodes: u64,
    /// Not rendered for directed queries.
    pub passes: Option<u64>,
}

impl Answer {
    pub fn of_report(r: &Report) -> Answer {
        let directed = matches!(r.query.algorithm, Algorithm::Directed { .. });
        Answer {
            density: r.density(),
            nodes: r.node_count() as u64,
            passes: if directed {
                None
            } else {
                r.passes().map(u64::from)
            },
        }
    }

    pub fn of_reply(reply: &str) -> Option<Answer> {
        let v = crate::json::parse(reply).ok()?;
        let r = v.get("result")?;
        let nodes = match r.num("nodes") {
            Some(n) => n,
            None => r.num("s_nodes")? + r.num("t_nodes")?,
        };
        Some(Answer {
            density: r.num("density")?,
            nodes: nodes as u64,
            passes: r.num("passes").map(|p| p as u64),
        })
    }
}

/// Cold recompute through the public `Engine` API on the harness's own
/// copy of the graph, always on the serial in-memory CSR path. Served
/// answers from the parallel or streamed paths must match it exactly,
/// so a defect in either shows as a mismatch.
pub fn cold_answer(list: &EdgeList, algorithm: &Algorithm) -> Answer {
    let engine = Engine::new();
    let source = Source::Memory {
        list: list.clone(),
        label: "check".into(),
    };
    let report = engine
        .execute(&source, &Query::new(*algorithm), &ResourcePolicy::default())
        .expect("in-process recompute of a generated graph");
    Answer::of_report(&report)
}

pub fn undirected_graph(n: u32, seed: u64) -> EdgeList {
    let (g, _) = gen::powerlaw_with_communities(
        n,
        2.3,
        8.0,
        n as f64 / 40.0,
        &[(90, 0.5), (60, 0.7), (40, 0.9)],
        seed,
    );
    g
}

/// RMAT arcs plus a planted dense `(S, T)` pair of 40 × 60 nodes.
pub fn directed_graph(scale: u32, arcs: usize, seed: u64) -> EdgeList {
    let mut rng = SplitMix64::new(seed);
    let mut g = gen::rmat(
        scale,
        arcs,
        RmatParams::graph500(),
        GraphKind::Directed,
        rng.next_u64(),
    );
    let n = g.num_nodes;
    let picks = rng.sample_distinct(n as u64, 100);
    for &s in &picks[..40] {
        for &t in &picks[40..] {
            if rng.bernoulli(0.5) {
                g.push(s as u32, t as u32);
            }
        }
    }
    g.canonicalize();
    g
}

/// Writes `list` as a text edge file and returns the harness's copy of
/// what the server will load from it.
fn write_graph(path: &Path, list: &EdgeList) -> EdgeList {
    io::write_text(path, list).expect("write generated graph");
    describe(&path.display().to_string(), list);
    io::read_text(path, list.kind).expect("read back generated graph")
}

/// Prints a generated graph's size with the report.
fn describe(name: &str, list: &EdgeList) {
    println!(
        "input: {name}: {:?}, {} nodes, {} edges",
        list.kind,
        list.num_nodes,
        list.num_edges()
    );
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

pub struct ReplayPlan {
    /// File paths, chosen so that a sharded router splits them evenly.
    pub files: Vec<String>,
    /// Distinct queries; the id of each is its index, so every replay
    /// of one query must return the same bytes.
    pub distinct: Vec<Req>,
    /// Per connection: indices into `distinct`, in send order.
    pub seq: [Vec<usize>; 2],
}

impl ReplayPlan {
    /// Setup sends each distinct query twice: a cold compute, then its
    /// first replay, whose reply every timed replay must repeat.
    pub fn setup(&self) -> Vec<Req> {
        self.distinct
            .iter()
            .chain(&self.distinct)
            .cloned()
            .collect()
    }
}

pub fn replay_plan(dir: &Path, seed: u64) -> ReplayPlan {
    let mut rng = SplitMix64::new(seed ^ 0x7265706c6179);
    let mut files = Vec::new();
    for i in 0..REPLAY_FILES {
        // Rename until the routing hash puts file i on shard i % SHARDS.
        let path = (0..)
            .map(|attempt| format!("{}/r{i}-{attempt}.txt", dir.display()))
            .find(|p| routing_shard(None, Some(p), SHARDS) == i % SHARDS)
            .expect("some name routes to each shard");
        write_graph(
            Path::new(&path),
            &undirected_graph(REPLAY_NODES, rng.next_u64()),
        );
        files.push(path);
    }
    // The same four grid queries on every file and seed (Table 2's ε
    // 0.001 and 1.0), so setup does the same work whatever the seed.
    let mut distinct = Vec::new();
    for file in &files {
        let shapes: [(&'static str, Vec<(&str, Value)>); 4] = [
            (
                "approx",
                vec![("algorithm", text("approx")), ("epsilon", num(0.001))],
            ),
            (
                "approx",
                vec![("algorithm", text("approx")), ("epsilon", num(1.0))],
            ),
            (
                "approx_t2",
                vec![
                    ("algorithm", text("approx")),
                    ("epsilon", num(0.001)),
                    ("threads", num(2.0)),
                ],
            ),
            (
                "atleast_k",
                vec![
                    ("algorithm", text("atleast-k")),
                    ("epsilon", num(1.0)),
                    ("k", num(50.0)),
                ],
            ),
        ];
        for (kind, params) in shapes {
            let mut fields = vec![("id", num(distinct.len() as f64)), ("file", text(file))];
            fields.extend(params);
            distinct.push(Req::new(kind, "query", fields));
        }
    }
    let seq = [0, 1].map(|_| {
        (0..REPLAY_OPS_PER_CONN)
            .map(|_| rng.range_u64(distinct.len() as u64) as usize)
            .collect()
    });
    ReplayPlan {
        files,
        distinct,
        seq,
    }
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

pub struct SweepItem {
    pub req: Req,
    /// What the server runs, jitter included.
    pub algorithm: Algorithm,
    /// 0 = the undirected file, 1 = the directed one.
    pub graph: usize,
}

pub struct SweepPlan {
    /// The harness's copies of the two graphs.
    pub lists: [EdgeList; 2],
    /// One query per file at setup (loads both).
    pub warmup: Vec<Req>,
    pub seq: Vec<SweepItem>,
    /// Indices into `seq` whose answers are recomputed and compared.
    pub sample: Vec<usize>,
}

/// The paper's undirected ε grid: Figure 6.1's 0 to 2.5 in steps of
/// 0.25, plus Table 2's 0.001 and 0.1.
const EPS_GRID: [f64; 13] = [
    0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5,
];
/// `atleast-k` takes the grid from 0.1 up (skipping its first two
/// points). Below that its pass count explodes: on the 136k-edge sweep
/// graph (2-vCPU VM) ε = 0.001 took 4,098 passes (4.3 s) and ε = 0 took
/// 34,951 passes (62 s) for one request.
const ATLEAST_K_FROM: usize = 2;
/// Table 3's directed grid, every δ with every ε.
const DIRECTED_DELTAS: [f64; 3] = [2.0, 10.0, 100.0];
const DIRECTED_EPS: [f64; 3] = [0.0, 1.0, 2.0];
/// Figure 6.7's ε for the runs that re-read the file on every pass.
const STREAM_EPS: [f64; 3] = [0.0, 1.0, 2.0];

/// How often each kind covers its grid in one episode's sequence, so
/// every seed sends the same grid points (in its own order). Measured at
/// 136k edges, in-process on a 2-vCPU VM: `approx` 3.1–3.3 ms and `approx_t2` 2.5–4.1 ms at every
/// grid ε (3–7 passes); `atleast_k` 7 ms (ε 2.5) to 65 ms (ε 0.1);
/// `directed` 9–58 ms; `stream` 70–150 ms. With 156 + 13 of 250
/// requests `approx`, p50 sits inside the `approx` cluster. The 25
/// samples beyond p90 are the 6 streamed runs, the 3 δ = 2 directed
/// runs, `atleast_k` at ε 0.1 and 0.25 (12), and 4 of the 9 that take
/// about 14.8 ms (`atleast_k` at ε 0.5, `directed` at δ 10), so p90
/// falls inside that cluster with 4 samples of it on either side.
const APPROX_ROUNDS: usize = 12;
const ATLEAST_K_ROUNDS: usize = 6;
const STREAM_ROUNDS: usize = 2;

/// Grid points are offset by `(index + 1) × 1e-7` so that no two
/// requests share a result-cache key; the largest offset moves ε = 0.001
/// by 2.5%.
const JITTER: f64 = 1e-7;

/// One sweep request before it gets its position in the sequence.
struct SweepDraw {
    kind: &'static str,
    /// The algorithm at its grid point, without the jitter.
    grid: Algorithm,
}

fn jittered(grid: Algorithm, by: f64) -> Algorithm {
    match grid {
        Algorithm::Approx { epsilon, sketch } => Algorithm::Approx {
            epsilon: epsilon + by,
            sketch,
        },
        Algorithm::AtLeastK { k, epsilon } => Algorithm::AtLeastK {
            k,
            epsilon: epsilon + by,
        },
        Algorithm::Directed { delta, epsilon } => Algorithm::Directed {
            delta,
            epsilon: epsilon + by,
        },
        other => other,
    }
}

fn sweep_draws(rng: &mut SplitMix64) -> Vec<SweepDraw> {
    let approx = |epsilon| Algorithm::Approx {
        epsilon,
        sketch: None,
    };
    let mut draws = Vec::new();
    let mut add = |kind, grid| draws.push(SweepDraw { kind, grid });
    for _ in 0..APPROX_ROUNDS {
        for &e in &EPS_GRID {
            add("approx", approx(e));
        }
    }
    for &e in &EPS_GRID {
        add("approx_t2", approx(e));
    }
    for _ in 0..ATLEAST_K_ROUNDS {
        for &epsilon in &EPS_GRID[ATLEAST_K_FROM..] {
            let k = 20 + rng.range_u64(60) as usize;
            add("atleast_k", Algorithm::AtLeastK { k, epsilon });
        }
    }
    for &delta in &DIRECTED_DELTAS {
        for &epsilon in &DIRECTED_EPS {
            add("directed", Algorithm::Directed { delta, epsilon });
        }
    }
    for _ in 0..STREAM_ROUNDS {
        for &e in &STREAM_EPS {
            add("stream", approx(e));
        }
    }
    draws
}

pub fn sweep_plan(dir: &Path, seed: u64) -> SweepPlan {
    let mut rng = SplitMix64::new(seed ^ 0x7377656570);
    let files = [
        format!("{}/u.txt", dir.display()),
        format!("{}/d.txt", dir.display()),
    ];
    let lists = [
        write_graph(
            Path::new(&files[0]),
            &undirected_graph(SWEEP_NODES, rng.next_u64()),
        ),
        write_graph(
            Path::new(&files[1]),
            &directed_graph(SWEEP_DIRECTED_SCALE, SWEEP_DIRECTED_ARCS, rng.next_u64()),
        ),
    ];
    // Setup loads both files with one query each, at grid points the
    // jittered timed requests never hit.
    let warmup = vec![
        Req::new(
            "approx",
            "query",
            vec![
                ("id", text("w0")),
                ("algorithm", text("approx")),
                ("file", text(&files[0])),
                ("epsilon", num(1.0)),
            ],
        ),
        Req::new(
            "directed",
            "query",
            vec![
                ("id", text("w1")),
                ("algorithm", text("directed")),
                ("file", text(&files[1])),
                ("delta", num(100.0)),
                ("epsilon", num(1.0)),
            ],
        ),
    ];
    let mut draws = sweep_draws(&mut rng);
    rng.shuffle(&mut draws);
    let mut seq = Vec::new();
    for (i, draw) in draws.into_iter().enumerate() {
        let algorithm = jittered(draw.grid, (i + 1) as f64 * JITTER);
        let graph = usize::from(draw.kind == "directed");
        let mut fields = vec![("id", num(i as f64)), ("file", text(&files[graph]))];
        match algorithm {
            Algorithm::Approx { epsilon, .. } => {
                fields.push(("algorithm", text("approx")));
                fields.push(("epsilon", num(epsilon)));
            }
            Algorithm::AtLeastK { k, epsilon } => {
                fields.push(("algorithm", text("atleast-k")));
                fields.push(("k", num(k as f64)));
                fields.push(("epsilon", num(epsilon)));
            }
            Algorithm::Directed { delta, epsilon } => {
                fields.push(("algorithm", text("directed")));
                fields.push(("delta", num(delta)));
                fields.push(("epsilon", num(epsilon)));
            }
            _ => unreachable!("the sweep mix has no other algorithm"),
        }
        if draw.kind == "approx_t2" {
            fields.push(("threads", num(2.0)));
        }
        if draw.kind == "stream" {
            fields.push(("stream", Value::Bool(true)));
        }
        seq.push(SweepItem {
            req: Req::new(draw.kind, "query", fields),
            algorithm,
            graph,
        });
    }
    // A seeded sample: the first request of every kind, then random ones.
    let mut sample: Vec<usize> = Vec::new();
    for (i, item) in seq.iter().enumerate() {
        if !sample.iter().any(|&j| seq[j].req.kind == item.req.kind) {
            sample.push(i);
        }
    }
    while sample.len() < 10 {
        let i = rng.range_u64(seq.len() as u64) as usize;
        if !sample.contains(&i) {
            sample.push(i);
        }
    }
    sample.sort_unstable();
    SweepPlan {
        lists,
        warmup,
        seq,
        sample,
    }
}

// ---------------------------------------------------------------------
// session
// ---------------------------------------------------------------------

const SESSION_GRAPHS: [&str; 2] = ["main", "dir"];

pub struct SessionOp {
    pub req: Req,
    /// `Some(batch size)` for a mutation, `None` for a query.
    pub applied: Option<usize>,
}

pub struct SessionPlan {
    /// Two `create_graph` requests, then one query per graph.
    pub setup: Vec<Req>,
    pub ops: Vec<SessionOp>,
    /// Sampled op indices (queries) and their cold answers.
    pub sample: Vec<(usize, Answer)>,
    /// Per graph: a query sent after the timed phase, with the cold
    /// answer on the harness's copy of the graph's final version.
    pub finals: Vec<(Req, Answer)>,
}

fn edges_string(edges: &[(u32, u32)]) -> String {
    let mut s = String::with_capacity(edges.len() * 12);
    for (i, &(u, v)) in edges.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&format!("{u} {v}"));
    }
    s
}

fn session_query(graph: usize, id: Value) -> Req {
    let fields = if graph == 0 {
        vec![
            ("id", id),
            ("algorithm", text("approx")),
            ("graph", text("main")),
            ("epsilon", num(0.5)),
        ]
    } else {
        vec![
            ("id", id),
            ("algorithm", text("directed")),
            ("graph", text("dir")),
            ("delta", num(2.0)),
        ]
    };
    Req::new(
        if graph == 0 { "approx" } else { "directed" },
        "query",
        fields,
    )
}

/// `count` fresh edges between existing nodes: absent from `g` and
/// distinct within the batch, so each one changes the graph.
fn fresh_edges(rng: &mut SplitMix64, g: &DeltaGraph, count: usize) -> Vec<(u32, u32)> {
    let n = g.num_nodes();
    let directed = g.kind() == GraphKind::Directed;
    let mut batch = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (rng.range_u32(n), rng.range_u32(n));
        let key = if directed || u < v { (u, v) } else { (v, u) };
        if u != v && !g.contains(u, v) && batch.insert(key) {
            out.push((u, v));
        }
    }
    out
}

pub fn session_plan(seed: u64) -> SessionPlan {
    let mut rng = SplitMix64::new(seed ^ 0x73657373);
    let bases = [
        undirected_graph(SESSION_NODES, rng.next_u64()),
        directed_graph(
            SESSION_DIRECTED_SCALE,
            SESSION_DIRECTED_ARCS,
            rng.next_u64(),
        ),
    ];
    let queries = [
        Algorithm::Approx {
            epsilon: 0.5,
            sketch: None,
        },
        Algorithm::Directed {
            delta: 2.0,
            epsilon: 0.5,
        },
    ];
    let mut setup = Vec::new();
    for (g, list) in bases.iter().enumerate() {
        describe(SESSION_GRAPHS[g], list);
        let mut fields = vec![
            ("id", text(&format!("c{g}"))),
            ("graph", text(SESSION_GRAPHS[g])),
        ];
        if g == 1 {
            fields.push(("directed", Value::Bool(true)));
        }
        fields.push(("edges", text(&edges_string(&list.edges))));
        setup.push(Req::new("create", "create_graph", fields));
    }
    setup.push(session_query(0, text("q0")));
    setup.push(session_query(1, text("q1")));

    let mut mirrors = bases
        .clone()
        .map(|b| DeltaGraph::new(b).expect("generated graphs are valid"));
    let mut history: [Vec<Vec<(u32, u32)>>; 2] = [Vec::new(), Vec::new()];
    let sample_rounds: HashSet<usize> = (0..6)
        .map(|_| rng.range_u64(SESSION_ROUNDS as u64) as usize)
        .collect();
    let mut ops = Vec::new();
    let mut sample = Vec::new();
    for round in 0..SESSION_ROUNDS {
        let graph = usize::from(round % SESSION_DIRECTED_EVERY == SESSION_DIRECTED_EVERY - 1);
        let name = SESSION_GRAPHS[graph];
        let idx = history[graph].len();
        let big = graph == 0 && idx % SESSION_BIG_EVERY == SESSION_BIG_EVERY - 1;
        let size = match (graph, big) {
            (0, true) => SESSION_BIG_BATCH,
            (0, false) => SESSION_BATCH,
            _ => SESSION_DIRECTED_BATCH,
        };
        let batch = fresh_edges(&mut rng, &mirrors[graph], size);
        mirrors[graph].add_edges(&batch).expect("fresh edges apply");
        let kind = match (graph, big) {
            (1, _) => "d_add",
            (_, true) => "add_big",
            _ => "add",
        };
        ops.push(SessionOp {
            req: Req::new(
                kind,
                "add_edges",
                vec![
                    ("id", num(ops.len() as f64)),
                    ("graph", text(name)),
                    ("edges", text(&edges_string(&batch))),
                ],
            ),
            applied: Some(batch.len()),
        });
        history[graph].push(batch);
        if idx >= SESSION_WINDOW {
            let old = &history[graph][idx - SESSION_WINDOW];
            let kind = match (graph, old.len() > SESSION_BATCH) {
                (1, _) => "d_remove",
                (_, true) => "remove_big",
                _ => "remove",
            };
            let applied = mirrors[graph].remove_edges(old);
            ops.push(SessionOp {
                req: Req::new(
                    kind,
                    "remove_edges",
                    vec![
                        ("id", num(ops.len() as f64)),
                        ("graph", text(name)),
                        ("edges", text(&edges_string(old))),
                    ],
                ),
                applied: Some(applied),
            });
        }
        if sample_rounds.contains(&round) {
            let answer = cold_answer(&mirrors[graph].materialize(), &queries[graph]);
            sample.push((ops.len(), answer));
        }
        // A query after a batch over the incremental budget re-peels.
        let mut req = session_query(graph, num(ops.len() as f64));
        if graph == 0
            && ops[ops.len().saturating_sub(2)..]
                .iter()
                .any(|o| o.req.kind.ends_with("_big"))
        {
            req.kind = "approx_repeel";
        }
        ops.push(SessionOp { req, applied: None });
    }
    let finals = (0..2)
        .map(|g| {
            (
                session_query(g, text(&format!("f{g}"))),
                cold_answer(&mirrors[g].materialize(), &queries[g]),
            )
        })
        .collect();
    SessionPlan {
        setup,
        ops,
        sample,
        finals,
    }
}

/// A fresh per-run scratch directory inside the checkout, removed on
/// drop. Relative, so socket paths stay far below the 108-byte limit.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(format!(".perfbench-work/{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}
