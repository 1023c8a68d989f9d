//! **Mutate experiment** — the mutable-session story end to end: edges
//! arrive and expire between queries, and the engine's versioned
//! session path is measured against the only update path the serve
//! stack had before (rewrite the file, let the fingerprint invalidate
//! everything, reload cold).
//!
//! Per round, a delta batch (add-only, remove-heavy, mixed — the three
//! shapes the original acceptance criteria name — plus `small` rounds
//! of ≤ 1% of the edges, the incremental tier's home turf) is applied
//! to a named session graph and each peeling query (`approx`,
//! `atleast-k` on the undirected graph; `directed` on the directed one)
//! is timed four ways over the **same** materialized graph:
//!
//! * **incremental** — `add_edges` + query on a session engine with the
//!   incremental tier at its default threshold: the mutation journal is
//!   replayed through the stored peel trace, only the affected region
//!   is re-peeled, and the result is re-scored against the published
//!   snapshot before answering. `atleast-k` is outside the tier, so its
//!   rows make no attempt (`not in tier`) and this arm re-peels too;
//! * **warm** — the same mutation mirrored to a second session engine
//!   with the incremental tier disabled: the query warm-restarts by
//!   re-peeling the whole new snapshot (the pre-incremental world);
//! * **cold** — a fresh engine over the materialized edge list
//!   (clone + canonicalize + CSR + peel): pure recompute, no session;
//! * **file** — the pre-session world: write the materialized graph to
//!   disk, then a fresh engine loads it (stat scan + parse +
//!   canonicalize + fingerprint + CSR + peel).
//!
//! With `--durable` a fifth arm mirrors every mutation to a session
//! engine whose catalog has a WAL + snapshot data dir open at
//! `--fsync-every 1` (the strictest policy the serve stack offers):
//! the `durable ms` column is the mutate-only cost of append + fsync +
//! publish, and `durable x` is that cost relative to the identical
//! in-memory session mutation (the warm mirror). Content parity with
//! the in-memory session is asserted every round. Both columns are
//! compared warn-only against `bench/baseline.json` — fsync latency is
//! the one number here that genuinely belongs to the host's disk, not
//! the code.
//!
//! **Parity is asserted, not sampled**: every incremental report and
//! every warm report must be byte-identical (minus `elapsed_ms`) to the
//! cold report over the materialized graph, for every round × shape ×
//! algorithm — the run panics on the first divergence, which is what
//! lets CI run this as a correctness gate. The run also hard-fails
//! unless the incremental tier actually answered at least one query
//! (a tier that silently falls back on everything would otherwise look
//! "correct" forever), and unless every mutated-round approx and
//! directed query made exactly one incremental attempt and every
//! at-least-k query none. A final compact round additionally exercises
//! the verified-replay path (version bump, unchanged content) and
//! asserts the warm-hit counters moved.
//!
//! On a single-CPU container the absolute times are modest; the honest
//! headlines are the *work avoided* — `file ms / warm ms` in the
//! `speedup` column, and for small deltas `warm query ms / inc query
//! ms` in the `inc speedup` column (the incremental tier never builds
//! the new CSR and touches only the affected region, so small-delta
//! rounds should sit well above 3×).

use std::path::PathBuf;
use std::time::Instant;

use dsg_datasets::{flickr_standin, twitter_standin, Scale};
use dsg_engine::{Algorithm, Engine, Query, ResourcePolicy, Source};
use dsg_graph::io::write_text;
use dsg_graph::{EdgeList, GraphKind, SplitMix64};

use crate::table::{fmt_f, Table};

/// An edge batch, as the mutation ops take it.
type EdgeBatch = Vec<(u32, u32)>;

/// One (round × algorithm) measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Mutation round (1-based; the last round is the compact/replay).
    pub round: usize,
    /// Delta shape of the round (`add`, `remove`, `mixed`, `small`,
    /// `compact`).
    pub shape: &'static str,
    /// Algorithm queried.
    pub algorithm: &'static str,
    /// Edges in the materialized graph after the delta.
    pub edges: u64,
    /// Edges the round's delta actually applied.
    pub delta_edges: u64,
    /// Incremental session path: mutate + query, milliseconds.
    pub inc_ms: f64,
    /// Query-only portion of the incremental path, milliseconds.
    pub inc_query_ms: f64,
    /// Warm session path (incremental tier disabled): mutate + warm
    /// re-peel query, milliseconds.
    pub warm_ms: f64,
    /// Query-only portion of the warm path, milliseconds.
    pub warm_query_ms: f64,
    /// Cold recompute over the materialized list, milliseconds.
    pub cold_ms: f64,
    /// File world: rewrite + cold load + query, milliseconds.
    pub file_ms: f64,
    /// Durable session mutation (WAL append + fsync-every-1 + publish),
    /// milliseconds; 0 when the `--durable` arm is off.
    pub durable_ms: f64,
    /// `durable mutate / in-memory (warm) mutate` for the same batch —
    /// the append+fsync overhead factor; 0 when the arm is off.
    pub durable_overhead: f64,
    /// Affected-set size of the incremental simulation (0 on fallback).
    pub affected: u64,
    /// Peel passes the incremental answer took (0 on fallback).
    pub passes: u64,
    /// Why the incremental tier fell back (`-` when it answered, `not
    /// in tier` when the query made no attempt).
    pub fallback: &'static str,
    /// `warm_query_ms / inc_query_ms` — the incremental tier's win over
    /// a full warm re-peel of the same snapshot (0 when the query made no
    /// incremental attempt).
    pub speedup_vs_warm: f64,
    /// `file_ms / warm_ms` — the session story's win over the
    /// pre-session file world.
    pub speedup_vs_file: f64,
    /// Whether every session report was byte-identical to the cold one
    /// (asserted — a row only exists if it was).
    pub parity: bool,
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_mutate_experiment");
    std::fs::create_dir_all(&dir).expect("cannot create mutate data dir");
    dir
}

/// Deterministic delta batch over the current node universe.
fn delta_batch(rng: &mut SplitMix64, nodes: u32, count: usize) -> Vec<(u32, u32)> {
    let span = nodes.max(2);
    (0..count)
        .map(|_| {
            let u = (rng.next_u64() % span as u64) as u32;
            let v = (rng.next_u64() % span as u64) as u32;
            (u, v)
        })
        .collect()
}

/// Picks `count` existing edges to remove, spread across the list.
fn removal_batch(list: &EdgeList, count: usize) -> Vec<(u32, u32)> {
    let m = list.num_edges();
    if m == 0 {
        return Vec::new();
    }
    let step = (m / count.max(1)).max(1);
    list.edges
        .iter()
        .step_by(step)
        .take(count)
        .copied()
        .collect()
}

struct Session {
    name: &'static str,
    queries: Vec<(&'static str, Query)>,
}

/// Runs the experiment at the given scale. `durable` adds the WAL +
/// fsync mirror arm (the `--durable` flag of `repro mutate`).
pub fn run(scale: Scale, durable: bool) -> Vec<Row> {
    let dir = data_dir();
    // The headline engine: incremental tier on (default threshold).
    let engine = Engine::new();
    // The comparison engine: identical sessions, incremental tier off —
    // every small delta takes the full warm re-peel this PR improves on.
    let warm_engine = Engine::new();
    warm_engine.set_incremental_threshold(0.0);
    // The durable mirror: same sessions again, but every mutation is
    // WAL-appended and fsynced before it publishes (fsync-every 1, the
    // serve stack's strictest policy). A fresh data dir per run — a
    // leftover WAL would replay a previous run's graphs into the
    // catalog before ours are even created.
    let durable_engine = durable.then(|| {
        let e = Engine::new();
        let wal_dir = dir.join(format!("wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        e.catalog()
            .open_data_dir(&wal_dir, 1, 256)
            .expect("open durable data dir");
        e
    });
    let policy = ResourcePolicy::default();

    let und = flickr_standin(scale);
    let dir_graph = twitter_standin(scale);
    for e in [Some(&engine), Some(&warm_engine), durable_engine.as_ref()]
        .into_iter()
        .flatten()
    {
        e.create_graph("live_und", GraphKind::Undirected, &und.edges)
            .expect("create undirected session");
        e.create_graph("live_dir", GraphKind::Directed, &dir_graph.edges)
            .expect("create directed session");
    }

    let sessions = [
        Session {
            name: "live_und",
            queries: vec![
                (
                    "approx",
                    Query::new(Algorithm::Approx {
                        epsilon: 0.5,
                        sketch: None,
                    }),
                ),
                (
                    "atleast-k",
                    Query::new(Algorithm::AtLeastK {
                        k: 16,
                        epsilon: 0.5,
                    }),
                ),
            ],
        },
        Session {
            name: "live_dir",
            queries: vec![(
                "directed",
                Query::new(Algorithm::Directed {
                    delta: 2.0,
                    epsilon: 0.5,
                }),
            )],
        },
    ];

    // Seed every (graph, query) warm slot before the measured rounds.
    for session in &sessions {
        for (_, query) in &session.queries {
            for e in [&engine, &warm_engine] {
                e.execute(&Source::named(session.name), query, &policy)
                    .expect("seed query");
            }
        }
    }

    let mut rng = SplitMix64::new(42);
    // The three original delta shapes at ~2% of the edges, then three
    // `small` rounds at ≤ 0.5% — the incremental tier's target regime.
    let shapes: [&'static str; 9] = [
        "add", "remove", "mixed", "add", "remove", "mixed", "small", "small", "small",
    ];
    let mut rows = Vec::new();

    for (round, shape) in shapes.iter().enumerate() {
        for session in &sessions {
            let snapshot = materialized(&engine, session.name);
            let batch = match *shape {
                // Small-delta rounds: ≤ 0.05% of the current edges —
                // the single-edge-arrival regime the incremental tier
                // targets. The delta endpoints sit well inside the
                // default affected-set budget (5% of the nodes) with
                // room for the frontier to grow during simulation.
                "small" => (snapshot.num_edges() / 2000).clamp(2, 8),
                // Delta ≈ 2% of the current edge count, split per shape.
                _ => (snapshot.num_edges() / 50).clamp(4, 2_000),
            };
            let (adds, removes): (EdgeBatch, EdgeBatch) = match *shape {
                "add" | "small" => (delta_batch(&mut rng, snapshot.num_nodes, batch), Vec::new()),
                "remove" => (Vec::new(), removal_batch(&snapshot, batch)),
                _ => (
                    delta_batch(&mut rng, snapshot.num_nodes, batch / 2),
                    removal_batch(&snapshot, batch / 2),
                ),
            };

            // --- incremental arm: session mutation + queries on the
            // engine with the tier enabled.
            let inc_started = Instant::now();
            let mut delta_applied = 0u64;
            if !adds.is_empty() {
                delta_applied += engine
                    .add_edges(session.name, &adds)
                    .expect("add_edges")
                    .applied;
            }
            if !removes.is_empty() {
                delta_applied += engine
                    .remove_edges(session.name, &removes)
                    .expect("remove_edges")
                    .applied;
            }
            let inc_mutate_ms = inc_started.elapsed().as_secs_f64() * 1e3;

            // --- warm arm: the identical mutation mirrored to the
            // re-peel-only engine.
            let warm_started = Instant::now();
            if !adds.is_empty() {
                warm_engine
                    .add_edges(session.name, &adds)
                    .expect("add_edges (warm mirror)");
            }
            if !removes.is_empty() {
                warm_engine
                    .remove_edges(session.name, &removes)
                    .expect("remove_edges (warm mirror)");
            }
            let warm_mutate_ms = warm_started.elapsed().as_secs_f64() * 1e3;

            // --- durable arm: the identical mutation once more, now
            // with a WAL append + fsync inside the publication lock.
            // Mutate-only timing: the query path is byte-identical to
            // the in-memory session (same snapshot type), so re-timing
            // it here would only measure noise.
            let durable_mutate_ms = durable_engine.as_ref().map(|e| {
                let started = Instant::now();
                if !adds.is_empty() {
                    e.add_edges(session.name, &adds)
                        .expect("add_edges (durable mirror)");
                }
                if !removes.is_empty() {
                    e.remove_edges(session.name, &removes)
                        .expect("remove_edges (durable mirror)");
                }
                started.elapsed().as_secs_f64() * 1e3
            });
            let current = materialized(&engine, session.name);
            if let Some(e) = durable_engine.as_ref() {
                let mirrored = materialized(e, session.name);
                assert_eq!(
                    (mirrored.num_nodes, &mirrored.edges),
                    (current.num_nodes, &current.edges),
                    "durable mirror diverged from the in-memory session: \
                     round {round}, {shape}, {}",
                    session.name
                );
            }

            for (alg_name, query) in &session.queries {
                let attempts = || {
                    let s = engine.incremental_stats();
                    s.hits + s.fallbacks
                };
                let attempts_before = attempts();
                let inc_started = Instant::now();
                let inc = engine
                    .execute(&Source::named(session.name), query, &policy)
                    .expect("incremental query");
                let inc_query_ms = inc_started.elapsed().as_secs_f64() * 1e3;
                let inc_ms = inc_mutate_ms / session.queries.len() as f64 + inc_query_ms;
                // The tier's debug record belongs to this query only if
                // the query made the attempt: an at-least-k query never
                // does, and would otherwise report the previous query's.
                let made = attempts() - attempts_before;
                let expected = u64::from(*alg_name != "atleast-k");
                assert_eq!(
                    made, expected,
                    "incremental attempts: round {round}, {shape}, {alg_name}"
                );
                let debug = (made == 1).then(|| {
                    engine
                        .last_incremental()
                        .expect("an attempt records its debug state")
                });
                if std::env::var_os("DSG_MUTATE_DEBUG").is_some() {
                    eprintln!("[mutate debug] round {round} {shape} {alg_name}: debug={debug:?}");
                }
                let (affected, passes, fallback) = match debug {
                    None => (0, 0, "not in tier"),
                    Some(d) => match d.reason {
                        None => (d.affected as u64, d.passes as u64, "-"),
                        Some(reason) => (0, 0, reason),
                    },
                };
                // Probe-overhead bound: a threshold fallback must have
                // stopped growing the affected set the moment it crossed
                // the budget — a doomed probe is O(threshold), never
                // O(graph). Asserted on every round so a regression in
                // the early-exit shows up as a hard failure here.
                if let Some(d) = debug {
                    if d.reason == Some(dsg_core::THRESHOLD_REASON) {
                        assert!(
                            d.affected <= d.budget + 1,
                            "threshold fallback overshot its probe bound: \
                             affected {} > budget {} + 1 (round {round}, {shape}, {alg_name})",
                            d.affected,
                            d.budget,
                        );
                    }
                }

                let warm_started = Instant::now();
                let warm = warm_engine
                    .execute(&Source::named(session.name), query, &policy)
                    .expect("warm query");
                let warm_query_ms = warm_started.elapsed().as_secs_f64() * 1e3;
                let warm_ms = warm_mutate_ms / session.queries.len() as f64 + warm_query_ms;

                // --- cold arm: fresh engine, materialized list.
                let cold_engine = Engine::new();
                let cold_started = Instant::now();
                let cold = cold_engine
                    .execute(
                        &Source::Memory {
                            list: current.clone(),
                            label: session.name.to_string(),
                        },
                        query,
                        &policy,
                    )
                    .expect("cold query");
                let cold_ms = cold_started.elapsed().as_secs_f64() * 1e3;

                // Parity: the acceptance criterion. Panic on divergence.
                let cold_json = cold.json_object(false);
                assert_eq!(
                    inc.json_object(false),
                    cold_json,
                    "incremental/cold divergence: round {round}, {shape}, {alg_name}"
                );
                assert_eq!(
                    warm.json_object(false),
                    cold_json,
                    "warm/cold divergence: round {round}, {shape}, {alg_name}"
                );

                // --- file arm: rewrite + cold load (the pre-session world).
                let path = dir.join(format!("{}_{round}.txt", session.name));
                let file_engine = Engine::new();
                let file_started = Instant::now();
                write_text(&path, &current).expect("rewrite edge file");
                let file_report = file_engine
                    .execute(
                        &Source::File {
                            path: path.clone(),
                            binary: false,
                            directed_input: current.kind == GraphKind::Directed,
                        },
                        query,
                        &policy,
                    )
                    .expect("file query");
                let file_ms = file_started.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    file_report.density().to_bits(),
                    inc.density().to_bits(),
                    "file-world density must agree: round {round}, {alg_name}"
                );

                rows.push(Row {
                    round: round + 1,
                    shape,
                    algorithm: alg_name,
                    edges: current.num_edges() as u64,
                    delta_edges: delta_applied,
                    inc_ms,
                    inc_query_ms,
                    warm_ms,
                    warm_query_ms,
                    cold_ms,
                    file_ms,
                    durable_ms: durable_mutate_ms.unwrap_or(0.0) / session.queries.len() as f64,
                    durable_overhead: match durable_mutate_ms {
                        Some(d) if warm_mutate_ms > 0.0 => d / warm_mutate_ms,
                        _ => 0.0,
                    },
                    affected,
                    passes,
                    fallback,
                    speedup_vs_warm: if debug.is_some() && inc_query_ms > 0.0 {
                        warm_query_ms / inc_query_ms
                    } else {
                        0.0
                    },
                    speedup_vs_file: if warm_ms > 0.0 {
                        file_ms / warm_ms
                    } else {
                        0.0
                    },
                    parity: true,
                });
            }
        }
    }

    // Final round: compact bumps the version without changing content —
    // the warm path must serve a verified replay, byte-identically.
    let warm_before = engine.warm_stats();
    for session in &sessions {
        engine.compact_graph(session.name).expect("compact");
        if let Some(e) = durable_engine.as_ref() {
            // Keep the WAL lineage honest: the durable mirror compacts
            // too (a compact record + snapshot-cadence bookkeeping).
            e.compact_graph(session.name)
                .expect("compact (durable mirror)");
        }
        let current = materialized(&engine, session.name);
        for (alg_name, query) in &session.queries {
            let started = Instant::now();
            let warm = engine
                .execute(&Source::named(session.name), query, &policy)
                .expect("replay query");
            let warm_ms = started.elapsed().as_secs_f64() * 1e3;
            let cold_engine = Engine::new();
            let cold_started = Instant::now();
            let cold = cold_engine
                .execute(
                    &Source::Memory {
                        list: current.clone(),
                        label: session.name.to_string(),
                    },
                    query,
                    &policy,
                )
                .expect("cold replay reference");
            let cold_ms = cold_started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                warm.json_object(false),
                cold.json_object(false),
                "replay divergence: {alg_name}"
            );
            rows.push(Row {
                round: shapes.len() + 1,
                shape: "compact",
                algorithm: alg_name,
                edges: current.num_edges() as u64,
                delta_edges: 0,
                inc_ms: 0.0,
                inc_query_ms: 0.0,
                warm_ms,
                warm_query_ms: warm_ms,
                cold_ms,
                file_ms: 0.0,
                durable_ms: 0.0,
                durable_overhead: 0.0,
                affected: 0,
                passes: 0,
                fallback: "-",
                speedup_vs_warm: 0.0,
                speedup_vs_file: 0.0,
                parity: true,
            });
        }
    }
    let warm_after = engine.warm_stats();
    assert!(
        warm_after.hits > warm_before.hits,
        "compaction replays must register as warm hits ({warm_before:?} -> {warm_after:?})"
    );

    // The incremental tier must have actually answered queries — every
    // small-delta round is in its regime, and a tier that falls back on
    // everything would otherwise pass the parity gate forever.
    let inc = engine.incremental_stats();
    assert!(
        inc.hits >= 1,
        "the incremental tier never answered a query: {inc:?}"
    );
    // Every small-delta `approx` round sits squarely in the tier's
    // regime (a handful of delta endpoints against a 5%-of-nodes
    // budget); the run is deterministic, so hit/fallback outcomes are
    // reproducible and this can be exact.
    let (small_approx, small_approx_hits): (Vec<_>, Vec<_>) = {
        let s: Vec<_> = rows
            .iter()
            .filter(|r| r.shape == "small" && r.algorithm == "approx")
            .collect();
        let h = s.iter().filter(|r| r.fallback == "-").cloned().collect();
        (s, h)
    };
    assert!(
        !small_approx.is_empty() && small_approx.len() == small_approx_hits.len(),
        "every small-delta approx round must take the incremental path: \
         {} of {} hit",
        small_approx_hits.len(),
        small_approx.len()
    );
    // Between them, the maintenance tiers must carry most rounds.
    assert!(
        inc.hits + warm_after.hits >= rows.len() as u64 / 2,
        "most mutated-query rounds should be maintained, not recomputed: \
         incremental {inc:?} + warm {warm_after:?} over {} rows",
        rows.len()
    );

    // The small-delta headline — `approx` is the paper's core peel and
    // the tier's cleanest win (the directed sweep pays O(grid) per-ratio
    // simulations, which only beat a warm sweep once the graph is big
    // enough to amortize them). Recorded in the table and compared
    // (warn-only) against bench/baseline.json.
    let mut small: Vec<f64> = small_approx_hits
        .iter()
        .filter(|r| r.speedup_vs_warm > 0.0)
        .map(|r| r.speedup_vs_warm)
        .collect();
    small.sort_by(|a, b| a.partial_cmp(b).expect("finite speedups"));
    if let Some(median) = small.get(small.len() / 2) {
        eprintln!(
            "[mutate] small-delta approx, incremental vs warm re-peel: \
             median {median:.2}x over {} rounds",
            small.len()
        );
        if *median < 3.0 {
            eprintln!(
                "[mutate] WARNING: small-delta approx incremental speedup \
                 {median:.2}x is below the 3x target"
            );
        }
    }

    if durable {
        let mut over: Vec<f64> = rows
            .iter()
            .filter(|r| r.durable_overhead > 0.0)
            .map(|r| r.durable_overhead)
            .collect();
        assert!(
            !over.is_empty(),
            "--durable was set but no round timed a durable mutation"
        );
        over.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
        let median = over[over.len() / 2];
        eprintln!(
            "[mutate] durable sessions (WAL append + fsync-every-1): \
             median {median:.2}x the in-memory session mutate over {} rounds",
            over.len()
        );
    }

    rows
}

/// The session's current materialized graph.
fn materialized(engine: &Engine, name: &str) -> EdgeList {
    let (_, entry) = engine
        .catalog()
        .get_named(name)
        .expect("session graph exists");
    entry.list.clone()
}

/// Renders the rows as a paper-style table.
pub fn to_table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Mutate: incremental re-peel vs warm re-peel vs cold recompute vs file rewrite \
         (parity asserted)",
        &[
            "round",
            "shape",
            "algorithm",
            "edges",
            "delta",
            "inc ms",
            "warm ms",
            "cold ms",
            "file ms",
            "durable ms",
            "durable x",
            "affected",
            "passes",
            "fallback",
            "inc speedup",
            "speedup",
            "parity",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.round.to_string(),
            r.shape.to_string(),
            r.algorithm.to_string(),
            r.edges.to_string(),
            r.delta_edges.to_string(),
            fmt_f(r.inc_ms, 2),
            fmt_f(r.warm_ms, 2),
            fmt_f(r.cold_ms, 2),
            fmt_f(r.file_ms, 2),
            fmt_f(r.durable_ms, 2),
            fmt_f(r.durable_overhead, 2),
            r.affected.to_string(),
            r.passes.to_string(),
            r.fallback.to_string(),
            fmt_f(r.speedup_vs_warm, 2),
            fmt_f(r.speedup_vs_file, 2),
            if r.parity { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t
}
