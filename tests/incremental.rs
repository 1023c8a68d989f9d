//! Incremental-maintenance property suite: for random mutation
//! sequences over named session graphs, a warm engine (verified replay →
//! incremental re-peel → full re-peel) must answer **byte-
//! identically** to a control engine that recomputes cold on the same
//! snapshot at every step. The incremental tier re-scores its candidate
//! against the published snapshot before answering, so this holds even
//! when the trace simulation itself would go wrong — but the suite also
//! asserts the tier actually *fires* on small deltas, so the fast path
//! is exercised rather than silently falling back.

use std::collections::BTreeSet;

use densest_subgraph::engine::{Algorithm, Engine, Query, ResourcePolicy, Source};
use densest_subgraph::graph::rng::SplitMix64;
use densest_subgraph::graph::GraphKind;

const EPS: f64 = 0.5;

/// Canonical form of an edge for the mirror set.
fn canon(kind: GraphKind, u: u32, v: u32) -> (u32, u32) {
    match kind {
        GraphKind::Undirected => (u.min(v), u.max(v)),
        GraphKind::Directed => (u, v),
    }
}

/// A random batch of distinct candidate edges over `[0, n)`, self-loops
/// excluded (the engine drops them anyway).
fn random_batch(rng: &mut SplitMix64, n: u32, size: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        let u = rng.range_u32(n);
        let v = rng.range_u32(n);
        if u != v {
            out.push((u, v));
        }
    }
    out
}

/// A batch of edges currently present, for removal.
fn removal_batch(
    rng: &mut SplitMix64,
    present: &BTreeSet<(u32, u32)>,
    size: usize,
) -> Vec<(u32, u32)> {
    let pool: Vec<(u32, u32)> = present.iter().copied().collect();
    let mut out = Vec::new();
    for _ in 0..size.min(pool.len()) {
        out.push(*rng.choose(&pool));
    }
    out
}

/// How each round of the sequence mutates the graph.
#[derive(Clone, Copy)]
enum Mode {
    AddOnly,
    RemoveHeavy,
    Mixed,
}

/// Drives `rounds` mutation rounds of `mode` against a warm engine and a
/// cold control engine, asserting byte-identical reports at every step.
/// Returns the warm engine for counter assertions.
fn run_sequence(
    kind: GraphKind,
    query: Query,
    mode: Mode,
    seed: u64,
    rounds: usize,
    batch: usize,
) -> Engine {
    let n: u32 = 120;
    let mut rng = SplitMix64::new(seed);
    let mut init = random_batch(&mut rng, n, 420);
    // Pin the node count: the directed sweep grid depends on it, and a
    // fixed universe keeps cold re-creation from renumbering.
    init.push((0, n - 1));

    let warm = Engine::new();
    let cold = Engine::new();
    // The control answers every query from scratch on the same snapshot.
    cold.set_incremental_threshold(0.0);

    warm.create_graph("g", kind, &init).unwrap();
    cold.create_graph("g", kind, &init).unwrap();
    let mut present: BTreeSet<(u32, u32)> = init
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| canon(kind, u, v))
        .collect();

    let source = Source::Named { name: "g".into() };
    let policy = ResourcePolicy::default();
    let check = |label: String| {
        let a = warm.execute(&source, &query, &policy).unwrap();
        let b = cold.execute(&source, &query, &policy).unwrap();
        assert_eq!(
            a.json_object(false),
            b.json_object(false),
            "warm/cold divergence at {label}"
        );
    };

    check("initial".into());
    for round in 0..rounds {
        let remove = match mode {
            Mode::AddOnly => false,
            Mode::RemoveHeavy => rng.bernoulli(0.7),
            Mode::Mixed => rng.bernoulli(0.4),
        };
        let edges = if remove && !present.is_empty() {
            let batch = removal_batch(&mut rng, &present, batch);
            for &(u, v) in &batch {
                present.remove(&canon(kind, u, v));
            }
            warm.remove_edges("g", &batch).unwrap();
            cold.remove_edges("g", &batch).unwrap();
            batch
        } else {
            let batch = random_batch(&mut rng, n, batch);
            for &(u, v) in &batch {
                present.insert(canon(kind, u, v));
            }
            warm.add_edges("g", &batch).unwrap();
            cold.add_edges("g", &batch).unwrap();
            batch
        };
        check(format!("round {round} ({} edges)", edges.len()));
    }
    warm
}

fn approx() -> Query {
    Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    })
}

fn at_least_k() -> Query {
    Query::new(Algorithm::AtLeastK { k: 8, epsilon: EPS })
}

fn directed() -> Query {
    Query::new(Algorithm::Directed {
        delta: 2.0,
        epsilon: EPS,
    })
}

#[test]
fn approx_add_only_matches_cold_and_hits() {
    let warm = run_sequence(GraphKind::Undirected, approx(), Mode::AddOnly, 11, 12, 4);
    let stats = warm.incremental_stats();
    assert!(stats.hits >= 1, "no incremental hits: {stats:?}");
}

#[test]
fn approx_mixed_matches_cold_and_hits() {
    let warm = run_sequence(GraphKind::Undirected, approx(), Mode::Mixed, 12, 12, 4);
    let stats = warm.incremental_stats();
    assert!(stats.hits >= 1, "no incremental hits: {stats:?}");
}

/// At-least-k stays out of the incremental tier: it never makes an
/// attempt, and every round whose batch applied an edge is answered by
/// one full re-peel, counted as a warm hit.
fn assert_re_peeled_outside_the_tier(warm: &Engine) {
    let stats = warm.incremental_stats();
    assert_eq!((stats.hits, stats.fallbacks), (0, 0), "{stats:?}");
    let applied_rounds = warm.catalog().mutations();
    assert!(applied_rounds >= 1, "no round applied an edge");
    assert_eq!(warm.warm_stats().hits, applied_rounds);
}

#[test]
fn at_least_k_remove_heavy_matches_cold() {
    let warm = run_sequence(
        GraphKind::Undirected,
        at_least_k(),
        Mode::RemoveHeavy,
        13,
        12,
        4,
    );
    assert_re_peeled_outside_the_tier(&warm);
}

#[test]
fn at_least_k_mixed_matches_cold_and_re_peels() {
    let warm = run_sequence(GraphKind::Undirected, at_least_k(), Mode::Mixed, 14, 12, 3);
    assert_re_peeled_outside_the_tier(&warm);
}

#[test]
fn directed_mixed_matches_cold_and_hits() {
    let warm = run_sequence(GraphKind::Directed, directed(), Mode::Mixed, 15, 10, 3);
    let stats = warm.incremental_stats();
    assert!(stats.hits >= 1, "no incremental hits: {stats:?}");
}

#[test]
fn directed_add_only_matches_cold() {
    let warm = run_sequence(GraphKind::Directed, directed(), Mode::AddOnly, 16, 10, 3);
    let stats = warm.incremental_stats();
    assert!(
        stats.hits + stats.fallbacks >= 1,
        "tier never attempted: {stats:?}"
    );
}

/// Disabling the tier (`threshold = 0`) must not change any answer, and
/// must record zero attempts.
#[test]
fn disabled_tier_stays_correct_and_silent() {
    let n: u32 = 100;
    let mut rng = SplitMix64::new(21);
    let init = random_batch(&mut rng, n, 300);
    let warm = Engine::new();
    warm.set_incremental_threshold(0.0);
    let cold = Engine::new();
    cold.set_incremental_threshold(0.0);
    warm.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    cold.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    let source = Source::Named { name: "g".into() };
    let policy = ResourcePolicy::default();
    for _ in 0..6 {
        let batch = random_batch(&mut rng, n, 4);
        warm.add_edges("g", &batch).unwrap();
        cold.add_edges("g", &batch).unwrap();
        let a = warm.execute(&source, &approx(), &policy).unwrap();
        let b = cold.execute(&source, &approx(), &policy).unwrap();
        assert_eq!(a.json_object(false), b.json_object(false));
    }
    let stats = warm.incremental_stats();
    assert_eq!((stats.hits, stats.fallbacks), (0, 0), "{stats:?}");
    assert_eq!(warm.last_incremental(), None);
}

/// A tiny threshold caps the affected set at the floor of 8 nodes;
/// deltas that reach further must fall back — and still answer
/// byte-identically through the warm/cold paths.
#[test]
fn tiny_threshold_forces_fallback_but_stays_correct() {
    let n: u32 = 100;
    let mut rng = SplitMix64::new(22);
    let init = random_batch(&mut rng, n, 600);
    let warm = Engine::new();
    warm.set_incremental_threshold(1e-12);
    let cold = Engine::new();
    cold.set_incremental_threshold(0.0);
    warm.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    cold.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    let source = Source::Named { name: "g".into() };
    let policy = ResourcePolicy::default();
    for _ in 0..5 {
        // Batches touching ~30 distinct nodes blow the 8-node cap.
        let batch = random_batch(&mut rng, n, 15);
        warm.add_edges("g", &batch).unwrap();
        cold.add_edges("g", &batch).unwrap();
        let a = warm.execute(&source, &approx(), &policy).unwrap();
        let b = cold.execute(&source, &approx(), &policy).unwrap();
        assert_eq!(a.json_object(false), b.json_object(false));
    }
    let stats = warm.incremental_stats();
    assert!(stats.fallbacks >= 1, "cap never tripped: {stats:?}");
    let debug = warm.last_incremental().expect("attempts were made");
    assert!(debug.reason.is_some(), "last attempt should be a fallback");
}

/// A delta worth more than half the graph trips the staleness bound
/// (the base snapshot is no longer a sensible stitch target).
#[test]
fn oversized_delta_trips_staleness_bound() {
    let n: u32 = 80;
    let mut rng = SplitMix64::new(23);
    let init = random_batch(&mut rng, n, 200);
    let warm = Engine::new();
    let cold = Engine::new();
    cold.set_incremental_threshold(0.0);
    warm.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    cold.create_graph("g", GraphKind::Undirected, &init)
        .unwrap();
    let source = Source::Named { name: "g".into() };
    let policy = ResourcePolicy::default();
    // Seed the warm tier, then mutate far past the journal window bound.
    warm.execute(&source, &approx(), &policy).unwrap();
    cold.execute(&source, &approx(), &policy).unwrap();
    let batch = random_batch(&mut rng, n, 400);
    warm.add_edges("g", &batch).unwrap();
    cold.add_edges("g", &batch).unwrap();
    let a = warm.execute(&source, &approx(), &policy).unwrap();
    let b = cold.execute(&source, &approx(), &policy).unwrap();
    assert_eq!(a.json_object(false), b.json_object(false));
    let debug = warm.last_incremental().expect("an attempt was recorded");
    assert_eq!(debug.reason, Some("base snapshot too stale"));
}
