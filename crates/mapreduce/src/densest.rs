//! The MapReduce realization of the densest-subgraph algorithms (§5.2).
//!
//! State lives in two distributed datasets: a **node file** (one record
//! per live node) and an **edge file** (one record per live edge). Each
//! pass of Algorithm 1 runs three MapReduce rounds, exactly as sketched in
//! the paper:
//!
//! 1. **Degree & mark** — every edge emits `⟨u; +1⟩` and `⟨v; +1⟩`, every
//!    node record emits `⟨u; node⟩`; the reducer counts a node's incident
//!    live edges and, given the pass threshold `2(1+ε)ρ(S)`, either
//!    re-emits the node (survivor) or emits a `$` tombstone (removed).
//! 2. **Removal, pivot on first endpoint** — edges key on `u`, tombstones
//!    mark removed `u`s; the reducer drops all edges of marked nodes.
//! 3. **Removal, pivot on second endpoint** — the same, keyed on `v`.
//!
//! The density `ρ(S) = |E|/|S|` needs only the dataset sizes (a holistic
//! sum the driver reads off the round statistics). The directed variant
//! (Algorithm 3) removes from one side per pass, so it needs one fewer
//! removal round.

use std::time::Duration;

use dsg_graph::{density, NodeSet};

use std::io::Read;

use crate::engine::{run_round, run_round_combined, MapReduceConfig, RoundStats, Spillable};

/// Per-pass accounting of the MapReduce driver (Figure 6.7's series).
#[derive(Clone, Debug)]
pub struct MrPassReport {
    /// 1-based pass number.
    pub pass: u32,
    /// Live nodes at the start of the pass.
    pub nodes: u64,
    /// Live edges at the start of the pass.
    pub edges: u64,
    /// Density at the start of the pass.
    pub density: f64,
    /// Wall-clock time of all MapReduce rounds in this pass.
    pub wall_time: Duration,
    /// Aggregated round statistics (3 rounds undirected, 2 directed).
    pub rounds: RoundStats,
}

/// Result of the undirected MapReduce driver.
#[derive(Clone, Debug)]
pub struct MrUndirectedResult {
    /// The best (densest) intermediate node set.
    pub best_set: NodeSet,
    /// Its density.
    pub best_density: f64,
    /// Number of passes (each pass = 3 MapReduce rounds).
    pub passes: u32,
    /// Per-pass reports.
    pub reports: Vec<MrPassReport>,
}

/// Input record of the degree-and-mark round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MarkRec {
    /// A live-node record for node `u`.
    Node(u32),
    /// A live edge `(u, v)` (contributes to both endpoints' degrees).
    Edge(u32, u32),
    /// One incident arc at a single pivot endpoint (directed rounds).
    HalfEdge(u32),
}

/// Value type of the degree-and-mark round: a *combinable* aggregate
/// (degree counting is an associative, commutative sum, so Hadoop-style
/// map-side combining applies when [`MapReduceConfig::combine`] is set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MarkAgg {
    /// A live-node record was seen for this key.
    node: bool,
    /// Number of incident live edges seen for this key.
    deg: u64,
}

impl MarkAgg {
    const NODE: MarkAgg = MarkAgg { node: true, deg: 0 };
    const INC: MarkAgg = MarkAgg {
        node: false,
        deg: 1,
    };

    fn merge(a: MarkAgg, b: MarkAgg) -> MarkAgg {
        MarkAgg {
            node: a.node || b.node,
            deg: a.deg + b.deg,
        }
    }
}

impl Spillable for MarkAgg {
    fn spill_bytes(&self) -> usize {
        9
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.deg.encode(out);
    }
    fn decode(input: &mut dyn Read) -> std::io::Result<Self> {
        Ok(MarkAgg {
            node: bool::decode(input)?,
            deg: u64::decode(input)?,
        })
    }
}

/// Runs the degree-and-mark round, with or without map-side combining.
fn run_mark_round(
    config: &MapReduceConfig,
    inputs: &[Vec<MarkRec>],
    threshold: f64,
) -> (Vec<Vec<MarkOut>>, RoundStats) {
    let mapper = |rec: &MarkRec, emit: &mut dyn FnMut(u32, MarkAgg)| match *rec {
        MarkRec::Node(u) => emit(u, MarkAgg::NODE),
        MarkRec::Edge(u, v) => {
            emit(u, MarkAgg::INC);
            emit(v, MarkAgg::INC);
        }
        MarkRec::HalfEdge(u) => emit(u, MarkAgg::INC),
    };
    let reducer = move |&u: &u32, vs: &mut dyn Iterator<Item = MarkAgg>, out: &mut Vec<MarkOut>| {
        let agg = vs.fold(
            MarkAgg {
                node: false,
                deg: 0,
            },
            MarkAgg::merge,
        );
        // Edges of already-removed endpoints cannot appear (they were
        // purged in the previous pass), so every increment belongs to a
        // live node.
        if agg.node {
            if (agg.deg as f64) <= threshold {
                out.push(MarkOut::Removed(u));
            } else {
                out.push(MarkOut::Survivor(u));
            }
        }
    };
    if config.combine {
        run_round_combined(config, inputs, mapper, MarkAgg::merge, reducer)
    } else {
        run_round(config, inputs, mapper, reducer)
    }
}

/// Value type of the removal rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RemVal {
    /// A live edge `(pivot, other)`; carries the other endpoint.
    Edge(u32),
    /// The `$` tombstone of §5.2.
    Tomb,
}

impl Spillable for RemVal {
    fn spill_bytes(&self) -> usize {
        match self {
            RemVal::Edge(_) => 5,
            RemVal::Tomb => 1,
        }
    }
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RemVal::Edge(o) => {
                out.push(1);
                o.encode(out);
            }
            RemVal::Tomb => out.push(0),
        }
    }
    fn decode(input: &mut dyn Read) -> std::io::Result<Self> {
        match u8::decode(input)? {
            0 => Ok(RemVal::Tomb),
            1 => Ok(RemVal::Edge(u32::decode(input)?)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad RemVal tag {other}"),
            )),
        }
    }
}

/// Output of the degree-and-mark reducer.
#[derive(Clone, Debug, PartialEq, Eq)]
enum MarkOut {
    Survivor(u32),
    Removed(u32),
}

/// Runs Algorithm 1 on the MapReduce simulator.
///
/// `edge_splits` is the partitioned edge file (undirected edges, each
/// stored once); `num_nodes` bounds the node ids. Produces the same
/// sequence of sets as the streaming implementation.
pub fn mr_densest_undirected(
    config: &MapReduceConfig,
    num_nodes: u32,
    edge_splits: &[&[(u32, u32)]],
    epsilon: f64,
) -> MrUndirectedResult {
    assert!(epsilon >= 0.0);
    // Node file: initially every node, split evenly.
    let mut node_splits: Vec<Vec<u32>> =
        split_evenly((0..num_nodes).collect(), config.num_reducers);
    // The driver's own copy of the edge file, without self-loops.
    let mut edge_splits: Vec<Vec<(u32, u32)>> = edge_splits
        .iter()
        .map(|s| s.iter().copied().filter(|&(u, v)| u != v).collect())
        .collect();

    let mut best_set = NodeSet::full(num_nodes as usize);
    let mut best_density = 0.0f64;
    let mut reports = Vec::new();
    let mut pass = 0u32;

    loop {
        let live_nodes: u64 = node_splits.iter().map(|s| s.len() as u64).sum();
        if live_nodes == 0 {
            break;
        }
        pass += 1;
        let live_edges: u64 = edge_splits.iter().map(|s| s.len() as u64).sum();
        let rho = density::undirected(live_edges as f64, live_nodes as usize);
        if rho > best_density || pass == 1 {
            best_density = rho;
            best_set =
                NodeSet::from_iter(num_nodes as usize, node_splits.iter().flatten().copied());
        }
        let threshold = density::undirected_threshold(rho, epsilon);

        // ---- Round 1: degree & mark --------------------------------
        // Inputs: node records and edge records, as separate split sets.
        let mark_inputs: Vec<Vec<MarkRec>> = node_splits
            .iter()
            .map(|s| s.iter().map(|&u| MarkRec::Node(u)).collect())
            .chain(
                edge_splits
                    .iter()
                    .map(|s| s.iter().map(|&(u, v)| MarkRec::Edge(u, v)).collect()),
            )
            .collect();
        let (mark_out, r1) = run_mark_round(config, &mark_inputs, threshold);

        let mut new_node_splits: Vec<Vec<u32>> = Vec::with_capacity(mark_out.len());
        let mut removed_splits: Vec<Vec<u32>> = Vec::with_capacity(mark_out.len());
        for part in &mark_out {
            let mut ns = Vec::new();
            let mut rs = Vec::new();
            for rec in part {
                match rec {
                    MarkOut::Survivor(u) => ns.push(*u),
                    MarkOut::Removed(u) => rs.push(*u),
                }
            }
            new_node_splits.push(ns);
            removed_splits.push(rs);
        }

        // ---- Rounds 2 & 3: purge edges of removed nodes ------------
        let (edges_after_u, r2) = purge_edges(config, &edge_splits, &removed_splits, true);
        let (edges_after_uv, r3) = purge_edges(config, &edges_after_u, &removed_splits, false);

        let mut rounds = r1;
        rounds.absorb(&r2);
        rounds.absorb(&r3);
        reports.push(MrPassReport {
            pass,
            nodes: live_nodes,
            edges: live_edges,
            density: rho,
            wall_time: rounds.wall_time,
            rounds,
        });

        node_splits = new_node_splits;
        edge_splits = edges_after_uv;
    }

    MrUndirectedResult {
        best_set,
        best_density,
        passes: pass,
        reports,
    }
}

/// One §5.2 removal round: drops every edge whose pivot endpoint is
/// tombstoned. `pivot_first` selects which endpoint keys the shuffle.
fn purge_edges(
    config: &MapReduceConfig,
    edge_splits: &[Vec<(u32, u32)>],
    removed_splits: &[Vec<u32>],
    pivot_first: bool,
) -> (Vec<Vec<(u32, u32)>>, RoundStats) {
    let inputs: Vec<Vec<(u32, RemVal)>> = edge_splits
        .iter()
        .map(|s| {
            s.iter()
                .map(|&(u, v)| {
                    if pivot_first {
                        (u, RemVal::Edge(v))
                    } else {
                        (v, RemVal::Edge(u))
                    }
                })
                .collect()
        })
        .chain(
            removed_splits
                .iter()
                .map(|s| s.iter().map(|&u| (u, RemVal::Tomb)).collect()),
        )
        .collect();
    let (out, stats) = run_round(
        config,
        &inputs,
        |rec: &(u32, RemVal), emit: &mut dyn FnMut(u32, RemVal)| emit(rec.0, rec.1.clone()),
        move |&pivot: &u32, vs: &mut dyn Iterator<Item = RemVal>, out: &mut Vec<(u32, u32)>| {
            let mut others: Vec<u32> = Vec::new();
            let mut tomb = false;
            for v in vs {
                match v {
                    RemVal::Tomb => tomb = true,
                    RemVal::Edge(o) => others.push(o),
                }
            }
            if !tomb {
                for o in others {
                    // Restore original orientation.
                    if pivot_first {
                        out.push((pivot, o));
                    } else {
                        out.push((o, pivot));
                    }
                }
            }
        },
    );
    (out, stats)
}

/// Result of the directed MapReduce driver.
#[derive(Clone, Debug)]
pub struct MrDirectedResult {
    /// Best source side `S̃`.
    pub best_s: NodeSet,
    /// Best target side `T̃`.
    pub best_t: NodeSet,
    /// `ρ(S̃, T̃)`.
    pub best_density: f64,
    /// Number of passes (each pass = 2 MapReduce rounds).
    pub passes: u32,
    /// Per-pass reports.
    pub reports: Vec<MrPassReport>,
}

/// Directed degree record side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Side {
    Out,
    In,
}

impl Spillable for Side {
    fn spill_bytes(&self) -> usize {
        1
    }
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(matches!(self, Side::In) as u8);
    }
    fn decode(input: &mut dyn Read) -> std::io::Result<Self> {
        Ok(if u8::decode(input)? != 0 {
            Side::In
        } else {
            Side::Out
        })
    }
}

/// Runs Algorithm 3 (fixed ratio `c`) on the MapReduce simulator.
///
/// The live edge file always equals `E(S, T)`; removing nodes from one
/// side therefore needs a single removal round pivoting on that side's
/// endpoint.
pub fn mr_densest_directed(
    config: &MapReduceConfig,
    num_nodes: u32,
    edge_splits: &[&[(u32, u32)]],
    c: f64,
    epsilon: f64,
) -> MrDirectedResult {
    assert!(c > 0.0 && epsilon >= 0.0);
    let mut s_nodes: Vec<Vec<u32>> = split_evenly((0..num_nodes).collect(), config.num_reducers);
    let mut t_nodes: Vec<Vec<u32>> = s_nodes.clone();
    let mut edge_splits: Vec<Vec<(u32, u32)>> = edge_splits.iter().map(|s| s.to_vec()).collect();

    let mut best_s = NodeSet::full(num_nodes as usize);
    let mut best_t = NodeSet::full(num_nodes as usize);
    let mut best_density = 0.0f64;
    let mut reports = Vec::new();
    let mut pass = 0u32;

    loop {
        let s_count: u64 = s_nodes.iter().map(|s| s.len() as u64).sum();
        let t_count: u64 = t_nodes.iter().map(|s| s.len() as u64).sum();
        if s_count == 0 || t_count == 0 {
            break;
        }
        pass += 1;
        let live_edges: u64 = edge_splits.iter().map(|s| s.len() as u64).sum();
        let rho = density::directed(live_edges as f64, s_count as usize, t_count as usize);
        if rho > best_density || pass == 1 {
            best_density = rho;
            best_s = NodeSet::from_iter(num_nodes as usize, s_nodes.iter().flatten().copied());
            best_t = NodeSet::from_iter(num_nodes as usize, t_nodes.iter().flatten().copied());
        }

        let from_s = s_count as f64 / t_count as f64 >= c;
        let side = if from_s { Side::Out } else { Side::In };
        let side_count = if from_s { s_count } else { t_count };
        let threshold =
            density::directed_threshold(live_edges as f64, side_count as usize, epsilon);

        // ---- Round 1: degree & mark on the chosen side -------------
        // The key carries the side so out- and in-degree streams cannot
        // collide even when the same node is live on both sides.
        let side_nodes = if from_s { &s_nodes } else { &t_nodes };
        let mark_inputs: Vec<Vec<MarkRec>> = side_nodes
            .iter()
            .map(|s| s.iter().map(|&u| MarkRec::Node(u)).collect())
            .chain(edge_splits.iter().map(|s| {
                s.iter()
                    .map(|&(u, v)| {
                        let pivot = if from_s { u } else { v };
                        // Encode "one incident arc at `pivot`" as a
                        // degenerate edge record counted once.
                        MarkRec::HalfEdge(pivot)
                    })
                    .collect()
            }))
            .collect();
        let mapper = |rec: &MarkRec, emit: &mut dyn FnMut((u32, Side), MarkAgg)| match *rec {
            MarkRec::Node(u) => emit((u, side), MarkAgg::NODE),
            MarkRec::HalfEdge(u) => emit((u, side), MarkAgg::INC),
            MarkRec::Edge(..) => unreachable!("directed mark round uses half-edge records"),
        };
        let reducer = |&(u, _): &(u32, Side),
                       vs: &mut dyn Iterator<Item = MarkAgg>,
                       out: &mut Vec<MarkOut>| {
            let agg = vs.fold(
                MarkAgg {
                    node: false,
                    deg: 0,
                },
                MarkAgg::merge,
            );
            if agg.node {
                if (agg.deg as f64) <= threshold {
                    out.push(MarkOut::Removed(u));
                } else {
                    out.push(MarkOut::Survivor(u));
                }
            }
        };
        let (mark_out, r1) = if config.combine {
            run_round_combined(config, &mark_inputs, mapper, MarkAgg::merge, reducer)
        } else {
            run_round(config, &mark_inputs, mapper, reducer)
        };
        let mut survivors: Vec<Vec<u32>> = Vec::with_capacity(mark_out.len());
        let mut removed: Vec<Vec<u32>> = Vec::with_capacity(mark_out.len());
        for part in &mark_out {
            let mut ns = Vec::new();
            let mut rs = Vec::new();
            for rec in part {
                match rec {
                    MarkOut::Survivor(u) => ns.push(*u),
                    MarkOut::Removed(u) => rs.push(*u),
                }
            }
            survivors.push(ns);
            removed.push(rs);
        }

        // ---- Round 2: purge edges pivoting on the removed side -----
        let (new_edges, r2) = purge_edges(config, &edge_splits, &removed, from_s);

        let mut rounds = r1;
        rounds.absorb(&r2);
        reports.push(MrPassReport {
            pass,
            nodes: s_count + t_count,
            edges: live_edges,
            density: rho,
            wall_time: rounds.wall_time,
            rounds,
        });

        if from_s {
            s_nodes = survivors;
        } else {
            t_nodes = survivors;
        }
        edge_splits = new_edges;
    }

    MrDirectedResult {
        best_s,
        best_t,
        best_density,
        passes: pass,
        reports,
    }
}

/// Splits a vector into `parts` nearly equal chunks (at least one chunk).
fn split_evenly<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let parts = parts.max(1);
    let chunk = items.len().div_ceil(parts).max(1);
    let mut out: Vec<Vec<T>> = Vec::with_capacity(parts);
    let mut current = Vec::with_capacity(chunk);
    for item in items {
        current.push(item);
        if current.len() == chunk {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    if out.is_empty() {
        out.push(Vec::new());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_core::directed::approx_densest_directed;
    use dsg_core::undirected::approx_densest;
    use dsg_graph::gen;
    use dsg_graph::stream::MemoryStream;

    fn cfg() -> MapReduceConfig {
        MapReduceConfig {
            num_workers: 4,
            num_reducers: 8,
            combine: true,
            shuffle: crate::engine::ShuffleBackend::InMemory,
        }
    }

    fn split_edges(edges: &[(u32, u32)], parts: usize) -> Vec<&[(u32, u32)]> {
        edges.chunks(edges.len().div_ceil(parts).max(1)).collect()
    }

    #[test]
    fn matches_streaming_on_planted_graph() {
        let pg = gen::planted_clique(200, 500, 12, 3);
        for eps in [0.0, 0.5, 1.5] {
            let mut stream = MemoryStream::new(pg.graph.clone());
            let expected = approx_densest(&mut stream, eps);
            let mr = mr_densest_undirected(
                &cfg(),
                pg.graph.num_nodes,
                &split_edges(&pg.graph.edges, 6),
                eps,
            );
            assert_eq!(mr.passes, expected.passes, "eps {eps}");
            assert!((mr.best_density - expected.best_density).abs() < 1e-9);
            assert_eq!(mr.best_set.to_vec(), expected.best_set.to_vec());
            // Per-pass node/edge counts agree with the streaming trace.
            for (r, t) in mr.reports.iter().zip(&expected.trace) {
                assert_eq!(r.nodes as usize, t.nodes);
                assert!((r.edges as f64 - t.edge_weight).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn edge_volume_shrinks_per_pass() {
        let pg = gen::planted_dense_subgraph(400, 2000, 25, 0.6, 9);
        let mr = mr_densest_undirected(&cfg(), 400, &split_edges(&pg.graph.edges, 8), 1.0);
        for w in mr.reports.windows(2) {
            assert!(w[1].edges <= w[0].edges);
            assert!(w[1].nodes < w[0].nodes);
        }
    }

    #[test]
    fn single_split_and_many_splits_agree() {
        let pg = gen::planted_clique(150, 300, 10, 7);
        let a = mr_densest_undirected(&cfg(), 150, &split_edges(&pg.graph.edges, 1), 0.5);
        let b = mr_densest_undirected(&cfg(), 150, &split_edges(&pg.graph.edges, 16), 0.5);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.best_set.to_vec(), b.best_set.to_vec());
    }

    #[test]
    fn directed_matches_streaming() {
        let g = gen::directed_gnp(120, 0.04, 5);
        for (c, eps) in [(1.0, 0.5), (4.0, 1.0), (0.25, 0.0)] {
            let mut stream = MemoryStream::new(g.clone());
            let expected = approx_densest_directed(&mut stream, c, eps);
            let mr = mr_densest_directed(&cfg(), 120, &split_edges(&g.edges, 5), c, eps);
            assert_eq!(mr.passes, expected.passes, "c {c} eps {eps}");
            assert!((mr.best_density - expected.best_density).abs() < 1e-9);
            assert_eq!(mr.best_s.to_vec(), expected.best_s.to_vec());
            assert_eq!(mr.best_t.to_vec(), expected.best_t.to_vec());
        }
    }

    #[test]
    fn combiner_preserves_results_and_cuts_shuffle() {
        let pg = gen::planted_dense_subgraph(300, 1200, 20, 0.6, 5);
        let mut with = cfg();
        with.combine = true;
        let mut without = cfg();
        without.combine = false;
        let a = mr_densest_undirected(&with, 300, &split_edges(&pg.graph.edges, 6), 0.5);
        let b = mr_densest_undirected(&without, 300, &split_edges(&pg.graph.edges, 6), 0.5);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.best_set.to_vec(), b.best_set.to_vec());
        assert!((a.best_density - b.best_density).abs() < 1e-12);
        let shuffled = |r: &MrUndirectedResult| -> u64 {
            r.reports.iter().map(|p| p.rounds.shuffle_records).sum()
        };
        assert!(
            shuffled(&a) < shuffled(&b),
            "combiner must reduce shuffle volume: {} vs {}",
            shuffled(&a),
            shuffled(&b)
        );
    }

    #[test]
    fn directed_combiner_matches_uncombined() {
        let g = gen::directed_gnp(100, 0.05, 9);
        let mut with = cfg();
        with.combine = true;
        let mut without = cfg();
        without.combine = false;
        let a = mr_densest_directed(&with, 100, &split_edges(&g.edges, 4), 1.0, 0.5);
        let b = mr_densest_directed(&without, 100, &split_edges(&g.edges, 4), 1.0, 0.5);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.best_s.to_vec(), b.best_s.to_vec());
        assert_eq!(a.best_t.to_vec(), b.best_t.to_vec());
    }

    #[test]
    fn spill_to_disk_driver_is_bit_identical() {
        // The acceptance bar of the external shuffle: the full multi-pass
        // driver under a budget small enough to force spilling every
        // round must reproduce the in-memory run bit for bit.
        let pg = gen::planted_dense_subgraph(300, 1200, 20, 0.6, 5);
        for combine in [false, true] {
            let mut in_mem = cfg();
            in_mem.combine = combine;
            let mut spilling = in_mem;
            spilling.shuffle = crate::engine::ShuffleBackend::External {
                spill_budget_bytes: 256,
            };
            let a = mr_densest_undirected(&in_mem, 300, &split_edges(&pg.graph.edges, 6), 0.5);
            let b = mr_densest_undirected(&spilling, 300, &split_edges(&pg.graph.edges, 6), 0.5);
            assert_eq!(a.passes, b.passes, "combine {combine}");
            assert_eq!(a.best_set.to_vec(), b.best_set.to_vec());
            assert_eq!(a.best_density.to_bits(), b.best_density.to_bits());
            let spilled: u64 = b.reports.iter().map(|r| r.rounds.spilled_bytes).sum();
            let runs: u64 = b.reports.iter().map(|r| r.rounds.spill_runs).sum();
            assert!(runs > 0, "256-byte budget must spill (combine {combine})");
            assert!(spilled > 0);
            // Per-pass live node/edge counts agree exactly as well.
            for (x, y) in a.reports.iter().zip(&b.reports) {
                assert_eq!(x.nodes, y.nodes);
                assert_eq!(x.edges, y.edges);
                assert_eq!(
                    x.rounds.reduce_output_records,
                    y.rounds.reduce_output_records
                );
            }
        }
    }

    #[test]
    fn spill_to_disk_directed_driver_matches() {
        let g = gen::directed_gnp(100, 0.05, 9);
        let mut spilling = cfg();
        spilling.shuffle = crate::engine::ShuffleBackend::External {
            spill_budget_bytes: 128,
        };
        let a = mr_densest_directed(&cfg(), 100, &split_edges(&g.edges, 4), 1.0, 0.5);
        let b = mr_densest_directed(&spilling, 100, &split_edges(&g.edges, 4), 1.0, 0.5);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.best_s.to_vec(), b.best_s.to_vec());
        assert_eq!(a.best_t.to_vec(), b.best_t.to_vec());
        assert_eq!(a.best_density.to_bits(), b.best_density.to_bits());
        assert!(b.reports.iter().map(|r| r.rounds.spill_runs).sum::<u64>() > 0);
    }

    #[test]
    fn empty_graph_terminates() {
        let mr = mr_densest_undirected(&cfg(), 10, &[&[]], 0.5);
        assert_eq!(mr.best_density, 0.0);
        assert_eq!(mr.passes, 1);
    }

    #[test]
    fn split_evenly_covers_all() {
        let s = split_evenly((0..10u32).collect(), 3);
        let total: usize = s.iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
        assert!(s.len() <= 3);
        let s = split_evenly(Vec::<u32>::new(), 4);
        assert_eq!(s.len(), 1);
        assert!(s[0].is_empty());
    }
}
