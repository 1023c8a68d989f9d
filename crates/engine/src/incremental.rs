//! The engine's incremental maintenance tier — journal-replay glue
//! between the core trace simulator ([`dsg_core::incremental`]) and the
//! catalog's named-graph snapshots.
//!
//! A warm seed stores, next to its report, an [`IncSeed`]: the snapshot
//! the last full run was computed on (the *base*), the journal position
//! of the graph its traces describe, those traces as [`TraceView`]s, and
//! the [`EdgeWindow`] of edges the journal touched since the base. When
//! the same query arrives at a newer version, the engine recovers the
//! ops since the traces' position from the mutation journal, seeds the
//! simulator's affected set with their endpoints, and asks for the
//! bit-identical result of a cold run on the new snapshot — touching
//! only the affected region. The base never rebases: successive hits
//! keep stitching longer op windows against the one base CSR until the
//! window grows past a staleness bound and a full re-peel stores a
//! fresh base.
//!
//! ## What a hit costs
//!
//! Nothing on the hit path is sized by the graph except the reported
//! best set, one bitset per side:
//!
//! * the edge window is carried forward in the seed, so building a hit's
//!   adjacency applies only the ops since the traces' position, and base
//!   membership of a newly touched edge is a search of one base CSR row;
//! * each affected node's old and new rows are collected once per hit
//!   and shared by every simulation of it (all 29 ratios of a δ = 2
//!   directed sweep on the benchmark's 16k-node graph, all restarts);
//! * each trace is a shared base plus a patch, and a hit extends the
//!   patch instead of copying the trace;
//! * only the reported run (a directed sweep's winning ratio) builds its
//!   best sides, and the re-score walks only their rows.
//!
//! Every success is **verified before it is published**: the reported
//! best set is re-scored against the *materialized* edge list of the
//! current snapshot (an end-to-end check that does not trust the
//! journal replay), exactly like the verified-replay tier re-scores its
//! candidate. A mismatch is a fallback, never a wrong answer.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use dsg_core::directed::{c_grid, DirectedRun, SweepResult};
use dsg_core::incremental::{
    simulate, AffectedAdjacency, IncPolicy, RowCache, SimFallback, SimLimits, SimSuccess, TraceView,
};
use dsg_core::kernel::PeelTrace;
use dsg_core::result::{DirectedPassStats, PassStats, UndirectedRun};
use dsg_graph::{density, CsrDirected, CsrUndirected, GraphKind, NodeSet};
use rustc_hash::FxHashMap;

use crate::catalog::CatalogEntry;
use crate::query::{Algorithm, Query};
use crate::report::Outcome;

/// Per-seed state of the incremental tier, stored inside a warm seed.
pub(crate) struct IncSeed {
    /// Snapshot the journal replay bases on: adjacency queries answer
    /// from its CSR plus the edge window.
    pub base: Arc<CatalogEntry>,
    /// Journal position of the graph the traces describe. Starts at
    /// `base.journal_pos` and advances on every incremental hit.
    pub cur_pos: u64,
    /// The traces of the last (full or simulated) run.
    pub traces: TraceSet,
    /// Every edge the journal touched in `base.journal_pos..cur_pos`,
    /// with its presence at `cur_pos`.
    pub window: Arc<EdgeWindow>,
}

impl IncSeed {
    /// The seed a full run on `entry` leaves: the snapshot is the base.
    pub fn fresh(entry: Arc<CatalogEntry>, traces: TraceSet) -> Self {
        IncSeed {
            cur_pos: entry.journal_pos,
            base: entry,
            traces,
            window: Arc::default(),
        }
    }
}

/// One trace per peeling run: undirected policies run once, directed
/// sweeps run once per grid ratio `c`.
pub(crate) enum TraceSet {
    Undirected(TraceView),
    Directed(Vec<(f64, TraceView)>),
}

impl TraceSet {
    /// The traces of a full undirected run.
    pub fn undirected(trace: PeelTrace) -> Self {
        TraceSet::Undirected(TraceView::new(trace))
    }

    /// The traces of a full directed sweep.
    pub fn directed(traces: Vec<(f64, PeelTrace)>) -> Self {
        TraceSet::Directed(
            traces
                .into_iter()
                .map(|(c, t)| (c, TraceView::new(t)))
                .collect(),
        )
    }
}

/// Debug record of the engine's most recent incremental attempt —
/// surfaced by [`crate::Engine::last_incremental`] so the `repro
/// mutate` experiment can report affected-set sizes and fallback
/// reasons without new wire plumbing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalDebug {
    /// Final affected-set size: `|F|` of the hit, or the probe work
    /// spent before a fallback (0 on a pre-simulation fallback).
    pub affected: usize,
    /// Passes of the simulated run (0 on a fallback).
    pub passes: u32,
    /// The simulator's `max_affected` cap for this attempt (0 when the
    /// attempt never reached the simulator). The early-exit bound
    /// guarantees a threshold fallback reports
    /// `affected <= budget + 1`.
    pub budget: usize,
    /// `None` on a hit, the static fallback reason otherwise.
    pub reason: Option<&'static str>,
}

/// A verified incremental result, ready for report assembly.
pub(crate) struct IncOutcome {
    pub outcome: Outcome,
    /// Refreshed traces describing the new snapshot (the next seed).
    pub traces: TraceSet,
    /// The edge window at the new snapshot (the next seed's).
    pub window: EdgeWindow,
    pub affected: usize,
    pub passes: u32,
}

/// The closeness test of every re-score check.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// Attempts the incremental tier: simulate, verify, assemble. `ops` is
/// the journal window `inc.cur_pos..entry.journal_pos` — the ops since
/// the traces' position.
pub(crate) fn attempt(
    inc: &IncSeed,
    ops: &[(bool, u32, u32)],
    entry: &CatalogEntry,
    query: &Query,
    threshold: f64,
) -> Result<IncOutcome, SimFallback> {
    let n_new = entry.list.num_nodes as usize;
    if ops.is_empty() {
        // Content changed without journaled ops: only reachable through
        // bookkeeping drift, so refuse rather than replay nothing.
        return Err("content changed but the journal window is empty".into());
    }
    let limits = SimLimits {
        max_affected: sim_budget(threshold, n_new),
        max_restarts: 64,
    };
    let adj = JournalAdjacency::build(&inc.base, entry.list.kind, &inc.window, ops);
    // Affected-set seed: every delta endpoint plus every node id born
    // since the traced run (they have no recorded round to freeze).
    let seed_for = |t_n: u32| -> Vec<u32> {
        let mut s: Vec<u32> = ops
            .iter()
            .flat_map(|&(_, u, v)| [u, v])
            .filter(|&u| (u as usize) < n_new)
            .collect();
        s.extend(t_n..n_new as u32);
        s.sort_unstable();
        s.dedup();
        s
    };

    let (outcome, traces, affected, passes) = {
        let mut rows = RowCache::new(&adj);
        match (query.algorithm, &inc.traces) {
            (
                Algorithm::Approx {
                    epsilon,
                    sketch: None,
                },
                TraceSet::Undirected(trace),
            ) => {
                let policy = IncPolicy::Threshold { epsilon };
                let sim = simulate(
                    policy,
                    trace,
                    n_new,
                    &seed_for(trace.n()),
                    &mut rows,
                    limits,
                )?;
                finish_undirected(sim, entry)?
            }
            (Algorithm::Directed { delta, epsilon }, TraceSet::Directed(traces)) => {
                attempt_directed(
                    traces, delta, epsilon, n_new, &seed_for, &mut rows, limits, entry,
                )?
            }
            _ => return Err("stored trace does not match the query".into()),
        }
    };
    Ok(IncOutcome {
        outcome,
        traces,
        window: adj.new,
        affected,
        passes,
    })
}

/// A verified hit's parts: outcome, next traces, `|F|`, passes.
type Finished = (Outcome, TraceSet, usize, u32);

/// The simulator's affected-set cap for a graph of `n_new` nodes at the
/// engine's incremental threshold — shared with the debug record so the
/// bench suite can assert the probe-overhead bound against it.
pub(crate) fn sim_budget(threshold: f64, n_new: usize) -> usize {
    ((threshold * n_new as f64) as usize).max(8)
}

/// Directed sweeps simulate one run per grid ratio. The δ-grid is a
/// function of the node count, so the node count must be unchanged —
/// otherwise the new cold run would sweep different ratios than the
/// seed has traces for.
#[allow(clippy::too_many_arguments)]
fn attempt_directed(
    traces: &[(f64, TraceView)],
    delta: f64,
    epsilon: f64,
    n_new: usize,
    seed_for: &dyn Fn(u32) -> Vec<u32>,
    rows: &mut RowCache<'_>,
    limits: SimLimits,
    entry: &CatalogEntry,
) -> Result<Finished, SimFallback> {
    if traces.iter().any(|(_, t)| t.n() as usize != n_new) {
        return Err("node count changed (the directed grid depends on it)".into());
    }
    // The seed's ratios must be, bit for bit, the grid the cold run
    // would sweep.
    let seed_grid = traces.iter().map(|(c, _)| c.to_bits());
    if !seed_grid.eq(c_grid(n_new, delta).map(f64::to_bits)) {
        return Err("sweep grid changed since the seed".into());
    }
    let seed = seed_for(n_new as u32);
    let mut sims: Vec<SimSuccess> = Vec::with_capacity(traces.len());
    let mut per_c = Vec::with_capacity(traces.len());
    let mut affected = 0usize;
    for (c, trace) in traces {
        let policy = IncPolicy::DirectedSizes { c: *c, epsilon };
        let sim = simulate(policy, trace, n_new, &seed, rows, limits)?;
        affected = affected.max(sim.affected);
        per_c.push((*c, sim.best_density, sim.passes));
        sims.push(sim);
    }
    // Replicate the sweep's strict-`>` best selection in grid order.
    let mut best_idx = 0usize;
    for (i, sim) in sims.iter().enumerate().skip(1) {
        if sim.best_density > sims[best_idx].best_density {
            best_idx = i;
        }
    }
    let best = &sims[best_idx];
    let mut sides = best.best_sides().into_iter();
    let (best_s, best_t) = (sides.next().expect("side S"), sides.next().expect("side T"));
    verify_directed(&best_s, &best_t, best.best_density, entry)?;
    let stats = best
        .trace
        .passes()
        .iter()
        .enumerate()
        .map(|(j, p)| DirectedPassStats {
            pass: (j + 1) as u32,
            s_size: p.alive[0] as usize,
            t_size: p.alive[1] as usize,
            edges: p.total_weight as usize,
            density: p.density,
            removed_from_s: p.side == 0,
            removed: p.removed as usize,
        })
        .collect();
    let best_passes = best.passes;
    let best = DirectedRun {
        best_s,
        best_t,
        best_density: best.best_density,
        passes: best.passes,
        c: traces[best_idx].0,
        trace: stats,
    };
    let new_traces = traces
        .iter()
        .zip(sims)
        .map(|((c, _), sim)| (*c, sim.trace))
        .collect();
    Ok((
        Outcome::Sweep(SweepResult { best, per_c }),
        TraceSet::Directed(new_traces),
        affected,
        best_passes,
    ))
}

/// Re-scores an undirected best set against the materialized snapshot:
/// a simulated one here, a warm seed's before a verified replay.
pub(crate) fn verify_undirected(
    set: &NodeSet,
    claimed: f64,
    entry: &CatalogEntry,
) -> Result<(), &'static str> {
    let w = edges_from(&entry.list.edges, set, set);
    if close(density::undirected(w as f64, set.len()), claimed) {
        Ok(())
    } else {
        Err("re-score against the snapshot mismatched")
    }
}

/// Re-scores a best `(S, T)` against the materialized snapshot: a
/// simulated one here, a warm seed's before a verified replay.
pub(crate) fn verify_directed(
    s: &NodeSet,
    t: &NodeSet,
    claimed: f64,
    entry: &CatalogEntry,
) -> Result<(), &'static str> {
    let e = edges_from(&entry.list.edges, s, t);
    if close(density::directed(e as f64, s.len(), t.len()), claimed) {
        Ok(())
    } else {
        Err("re-score against the snapshot mismatched")
    }
}

/// Edges `(u, v)` of a sorted canonical edge list with `u ∈ from` and
/// `v ∈ to` — for an undirected list with `from == to`, the edges inside
/// the set. Walks only the rows of `from`, galloping from one row to the
/// next, so it never costs more than one full scan.
fn edges_from(edges: &[(u32, u32)], from: &NodeSet, to: &NodeSet) -> u64 {
    let mut count = 0u64;
    let mut at = 0usize;
    for u in from.iter() {
        at += gallop(&edges[at..], |e| e.0 < u);
        while let Some(&(a, b)) = edges.get(at) {
            if a != u {
                break;
            }
            count += u64::from(to.contains(b));
            at += 1;
        }
        if at == edges.len() {
            break;
        }
    }
    count
}

/// `xs.partition_point(below)`, probing `xs[1], xs[2], xs[4], …` before
/// the binary search: `O(log p)` for a partition point `p`.
fn gallop<T>(xs: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut step = 1;
    while step < xs.len() && below(&xs[step]) {
        step *= 2;
    }
    let lo = step / 2;
    lo + xs[lo..(step + 1).min(xs.len())].partition_point(below)
}

/// Re-scores a successful undirected simulation and builds the public
/// run shape (mirrors `UndirectedRun::from_kernel` field-for-field).
fn finish_undirected(sim: SimSuccess, entry: &CatalogEntry) -> Result<Finished, SimFallback> {
    let best_set = sim.best_sides().swap_remove(0);
    verify_undirected(&best_set, sim.best_density, entry)?;
    let SimSuccess {
        trace,
        best_density,
        best_pass,
        passes,
        affected,
        ..
    } = sim;
    let pass_stats = trace
        .passes()
        .iter()
        .enumerate()
        .map(|(i, p)| PassStats {
            pass: (i + 1) as u32,
            nodes: p.alive[0] as usize,
            edge_weight: p.total_weight,
            density: p.density,
            threshold: p.threshold,
            removed: p.removed as usize,
        })
        .collect();
    let run = UndirectedRun {
        best_set,
        best_density,
        best_pass,
        passes,
        trace: pass_stats,
    };
    Ok((
        Outcome::Run(run),
        TraceSet::Undirected(trace),
        affected,
        passes,
    ))
}

/// Every edge the journal touched since a base snapshot, with its
/// presence at one journal position. A seed carries its window forward,
/// so the next hit applies only the ops since that position.
#[derive(Clone, Default)]
pub(crate) struct EdgeWindow {
    /// Touched canonical edge → present at the window's position.
    present: FxHashMap<(u32, u32), bool>,
    /// Touched edges absent from the base, as sorted `(node, neighbor)`
    /// pairs: `[0]` undirected (both directions) or out-adjacency, `[1]`
    /// directed in-adjacency.
    born: [Vec<(u32, u32)>; 2],
}

impl EdgeWindow {
    /// This window advanced over `ops`.
    fn advance(&self, base: &BaseRows, kind: GraphKind, ops: &[(bool, u32, u32)]) -> EdgeWindow {
        let mut present = self.present.clone();
        let mut born: [Vec<(u32, u32)>; 2] = Default::default();
        for &(add, u, v) in ops {
            if u == v {
                continue; // self-loops are never stored
            }
            let key = canon(kind, u, v);
            match present.entry(key) {
                Entry::Occupied(mut st) => *st.get_mut() = add,
                Entry::Vacant(slot) => {
                    slot.insert(add);
                    if !base.has(key) {
                        let (a, b) = key;
                        born[0].push((a, b));
                        born[usize::from(kind == GraphKind::Directed)].push((b, a));
                    }
                }
            }
        }
        let [out, inn] = born;
        EdgeWindow {
            present,
            born: [merge(&self.born[0], out), merge(&self.born[1], inn)],
        }
    }
}

/// `old` (sorted) with `fresh` merged in, sorted: O(|old| + |fresh| log |fresh|).
fn merge(old: &[(u32, u32)], mut fresh: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    fresh.sort_unstable();
    let mut out = Vec::with_capacity(old.len() + fresh.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < fresh.len() {
        if old[i] <= fresh[j] {
            out.push(old[i]);
            i += 1;
        } else {
            out.push(fresh[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&old[i..]);
    out.extend_from_slice(&fresh[j..]);
    out
}

/// The base snapshot's CSR rows.
enum BaseRows {
    Undirected(Arc<CsrUndirected>),
    Directed(Arc<CsrDirected>),
}

impl BaseRows {
    fn row(&self, u: u32, dir: usize) -> &[u32] {
        match self {
            BaseRows::Undirected(g) if (u as usize) < g.num_nodes() => g.neighbors(u),
            BaseRows::Directed(g) if (u as usize) < g.num_nodes() => {
                if dir == 0 {
                    g.out_neighbors(u)
                } else {
                    g.in_neighbors(u)
                }
            }
            _ => &[], // a node born after the base snapshot
        }
    }

    /// Whether the base holds canonical edge `(a, b)`. CSR rows built
    /// from a sorted canonical list are sorted, so this is one binary
    /// search of `a`'s row.
    fn has(&self, (a, b): (u32, u32)) -> bool {
        self.row(a, 0).binary_search(&b).is_ok()
    }
}

/// [`AffectedAdjacency`] over the base snapshot's CSR plus the edge
/// windows at the traces' position (`old`) and at the new snapshot
/// (`new`): a touched edge's presence comes from the window, every
/// other edge from the base. Building it costs the ops since the
/// traces' position plus one copy of the carried window.
struct JournalAdjacency<'a> {
    kind: GraphKind,
    base: BaseRows,
    old: &'a EdgeWindow,
    new: EdgeWindow,
}

impl<'a> JournalAdjacency<'a> {
    fn build(
        base: &CatalogEntry,
        kind: GraphKind,
        old: &'a EdgeWindow,
        ops: &[(bool, u32, u32)],
    ) -> Self {
        let base = match kind {
            GraphKind::Undirected => BaseRows::Undirected(base.csr_undirected()),
            GraphKind::Directed => BaseRows::Directed(base.csr_directed()),
        };
        let new = old.advance(&base, kind, ops);
        JournalAdjacency {
            kind,
            base,
            old,
            new,
        }
    }

    fn collect(&self, u: u32, dir: usize, window: &EdgeWindow, out: &mut Vec<u32>) {
        let key_of = |v: u32| match self.kind {
            GraphKind::Undirected => canon(self.kind, u, v),
            GraphKind::Directed if dir == 0 => (u, v),
            GraphKind::Directed => (v, u),
        };
        for &v in self.base.row(u, dir) {
            if window.present.get(&key_of(v)).copied().unwrap_or(true) {
                out.push(v);
            }
        }
        let born = &window.born[dir];
        let from = born.partition_point(|&(a, _)| a < u);
        for &(_, v) in born[from..].iter().take_while(|&&(a, _)| a == u) {
            if window.present[&key_of(v)] {
                out.push(v);
            }
        }
    }
}

impl AffectedAdjacency for JournalAdjacency<'_> {
    fn old_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>) {
        self.collect(u, dir, self.old, out);
    }

    fn new_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>) {
        self.collect(u, dir, &self.new, out);
    }
}

/// Canonical edge key: `(min, max)` undirected, as-is directed —
/// exactly [`dsg_graph::DeltaGraph`]'s rule.
fn canon(kind: GraphKind, u: u32, v: u32) -> (u32, u32) {
    match kind {
        GraphKind::Undirected if u > v => (v, u),
        _ => (u, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::EdgeList;

    fn entry(kind: GraphKind, n: u32, edges: &[(u32, u32)]) -> CatalogEntry {
        let mut list = match kind {
            GraphKind::Undirected => EdgeList::new_undirected(n),
            GraphKind::Directed => EdgeList::new_directed(n),
        };
        for &(u, v) in edges {
            list.push(u, v);
        }
        list.canonicalize();
        CatalogEntry::from_list(list, 0, 0)
    }

    #[test]
    fn carried_window_matches_the_materialized_graphs() {
        let base_edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let ops1 = [(true, 4, 5), (false, 0, 1), (true, 1, 3), (true, 2, 2)];
        let ops2 = [(true, 0, 1), (false, 4, 5), (true, 5, 2), (false, 2, 3)];
        let g1 = [(1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (1, 3)];
        let g2 = [(1, 2), (3, 0), (0, 2), (1, 3), (0, 1), (5, 2)];
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let base = entry(kind, 6, &base_edges);
            let (e1, e2) = (entry(kind, 6, &g1), entry(kind, 6, &g2));
            // The window a first hit leaves, carried into a second one.
            let rows = match kind {
                GraphKind::Undirected => BaseRows::Undirected(base.csr_undirected()),
                GraphKind::Directed => BaseRows::Directed(base.csr_directed()),
            };
            let carried = EdgeWindow::default().advance(&rows, kind, &ops1);
            let adj = JournalAdjacency::build(&base, kind, &carried, &ops2);
            let dirs = if kind == GraphKind::Directed { 2 } else { 1 };
            for u in 0..6 {
                for dir in 0..dirs {
                    let want = |e: &CatalogEntry| -> Vec<u32> {
                        match kind {
                            GraphKind::Undirected => e.csr_undirected().neighbors(u).to_vec(),
                            GraphKind::Directed if dir == 0 => {
                                e.csr_directed().out_neighbors(u).to_vec()
                            }
                            GraphKind::Directed => e.csr_directed().in_neighbors(u).to_vec(),
                        }
                    };
                    let (mut old, mut new) = (Vec::new(), Vec::new());
                    adj.old_neighbors(u, dir, &mut old);
                    adj.new_neighbors(u, dir, &mut new);
                    old.sort_unstable();
                    new.sort_unstable();
                    assert_eq!(old, want(&e1), "{kind:?} old row of {u}, dir {dir}");
                    assert_eq!(new, want(&e2), "{kind:?} new row of {u}, dir {dir}");
                }
            }
        }
    }

    #[test]
    fn gallop_finds_the_partition_point() {
        let xs: Vec<u32> = (0..100).map(|i| i / 3).collect();
        for start in [0usize, 7, 50, 99, 100] {
            for key in 0..40 {
                assert_eq!(
                    start + gallop(&xs[start..], |&x| x < key),
                    start + xs[start..].partition_point(|&x| x < key)
                );
            }
        }
    }

    #[test]
    fn rescore_rejects_a_wrong_density_or_a_swapped_node_undirected() {
        // A 4-clique on {0,1,2,3} plus a path 3-4-5.
        let e = entry(
            GraphKind::Undirected,
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        );
        let set = NodeSet::from_iter(6, [0, 1, 2, 3]);
        assert_eq!(verify_undirected(&set, 1.5, &e), Ok(()));
        assert!(verify_undirected(&set, 1.25, &e).is_err());
        let swapped = NodeSet::from_iter(6, [0, 1, 2, 4]);
        assert!(verify_undirected(&swapped, 1.5, &e).is_err());
    }

    #[test]
    fn rescore_rejects_a_wrong_density_or_a_swapped_node_directed() {
        // S = {0, 1} points at every node of T = {2, 3, 4}; 5 -> 2 is the
        // only other arc.
        let e = entry(
            GraphKind::Directed,
            6,
            &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (5, 2)],
        );
        let s = NodeSet::from_iter(6, [0, 1]);
        let t = NodeSet::from_iter(6, [2, 3, 4]);
        let rho = 6.0 / 6f64.sqrt();
        assert_eq!(verify_directed(&s, &t, rho, &e), Ok(()));
        assert!(verify_directed(&s, &t, rho + 0.1, &e).is_err());
        let s_swapped = NodeSet::from_iter(6, [0, 5]);
        assert!(verify_directed(&s_swapped, &t, rho, &e).is_err());
        let t_swapped = NodeSet::from_iter(6, [2, 3, 5]);
        assert!(verify_directed(&s, &t_swapped, rho, &e).is_err());
    }
}
