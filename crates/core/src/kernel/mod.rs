//! The unified peeling kernel.
//!
//! Every algorithm in this crate — Algorithm 1 (undirected threshold
//! peeling), Algorithm 2 (the `k`-floor variant), Algorithm 3 (the
//! directed one-side sweep), and Charikar's greedy baseline — is the same
//! loop: *per pass, look at the live degrees, pick a removal set, record
//! the pass, apply the removals, and remember the densest intermediate
//! state*. The paper's key observation is that this pass is a bulk,
//! order-independent operation, which is exactly what makes it map to
//! MapReduce rounds (§5.2, the `dsg-mapreduce` crate).
//!
//! The kernel factors that loop once, parameterized on two axes:
//!
//! * a [`DegreeStore`] owns the graph representation and keeps the live
//!   degree view current — by streaming recomputation over an
//!   [`dsg_graph::stream::EdgeStream`] (one pass per iteration, `O(n)`
//!   memory), by decremental maintenance over a CSR snapshot
//!   ([`CsrUndirectedStore`], [`CsrDirectedStore`]), or by a priority
//!   structure for one-node-at-a-time peeling ([`BucketQueueStore`],
//!   [`LazyHeapStore`]);
//! * a [`RemovalPolicy`] decides, per pass, which nodes leave — all nodes
//!   under the `(1+ε)`-threshold ([`ThresholdPolicy`]), the
//!   `ε/(1+ε)·|S|` smallest of them ([`KFloorPolicy`], Algorithm 2's
//!   clamp), the single minimum-degree node ([`MinNodePolicy`],
//!   Charikar), or a one-side sweep step chosen by the `|S|/|T|` ratio
//!   ([`DirectedSizesPolicy`], with [`DirectedNaivePolicy`] as the
//!   rejected §4.3 ablation).
//!
//! Any store composes with any policy of the same side-arity, so the
//! sketched oracle of `dsg-sketch` and every algorithm frontend share one
//! driver: [`peel`]. In memory, each algorithm has one entry point that
//! takes the CSR snapshot and a [`PeelTrace`] capture flag and runs on
//! the serial decremental CSR store.
//!
//! ## Determinism
//!
//! The kernel itself is deterministic; stores document their own
//! guarantees. The decremental CSR stores produce the same sequence of
//! sets as a streaming recomputation over the same graph: bit for bit on
//! unweighted graphs (every degree counter is integer-valued), up to
//! floating-point rounding on weighted ones.

mod csr_store;
mod greedy_store;
mod policies;
mod stream_store;
mod trace;

pub use csr_store::{CsrDirectedStore, CsrUndirectedStore};
pub use greedy_store::{BucketQueueStore, LazyHeapStore};
pub(crate) use policies::order_key;
pub use policies::{
    DirectedNaivePolicy, DirectedSizesPolicy, KFloorPolicy, MinNodePolicy, ThresholdPolicy,
};
pub use stream_store::{StreamingDirectedStore, StreamingUndirectedStore};
pub use trace::{PeelTrace, TracePass, FRONTIER_LEN, NEVER_REMOVED};

use dsg_graph::NodeSet;

/// One peeling side: the live node set and its current degree view.
///
/// Undirected runs have one side; directed runs have two (`S` with
/// out-degrees into `T`, and `T` with in-degrees from `S`).
pub struct SideState {
    /// Live nodes of this side.
    pub alive: NodeSet,
    /// Current degree view, indexed by node id. Entries of dead nodes are
    /// unspecified; policies must only read live nodes.
    pub deg: Vec<f64>,
}

/// The mutable state threaded through a peeling run.
pub struct KernelState {
    /// The peeling sides (one for undirected, two for directed).
    pub sides: Vec<SideState>,
    /// Live induced edge weight (edge/arc count when unweighted).
    pub total_weight: f64,
    /// 1-based index of the pass in flight (0 before the first pass).
    pub pass: u32,
}

impl KernelState {
    /// Builds a state of `sides` full sides over `n` nodes.
    pub fn full(n: usize, sides: usize) -> Self {
        KernelState {
            sides: (0..sides)
                .map(|_| SideState {
                    alive: NodeSet::full(n),
                    deg: vec![0.0; n],
                })
                .collect(),
            total_weight: 0.0,
            pass: 0,
        }
    }

    /// Sizes of the first two sides (`[len, 0]` for one-sided states) —
    /// the shape recorded in every [`PassRecord`].
    pub fn side_sizes(&self) -> [usize; 2] {
        [
            self.sides.first().map_or(0, |s| s.alive.len()),
            self.sides.get(1).map_or(0, |s| s.alive.len()),
        ]
    }
}

/// What a policy decided for one pass.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// Index of the side the removals apply to.
    pub side: usize,
    /// Density of the current state (the policy's density notion).
    pub density: f64,
    /// Removal threshold used this pass (policy-specific; `NaN`-free).
    pub threshold: f64,
}

/// A graph backend: owns the representation and keeps the live degree
/// view of a [`KernelState`] current across passes.
pub trait DegreeStore {
    /// Builds the initial state (full sides, degrees may be deferred to
    /// the first [`DegreeStore::begin_pass`]).
    fn init(&mut self) -> KernelState;

    /// Refreshes `state` for a new pass. Streaming backends recompute
    /// degrees and the live edge weight here; decremental backends no-op.
    fn begin_pass(&mut self, state: &mut KernelState);

    /// Removes `removed` from `state.sides[side]`, updating the degree
    /// view and `total_weight` however the backend maintains them.
    fn apply_removals(&mut self, state: &mut KernelState, side: usize, removed: &[u32]);

    /// Recomputes exact state after the degree view may have drifted
    /// (decremental weighted backends). Returns `true` if the view was
    /// refreshed — the driver then re-runs the policy's selection.
    fn rebuild(&mut self, _state: &mut KernelState) -> bool {
        false
    }

    /// Extracts a minimum-degree live node on `side` (ties broken however
    /// the backend orders equal keys). Priority-structure backends
    /// override this with an `O(log n)`-ish pop; the default scans the
    /// degree view, preferring the smallest id among minima.
    fn extract_min(&mut self, state: &KernelState, side: usize) -> Option<u32> {
        let s = &state.sides[side];
        let mut best: Option<(f64, u32)> = None;
        for u in s.alive.iter() {
            let d = s.deg[u as usize];
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, u));
            }
        }
        best.map(|(_, u)| u)
    }
}

/// A removal rule: decides when peeling stops and which nodes each pass
/// removes.
pub trait RemovalPolicy {
    /// `true` when the run must stop before another pass (e.g. no live
    /// nodes, or Algorithm 2's `|S| < k` floor).
    fn finished(&self, state: &KernelState) -> bool;

    /// Fills `buf` with this pass's removal set (in application order)
    /// and returns the pass metadata.
    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection;

    /// Last-resort progress rule, called only when [`RemovalPolicy::select`]
    /// chose nothing even after a store rebuild (reachable only with
    /// biased — e.g. Count-Min — degree estimates). Fills `buf`; the pass
    /// keeps the metadata of the original selection. The default keeps
    /// `buf` empty, which makes the driver panic: with exact degrees the
    /// average-degree argument guarantees progress.
    fn fallback<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        _state: &KernelState,
        _buf: &mut Vec<u32>,
    ) {
    }
}

/// Statistics of one pass, recorded *before* the pass's removals.
#[derive(Clone, Debug, PartialEq)]
pub struct PassRecord {
    /// 1-based pass index.
    pub pass: u32,
    /// Side the removals applied to.
    pub side: usize,
    /// `[|S|, |T|]` at the start of the pass (`[|S|, 0]` when one-sided).
    pub side_sizes: [usize; 2],
    /// Live edge weight at the start of the pass.
    pub total_weight: f64,
    /// Density at the start of the pass.
    pub density: f64,
    /// Removal threshold of the pass.
    pub threshold: f64,
    /// Number of nodes removed.
    pub removed: usize,
}

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Record a [`PassRecord`] per pass. Bulk algorithms always do;
    /// one-node-per-pass peeling (Charikar) turns it off to stay `O(n)`.
    pub record_trace: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig { record_trace: true }
    }
}

/// The outcome of a peeling run.
pub struct KernelRun {
    /// The densest intermediate sides (the state at the start of
    /// [`KernelRun::best_pass`]).
    pub best_sides: Vec<NodeSet>,
    /// Density of the best state.
    pub best_density: f64,
    /// 1-based pass at which the best state was observed (0 if no pass
    /// ran).
    pub best_pass: u32,
    /// Total number of passes.
    pub passes: u32,
    /// Per-pass trace (empty when not recorded).
    pub trace: Vec<PassRecord>,
    /// Every removal in application order, as `(side, node)` — the peel
    /// order of Charikar's algorithm, and the replay log from which
    /// `best_sides` is reconstructed.
    pub removal_log: Vec<(u8, u32)>,
}

/// The peeling driver: pairs a [`KernelConfig`] with the run loop.
///
/// `PeelingKernel::default().run(store, policy)` is equivalent to
/// [`peel(store, policy, &KernelConfig::default())`](peel).
#[derive(Clone, Copy, Debug, Default)]
pub struct PeelingKernel {
    /// Driver configuration.
    pub config: KernelConfig,
}

impl PeelingKernel {
    /// Driver with the default configuration (trace recording on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Driver that skips per-pass trace records (used by
    /// one-node-per-pass policies to stay `O(n)`).
    pub fn without_trace() -> Self {
        PeelingKernel {
            config: KernelConfig {
                record_trace: false,
            },
        }
    }

    /// Runs `policy` over `store` — see [`peel`].
    pub fn run<S, P>(&self, store: &mut S, policy: &mut P) -> KernelRun
    where
        S: DegreeStore + ?Sized,
        P: RemovalPolicy + ?Sized,
    {
        peel(store, policy, &self.config)
    }
}

/// Runs the peeling loop of `policy` over `store` until finished.
///
/// Per pass: refresh the degree view, select the removal set, track the
/// best intermediate state, record the pass, apply the removals. The
/// best state is reconstructed at the end from the removal log (no
/// per-pass set cloning), so a run costs `O(n)` extra memory regardless
/// of pass count.
pub fn peel<S, P>(store: &mut S, policy: &mut P, config: &KernelConfig) -> KernelRun
where
    S: DegreeStore + ?Sized,
    P: RemovalPolicy + ?Sized,
{
    peel_impl(store, policy, config, false).0
}

/// [`peel`] with the default configuration, capturing a [`PeelTrace`]
/// when `capture` is set: the per-node round, the per-node removal degree
/// and the per-pass aggregate bounds that the incremental re-peeling path
/// (`incremental` module) replays a delta against, at one extra
/// `O(alive)` scan per pass. The run itself is the same either way.
pub(crate) fn peel_with_capture<S, P>(
    store: &mut S,
    policy: &mut P,
    capture: bool,
) -> (KernelRun, Option<PeelTrace>)
where
    S: DegreeStore + ?Sized,
    P: RemovalPolicy + ?Sized,
{
    peel_impl(store, policy, &KernelConfig::default(), capture)
}

fn peel_impl<S, P>(
    store: &mut S,
    policy: &mut P,
    config: &KernelConfig,
    capture: bool,
) -> (KernelRun, Option<PeelTrace>)
where
    S: DegreeStore + ?Sized,
    P: RemovalPolicy + ?Sized,
{
    let mut state = store.init();
    let mut cap = capture.then(|| {
        PeelTrace::start(
            state.sides.first().map_or(0, |s| s.alive.capacity()),
            state.sides.len(),
        )
    });
    let mut best_density = 0.0f64;
    let mut best_pass = 0u32;
    let mut removed_before_best = 0usize;
    let mut removal_log: Vec<(u8, u32)> = Vec::new();
    let mut trace = Vec::new();
    let mut buf: Vec<u32> = Vec::new();

    while !policy.finished(&state) {
        state.pass += 1;
        store.begin_pass(&mut state);

        buf.clear();
        let mut sel = policy.select(store, &state, &mut buf);
        if buf.is_empty() && store.rebuild(&mut state) {
            // The decremental degree view drifted (weighted graphs); the
            // store restored the exact state a streaming pass would hold.
            buf.clear();
            sel = policy.select(store, &state, &mut buf);
        }
        if buf.is_empty() {
            policy.fallback(store, &state, &mut buf);
        }
        assert!(
            !buf.is_empty(),
            "peeling made no progress at pass {} (side {}, {} live)",
            state.pass,
            sel.side,
            state.sides[sel.side].alive.len()
        );

        if sel.density > best_density || state.pass == 1 {
            best_density = sel.density;
            best_pass = state.pass;
            removed_before_best = removal_log.len();
        }
        if config.record_trace {
            trace.push(PassRecord {
                pass: state.pass,
                side: sel.side,
                side_sizes: state.side_sizes(),
                total_weight: state.total_weight,
                density: sel.density,
                threshold: sel.threshold,
                removed: buf.len(),
            });
        }
        if let Some(c) = cap.as_mut() {
            c.record_pass(&state, &sel, &buf);
        }
        removal_log.extend(buf.iter().map(|&u| (sel.side as u8, u)));
        store.apply_removals(&mut state, sel.side, &buf);
    }

    // Reconstruct the best sides: full sets minus the removals applied
    // before the best pass.
    let mut best_sides: Vec<NodeSet> = state
        .sides
        .iter()
        .map(|s| NodeSet::full(s.alive.capacity()))
        .collect();
    for &(side, u) in &removal_log[..removed_before_best] {
        best_sides[side as usize].remove(u);
    }

    (
        KernelRun {
            best_sides,
            best_density,
            best_pass,
            passes: state.pass,
            trace,
            removal_log,
        },
        cap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;
    use dsg_graph::stream::MemoryStream;
    use dsg_graph::CsrUndirected;

    #[test]
    fn stores_compose_with_policies() {
        // One graph, two backends, one policy: identical runs.
        let list = gen::gnp(80, 0.1, 7);
        let csr = CsrUndirected::from_edge_list(&list);
        let mut stream = MemoryStream::new(list);
        let mut oracle = crate::oracle::ExactDegreeOracle::new(80);

        let mut policy = ThresholdPolicy::new(0.5);
        let cfg = KernelConfig::default();

        let mut s1 = StreamingUndirectedStore::new(&mut stream, &mut oracle);
        let a = peel(&mut s1, &mut policy, &cfg);
        let mut s2 = CsrUndirectedStore::new(&csr);
        let b = peel(&mut s2, &mut policy, &cfg);

        assert_eq!(a.passes, b.passes);
        assert_eq!(a.best_pass, b.best_pass);
        assert_eq!(a.removal_log, b.removal_log);
        assert_eq!(a.best_sides[0].to_vec(), b.best_sides[0].to_vec());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn best_side_reconstruction_matches_density() {
        let list = gen::planted_clique(200, 500, 12, 3);
        let csr = CsrUndirected::from_edge_list(&list.graph);
        let mut store = CsrUndirectedStore::new(&csr);
        let mut policy = ThresholdPolicy::new(0.3);
        let run = peel(&mut store, &mut policy, &KernelConfig::default());
        let recomputed = csr.density_of(&run.best_sides[0]);
        assert!((recomputed - run.best_density).abs() < 1e-9);
        // The removal log is a permutation of all nodes.
        let mut nodes: Vec<u32> = run.removal_log.iter().map(|&(_, u)| u).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..200).collect::<Vec<_>>());
    }
}
