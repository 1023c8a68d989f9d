//! Per-pass peel traces — the seed state of incremental re-peeling.
//!
//! A [`PeelTrace`] records, for one finished peeling run, *when* every
//! node was removed (its round), *at what degree* it was removed, and a
//! handful of per-pass aggregate bounds. Together these let the
//! incremental simulator (`crate::incremental`) replay an edge delta
//! against the recorded run touching only the nodes the delta can reach:
//! the aggregates give `O(1)` per-pass proofs that every untouched
//! ("frozen") node keeps its recorded round, and the per-node data gives
//! the exact fallback scan when an aggregate proof fails.
//!
//! Capture is optional (the in-memory entry points take a capture flag)
//! and costs one extra scan of the live side per pass plus `O(n)` memory
//! per side.

use super::{order_key, KernelState, Selection};

/// Round at which a node was never removed.
pub const NEVER_REMOVED: u32 = u32::MAX;

/// Maximum number of non-candidate `(degree, id)` pairs recorded per pass
/// in [`PeelTrace::frontier`].
pub const FRONTIER_LEN: usize = 8;

/// Aggregate record of one pass, kept alongside the kernel's
/// [`super::PassRecord`] but extended with the bounds the incremental
/// simulator consumes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePass {
    /// Side the removals applied to.
    pub side: u8,
    /// `[|S|, |T|]` at the start of the pass (`[|S|, 0]` when one-sided).
    pub alive: [u32; 2],
    /// Live edge weight at the start of the pass.
    pub total_weight: f64,
    /// Density at the start of the pass.
    pub density: f64,
    /// Removal threshold of the pass.
    pub threshold: f64,
    /// Number of nodes removed.
    pub removed: u32,
    /// Maximum removal degree over this pass's removals. A simulated
    /// threshold at or above it proves every recorded removal still
    /// qualifies without touching individual nodes.
    pub max_removal_deg: f64,
    /// Minimum degree over live *non-candidate* nodes (degree strictly
    /// above the threshold) on the chosen side; `+inf` when every live
    /// node was a candidate. A simulated threshold strictly below it
    /// proves no recorded survivor newly crosses.
    pub min_noncand_deg: f64,
}

/// The full trace of one peeling run.
#[derive(Clone, Debug)]
pub struct PeelTrace {
    /// Node-id capacity of the traced run.
    pub n: u32,
    /// Per side, per node: the 1-based pass that removed it, or
    /// [`NEVER_REMOVED`].
    pub rounds: Vec<Vec<u32>>,
    /// Per side, per node: the degree the node had when it was removed
    /// (unspecified for never-removed nodes).
    pub removal_deg: Vec<Vec<f64>>,
    /// Aggregate pass records, in pass order.
    pub passes: Vec<TracePass>,
    /// Per pass: the smallest live non-candidate `(degree, id)` pairs on
    /// the pass's chosen side, ascending by `(degree, id)`, at most
    /// [`FRONTIER_LEN`] of them. When a simulated threshold reaches one
    /// of these, the simulator promotes the node into the affected set
    /// instead of falling back — its identity and degree are exact.
    pub frontier: Vec<Vec<(f64, u32)>>,
    /// Per pass: whether the matching [`Self::frontier`] list holds
    /// *every* live non-candidate of the pass. `false` means the list
    /// was cut and unlisted non-candidates sort strictly above its last
    /// entry.
    pub frontier_complete: Vec<bool>,
}

impl PeelTrace {
    /// Number of peeling sides (1 undirected, 2 directed).
    pub fn sides(&self) -> usize {
        self.rounds.len()
    }

    pub(crate) fn start(n: usize, sides: usize) -> Self {
        PeelTrace {
            n: n as u32,
            rounds: vec![vec![NEVER_REMOVED; n]; sides],
            removal_deg: vec![vec![0.0; n]; sides],
            passes: Vec::new(),
            frontier: Vec::new(),
            frontier_complete: Vec::new(),
        }
    }

    pub(crate) fn record_pass(&mut self, state: &KernelState, sel: &Selection, buf: &[u32]) {
        let sd = &state.sides[sel.side];
        let mut max_removal = f64::NEG_INFINITY;
        for &u in buf {
            let d = sd.deg[u as usize];
            self.rounds[sel.side][u as usize] = state.pass;
            self.removal_deg[sel.side][u as usize] = d;
            if d > max_removal {
                max_removal = d;
            }
        }
        // The smallest non-candidates (degree strictly above the
        // threshold), as kernel order keys. Scanned before removals, so
        // candidates filter out and survivors keep their start-of-pass
        // degree.
        let mut frontier: Vec<u128> = Vec::with_capacity(FRONTIER_LEN + 1);
        let mut noncand = 0usize;
        for u in sd.alive.iter() {
            let d = sd.deg[u as usize];
            if d > sel.threshold {
                noncand += 1;
                let key = order_key(d, u);
                if frontier.len() < FRONTIER_LEN
                    || key < *frontier.last().expect("frontier is non-empty")
                {
                    let pos = frontier.partition_point(|&q| q < key);
                    frontier.insert(pos, key);
                    frontier.truncate(FRONTIER_LEN);
                }
            }
        }
        let pair = |key: u128| (sd.deg[key as u32 as usize], key as u32);
        let min_noncand = frontier.first().map_or(f64::INFINITY, |&key| pair(key).0);
        self.frontier_complete.push(noncand <= FRONTIER_LEN);
        self.frontier.push(frontier.into_iter().map(pair).collect());
        let sizes = state.side_sizes();
        self.passes.push(TracePass {
            side: sel.side as u8,
            alive: [sizes[0] as u32, sizes[1] as u32],
            total_weight: state.total_weight,
            density: sel.density,
            threshold: sel.threshold,
            removed: buf.len() as u32,
            max_removal_deg: max_removal,
            min_noncand_deg: min_noncand,
        });
    }
}
