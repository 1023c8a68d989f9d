//! [`DeltaGraph`] — a mutable overlay over an immutable canonical base.
//!
//! The paper's algorithms are built for graphs that evolve (streaming
//! passes, MapReduce rounds), but every in-memory snapshot in this
//! repository — [`EdgeList`] after canonicalization, the CSR views built
//! from it — is immutable by design: queries compute over frozen,
//! shareable state. `DeltaGraph` bridges the two worlds the way
//! disk-aware incremental structures do (EMBANKS-style, see PAPERS.md):
//! a canonical **base** edge list plus an **append log** and a
//! **tombstone set**, folded into a fresh base (*compaction*) once the
//! logs outgrow a configurable fraction of the base.
//!
//! * Mutations are cheap: an add/remove touches hash sets and never
//!   re-sorts the base.
//! * [`DeltaGraph::materialize`] produces the canonical [`EdgeList`] of
//!   the current state via a sorted merge (the base is already sorted;
//!   only the log — typically tiny — is sorted per call), so a
//!   materialized snapshot is **bit-identical** to canonicalizing the
//!   edge multiset from scratch: downstream algorithms cannot tell a
//!   mutated graph from a freshly loaded one.
//! * Set semantics: the graph is simple. Adding a present edge, adding a
//!   self-loop, or removing an absent edge is a no-op (reported via the
//!   applied-count return), and an add after a remove (or vice versa)
//!   cancels instead of stacking.
//! * [`DeltaGraph::content_hash`] is O(1): the graph keeps a wrapping sum
//!   of one term per present edge, updated by each applied add or
//!   remove. Adds and removes commute, so every history that reaches the
//!   same edge set, node count and orientation reaches the same hash.
//!
//! Sessions are unweighted: [`DeltaGraph::new`] rejects a weighted base.

use std::collections::HashSet;

use crate::{EdgeList, GraphError, GraphKind, NodeId, Result, SplitMix64};

/// The log-to-base ratio past which a session's logs are folded into a
/// fresh base ([`DeltaGraph::maybe_compact`]) after each create, add and
/// remove — live and in WAL replay alike.
pub const DEFAULT_COMPACT_RATIO: f64 = 1.0;

/// A mutable graph: canonical base + add/remove logs with tombstones.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    /// Canonical (sorted, deduped, loop-free) base edges.
    base: EdgeList,
    /// Edges added since the base was last compacted (canonical form,
    /// none of them present in `base`).
    added: HashSet<(NodeId, NodeId)>,
    /// Tombstones: base edges removed since the last compaction.
    removed: HashSet<(NodeId, NodeId)>,
    /// Current node count (grows when an added edge names a new id;
    /// never shrinks — ids are stable for the life of the graph).
    num_nodes: u32,
    /// How many times the logs were folded into a fresh base.
    compactions: u64,
    /// Wrapping sum of [`edge_term`] over the present edges. Compaction
    /// leaves the edge set, and so this sum, unchanged.
    edge_sum: u64,
}

/// One present edge's term in [`DeltaGraph::content_hash`]. SplitMix64's
/// output is a bijection of its seed, so distinct edges get distinct
/// terms.
fn edge_term((u, v): (NodeId, NodeId)) -> u64 {
    SplitMix64::new((u as u64) << 32 | v as u64).next_u64()
}

impl DeltaGraph {
    /// Wraps `base` (canonicalized here) as the initial state. Weighted
    /// lists are rejected: sessions carry no weights.
    pub fn new(mut base: EdgeList) -> Result<Self> {
        if base.is_weighted() {
            return Err(GraphError::Format(
                "mutable graphs support unweighted edges only".into(),
            ));
        }
        base.validate()?;
        base.canonicalize();
        let num_nodes = base.num_nodes;
        let edge_sum = base
            .edges
            .iter()
            .fold(0u64, |sum, &e| sum.wrapping_add(edge_term(e)));
        Ok(DeltaGraph {
            base,
            added: HashSet::new(),
            removed: HashSet::new(),
            num_nodes,
            compactions: 0,
            edge_sum,
        })
    }

    /// An empty mutable graph of the given orientation.
    pub fn new_empty(kind: GraphKind) -> Self {
        let base = match kind {
            GraphKind::Undirected => EdgeList::new_undirected(0),
            GraphKind::Directed => EdgeList::new_directed(0),
        };
        DeltaGraph::new(base).expect("empty unweighted base is always valid")
    }

    /// Orientation of the graph (fixed at creation).
    pub fn kind(&self) -> GraphKind {
        self.base.kind
    }

    /// Current node count (`max id + 1` over every edge ever added).
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Current edge count: base minus tombstones plus the append log.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() - self.removed.len() + self.added.len()
    }

    /// Outstanding log size — edges whose state diverges from the base
    /// since the last compaction.
    pub fn delta_edges(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// `delta_edges / max(1, base edges)` — the compaction trigger and
    /// the engine's warm-restart fallback signal.
    pub fn delta_ratio(&self) -> f64 {
        self.delta_edges() as f64 / self.base.num_edges().max(1) as f64
    }

    /// How many times the logs were folded into a fresh base.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Hash of the logical content — orientation, node count and edge
    /// set — in O(1). Equal content gives an equal hash whatever history
    /// reached it, and equal edge sets with a different node count or
    /// orientation always hash differently. Different edge sets collide
    /// with probability about 2^-64, so a caller that must be certain
    /// re-checks the content itself.
    pub fn content_hash(&self) -> u64 {
        let header = (self.num_nodes as u64) << 1 | u64::from(self.kind() == GraphKind::Directed);
        SplitMix64::new(self.edge_sum ^ SplitMix64::new(header).next_u64()).next_u64()
    }

    /// Canonical form of one edge: `(min, max)` for undirected graphs,
    /// as-is for directed ones. `None` for self-loops (never stored).
    fn canonical(&self, u: NodeId, v: NodeId) -> Option<(NodeId, NodeId)> {
        if u == v {
            return None;
        }
        Some(match self.base.kind {
            GraphKind::Undirected if u > v => (v, u),
            _ => (u, v),
        })
    }

    /// Whether the base holds `edge` (binary search — the base is
    /// canonical, hence sorted).
    fn base_contains(&self, edge: (NodeId, NodeId)) -> bool {
        self.base.edges.binary_search(&edge).is_ok()
    }

    /// Whether the current state holds the edge `(u, v)`.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.canonical(u, v).is_some_and(|e| {
            self.added.contains(&e) || (self.base_contains(e) && !self.removed.contains(&e))
        })
    }

    /// Adds a batch of edges; returns how many actually changed the
    /// graph (self-loops, duplicates, and already-present edges are
    /// no-ops). Node ids beyond the current count grow the graph.
    pub fn add_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<usize> {
        // Growing past u32::MAX nodes would wrap `max id + 1`.
        for &(u, v) in edges {
            if u == u32::MAX || v == u32::MAX {
                return Err(GraphError::TooLarge {
                    what: "node id",
                    value: u32::MAX as u64,
                    max: u32::MAX as u64 - 1,
                });
            }
        }
        let mut applied = 0;
        for &(u, v) in edges {
            let Some(e) = self.canonical(u, v) else {
                continue;
            };
            let changed = if self.removed.contains(&e) {
                // Cancel the tombstone: the base copy is live again.
                self.removed.remove(&e)
            } else if self.base_contains(e) || self.added.contains(&e) {
                false
            } else {
                self.added.insert(e)
            };
            if changed {
                applied += 1;
                self.num_nodes = self.num_nodes.max(u + 1).max(v + 1);
                self.edge_sum = self.edge_sum.wrapping_add(edge_term(e));
            }
        }
        Ok(applied)
    }

    /// Removes a batch of edges; returns how many were actually present.
    /// Removing an absent edge is a no-op. Node ids never shrink.
    pub fn remove_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        let mut applied = 0;
        for &(u, v) in edges {
            let Some(e) = self.canonical(u, v) else {
                continue;
            };
            let changed = if self.added.contains(&e) {
                // Cancel the pending add: nothing reaches the base.
                self.added.remove(&e)
            } else if self.base_contains(e) && !self.removed.contains(&e) {
                self.removed.insert(e)
            } else {
                false
            };
            if changed {
                applied += 1;
                self.edge_sum = self.edge_sum.wrapping_sub(edge_term(e));
            }
        }
        applied
    }

    /// The canonical [`EdgeList`] of the current state, bit-identical to
    /// canonicalizing the same edge multiset from scratch. The base is
    /// copied in runs between the positions of its tombstones and of the
    /// (sorted) append log's entries — bulk copies of `m` edges plus
    /// `O(d log m)` for `d` log entries, no full re-sort and no per-edge
    /// hash lookup.
    pub fn materialize(&self) -> EdgeList {
        let base = &self.base.edges[..];
        let mut log: Vec<(NodeId, NodeId)> = self.added.iter().copied().collect();
        log.sort_unstable();
        let mut tombs: Vec<usize> = self
            .removed
            .iter()
            .map(|e| base.binary_search(e).expect("tombstones name base edges"))
            .collect();
        tombs.sort_unstable();
        let mut tombs = tombs.into_iter().peekable();
        let mut edges = Vec::with_capacity(self.num_edges());
        // Copies the live base edges in `at..end`, skipping tombstones.
        let mut at = 0;
        let mut copy_to = |edges: &mut Vec<(NodeId, NodeId)>, end: usize| {
            while let Some(t) = tombs.next_if(|&t| t < end) {
                edges.extend_from_slice(&base[at..t]);
                at = t + 1;
            }
            edges.extend_from_slice(&base[at..end]);
            at = end;
        };
        for a in log {
            copy_to(&mut edges, base.partition_point(|&b| b < a));
            edges.push(a);
        }
        copy_to(&mut edges, base.len());
        EdgeList {
            num_nodes: self.num_nodes,
            edges,
            weights: None,
            kind: self.base.kind,
        }
    }

    /// Folds the logs into a fresh canonical base, clearing both logs.
    pub fn compact(&mut self) {
        self.base = self.materialize();
        self.added.clear();
        self.removed.clear();
        self.compactions += 1;
    }

    /// Compacts when [`DeltaGraph::delta_ratio`] exceeds `ratio`;
    /// returns whether a compaction ran.
    pub fn maybe_compact(&mut self, ratio: f64) -> bool {
        if self.delta_edges() > 0 && self.delta_ratio() > ratio {
            self.compact();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_edges(kind: GraphKind, n: u32, edges: &[(u32, u32)]) -> DeltaGraph {
        let mut list = match kind {
            GraphKind::Undirected => EdgeList::new_undirected(n),
            GraphKind::Directed => EdgeList::new_directed(n),
        };
        for &(u, v) in edges {
            list.push(u, v);
        }
        DeltaGraph::new(list).unwrap()
    }

    #[test]
    fn add_remove_roundtrip_with_cancellation() {
        let mut g = from_edges(GraphKind::Undirected, 3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        // Adding a present edge (either orientation) is a no-op.
        assert_eq!(g.add_edges(&[(1, 0)]).unwrap(), 0);
        // A new edge grows the node set.
        assert_eq!(g.add_edges(&[(2, 5)]).unwrap(), 1);
        assert_eq!(g.num_nodes(), 6);
        assert!(g.contains(5, 2));
        // Removing it cancels the pending add (log returns to empty).
        assert_eq!(g.remove_edges(&[(5, 2)]), 1);
        assert_eq!(g.delta_edges(), 0);
        // Tombstone a base edge, then resurrect it.
        assert_eq!(g.remove_edges(&[(0, 1)]), 1);
        assert!(!g.contains(0, 1));
        assert_eq!(g.delta_edges(), 1);
        assert_eq!(g.add_edges(&[(0, 1)]).unwrap(), 1);
        assert!(g.contains(0, 1));
        assert_eq!(g.delta_edges(), 0);
        // Self-loops and absent removals are no-ops.
        assert_eq!(g.add_edges(&[(2, 2)]).unwrap(), 0);
        assert_eq!(g.remove_edges(&[(0, 2)]), 0);
    }

    #[test]
    fn directed_keeps_orientation() {
        let mut g = from_edges(GraphKind::Directed, 2, &[(0, 1)]);
        assert!(g.contains(0, 1));
        assert!(!g.contains(1, 0));
        assert_eq!(g.add_edges(&[(1, 0)]).unwrap(), 1);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.remove_edges(&[(0, 1)]), 1);
        assert!(g.contains(1, 0));
        assert!(!g.contains(0, 1));
    }

    #[test]
    fn weighted_directed_base_is_rejected() {
        let mut list = EdgeList::new_directed(2);
        list.push_weighted(0, 1, 2.0);
        assert!(matches!(DeltaGraph::new(list), Err(GraphError::Format(_))));
    }

    #[test]
    fn weighted_undirected_base_is_rejected() {
        let mut list = EdgeList::new_undirected(2);
        list.push_weighted(0, 1, 2.0);
        assert!(matches!(DeltaGraph::new(list), Err(GraphError::Format(_))));
    }

    #[test]
    fn materialize_matches_scratch_canonicalization() {
        // Random op sequence; the materialized list must be bit-identical
        // to canonicalizing the surviving edge set from scratch, and a
        // naive HashSet model must agree edge for edge.
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let mut rng = SplitMix64::new(match kind {
                GraphKind::Undirected => 7,
                GraphKind::Directed => 8,
            });
            let mut g = DeltaGraph::new_empty(kind);
            let mut model: HashSet<(u32, u32)> = HashSet::new();
            let canon = |u: u32, v: u32| match kind {
                GraphKind::Undirected if u > v => (v, u),
                _ => (u, v),
            };
            for step in 0..2000 {
                let u = (rng.next_u64() % 40) as u32;
                let v = (rng.next_u64() % 40) as u32;
                if rng.next_u64().is_multiple_of(3) {
                    g.remove_edges(&[(u, v)]);
                    if u != v {
                        model.remove(&canon(u, v));
                    }
                } else {
                    g.add_edges(&[(u, v)]).unwrap();
                    if u != v {
                        model.insert(canon(u, v));
                    }
                }
                if step % 500 == 250 {
                    g.maybe_compact(0.5);
                }
                if step % 700 == 350 {
                    let mat = g.materialize();
                    let mut scratch = mat.clone();
                    scratch.canonicalize();
                    assert_eq!(mat.edges, scratch.edges, "materialize must be canonical");
                    let got: HashSet<(u32, u32)> = mat.edges.iter().copied().collect();
                    assert_eq!(got, model, "model divergence at step {step}");
                    assert_eq!(mat.num_edges(), g.num_edges());
                }
            }
        }
    }

    #[test]
    fn compaction_clears_logs_and_counts() {
        let mut g = from_edges(GraphKind::Undirected, 4, &[(0, 1), (1, 2), (2, 3)]);
        g.add_edges(&[(0, 3), (0, 2)]).unwrap();
        g.remove_edges(&[(1, 2)]);
        assert_eq!(g.delta_edges(), 3);
        assert!(g.delta_ratio() > 0.9);
        assert!(g.maybe_compact(0.5));
        assert_eq!(g.delta_edges(), 0);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.maybe_compact(0.5), "nothing left to compact");
        // The compacted base is canonical: materialize is now a copy.
        let mat = g.materialize();
        assert_eq!(mat.edges, vec![(0, 1), (0, 2), (0, 3), (2, 3)]);
    }

    #[test]
    fn empty_graph_grows_from_nothing() {
        let mut g = DeltaGraph::new_empty(GraphKind::Undirected);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.add_edges(&[(0, 1), (1, 2), (1, 0)]).unwrap(), 2);
        assert_eq!(g.num_nodes(), 3);
        let mat = g.materialize();
        assert_eq!(mat.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(mat.num_nodes, 3);
    }

    #[test]
    fn node_id_cap_is_a_typed_error() {
        let mut g = DeltaGraph::new_empty(GraphKind::Undirected);
        assert!(matches!(
            g.add_edges(&[(0, u32::MAX)]),
            Err(GraphError::TooLarge { .. })
        ));
    }
}
