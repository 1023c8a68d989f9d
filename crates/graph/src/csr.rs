//! Immutable compressed-sparse-row (CSR) graph snapshots.
//!
//! The streaming algorithms never need random access to adjacency — they
//! re-read the edge stream — but the in-memory "materialized" variants, the
//! exact flow solver, and Charikar's peeling baseline all want fast
//! neighborhood iteration. CSR gives cache-friendly `&[u32]` neighbor
//! slices with one `Vec` per graph.

use crate::bitset::NodeSet;
use crate::edgelist::{EdgeList, GraphKind};
use crate::NodeId;

/// Undirected graph in CSR form. Every undirected edge `(u, v)` appears in
/// both `neighbors(u)` and `neighbors(v)`.
#[derive(Clone, Debug)]
pub struct CsrUndirected {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    /// Parallel to `neighbors`; `None` for unweighted graphs.
    weights: Option<Vec<f64>>,
    num_edges: usize,
    total_weight: f64,
    has_self_loops: bool,
}

impl CsrUndirected {
    /// Builds a CSR snapshot from an undirected edge list.
    ///
    /// Panics if the list is directed or contains out-of-range endpoints
    /// (call [`EdgeList::validate`] first for error handling).
    pub fn from_edge_list(list: &EdgeList) -> Self {
        assert_eq!(
            list.kind,
            GraphKind::Undirected,
            "CsrUndirected requires an undirected edge list"
        );
        let n = list.num_nodes as usize;
        let mut counts = vec![0usize; n + 1];
        for &(u, v) in &list.edges {
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; list.edges.len() * 2];
        let weighted = list.is_weighted();
        let mut weights = if weighted {
            vec![0.0; list.edges.len() * 2]
        } else {
            Vec::new()
        };
        let mut total_weight = 0.0;
        let mut has_self_loops = false;
        for (i, &(u, v)) in list.edges.iter().enumerate() {
            let w = list.weight(i);
            total_weight += w;
            has_self_loops |= u == v;
            let cu = cursor[u as usize];
            neighbors[cu] = v;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            neighbors[cv] = u;
            cursor[v as usize] += 1;
            if weighted {
                weights[cu] = w;
                weights[cv] = w;
            }
        }
        CsrUndirected {
            offsets,
            neighbors,
            weights: if weighted { Some(weights) } else { None },
            num_edges: list.edges.len(),
            total_weight,
            has_self_loops,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of edge weights (`num_edges` when unweighted).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// `true` if edges carry weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// `true` if some edge is a self-loop `(u, u)`, which appears twice
    /// in `neighbors(u)`. Canonical edge lists have none.
    #[inline]
    pub fn has_self_loops(&self) -> bool {
        self.has_self_loops
    }

    /// Neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Edge weights parallel to [`Self::neighbors`]`(u)`; `None` if
    /// unweighted.
    #[inline]
    pub fn neighbor_weights(&self, u: NodeId) -> Option<&[f64]> {
        let range = self.offsets[u as usize]..self.offsets[u as usize + 1];
        self.weights.as_ref().map(|w| &w[range])
    }

    /// Iterates `(neighbor, weight)` pairs of `u` (weight 1 if unweighted).
    pub fn neighbors_weighted(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        (lo..hi).map(move |i| {
            (
                self.neighbors[i],
                self.weights.as_ref().map_or(1.0, |w| w[i]),
            )
        })
    }

    /// Degree of `u` (number of incident edges, counting multiplicity).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Weighted degree of `u` (sum of incident edge weights).
    pub fn weighted_degree(&self, u: NodeId) -> f64 {
        self.neighbor_weights(u)
            .map_or(self.degree(u) as f64, |w| w.iter().sum())
    }

    /// Total weight of edges with **both** endpoints in `set`.
    pub fn induced_edge_weight(&self, set: &NodeSet) -> f64 {
        let mut twice = 0.0;
        for u in set.iter() {
            for (v, w) in self.neighbors_weighted(u) {
                if set.contains(v) {
                    twice += w;
                }
            }
        }
        twice / 2.0
    }

    /// Number of edges with both endpoints in `set`.
    pub fn induced_edge_count(&self, set: &NodeSet) -> usize {
        let mut twice = 0usize;
        for u in set.iter() {
            for &v in self.neighbors(u) {
                if set.contains(v) {
                    twice += 1;
                }
            }
        }
        twice / 2
    }

    /// Induced degree `deg_S(u)`: weight of edges from `u` into `set`.
    pub fn induced_degree(&self, u: NodeId, set: &NodeSet) -> f64 {
        self.neighbors_weighted(u)
            .filter(|&(v, _)| set.contains(v))
            .map(|(_, w)| w)
            .sum()
    }

    /// Density `ρ(S) = w(E(S)) / |S|` of the induced subgraph (0 for ∅).
    pub fn density_of(&self, set: &NodeSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        self.induced_edge_weight(set) / set.len() as f64
    }

    /// Density of the whole graph.
    pub fn density(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.total_weight / self.num_nodes() as f64
    }

    /// Extracts the subgraph induced by `set` as a new [`EdgeList`] whose
    /// nodes are relabeled to `0..set.len()`. Returns the list and the
    /// mapping `new_id -> old_id`.
    pub fn induced_subgraph(&self, set: &NodeSet) -> (EdgeList, Vec<NodeId>) {
        let old_ids: Vec<NodeId> = set.to_vec();
        let mut new_of_old = vec![u32::MAX; self.num_nodes()];
        for (new, &old) in old_ids.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        let mut out = EdgeList::new_undirected(old_ids.len() as u32);
        let weighted = self.is_weighted();
        for &u in &old_ids {
            for (v, w) in self.neighbors_weighted(u) {
                if u < v && set.contains(v) {
                    let (nu, nv) = (new_of_old[u as usize], new_of_old[v as usize]);
                    if weighted {
                        out.push_weighted(nu, nv, w);
                    } else {
                        out.push(nu, nv);
                    }
                }
            }
        }
        (out, old_ids)
    }
}

/// Directed graph in CSR form with both out- and in-adjacency.
#[derive(Clone, Debug)]
pub struct CsrDirected {
    out_offsets: Vec<usize>,
    out_neighbors: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_neighbors: Vec<NodeId>,
    num_edges: usize,
}

impl CsrDirected {
    /// Builds a directed CSR snapshot from a directed edge list.
    ///
    /// Weights are not supported for directed graphs — the paper's directed
    /// density (Definition 2) is stated for unweighted graphs.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        assert_eq!(
            list.kind,
            GraphKind::Directed,
            "CsrDirected requires a directed edge list"
        );
        assert!(
            !list.is_weighted(),
            "weighted directed graphs are not supported"
        );
        let n = list.num_nodes as usize;
        let mut out_offsets = vec![0usize; n + 1];
        let mut in_offsets = vec![0usize; n + 1];
        for &(u, v) in &list.edges {
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        let mut out_neighbors = vec![0u32; list.edges.len()];
        let mut in_neighbors = vec![0u32; list.edges.len()];
        for &(u, v) in &list.edges {
            out_neighbors[out_cursor[u as usize]] = v;
            out_cursor[u as usize] += 1;
            in_neighbors[in_cursor[v as usize]] = u;
            in_cursor[v as usize] += 1;
        }
        CsrDirected {
            out_offsets,
            out_neighbors,
            in_offsets,
            in_neighbors,
            num_edges: list.edges.len(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Out-neighbors of `u` (targets of arcs `u -> ·`).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_neighbors[self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]]
    }

    /// In-neighbors of `v` (sources of arcs `· -> v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_neighbors[self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }

    /// `|E(S, T)|` — number of arcs from `S` into `T`.
    pub fn edges_between(&self, s: &NodeSet, t: &NodeSet) -> usize {
        // Iterate from the smaller side for speed.
        if s.len() <= t.len() {
            s.iter()
                .map(|u| {
                    self.out_neighbors(u)
                        .iter()
                        .filter(|&&v| t.contains(v))
                        .count()
                })
                .sum()
        } else {
            t.iter()
                .map(|v| {
                    self.in_neighbors(v)
                        .iter()
                        .filter(|&&u| s.contains(u))
                        .count()
                })
                .sum()
        }
    }

    /// Directed density `ρ(S, T) = |E(S,T)| / sqrt(|S||T|)` (0 if either is ∅).
    pub fn density_of(&self, s: &NodeSet, t: &NodeSet) -> f64 {
        if s.is_empty() || t.is_empty() {
            return 0.0;
        }
        self.edges_between(s, t) as f64 / ((s.len() as f64) * (t.len() as f64)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> EdgeList {
        // 0-1, 1-2, 0-2 triangle; 3 attached to 0.
        let mut g = EdgeList::new_undirected(4);
        g.push(0, 1);
        g.push(1, 2);
        g.push(0, 2);
        g.push(0, 3);
        g
    }

    #[test]
    fn csr_undirected_basics() {
        let g = CsrUndirected::from_edge_list(&triangle_plus_pendant());
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        let mut n0 = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2, 3]);
        assert_eq!(g.total_weight(), 4.0);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn induced_quantities() {
        let g = CsrUndirected::from_edge_list(&triangle_plus_pendant());
        let tri = NodeSet::from_iter(4, [0u32, 1, 2]);
        assert_eq!(g.induced_edge_count(&tri), 3);
        assert!((g.density_of(&tri) - 1.0).abs() < 1e-12);
        assert_eq!(g.induced_degree(0, &tri), 2.0);
        let all = NodeSet::full(4);
        assert_eq!(g.induced_edge_count(&all), 4);
        let empty = NodeSet::empty(4);
        assert_eq!(g.density_of(&empty), 0.0);
    }

    #[test]
    fn weighted_csr() {
        let mut list = EdgeList::new_undirected(3);
        list.push_weighted(0, 1, 2.0);
        list.push_weighted(1, 2, 3.0);
        let g = CsrUndirected::from_edge_list(&list);
        assert!(g.is_weighted());
        assert_eq!(g.weighted_degree(1), 5.0);
        assert_eq!(g.weighted_degree(0), 2.0);
        let s = NodeSet::from_iter(3, [0u32, 1]);
        assert_eq!(g.induced_edge_weight(&s), 2.0);
        assert!((g.density_of(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = CsrUndirected::from_edge_list(&triangle_plus_pendant());
        let set = NodeSet::from_iter(4, [1u32, 2, 3]);
        let (sub, old_ids) = g.induced_subgraph(&set);
        assert_eq!(old_ids, vec![1, 2, 3]);
        assert_eq!(sub.num_nodes, 3);
        // Only edge 1-2 survives (3 is only attached to 0).
        assert_eq!(sub.edges, vec![(0, 1)]);
    }

    #[test]
    fn csr_directed_basics() {
        let mut list = EdgeList::new_directed(4);
        list.push(0, 1);
        list.push(0, 2);
        list.push(1, 2);
        list.push(3, 0);
        let g = CsrDirected::from_edge_list(&list);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
    }

    #[test]
    fn directed_density() {
        let mut list = EdgeList::new_directed(4);
        // Complete bipartite S={0,1} -> T={2,3}.
        for u in 0..2 {
            for v in 2..4 {
                list.push(u, v);
            }
        }
        let g = CsrDirected::from_edge_list(&list);
        let s = NodeSet::from_iter(4, [0u32, 1]);
        let t = NodeSet::from_iter(4, [2u32, 3]);
        assert_eq!(g.edges_between(&s, &t), 4);
        assert!((g.density_of(&s, &t) - 2.0).abs() < 1e-12);
        // Swapped direction has no arcs.
        assert_eq!(g.edges_between(&t, &s), 0);
    }

    #[test]
    fn edges_between_overlapping_sets() {
        let mut list = EdgeList::new_directed(3);
        list.push(0, 1);
        list.push(1, 0);
        list.push(1, 2);
        let g = CsrDirected::from_edge_list(&list);
        let st = NodeSet::from_iter(3, [0u32, 1]);
        // S and T may overlap (paper allows S, T not disjoint).
        assert_eq!(g.edges_between(&st, &st), 2);
    }
}
