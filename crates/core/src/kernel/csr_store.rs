//! Serial in-memory degree stores over CSR snapshots, with decremental
//! degree maintenance — `O(m + n·passes)` total instead of one full edge
//! scan per pass, producing the same run as the streaming backends on
//! the same graph (bit for bit on unweighted graphs).
//!
//! The undirected store's init is `O(n)` on unweighted loop-free graphs
//! (self-loops are recorded at CSR build); a weighted graph or one with
//! self-loops scans every neighbor once, in adjacency order.

use std::iter;

use dsg_graph::{CsrDirected, CsrUndirected};

use super::{DegreeStore, KernelState, SideState};

/// Undirected decremental CSR backend.
pub struct CsrUndirectedStore<'g> {
    g: &'g CsrUndirected,
    in_removal: Vec<bool>,
}

impl<'g> CsrUndirectedStore<'g> {
    /// Wraps a CSR snapshot.
    pub fn new(g: &'g CsrUndirected) -> Self {
        CsrUndirectedStore {
            g,
            in_removal: vec![false; g.num_nodes()],
        }
    }

    /// Unlinks removed node `u` from its live neighbors: one loop body
    /// for unit weights and for a weight slice, in adjacency order.
    fn unlink<W: Iterator<Item = f64>>(&self, u: u32, w: W, side: &mut SideState, total: &mut f64) {
        for (&v, w) in self.g.neighbors(u).iter().zip(w) {
            if v != u && side.alive.contains(v) {
                if self.in_removal[v as usize] {
                    // Intra-batch edge: visited from both sides.
                    *total -= w * 0.5;
                } else {
                    *total -= w;
                    side.deg[v as usize] -= w;
                }
            }
        }
    }
}

impl DegreeStore for CsrUndirectedStore<'_> {
    fn init(&mut self) -> KernelState {
        let g = self.g;
        let n = g.num_nodes();
        let mut state = KernelState::full(n, 1);
        let side = &mut state.sides[0];
        for u in 0..n as u32 {
            side.deg[u as usize] = g.weighted_degree(u);
        }
        // Twice the live edge weight, summed in adjacency order.
        let twice = if g.has_self_loops() || g.is_weighted() {
            // Self-loops are excluded from the induced-degree semantics
            // of the streaming variant; subtract them up front.
            let mut total_w = 0.0f64;
            for u in 0..n as u32 {
                for (v, w) in g.neighbors_weighted(u) {
                    if v == u {
                        side.deg[u as usize] -= w;
                    } else {
                        total_w += w;
                    }
                }
            }
            total_w
        } else {
            2.0 * g.num_edges() as f64
        };
        state.total_weight = twice / 2.0;
        state
    }

    fn begin_pass(&mut self, _state: &mut KernelState) {
        // Degrees are maintained decrementally in `apply_removals`.
    }

    fn rebuild(&mut self, state: &mut KernelState) -> bool {
        // Reachable only through floating-point drift of the decremental
        // degrees (weighted graphs): restore the exact state a streaming
        // pass would hold.
        let side = &mut state.sides[0];
        let mut total_w = 0.0f64;
        for u in side.alive.iter() {
            let mut d = 0.0;
            for (v, w) in self.g.neighbors_weighted(u) {
                if v != u && side.alive.contains(v) {
                    d += w;
                    total_w += w;
                }
            }
            side.deg[u as usize] = d;
        }
        state.total_weight = total_w / 2.0;
        true
    }

    fn apply_removals(&mut self, state: &mut KernelState, side: usize, removed: &[u32]) {
        let side = &mut state.sides[side];
        for &u in removed {
            self.in_removal[u as usize] = true;
        }
        // Decrement neighbor degrees and the live edge weight.
        let total = &mut state.total_weight;
        for &u in removed {
            match self.g.neighbor_weights(u) {
                None => self.unlink(u, iter::repeat(1.0), side, total),
                Some(w) => self.unlink(u, w.iter().copied(), side, total),
            }
        }
        for &u in removed {
            side.alive.remove(u);
            side.deg[u as usize] = 0.0;
            self.in_removal[u as usize] = false;
        }
        // Guard against floating-point drift on weighted graphs.
        if state.total_weight < 0.0 {
            state.total_weight = 0.0;
        }
    }
}

/// Directed decremental CSR backend (side 0 = `S` with out-degrees into
/// `T`, side 1 = `T` with in-degrees from `S`).
pub struct CsrDirectedStore<'g> {
    g: &'g CsrDirected,
}

impl<'g> CsrDirectedStore<'g> {
    /// Wraps a directed CSR snapshot.
    pub fn new(g: &'g CsrDirected) -> Self {
        CsrDirectedStore { g }
    }
}

impl DegreeStore for CsrDirectedStore<'_> {
    fn init(&mut self) -> KernelState {
        let n = self.g.num_nodes();
        let mut state = KernelState::full(n, 2);
        for u in 0..n as u32 {
            state.sides[0].deg[u as usize] = self.g.out_degree(u) as f64;
            state.sides[1].deg[u as usize] = self.g.in_degree(u) as f64;
        }
        state.total_weight = self.g.num_edges() as f64;
        state
    }

    fn begin_pass(&mut self, _state: &mut KernelState) {
        // Degrees are maintained decrementally in `apply_removals`.
    }

    fn apply_removals(&mut self, state: &mut KernelState, side: usize, removed: &[u32]) {
        let (s_side, rest) = state.sides.split_first_mut().expect("two sides");
        let t_side = &mut rest[0];
        if side == 0 {
            for &u in removed {
                s_side.alive.remove(u);
                for &v in self.g.out_neighbors(u) {
                    if t_side.alive.contains(v) {
                        state.total_weight -= 1.0;
                        t_side.deg[v as usize] -= 1.0;
                    }
                }
                s_side.deg[u as usize] = 0.0;
            }
        } else {
            for &v in removed {
                t_side.alive.remove(v);
                for &u in self.g.in_neighbors(v) {
                    if s_side.alive.contains(u) {
                        state.total_weight -= 1.0;
                        s_side.deg[u as usize] -= 1.0;
                    }
                }
                t_side.deg[v as usize] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;

    #[test]
    fn init_equals_adjacency_order_sums() {
        let weighted = CsrUndirected::from_edge_list(&gen::weighted_powerlaw(90, 0.5, 700.0));
        let unweighted = CsrUndirected::from_edge_list(&gen::gnp(90, 0.1, 3));
        for g in [&weighted, &unweighted] {
            assert!(!g.has_self_loops());
            let state = CsrUndirectedStore::new(g).init();
            let mut twice = 0.0f64;
            for u in 0..g.num_nodes() as u32 {
                let mut d = 0.0f64;
                for (_, w) in g.neighbors_weighted(u) {
                    d += w;
                    twice += w;
                }
                let got = state.sides[0].deg[u as usize];
                if g.degree(u) == 0 {
                    assert_eq!(got, 0.0, "node {u}");
                } else {
                    assert_eq!(got.to_bits(), d.to_bits(), "node {u}");
                }
            }
            assert_eq!(state.total_weight.to_bits(), (twice / 2.0).to_bits());
        }
    }
}
