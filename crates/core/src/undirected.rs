//! **Algorithm 1** — the `(2+2ε)`-approximation for undirected graphs.
//!
//! ```text
//! S̃, S ← V
//! while S ≠ ∅:
//!     A(S) ← { i ∈ S : deg_S(i) ≤ 2(1+ε)·ρ(S) }
//!     S ← S \ A(S)
//!     if ρ(S) > ρ(S̃): S̃ ← S
//! return S̃
//! ```
//!
//! Guarantees (Lemmas 3 and 4 of the paper): `ρ(S̃) ≥ ρ*(G)/(2+2ε)` and at
//! most `O(log_{1+ε} n)` iterations, each of which is a single pass over
//! the edge stream using `O(n)` memory (the liveness bits plus the degree
//! counters of the [`DegreeOracle`]).
//!
//! All variants are instantiations of the shared
//! [peeling kernel](crate::kernel) with the
//! [`ThresholdPolicy`] removal rule; they
//! differ only in the [`DegreeStore`](crate::kernel::DegreeStore) backend:
//!
//! * [`approx_densest`] / [`approx_densest_with_oracle`] — the streaming
//!   form: one pass per iteration recomputes live degrees from scratch.
//! * [`approx_densest_csr_with`] — the one in-memory entry point, with an
//!   optional [`PeelTrace`] capture. Its CSR store maintains degrees
//!   decrementally while peeling, `O(m + n)` total after an `O(n)` init
//!   on unweighted loop-free graphs, and produces the **identical**
//!   sequence of sets (bit for bit on unweighted graphs, up to
//!   floating-point rounding on weighted ones) — [`approx_densest_csr`].
//!
//! Note on `ε = 0`: the paper remarks termination is not guaranteed; with
//! our (paper-faithful) non-strict `≤` comparison the minimum-degree node
//! always satisfies `deg ≤ 2ρ(S)`, so at least one node is removed per
//! pass and `ε = 0` terminates (in up to `n` passes) with Charikar-quality
//! output. The sketched oracle can over-estimate every degree; the
//! implementation then falls back to removing the minimum-estimate node to
//! preserve termination.

use dsg_graph::stream::EdgeStream;
use dsg_graph::CsrUndirected;

use crate::kernel::{
    peel_with_capture, CsrUndirectedStore, PeelTrace, PeelingKernel, StreamingUndirectedStore,
    ThresholdPolicy,
};
use crate::oracle::{DegreeOracle, ExactDegreeOracle};
use crate::result::UndirectedRun;

/// Runs Algorithm 1 over an edge stream with exact degree counters.
///
/// `epsilon ≥ 0`; larger values reduce passes at the cost of the
/// `(2+2ε)` approximation factor.
///
/// ```
/// use dsg_graph::gen;
/// use dsg_graph::stream::MemoryStream;
/// use dsg_core::undirected::approx_densest;
///
/// // K8 (density 3.5) plus a long path.
/// let mut g = gen::clique(8);
/// g.disjoint_union(&gen::path(100));
/// let mut stream = MemoryStream::new(g);
/// let run = approx_densest(&mut stream, 0.5);
/// assert_eq!(run.best_set.len(), 8);
/// assert!((run.best_density - 3.5).abs() < 1e-9);
/// ```
pub fn approx_densest<S: EdgeStream + ?Sized>(stream: &mut S, epsilon: f64) -> UndirectedRun {
    let mut oracle = ExactDegreeOracle::new(stream.num_nodes());
    approx_densest_with_oracle(stream, epsilon, &mut oracle)
}

/// Fallible form of [`approx_densest`] for file-backed streams.
///
/// A `TextFileStream`/`BinaryFileStream` whose file fails mid-run (I/O
/// error, or the file was modified between passes) aborts the failing
/// pass and parks the error on the stream
/// ([`EdgeStream::take_error`]); the run that was computed across it is
/// garbage. This wrapper checks the stream after the run and returns the
/// error instead of the invalid result. On always-valid streams
/// (`MemoryStream`) it never fails.
pub fn try_approx_densest<S: EdgeStream + ?Sized>(
    stream: &mut S,
    epsilon: f64,
) -> dsg_graph::Result<UndirectedRun> {
    let mut oracle = ExactDegreeOracle::new(stream.num_nodes());
    try_approx_densest_with_oracle(stream, epsilon, &mut oracle)
}

/// Fallible form of [`approx_densest_with_oracle`] — see
/// [`try_approx_densest`].
pub fn try_approx_densest_with_oracle<S, O>(
    stream: &mut S,
    epsilon: f64,
    oracle: &mut O,
) -> dsg_graph::Result<UndirectedRun>
where
    S: EdgeStream + ?Sized,
    O: DegreeOracle + ?Sized,
{
    let run = approx_densest_with_oracle(stream, epsilon, oracle);
    match stream.take_error() {
        Some(e) => Err(e),
        None => Ok(run),
    }
}

/// Runs Algorithm 1 over an edge stream with a caller-supplied degree
/// oracle (exact or sketched — §5.1 of the paper).
///
/// The density `ρ(S)` is always computed from the *exact* live edge count
/// (a single counter); only the per-node degrees go through the oracle.
pub fn approx_densest_with_oracle<S, O>(
    stream: &mut S,
    epsilon: f64,
    oracle: &mut O,
) -> UndirectedRun
where
    S: EdgeStream + ?Sized,
    O: DegreeOracle + ?Sized,
{
    let mut store = StreamingUndirectedStore::new(stream, oracle);
    let mut policy = ThresholdPolicy::new(epsilon);
    UndirectedRun::from_kernel(PeelingKernel::new().run(&mut store, &mut policy))
}

/// Runs Algorithm 1 on an in-memory CSR graph — the one in-memory entry
/// point. `capture` adds a [`PeelTrace`], the seed state of incremental
/// re-peeling ([`crate::incremental`]), at one extra live scan per pass.
/// The run itself is the same with or without the capture.
pub fn approx_densest_csr_with(
    g: &CsrUndirected,
    epsilon: f64,
    capture: bool,
) -> (UndirectedRun, Option<PeelTrace>) {
    let (run, trace) = peel_with_capture(
        &mut CsrUndirectedStore::new(g),
        &mut ThresholdPolicy::new(epsilon),
        capture,
    );
    (UndirectedRun::from_kernel(run), trace)
}

/// Runs Algorithm 1 on an in-memory CSR graph with decremental degree
/// maintenance, in `O(m + n)` total work instead of one full edge scan
/// per pass.
///
/// Produces the same sequence of sets, result and trace as
/// [`approx_densest`] on a stream of the same graph: bit for bit on
/// unweighted graphs, up to floating-point rounding on weighted ones.
pub fn approx_densest_csr(g: &CsrUndirected, epsilon: f64) -> UndirectedRun {
    approx_densest_csr_with(g, epsilon, false).0
}

/// Runs [`approx_densest_csr`]; `threads` is ignored. Every in-memory
/// peel is serial (a shared-memory parallel store was slower than it),
/// and threads size only the MapReduce workers. The function stays
/// because perfbench's traced mode calls it.
pub fn approx_densest_csr_parallel(
    g: &CsrUndirected,
    epsilon: f64,
    _threads: usize,
) -> UndirectedRun {
    approx_densest_csr(g, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;
    use dsg_graph::stream::MemoryStream;
    use dsg_graph::EdgeList;

    fn run_stream(list: &EdgeList, eps: f64) -> UndirectedRun {
        let mut s = MemoryStream::new(list.clone());
        approx_densest(&mut s, eps)
    }

    #[test]
    fn clique_found_immediately() {
        let run = run_stream(&gen::clique(10), 0.5);
        assert!((run.best_density - 4.5).abs() < 1e-12);
        assert_eq!(run.best_set.len(), 10);
        assert_eq!(run.best_pass, 1);
    }

    #[test]
    fn planted_clique_within_guarantee() {
        let pg = gen::planted_clique(300, 600, 20, 5);
        for eps in [0.0, 0.1, 0.5, 1.0, 2.0] {
            let run = run_stream(&pg.graph, eps);
            let bound = pg.planted_density / (2.0 + 2.0 * eps);
            assert!(
                run.best_density + 1e-9 >= bound,
                "eps {eps}: density {} below bound {bound}",
                run.best_density
            );
        }
    }

    #[test]
    fn pass_bound_holds() {
        // Lemma 4: at most ceil(log_{1+eps} n) + 1 passes.
        let pg = gen::planted_dense_subgraph(500, 2000, 25, 0.7, 9);
        for eps in [0.5, 1.0, 2.0] {
            let run = run_stream(&pg.graph, eps);
            let bound = ((500.0f64).ln() / (1.0 + eps).ln()).ceil() as u32 + 2;
            assert!(
                run.passes <= bound,
                "eps {eps}: {} passes > bound {bound}",
                run.passes
            );
        }
    }

    #[test]
    fn stream_and_csr_agree_exactly() {
        for seed in 0..5 {
            let list = gen::gnp(120, 0.08, seed);
            let csr = CsrUndirected::from_edge_list(&list);
            for eps in [0.0, 0.3, 1.0] {
                let a = run_stream(&list, eps);
                let b = approx_densest_csr(&csr, eps);
                assert_eq!(a.passes, b.passes, "seed {seed} eps {eps}");
                assert_eq!(a.best_set.to_vec(), b.best_set.to_vec());
                assert!((a.best_density - b.best_density).abs() < 1e-9);
                assert_eq!(a.trace.len(), b.trace.len());
                for (x, y) in a.trace.iter().zip(&b.trace) {
                    assert_eq!(x.nodes, y.nodes);
                    assert_eq!(x.removed, y.removed);
                    assert!((x.density - y.density).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn weighted_stream_and_csr_agree() {
        let list = gen::weighted_powerlaw(60, 0.5, 500.0);
        let csr = CsrUndirected::from_edge_list(&list);
        let a = run_stream(&list, 1.0);
        let b = approx_densest_csr(&csr, 1.0);
        assert_eq!(a.passes, b.passes);
        assert!((a.best_density - b.best_density).abs() < 1e-6);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let run = run_stream(&EdgeList::new_undirected(0), 0.5);
        assert_eq!(run.best_density, 0.0);
        assert_eq!(run.passes, 0);

        // Isolated nodes: density 0, one pass removes everything.
        let run = run_stream(&EdgeList::new_undirected(7), 0.5);
        assert_eq!(run.best_density, 0.0);
        assert_eq!(run.passes, 1);
        assert_eq!(run.trace[0].removed, 7);
    }

    #[test]
    fn single_edge() {
        let mut g = EdgeList::new_undirected(2);
        g.push(0, 1);
        let run = run_stream(&g, 0.5);
        assert!((run.best_density - 0.5).abs() < 1e-12);
        assert_eq!(run.best_set.len(), 2);
    }

    #[test]
    fn self_loops_are_ignored() {
        // The run on a graph with a self-loop must be identical to the run
        // on the same graph without it.
        let mut with_loop = EdgeList::new_undirected(3);
        with_loop.push(0, 0);
        with_loop.push(0, 1);
        let mut without_loop = EdgeList::new_undirected(3);
        without_loop.push(0, 1);
        let a = run_stream(&with_loop, 0.5);
        let b = run_stream(&without_loop, 0.5);
        assert_eq!(a.passes, b.passes);
        assert!((a.best_density - b.best_density).abs() < 1e-12);
        assert_eq!(a.best_set.to_vec(), b.best_set.to_vec());
        // The self-loop contributes nothing to ρ(V) = 1/3.
        assert!((a.trace[0].density - 1.0 / 3.0).abs() < 1e-12);
        // The CSR store takes the looped list's slow init path and
        // matches the stream run.
        let csr = CsrUndirected::from_edge_list(&with_loop);
        assert!(csr.has_self_loops());
        let run = approx_densest_csr(&csr, 0.5);
        assert_eq!(run.passes, a.passes);
        assert_eq!(run.best_density.to_bits(), a.best_density.to_bits());
        assert_eq!(run.best_set.to_vec(), a.best_set.to_vec());
        assert_eq!(run.trace, a.trace);
    }

    #[test]
    fn epsilon_zero_terminates_on_regular_graph() {
        // On a regular graph every node's degree equals 2ρ, so the first
        // pass removes everything; best set is the full graph.
        let run = run_stream(&gen::circulant(50, 6), 0.0);
        assert_eq!(run.passes, 1);
        assert!((run.best_density - 3.0).abs() < 1e-12);
        assert_eq!(run.best_set.len(), 50);
    }

    #[test]
    fn larger_epsilon_fewer_passes() {
        let pg = gen::planted_dense_subgraph(2000, 10_000, 50, 0.5, 13);
        let p0 = run_stream(&pg.graph, 0.1).passes;
        let p2 = run_stream(&pg.graph, 2.0).passes;
        assert!(p2 < p0, "eps 2.0 gave {p2} passes vs {p0} for eps 0.1");
    }

    #[test]
    fn trace_is_monotone_in_nodes() {
        let pg = gen::planted_dense_subgraph(400, 1500, 20, 0.8, 3);
        let run = run_stream(&pg.graph, 0.5);
        for w in run.trace.windows(2) {
            assert!(w[1].nodes < w[0].nodes, "node count must strictly shrink");
            assert_eq!(w[1].nodes, w[0].nodes - w[0].removed);
        }
        // Total removals equal n.
        let total: usize = run.trace.iter().map(|p| p.removed).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn best_pass_recorded() {
        // Two cliques joined by nothing: the bigger clique only becomes the
        // current set after sparse nodes are gone; best_pass tracks that.
        let mut g = gen::clique(12);
        g.disjoint_union(&gen::path(100));
        let run = run_stream(&g, 0.5);
        assert!((run.best_density - 5.5).abs() < 1e-9);
        assert!(run.best_pass >= 1);
        assert_eq!(run.best_set.len(), 12);
    }

    #[test]
    fn stream_pass_count_matches_reported() {
        let pg = gen::planted_dense_subgraph(300, 900, 15, 0.9, 1);
        let mut s = MemoryStream::new(pg.graph);
        let run = approx_densest(&mut s, 1.0);
        assert_eq!(s.passes(), run.passes as u64);
    }
}
