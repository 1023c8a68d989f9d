//! **Algorithm 3** — the `(2+2ε)`-approximation for directed graphs, and
//! the `δ`-grid sweep over the size ratio `c`.
//!
//! For directed graphs the density is `ρ(S,T) = |E(S,T)|/sqrt(|S||T|)`
//! over two (not necessarily disjoint) node sets. The algorithm assumes
//! the ratio `c = |S*|/|T*|` of the optimal pair is known; per pass it
//! removes either the nodes of `S` whose out-degree into `T` is at most
//! `(1+ε)·|E(S,T)|/|S|`, or symmetrically the low in-degree nodes of `T` —
//! choosing the side by comparing the current `|S|/|T|` against `c` (the
//! paper's simplification, §4.3, which is faster than the max-degree rule
//! because only one side's removal set is needed per pass).
//!
//! In practice `c` is swept over powers of a resolution `δ > 1`
//! ([`sweep_c`]); the paper notes this costs at most an extra factor `δ`
//! in the approximation.
//!
//! All variants run through the shared [peeling kernel](crate::kernel) as
//! two-sided states: the
//! [`DirectedSizesPolicy`] (or the
//! naive [`DirectedNaivePolicy`]
//! ablation) over a streaming or a decremental-CSR
//! [`DegreeStore`](crate::kernel::DegreeStore). In memory,
//! [`sweep_c_csr_with`] is the one entry point (CSR store init `O(n)`).

use dsg_graph::stream::EdgeStream;
use dsg_graph::NodeSet;

use crate::kernel::{
    peel_with_capture, CsrDirectedStore, DirectedNaivePolicy, DirectedSizesPolicy, KernelRun,
    PeelTrace, PeelingKernel, StreamingDirectedStore,
};
use crate::result::DirectedPassStats;

/// The outcome of one directed run at a fixed ratio `c`.
#[derive(Clone, Debug)]
pub struct DirectedRun {
    /// The best source-side set `S̃`.
    pub best_s: NodeSet,
    /// The best target-side set `T̃`.
    pub best_t: NodeSet,
    /// `ρ(S̃, T̃)`.
    pub best_density: f64,
    /// Number of passes over the edge stream.
    pub passes: u32,
    /// The ratio `c` this run assumed.
    pub c: f64,
    /// Per-pass trace (drives Figure 6.5).
    pub trace: Vec<DirectedPassStats>,
}

impl DirectedRun {
    fn from_kernel(run: KernelRun, c: f64) -> Self {
        let trace = run
            .trace
            .iter()
            .map(|r| DirectedPassStats {
                pass: r.pass,
                s_size: r.side_sizes[0],
                t_size: r.side_sizes[1],
                edges: r.total_weight as usize,
                density: r.density,
                removed_from_s: r.side == 0,
                removed: r.removed,
            })
            .collect();
        let mut sides = run.best_sides.into_iter();
        DirectedRun {
            best_s: sides.next().expect("side S"),
            best_t: sides.next().expect("side T"),
            best_density: run.best_density,
            passes: run.passes,
            c,
            trace,
        }
    }
}

/// Runs Algorithm 3 at a fixed ratio `c` over a directed edge stream
/// (`(u, v, w)` is the arc `u -> v`; `w` generalizes edge multiplicity and
/// is 1 for the paper's unweighted setting).
pub fn approx_densest_directed<S: EdgeStream + ?Sized>(
    stream: &mut S,
    c: f64,
    epsilon: f64,
) -> DirectedRun {
    let mut policy = DirectedSizesPolicy::new(c, epsilon);
    let mut store = StreamingDirectedStore::new(stream);
    DirectedRun::from_kernel(PeelingKernel::new().run(&mut store, &mut policy), c)
}

/// The *naive* side-selection variant that §4.3 describes and rejects:
/// compute **both** removal candidate sets every pass, compare the
/// maximum out-degree `E(i*, T)` over `A(S)` with the maximum in-degree
/// `E(S, j*)` over `B(T)`, and remove `A(S)` iff
/// `E(S, j*) ≥ c · E(i*, T)`.
///
/// Same `(2+2ε)` guarantee, but each pass pays for two candidate sets —
/// the paper's argument for the sizes-based rule of
/// [`approx_densest_directed`]. Kept as an ablation.
pub fn approx_densest_directed_naive<S: EdgeStream + ?Sized>(
    stream: &mut S,
    c: f64,
    epsilon: f64,
) -> DirectedRun {
    let mut policy = DirectedNaivePolicy::new(c, epsilon);
    let mut store = StreamingDirectedStore::new(stream);
    DirectedRun::from_kernel(PeelingKernel::new().run(&mut store, &mut policy), c)
}

/// Algorithm 3 at ratio `c` over a directed CSR snapshot.
fn directed_csr(
    g: &dsg_graph::CsrDirected,
    c: f64,
    epsilon: f64,
    capture: bool,
) -> (DirectedRun, Option<PeelTrace>) {
    let mut policy = DirectedSizesPolicy::new(c, epsilon);
    let (run, trace) = peel_with_capture(&mut CsrDirectedStore::new(g), &mut policy, capture);
    (DirectedRun::from_kernel(run, c), trace)
}

/// In-memory Algorithm 3 over a directed CSR snapshot with decremental
/// degree maintenance — produces exactly the same run as
/// [`approx_densest_directed`] on a stream of the same graph, in
/// `O(m + n·passes)` total instead of one full edge scan per pass.
pub fn approx_densest_directed_csr(
    g: &dsg_graph::CsrDirected,
    c: f64,
    epsilon: f64,
) -> DirectedRun {
    directed_csr(g, c, epsilon, false).0
}

/// In-memory [`sweep_c`]; `capture` adds one [`PeelTrace`] per ratio,
/// the seed of incremental re-peeling, as `(c, trace)` pairs in grid
/// order.
pub fn sweep_c_csr_with(
    g: &dsg_graph::CsrDirected,
    delta: f64,
    epsilon: f64,
    capture: bool,
) -> (SweepResult, Option<Vec<(f64, PeelTrace)>>) {
    let mut traces = Vec::new();
    let sweep = sweep_grid(g.num_nodes(), delta, |c| {
        let (run, trace) = directed_csr(g, c, epsilon, capture);
        traces.extend(trace.map(|t| (c, t)));
        run
    });
    (sweep, capture.then_some(traces))
}

/// CSR version of [`sweep_c`].
pub fn sweep_c_csr(g: &dsg_graph::CsrDirected, delta: f64, epsilon: f64) -> SweepResult {
    sweep_c_csr_with(g, delta, epsilon, false).0
}

/// [`sweep_c_csr`] with a per-ratio [`PeelTrace`] capture, as `(c,
/// trace)` pairs in grid order.
pub fn sweep_c_csr_traced(
    g: &dsg_graph::CsrDirected,
    delta: f64,
    epsilon: f64,
) -> (SweepResult, Vec<(f64, PeelTrace)>) {
    let (sweep, traces) = sweep_c_csr_with(g, delta, epsilon, true);
    (sweep, traces.unwrap_or_default())
}

/// The outcome of a sweep over `c`.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The best run across all tried ratios.
    pub best: DirectedRun,
    /// `(c, density, passes)` per tried ratio, in increasing `c` order —
    /// the series of Figures 6.4 and 6.6.
    pub per_c: Vec<(f64, f64, u32)>,
}

/// Shared δ-grid driver: tries `c = δ^i` for `i ∈ [-levels, levels]`
/// covering `[1/n, n]` and keeps the densest run.
fn sweep_grid(
    num_nodes: usize,
    delta: f64,
    mut run_at: impl FnMut(f64) -> DirectedRun,
) -> SweepResult {
    assert!(delta > 1.0, "resolution delta must exceed 1");
    let n = num_nodes.max(2) as f64;
    let levels = (n.ln() / delta.ln()).ceil() as i32;
    let mut best: Option<DirectedRun> = None;
    let mut per_c = Vec::with_capacity((2 * levels + 1) as usize);
    for i in -levels..=levels {
        let c = delta.powi(i);
        let run = run_at(c);
        per_c.push((c, run.best_density, run.passes));
        let replace = match &best {
            None => true,
            Some(b) => run.best_density > b.best_density,
        };
        if replace {
            best = Some(run);
        }
    }
    SweepResult {
        best: best.expect("at least one ratio is always tried"),
        per_c,
    }
}

/// Sweeps `c` over powers of `delta` covering `[1/n, n]` and returns the
/// best run (§4.3: "choose a resolution δ > 1 and try c at different
/// powers of δ"; the approximation degrades by at most a factor `δ`).
pub fn sweep_c<S: EdgeStream + ?Sized>(stream: &mut S, delta: f64, epsilon: f64) -> SweepResult {
    let num_nodes = stream.num_nodes() as usize;
    sweep_grid(num_nodes, delta, |c| {
        approx_densest_directed(stream, c, epsilon)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_graph::gen;
    use dsg_graph::stream::MemoryStream;
    use dsg_graph::EdgeList;

    fn run(list: &EdgeList, c: f64, eps: f64) -> DirectedRun {
        let mut s = MemoryStream::new(list.clone());
        approx_densest_directed(&mut s, c, eps)
    }

    #[test]
    fn complete_bipartite_exact_at_right_c() {
        // All arcs from {0..4} to {5, 6}: optimum ρ = 10/sqrt(10), c = 5/2.
        let mut g = EdgeList::new_directed(7);
        for u in 0..5 {
            for v in 5..7 {
                g.push(u, v);
            }
        }
        let r = run(&g, 2.5, 0.0);
        let opt = 10.0 / 10.0f64.sqrt();
        assert!(
            r.best_density + 1e-9 >= opt / 2.0,
            "density {} below bound",
            r.best_density
        );
        // The first pass already sees S=T=V whose density is below opt;
        // peeling should recover something close to the planted bipartite.
        assert!(r.best_density <= opt + 1e-9);
    }

    #[test]
    fn guarantee_vs_brute_force() {
        use dsg_graph::CsrDirected;
        for seed in 0..6 {
            let list = gen::directed_gnp(10, 0.3, seed);
            if list.num_edges() == 0 {
                continue;
            }
            let csr = CsrDirected::from_edge_list(&list);
            let (_, _, opt) = dsg_flow::brute_force_densest_directed(&csr);
            let mut stream = MemoryStream::new(list.clone());
            let sweep = sweep_c(&mut stream, 1.5, 0.1);
            // δ·(2+2ε) overall guarantee.
            let bound = opt / (1.5 * (2.0 + 2.0 * 0.1));
            assert!(
                sweep.best.best_density + 1e-9 >= bound,
                "seed {seed}: {} < {bound} (opt {opt})",
                sweep.best.best_density
            );
            assert!(sweep.best.best_density <= opt + 1e-9);
        }
    }

    #[test]
    fn celebrity_graph_finds_asymmetric_pair() {
        // Followers -> celebrities: the optimal pair is highly asymmetric
        // (S = many followers, T = few celebrities, density ≈ 31), which
        // the sweep must recover regardless of which grid point wins.
        let g = gen::skewed_celebrity(400, 4, 0.8, 200, 5);
        let mut stream = MemoryStream::new(g);
        let sweep = sweep_c(&mut stream, 2.0, 1.0);
        assert!(
            sweep.best.best_s.len() > 10 * sweep.best.best_t.len().max(1),
            "expected |S| ≫ |T|, got {} vs {}",
            sweep.best.best_s.len(),
            sweep.best.best_t.len()
        );
        // ≈ 0.8 * 396 * 4 / sqrt(396 * 4) ≈ 31.8; within the (2+2ε)δ factor.
        assert!(
            sweep.best.best_density > 31.8 / 8.0,
            "density {}",
            sweep.best.best_density
        );
    }

    #[test]
    fn planted_directed_pair_recovered_approximately() {
        let (g, s_star, t_star) = gen::directed_planted(300, 0.004, 30, 10, 0.9, 11);
        let mut stream = MemoryStream::new(g);
        let sweep = sweep_c(&mut stream, 2.0, 0.5);
        let planted_density_lb = 0.8 * 0.9 * (30.0f64 * 10.0).sqrt();
        assert!(
            sweep.best.best_density >= planted_density_lb / (2.0 * (2.0 + 1.0)),
            "density {}",
            sweep.best.best_density
        );
        // Best S should overlap the planted S heavily.
        let overlap = sweep.best.best_s.intersection_len(&s_star);
        assert!(overlap >= 20, "S overlap only {overlap}");
        let overlap_t = sweep.best.best_t.intersection_len(&t_star);
        assert!(overlap_t >= 7, "T overlap only {overlap_t}");
    }

    #[test]
    fn passes_bounded() {
        let g = gen::rmat(
            10,
            8000,
            gen::RmatParams::graph500(),
            dsg_graph::GraphKind::Directed,
            3,
        );
        let r = run(&g, 1.0, 1.0);
        // O(log_{1+eps} n) for each side: generous bound 2*log2(1024)+4.
        assert!(r.passes <= 24, "{} passes", r.passes);
    }

    #[test]
    fn alternation_matches_c() {
        // With c = 1 removal alternates to keep |S| ≈ |T|.
        let g = gen::directed_gnp(100, 0.05, 7);
        let r = run(&g, 1.0, 0.5);
        let from_s: usize = r.trace.iter().filter(|p| p.removed_from_s).count();
        let from_t = r.trace.len() - from_s;
        assert!(
            from_s > 0 && from_t > 0,
            "both sides must shrink (S:{from_s} T:{from_t})"
        );
    }

    #[test]
    fn empty_graph() {
        let g = EdgeList::new_directed(5);
        let r = run(&g, 1.0, 0.5);
        assert_eq!(r.best_density, 0.0);
        // One pass: density 0, everything at threshold 0 is removed.
        assert_eq!(r.passes, 1);
    }

    #[test]
    fn trace_sides_shrink() {
        let g = gen::directed_gnp(200, 0.03, 13);
        let r = run(&g, 1.0, 1.0);
        for w in r.trace.windows(2) {
            if w[0].removed_from_s {
                assert_eq!(w[1].s_size, w[0].s_size - w[0].removed);
                assert_eq!(w[1].t_size, w[0].t_size);
            } else {
                assert_eq!(w[1].t_size, w[0].t_size - w[0].removed);
                assert_eq!(w[1].s_size, w[0].s_size);
            }
        }
    }

    #[test]
    fn csr_matches_stream_exactly() {
        use dsg_graph::CsrDirected;
        for seed in 0..4 {
            let list = gen::directed_gnp(150, 0.03, seed);
            let csr = CsrDirected::from_edge_list(&list);
            for (c, eps) in [(1.0, 0.0), (0.5, 0.5), (4.0, 1.5)] {
                let mut stream = MemoryStream::new(list.clone());
                let a = approx_densest_directed(&mut stream, c, eps);
                let b = approx_densest_directed_csr(&csr, c, eps);
                assert_eq!(a.passes, b.passes, "seed {seed} c {c} eps {eps}");
                assert!((a.best_density - b.best_density).abs() < 1e-9);
                assert_eq!(a.best_s.to_vec(), b.best_s.to_vec());
                assert_eq!(a.best_t.to_vec(), b.best_t.to_vec());
                for (x, y) in a.trace.iter().zip(&b.trace) {
                    assert_eq!(x.s_size, y.s_size);
                    assert_eq!(x.t_size, y.t_size);
                    assert_eq!(x.edges, y.edges);
                    assert_eq!(x.removed, y.removed);
                    assert_eq!(x.removed_from_s, y.removed_from_s);
                }
            }
        }
    }

    #[test]
    fn sweep_csr_matches_sweep_stream() {
        use dsg_graph::CsrDirected;
        let list = gen::directed_gnp(100, 0.04, 8);
        let csr = CsrDirected::from_edge_list(&list);
        let mut stream = MemoryStream::new(list);
        let a = sweep_c(&mut stream, 2.0, 1.0);
        let b = sweep_c_csr(&csr, 2.0, 1.0);
        assert_eq!(a.per_c.len(), b.per_c.len());
        for (x, y) in a.per_c.iter().zip(&b.per_c) {
            assert!((x.0 - y.0).abs() < 1e-12);
            assert!((x.1 - y.1).abs() < 1e-9);
            assert_eq!(x.2, y.2);
        }
    }

    #[test]
    fn naive_rule_satisfies_same_guarantee() {
        use dsg_graph::CsrDirected;
        for seed in 0..5 {
            let list = gen::directed_gnp(10, 0.3, seed);
            if list.num_edges() == 0 {
                continue;
            }
            let csr = CsrDirected::from_edge_list(&list);
            let (_, _, opt) = dsg_flow::brute_force_densest_directed(&csr);
            // Try the naive variant across a small c grid.
            let mut best = 0.0f64;
            for i in -4..=4 {
                let c = 1.5f64.powi(i);
                let mut stream = MemoryStream::new(list.clone());
                let run = approx_densest_directed_naive(&mut stream, c, 0.1);
                best = best.max(run.best_density);
                // Certificate consistency.
                let recomputed = csr.density_of(&run.best_s, &run.best_t);
                assert!((recomputed - run.best_density).abs() < 1e-9);
            }
            assert!(
                best + 1e-9 >= opt / (1.5 * (2.0 + 0.2)),
                "seed {seed}: naive rule found {best} vs opt {opt}"
            );
        }
    }

    #[test]
    fn naive_and_sizes_rules_find_comparable_density() {
        let g = gen::skewed_celebrity(300, 4, 0.7, 400, 3);
        let mut s1 = MemoryStream::new(g.clone());
        let sizes = approx_densest_directed(&mut s1, 8.0, 0.5);
        let mut s2 = MemoryStream::new(g);
        let naive = approx_densest_directed_naive(&mut s2, 8.0, 0.5);
        // Same guarantee; in practice both land near the celebrity core.
        let ratio = sizes.best_density / naive.best_density;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "sizes {} vs naive {}",
            sizes.best_density,
            naive.best_density
        );
    }

    #[test]
    fn sweep_reports_all_ratios() {
        let g = gen::directed_gnp(64, 0.05, 3);
        let mut stream = MemoryStream::new(g);
        let sweep = sweep_c(&mut stream, 2.0, 1.0);
        // Levels = ceil(ln 64 / ln 2) = 6 -> 13 ratios.
        assert_eq!(sweep.per_c.len(), 13);
        // Ratios increasing.
        assert!(sweep.per_c.windows(2).all(|w| w[0].0 < w[1].0));
        // Best density equals the max of the series.
        let max = sweep
            .per_c
            .iter()
            .map(|&(_, d, _)| d)
            .fold(0.0f64, f64::max);
        assert!((sweep.best.best_density - max).abs() < 1e-12);
    }
}
