//! Determinism-parity tests for the unified peeling kernel: the
//! decremental CSR store must produce traces identical to a streaming
//! recomputation of the same graph — bit-identical on unweighted graphs
//! (including the paper's Lemma 5–7 worst-case instances), and identical
//! up to floating-point rounding on weighted ones — for several ε values.

use densest_subgraph::core::directed::{approx_densest_directed, approx_densest_directed_csr};
use densest_subgraph::core::large::{approx_densest_at_least_k, approx_densest_at_least_k_csr};
use densest_subgraph::core::undirected::{approx_densest, approx_densest_csr};
use densest_subgraph::core::UndirectedRun;
use densest_subgraph::graph::gen;
use densest_subgraph::graph::stream::MemoryStream;
use densest_subgraph::graph::{CsrDirected, CsrUndirected, EdgeList};

const EPSILONS: [f64; 4] = [0.0, 0.3, 0.5, 1.5];

fn assert_bit_identical(csr: &UndirectedRun, streamed: &UndirectedRun, what: &str) {
    assert_eq!(csr.passes, streamed.passes, "{what}: pass count");
    assert_eq!(csr.best_pass, streamed.best_pass, "{what}: best pass");
    assert_eq!(
        csr.best_density.to_bits(),
        streamed.best_density.to_bits(),
        "{what}: best density ({} vs {})",
        csr.best_density,
        streamed.best_density
    );
    assert_eq!(
        csr.best_set.to_vec(),
        streamed.best_set.to_vec(),
        "{what}: best set"
    );
    assert_eq!(
        csr.trace.len(),
        streamed.trace.len(),
        "{what}: trace length"
    );
    for (a, b) in csr.trace.iter().zip(&streamed.trace) {
        assert_eq!(a, b, "{what}: trace record {}", a.pass);
    }
}

fn check_undirected_stream_vs_csr(list: &EdgeList, what: &str) {
    let csr = CsrUndirected::from_edge_list(list);
    for eps in EPSILONS {
        let in_memory = approx_densest_csr(&csr, eps);
        let mut stream = MemoryStream::new(list.clone());
        let streamed = approx_densest(&mut stream, eps);
        assert_bit_identical(&in_memory, &streamed, &format!("{what} ε={eps}"));
    }
}

#[test]
fn unweighted_random_graphs_bit_identical() {
    for seed in 0..3 {
        let list = gen::gnp(200, 0.05, seed);
        check_undirected_stream_vs_csr(&list, &format!("gnp seed {seed}"));
    }
}

#[test]
fn planted_and_powerlaw_graphs_bit_identical() {
    let pg = gen::planted_dense_subgraph(500, 2500, 30, 0.7, 11);
    check_undirected_stream_vs_csr(&pg.graph, "planted");
    let pa = gen::preferential_attachment(400, 3, 5);
    check_undirected_stream_vs_csr(&pa, "preferential attachment");
}

#[test]
fn lemma5_regular_union_bit_identical() {
    // The Lemma 5 pass-count worst case: a union of regular layers that
    // forces Ω(log n / log log n) passes — many passes, many frontiers.
    let list = gen::regular_union(4);
    check_undirected_stream_vs_csr(&list, "lemma5 regular union");
}

#[test]
fn lemma7_disjointness_gadgets_bit_identical() {
    // The Lemma 7 communication-bound gadgets, YES and NO instances.
    for yes in [false, true] {
        let (list, _) = gen::disjointness_gadget(40, 6, yes, 9);
        check_undirected_stream_vs_csr(&list, &format!("lemma7 yes={yes}"));
    }
}

#[test]
fn lemma6_weighted_powerlaw_matches_within_rounding() {
    // Lemma 6's instance is weighted: the stream recomputes degrees per
    // pass while the CSR store maintains them decrementally, so the two
    // agree on every set but only up to rounding on the densities.
    let list = gen::weighted_powerlaw(120, 0.5, 3000.0);
    let csr = CsrUndirected::from_edge_list(&list);
    for eps in [0.3, 0.5, 1.0] {
        let in_memory = approx_densest_csr(&csr, eps);
        let mut stream = MemoryStream::new(list.clone());
        let streamed = approx_densest(&mut stream, eps);
        assert_eq!(in_memory.passes, streamed.passes, "ε={eps}");
        assert_eq!(in_memory.best_pass, streamed.best_pass, "ε={eps}");
        assert_eq!(in_memory.best_set.to_vec(), streamed.best_set.to_vec());
        assert!((in_memory.best_density - streamed.best_density).abs() < 1e-9);
        for (a, b) in in_memory.trace.iter().zip(&streamed.trace) {
            assert_eq!((a.nodes, a.removed), (b.nodes, b.removed), "ε={eps}");
        }
    }
}

#[test]
fn algorithm2_k_floor_bit_identical() {
    let pg = gen::planted_clique(300, 900, 18, 7);
    let csr = CsrUndirected::from_edge_list(&pg.graph);
    for (k, eps) in [(1usize, 0.4), (30, 0.4), (150, 1.0)] {
        let in_memory = approx_densest_at_least_k_csr(&csr, k, eps);
        let mut stream = MemoryStream::new(pg.graph.clone());
        let streamed = approx_densest_at_least_k(&mut stream, k, eps);
        assert_bit_identical(&in_memory, &streamed, &format!("alg2 k={k} ε={eps}"));
    }
}

#[test]
fn directed_runs_bit_identical() {
    for seed in 0..2 {
        let list = gen::directed_gnp(250, 0.02, seed);
        let csr = CsrDirected::from_edge_list(&list);
        for (c, eps) in [(0.5, 0.0), (1.0, 0.5), (4.0, 1.5)] {
            let in_memory = approx_densest_directed_csr(&csr, c, eps);
            let mut stream = MemoryStream::new(list.clone());
            let streamed = approx_densest_directed(&mut stream, c, eps);
            let what = format!("directed seed={seed} c={c} ε={eps}");
            assert_eq!(in_memory.passes, streamed.passes, "{what}: passes");
            assert_eq!(
                in_memory.best_density.to_bits(),
                streamed.best_density.to_bits(),
                "{what}: density"
            );
            assert_eq!(
                in_memory.best_s.to_vec(),
                streamed.best_s.to_vec(),
                "{what}: S"
            );
            assert_eq!(
                in_memory.best_t.to_vec(),
                streamed.best_t.to_vec(),
                "{what}: T"
            );
            assert_eq!(in_memory.trace.len(), streamed.trace.len(), "{what}: trace");
            for (a, b) in in_memory.trace.iter().zip(&streamed.trace) {
                assert_eq!(a, b, "{what}: trace record {}", a.pass);
            }
        }
    }
}

#[test]
fn skewed_celebrity_directed_bit_identical() {
    let list = gen::skewed_celebrity(500, 5, 0.7, 300, 2);
    let csr = CsrDirected::from_edge_list(&list);
    let in_memory = approx_densest_directed_csr(&csr, 8.0, 0.5);
    let mut stream = MemoryStream::new(list);
    let streamed = approx_densest_directed(&mut stream, 8.0, 0.5);
    assert_eq!(in_memory.passes, streamed.passes);
    assert_eq!(
        in_memory.best_density.to_bits(),
        streamed.best_density.to_bits()
    );
    assert_eq!(in_memory.best_s.to_vec(), streamed.best_s.to_vec());
    assert_eq!(in_memory.best_t.to_vec(), streamed.best_t.to_vec());
    assert_eq!(in_memory.trace, streamed.trace);
}
