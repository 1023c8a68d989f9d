//! End-to-end tests of the out-of-core path: algorithms running
//! directly over on-disk edge files must reproduce the in-memory runs
//! exactly, for both file formats, and file trouble must surface as
//! typed errors instead of panics.

use std::path::PathBuf;

use densest_subgraph::core::large::{approx_densest_at_least_k_csr, try_approx_densest_at_least_k};
use densest_subgraph::core::result::UndirectedRun;
use densest_subgraph::core::undirected::{approx_densest_csr, try_approx_densest};
use densest_subgraph::graph::gen;
use densest_subgraph::graph::io::{write_binary, write_text};
use densest_subgraph::graph::stream::{BinaryFileStream, EdgeStream, TextFileStream};
use densest_subgraph::graph::{CsrUndirected, EdgeList};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_outofcore_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn on_disk(list: &EdgeList, tag: &str) -> (PathBuf, PathBuf) {
    let text = tmp(&format!("{tag}.txt"));
    let bin = tmp(&format!("{tag}.bin"));
    write_text(&text, list).unwrap();
    write_binary(&bin, list).unwrap();
    (text, bin)
}

fn assert_same_run(a: &UndirectedRun, b: &UndirectedRun, what: &str) {
    assert_eq!(a.passes, b.passes, "{what}: passes");
    assert_eq!(a.best_pass, b.best_pass, "{what}: best pass");
    assert_eq!(
        a.best_density.to_bits(),
        b.best_density.to_bits(),
        "{what}: density ({} vs {})",
        a.best_density,
        b.best_density
    );
    assert_eq!(a.best_set.to_vec(), b.best_set.to_vec(), "{what}: set");
}

#[test]
fn streamed_approx_matches_in_memory_both_formats() {
    for seed in 0..3 {
        let list = gen::planted_dense_subgraph(400, 1600, 25, 0.6, seed);
        let (text, bin) = on_disk(&list.graph, &format!("approx_{seed}"));
        let csr = CsrUndirected::from_edge_list(&list.graph);
        for eps in [0.0, 0.5, 1.5] {
            let reference = approx_densest_csr(&csr, eps);

            let mut ts = TextFileStream::open_auto(&text).unwrap();
            let from_text = try_approx_densest(&mut ts, eps).unwrap();
            assert_same_run(
                &from_text,
                &reference,
                &format!("text seed {seed} eps {eps}"),
            );
            assert_eq!(ts.passes(), from_text.passes as u64);

            let mut bs = BinaryFileStream::open(&bin).unwrap();
            let from_bin = try_approx_densest(&mut bs, eps).unwrap();
            assert_same_run(&from_bin, &reference, &format!("bin seed {seed} eps {eps}"));
            assert_eq!(bs.passes(), from_bin.passes as u64);
        }
    }
}

#[test]
fn streamed_atleast_k_matches_in_memory_both_formats() {
    let list = gen::planted_clique(300, 900, 15, 7);
    let (text, bin) = on_disk(&list.graph, "atleastk");
    let csr = CsrUndirected::from_edge_list(&list.graph);
    for (k, eps) in [(1usize, 0.5), (30, 0.3), (150, 1.0)] {
        let reference = approx_densest_at_least_k_csr(&csr, k, eps);

        let mut ts = TextFileStream::open_auto(&text).unwrap();
        let from_text = try_approx_densest_at_least_k(&mut ts, k, eps).unwrap();
        assert_same_run(&from_text, &reference, &format!("text k {k} eps {eps}"));

        let mut bs = BinaryFileStream::open(&bin).unwrap();
        let from_bin = try_approx_densest_at_least_k(&mut bs, k, eps).unwrap();
        assert_same_run(&from_bin, &reference, &format!("bin k {k} eps {eps}"));
    }
}

#[test]
fn streamed_weighted_graph_matches_in_memory() {
    let list = gen::weighted_powerlaw(80, 0.5, 500.0);
    let (text, bin) = on_disk(&list, "weighted");
    let csr = CsrUndirected::from_edge_list(&list);
    let reference = approx_densest_csr(&csr, 0.8);

    let mut ts = TextFileStream::open_auto(&text).unwrap();
    let from_text = try_approx_densest(&mut ts, 0.8).unwrap();
    assert_eq!(from_text.passes, reference.passes);
    assert_eq!(from_text.best_set.to_vec(), reference.best_set.to_vec());
    assert!((from_text.best_density - reference.best_density).abs() < 1e-9);

    let mut bs = BinaryFileStream::open(&bin).unwrap();
    let from_bin = try_approx_densest(&mut bs, 0.8).unwrap();
    assert_eq!(from_bin.passes, reference.passes);
    assert_eq!(from_bin.best_set.to_vec(), reference.best_set.to_vec());
    assert!((from_bin.best_density - reference.best_density).abs() < 1e-9);
}

#[test]
fn streamed_weighted_atleast_k_matches_in_memory() {
    // The stream recounts degrees every pass while the CSR peel keeps
    // them decrementally, so on weighted graphs the two agree up to
    // floating-point rounding, not bit for bit.
    let list = gen::weighted_powerlaw(80, 0.5, 500.0);
    let (text, bin) = on_disk(&list, "weighted_atleastk");
    let csr = CsrUndirected::from_edge_list(&list);
    for (k, eps) in [(1usize, 0.5), (10, 0.3), (40, 1.0)] {
        let reference = approx_densest_at_least_k_csr(&csr, k, eps);

        let mut ts = TextFileStream::open_auto(&text).unwrap();
        let from_text = try_approx_densest_at_least_k(&mut ts, k, eps).unwrap();
        let mut bs = BinaryFileStream::open(&bin).unwrap();
        let from_bin = try_approx_densest_at_least_k(&mut bs, k, eps).unwrap();
        for run in [&from_text, &from_bin] {
            assert_eq!(run.passes, reference.passes, "k {k} eps {eps}");
            assert_eq!(run.best_set.to_vec(), reference.best_set.to_vec());
            assert!((run.best_density - reference.best_density).abs() < 1e-9);
        }
    }
}

#[test]
fn file_modified_mid_run_surfaces_an_error_not_a_panic() {
    // A stream whose file is swapped after the first pass: the run must
    // come back as Err (and must not panic), because the passes after
    // the swap saw different data.
    struct SwappingStream {
        inner: TextFileStream,
        path: PathBuf,
        swapped: bool,
    }
    impl EdgeStream for SwappingStream {
        fn num_nodes(&self) -> u32 {
            self.inner.num_nodes()
        }
        fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64)) {
            self.inner.for_each_edge(f);
            if !self.swapped {
                self.swapped = true;
                std::fs::write(&self.path, "0 2\n1 2\n2 3\n").unwrap();
            }
        }
        fn passes(&self) -> u64 {
            self.inner.passes()
        }
        fn take_error(&mut self) -> Option<densest_subgraph::graph::GraphError> {
            self.inner.take_error()
        }
    }

    let path = tmp("swapped.txt");
    // A path graph peels over several passes, so the swap lands mid-run.
    let mut g = EdgeList::new_undirected(6);
    for u in 0..5u32 {
        g.push(u, u + 1);
    }
    g.push(0, 2);
    write_text(&path, &g).unwrap();
    let inner = TextFileStream::open_auto(&path).unwrap();
    let mut stream = SwappingStream {
        inner,
        path: path.clone(),
        swapped: false,
    };
    let result = try_approx_densest(&mut stream, 0.1);
    let err = result.expect_err("modified file must fail the run");
    assert!(err.to_string().contains("changed while streaming"), "{err}");
}

#[test]
fn deleted_file_surfaces_an_error_not_a_panic() {
    let path = tmp("deleted.txt");
    std::fs::write(&path, "0 1\n1 2\n2 0\n0 3\n").unwrap();
    let mut s = TextFileStream::open_auto(&path).unwrap();
    // First pass succeeds; then the file disappears.
    s.for_each_edge(&mut |_, _, _| {});
    assert_eq!(s.passes(), 1);
    std::fs::remove_file(&path).unwrap();
    s.for_each_edge(&mut |_, _, _| {});
    assert_eq!(s.passes(), 1, "failed pass must not be counted");
    let err = s.take_error().expect("deletion must surface");
    assert!(err.to_string().contains("cannot reopen"), "{err}");
}
