//! The four execution substrates — in-memory CSR, streaming (memory,
//! text file, binary file), and MapReduce — must produce *identical*
//! results on the same graph: same best set, same density, same number
//! of passes.

use densest_subgraph::core::directed::approx_densest_directed;
use densest_subgraph::core::undirected::{approx_densest, approx_densest_csr};
use densest_subgraph::graph::gen;
use densest_subgraph::graph::io::{write_binary, write_text};
use densest_subgraph::graph::stream::{FileStream, MemoryStream};
use densest_subgraph::graph::CsrUndirected;
use densest_subgraph::mapreduce::{
    mr_densest_directed, mr_densest_undirected, MapReduceConfig, ShuffleBackend,
};

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dsg_integration_agree");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn all_undirected_substrates_agree() {
    let pg = gen::planted_dense_subgraph(250, 800, 20, 0.7, 21);
    let list = pg.graph;
    let eps = 0.5;

    // 1. In-memory CSR (decremental peeling).
    let csr = CsrUndirected::from_edge_list(&list);
    let a = approx_densest_csr(&csr, eps);

    // 2. Memory stream (pass-per-iteration recomputation).
    let mut ms = MemoryStream::new(list.clone());
    let b = approx_densest(&mut ms, eps);

    // 3. Text file stream.
    let text = tmp_dir().join("agree.txt");
    write_text(&text, &list).unwrap();
    let mut ts = FileStream::open(&text, false)
        .and_then(|s| s.with_num_nodes(list.num_nodes))
        .unwrap();
    let c = approx_densest(&mut ts, eps);

    // 4. Binary file stream.
    let bin = tmp_dir().join("agree.bin");
    write_binary(&bin, &list).unwrap();
    let mut bs = FileStream::open(&bin, true).unwrap();
    let d = approx_densest(&mut bs, eps);

    // 5. MapReduce.
    let splits: Vec<&[(u32, u32)]> = list.edges.chunks(97).collect();
    let config = MapReduceConfig {
        num_workers: 3,
        num_reducers: 5,
        combine: true,
        shuffle: ShuffleBackend::InMemory,
    };
    let e = mr_densest_undirected(&config, list.num_nodes, &splits, eps);

    let reference = a.best_set.to_vec();
    for (name, set, density, passes) in [
        (
            "memory-stream",
            b.best_set.to_vec(),
            b.best_density,
            b.passes,
        ),
        ("text-stream", c.best_set.to_vec(), c.best_density, c.passes),
        (
            "binary-stream",
            d.best_set.to_vec(),
            d.best_density,
            d.passes,
        ),
        ("mapreduce", e.best_set.to_vec(), e.best_density, e.passes),
    ] {
        assert_eq!(set, reference, "{name} found a different set");
        assert!(
            (density - a.best_density).abs() < 1e-9,
            "{name} density mismatch"
        );
        assert_eq!(passes, a.passes, "{name} pass count mismatch");
    }
}

#[test]
fn directed_substrates_agree() {
    let g = gen::skewed_celebrity(200, 4, 0.6, 400, 17);
    for (c_ratio, eps) in [(1.0, 0.5), (8.0, 1.0)] {
        let mut ms = MemoryStream::new(g.clone());
        let a = approx_densest_directed(&mut ms, c_ratio, eps);

        let splits: Vec<&[(u32, u32)]> = g.edges.chunks(53).collect();
        let config = MapReduceConfig {
            num_workers: 2,
            num_reducers: 7,
            combine: true,
            shuffle: ShuffleBackend::InMemory,
        };
        let b = mr_densest_directed(&config, g.num_nodes, &splits, c_ratio, eps);

        assert_eq!(a.passes, b.passes);
        assert!((a.best_density - b.best_density).abs() < 1e-9);
        assert_eq!(a.best_s.to_vec(), b.best_s.to_vec());
        assert_eq!(a.best_t.to_vec(), b.best_t.to_vec());
    }
}

#[test]
fn trace_matches_across_substrates() {
    let pg = gen::planted_clique(150, 400, 10, 9);
    let list = pg.graph;
    let csr = CsrUndirected::from_edge_list(&list);
    let a = approx_densest_csr(&csr, 1.0);
    let splits: Vec<&[(u32, u32)]> = list.edges.chunks(31).collect();
    let config = MapReduceConfig {
        num_workers: 4,
        num_reducers: 4,
        combine: true,
        shuffle: ShuffleBackend::InMemory,
    };
    let mr = mr_densest_undirected(&config, list.num_nodes, &splits, 1.0);
    assert_eq!(a.trace.len(), mr.reports.len());
    for (t, r) in a.trace.iter().zip(&mr.reports) {
        assert_eq!(t.nodes, r.nodes as usize);
        assert!((t.edge_weight - r.edges as f64).abs() < 1e-9);
        assert!((t.density - r.density).abs() < 1e-12);
    }
}
