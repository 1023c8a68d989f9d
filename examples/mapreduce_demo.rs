//! The MapReduce realization (§5.2) on the thread-pool simulator:
//! partitioned edge files, three MapReduce rounds per pass, per-pass
//! accounting — the laptop-scale version of the paper's Hadoop run on a
//! 6.1-billion-edge graph (Figure 6.7).
//!
//! ```text
//! cargo run --release --example mapreduce_demo
//! ```

use densest_subgraph::core::undirected::approx_densest;
use densest_subgraph::graph::gen;
use densest_subgraph::graph::stream::MemoryStream;
use densest_subgraph::mapreduce::{mr_densest_undirected, MapReduceConfig};

fn main() {
    // An "im-like" heavy-tailed graph with a dense core.
    let (list, _) = gen::powerlaw_with_communities(30_000, 2.0, 12.0, 2_000.0, &[(150, 0.5)], 3);
    println!(
        "graph: {} nodes, {} edges",
        list.num_nodes,
        list.num_edges()
    );

    // Partition the edge file across 32 "machines".
    let splits: Vec<&[(u32, u32)]> = list.edges.chunks(list.edges.len().div_ceil(32)).collect();
    let config = MapReduceConfig::default();
    println!(
        "simulator: {} workers, {} reducers, {} input splits",
        config.num_workers,
        config.num_reducers,
        splits.len()
    );

    let t0 = std::time::Instant::now();
    let result = mr_densest_undirected(&config, list.num_nodes, &splits, 1.0);
    println!(
        "\nMapReduce result: density {:.3} on {} nodes, {} passes, {:.2?} total",
        result.best_density,
        result.best_set.len(),
        result.passes,
        t0.elapsed()
    );

    println!("\nper-pass breakdown (Figure 6.7 shape — cost tracks surviving edges):");
    println!("pass |    nodes |    edges | shuffle recs | time");
    for r in &result.reports {
        println!(
            "{:>4} | {:>8} | {:>8} | {:>12} | {:.2?}",
            r.pass, r.nodes, r.edges, r.rounds.shuffle_records, r.wall_time
        );
    }

    // Cross-check against the streaming implementation.
    let mut stream = MemoryStream::new(list);
    let expected = approx_densest(&mut stream, 1.0);
    assert_eq!(result.passes, expected.passes);
    assert!((result.best_density - expected.best_density).abs() < 1e-9);
    println!("\nMapReduce and streaming implementations agree exactly ✓");
}
