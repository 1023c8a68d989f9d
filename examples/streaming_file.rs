//! True out-of-core semi-streaming: run Algorithm 1 over an edge list on
//! disk, re-reading the file each pass, with a Count-Sketch degree oracle
//! so counter memory is sublinear in n (§5.1).
//!
//! ```text
//! cargo run --release --example streaming_file [path/to/edges.txt]
//! ```
//!
//! Without an argument, generates a graph, writes it to a temp file in
//! both text and binary formats, and streams from both. The text file is
//! validated once; both text runs stream copies of that validated
//! stream, so each reads the file once per pass.

use densest_subgraph::core::undirected::try_approx_densest;
use densest_subgraph::graph::gen;
use densest_subgraph::graph::io::{write_binary, write_text};
use densest_subgraph::graph::stream::{EdgeStream, FileStream};
use densest_subgraph::sketch::{try_approx_densest_sketched, SketchParams};

fn main() {
    let arg = std::env::args().nth(1);
    let (validated, bin_path) = match arg {
        Some(p) => {
            // User-supplied file: node count (max id + 1) from the
            // validation scan, without loading the edges.
            let scan = FileStream::open(&p, false).expect("cannot read edge list");
            println!(
                "scanned {}: {} nodes, {} edges",
                p,
                scan.num_nodes(),
                scan.num_edges()
            );
            (scan, None)
        }
        None => {
            let dir = std::env::temp_dir().join("dsg_streaming_example");
            std::fs::create_dir_all(&dir).expect("cannot create temp dir");
            let planted = gen::planted_dense_subgraph(50_000, 200_000, 120, 0.6, 11);
            let text = dir.join("edges.txt");
            let bin = dir.join("edges.bin");
            write_text(&text, &planted.graph).expect("write text");
            write_binary(&bin, &planted.graph).expect("write binary");
            println!(
                "generated graph: {} nodes, {} edges (planted 120-node community, density ≈ {:.1})",
                planted.graph.num_nodes,
                planted.graph.num_edges(),
                planted.planted_density
            );
            println!("text file:   {}", text.display());
            println!("binary file: {}", bin.display());
            // The binary header keeps the node count; the text stream is
            // raised to it, in case the highest ids are isolated.
            let scan = FileStream::open(&text, false)
                .and_then(|s| s.with_num_nodes(planted.graph.num_nodes))
                .expect("open text stream");
            (scan, Some(bin))
        }
    };
    let num_nodes = validated.num_nodes();

    // --- Stream from the text file with exact O(n) degree counters. ---
    // The try_ entry points surface I/O trouble (or a file modified
    // between passes) as a clean error instead of computing on garbage.
    let mut stream = validated.clone();
    let t0 = std::time::Instant::now();
    let run = try_approx_densest(&mut stream, 0.5).expect("stream failed mid-run");
    println!(
        "\n[text + exact degrees]   density {:.3} on {} nodes, {} file passes, {:.2?}",
        run.best_density,
        run.best_set.len(),
        stream.passes(),
        t0.elapsed()
    );

    // --- Same, with a Count-Sketch using ~10% of the counter memory. ---
    let b = num_nodes / 50; // t·b/n = 5·(n/50)/n = 10%
    let mut stream = validated.clone();
    let t0 = std::time::Instant::now();
    let sk = try_approx_densest_sketched(&mut stream, 0.5, SketchParams::paper(b, 7))
        .expect("stream failed mid-run");
    println!(
        "[text + Count-Sketch 10%] density {:.3} on {} nodes, {} file passes, {:.2?}",
        sk.run.best_density,
        sk.run.best_set.len(),
        stream.passes(),
        t0.elapsed()
    );
    println!(
        "  sketch memory: {} words vs {} exact ({:.0}%)",
        sk.sketch_words,
        sk.exact_words,
        100.0 * sk.memory_ratio()
    );

    // --- Binary format is faster to re-scan. ---
    if let Some(bin) = bin_path {
        let mut stream = FileStream::open(&bin, true).expect("open binary stream");
        let t0 = std::time::Instant::now();
        let run_bin = try_approx_densest(&mut stream, 0.5).expect("stream failed mid-run");
        println!(
            "[binary + exact degrees]  density {:.3}, {} file passes, {:.2?}",
            run_bin.best_density,
            stream.passes(),
            t0.elapsed()
        );
        assert_eq!(run.best_set.to_vec(), run_bin.best_set.to_vec());
        assert_eq!(run.best_density.to_bits(), run_bin.best_density.to_bits());
        assert_eq!(run.passes, run_bin.passes);
        println!("  text and binary streams produce identical results ✓");
    }
}
