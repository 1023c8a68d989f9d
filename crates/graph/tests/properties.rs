//! Property-based tests for the graph substrate: I/O round-trips, CSR
//! consistency, canonicalization, stream equivalence, and the mutable
//! graph's content hash.

use proptest::prelude::*;

use dsg_graph::edgelist::{EdgeList, GraphKind};
use dsg_graph::io::{read_binary, read_text, write_binary, write_text};
use dsg_graph::stream::{EdgeStream, FileStream, MemoryStream};
use dsg_graph::{CsrDirected, CsrUndirected, DeltaGraph, NodeSet};

fn arb_edge_list(directed: bool) -> impl Strategy<Value = EdgeList> {
    (2u32..40).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..150).prop_map(move |pairs| {
            let mut g = if directed {
                EdgeList::new_directed(n)
            } else {
                EdgeList::new_undirected(n)
            };
            for (u, v) in pairs {
                g.push(u, v);
            }
            g
        })
    })
}

fn arb_weighted_list() -> impl Strategy<Value = EdgeList> {
    (2u32..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.01f64..100.0), 0..100).prop_map(move |triples| {
            let mut g = EdgeList::new_undirected(n);
            for (u, v, w) in triples {
                g.push_weighted(u, v, w);
            }
            g
        })
    })
}

/// A script of mutable-graph ops: `0` adds the batch, `1` removes it,
/// `2` compacts. Ids reach past any base, so adds grow the node count;
/// the small id range makes self-loops, duplicate adds and absent
/// removes common.
fn arb_delta_script() -> impl Strategy<Value = Vec<(u8, Vec<(u32, u32)>)>> {
    proptest::collection::vec(
        (
            0u8..3,
            proptest::collection::vec((0u32..24, 0u32..24), 0..6),
        ),
        0..40,
    )
}

fn list_of(kind: GraphKind, num_nodes: u32, edges: &[(u32, u32)]) -> EdgeList {
    let mut list = match kind {
        GraphKind::Undirected => EdgeList::new_undirected(num_nodes),
        GraphKind::Directed => EdgeList::new_directed(num_nodes),
    };
    list.edges = edges.to_vec();
    list
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dsg_graph_proptests");
    std::fs::create_dir_all(&dir).unwrap();
    // Thread id keeps parallel proptest cases from clobbering each other.
    dir.join(format!("{tag}_{:?}.tmp", std::thread::current().id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Text I/O round-trips edges (and weights) exactly.
    #[test]
    fn text_io_round_trip(list in arb_edge_list(false)) {
        let path = tmp_path("text");
        write_text(&path, &list).unwrap();
        let back = read_text(&path, GraphKind::Undirected).unwrap();
        prop_assert_eq!(&back.edges, &list.edges);
        prop_assert_eq!(back.weights, list.weights);
    }

    /// Binary I/O round-trips exactly, including directedness and weights.
    #[test]
    fn binary_io_round_trip(list in arb_weighted_list()) {
        let path = tmp_path("bin");
        write_binary(&path, &list).unwrap();
        let back = read_binary(&path).unwrap();
        prop_assert_eq!(back.num_nodes, list.num_nodes);
        prop_assert_eq!(&back.edges, &list.edges);
        prop_assert_eq!(back.weights, list.weights);
        prop_assert_eq!(back.kind, list.kind);
    }

    /// Canonicalization is idempotent and never grows the edge set.
    #[test]
    fn canonicalize_idempotent(list in arb_edge_list(false)) {
        let mut once = list.clone();
        once.canonicalize();
        prop_assert!(once.num_edges() <= list.num_edges());
        // Sorted, deduped, self-loop free, (min, max)-oriented.
        for w in once.edges.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &(u, v) in &once.edges {
            prop_assert!(u < v);
        }
        let mut twice = once.clone();
        twice.canonicalize();
        prop_assert_eq!(once.edges, twice.edges);
    }

    /// CSR degrees sum to twice the edge count, and per-node degrees
    /// match the edge list.
    #[test]
    fn csr_degree_consistency(list in arb_edge_list(false)) {
        let mut canon = list.clone();
        canon.canonicalize();
        let csr = CsrUndirected::from_edge_list(&canon);
        let total: usize = (0..csr.num_nodes() as u32).map(|u| csr.degree(u)).sum();
        prop_assert_eq!(total, 2 * canon.num_edges());
        let expected = canon.degrees_out();
        for u in 0..csr.num_nodes() as u32 {
            prop_assert_eq!(csr.degree(u) as f64, expected[u as usize]);
        }
        // Induced edge count over the full set equals total edges.
        let full = NodeSet::full(csr.num_nodes());
        prop_assert_eq!(csr.induced_edge_count(&full), canon.num_edges());
    }

    /// Directed CSR: out/in adjacency agree with each other and the list.
    #[test]
    fn csr_directed_consistency(list in arb_edge_list(true)) {
        let csr = CsrDirected::from_edge_list(&list);
        let out_total: usize = (0..csr.num_nodes() as u32).map(|u| csr.out_degree(u)).sum();
        let in_total: usize = (0..csr.num_nodes() as u32).map(|v| csr.in_degree(v)).sum();
        prop_assert_eq!(out_total, list.num_edges());
        prop_assert_eq!(in_total, list.num_edges());
        // Every arc is visible from both sides.
        for &(u, v) in &list.edges {
            prop_assert!(csr.out_neighbors(u).contains(&v));
            prop_assert!(csr.in_neighbors(v).contains(&u));
        }
    }

    /// A memory stream delivers exactly the edge list, every pass.
    #[test]
    fn stream_is_faithful(list in arb_weighted_list()) {
        let expected: Vec<(u32, u32, f64)> = list.iter_weighted().collect();
        let mut stream = MemoryStream::new(list);
        for pass in 1..=3u64 {
            let mut got = Vec::new();
            stream.for_each_edge(&mut |u, v, w| got.push((u, v, w)));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(stream.passes(), pass);
        }
    }

    /// The full out-of-core format chain round-trips:
    /// `EdgeList -> text -> EdgeList -> binary -> EdgeList` preserves
    /// edges, weights, and directedness exactly.
    #[test]
    fn text_binary_chain_round_trip(list in arb_weighted_list()) {
        let text = tmp_path("chain_text");
        write_text(&text, &list).unwrap();
        let from_text = read_text(&text, list.kind).unwrap();
        prop_assert_eq!(&from_text.edges, &list.edges);
        prop_assert_eq!(&from_text.weights, &list.weights);

        let bin = tmp_path("chain_bin");
        write_binary(&bin, &from_text).unwrap();
        let from_bin = read_binary(&bin).unwrap();
        prop_assert_eq!(&from_bin.edges, &list.edges);
        prop_assert_eq!(&from_bin.weights, &list.weights);
        prop_assert_eq!(from_bin.kind, list.kind);
        prop_assert_eq!(from_bin.num_nodes, from_text.num_nodes);
    }

    /// The file streams deliver exactly the same edge sequence as the
    /// memory stream over the same list, for both on-disk formats, on
    /// every pass.
    #[test]
    fn file_streams_match_memory_stream(list in arb_weighted_list()) {
        let expected: Vec<(u32, u32, f64)> = list.iter_weighted().collect();
        let n = list.num_nodes;

        let text = tmp_path("stream_text");
        write_text(&text, &list).unwrap();
        let mut ts = FileStream::open(&text, false)
            .and_then(|s| s.with_num_nodes(n))
            .unwrap();
        prop_assert_eq!(ts.num_edges(), expected.len() as u64);
        for pass in 1..=2u64 {
            let mut got = Vec::new();
            ts.for_each_edge(&mut |u, v, w| got.push((u, v, w)));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(ts.passes(), pass);
        }
        prop_assert!(ts.take_error().is_none());

        let bin = tmp_path("stream_bin");
        write_binary(&bin, &list).unwrap();
        let mut bs = FileStream::open(&bin, true).unwrap();
        prop_assert_eq!(bs.num_nodes(), n);
        for pass in 1..=2u64 {
            let mut got = Vec::new();
            bs.for_each_edge(&mut |u, v, w| got.push((u, v, w)));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(bs.passes(), pass);
        }
        prop_assert!(bs.take_error().is_none());
    }

    /// A text `FileStream` infers the tightest node bound that
    /// still streams the file (max id + 1).
    #[test]
    fn open_auto_infers_tight_bound(list in arb_edge_list(false)) {
        let path = tmp_path("auto");
        write_text(&path, &list).unwrap();
        let s = FileStream::open(&path, false).unwrap();
        let max_id = list.edges.iter().map(|&(u, v)| u.max(v)).max();
        match max_id {
            Some(mx) => prop_assert_eq!(s.num_nodes(), mx + 1),
            None => prop_assert_eq!(s.num_nodes(), 0),
        }
    }

    /// Weighted totals are preserved by canonicalization (weights of
    /// merged duplicates are summed; self-loop weight is dropped).
    #[test]
    fn canonicalize_preserves_weight_mass(list in arb_weighted_list()) {
        let loop_weight: f64 = list
            .iter_weighted()
            .filter(|&(u, v, _)| u == v)
            .map(|(_, _, w)| w)
            .sum();
        let before = list.total_weight();
        let mut canon = list;
        canon.canonicalize();
        let after = canon.total_weight();
        prop_assert!((before - loop_weight - after).abs() < 1e-6 * before.max(1.0));
    }

    /// The per-edge content hash equals a hash computed from scratch
    /// after every op, on both orientations, and it changes whenever an
    /// op changes the edge set.
    #[test]
    fn delta_content_hash_matches_a_rebuild(
        base in proptest::collection::vec((0u32..12, 0u32..12), 0..20),
        isolated in 0u32..3,
        script in arb_delta_script(),
    ) {
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let n = base.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0) + isolated;
            let mut g = DeltaGraph::new(list_of(kind, n, &base)).unwrap();
            for (op, batch) in &script {
                let before = g.content_hash();
                let applied = match op {
                    0 => g.add_edges(batch).unwrap(),
                    1 => g.remove_edges(batch),
                    _ => {
                        g.compact();
                        0
                    }
                };
                let rebuilt = DeltaGraph::new(g.materialize()).unwrap();
                prop_assert_eq!(g.content_hash(), rebuilt.content_hash());
                prop_assert_eq!(applied > 0, g.content_hash() != before);
            }
        }
    }

    /// Equal content hashes equal whatever history reached it; the same
    /// edges under another node count or orientation hash differently.
    #[test]
    fn delta_content_hash_depends_on_content_only(script in arb_delta_script()) {
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let mut g = DeltaGraph::new_empty(kind);
            for (op, batch) in &script {
                match op {
                    0 => {
                        g.add_edges(batch).unwrap();
                    }
                    1 => {
                        g.remove_edges(batch);
                    }
                    _ => g.compact(),
                }
            }
            let n = g.num_nodes();
            let edges = g.materialize().edges;
            // Another history: the same edges added in reverse order in
            // two batches over an empty base of `n` nodes, a compact in
            // between, and a decoy edge added and removed.
            let mut other = DeltaGraph::new(list_of(kind, n, &[])).unwrap();
            let reversed: Vec<(u32, u32)> = edges.iter().rev().copied().collect();
            let (first, second) = reversed.split_at(reversed.len() / 2);
            other.add_edges(first).unwrap();
            other.compact();
            other.add_edges(second).unwrap();
            if n >= 2 && !g.contains(n - 1, 0) {
                prop_assert_eq!(other.add_edges(&[(n - 1, 0)]).unwrap(), 1);
                prop_assert_eq!(other.remove_edges(&[(n - 1, 0)]), 1);
            }
            prop_assert_eq!(other.num_nodes(), n);
            prop_assert_eq!(other.content_hash(), g.content_hash());

            let grown = DeltaGraph::new(list_of(kind, n + 1, &edges)).unwrap();
            prop_assert!(grown.content_hash() != g.content_hash());
            if kind == GraphKind::Undirected {
                let directed = DeltaGraph::new(list_of(GraphKind::Directed, n, &edges)).unwrap();
                prop_assert!(directed.content_hash() != g.content_hash());
            }
        }
    }
}
