//! Property/fuzz suite for the durability layer, mirroring
//! `frame_props.rs` for the WAL: a random op sequence appended to a
//! write-ahead log and recovered must materialize bit-identically to
//! the in-memory session that applied the same ops live, truncating the
//! log at **every byte boundary** must recover exactly the intact
//! prefix (torn tails dropped whole, never half-replayed), and a
//! restarted catalog must resume at the exact versions it stopped at —
//! including the version of a record appended but never acknowledged
//! (the kill-between-append-and-publish case).

use std::borrow::Cow;
use std::io::Write;
use std::path::PathBuf;

use dsg_engine::catalog::GraphCatalog;
use dsg_engine::persistence::{encode_record, Durability};
use dsg_engine::{Engine, MutateOp, ResourcePolicy};
use dsg_graph::wal::SessionOp;
use dsg_graph::{DeltaGraph, GraphKind};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dsg-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical `(num_nodes, edges)` content of a session state.
fn content(state: &DeltaGraph) -> (u32, Vec<(u32, u32)>) {
    let mut list = state.materialize();
    list.canonicalize();
    (list.num_nodes, list.edges)
}

/// One step of a generated session script.
#[derive(Clone, Debug)]
enum Step {
    Add(Vec<(u32, u32)>),
    Remove(Vec<(u32, u32)>),
    Compact,
}

fn make_steps(spec: &[(u8, Vec<(u32, u32)>)]) -> Vec<Step> {
    spec.iter()
        .map(|(sel, edges)| match sel % 3 {
            0 => Step::Add(edges.clone()),
            1 => Step::Remove(edges.clone()),
            _ => Step::Compact,
        })
        .collect()
}

/// Applies one step the way `mutate_named` does (apply, then the
/// ratio-triggered auto-compact) — the live reference the recovered
/// state must match bit-for-bit.
fn apply_live(state: &mut DeltaGraph, step: &Step, ratio: f64) {
    let applied = match step {
        Step::Add(edges) => state.add_edges(edges).unwrap(),
        Step::Remove(edges) => state.remove_edges(edges),
        Step::Compact => {
            if state.delta_edges() > 0 {
                state.compact();
            }
            0
        }
    };
    if applied > 0 {
        state.maybe_compact(ratio);
    }
}

fn step_op(step: &Step) -> SessionOp<'_> {
    match step {
        Step::Add(edges) => SessionOp::Add(Cow::Borrowed(edges)),
        Step::Remove(edges) => SessionOp::Remove(Cow::Borrowed(edges)),
        Step::Compact => SessionOp::Compact,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The WAL round-trip contract: append a random session script,
    /// recover from disk (snapshot rotation and fsync cadence
    /// randomized so both replay-from-snapshot and pure-WAL replay are
    /// exercised), and the recovered graph is bit-identical to the live
    /// session — same content, same version, same name.
    #[test]
    fn wal_recovery_matches_live_session(
        directed in any::<bool>(),
        seed in proptest::collection::vec((0u32..32, 0u32..32), 0..12),
        spec in proptest::collection::vec(
            (0u8..=2, proptest::collection::vec((0u32..32, 0u32..32), 0..8)),
            0..16,
        ),
        snapshot_every in 1u64..8,
        fsync_every in 0u64..3,
        case in 0u32..1_000_000,
    ) {
        let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
        let ratio = 1.0;
        let root = tmpdir(&format!("prop-{case}"));
        let durability = Durability::open(&root, fsync_every, snapshot_every).unwrap();

        let mut live = DeltaGraph::new_empty(kind);
        live.add_edges(&seed).unwrap();
        live.maybe_compact(ratio);
        let mut wal = durability.create_graph_wal("session").unwrap();
        wal.append(1, &SessionOp::Create { kind, edges: Cow::Borrowed(&seed) }, &live).unwrap();

        let steps = make_steps(&spec);
        let mut version = 1u64;
        for step in &steps {
            apply_live(&mut live, step, ratio);
            version += 1;
            wal.append(version, &step_op(step), &live).unwrap();
        }
        drop(wal);
        drop(durability);

        let reopened = Durability::open(&root, fsync_every, snapshot_every).unwrap();
        let recovered = reopened.recover().unwrap();
        prop_assert_eq!(recovered.len(), 1);
        let g = &recovered[0];
        prop_assert_eq!(g.name.as_str(), "session");
        prop_assert_eq!(g.version, version);
        prop_assert_eq!(g.dropped_tail_records, 0);
        prop_assert_eq!(content(&g.state), content(&live));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Truncation at every byte boundary (a torn append, a short write,
    /// a crash mid-record) recovers exactly the longest intact record
    /// prefix: a cut inside record k+1 replays records 1..=k and drops
    /// the tail whole — never a hybrid — and a cut inside the create
    /// record recovers "the graph does not exist".
    #[test]
    fn truncation_at_every_byte_recovers_the_intact_prefix(
        spec in proptest::collection::vec(
            (0u8..=1, proptest::collection::vec((0u32..16, 0u32..16), 1..4)),
            1..4,
        ),
        case in 0u32..1_000_000,
    ) {
        let ratio = 1.0;
        let root = tmpdir(&format!("trunc-{case}"));
        // Build the full log once (snapshot cadence too high to rotate,
        // so every record is in the file), tracking record boundaries
        // and the expected state after each record.
        let durability = Durability::open(&root, 0, 1_000).unwrap();
        let seed = vec![(0u32, 1u32), (1, 2)];
        let mut live = DeltaGraph::new_empty(GraphKind::Undirected);
        live.add_edges(&seed).unwrap();
        let mut wal = durability.create_graph_wal("g").unwrap();
        wal.append(
            1,
            &SessionOp::Create { kind: GraphKind::Undirected, edges: Cow::Borrowed(&seed) },
            &live,
        )
        .unwrap();
        let wal_path = root.join("graphs/g/wal.log");
        let mut boundaries = vec![std::fs::metadata(&wal_path).unwrap().len() as usize];
        let mut states = vec![content(&live)];
        let steps = make_steps(&spec);
        for (i, step) in steps.iter().enumerate() {
            apply_live(&mut live, step, ratio);
            wal.append(i as u64 + 2, &step_op(step), &live).unwrap();
            boundaries.push(std::fs::metadata(&wal_path).unwrap().len() as usize);
            states.push(content(&live));
        }
        drop(wal);
        drop(durability);
        let full = std::fs::read(&wal_path).unwrap();
        prop_assert_eq!(full.len(), *boundaries.last().unwrap());

        for cut in 0..=full.len() {
            let dir = tmpdir(&format!("trunc-{case}-cut"));
            std::fs::create_dir_all(dir.join("graphs/g")).unwrap();
            std::fs::write(dir.join("graphs/g/name"), b"g").unwrap();
            std::fs::write(dir.join("graphs/g/wal.log"), &full[..cut]).unwrap();
            let d = Durability::open(&dir, 0, 1_000).unwrap();
            let recovered = d.recover().unwrap();
            // Longest intact record prefix at or below the cut.
            let intact = boundaries.iter().filter(|&&b| b <= cut).count();
            let torn = boundaries.binary_search(&cut).is_err();
            if intact == 0 {
                prop_assert!(recovered.is_empty(), "cut {cut}: torn create must not exist");
            } else {
                prop_assert!(recovered.len() == 1, "cut {cut}: graph missing");
                let g = &recovered[0];
                prop_assert!(g.version == intact as u64, "cut {cut}: version {}", g.version);
                prop_assert!(g.replayed_ops == intact as u64, "cut {cut}: replayed {}", g.replayed_ops);
                prop_assert!(
                    g.dropped_tail_records == u64::from(torn),
                    "cut {cut}: dropped {}",
                    g.dropped_tail_records
                );
                prop_assert!(content(&g.state) == states[intact - 1], "cut {cut}: state diverged");
                // The torn tail was truncated away: the file ends at
                // the last intact boundary, ready for clean appends.
                let len = std::fs::metadata(dir.join("graphs/g/wal.log")).unwrap().len() as usize;
                prop_assert!(len == boundaries[intact - 1], "cut {cut}: file len {len}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A restarted catalog resumes at the exact versions the first process
/// published, content-identical, and keeps allocating strictly above
/// them — versions never regress across restarts.
#[test]
fn restart_resumes_exact_versions_and_content() {
    let root = tmpdir("restart");

    let first = GraphCatalog::new();
    first.open_data_dir(&root, 1, 4).unwrap();
    first
        .create_named("a", GraphKind::Undirected, &[(0, 1), (1, 2)])
        .unwrap();
    first
        .create_named("b", GraphKind::Directed, &[(3, 4)])
        .unwrap();
    // Enough mutations on `a` to cross the snapshot cadence, so
    // recovery exercises replay-over-snapshot on one graph and pure WAL
    // replay on the other.
    for i in 0u32..6 {
        first
            .mutate_named("a", MutateOp::Add(&[(i, i + 7), (i, i + 8)]))
            .unwrap();
    }
    first
        .mutate_named("a", MutateOp::Remove(&[(0, 7)]))
        .unwrap();
    first.mutate_named("a", MutateOp::Compact).unwrap();
    let out_b = first.mutate_named("b", MutateOp::Add(&[(4, 5)])).unwrap();
    let (ga, _) = first.get_named("a").unwrap();
    let (gb, _) = first.get_named("b").unwrap();
    let (va, ca) = (ga.snapshot().version, {
        let e = ga.snapshot();
        (e.meta.nodes, e.content_hash)
    });
    let (vb, cb) = (gb.snapshot().version, {
        let e = gb.snapshot();
        (e.meta.nodes, e.content_hash)
    });
    assert_eq!(vb, out_b.version);
    drop((ga, gb));
    drop(first);

    let second = GraphCatalog::new();
    let stats = second.open_data_dir(&root, 1, 4).unwrap();
    assert_eq!(stats.graphs, 2);
    assert_eq!(stats.dropped_tail_records, 0);
    assert_eq!(stats.max_version, va.max(vb));
    let (ga, _) = second.get_named("a").unwrap();
    let (gb, _) = second.get_named("b").unwrap();
    assert_eq!(ga.snapshot().version, va);
    assert_eq!(gb.snapshot().version, vb);
    assert_eq!((ga.snapshot().meta.nodes, ga.snapshot().content_hash), ca);
    assert_eq!((gb.snapshot().meta.nodes, gb.snapshot().content_hash), cb);
    // New versions continue strictly above the recovered ceiling.
    let next = second.mutate_named("b", MutateOp::Add(&[(5, 6)])).unwrap();
    assert!(
        next.version > va.max(vb),
        "{} > {}",
        next.version,
        va.max(vb)
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A seeded create auto-compacts (its seed outnumbers the empty base),
/// and recovery from the WAL alone must replay that compaction too: the
/// same delta and compaction counts as the live graph, and the next
/// mutation answers as it does on an uninterrupted catalog.
#[test]
fn wal_only_recovery_replays_the_seed_compaction() {
    let root = tmpdir("seed-compaction");
    let seed = [(0, 1), (1, 2), (2, 3), (3, 4)];
    let counts = |cat: &GraphCatalog| {
        let g = &cat.named_stats()[0];
        (g.delta_edges, g.compactions)
    };

    let live = GraphCatalog::new();
    live.open_data_dir(&root, 1, 100).unwrap();
    live.create_named("g", GraphKind::Undirected, &seed)
        .unwrap();
    assert_eq!(counts(&live), (0, 1));
    drop(live);

    // One record, far below the snapshot cadence: no snapshot exists.
    let recovered = GraphCatalog::new();
    let stats = recovered.open_data_dir(&root, 1, 100).unwrap();
    assert_eq!(stats.replayed_ops, 1);
    assert_eq!(counts(&recovered), (0, 1), "WAL-only recovery");

    let uninterrupted = GraphCatalog::new();
    uninterrupted
        .create_named("g", GraphKind::Undirected, &seed)
        .unwrap();
    let want = uninterrupted
        .mutate_named("g", MutateOp::Add(&[(0, 2)]))
        .unwrap();
    let got = recovered
        .mutate_named("g", MutateOp::Add(&[(0, 2)]))
        .unwrap();
    assert_eq!((want.compacted, want.delta_edges), (false, 1));
    assert_eq!((got.compacted, got.delta_edges), (false, 1));
    let _ = std::fs::remove_dir_all(&root);
}

/// The crash window the append-before-publish order leaves open: a
/// record hits the log but the process dies before the version is
/// published (the client never got an ack). Recovery must land on the
/// **post-op** state — the appended record replays whole — and the next
/// allocation stays above its version. Simulated by appending a record
/// to the on-disk log exactly as the crashed appender would have.
#[test]
fn kill_between_append_and_publish_recovers_post_op() {
    let root = tmpdir("append-publish");
    let first = GraphCatalog::new();
    first.open_data_dir(&root, 1, 100).unwrap();
    first
        .create_named("g", GraphKind::Undirected, &[(0, 1)])
        .unwrap();
    let out = first.mutate_named("g", MutateOp::Add(&[(1, 2)])).unwrap();
    drop(first);

    // The unacknowledged append: version allocated, record durable,
    // publish never happened.
    let mut rec = Vec::new();
    encode_record(
        out.version + 1,
        &SessionOp::Add(Cow::Owned(vec![(2, 3)])),
        &mut rec,
    );
    let wal_path = root.join("graphs/g/wal.log");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    f.write_all(&rec).unwrap();
    drop(f);

    let second = GraphCatalog::new();
    let stats = second.open_data_dir(&root, 1, 100).unwrap();
    assert_eq!(stats.dropped_tail_records, 0);
    assert_eq!(stats.max_version, out.version + 1);
    let (_g, entry) = second.get_named("g").unwrap();
    assert_eq!(entry.version, out.version + 1, "post-op, never hybrid");
    let mut list = entry.list.clone();
    list.canonicalize();
    assert_eq!(list.num_nodes, 4);
    assert_eq!(list.edges, vec![(0, 1), (1, 2), (2, 3)]);
    let next = second.mutate_named("g", MutateOp::Add(&[(3, 4)])).unwrap();
    assert_eq!(next.version, out.version + 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// Drops the nondeterministic trailing `elapsed_ms` field so responses
/// from different runs compare byte-for-byte.
fn strip_elapsed(line: &str) -> String {
    match line.find(",\"elapsed_ms\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

fn serve_lines(engine: &Engine, requests: &str) -> Vec<String> {
    let metrics = dsg_engine::ServeMetrics::new();
    let mut out = Vec::new();
    dsg_engine::serve_loop(
        engine,
        &ResourcePolicy::default(),
        requests.as_bytes(),
        &mut out,
        &metrics,
    )
    .unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The acceptance bar for the crash-recovery CI lane, in-process: after
/// a restart, session queries answer **byte-identically** (minus
/// `elapsed_ms`) to the uninterrupted server, and the `stats` op
/// reports the durability and recovery fields CI asserts on. The
/// `2 99` round trip leaves trailing isolated nodes (ids never shrink)
/// that a snapshot's edges do not imply; recovery must keep them.
#[test]
fn serve_responses_are_byte_identical_after_restart() {
    let root = tmpdir("serve-restart");
    let session = r#"{"op":"create_graph","graph":"g","edges":"0 1, 1 2, 2 3, 0 2"}
{"op":"add_edges","graph":"g","edges":"1 3, 3 4"}
{"op":"add_edges","graph":"g","edges":"2 99"}
{"op":"remove_edges","graph":"g","edges":"2 99"}
{"op":"remove_edges","graph":"g","edges":"0 1"}
"#;
    let query = r#"{"id":1,"algorithm":"approx","graph":"g","epsilon":0.5}
{"id":2,"algorithm":"charikar","graph":"g"}
"#;

    // Uninterrupted reference: one engine does everything.
    let reference = Engine::new();
    serve_lines(&reference, session);
    let want: Vec<String> = serve_lines(&reference, query)
        .iter()
        .map(|l| strip_elapsed(l))
        .collect();
    let (_, live) = reference.catalog().get_named("g").unwrap();
    assert_eq!(live.meta.nodes, 100);

    // Durable run: mutate, drop (the "crash" — kill -9 keeps the page
    // cache; fsync cadence does not matter here), restart, query.
    let first = Engine::new();
    first.catalog().open_data_dir(&root, 1, 2).unwrap();
    serve_lines(&first, session);
    drop(first);

    let second = Engine::new();
    let stats = second.catalog().open_data_dir(&root, 1, 2).unwrap();
    assert_eq!(stats.graphs, 1);
    // create=v1, add=v2, the round trip v3..v4 (snapshots rotate at v2
    // and v4), remove=v5 replayed over the v4 snapshot.
    assert_eq!(stats.max_version, 5);
    assert_eq!(stats.replayed_ops, 1);
    let (_, recovered) = second.catalog().get_named("g").unwrap();
    assert_eq!(
        (recovered.meta.nodes, recovered.content_hash),
        (live.meta.nodes, live.content_hash),
        "recovery must restore the snapshot's node count"
    );
    let got: Vec<String> = serve_lines(&second, query)
        .iter()
        .map(|l| strip_elapsed(l))
        .collect();
    assert_eq!(got, want, "post-recovery responses must be byte-identical");

    // Structured durability fields for CI's stats assertions.
    let stats_line = &serve_lines(&second, "{\"op\":\"stats\"}\n")[0];
    for field in [
        "\"replayed_ops\":",
        "\"dropped_tail_records\":0",
        "\"wal_bytes\":",
        "\"snapshot_version\":",
        "\"last_fsync\":",
    ] {
        assert!(
            stats_line.contains(field),
            "{field} missing in {stats_line}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
