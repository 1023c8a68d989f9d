//! Engine parity suite: for every algorithm × backend combination,
//! `Engine::execute` must return output (density, node set, passes)
//! **byte-identical** to the corresponding direct API call — the engine
//! is a router, never a reimplementation. Also covers the planner's
//! determinism/reporting contract and the catalog's load-once behavior
//! through the engine.

use std::path::PathBuf;

use densest_subgraph::core as dsg_core;
use densest_subgraph::engine::{
    mr_edge_splits, Algorithm, BackendRequest, Engine, Outcome, Query, Report, ResourcePolicy,
    Source,
};
use densest_subgraph::flow::{exact_densest_with, FlowBackend};
use densest_subgraph::graph::io::{read_text, write_text};
use densest_subgraph::graph::stream::{MemoryStream, TextFileStream};
use densest_subgraph::graph::{gen, CsrDirected, CsrUndirected, EdgeList, GraphKind};
use densest_subgraph::mapreduce::{mr_densest_undirected, MapReduceConfig, ShuffleBackend};
use densest_subgraph::sketch::{approx_densest_sketched, SketchParams};

const EPS: f64 = 0.5;

fn write_fixture(name: &str, list: &EdgeList) -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_engine_parity_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_text(&path, list).unwrap();
    path
}

/// The exact load sequence the engine's catalog performs for a text
/// file, reproduced directly so the reference runs see the same graph.
fn load_canonical(path: &std::path::Path, kind: GraphKind) -> EdgeList {
    let mut list = read_text(path, kind).unwrap();
    list.kind = kind;
    list.canonicalize();
    list
}

fn test_graph() -> EdgeList {
    gen::planted_dense_subgraph(300, 900, 25, 0.5, 42).graph
}

fn file_source(path: &std::path::Path) -> Source {
    Source::File {
        path: path.to_path_buf(),
        binary: false,
        directed_input: false,
    }
}

fn run_engine(
    engine: &Engine,
    source: &Source,
    query: Query,
    policy: ResourcePolicy,
    expect_backend: &str,
) -> Report {
    let report = engine.execute(source, &query, &policy).unwrap();
    assert_eq!(
        report.plan.backend.name(),
        expect_backend,
        "plan: {}",
        report.plan.explain()
    );
    report
}

/// Byte-level equality of an engine run against a direct
/// `UndirectedRun`: density bits, set, pass count, best pass.
fn assert_run_parity(report: &Report, direct: &dsg_core::result::UndirectedRun, label: &str) {
    assert_eq!(
        report.density().to_bits(),
        direct.best_density.to_bits(),
        "{label}: density"
    );
    assert_eq!(
        report.best_set().expect("set"),
        &direct.best_set,
        "{label}: node set"
    );
    assert_eq!(report.passes(), Some(direct.passes), "{label}: passes");
}

#[test]
fn approx_parity_across_every_backend() {
    let list = test_graph();
    let path = write_fixture("approx.txt", &list);
    let canonical = load_canonical(&path, GraphKind::Undirected);
    let csr = CsrUndirected::from_edge_list(&canonical);
    let source = file_source(&path);
    let engine = Engine::new();
    let approx = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    });

    // In-memory serial.
    let direct = dsg_core::undirected::approx_densest_csr(&csr, EPS);
    let report = run_engine(
        &engine,
        &source,
        approx,
        ResourcePolicy::default(),
        "memory",
    );
    assert_run_parity(&report, &direct, "serial");

    // More threads: the same serial in-memory peel.
    let report = run_engine(
        &engine,
        &source,
        approx,
        ResourcePolicy {
            memory_budget_bytes: None,
            threads: 3,
        },
        "memory",
    );
    assert_run_parity(&report, &direct, "3 threads");
    assert_eq!(report.threads, 1);

    // File-streamed (forced, and again via a tight budget).
    let mut stream = TextFileStream::open_auto(&path).unwrap();
    let direct_stream = dsg_core::undirected::try_approx_densest(&mut stream, EPS).unwrap();
    for (label, query, policy) in [
        (
            "forced stream",
            Query {
                backend: Some(BackendRequest::Streamed),
                ..approx
            },
            ResourcePolicy::default(),
        ),
        (
            "budget stream",
            approx,
            ResourcePolicy {
                memory_budget_bytes: Some(1_000),
                threads: 1,
            },
        ),
    ] {
        let report = run_engine(&engine, &source, query, policy, "stream");
        assert_run_parity(&report, &direct_stream, label);
        assert!(report.state_bytes.is_some(), "{label}: state accounting");
    }

    // Sketched over the in-memory list.
    let sketched = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: Some(64),
    });
    let mut mem = MemoryStream::new(canonical.clone());
    let direct_sk = approx_densest_sketched(&mut mem, EPS, SketchParams::paper(64, 0));
    let report = run_engine(
        &engine,
        &source,
        sketched,
        ResourcePolicy::default(),
        "sketch",
    );
    assert_run_parity(&report, &direct_sk.run, "sketch");
    assert_eq!(
        report.sketch_words,
        Some((direct_sk.sketch_words as u64, direct_sk.exact_words as u64))
    );

    // MapReduce (in-RAM shuffle), 2 workers.
    let config = MapReduceConfig {
        num_workers: 2,
        num_reducers: 8,
        combine: true,
        shuffle: ShuffleBackend::InMemory,
    };
    let direct_mr = mr_densest_undirected(
        &config,
        canonical.num_nodes,
        mr_edge_splits(&canonical, 2),
        EPS,
    );
    let report = run_engine(
        &engine,
        &source,
        Query {
            backend: Some(BackendRequest::MapReduce),
            ..approx
        },
        ResourcePolicy {
            memory_budget_bytes: None,
            threads: 2,
        },
        "mapreduce",
    );
    assert_eq!(
        report.density().to_bits(),
        direct_mr.best_density.to_bits(),
        "mapreduce: density"
    );
    assert_eq!(
        report.best_set().unwrap(),
        &direct_mr.best_set,
        "mapreduce: node set"
    );
    assert_eq!(report.passes(), Some(direct_mr.passes), "mapreduce: passes");
    assert!(report.shuffle.is_some(), "mapreduce: shuffle accounting");
}

#[test]
fn atleast_k_parity_across_backends() {
    let list = test_graph();
    let path = write_fixture("atleastk.txt", &list);
    let canonical = load_canonical(&path, GraphKind::Undirected);
    let csr = CsrUndirected::from_edge_list(&canonical);
    let source = file_source(&path);
    let engine = Engine::new();
    let k = 40;
    let query = Query::new(Algorithm::AtLeastK { k, epsilon: EPS });
    let eps_used = EPS.max(1e-6);

    // Serial runs the decremental CSR peel. On this unweighted graph it
    // equals the MemoryStream recount bit for bit, so both are
    // references: the stream run checks the cross-path parity, the CSR
    // run the call the engine makes.
    let mut mem = MemoryStream::new(canonical.clone());
    let direct = dsg_core::large::approx_densest_at_least_k(&mut mem, k, eps_used);
    let report = run_engine(&engine, &source, query, ResourcePolicy::default(), "memory");
    assert_run_parity(&report, &direct, "serial");
    let direct_csr = dsg_core::large::approx_densest_at_least_k_csr(&csr, k, eps_used);
    assert_run_parity(&report, &direct_csr, "serial csr");

    // A weighted file takes the same CSR peel, bit for bit (the stream
    // recount agrees with it only up to floating-point rounding).
    let weighted = write_fixture(
        "atleastk_weighted.txt",
        &gen::weighted_powerlaw(120, 0.5, 900.0),
    );
    let weighted_csr =
        CsrUndirected::from_edge_list(&load_canonical(&weighted, GraphKind::Undirected));
    let direct_weighted =
        dsg_core::large::approx_densest_at_least_k_csr(&weighted_csr, 10, eps_used);
    let report = run_engine(
        &engine,
        &file_source(&weighted),
        Query::new(Algorithm::AtLeastK {
            k: 10,
            epsilon: EPS,
        }),
        ResourcePolicy::default(),
        "memory",
    );
    assert_run_parity(&report, &direct_weighted, "serial weighted");

    let report = run_engine(
        &engine,
        &source,
        query,
        ResourcePolicy {
            memory_budget_bytes: None,
            threads: 4,
        },
        "memory",
    );
    assert_run_parity(&report, &direct_csr, "4 threads");

    let mut stream = TextFileStream::open_auto(&path).unwrap();
    let direct_stream =
        dsg_core::large::try_approx_densest_at_least_k(&mut stream, k, eps_used).unwrap();
    let report = run_engine(
        &engine,
        &source,
        Query {
            backend: Some(BackendRequest::Streamed),
            ..query
        },
        ResourcePolicy::default(),
        "stream",
    );
    assert_run_parity(&report, &direct_stream, "stream");
}

#[test]
fn directed_parity_serial_and_parallel() {
    let list = gen::directed_gnp(150, 0.05, 9);
    let path = write_fixture("directed.txt", &list);
    let canonical = load_canonical(&path, GraphKind::Directed);
    let csr = CsrDirected::from_edge_list(&canonical);
    let source = file_source(&path);
    let engine = Engine::new();
    let (delta, eps) = (2.0, 0.5);
    let query = Query::new(Algorithm::Directed {
        delta,
        epsilon: eps,
    });

    let direct = dsg_core::directed::sweep_c_csr(&csr, delta, eps);
    let report = run_engine(&engine, &source, query, ResourcePolicy::default(), "memory");
    let Outcome::Sweep(sweep) = &report.outcome else {
        panic!("directed query must yield a sweep");
    };
    assert_eq!(
        sweep.best.best_density.to_bits(),
        direct.best.best_density.to_bits()
    );
    assert_eq!(sweep.best.best_s, direct.best.best_s);
    assert_eq!(sweep.best.best_t, direct.best.best_t);
    assert_eq!(sweep.best.c.to_bits(), direct.best.c.to_bits());
    assert_eq!(sweep.best.passes, direct.best.passes);
    assert_eq!(sweep.per_c, direct.per_c);

    // A parallel request runs the same serial sweep.
    let report = run_engine(
        &engine,
        &source,
        query,
        ResourcePolicy {
            memory_budget_bytes: None,
            threads: 3,
        },
        "memory",
    );
    let Outcome::Sweep(sweep) = &report.outcome else {
        panic!("directed query must yield a sweep");
    };
    assert_eq!(
        sweep.best.best_density.to_bits(),
        direct.best.best_density.to_bits()
    );
    assert_eq!(sweep.best.best_s, direct.best.best_s);
    assert_eq!(sweep.best.best_t, direct.best.best_t);
    assert_eq!(sweep.best.passes, direct.best.passes);
    assert_eq!(sweep.per_c, direct.per_c);
}

#[test]
fn report_threads_counts_the_threads_the_run_used() {
    let list = test_graph();
    let path = write_fixture("report_threads.txt", &list);
    let source = file_source(&path);
    let engine = Engine::new();
    let approx = Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    };
    let four = ResourcePolicy {
        memory_budget_bytes: None,
        threads: 4,
    };
    let sketched = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: Some(64),
    });
    let mapreduce = Query {
        backend: Some(BackendRequest::MapReduce),
        ..Query::new(approx)
    };
    // Only the MapReduce backend runs its peel on the policy's threads.
    for (query, backend, threads) in [
        (sketched, "sketch", 1),
        (Query::new(approx), "memory", 1),
        (mapreduce, "mapreduce", 4),
    ] {
        let report = run_engine(&engine, &source, query, four, backend);
        assert_eq!(report.threads, threads, "{backend}");
        let line = report.json_object(false);
        assert!(line.contains(&format!("\"threads\":{threads}")), "{line}");
        let serial_note = "4 threads size MapReduce workers only → serial run";
        assert_eq!(
            report.plan.reasons.last().map(String::as_str) == Some(serial_note),
            threads == 1,
            "{backend}: {}",
            report.plan.explain()
        );
    }
}

#[test]
fn charikar_exact_enumerate_parity() {
    let list = test_graph();
    let path = write_fixture("inmem.txt", &list);
    let canonical = load_canonical(&path, GraphKind::Undirected);
    let csr = CsrUndirected::from_edge_list(&canonical);
    let source = file_source(&path);
    let engine = Engine::new();

    let direct = dsg_core::charikar::charikar_peel(&csr);
    let report = run_engine(
        &engine,
        &source,
        Query::new(Algorithm::Charikar),
        ResourcePolicy::default(),
        "memory",
    );
    assert_eq!(report.density().to_bits(), direct.best_density.to_bits());
    assert_eq!(report.best_set().unwrap(), &direct.best_set);

    for flow in [FlowBackend::Dinic, FlowBackend::PushRelabel] {
        let direct = exact_densest_with(&csr, flow);
        let report = run_engine(
            &engine,
            &source,
            Query::new(Algorithm::Exact { flow }),
            ResourcePolicy::default(),
            "memory",
        );
        let Outcome::Exact(r) = &report.outcome else {
            panic!("exact query must yield an exact outcome");
        };
        assert_eq!(r.density.to_bits(), direct.density.to_bits(), "{flow:?}");
        assert_eq!(r.set, direct.set, "{flow:?}");
        assert_eq!(r.flow_calls, direct.flow_calls, "{flow:?}");
    }

    let opts = dsg_core::enumerate::EnumerateOptions {
        epsilon: 0.1,
        min_density: 1.0,
        max_communities: 32,
    };
    let direct = dsg_core::enumerate::enumerate_dense_subgraphs(&csr, opts);
    let report = run_engine(
        &engine,
        &source,
        Query::new(Algorithm::Enumerate {
            epsilon: 0.1,
            min_density: 1.0,
            max_communities: 32,
        }),
        ResourcePolicy::default(),
        "memory",
    );
    let Outcome::Communities(comms) = &report.outcome else {
        panic!("enumerate query must yield communities");
    };
    assert_eq!(comms.len(), direct.len());
    for (a, b) in comms.iter().zip(&direct) {
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.density.to_bits(), b.density.to_bits());
        assert_eq!(a.round, b.round);
    }
}

#[test]
fn memory_source_matches_file_source() {
    let list = test_graph();
    let path = write_fixture("memsource.txt", &list);
    let engine = Engine::new();
    let query = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    });
    let from_file = engine
        .execute(&file_source(&path), &query, &ResourcePolicy::default())
        .unwrap();
    let from_memory = engine
        .execute(
            &Source::Memory {
                list,
                label: "in-memory".into(),
            },
            &query,
            &ResourcePolicy::default(),
        )
        .unwrap();
    assert_eq!(
        from_file.density().to_bits(),
        from_memory.density().to_bits()
    );
    assert_eq!(from_file.best_set(), from_memory.best_set());
    assert_eq!(from_file.passes(), from_memory.passes());
    assert_eq!(
        from_memory.cache_hit, None,
        "memory sources bypass the catalog"
    );
}

#[test]
fn catalog_loads_once_across_queries_and_algorithms() {
    let list = test_graph();
    let path = write_fixture("catalog.txt", &list);
    let source = file_source(&path);
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    engine
        .execute(
            &source,
            &Query::new(Algorithm::Approx {
                epsilon: EPS,
                sketch: None,
            }),
            &policy,
        )
        .unwrap();
    engine
        .execute(
            &source,
            &Query::new(Algorithm::AtLeastK {
                k: 10,
                epsilon: EPS,
            }),
            &policy,
        )
        .unwrap();
    engine
        .execute(&source, &Query::new(Algorithm::Charikar), &policy)
        .unwrap();
    let stats = engine.catalog().stats();
    assert_eq!(stats.loads, 1, "one load serves every undirected query");
    assert_eq!(stats.hits, 2);
    assert_eq!(engine.catalog().len(), 1);

    // A streamed query re-reads the file by design and never loads.
    engine
        .execute(
            &source,
            &Query {
                algorithm: Algorithm::Approx {
                    epsilon: EPS,
                    sketch: None,
                },
                backend: Some(BackendRequest::Streamed),
            },
            &policy,
        )
        .unwrap();
    assert_eq!(engine.catalog().stats().loads, 1);
}

#[test]
fn plans_are_deterministic_and_reported() {
    let list = test_graph();
    let path = write_fixture("plans.txt", &list);
    let source = file_source(&path);
    let engine = Engine::new();
    let query = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    });
    let tight = ResourcePolicy {
        memory_budget_bytes: Some(2_000),
        threads: 1,
    };
    let a = engine.plan(&source, &query, &tight).unwrap();
    let b = engine.plan(&source, &query, &tight).unwrap();
    assert_eq!(a, b, "same inputs must yield the same plan");
    assert_eq!(a.backend.name(), "stream");
    assert!(!a.reasons.is_empty());

    // The executed plan is carried in the report and the JSON summary.
    let report = engine.execute(&source, &query, &tight).unwrap();
    assert_eq!(report.plan, a);
    let json = report.json_object(true);
    assert!(json.contains("\"backend\":\"stream\""), "{json}");
    assert!(json.contains("\"plan\":\""), "{json}");
    assert!(json.contains("\"elapsed_ms\":"), "{json}");
    // Without elapsed time the summary is fully deterministic.
    let again = engine.execute(&source, &query, &tight).unwrap();
    assert_eq!(report.json_object(false), again.json_object(false));
}

#[test]
fn result_cache_replays_byte_identically_and_invalidates_on_edit() {
    let list = test_graph();
    let path = write_fixture("resultcache.txt", &list);
    let source = file_source(&path);
    let engine = Engine::new();
    let query = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    });
    let policy = ResourcePolicy::default();

    let cold = engine.execute(&source, &query, &policy).unwrap();
    assert_eq!(cold.result_cache_hit, Some(false), "first run computes");
    let replay = engine.execute(&source, &query, &policy).unwrap();
    assert_eq!(replay.result_cache_hit, Some(true), "second run replays");
    // Byte-identical minus elapsed_ms — the whole point of the cache.
    assert_eq!(cold.json_object(false), replay.json_object(false));
    assert_eq!(cold.density().to_bits(), replay.density().to_bits());
    assert_eq!(cold.best_set(), replay.best_set());
    let stats = engine.results().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // A different parameter is a different canonical query.
    let other = Query::new(Algorithm::Approx {
        epsilon: 0.25,
        sketch: None,
    });
    let miss = engine.execute(&source, &other, &policy).unwrap();
    assert_eq!(miss.result_cache_hit, Some(false));

    // Editing the file changes the fingerprint, so the stale result is
    // structurally unreachable: the same query recomputes.
    let edited = gen::planted_dense_subgraph(300, 900, 25, 0.5, 43).graph;
    write_text(&path, &edited).unwrap();
    let recomputed = engine.execute(&source, &query, &policy).unwrap();
    assert_eq!(
        recomputed.result_cache_hit,
        Some(false),
        "file edits invalidate via the fingerprint key"
    );
    assert_eq!(engine.catalog().stats().loads, 2, "reload after edit");
}

#[test]
fn streamed_runs_and_memory_sources_bypass_the_result_cache() {
    let list = test_graph();
    let path = write_fixture("rc_bypass.txt", &list);
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let streamed = Query {
        algorithm: Algorithm::Approx {
            epsilon: EPS,
            sketch: None,
        },
        backend: Some(BackendRequest::Streamed),
    };
    let a = engine
        .execute(&file_source(&path), &streamed, &policy)
        .unwrap();
    let b = engine
        .execute(&file_source(&path), &streamed, &policy)
        .unwrap();
    assert_eq!(a.result_cache_hit, None);
    assert_eq!(b.result_cache_hit, None);
    let from_memory = engine
        .execute(
            &Source::Memory {
                list,
                label: "mem".into(),
            },
            &Query::new(Algorithm::Charikar),
            &policy,
        )
        .unwrap();
    assert_eq!(from_memory.result_cache_hit, None);
    let stats = engine.results().stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.insertions),
        (0, 0, 0),
        "bypassed runs never touch the cache"
    );
}

#[test]
fn shared_engine_serves_concurrent_cold_queries_with_one_load() {
    let list = test_graph();
    let path = write_fixture("shared.txt", &list);
    let engine = Engine::new();
    let query = Query::new(Algorithm::Approx {
        epsilon: EPS,
        sketch: None,
    });
    let policy = ResourcePolicy::default();
    let threads = 6;
    let barrier = std::sync::Barrier::new(threads);
    let jsons: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (engine, path, query, policy) = (&engine, &path, &query, &policy);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    engine
                        .execute(&file_source(path), query, policy)
                        .unwrap()
                        .json_object(false)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        engine.catalog().stats().loads,
        1,
        "single-flight: concurrent cold queries trigger exactly one load"
    );
    for j in &jsons[1..] {
        assert_eq!(&jsons[0], j, "every thread sees the identical summary");
    }
    // At least the stragglers replay from the result cache; the racers
    // that missed simultaneously each computed (and the last insert
    // simply overwrote with an identical report).
    let stats = engine.results().stats();
    assert_eq!(stats.hits + stats.misses, threads as u64);
}

// ----- mutable sessions & warm restarts (PR 5) ----------------------

/// The cold reference for a session query: a fresh engine computing the
/// same algorithm over the session's materialized edge list under the
/// same label, so the whole JSON summary is byte-comparable.
fn cold_reference(list: &EdgeList, label: &str, query: &Query, policy: &ResourcePolicy) -> Report {
    Engine::new()
        .execute(
            &Source::Memory {
                list: list.clone(),
                label: label.to_string(),
            },
            query,
            policy,
        )
        .unwrap()
}

/// Pull the session's current materialized graph out of the catalog.
fn materialized(engine: &Engine, name: &str) -> EdgeList {
    let (_, entry) = engine.catalog().get_named(name).unwrap();
    entry.list.clone()
}

#[test]
fn warm_restart_is_byte_identical_to_cold_recompute() {
    // The acceptance criterion of the mutable-session PR: across
    // add-only, remove-heavy, and mixed deltas, every approx /
    // atleast-k / directed query on the mutated session graph must be
    // byte-identical (minus elapsed_ms) to a cold recompute over the
    // materialized graph.
    let base = gen::gnp(120, 0.08, 11);
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    engine
        .create_graph("und", GraphKind::Undirected, &base.edges)
        .unwrap();
    let dir_base = gen::gnp(80, 0.06, 5);
    engine
        .create_graph("dir", GraphKind::Directed, &dir_base.edges)
        .unwrap();

    let und_queries = [
        Query::new(Algorithm::Approx {
            epsilon: 0.5,
            sketch: None,
        }),
        Query::new(Algorithm::AtLeastK { k: 8, epsilon: 0.5 }),
    ];
    let dir_query = Query::new(Algorithm::Directed {
        delta: 2.0,
        epsilon: 0.5,
    });

    // Three delta shapes: add-only, remove-heavy, mixed.
    type Batch = [(u32, u32)];
    let rounds: [(&Batch, &Batch); 3] = [
        (&[(0, 5), (1, 6), (2, 7), (3, 8)], &[]),
        (&[], &[(0, 5), (1, 6), (2, 7), (0, 1), (0, 2), (1, 2)]),
        (&[(10, 90), (11, 91), (0, 1)], &[(3, 8), (10, 11)]),
    ];
    for (round, (adds, removes)) in rounds.iter().enumerate() {
        for name in ["und", "dir"] {
            if !adds.is_empty() {
                engine.add_edges(name, adds).unwrap();
            }
            if !removes.is_empty() {
                engine.remove_edges(name, removes).unwrap();
            }
        }
        for query in &und_queries {
            let warm = engine
                .execute(&Source::named("und"), query, &policy)
                .unwrap();
            let cold = cold_reference(&materialized(&engine, "und"), "und", query, &policy);
            assert_eq!(
                warm.json_object(false),
                cold.json_object(false),
                "round {round}, query {:?}",
                query.algorithm
            );
        }
        let warm = engine
            .execute(&Source::named("dir"), &dir_query, &policy)
            .unwrap();
        let cold = cold_reference(&materialized(&engine, "dir"), "dir", &dir_query, &policy);
        assert_eq!(
            warm.json_object(false),
            cold.json_object(false),
            "round {round}, directed"
        );
    }
    // Every round after the first had a seed with a small delta: a
    // maintenance tier (incremental re-peel, else warm re-peel) must
    // actually have been taken rather than recomputing cold.
    let warm = engine.warm_stats();
    let inc = engine.incremental_stats();
    assert!(
        warm.hits + inc.hits >= 6,
        "expected maintained re-peels, got warm {warm:?} + incremental {inc:?}"
    );
    assert!(inc.hits >= 1, "incremental tier never fired: {inc:?}");

    // A threads > 1 policy on the session graph matches cold too.
    let par_policy = ResourcePolicy {
        memory_budget_bytes: None,
        threads: 3,
    };
    let warm = engine
        .execute(&Source::named("und"), &und_queries[0], &par_policy)
        .unwrap();
    let cold = cold_reference(
        &materialized(&engine, "und"),
        "und",
        &und_queries[0],
        &par_policy,
    );
    assert_eq!(warm.json_object(false), cold.json_object(false));
}

#[test]
fn mutation_bumps_version_and_evicts_stale_results_eagerly() {
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let query = Query::new(Algorithm::Approx {
        epsilon: 0.5,
        sketch: None,
    });
    engine
        .create_graph("g", GraphKind::Undirected, &[(0, 1), (0, 2), (1, 2)])
        .unwrap();
    let first = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    assert_eq!(first.result_cache_hit, Some(false));
    let replay = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    assert_eq!(replay.result_cache_hit, Some(true), "same version replays");
    assert_eq!(engine.results().stats().entries, 1);

    // The mutation bumps the version and eagerly drops the old entry.
    let out = engine.add_edges("g", &[(0, 3), (1, 3), (2, 3)]).unwrap();
    assert!(out.changed);
    assert_eq!(
        engine.results().stats().entries,
        0,
        "stale-version entries are evicted eagerly, not lazily"
    );
    let after = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    assert_eq!(
        after.result_cache_hit,
        Some(false),
        "a stale replay across versions is structurally impossible"
    );
    assert!((after.density() - 1.5).abs() < 1e-12, "K4");
}

#[test]
fn content_roundtrip_replays_via_verified_warm_seed() {
    // add + remove that cancel out: the version advances twice but the
    // content hash returns to the seed's, so the warm path replays the
    // verified seed without recomputing — and a compact (version bump,
    // same content) does the same.
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let query = Query::new(Algorithm::Approx {
        epsilon: 0.5,
        sketch: None,
    });
    let base = gen::gnp(60, 0.1, 3);
    engine
        .create_graph("g", GraphKind::Undirected, &base.edges)
        .unwrap();
    let first = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    engine.add_edges("g", &[(0, 59)]).unwrap();
    engine.remove_edges("g", &[(0, 59)]).unwrap();
    let hits_before = engine.warm_stats().hits;
    let replayed = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    assert_eq!(engine.warm_stats().hits, hits_before + 1);
    assert_eq!(first.json_object(false), replayed.json_object(false));
    assert_eq!(replayed.result_cache_hit, Some(false));

    // And the replay primed the result cache for the new version.
    let cached = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    assert_eq!(cached.result_cache_hit, Some(true));
}

#[test]
fn large_delta_re_peels_as_a_warm_hit() {
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let query = Query::new(Algorithm::Approx {
        epsilon: 0.5,
        sketch: None,
    });
    let base = gen::gnp(100, 0.08, 9);
    engine
        .create_graph("g", GraphKind::Undirected, &base.edges)
        .unwrap();
    engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    // A delta far past the incremental tier's affected-set budget
    // (gnp(100, 0.08) has ~400 edges; these 200 are all new and bring
    // 200 new nodes): the seeded query re-peels the snapshot, which
    // counts as a warm hit — warm fallbacks no longer exist.
    let adds: Vec<(u32, u32)> = (0..200).map(|i| (i, i + 101)).collect();
    engine.add_edges("g", &adds).unwrap();
    let warm_before = engine.warm_stats();
    let report = engine
        .execute(&Source::named("g"), &query, &policy)
        .unwrap();
    let warm_after = engine.warm_stats();
    assert_eq!(warm_after.hits, warm_before.hits + 1);
    assert_eq!(warm_after.fallbacks, 0);
    assert_eq!(
        engine.last_incremental().and_then(|d| d.reason),
        Some(dsg_core::THRESHOLD_REASON)
    );
    // The re-peel computes the correct cold answer.
    let cold = cold_reference(&materialized(&engine, "g"), "g", &query, &policy);
    assert_eq!(report.json_object(false), cold.json_object(false));
}

#[test]
fn named_source_errors_are_typed() {
    use densest_subgraph::engine::EngineError;
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let query = Query::new(Algorithm::Approx {
        epsilon: 0.5,
        sketch: None,
    });
    assert!(matches!(
        engine.execute(&Source::named("nope"), &query, &policy),
        Err(EngineError::UnknownGraph { .. })
    ));
    engine
        .create_graph("und", GraphKind::Undirected, &[(0, 1)])
        .unwrap();
    let directed = Query::new(Algorithm::Directed {
        delta: 2.0,
        epsilon: 0.5,
    });
    assert!(matches!(
        engine.execute(&Source::named("und"), &directed, &policy),
        Err(EngineError::Unsupported(_))
    ));
    assert!(matches!(
        engine.create_graph("und", GraphKind::Undirected, &[]),
        Err(EngineError::GraphExists { .. })
    ));
}

#[test]
fn named_graphs_support_the_forced_stream_backend() {
    // A forced out-of-core run on a session graph streams the snapshot
    // `execute` resolved up front (never a re-fetched one) and matches
    // the in-memory result on the same canonical graph.
    let engine = Engine::new();
    let policy = ResourcePolicy::default();
    let base = gen::gnp(80, 0.1, 21);
    engine
        .create_graph("s", GraphKind::Undirected, &base.edges)
        .unwrap();
    let forced = Query {
        algorithm: Algorithm::Approx {
            epsilon: 0.5,
            sketch: None,
        },
        backend: Some(BackendRequest::Streamed),
    };
    let streamed = engine
        .execute(&Source::named("s"), &forced, &policy)
        .unwrap();
    assert_eq!(streamed.plan.backend.name(), "stream");
    assert_eq!(
        streamed.result_cache_hit, None,
        "streamed runs bypass the result cache"
    );
    let in_memory = engine
        .execute(&Source::named("s"), &Query::new(forced.algorithm), &policy)
        .unwrap();
    assert_eq!(streamed.density().to_bits(), in_memory.density().to_bits());
    assert_eq!(
        streamed.best_set().unwrap().to_vec(),
        in_memory.best_set().unwrap().to_vec()
    );
    assert_eq!(streamed.passes(), in_memory.passes());
}
