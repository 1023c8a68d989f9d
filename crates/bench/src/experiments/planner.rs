//! **Planner experiment** — which backend does the resource-aware
//! planner pick at each scale, what does it cost, and does it return
//! the same answer?
//!
//! One graph is generated per scale and written to disk; the same
//! `approx` query is then planned and executed by the engine under a
//! grid of resource policies chosen to exercise every planner rule:
//!
//! * unbounded budget, 1 thread → in-memory;
//! * unbounded budget, 4 threads → still in-memory and serial (threads
//!   size MapReduce workers only);
//! * budget at 1/8 of the in-memory estimate → file-streamed;
//! * a sketch width on the query → sketched oracle;
//! * forced MapReduce under a tight budget → spill-to-disk shuffle.
//!
//! Each row records the planner's choice, the wall time, and parity
//! against the forced in-memory run. The run `assert!`s the planner
//! chose the expected backend and that every exact backend matched the
//! reference bit for bit (the sketched row reports its density ratio
//! instead — a sketch is an estimator, not an exact oracle), so a
//! planner regression fails the `repro planner` step loudly.

use std::path::PathBuf;

use dsg_datasets::{flickr_standin, Scale};
use dsg_engine::{planner, Algorithm, BackendRequest, Engine, Query, ResourcePolicy, Source};
use dsg_graph::io::write_text;

use crate::table::{fmt_f, Table};

/// One (policy, plan, result) measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Which policy case ran.
    pub case: &'static str,
    /// Backend the planner chose.
    pub backend: String,
    /// Nodes in the generated graph.
    pub nodes: u64,
    /// Edges in the generated graph.
    pub edges: u64,
    /// Wall-clock milliseconds of plan + execute.
    pub wall_ms: f64,
    /// Best density found.
    pub density: f64,
    /// Passes over the edge set (0 where the notion does not apply).
    pub passes: u32,
    /// `density / in-memory reference density`.
    pub ratio: f64,
    /// Result matches the forced in-memory run bit for bit.
    pub exact_match: bool,
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_planner_experiment");
    std::fs::create_dir_all(&dir).expect("cannot create planner data dir");
    dir
}

/// Runs the experiment at the given scale.
pub fn run(scale: Scale) -> Vec<Row> {
    let list = flickr_standin(scale);
    let path = data_dir().join(format!("edges_{}.txt", list.num_nodes));
    write_text(&path, &list).expect("write planner edge file");
    let source = Source::File {
        path,
        binary: false,
        directed_input: false,
    };
    let epsilon = 0.5;
    let approx = Query::new(Algorithm::Approx {
        epsilon,
        sketch: None,
    });

    let engine = Engine::new();
    let meta = engine.stat(&source).expect("stat planner graph");
    let est_mem = planner::est_in_memory_bytes(&meta);

    // The reference every other case is compared against.
    let reference = engine
        .execute(
            &source,
            &Query {
                backend: Some(BackendRequest::InMemory),
                ..approx
            },
            &ResourcePolicy::default(),
        )
        .expect("forced in-memory reference run");
    let ref_density = reference.density();
    let ref_set = reference.best_set().expect("reference set").clone();
    let ref_passes = reference.passes().unwrap_or(0);

    // (case, query, policy, backend the planner must choose, must match
    // the reference exactly)
    let cases: Vec<(&'static str, Query, ResourcePolicy, &'static str, bool)> = vec![
        (
            "auto/unbounded",
            approx,
            ResourcePolicy::default(),
            "memory",
            true,
        ),
        (
            "auto/4-threads",
            approx,
            ResourcePolicy {
                memory_budget_bytes: None,
                threads: 4,
            },
            "memory",
            true,
        ),
        (
            "auto/budget-mem/8",
            approx,
            ResourcePolicy {
                memory_budget_bytes: Some(est_mem / 8),
                threads: 1,
            },
            "stream",
            true,
        ),
        (
            "sketch-width-1024",
            Query::new(Algorithm::Approx {
                epsilon,
                sketch: Some(1024),
            }),
            ResourcePolicy::default(),
            "sketch",
            false,
        ),
        (
            "forced-mapreduce/tight",
            Query {
                backend: Some(BackendRequest::MapReduce),
                ..approx
            },
            ResourcePolicy {
                memory_budget_bytes: Some(planner::est_shuffle_bytes_per_pass(&meta) / 8),
                threads: 2,
            },
            "mapreduce-spill",
            true,
        ),
    ];

    let mut rows = Vec::new();
    for (case, query, policy, expect_backend, must_match) in cases {
        let started = std::time::Instant::now();
        let report = engine
            .execute(&source, &query, &policy)
            .unwrap_or_else(|e| panic!("planner case '{case}' failed: {e}"));
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let backend = report.plan.backend.name().to_string();
        assert_eq!(
            backend,
            expect_backend,
            "planner chose '{backend}' for case '{case}', expected '{expect_backend}' \
             (plan: {})",
            report.plan.explain()
        );
        let density = report.density();
        let exact_match = density.to_bits() == ref_density.to_bits()
            && report.best_set() == Some(&ref_set)
            && report.passes().unwrap_or(0) == ref_passes;
        if must_match {
            assert!(
                exact_match,
                "case '{case}' ({backend}) diverged from the in-memory reference: \
                 density {density} vs {ref_density}"
            );
        } else {
            // The sketched estimate stays within the paper's quality
            // band — far looser than the exact backends, but a collapse
            // to ~0 would mean the oracle is broken.
            assert!(
                density >= 0.2 * ref_density,
                "sketched density {density} collapsed vs reference {ref_density}"
            );
        }
        rows.push(Row {
            case,
            backend,
            nodes: meta.nodes,
            edges: meta.edges,
            wall_ms,
            density,
            passes: report.passes().unwrap_or(0),
            ratio: density / ref_density,
            exact_match,
        });
    }
    rows
}

/// Renders the rows as a paper-style table.
pub fn to_table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Planner: backend choice, cost, and parity vs the forced in-memory run",
        &[
            "case", "backend", "nodes", "edges", "wall ms", "density", "passes", "ratio", "exact",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.case.to_string(),
            r.backend.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            fmt_f(r.wall_ms, 2),
            fmt_f(r.density, 4),
            r.passes.to_string(),
            fmt_f(r.ratio, 3),
            r.exact_match.to_string(),
        ]);
    }
    t
}
