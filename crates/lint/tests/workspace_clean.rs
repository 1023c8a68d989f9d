//! The live workspace must be clean under its own checked-in lint.toml —
//! the same gate CI enforces. This test also pins the shape of the
//! analysis (lock inventory, sanctioned edges, hot-path closure) so a
//! silent analyzer regression — e.g. the resolver going blind and
//! reporting zero locks — fails loudly instead of passing vacuously.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let root = workspace_root();
    let cfg = dsg_lint::load_config(root).expect("lint.toml parses");
    let report = dsg_lint::analyze_workspace(root, &cfg).expect("analysis runs");
    let findings: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("[{}] {}:{}: {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "dsg-lint found unsuppressed findings in the workspace:\n{}",
        findings.join("\n")
    );
}

#[test]
fn analysis_shape_is_sane_not_vacuous() {
    let root = workspace_root();
    let cfg = dsg_lint::load_config(root).expect("lint.toml parses");
    let report = dsg_lint::analyze_workspace(root, &cfg).expect("analysis runs");

    // The engine's full lock inventory must be visible.
    for lock in [
        "GraphCatalog.entries",
        "GraphCatalog.named",
        "NamedGraph.state",
        "NamedGraph.snapshot",
        "Engine.seeds",
        "ResultCache.inner",
        "ResultCache.floors",
        "ConnGate.used",
        "IoSlot.arrivals",
        "Slot.cell",
    ] {
        assert!(
            report.locks.iter().any(|l| l.id == lock),
            "lock inventory must contain {lock}; got {:?}",
            report.locks.iter().map(|l| &l.id).collect::<Vec<_>>()
        );
    }

    // The two deliberate mutate_named nestings must be observed (they
    // are what the declared edges in lint.toml sanction).
    for (from, to) in [
        ("NamedGraph.state", "NamedGraph.snapshot"),
        ("NamedGraph.state", "GraphCatalog.named"),
    ] {
        assert!(
            report.edges.iter().any(|e| e.from == from && e.to == to),
            "expected observed edge {from} -> {to}"
        );
    }

    // The hot-path closure must cover the event loop, its request
    // decoder, the n-shard routing step and the frame decoder.
    for f in [
        "io_event_loop",
        "ShardRuntime::route",
        "Connection::next_item",
        "decode_request_payload",
    ] {
        assert!(
            report.hot_funcs.iter().any(|h| h.starts_with(f)),
            "hot-path closure must contain {f}; got {:?}",
            report.hot_funcs
        );
    }

    // No suppressions exist in the tree today; adding one must be a
    // conscious decision (this assertion is the reminder).
    assert!(
        report.suppressions.is_empty(),
        "unexpected suppression comments in the workspace: {:?}",
        report.suppressions
    );
}

#[test]
fn regression_serve_path_panics_stay_fixed() {
    // PR 7 removed the `unreachable!` arms in serve.rs run_mutation /
    // process_one and the decode-path expect in frame.rs. The hot-path
    // rule guards all three; this pins the specific files as
    // panic-free so the failure message names the regression directly.
    let root = workspace_root();
    let cfg = dsg_lint::load_config(root).expect("lint.toml parses");
    let report = dsg_lint::analyze_workspace(root, &cfg).expect("analysis runs");
    let offenders: Vec<String> = report
        .unsuppressed()
        .filter(|f| f.rule == "hot-path-panic" || f.rule == "hot-path-blocking")
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    assert!(
        offenders.is_empty(),
        "serve/readiness/frame hot path regressed:\n{}",
        offenders.join("\n")
    );
}
