//! **Out-of-core experiment** — the repo's headline claim, end to end.
//!
//! Generates a graph, writes it to disk, and then runs the machinery
//! that makes the paper's scale story real:
//!
//! 1. **Semi-streaming**: Algorithm 1 and Algorithm 2 straight over the
//!    on-disk file (a text and a binary `FileStream`, one re-read per
//!    pass, O(n) state) versus the in-memory CSR runs — the rows
//!    assert parity of density, best set, and pass count, and report the
//!    streamed state footprint next to the in-memory footprint.
//! 2. **External MapReduce shuffle**: the §5.2 driver with a spill
//!    budget small enough to force disk runs every round, versus the
//!    in-memory shuffle — bit-identical results, with spilled bytes and
//!    run counts reported.
//!
//! Peak process RSS (`VmHWM`, Linux) is included so a `--scale large`
//! run shows the streamed state staying flat while file sizes grow. The
//! small-budget MapReduce configuration doubles as the CI smoke test:
//! the run `assert!`s that at least one spill happened and that every
//! parity column is true, so a regression fails the `repro outofcore`
//! step loudly.

use std::path::PathBuf;

use dsg_core::large::{approx_densest_at_least_k_csr, try_approx_densest_at_least_k};
use dsg_core::undirected::{approx_densest_csr, try_approx_densest};
use dsg_datasets::Scale;
use dsg_graph::gen;
use dsg_graph::io::{write_binary, write_text};
use dsg_graph::stream::{EdgeStream, FileStream};
use dsg_graph::CsrUndirected;
use dsg_mapreduce::{mr_densest_undirected, MapReduceConfig, ShuffleBackend};

use crate::table::{fmt_f, Table};

/// One row of the experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// What ran (e.g. `"approx/text-stream"`, `"mapreduce/spill"`).
    pub case: &'static str,
    /// Nodes in the generated graph.
    pub nodes: u64,
    /// Edges in the generated graph.
    pub edges: u64,
    /// On-disk input size in bytes (0 for in-memory baselines).
    pub file_bytes: u64,
    /// Best density found.
    pub density: f64,
    /// Passes over the edge set.
    pub passes: u32,
    /// Working-state bytes: streamed O(n) state, in-memory CSR size, or
    /// shuffle bytes spilled to disk for the MapReduce rows.
    pub state_bytes: u64,
    /// Spill runs written (MapReduce rows; 0 elsewhere).
    pub spill_runs: u64,
    /// Result matches the in-memory reference bit for bit.
    pub parity: bool,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
}

/// Report of one `outofcore` run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-case rows.
    pub rows: Vec<Row>,
    /// Peak process RSS (`VmHWM`) in kB, 0 where unavailable.
    pub peak_rss_kb: u64,
}

/// Streamed O(n) state with the exact oracle (`oracle_words = n`) — the
/// same definition the CLI reports as `state_bytes`.
fn streaming_state_bytes(n: u64) -> u64 {
    dsg_core::result::streaming_state_bytes(n, n)
}

/// In-memory footprint the streamed run avoids: the CSR snapshot
/// (offsets + neighbor lists, both directions of each edge).
fn csr_bytes(n: u64, m: u64) -> u64 {
    (n + 1) * 8 + 2 * m * 4
}

/// `VmHWM` from /proc/self/status (Linux), else 0.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_outofcore_experiment");
    std::fs::create_dir_all(&dir).expect("cannot create out-of-core data dir");
    dir
}

/// Runs the experiment at the given scale.
pub fn run(scale: Scale) -> Report {
    // A planted community in a sparse background, sized by scale.
    let n = scale.nodes();
    let m = n * 5;
    let planted = gen::planted_dense_subgraph(n, m as usize, (n / 40).max(20), 0.5, 17);
    let list = planted.graph;
    let n = list.num_nodes as u64;
    let m = list.num_edges() as u64;

    let dir = data_dir();
    let text_path = dir.join(format!("edges_{n}.txt"));
    let bin_path = dir.join(format!("edges_{n}.bin"));
    write_text(&text_path, &list).expect("write text edge file");
    write_binary(&bin_path, &list).expect("write binary edge file");
    let text_bytes = std::fs::metadata(&text_path)
        .map(|md| md.len())
        .unwrap_or(0);
    let bin_bytes = std::fs::metadata(&bin_path).map(|md| md.len()).unwrap_or(0);

    let mut rows = Vec::new();
    let epsilon = 0.5;
    let k = (n / 20).max(2) as usize;

    // ---- In-memory references --------------------------------------
    let csr = CsrUndirected::from_edge_list(&list);
    let (mem_approx, mem_approx_ms) = time_ms(|| approx_densest_csr(&csr, epsilon));
    rows.push(Row {
        case: "approx/in-memory",
        nodes: n,
        edges: m,
        file_bytes: 0,
        density: mem_approx.best_density,
        passes: mem_approx.passes,
        state_bytes: csr_bytes(n, m),
        spill_runs: 0,
        parity: true,
        wall_ms: mem_approx_ms,
    });
    let (mem_k, mem_k_ms) = time_ms(|| approx_densest_at_least_k_csr(&csr, k, epsilon));
    rows.push(Row {
        case: "atleast-k/in-memory",
        nodes: n,
        edges: m,
        file_bytes: 0,
        density: mem_k.best_density,
        passes: mem_k.passes,
        state_bytes: csr_bytes(n, m),
        spill_runs: 0,
        parity: true,
        wall_ms: mem_k_ms,
    });

    // ---- Streamed runs ----------------------------------------------
    let same_run = |a: &dsg_core::result::UndirectedRun, b: &dsg_core::result::UndirectedRun| {
        a.passes == b.passes
            && a.best_density.to_bits() == b.best_density.to_bits()
            && a.best_set == b.best_set
    };

    let mut text_stream = FileStream::open(&text_path, false).expect("open text stream");
    let (text_run, text_ms) =
        time_ms(|| try_approx_densest(&mut text_stream, epsilon).expect("text stream run"));
    rows.push(Row {
        case: "approx/text-stream",
        nodes: n,
        edges: m,
        file_bytes: text_bytes,
        density: text_run.best_density,
        passes: text_run.passes,
        state_bytes: streaming_state_bytes(n),
        spill_runs: 0,
        parity: same_run(&text_run, &mem_approx),
        wall_ms: text_ms,
    });

    let mut bin_stream = FileStream::open(&bin_path, true).expect("open binary stream");
    let (bin_run, bin_ms) =
        time_ms(|| try_approx_densest(&mut bin_stream, epsilon).expect("binary stream run"));
    rows.push(Row {
        case: "approx/binary-stream",
        nodes: n,
        edges: m,
        file_bytes: bin_bytes,
        density: bin_run.best_density,
        passes: bin_run.passes,
        state_bytes: streaming_state_bytes(n),
        spill_runs: 0,
        parity: same_run(&bin_run, &mem_approx),
        wall_ms: bin_ms,
    });
    assert_eq!(
        bin_stream.passes(),
        bin_run.passes as u64,
        "binary stream pass accounting"
    );

    let mut bin_stream_k = FileStream::open(&bin_path, true).expect("open binary stream");
    let (k_run, k_ms) = time_ms(|| {
        try_approx_densest_at_least_k(&mut bin_stream_k, k, epsilon).expect("streamed atleast-k")
    });
    rows.push(Row {
        case: "atleast-k/binary-stream",
        nodes: n,
        edges: m,
        file_bytes: bin_bytes,
        density: k_run.best_density,
        passes: k_run.passes,
        state_bytes: streaming_state_bytes(n),
        spill_runs: 0,
        parity: same_run(&k_run, &mem_k),
        wall_ms: k_ms,
    });

    // ---- MapReduce: in-memory vs spill-to-disk shuffle ---------------
    let splits: Vec<&[(u32, u32)]> = list
        .edges
        .chunks(list.edges.len().div_ceil(16).max(1))
        .collect();
    let base = MapReduceConfig {
        num_workers: 4,
        num_reducers: 8,
        combine: true,
        shuffle: ShuffleBackend::InMemory,
    };
    let (mr_mem, mr_mem_ms) =
        time_ms(|| mr_densest_undirected(&base, list.num_nodes, &splits, epsilon));
    let mem_shuffle_bytes: u64 = mr_mem.reports.iter().map(|r| r.rounds.shuffle_bytes).sum();
    rows.push(Row {
        case: "mapreduce/in-memory",
        nodes: n,
        edges: m,
        file_bytes: 0,
        density: mr_mem.best_density,
        passes: mr_mem.passes,
        state_bytes: mem_shuffle_bytes,
        spill_runs: 0,
        parity: same_mr(&mr_mem, &mem_approx),
        wall_ms: mr_mem_ms,
    });

    // A budget far below any bucket size: every round must spill.
    let spilling = MapReduceConfig {
        shuffle: ShuffleBackend::External {
            spill_budget_bytes: 1024,
        },
        ..base
    };
    let (mr_spill, mr_spill_ms) =
        time_ms(|| mr_densest_undirected(&spilling, list.num_nodes, &splits, epsilon));
    let spilled: u64 = mr_spill
        .reports
        .iter()
        .map(|r| r.rounds.spilled_bytes)
        .sum();
    let runs: u64 = mr_spill.reports.iter().map(|r| r.rounds.spill_runs).sum();
    let spill_parity = mr_spill.passes == mr_mem.passes
        && mr_spill.best_density.to_bits() == mr_mem.best_density.to_bits()
        && mr_spill.best_set == mr_mem.best_set;
    rows.push(Row {
        case: "mapreduce/spill",
        nodes: n,
        edges: m,
        file_bytes: 0,
        density: mr_spill.best_density,
        passes: mr_spill.passes,
        state_bytes: spilled,
        spill_runs: runs,
        parity: spill_parity,
        wall_ms: mr_spill_ms,
    });

    // Smoke assertions: this experiment is the CI gate for the
    // out-of-core path.
    assert!(runs > 0, "1 KiB spill budget must force at least one spill");
    assert!(spilled > 0, "spilled runs must account bytes");
    assert!(
        rows.iter().all(|r| r.parity),
        "out-of-core results must match in-memory bit for bit: {rows:#?}"
    );

    Report {
        rows,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn same_mr(
    mr: &dsg_mapreduce::MrUndirectedResult,
    reference: &dsg_core::result::UndirectedRun,
) -> bool {
    mr.passes == reference.passes
        && (mr.best_density - reference.best_density).abs() < 1e-9
        && mr.best_set == reference.best_set
}

/// Renders the report as a table.
pub fn to_table(report: &Report) -> Table {
    let mut t = Table::new(
        format!(
            "Out-of-core: streamed + spilled vs in-memory (peak RSS {} kB)",
            report.peak_rss_kb
        ),
        &[
            "case",
            "nodes",
            "edges",
            "file MB",
            "density",
            "passes",
            "state MB",
            "spill runs",
            "parity",
            "ms",
        ],
    );
    for r in &report.rows {
        t.push_row(vec![
            r.case.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            fmt_f(r.file_bytes as f64 / 1e6, 2),
            fmt_f(r.density, 4),
            r.passes.to_string(),
            fmt_f(r.state_bytes as f64 / 1e6, 3),
            r.spill_runs.to_string(),
            if r.parity { "ok" } else { "MISMATCH" }.to_string(),
            fmt_f(r.wall_ms, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_runs_and_spills() {
        let report = run(Scale::Tiny);
        assert_eq!(report.rows.len(), 7);
        assert!(report.rows.iter().all(|r| r.parity));
        let spill_row = report
            .rows
            .iter()
            .find(|r| r.case == "mapreduce/spill")
            .unwrap();
        assert!(spill_row.spill_runs > 0);
        assert!(spill_row.state_bytes > 0);
    }
}
