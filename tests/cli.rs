//! End-to-end tests of the `densest` command-line binary.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};

fn densest_bin() -> &'static str {
    env!("CARGO_BIN_EXE_densest")
}

fn write_fixture(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsg_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// A K5 (density 2.0) with a pendant path, in a file named after the
/// calling test: tests run in parallel, and a shared path would let one
/// test's truncating write race another's read.
fn clique_fixture(test: &str) -> PathBuf {
    let mut s = String::from("# K5 plus path\n");
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            s.push_str(&format!("{u} {v}\n"));
        }
    }
    s.push_str("4 5\n5 6\n6 7\n");
    write_fixture(&format!("clique_{test}.txt"), &s)
}

/// Kills and reaps a spawned `densest serve` on drop, so a failed
/// assertion cannot leak the server past the test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        // Both fail harmlessly when the server already exited and was
        // reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `densest serve --quiet --socket <sock> <extra>` and waits for
/// the socket to appear.
fn spawn_socket_server(sock: &Path, extra: &[&str]) -> KillOnDrop {
    let _ = std::fs::remove_file(sock);
    let server = KillOnDrop(
        Command::new(densest_bin())
            .args(["serve", "--quiet", "--socket", sock.to_str().unwrap()])
            .args(extra)
            .spawn()
            .expect("serve starts"),
    );
    for _ in 0..300 {
        if sock.exists() {
            break;
        }
        // Test-only: wait for the spawned server process to bind.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "server socket never appeared");
    server
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(densest_bin())
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn approx_finds_the_clique() {
    let path = clique_fixture("approx_finds_the_clique");
    let (stdout, _, ok) = run(&["approx", path.to_str().unwrap(), "--epsilon", "0.1"]);
    assert!(ok);
    assert!(stdout.contains("density 2.000000 on 5 nodes"), "{stdout}");
    assert!(stdout.contains("nodes: [0, 1, 2, 3, 4]"), "{stdout}");
}

#[test]
fn exact_matches_approx_here() {
    let path = clique_fixture("exact_matches_approx_here");
    let (stdout, _, ok) = run(&["exact", path.to_str().unwrap(), "--quiet"]);
    assert!(ok);
    assert!(
        stdout.contains("optimum density 2.000000 on 5 nodes"),
        "{stdout}"
    );
}

#[test]
fn charikar_and_atleast_k() {
    let path = clique_fixture("charikar_and_atleast_k");
    let (stdout, _, ok) = run(&["charikar", path.to_str().unwrap(), "--quiet"]);
    assert!(ok);
    assert!(stdout.contains("density 2.000000"), "{stdout}");

    let (stdout, _, ok) = run(&["atleast-k", path.to_str().unwrap(), "--k", "7", "--quiet"]);
    assert!(ok, "{stdout}");
    // A floor of 7 forces a larger, sparser set.
    assert!(stdout.contains("(k = 7"), "{stdout}");
}

#[test]
fn directed_mode() {
    // All arcs from {0,1,2} to {3}: optimum ρ = 3/sqrt(3) ≈ 1.73; the
    // sweep guarantees a δ(2+2ε) factor, and here it lands on the pair
    // S = V (the idle node 3 costs a sqrt factor), T = {3} with ρ = 1.5.
    let path = write_fixture("directed.txt", "0 3\n1 3\n2 3\n");
    let (stdout, _, ok) = run(&["directed", path.to_str().unwrap(), "--quiet"]);
    assert!(ok, "{stdout}");
    let density: f64 = stdout
        .split("density ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("density in output");
    assert!(density >= 1.732 / (2.0 * 3.0), "{stdout}");
    assert!(density <= 1.7321, "{stdout}");
    assert!(stdout.contains("|T| = 1"), "{stdout}");
}

#[test]
fn enumerate_mode() {
    let path = clique_fixture("enumerate_mode");
    let (stdout, _, ok) = run(&[
        "enumerate",
        path.to_str().unwrap(),
        "--epsilon",
        "0.1",
        "--quiet",
    ]);
    assert!(ok);
    assert!(stdout.contains("dense communities"), "{stdout}");
    assert!(stdout.contains("density 2.0000 on 5 nodes"), "{stdout}");
}

#[test]
fn rejects_bad_usage() {
    // The algorithm is checked before the file is read.
    let (_, stderr, ok) = run(&["bogus-algorithm", "/nonexistent"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown algorithm 'bogus-algorithm'"),
        "{stderr}"
    );

    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, stderr, ok) = run(&["approx", "/definitely/not/here.txt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unknown_flag_is_named_in_the_error() {
    let path = clique_fixture("unknown_flag_is_named_in_the_error");
    let (_, stderr, ok) = run(&["approx", path.to_str().unwrap(), "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag '--frobnicate'"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn threads_flag_matches_serial_output() {
    let path = clique_fixture("threads_flag_matches_serial_output");
    let (serial, _, ok1) = run(&[
        "approx",
        path.to_str().unwrap(),
        "--epsilon",
        "0.1",
        "--quiet",
    ]);
    let (par, _, ok2) = run(&[
        "approx",
        path.to_str().unwrap(),
        "--epsilon",
        "0.1",
        "--threads",
        "4",
        "--quiet",
    ]);
    assert!(ok1 && ok2);
    assert_eq!(serial, par, "--threads must not change the output");
    assert!(serial.contains("density 2.000000 on 5 nodes"), "{serial}");
}

const THREADS_WARNING: &str =
    "warning: --threads has no effect without --backend mapreduce (serial run)";

#[test]
fn threads_without_mapreduce_warn_and_run_serially() {
    let path = clique_fixture("threads_without_mapreduce_warn_and_run_serially");
    let p = path.to_str().unwrap();
    let (serial, serial_err, ok1) = run(&["approx", p, "--epsilon", "0.1"]);
    let (threaded, stderr, ok2) = run(&["approx", p, "--epsilon", "0.1", "--threads", "2"]);
    assert!(ok1 && ok2, "{serial_err}{stderr}");
    assert!(!serial_err.contains("warning"), "{serial_err}");
    assert!(stderr.contains(THREADS_WARNING), "{stderr}");
    assert_eq!(serial, threaded);
    assert!(
        threaded.contains("density 2.000000 on 5 nodes"),
        "{threaded}"
    );
}

#[test]
fn threads_with_mapreduce_do_not_warn() {
    let path = clique_fixture("threads_with_mapreduce_do_not_warn");
    let p = path.to_str().unwrap();
    let (stdout, stderr, ok) = run(&[
        "approx",
        p,
        "--backend",
        "mapreduce",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(!stderr.contains("warning"), "{stderr}");
    assert_eq!(json_field(stdout.trim(), "backend"), "\"mapreduce\"");
    assert_eq!(json_field(stdout.trim(), "threads"), "2");
}

#[test]
fn zero_threads_rejected() {
    let path = clique_fixture("zero_threads_rejected");
    let (_, stderr, ok) = run(&["approx", path.to_str().unwrap(), "--threads", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("invalid query: threads must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn non_finite_epsilon_rejected_by_name() {
    let path = clique_fixture("non_finite_epsilon_rejected_by_name");
    for bad in ["nan", "NaN", "inf", "-inf", "-0.5"] {
        let (_, stderr, ok) = run(&["approx", path.to_str().unwrap(), "--epsilon", bad]);
        assert!(!ok, "--epsilon {bad} must be rejected");
        assert!(
            stderr.contains("invalid query: epsilon must be a finite number >= 0"),
            "--epsilon {bad}: {stderr}"
        );
    }
    // Unparseable values name the field too (no panic backtrace).
    let (_, stderr, ok) = run(&["approx", path.to_str().unwrap(), "--epsilon", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("'epsilon' must be a number"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn zero_k_and_bad_delta_rejected_by_name() {
    let path = clique_fixture("zero_k_and_bad_delta_rejected_by_name");
    let (_, stderr, ok) = run(&["atleast-k", path.to_str().unwrap(), "--k", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("invalid query: k must be at least 1"),
        "{stderr}"
    );

    // Oversized k: clean named error in both modes, never a kernel panic.
    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec!["atleast-k", path.to_str().unwrap(), "--k", "1000"];
        args.extend_from_slice(extra);
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "oversized --k must be rejected ({extra:?})");
        assert!(
            stderr.contains("k 1000 exceeds the graph's 8 nodes"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    for delta in ["inf", "0.5", "1"] {
        let (_, stderr, ok) = run(&["directed", path.to_str().unwrap(), "--delta", delta]);
        assert!(!ok, "--delta {delta} must be rejected");
        assert!(
            stderr.contains("invalid query: delta must be a finite number > 1"),
            "{stderr}"
        );
    }
}

/// Extracts the value of a `"key":value` field from a one-line JSON
/// summary, as raw text (so comparisons are byte-exact).
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap();
    &rest[..end]
}

#[test]
fn stream_mode_matches_in_memory_byte_for_byte() {
    let path = clique_fixture("stream_mode_matches_in_memory_byte_for_byte");
    let p = path.to_str().unwrap();
    let (mem, _, ok1) = run(&["approx", p, "--epsilon", "0.1", "--json"]);
    let (streamed, _, ok2) = run(&["approx", p, "--epsilon", "0.1", "--stream", "--json"]);
    assert!(ok1 && ok2, "{mem}{streamed}");
    for key in ["graph_nodes", "graph_edges", "density", "nodes", "passes"] {
        assert_eq!(
            json_field(mem.trim(), key),
            json_field(streamed.trim(), key),
            "field {key}: {mem} vs {streamed}"
        );
    }
    assert_eq!(json_field(streamed.trim(), "stream"), "1");
    assert!(streamed.contains("\"state_bytes\":"), "{streamed}");

    // The printed node set (non-JSON output) is identical as well.
    let (mem_set, _, _) = run(&["approx", p, "--epsilon", "0.1"]);
    let (stream_set, _, _) = run(&["approx", p, "--epsilon", "0.1", "--stream"]);
    let nodes_line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("nodes:"))
            .map(String::from)
            .unwrap_or_else(|| panic!("no nodes line in {s}"))
    };
    assert_eq!(nodes_line(&mem_set), nodes_line(&stream_set));
    assert!(
        mem_set.lines().next() == stream_set.lines().next(),
        "{mem_set} vs {stream_set}"
    );
}

#[test]
fn stream_mode_atleast_k_binary_matches_in_memory() {
    // Build a binary fixture with the CLI-independent writer.
    let text = clique_fixture("stream_mode_atleast_k_binary_matches_in_memory");
    let list = densest_subgraph::graph::io::read_text(
        &text,
        densest_subgraph::graph::GraphKind::Undirected,
    )
    .unwrap();
    let bin = text.with_extension("bin");
    densest_subgraph::graph::io::write_binary(&bin, &list).unwrap();
    let b = bin.to_str().unwrap();

    let (mem, _, ok1) = run(&["atleast-k", b, "--binary", "--k", "6", "--json"]);
    let (streamed, _, ok2) = run(&["atleast-k", b, "--binary", "--k", "6", "--stream", "--json"]);
    assert!(ok1 && ok2, "{mem}{streamed}");
    for key in ["density", "nodes", "passes", "k"] {
        assert_eq!(
            json_field(mem.trim(), key),
            json_field(streamed.trim(), key),
            "field {key}: {mem} vs {streamed}"
        );
    }
}

#[test]
fn stream_mode_rejected_for_in_memory_algorithms() {
    let path = clique_fixture("stream_mode_rejected_for_in_memory_algorithms");
    for alg in ["charikar", "exact", "enumerate", "directed"] {
        let (_, stderr, ok) = run(&[alg, path.to_str().unwrap(), "--stream"]);
        assert!(!ok, "{alg} --stream must be rejected");
        assert!(
            stderr.contains(&format!("'{alg}' cannot stream")),
            "{alg}: {stderr}"
        );
    }
}

#[test]
fn stream_mode_missing_file_is_a_clean_error() {
    let (_, stderr, ok) = run(&["approx", "/definitely/not/here.txt", "--stream"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn json_summary_is_one_parseable_line() {
    let path = clique_fixture("json_summary_is_one_parseable_line");
    let (stdout, _, ok) = run(&[
        "approx",
        path.to_str().unwrap(),
        "--epsilon",
        "0.1",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"algorithm\":\"approx\""), "{line}");
    assert!(line.contains("\"density\":2"), "{line}");
    assert!(line.contains("\"nodes\":5"), "{line}");
    assert!(line.contains("\"threads\":1"), "{line}");
    assert!(line.contains("\"elapsed_ms\":"), "{line}");
}

#[test]
fn json_summary_for_directed() {
    let path = write_fixture("directed_json.txt", "0 3\n1 3\n2 3\n");
    let (stdout, _, ok) = run(&["directed", path.to_str().unwrap(), "--json"]);
    assert!(ok, "{stdout}");
    let line = stdout.trim();
    assert_eq!(line.lines().count(), 1, "{line}");
    assert!(line.contains("\"algorithm\":\"directed\""), "{line}");
    assert!(line.contains("\"t_nodes\":1"), "{line}");
    assert!(line.contains("\"best_c\":"), "{line}");
}

// ---- engine-era CLI surface: help, flow backends, planner, serve ----

#[test]
fn help_prints_full_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(densest_bin())
            .arg(flag)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in [
            "usage:",
            "serve",
            "client",
            "--flow-backend",
            "--memory-budget",
            "--backend",
            "shutdown",
        ] {
            assert!(
                stdout.contains(needle),
                "{flag}: missing '{needle}' in help"
            );
        }
    }
}

#[test]
fn flow_backend_flag_selects_solver_and_rejects_bad_values() {
    let path = clique_fixture("flow_backend_flag_selects_solver_and_rejects_bad_values");
    let p = path.to_str().unwrap();
    let (dinic, _, ok1) = run(&["exact", p, "--flow-backend", "dinic", "--json"]);
    let (pr, _, ok2) = run(&["exact", p, "--flow-backend", "push-relabel", "--json"]);
    assert!(ok1 && ok2, "{dinic}{pr}");
    assert_eq!(
        json_field(dinic.trim(), "density"),
        json_field(pr.trim(), "density")
    );
    assert_eq!(
        json_field(dinic.trim(), "nodes"),
        json_field(pr.trim(), "nodes")
    );
    assert_eq!(json_field(pr.trim(), "flow_backend"), "\"push-relabel\"");
    assert_eq!(json_field(dinic.trim(), "flow_backend"), "\"dinic\"");

    let (_, stderr, ok) = run(&["exact", p, "--flow-backend", "simplex"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flow_backend 'simplex'"),
        "{stderr}"
    );

    let (_, stderr, ok) = run(&["approx", p, "--flow-backend", "dinic"]);
    assert!(!ok);
    assert!(
        stderr.contains("'flow_backend' applies only to 'exact'"),
        "{stderr}"
    );
}

#[test]
fn planner_flags_choose_backends_and_are_reported() {
    let path = clique_fixture("planner_flags_choose_backends_and_are_reported");
    let p = path.to_str().unwrap();
    // Unbounded: in-memory. Tiny budget: the planner streams instead.
    let (mem, _, ok1) = run(&["approx", p, "--epsilon", "0.1", "--json"]);
    let (streamed, _, ok2) = run(&[
        "approx",
        p,
        "--epsilon",
        "0.1",
        "--memory-budget",
        "64",
        "--json",
    ]);
    assert!(ok1 && ok2, "{mem}{streamed}");
    assert_eq!(json_field(mem.trim(), "backend"), "\"memory\"");
    assert_eq!(json_field(streamed.trim(), "backend"), "\"stream\"");
    assert!(streamed.contains("\"plan\":\""), "{streamed}");
    for key in ["density", "nodes", "passes"] {
        assert_eq!(
            json_field(mem.trim(), key),
            json_field(streamed.trim(), key),
            "field {key}: {mem} vs {streamed}"
        );
    }
    // --backend forces; bad values are named.
    let (forced, _, ok) = run(&["approx", p, "--backend", "stream", "--json"]);
    assert!(ok);
    assert_eq!(json_field(forced.trim(), "backend"), "\"stream\"");
    for bad in ["gpu", "parallel"] {
        let (_, stderr, ok) = run(&["approx", p, "--backend", bad]);
        assert!(!ok);
        assert!(
            stderr.contains(&format!(
                "unknown backend '{bad}' (auto|memory|stream|mapreduce)"
            )),
            "{stderr}"
        );
    }
    // k/m/g suffixes parse.
    let (out, _, ok) = run(&["approx", p, "--memory-budget", "1g", "--json"]);
    assert!(ok, "{out}");
    assert_eq!(json_field(out.trim(), "backend"), "\"memory\"");
}

/// A bad query reads the same on both surfaces: the one-shot CLI exits 2
/// and its one stderr line is the `error` of a stdio server's reply. The
/// CLI's flags and the request's fields go through one parser and the
/// planner's rule, which refuses the value before any file is read, so
/// a missing file changes nothing.
#[test]
fn a_bad_query_reads_the_same_on_the_cli_and_the_server() {
    use densest_subgraph::engine::minijson::{self, Value};
    use std::io::{Read, Write};
    use std::process::Stdio;

    let cases: [(&[&str], &str); 9] = [
        (
            &["approx", "--epsilon", "-0.5"],
            r#""algorithm":"approx","epsilon":-0.5"#,
        ),
        (
            &["atleast-k", "--k", "0"],
            r#""algorithm":"atleast-k","k":0"#,
        ),
        (
            &["directed", "--delta", "1"],
            r#""algorithm":"directed","delta":1"#,
        ),
        (
            &["approx", "--sketch", "0"],
            r#""algorithm":"approx","sketch":0"#,
        ),
        (
            &["approx", "--threads", "0"],
            r#""algorithm":"approx","threads":0"#,
        ),
        (
            &["approx", "--threads", "300"],
            r#""algorithm":"approx","threads":300"#,
        ),
        (
            &["charikar", "--stream"],
            r#""algorithm":"charikar","stream":true"#,
        ),
        (
            &["approx", "--backend", "gpu"],
            r#""algorithm":"approx","backend":"gpu""#,
        ),
        (
            &["approx", "--flow-backend", "dinic"],
            r#""algorithm":"approx","flow_backend":"dinic""#,
        ),
    ];
    let present = clique_fixture("a_bad_query_reads_the_same_on_the_cli_and_the_server");
    let missing = present.with_file_name("no_such_graph.txt");
    for file in [present.to_str().unwrap(), missing.to_str().unwrap()] {
        let mut server = KillOnDrop(
            Command::new(densest_bin())
                .args(["serve", "--quiet"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("serve starts"),
        );
        {
            let stdin = server.0.stdin.as_mut().unwrap();
            for (_, fields) in &cases {
                writeln!(stdin, "{{{fields},\"file\":\"{file}\"}}").unwrap();
            }
        }
        drop(server.0.stdin.take());
        let mut replies = String::new();
        server
            .0
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut replies)
            .unwrap();
        assert!(server.0.wait().expect("serve exits").success());
        assert_eq!(replies.lines().count(), cases.len(), "{replies}");

        for ((args, _), reply) in cases.iter().zip(replies.lines()) {
            let reply = minijson::parse_object(reply).expect("reply parses");
            assert_eq!(minijson::get(&reply, "ok"), Some(&Value::Bool(false)));
            let error = minijson::get(&reply, "error")
                .and_then(Value::as_str)
                .expect("error text");
            let mut cli = vec![args[0], file];
            cli.extend_from_slice(&args[1..]);
            let out = Command::new(densest_bin())
                .args(&cli)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{cli:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!("{error}\n"),
                "{cli:?}"
            );
        }
    }
}

#[test]
fn serve_stdin_answers_queries_once_loaded_and_exits_on_eof() {
    use std::io::{Read, Write};
    use std::process::Stdio;

    let path = clique_fixture("serve_stdin_answers_queries_once_loaded_and_exits_on_eof");
    let p = path.to_str().unwrap();
    let mut server = KillOnDrop(
        Command::new(densest_bin())
            .args(["serve", "--quiet"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve starts"),
    );
    {
        let stdin = server.0.stdin.as_mut().unwrap();
        writeln!(
            stdin,
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}"
        )
        .unwrap();
        writeln!(
            stdin,
            "{{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}"
        )
        .unwrap();
        writeln!(
            stdin,
            "{{\"id\":3,\"algorithm\":\"exact\",\"file\":\"{p}\"}}"
        )
        .unwrap();
    }
    drop(server.0.stdin.take()); // EOF = SIGTERM-equivalent close
    let mut stdout = String::new();
    server
        .0
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let status = server.0.wait().expect("serve exits");
    assert!(status.success(), "EOF must be a clean shutdown");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    for l in &lines {
        assert_eq!(json_field(l, "ok"), "true", "{l}");
        assert_eq!(json_field(l, "loads"), "1", "one load serves all: {l}");
    }
    assert_eq!(json_field(lines[0], "cache_hit"), "0");
    assert_eq!(json_field(lines[1], "cache_hit"), "1");
    assert_eq!(json_field(lines[2], "cache_hit"), "1");
}

/// Serve-mode results must be byte-identical to one-shot CLI runs: the
/// nested `result` object equals the one-shot `--json` line minus its
/// `elapsed_ms` field.
#[test]
fn serve_socket_results_are_byte_identical_to_one_shot_runs() {
    use std::io::Write;
    use std::process::Stdio;

    let path = clique_fixture("serve_socket_results_are_byte_identical_to_one_shot_runs");
    let p = path.to_str().unwrap();
    let sock = std::env::temp_dir().join(format!("dsg_cli_serve_{}.sock", std::process::id()));
    let mut server = spawn_socket_server(&sock, &[]);

    let queries: Vec<(String, Vec<&str>)> = vec![
        (
            format!("{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}"),
            vec!["approx", p, "--epsilon", "0.1", "--json"],
        ),
        (
            format!("{{\"id\":2,\"algorithm\":\"atleast-k\",\"file\":\"{p}\",\"k\":7}}"),
            vec!["atleast-k", p, "--k", "7", "--json"],
        ),
        (
            format!("{{\"id\":3,\"algorithm\":\"charikar\",\"file\":\"{p}\"}}"),
            vec!["charikar", p, "--json"],
        ),
        (
            format!("{{\"id\":4,\"algorithm\":\"exact\",\"file\":\"{p}\"}}"),
            vec!["exact", p, "--json"],
        ),
    ];
    let mut client = Command::new(densest_bin())
        .args(["client", "--socket", sock.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("client starts");
    {
        let stdin = client.stdin.as_mut().unwrap();
        for (req, _) in &queries {
            writeln!(stdin, "{req}").unwrap();
        }
        writeln!(stdin, "{{\"op\":\"shutdown\"}}").unwrap();
    }
    drop(client.stdin.take());
    let client_out = client.wait_with_output().expect("client exits");
    assert!(client_out.status.success());
    let responses = String::from_utf8_lossy(&client_out.stdout);
    let lines: Vec<&str> = responses.lines().collect();
    assert_eq!(lines.len(), queries.len() + 1, "{responses}");

    let strip_elapsed = |s: &str| {
        let start = s
            .find(",\"elapsed_ms\":")
            .unwrap_or_else(|| panic!("elapsed in {s}"));
        let rest = &s[start + 1..];
        let end = rest.find([',', '}']).unwrap();
        format!("{}{}", &s[..start], &rest[end..])
    };
    for ((_, oneshot_args), response) in queries.iter().zip(&lines) {
        assert_eq!(json_field(response, "ok"), "true", "{response}");
        assert_eq!(json_field(response, "loads"), "1", "{response}");
        let nested = response
            .split("\"result\":")
            .nth(1)
            .and_then(|r| r.split(",\"cache_hit\"").next())
            .unwrap_or_else(|| panic!("no result in {response}"));
        let (oneshot, _, ok) = run(oneshot_args);
        assert!(ok, "{oneshot}");
        let expected = strip_elapsed(oneshot.trim());
        assert_eq!(nested, expected, "serve vs one-shot mismatch");
    }
    assert!(lines.last().unwrap().contains("\"bye\":true"));
    let status = server.0.wait().expect("server exits after shutdown");
    assert!(status.success());
    assert!(!sock.exists(), "socket removed on clean shutdown");
}

#[test]
fn client_repeat_and_parallel_spread_responses() {
    use std::io::Write;
    use std::process::Stdio;

    let path = clique_fixture("client_repeat_and_parallel_spread_responses");
    let p = path.to_str().unwrap();
    let sock = std::env::temp_dir().join(format!("dsg_cli_par_{}.sock", std::process::id()));
    let mut server = spawn_socket_server(&sock, &["--workers", "2"]);

    let mut client = Command::new(densest_bin())
        .args([
            "client",
            "--socket",
            sock.to_str().unwrap(),
            "--repeat",
            "3",
            "--parallel",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client starts");
    {
        let stdin = client.stdin.as_mut().unwrap();
        writeln!(
            stdin,
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}"
        )
        .unwrap();
        writeln!(
            stdin,
            "{{\"id\":2,\"algorithm\":\"charikar\",\"file\":\"{p}\"}}"
        )
        .unwrap();
    }
    drop(client.stdin.take());
    let out = client.wait_with_output().expect("client exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // 2 requests x 3 repeated rounds, spread round-robin over the 2
    // connections (conn 0 carries rounds 0 and 2, conn 1 carries
    // round 1) — total work never multiplies with the connection count.
    assert_eq!(lines.len(), 6, "{stdout}");
    for l in &lines {
        assert_eq!(json_field(l, "ok"), "true", "{l}");
        assert_eq!(json_field(l, "loads"), "1", "single-flight load: {l}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("6 exchanges over 2 connection(s) x 3 repeat(s)"),
        "{stderr}"
    );

    // Each connection's repeats after its first are guaranteed replays.
    let mut stats = Command::new(densest_bin())
        .args(["client", "--socket", sock.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("stats client starts");
    {
        let stdin = stats.stdin.as_mut().unwrap();
        writeln!(stdin, "{{\"op\":\"stats\",\"id\":\"s\"}}").unwrap();
        writeln!(stdin, "{{\"op\":\"shutdown\"}}").unwrap();
    }
    drop(stats.stdin.take());
    let stats_out = stats.wait_with_output().expect("stats client exits");
    let stats_stdout = String::from_utf8_lossy(&stats_out.stdout);
    let stats_line = stats_stdout.lines().next().unwrap();
    assert_eq!(json_field(stats_line, "loads"), "1", "{stats_line}");
    let result_hits: u64 = json_field(stats_line, "result_hits").parse().unwrap();
    // Conn 0's second round replays both cached results; the first
    // round on each connection may race the other into the cache.
    assert!(result_hits >= 2, "{stats_line}");
    let status = server.0.wait().expect("server exits after shutdown");
    assert!(status.success());
    assert!(!sock.exists(), "socket removed on clean shutdown");
}

#[test]
fn serve_and_client_flags_are_validated_by_name() {
    for (args, needle) in [
        (vec!["serve", "--workers", "0"], "--workers"),
        (vec!["serve", "--workers", "abc"], "--workers"),
        (vec!["serve", "--max-connections", "0"], "--max-connections"),
        (vec!["serve", "--result-cache", "xyz"], "--result-cache"),
        (
            vec!["client", "--socket", "/tmp/x.sock", "--repeat", "0"],
            "--repeat",
        ),
        (
            vec!["client", "--socket", "/tmp/x.sock", "--parallel", "0"],
            "--parallel",
        ),
    ] {
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// An n-shard server's exit line counts what its shard engines did: the
/// engine it was configured on serves no request at `--shards 2`.
#[cfg(unix)]
#[test]
fn sharded_serve_exit_line_sums_the_shard_engines() {
    use std::io::{Read, Write};
    use std::process::Stdio;

    let path = clique_fixture("sharded_serve_exit_line_sums_the_shard_engines");
    let sock = std::env::temp_dir().join(format!("dsg_cli_shard_exit_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut server = KillOnDrop(
        Command::new(densest_bin())
            .args(["serve", "--shards", "2", "--socket", sock.to_str().unwrap()])
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve starts"),
    );
    for _ in 0..300 {
        if sock.exists() {
            break;
        }
        // Test-only: wait for the spawned server process to bind.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut client = Command::new(densest_bin())
        .args(["client", "--socket", sock.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("client starts");
    {
        let stdin = client.stdin.as_mut().unwrap();
        let query = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{}\"}}",
            path.display()
        );
        writeln!(stdin, "{query}\n{query}\n{{\"op\":\"shutdown\"}}").unwrap();
    }
    drop(client.stdin.take());
    assert!(client.wait_with_output().unwrap().status.success());
    let mut stderr = String::new();
    server
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(server.0.wait().unwrap().success(), "{stderr}");
    assert!(stderr.contains("served 2 queries"), "{stderr}");
    assert!(stderr.contains(" 1 graph loads,"), "{stderr}");
    assert!(stderr.contains(" 1 result-cache hits,"), "{stderr}");
}

/// A serve default the planner would reject in every query that omits
/// `threads` is rejected once, at startup, with the planner's message.
/// Stdin is closed and no query is sent, so no MapReduce worker starts
/// even where the server does.
#[test]
fn serve_rejects_out_of_range_threads_at_startup() {
    use std::process::Stdio;

    for (threads, message) in [
        ("300", "threads must be at most 256 (got 300)"),
        ("0", "threads must be at least 1"),
    ] {
        let out = Command::new(densest_bin())
            .args(["serve", "--quiet", "--threads", threads])
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        assert!(stderr.contains("--threads"), "{stderr}");
        assert!(stderr.contains(message), "{stderr}");
    }
}

#[test]
fn help_documents_the_concurrency_flags() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    for flag in [
        "--workers",
        "--max-connections",
        "--result-cache",
        "--repeat",
        "--parallel",
    ] {
        assert!(stdout.contains(flag), "help must mention {flag}");
    }
}

#[test]
fn client_parallel_propagates_connection_failures() {
    // No server is listening: every parallel connection fails. The
    // client must exit non-zero and name each failed connection with
    // its exchange progress, not just print an aggregate summary.
    let sock = std::env::temp_dir().join("dsg_cli_tests/definitely-absent.sock");
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(densest_bin())
        .args([
            "client",
            "--socket",
            sock.to_str().unwrap(),
            "--parallel",
            "3",
            "--repeat",
            "2",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"{\"op\":\"stats\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "failed connections => non-zero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The 2 repeated rounds spread round-robin: connections 0 and 1
    // each owe one exchange, connection 2 none — but all three still
    // dial the socket and must report their own failure.
    for (conn, expected) in [(0, 1), (1, 1), (2, 0)] {
        assert!(
            stderr.contains(&format!(
                "client connection {conn} failed after 0/{expected}"
            )),
            "per-connection error summary missing for {conn}: {stderr}"
        );
    }
    assert!(stderr.contains("3 connection(s) FAILED"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn serve_socket_mutable_session_end_to_end() {
    // Mutable sessions over a real socket: create, query, mutate, query
    // again (version bump, fresh result), stats with per-graph fields.
    let sock = std::env::temp_dir().join(format!("dsg_cli_session_{}.sock", std::process::id()));
    let mut server = spawn_socket_server(&sock, &[]);

    let mut client = Command::new(densest_bin())
        .args(["client", "--socket", sock.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    client
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"{\"id\":1,\"op\":\"create_graph\",\"graph\":\"s\",\"edges\":\"0 1, 0 2, 1 2\"}\n\
              {\"id\":2,\"algorithm\":\"approx\",\"graph\":\"s\"}\n\
              {\"id\":3,\"op\":\"add_edges\",\"graph\":\"s\",\"edges\":\"0 3, 1 3, 2 3\"}\n\
              {\"id\":4,\"algorithm\":\"approx\",\"graph\":\"s\"}\n\
              {\"id\":5,\"op\":\"stats\"}\n\
              {\"op\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = client.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}");
    assert!(lines[0].contains("\"version\":1"), "{}", lines[0]);
    assert!(lines[1].contains("\"density\":1,"), "{}", lines[1]);
    assert!(lines[2].contains("\"version\":2"), "{}", lines[2]);
    assert!(lines[3].contains("\"density\":1.5"), "{}", lines[3]);
    assert!(
        lines[3].contains("\"result_cache_hit\":0"),
        "a mutation must invalidate: {}",
        lines[3]
    );
    assert!(lines[4].contains("\"graphs_named\":1"), "{}", lines[4]);
    assert!(
        lines[4].contains("\"named\":[{\"name\":\"s\""),
        "{}",
        lines[4]
    );
    assert!(server.0.wait().unwrap().success());
    assert!(!sock.exists());
}
