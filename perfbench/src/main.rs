//! `perfbench` — the seeded benchmark of `densest serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay|sweep|session> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds the `densest`
//! binary from the checkout, generates its graphs and request streams
//! from `--seed`, and then:
//!
//! * `--trace 0` repeats episodes until `--seconds` have passed (at least
//!   three): each spawns a fresh `densest serve`, sets it up, drives a
//!   fixed request sequence over the Unix socket in lockstep and checks
//!   the answers outside the timed phase. It prints the end-to-end
//!   metrics.
//! * `--trace 1` replays the same sequence in-process against an
//!   `Engine` configured like the server, timing calls into each layer,
//!   and prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod inputs;
mod json;
mod procstat;
mod server;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::io;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

use stats::{median, percentile, Pct};
use workloads::{Episode, Sample};

const WORKLOADS: [&str; 3] = ["replay", "sweep", "session"];

/// Episodes per untraced run, at least: `setup_s` is their median.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

/// Builds the program under test, the `densest` binary, from the
/// checkout in the working directory.
fn build_server() -> io::Result<PathBuf> {
    if !Path::new("Cargo.toml").exists() || !Path::new("src/bin/densest.rs").exists() {
        return Err(io::Error::other(
            "run from the repository root: no densest sources here",
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "densest",
        ])
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building densest failed: {status}"
        )));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("densest"))
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(args: &Args) -> io::Result<()> {
    let bin = build_server()?;
    let work = inputs::WorkDir::create(args.workload)?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_context(args.workload, &work.0);
    let host0 = procstat::host_ticks();
    let (metrics, attempted, failed, problems) = if args.trace {
        trace::run(args.workload, args.seed, &work.0)?
    } else {
        untraced(args, &bin, &work.0)?
    };
    // Time the hypervisor gave our vCPUs to other guests: the usual cause
    // of run-to-run drift on a shared host.
    if let (Some((s0, t0)), Some((s1, t1))) = (host0, procstat::host_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "context: host steal time {:.2}% of CPU time during the run",
            share * 100.0
        );
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && problems.is_empty(),
        attempted.max(1),
        failed,
        body.join(",")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The context record: host, kernel, server flags, data-dir filesystem.
fn print_context(workload: &str, dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let data = (workload == "session").then(|| PathBuf::from("<work>/e<i>/data"));
    println!(
        "context: nproc={nproc} kernel={} work={} server_flags=\"serve --socket <work>/e<i>/s.sock {}\"",
        kernel.trim(),
        dir.display(),
        workloads::server_flags(data.as_deref()).join(" ")
    );
    if data.is_some() {
        println!(
            "context: data_dir_fs={} flush=\"fsync every {} WAL record(s), snapshot rotation every {} records per graph\"",
            filesystem_of(dir),
            workloads::FSYNC_EVERY,
            workloads::SNAPSHOT_EVERY
        );
    }
}

/// The filesystem type `/proc/self/mounts` gives for the longest mount
/// point containing `path`.
fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

pub type RunOutput = (Vec<Metric>, u64, u64, Vec<String>);

/// Runs episodes until `seconds` have passed, and at least
/// [`MIN_EPISODES`]; each gets a scratch directory of its own.
fn run_episodes(
    seconds: f64,
    dir: &Path,
    mut episode: impl FnMut(&Path, usize) -> io::Result<Episode>,
) -> io::Result<Vec<Episode>> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_EPISODES || started.elapsed().as_secs_f64() < seconds {
        let ep_dir = dir.join(format!("e{}", out.len()));
        std::fs::create_dir_all(&ep_dir)?;
        out.push(episode(&ep_dir, out.len())?);
        std::fs::remove_dir_all(&ep_dir)?;
    }
    Ok(out)
}

fn untraced(args: &Args, bin: &Path, dir: &Path) -> io::Result<RunOutput> {
    let prep = Instant::now();
    let prepared = || println!("inputs: prepared in {:.2} s", prep.elapsed().as_secs_f64());
    let episodes = match args.workload {
        "replay" => {
            let plan = inputs::replay_plan(dir, args.seed);
            prepared();
            run_episodes(args.seconds, dir, |ep_dir, _| {
                workloads::replay_episode(bin, ep_dir, &plan)
            })?
        }
        "sweep" => {
            let plan = inputs::sweep_plan(dir, args.seed);
            let expected = workloads::sweep_expected(&plan);
            prepared();
            run_episodes(args.seconds, dir, |ep_dir, _| {
                workloads::sweep_episode(bin, ep_dir, &plan, &expected)
            })?
        }
        _ => {
            let plan = inputs::session_plan(args.seed);
            prepared();
            run_episodes(args.seconds, dir, |ep_dir, _| {
                workloads::session_episode(bin, ep_dir, &plan)
            })?
        }
    };
    Ok(summarize(&episodes))
}

/// Prints a pooled percentile with its sample count, the samples beyond
/// it, and the request kind of the sample at its rank.
fn pct_line(name: &str, p: &Option<Pct>, labels: &[(f64, &'static str)]) -> String {
    match p {
        Some(p) => format!(
            "{name} (pooled): {:.4} ms over {} samples, {} beyond, kind {}",
            p.value, p.samples, p.beyond, labels[p.rank].1
        ),
        None => format!("{name}: fewer than {} samples beyond it", stats::MIN_BEYOND),
    }
}

/// Latencies of one sample class (queries or mutations) of one episode.
fn latencies(e: &Episode, mutation: bool) -> Vec<f64> {
    e.samples
        .iter()
        .filter(|s| s.mutation == mutation)
        .map(|s| s.ms)
        .collect()
}

/// Each figure is taken per episode, and the run reports the median over
/// episodes, so one episode caught by a host stall does not move it.
#[derive(Default)]
struct PerEpisode {
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    q: [Vec<f64>; 2],
    m: [Vec<f64>; 2],
    /// Percentiles an episode could not support (too few samples beyond).
    short: usize,
}

fn summarize(episodes: &[Episode]) -> RunOutput {
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let mut problems: Vec<String> = episodes.iter().flat_map(|e| e.problems.clone()).collect();
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let rss: Vec<f64> = episodes.iter().map(|e| e.rss_kb as f64 / 1024.0).collect();

    let mut per = PerEpisode::default();
    for e in episodes {
        per.ops_per_s.push(e.ops_per_s);
        per.cpu_us_per_op
            .push(e.cpu_ticks as f64 / procstat::TICKS_PER_SEC * 1e6 / e.samples.len() as f64);
        for (mutation, out) in [(false, &mut per.q), (true, &mut per.m)] {
            let mut v = latencies(e, mutation);
            if v.is_empty() {
                continue;
            }
            v.sort_by(f64::total_cmp);
            for (i, p) in [0.5, 0.9].into_iter().enumerate() {
                match percentile(&v, p) {
                    Some(p) => out[i].push(p.value),
                    None => per.short += 1,
                }
            }
        }
    }
    if per.short > 0 {
        problems.push(format!(
            "{} per-episode percentiles had fewer than {} samples beyond them",
            per.short,
            stats::MIN_BEYOND
        ));
    }

    // Pooled views: which request kind the percentile samples belong to,
    // and the drift between the first and second half of every episode.
    let labelled = |mutation: bool| -> Vec<(f64, &'static str)> {
        let mut l: Vec<(f64, &'static str)> = episodes
            .iter()
            .flat_map(|e| e.samples.iter().filter(move |s| s.mutation == mutation))
            .map(|s: &Sample| (s.ms, s.kind))
            .collect();
        l.sort_by(|a, b| a.0.total_cmp(&b.0));
        l
    };
    let halves = |mutation: bool| -> (f64, f64) {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for e in episodes {
            let v = latencies(e, mutation);
            let (a, b) = v.split_at(v.len() / 2);
            first.extend_from_slice(a);
            second.extend_from_slice(b);
        }
        (median(&first), median(&second))
    };
    let queries = labelled(false);
    let mutations = labelled(true);

    println!(
        "episodes: {} (fresh server each); setup_s per episode {:?}",
        episodes.len(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for (name, l) in [("query", &queries), ("mutate", &mutations)] {
        if l.is_empty() {
            continue;
        }
        let v: Vec<f64> = l.iter().map(|x| x.0).collect();
        println!(
            "{}",
            pct_line(&format!("{name}_p50"), &percentile(&v, 0.5), l)
        );
        println!(
            "{}",
            pct_line(&format!("{name}_p90"), &percentile(&v, 0.9), l)
        );
        let (a, b) = halves(name == "mutate");
        println!(
            "drift: {name} median over first halves of episodes {a:.4} ms, second halves {b:.4} ms"
        );
    }
    // Per-kind latency ranges: the mix is chosen so that each reported
    // percentile falls inside one kind's range, not between two.
    let mut kinds: Vec<(&str, Vec<f64>)> = Vec::new();
    for &(ms, k) in queries.iter().chain(&mutations) {
        match kinds.iter_mut().find(|(n, _)| *n == k) {
            Some((_, v)) => v.push(ms),
            None => kinds.push((k, vec![ms])),
        }
    }
    for (k, v) in &kinds {
        println!(
            "kind {k}: {} samples ({:.1}%), min {:.4} median {:.4} max {:.4} ms",
            v.len(),
            100.0 * v.len() as f64 / (queries.len() + mutations.len()) as f64,
            v[0],
            median(v),
            v[v.len() - 1]
        );
    }
    for (i, e) in episodes.iter().enumerate() {
        let d = |f: fn(&workloads::Counters) -> u64| f(&e.after) - f(&e.before);
        println!(
            "episode {i}: timed {:.3} s, {} ops; stats delta: result_hits {} mutations {} \
             incremental_hits {} incremental_fallbacks {} warm_hits {} warm_fallbacks {}; \
             loads {} named {:?}",
            e.timed_s,
            e.samples.len(),
            d(|c| c.result_hits),
            d(|c| c.mutations),
            d(|c| c.incremental_hits),
            d(|c| c.incremental_fallbacks),
            d(|c| c.warm_hits),
            d(|c| c.warm_fallbacks),
            e.after.loads,
            e.after.named,
        );
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("failed_frac: {failed_frac} ({failed} of {attempted} attempted ops and checks)");
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    };
    println!("per episode: ops_per_s {:?}", round(&per.ops_per_s));
    println!(
        "per episode: server_cpu_us_per_op {:?}",
        round(&per.cpu_us_per_op)
    );
    println!(
        "per episode: query p50 {:?} p90 {:?} ms",
        round(&per.q[0]),
        round(&per.q[1])
    );

    let mut metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("ops_per_s", median(&per.ops_per_s), "1/s"),
        metric("query_p50_ms", median(&per.q[0]), "ms"),
        metric("query_p90_ms", median(&per.q[1]), "ms"),
        metric("server_cpu_us_per_op", median(&per.cpu_us_per_op), "us"),
        metric("server_rss_mb", median(&rss), "MB"),
    ];
    // Mutation latency exists only where mutations run; it is printed
    // with the report rather than gated (see README.md).
    if !mutations.is_empty() {
        println!(
            "per episode: mutate p50 {:?} p90 {:?} ms",
            round(&per.m[0]),
            round(&per.m[1])
        );
        println!("metric mutate_p50_ms = {} ms", median(&per.m[0]));
        println!("metric mutate_p90_ms = {} ms", median(&per.m[1]));
    }
    println!("metric failed_frac = {failed_frac} share");
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    metrics.retain(|m| m.value.is_finite());
    (metrics, attempted, failed, problems)
}
