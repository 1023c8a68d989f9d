//! The untraced runs: each episode spawns a fresh `densest serve`, sets
//! it up, drives one fixed request sequence over its socket in lockstep,
//! and checks the answers after the timed phase.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::inputs::{self, Answer, ReplayPlan, SessionPlan, SweepPlan};
use crate::json::{self, Json};
use crate::procstat;
use crate::server::{exchange, script, Exchange, Req, Server};

/// One client-observed round trip of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    pub kind: &'static str,
    pub mutation: bool,
}

/// Server counters read from `stats`.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub loads: u64,
    pub result_hits: u64,
    pub mutations: u64,
    pub incremental_hits: u64,
    pub incremental_fallbacks: u64,
    pub warm_hits: u64,
    pub warm_fallbacks: u64,
    /// `(name, snapshot_version, wal_bytes)` per session graph.
    pub named: Vec<(String, u64, u64)>,
}

impl Counters {
    fn read(server: &Server) -> io::Result<Counters> {
        let stats = Req::new("stats", "stats", vec![]);
        let ex = exchange(&server.socket, &script([&stats]), false)?;
        let v = json::parse(reply(&ex, 0)).map_err(io::Error::other)?;
        let n = |k: &str| v.num(k).unwrap_or(0.0) as u64;
        Ok(Counters {
            loads: n("loads"),
            result_hits: n("result_hits"),
            mutations: n("mutations"),
            incremental_hits: n("incremental_hits"),
            incremental_fallbacks: n("incremental_fallbacks"),
            warm_hits: n("warm_hits"),
            warm_fallbacks: n("warm_fallbacks"),
            named: v
                .arr("named")
                .iter()
                .map(|g| {
                    let name = match g.get("name") {
                        Some(Json::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    let n = |k: &str| g.num(k).unwrap_or(0.0) as u64;
                    (name, n("snapshot_version"), n("wal_bytes"))
                })
                .collect(),
        })
    }
}

/// The reply to the `i`-th request of an exchange ("" if there is none,
/// which every check rejects).
fn reply(ex: &Exchange, i: usize) -> &str {
    ex.replies.get(i).map_or("", String::as_str)
}

/// Everything one episode measured and checked.
#[derive(Debug, Default)]
pub struct Episode {
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Requests per second of round-trip time, summed over connections.
    pub ops_per_s: f64,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub cpu_ticks: u64,
    pub rss_kb: u64,
    /// Counters before and after the timed phase.
    pub before: Counters,
    pub after: Counters,
    /// Failed answer checks, each counted in `failed`.
    pub problems: Vec<String>,
}

impl Episode {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems.push(what());
            }
        }
    }
}

/// Server worker threads: the host's two vCPUs.
pub const WORKERS: usize = 2;
/// `session`'s durability policy: the server defaults, fsync after every
/// WAL record and rotate a snapshot every 256 records per graph.
pub const FSYNC_EVERY: u64 = 1;
pub const SNAPSHOT_EVERY: u64 = 256;

/// How each workload's server is started.
pub fn server_flags(data_dir: Option<&Path>) -> Vec<String> {
    let mut flags = vec!["--workers".into(), WORKERS.to_string(), "--quiet".into()];
    if let Some(dir) = data_dir {
        flags.extend([
            "--data-dir".into(),
            dir.display().to_string(),
            "--fsync-every".into(),
            FSYNC_EVERY.to_string(),
            "--snapshot-every".into(),
            SNAPSHOT_EVERY.to_string(),
        ]);
    }
    flags
}

fn ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// Sends the setup requests over one connection and stops the setup
/// clock at the last reply. Returns the replies.
fn run_setup(server: &Server, reqs: &[Req], ep: &mut Episode) -> io::Result<Exchange> {
    let ex = exchange(&server.socket, &script(reqs), false)?;
    ep.setup_s = server.spawned().elapsed().as_secs_f64();
    for (i, req) in reqs.iter().enumerate() {
        let r = reply(&ex, i);
        ep.check(ok(r), || format!("setup {} failed: {r}", req.kind));
    }
    Ok(ex)
}

/// Brackets the timed phase, whose exchanges `body` makes, with server
/// CPU ticks and `stats`.
fn timed(
    server: &Server,
    ep: &mut Episode,
    body: impl FnOnce() -> io::Result<Vec<Exchange>>,
) -> io::Result<Vec<Exchange>> {
    ep.before = Counters::read(server)?;
    let cpu0 = procstat::cpu_ticks(server.pid).ok_or_else(|| io::Error::other("no /proc stat"))?;
    let t0 = Instant::now();
    let out = body()?;
    ep.timed_s = t0.elapsed().as_secs_f64();
    // Each lockstep connection completes one request per round trip. The
    // client's own work before its first send (the binary client encodes
    // all its frames up front) is left out.
    ep.ops_per_s = out
        .iter()
        .map(|ex| ex.latencies_ms.len() as f64 / (ex.latencies_ms.iter().sum::<f64>() / 1e3))
        .sum();
    let cpu1 = procstat::cpu_ticks(server.pid).ok_or_else(|| io::Error::other("no /proc stat"))?;
    ep.cpu_ticks = cpu1.since(cpu0);
    ep.after = Counters::read(server)?;
    ep.rss_kb = procstat::hwm_kb(server.pid).unwrap_or(0);
    Ok(out)
}

/// Labels one exchange's round trips with the kinds of its requests.
fn label<'a>(ex: &Exchange, reqs: impl Iterator<Item = (&'a Req, bool)>) -> Vec<Sample> {
    ex.latencies_ms
        .iter()
        .zip(reqs)
        .map(|(&ms, (req, mutation))| Sample {
            ms,
            kind: req.kind,
            mutation,
        })
        .collect()
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

pub fn replay_episode(bin: &Path, dir: &Path, plan: &ReplayPlan) -> io::Result<Episode> {
    let mut ep = Episode::default();
    let server = Server::spawn(bin, &dir.join("s.sock"), &server_flags(None))?;
    let setup = run_setup(&server, &plan.setup(), &mut ep)?;
    let n = plan.distinct.len();
    let refs: Vec<String> = (0..n)
        .map(|i| json::strip_elapsed(reply(&setup, n + i)).to_string())
        .collect();
    for (i, warm) in refs.iter().enumerate() {
        let (cold, replayed) = (
            json::parse(reply(&setup, i)).ok(),
            json::parse(reply(&setup, n + i)).ok(),
        );
        let same = cold.as_ref().and_then(|c| c.get("result"))
            == replayed.as_ref().and_then(|w| w.get("result"));
        ep.check(same && warm.contains("\"result_cache_hit\":1"), || {
            format!("replay of query {i} differs from its cold answer: {warm}")
        });
    }
    // One JSONL and one binary connection, concurrently.
    let scripts: Vec<Vec<u8>> = plan
        .seq
        .iter()
        .map(|seq| script(seq.iter().map(|&q| &plan.distinct[q])))
        .collect();
    let socket = &server.socket;
    let exchanges = timed(&server, &mut ep, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .zip([false, true])
                .map(|(script, binary)| s.spawn(move || exchange(socket, script, binary)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    })?;
    // The connections ran side by side: interleave their samples.
    let per_conn: Vec<Vec<Sample>> = exchanges
        .iter()
        .zip(&plan.seq)
        .map(|(ex, seq)| label(ex, seq.iter().map(|&q| (&plan.distinct[q], false))))
        .collect();
    for i in 0..per_conn.iter().map(Vec::len).max().unwrap_or(0) {
        ep.samples
            .extend(per_conn.iter().filter_map(|c| c.get(i)).copied());
    }
    // Every reply must repeat its query's reference bytes.
    for (ex, seq) in exchanges.iter().zip(&plan.seq) {
        for (i, &q) in seq.iter().enumerate() {
            let r = reply(ex, i);
            ep.check(json::strip_elapsed(r) == refs[q], || {
                format!("replay reply differs from reference: {r}")
            });
        }
    }
    let timed_ops = ep.samples.len() as u64;
    let (before, after) = (ep.before.clone(), ep.after.clone());
    ep.check(after.loads == plan.files.len() as u64, || {
        format!("loads {} != {} files", after.loads, plan.files.len())
    });
    ep.check(after.result_hits - before.result_hits == timed_ops, || {
        format!(
            "result-cache hits {} != {timed_ops} timed queries",
            after.result_hits - before.result_hits
        )
    });
    server.shutdown()?;
    Ok(ep)
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

pub fn sweep_episode(
    bin: &Path,
    dir: &Path,
    plan: &SweepPlan,
    expected: &[(usize, Answer)],
) -> io::Result<Episode> {
    let mut ep = Episode::default();
    let server = Server::spawn(bin, &dir.join("s.sock"), &server_flags(None))?;
    run_setup(&server, &plan.warmup, &mut ep)?;
    let timed_reqs = script(plan.seq.iter().map(|it| &it.req));
    let ex = timed(&server, &mut ep, || {
        Ok(vec![exchange(&server.socket, &timed_reqs, false)?])
    })?
    .remove(0);
    ep.samples = label(&ex, plan.seq.iter().map(|it| (&it.req, false)));
    for i in 0..plan.seq.len() {
        let r = reply(&ex, i);
        ep.check(ok(r), || format!("sweep request {i} failed: {r}"));
    }
    for (i, want) in expected {
        let got = Answer::of_reply(reply(&ex, *i));
        ep.check(got.as_ref() == Some(want), || {
            format!("sweep request {i}: served {got:?}, cold recompute {want:?}")
        });
    }
    let (before, after) = (ep.before.clone(), ep.after.clone());
    ep.check(
        after.loads == 2 && after.result_hits == before.result_hits,
        || {
            format!(
                "sweep: loads {} (want 2), result-cache hits {} (want 0)",
                after.loads,
                after.result_hits - before.result_hits
            )
        },
    );
    server.shutdown()?;
    Ok(ep)
}

/// Cold answers for the sweep's sampled requests, on the serial CSR path
/// whatever thread count or backend the request asked for.
pub fn sweep_expected(plan: &SweepPlan) -> Vec<(usize, Answer)> {
    plan.sample
        .iter()
        .map(|&i| {
            let item = &plan.seq[i];
            (
                i,
                inputs::cold_answer(&plan.lists[item.graph], &item.algorithm),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// session
// ---------------------------------------------------------------------

pub fn session_episode(bin: &Path, dir: &Path, plan: &SessionPlan) -> io::Result<Episode> {
    let mut ep = Episode::default();
    let data = dir.join("data");
    let server = Server::spawn(bin, &dir.join("s.sock"), &server_flags(Some(&data)))?;
    run_setup(&server, &plan.setup, &mut ep)?;
    let timed_reqs = script(plan.ops.iter().map(|op| &op.req));
    let ex = timed(&server, &mut ep, || {
        Ok(vec![exchange(&server.socket, &timed_reqs, false)?])
    })?
    .remove(0);
    ep.samples = label(
        &ex,
        plan.ops.iter().map(|op| (&op.req, op.applied.is_some())),
    );
    for (i, op) in plan.ops.iter().enumerate() {
        let r = reply(&ex, i);
        let good = ok(r)
            && op
                .applied
                .is_none_or(|n| r.contains(&format!("\"applied\":{n},")));
        ep.check(good, || {
            format!("session op {i} ({}) failed: {r}", op.req.kind)
        });
    }
    for (i, want) in &plan.sample {
        let got = Answer::of_reply(reply(&ex, *i));
        ep.check(got.as_ref() == Some(want), || {
            format!("session op {i}: served {got:?}, cold recompute {want:?}")
        });
    }
    let finals = exchange(
        &server.socket,
        &script(plan.finals.iter().map(|(r, _)| r)),
        false,
    )?;
    for (i, (req, want)) in plan.finals.iter().enumerate() {
        let got = Answer::of_reply(reply(&finals, i));
        ep.check(got.as_ref() == Some(want), || {
            format!(
                "final {} query: served {got:?}, cold recompute {want:?}",
                req.kind
            )
        });
    }
    let (before, after) = (ep.before.clone(), ep.after.clone());
    let mutations = plan.ops.iter().filter(|o| o.applied.is_some()).count() as u64;
    ep.check(after.mutations - before.mutations == mutations, || {
        format!(
            "mutations {} != {mutations}",
            after.mutations - before.mutations
        )
    });
    let rotated = after
        .named
        .iter()
        .any(|(name, snap, _)| name == "main" && *snap > 0);
    ep.check(rotated, || {
        "no WAL snapshot rotation on the main graph".into()
    });
    server.shutdown()?;
    Ok(ep)
}
