//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|medium|large] [--csv]
//!       [--data-dir <path>] [--out <file>] [--shards n,n,...] [--durable]
//!
//! experiments:
//!   table1   dataset parameters
//!   table2   quality of approximation vs the exact optimum
//!   fig61    ε vs approximation and passes
//!   fig62    density vs passes
//!   fig63    remaining nodes/edges vs passes
//!   table3   directed ρ for δ × ε grid
//!   fig64    directed density/passes vs c (livejournal)
//!   fig65    |S|, |T|, |E(S,T)| per pass at best c
//!   fig66    directed density/passes vs c (twitter)
//!   table4   sketching quality and memory
//!   fig67    MapReduce time per pass
//!   outofcore  streamed + spill-to-disk shuffle vs in-memory parity
//!   planner  engine backend choice per resource policy, cost, parity
//!   serve-throughput  concurrent clients vs one worker-pool server:
//!            queries/sec, single-flight loads, result-cache hit rate;
//!            plus a second table comparing `--shards n,n,...` engine
//!            shard counts (default 1,2,4) with byte parity and
//!            per-shard routing asserted vs the 1-shard server
//!   mutate   mutable sessions: warm restart vs cold recompute vs file
//!            rewrite per delta shape (parity asserted); `--durable`
//!            adds a WAL append + fsync-every-1 mirror arm and reports
//!            its overhead vs the in-memory session mutate
//!   lemma5   pass lower bound (union of regular graphs)
//!   lemma6   pass lower bound (weighted power law)
//!   all      everything above
//! ```
//!
//! `--bench-json <file>` additionally writes the tables as one JSON
//! object (`{"experiment":…,"scale":…,"tables":[…]}`) — the
//! `BENCH_<experiment>.json` artifacts CI's perf-smoke job uploads and
//! compares (warn-only) against `bench/baseline.json`.
//!
//! Default scale: `small` (≈20K-node stand-ins; `table2` always runs at
//! the paper's graph sizes). `--data-dir` points at real SNAP `.txt`
//! files to upgrade `table2` from stand-ins to the genuine datasets.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;

use dsg_bench::experiments as exp;
use dsg_bench::table::Table;
use dsg_datasets::Scale;

struct Args {
    experiment: String,
    scale: Scale,
    csv: bool,
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    shards: Vec<usize>,
    durable: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut scale = Scale::Small;
    let mut csv = false;
    let mut data_dir = None;
    let mut out = None;
    let mut bench_json = None;
    let mut shards = vec![1, 2, 4];
    let mut durable = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("missing value for --scale")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--csv" => csv = true,
            "--durable" => durable = true,
            "--data-dir" => {
                data_dir = Some(PathBuf::from(
                    args.next().ok_or("missing value for --data-dir")?,
                ));
            }
            "--out" => {
                out = Some(PathBuf::from(args.next().ok_or("missing value for --out")?));
            }
            "--bench-json" => {
                bench_json = Some(PathBuf::from(
                    args.next().ok_or("missing value for --bench-json")?,
                ));
            }
            "--shards" => {
                let v = args.next().ok_or("missing value for --shards")?;
                shards = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|_| s))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|s| format!("bad shard count '{s}' in --shards"))?;
                if shards.is_empty() || shards.contains(&0) {
                    return Err("--shards needs a comma-separated list of counts >= 1".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(Args {
        experiment,
        scale,
        csv,
        data_dir,
        out,
        bench_json,
        shards,
        durable,
    })
}

fn usage() -> String {
    "usage: repro <table1|table2|fig61|fig62|fig63|table3|fig64|fig65|fig66|table4|fig67|outofcore|planner|serve-throughput|mutate|lemma5|lemma6|all> \
     [--scale tiny|small|medium|large] [--csv] [--data-dir <path>] [--out <file>] \
     [--bench-json <file>] [--shards n,n,...] [--durable]"
        .to_string()
}

fn run_experiment(name: &str, args: &Args) -> Result<Vec<Table>, String> {
    let scale = args.scale;
    let tables = match name {
        "table1" => vec![exp::table1::to_table(&exp::table1::run(scale))],
        "table2" => vec![exp::table2::to_table(&exp::table2::run(
            None,
            args.data_dir.as_deref(),
        ))],
        "fig61" => vec![exp::fig61::to_table(&exp::fig61::run(scale))],
        "fig62" => vec![exp::fig62::to_table(&exp::fig62::run(scale))],
        "fig63" => vec![exp::fig63::to_table(&exp::fig63::run(scale))],
        "table3" => vec![exp::table3::to_table(&exp::table3::run(scale))],
        "fig64" => vec![exp::fig64::to_table(&exp::fig64::run(scale))],
        "fig65" => vec![exp::fig65::to_table(&exp::fig65::run(scale))],
        "fig66" => vec![exp::fig66::to_table(&exp::fig66::run(scale))],
        "table4" => {
            // The sketch error scales with the absolute width b, so Table 4
            // needs at least the medium stand-in to reproduce the paper's
            // band (see the module docs).
            let s = if matches!(scale, Scale::Tiny | Scale::Small) {
                Scale::Medium
            } else {
                scale
            };
            vec![exp::table4::to_table(&exp::table4::run(s))]
        }
        "fig67" => vec![exp::fig67::to_table(&exp::fig67::run(scale))],
        "outofcore" => vec![exp::outofcore::to_table(&exp::outofcore::run(scale))],
        "planner" => vec![exp::planner::to_table(&exp::planner::run(scale))],
        "serve-throughput" => vec![
            exp::serve_throughput::to_table(&exp::serve_throughput::run(scale)),
            exp::serve_throughput::to_shard_table(&exp::serve_throughput::run_sharded(
                scale,
                &args.shards,
            )),
        ],
        "mutate" => vec![exp::mutate::to_table(&exp::mutate::run(
            scale,
            args.durable,
        ))],
        "lemma5" => vec![exp::lemmas::to_table(
            "Lemma 5: passes on the union-of-regular-graphs instance (ε=0.5)",
            "k",
            &exp::lemmas::run_lemma5(&[3, 4, 5, 6, 7, 8]),
        )],
        "lemma6" => vec![exp::lemmas::to_table(
            "Lemma 6: passes on the weighted power-law instance (ε=0.5)",
            "n",
            &exp::lemmas::run_lemma6(&[125, 250, 500, 1000, 2000]),
        )],
        "all" => {
            let order = [
                "table1",
                "table2",
                "fig61",
                "fig62",
                "fig63",
                "table3",
                "fig64",
                "fig65",
                "fig66",
                "table4",
                "fig67",
                "outofcore",
                "planner",
                "serve-throughput",
                "mutate",
                "lemma5",
                "lemma6",
            ];
            let mut all = Vec::new();
            for e in order {
                eprintln!("[repro] running {e} ...");
                all.extend(run_experiment(e, args)?);
            }
            all
        }
        other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
    };
    Ok(tables)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let tables = match run_experiment(&args.experiment, &args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut rendered = String::new();
    for t in &tables {
        rendered.push_str(&if args.csv { t.render_csv() } else { t.render() });
        rendered.push('\n');
    }
    match &args.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).expect("cannot create output file");
            f.write_all(rendered.as_bytes()).expect("write failed");
            eprintln!("[repro] wrote {}", path.display());
        }
        None => print!("{rendered}"),
    }
    if let Some(path) = &args.bench_json {
        let jsons: Vec<String> = tables.iter().map(Table::render_json).collect();
        let payload = format!(
            "{{\"experiment\":\"{}\",\"scale\":\"{:?}\",\"tables\":[{}]}}\n",
            args.experiment,
            args.scale,
            jsons.join(",")
        );
        let mut f = std::fs::File::create(path).expect("cannot create bench-json file");
        f.write_all(payload.as_bytes())
            .expect("bench-json write failed");
        eprintln!("[repro] wrote {}", path.display());
    }
}
