//! Long-running JSONL serve mode: one request object per line in, one
//! response object per line out, over stdin/stdout or a Unix socket.
//!
//! Repeated queries against the same file are answered from the
//! engine's [`crate::GraphCatalog`] — the graph is loaded and
//! canonicalized once (single-flight even under concurrency), then
//! every further query is a cache hit — and repeated *identical*
//! queries are replayed from the engine's [`crate::ResultCache`]
//! without recomputing (the `loads` / `result_cache_hit` counters in
//! each response make both observable, and the CI smoke tests assert
//! them).
//!
//! ## Concurrency
//!
//! Socket mode runs an **accept thread plus `workers` I/O event loops
//! per shard** ([`ServeOptions`]), the same loop for every shard count:
//! each accepted connection is assigned round-robin to a loop, and
//! every loop multiplexes its connection set with readiness-based
//! nonblocking I/O (`poll(2)` via [`crate::readiness`], infinite
//! timeout). Idle connections cost **zero wakeups** — nobody spins on
//! read-timeout ticks — and cross-thread signals (a new connection
//! handed over, the shutdown latch) arrive through a self-pipe waker,
//! so graceful shutdown completes as soon as in-flight requests drain
//! instead of waiting out a timeout tick per parked connection.
//! `max_connections` bounds the *live* connections across all loops;
//! at the cap the accept thread parks until one closes, which is the
//! backpressure (clients queue in the socket backlog instead of
//! overwhelming the server). The loop answers `stats` and `shutdown`
//! itself and every other request **inline**, on its shard's engine:
//! the caller's [`Engine`] at one shard (the default; `&Engine` — the
//! engine is internally synchronized), else the engine its graph
//! identity routes to (see [`crate::shard`]). A `shutdown` op latches
//! the shutdown flag, wakes every event loop, and removes the socket
//! file.
//! The socket file is removed by an RAII guard, so it disappears even
//! when the serve loop exits through an error path or a panic.
//!
//! ## Wire formats
//!
//! Each socket connection speaks one of two wire formats, picked by its
//! **first byte**: [`crate::frame::MAGIC`] (`0xD5`) selects the binary
//! frame protocol, anything else — in practice `{` — selects JSONL, so
//! clients from before the binary protocol existed keep working
//! unchanged. Both formats carry the same requests and produce the same
//! response objects: a binary reply frame wraps the byte-identical JSON
//! text a JSONL response line would hold (see [`crate::frame`] for the
//! layout, and the parity tests below which assert it). Binary
//! connections may also **pipeline**: a batch frame carries N requests
//! and the server answers each with its own reply frame, in order,
//! without waiting for the client to read between them. One decoder
//! serves both formats; per-connection read/write buffers and the
//! per-worker parse arena are reused across requests, so steady-state
//! request decoding performs no per-request allocation (response
//! rendering still builds one `String` per reply). A request longer
//! than [`crate::frame::DEFAULT_MAX_FRAME`] bytes — a frame payload, or
//! a JSONL line with no newline by then — gets one typed error reply,
//! and the connection closes.
//!
//! ## Protocol
//!
//! Requests are **flat** JSON objects (see [`crate::minijson`]):
//!
//! ```text
//! {"op":"query","id":1,"algorithm":"approx","file":"g.txt","epsilon":0.5}
//! {"op":"query","id":2,"algorithm":"atleast-k","file":"g.txt","k":8}
//! {"op":"create_graph","id":3,"graph":"live","edges":"0 1, 1 2"}
//! {"op":"add_edges","id":4,"graph":"live","edges":"0 2, 2 3"}
//! {"op":"query","id":5,"algorithm":"approx","graph":"live"}
//! {"op":"remove_edges","id":6,"graph":"live","edges":"2 3"}
//! {"op":"compact","id":7,"graph":"live"}
//! {"op":"stats","id":8}
//! {"op":"shutdown"}
//! ```
//!
//! `op` defaults to `"query"`. A query's fields are decoded by
//! [`parse_query`], the parser the one-shot CLI runs on its flags too
//! (`--foo-bar` sets `foo_bar`), so both surfaces take the same fields
//! with the same defaults and refuse a bad one in the same words:
//! `algorithm`, `file` **or** `graph` (exactly one), `epsilon`, `k`,
//! `delta`, `threads`, `sketch`, `stream`, `binary`, `directed_input`,
//! `backend`, `memory_budget`, `flow_backend` (`exact` only), and the
//! serve-only `min_density` and `max_communities`. Omitted fields take
//! the defaults (ε = 0.5, k = 10, δ = 2) or the server's resource
//! policy.
//!
//! ## Mutable graph sessions
//!
//! `create_graph` makes a named in-memory mutable graph (`"directed"`
//! for orientation, optional seed `"edges"`); `add_edges` /
//! `remove_edges` mutate it and `compact` folds its delta logs. The
//! protocol stays flat: a batched edge list is one string of
//! whitespace- (and optionally comma-) separated `u v` pairs, e.g.
//! `"edges":"0 1, 1 2, 2 3"`. Every state-changing op returns the
//! graph's new **version**; queries name the graph via `"graph"` and
//! always run against one consistent versioned snapshot — a mutation
//! arriving mid-query never tears it, and the result cache keys on
//! `(graph, version)` so a bumped version can never replay a stale
//! result (observable as `result_cache_hit: 0` on the first query after
//! a mutation).
//!
//! A query response nests the **identical** summary object the one-shot
//! CLI prints with `--json` (minus the nondeterministic `elapsed_ms`),
//! so serve-mode results are byte-comparable to one-shot runs:
//!
//! ```text
//! {"id":1,"ok":true,"result":{...},"cache_hit":1,"result_cache_hit":0,"loads":1,"elapsed_ms":0.3}
//! ```
//!
//! The `stats` op reports the catalog counters (`loads`, `hits`,
//! `stat_scans`, `evictions`, `graphs`), the result-cache counters
//! (`result_hits`, `result_misses`, `result_insertions`,
//! `result_evictions`, `result_entries`, `result_bytes`), the
//! connection accounting (`conn_active`, `conn_peak` — the
//! concurrent-connection high-water mark), the session accounting
//! (`mutations`, `graphs_named`, warm-restart `warm_hits` /
//! `warm_fallbacks`, incremental-tier `incremental_hits` /
//! `incremental_fallbacks`), and a `named` array with one object per
//! session graph (`name`, `version`, `nodes`, `edges`, `delta_edges`,
//! `compactions`, `warm_hits`, `warm_fallbacks`, `incremental_hits`,
//! `incremental_fallbacks`). A server with `shards > 1` sums the
//! counters over its shards and appends a `shards` array.
//!
//! Errors never kill the loop: `{"id":…,"ok":false,"error":"…"}` and the
//! next line is read. The loop ends cleanly on EOF (stdin mode: client
//! closed the pipe — the SIGTERM-equivalent close) or on a `shutdown`
//! op (socket mode, where EOF only ends one connection).
//!
//! ## Client
//!
//! [`client_unix_opts`] is the one client, for both wire formats and
//! every pipeline depth (see [`ClientOptions`]); only its window encoder
//! and its reply reader differ by format. [`client_fan_out`] runs one
//! per request text, all at once.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::engine::Engine;
use crate::minijson::{self, FieldScratch, Value};
use crate::query::{bool_field, parse_query, str_field, ResourcePolicy};
use crate::report::JsonBuilder;

/// Worker-pool sizing and durability wiring of the socket serve mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// I/O event loops per shard, each a thread serving its
    /// connections (clamped ≥ 1): an n-shard server runs
    /// `workers × n` of them.
    pub workers: usize,
    /// Most connections open at once across all workers (clamped ≥ 1).
    /// At the cap the accept thread waits until one closes, so further
    /// clients wait in the socket backlog — that is the backpressure.
    pub max_connections: usize,
    /// Engine shards (clamped ≥ 1). Every request runs inline on the
    /// event loop that read it; above 1 shard that loop first hashes
    /// the request's graph identity to pick one of `shards` independent
    /// engines — see [`crate::shard`].
    pub shards: usize,
    /// Root of the durable-session store (`None` = in-memory sessions).
    /// Each shard opens `<data_dir>/shard-<i>` — its own WAL + snapshot
    /// tree, so shards share no files — recovering whatever a previous
    /// process left there. See [`crate::persistence`].
    pub data_dir: Option<PathBuf>,
    /// fsync the WAL after every Nth appended record (0 = never fsync
    /// explicitly; crash recovery still holds — this is the power-loss
    /// durability bound). Ignored without `data_dir`.
    pub fsync_every: u64,
    /// Rotate a compacted snapshot (and truncate the WAL) every Nth
    /// appended record per graph (clamped ≥ 1). Ignored without
    /// `data_dir`.
    pub snapshot_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            max_connections: 64,
            shards: 1,
            data_dir: None,
            fsync_every: crate::persistence::DEFAULT_FSYNC_EVERY,
            snapshot_every: crate::persistence::DEFAULT_SNAPSHOT_EVERY,
        }
    }
}

/// Shared serve-side accounting: request counters, the shutdown latch,
/// and the concurrent-connection high-water mark. One instance is
/// shared by every worker of a [`serve_unix`] run and surfaced by the
/// `stats` op.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    queries: AtomicU64,
    mutations: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
    active_connections: AtomicU64,
    peak_connections: AtomicU64,
    total_connections: AtomicU64,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a `shutdown` op has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Latches the shutdown flag (it is never cleared).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Concurrent connections being served right now.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// The concurrent-connection high-water mark.
    pub fn peak_connections(&self) -> u64 {
        self.peak_connections.load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    fn connection_opened(&self) {
        self.total_connections.fetch_add(1, Ordering::Relaxed);
        let now = self.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    #[cfg(unix)]
    fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// `(queries, mutations, errors)` so far.
    fn op_counts(&self) -> (u64, u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.mutations.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }

    /// Counts one request answered with an error object.
    fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The server's summary: connection accounting and op counts from
    /// these metrics (every op at one shard, decode errors at n), plus
    /// the op counts of `shards` and the catalog, cache and tier
    /// counters summed over `engines`.
    fn summary(&self, engines: &[Engine], shards: &[ShardCounters]) -> ServeSummary {
        let (mut queries, mut mutations, mut errors) = self.op_counts();
        for shard in shards {
            let (q, m, e) = shard.metrics.op_counts();
            queries += q;
            mutations += m;
            errors += e;
        }
        let mut summary = ServeSummary {
            queries,
            mutations,
            errors,
            shutdown: self.shutdown_requested(),
            connections: self.total_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections(),
            ..ServeSummary::default()
        };
        for engine in engines {
            let catalog = engine.catalog().stats();
            let inc = engine.incremental_stats();
            summary.loads += catalog.loads;
            summary.cache_hits += catalog.hits;
            summary.result_hits += engine.results().stats().hits;
            summary.warm_hits += engine.warm_stats().hits;
            summary.incremental_hits += inc.hits;
            summary.incremental_fallbacks += inc.fallbacks;
        }
        summary
    }
}

/// One shard's counters beside its engine's own, for the `stats`
/// breakdown of an n-shard server: the requests routed to the shard,
/// and the queries, mutations and errors its engine answered.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub(crate) metrics: ServeMetrics,
    pub(crate) routed: AtomicU64,
}

/// What a serve loop did, for logging and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Query requests answered successfully.
    pub queries: u64,
    /// Graph-mutation requests (`create_graph`, `add_edges`,
    /// `remove_edges`, `compact`) answered successfully.
    pub mutations: u64,
    /// Requests answered with an error object.
    pub errors: u64,
    /// Whether a `shutdown` op ended the loop (vs EOF).
    pub shutdown: bool,
    /// Connections served (1 for the stdio mode).
    pub connections: u64,
    /// Most connections served concurrently at any instant.
    pub peak_connections: u64,
    /// Graph files read and canonicalized, over every engine.
    pub loads: u64,
    /// Queries answered from an already-loaded graph.
    pub cache_hits: u64,
    /// Queries replayed from a result cache.
    pub result_hits: u64,
    /// Named-graph queries answered by verified replay or a full
    /// re-peel of a seeded query (warm restarts).
    pub warm_hits: u64,
    /// Named-graph queries answered by the incremental tier (delta
    /// re-peel verified against the published snapshot).
    pub incremental_hits: u64,
    /// Incremental attempts that fell back to a full re-peel.
    pub incremental_fallbacks: u64,
}

/// Runs the JSONL loop over arbitrary reader/writer pairs until EOF or a
/// `shutdown` op, updating `metrics` as it goes, and returns their
/// summary (one connection). This is the stdio serve mode; lines are
/// decoded by the same rule as socket JSONL lines (see [`serve_unix`]),
/// so invalid UTF-8 gets an error reply rather than ending the loop.
pub fn serve_loop<R: BufRead, W: Write>(
    engine: &Engine,
    default_policy: &ResourcePolicy,
    mut reader: R,
    writer: &mut W,
    metrics: &ServeMetrics,
) -> std::io::Result<ServeSummary> {
    let engines = std::slice::from_ref(engine);
    let mut scratch = FieldScratch::new();
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let raw = line.strip_suffix(b"\n").unwrap_or(&line);
        let response = match decode_line(raw, &mut scratch) {
            None => continue,
            Some(Ok(())) => {
                let fields = scratch.fields();
                let op = op_name(None, fields);
                answer_control(op, fields, engines, &[], metrics)
                    .unwrap_or_else(|| execute(engine, default_policy, metrics, fields, op))
            }
            Some(Err(message)) => {
                metrics.record_error();
                error_response("null", &message)
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if metrics.shutdown_requested() {
            break;
        }
    }
    Ok(ServeSummary {
        connections: 1,
        peak_connections: 1,
        ..metrics.summary(engines, &[])
    })
}

/// The JSONL line rule of both transports: invalid UTF-8 is decoded
/// lossily (the parser then answers with its typed error), and a blank
/// line is skipped (`None`). The parsed fields land in `scratch`.
fn decode_line(raw: &[u8], scratch: &mut FieldScratch) -> Option<Result<(), String>> {
    let lossy;
    let text = match std::str::from_utf8(raw) {
        Ok(text) => text,
        Err(_) => {
            lossy = String::from_utf8_lossy(raw);
            &lossy
        }
    };
    if text.trim().is_empty() {
        return None;
    }
    Some(minijson::parse_object_into(text, scratch).map_err(|e| e.to_string()))
}

/// A request's op: the binary opcode's, else its `op` field, else
/// `query`.
fn op_name<'f>(opcode: Option<&'static str>, fields: &'f [(String, Value)]) -> &'f str {
    opcode.unwrap_or_else(|| {
        minijson::get(fields, "op")
            .and_then(Value::as_str)
            .unwrap_or("query")
    })
}

/// Starts a response with the request's `id` echoed straight from the
/// parsed value (no intermediate string).
fn envelope(fields: &[(String, Value)]) -> JsonBuilder {
    let mut j = JsonBuilder::new();
    match minijson::get(fields, "id") {
        Some(v) => j.value_field("id", v),
        None => j.raw_field("id", "null"),
    }
    j
}

/// `shutdown` and `stats` concern the whole server, so the serve loop
/// answers them itself; every other op gets `None` and runs on its
/// shard's engine ([`execute`]). A `shutdown` latches the metrics'
/// shutdown flag.
fn answer_control(
    op: &str,
    fields: &[(String, Value)],
    engines: &[Engine],
    shards: &[ShardCounters],
    metrics: &ServeMetrics,
) -> Option<String> {
    match op {
        "shutdown" => {
            metrics.request_shutdown();
            let mut j = envelope(fields);
            j.raw_field("ok", "true");
            j.raw_field("bye", "true");
            Some(j.finish())
        }
        "stats" => Some(render_stats(fields, engines, shards, metrics)),
        _ => None,
    }
}

/// Every engine counter `stats` reports, in reply order; the two
/// connection counters go in before `mutations`.
const ENGINE_COUNTERS: [&str; 19] = [
    "loads",
    "hits",
    "stat_scans",
    "evictions",
    "graphs",
    "result_hits",
    "result_misses",
    "result_insertions",
    "result_evictions",
    "result_entries",
    "result_bytes",
    "mutations",
    "graphs_named",
    "warm_hits",
    "warm_fallbacks",
    "incremental_hits",
    "incremental_fallbacks",
    // Startup-recovery counters (zero on a non-durable server): the
    // crash-recovery CI lane asserts on these structured fields instead
    // of grepping server logs.
    "replayed_ops",
    "dropped_tail_records",
];

/// One engine's values of [`ENGINE_COUNTERS`].
fn engine_counters(engine: &Engine) -> [u64; 19] {
    let catalog = engine.catalog();
    let stats = catalog.stats();
    let results = engine.results().stats();
    let warm = engine.warm_stats();
    let inc = engine.incremental_stats();
    let (replayed, dropped) = catalog.recovery_counters();
    [
        stats.loads,
        stats.hits,
        stats.stat_scans,
        stats.evictions,
        catalog.len() as u64,
        results.hits,
        results.misses,
        results.insertions,
        results.evictions,
        results.entries,
        results.bytes,
        catalog.mutations(),
        catalog.named_len() as u64,
        warm.hits,
        warm.fallbacks,
        inc.hits,
        inc.fallbacks,
        replayed,
        dropped,
    ]
}

/// The one `stats` renderer. Each counter is summed over `engines`, and
/// the `named` arrays are concatenated in shard order. The per-graph
/// `named` array comes last among the flat fields so they stay trivially
/// greppable, and only when a session graph exists, so a session-less
/// one-shard reply stays a flat object that the minijson request parser
/// itself can read (the throughput experiment and older clients rely on
/// that). An n-shard server (`shards` non-empty) appends its per-shard
/// breakdown: the observable proof of isolation, as each shard's
/// counters move only when requests are routed to it.
fn render_stats(
    fields: &[(String, Value)],
    engines: &[Engine],
    shards: &[ShardCounters],
    metrics: &ServeMetrics,
) -> String {
    let counters: Vec<[u64; 19]> = engines.iter().map(engine_counters).collect();
    let mut j = envelope(fields);
    j.raw_field("ok", "true");
    for (i, name) in ENGINE_COUNTERS.iter().enumerate() {
        if *name == "mutations" {
            j.num_field("conn_active", metrics.active_connections() as f64);
            j.num_field("conn_peak", metrics.peak_connections() as f64);
        }
        j.num_field(name, counters.iter().map(|c| c[i]).sum::<u64>() as f64);
    }
    let named: Vec<String> = engines
        .iter()
        .flat_map(|engine| engine.catalog().named_stats())
        .map(|g| {
            let mut item = JsonBuilder::new();
            item.str_field("name", &g.name);
            item.num_field("version", g.version as f64);
            item.num_field("nodes", g.nodes as f64);
            item.num_field("edges", g.edges as f64);
            item.num_field("delta_edges", g.delta_edges as f64);
            item.num_field("compactions", g.compactions as f64);
            item.num_field("warm_hits", g.warm_hits as f64);
            item.num_field("warm_fallbacks", g.warm_fallbacks as f64);
            item.num_field("incremental_hits", g.incremental_hits as f64);
            item.num_field("incremental_fallbacks", g.incremental_fallbacks as f64);
            item.num_field("wal_bytes", g.wal_bytes as f64);
            item.num_field("snapshot_version", g.snapshot_version as f64);
            item.num_field("last_fsync", g.last_fsync as f64);
            item.num_field("replayed_ops", g.replayed_ops as f64);
            item.num_field("dropped_tail_records", g.dropped_tail_records as f64);
            item.finish()
        })
        .collect();
    if !named.is_empty() {
        j.raw_field("named", &format!("[{}]", named.join(",")));
    }
    if !shards.is_empty() {
        let rows: Vec<String> = shards
            .iter()
            .zip(&counters)
            .enumerate()
            .map(|(index, (shard, engine))| {
                let (queries, mutations, errors) = shard.metrics.op_counts();
                let mut row = JsonBuilder::new();
                row.num_field("shard", index as f64);
                row.num_field("routed", shard.routed.load(Ordering::Relaxed) as f64);
                row.num_field("queries", queries as f64);
                row.num_field("mutations", mutations as f64);
                row.num_field("errors", errors as f64);
                for (name, value) in ENGINE_COUNTERS.iter().zip(engine) {
                    if matches!(*name, "loads" | "graphs" | "graphs_named") {
                        row.num_field(name, *value as f64);
                    }
                }
                row.finish()
            })
            .collect();
        j.raw_field("shards", &format!("[{}]", rows.join(",")));
    }
    j.finish()
}

/// Runs one query or mutation (or rejects an unknown op) on `engine`,
/// counting the outcome into `metrics`: the per-request core of every
/// transport and shard count. Binary requests carry the op in the frame
/// header and JSONL requests in a field; everything downstream of `op`
/// is identical, which is what makes binary replies byte-identical in
/// content to JSONL response lines.
fn execute(
    engine: &Engine,
    default_policy: &ResourcePolicy,
    metrics: &ServeMetrics,
    fields: &[(String, Value)],
    op: &str,
) -> String {
    let mut j = envelope(fields);
    j.raw_field("ok", "true");
    let counter = match op {
        "create_graph" | "add_edges" | "remove_edges" | "compact" => {
            run_mutation(engine, op, fields, &mut j).map(|()| &metrics.mutations)
        }
        "query" => run_query(engine, default_policy, fields, &mut j).map(|()| &metrics.queries),
        other => Err(format!("unknown op '{other}'")),
    };
    match counter {
        Ok(counter) => {
            counter.fetch_add(1, Ordering::Relaxed);
            j.finish()
        }
        Err(e) => {
            // Error paths are cold and re-derive the id themselves.
            metrics.record_error();
            let id = minijson::get(fields, "id").map_or("null".to_string(), Value::to_json);
            error_response(&id, &e)
        }
    }
}

fn error_response(id: &str, message: &str) -> String {
    let mut j = JsonBuilder::new();
    j.raw_field("id", id);
    j.raw_field("ok", "false");
    j.str_field("error", message);
    j.finish()
}

/// Decodes the flat `"edges"` string of a mutation request: `u v` node
/// id pairs separated by whitespace and/or commas/semicolons, e.g.
/// `"0 1, 1 2"`. The request schema stays flat (no JSON arrays), so one
/// op still batches arbitrarily many edges.
fn parse_edge_pairs(raw: &str) -> Result<Vec<(u32, u32)>, String> {
    let mut ids: Vec<u32> = Vec::new();
    for token in raw
        .split(|c: char| c == ',' || c == ';' || c.is_whitespace())
        .filter(|t| !t.is_empty())
    {
        ids.push(
            token
                .parse::<u32>()
                .map_err(|_| format!("bad node id '{token}' in 'edges'"))?,
        );
    }
    if !ids.len().is_multiple_of(2) {
        return Err(format!(
            "'edges' must hold an even number of node ids ('u v' pairs; got {})",
            ids.len()
        ));
    }
    Ok(ids.chunks(2).map(|pair| (pair[0], pair[1])).collect())
}

/// Executes one graph-mutation op, appending the outcome fields to the
/// response under construction.
fn run_mutation(
    engine: &Engine,
    op: &str,
    fields: &[(String, Value)],
    j: &mut JsonBuilder,
) -> Result<(), String> {
    let field = |key: &str| minijson::get(fields, key).unwrap_or(&Value::Null);
    let name = str_field("graph", field("graph"))?
        .ok_or("missing 'graph'")?
        .to_string();
    let edges = match str_field("edges", field("edges"))? {
        Some(raw) => parse_edge_pairs(raw)?,
        None => Vec::new(),
    };
    let outcome = match op {
        "create_graph" => {
            let kind = if bool_field("directed", field("directed"))? {
                dsg_graph::GraphKind::Directed
            } else {
                dsg_graph::GraphKind::Undirected
            };
            engine.create_graph(&name, kind, &edges)
        }
        "add_edges" => {
            if edges.is_empty() {
                return Err("missing 'edges'".into());
            }
            engine.add_edges(&name, &edges)
        }
        "remove_edges" => {
            if edges.is_empty() {
                return Err("missing 'edges'".into());
            }
            engine.remove_edges(&name, &edges)
        }
        "compact" => engine.compact_graph(&name),
        // A dispatch bug must surface as an error reply, not a panicked
        // worker thread stranding its connections.
        other => return Err(format!("unsupported mutation op '{other}'")),
    }
    .map_err(|e| e.to_string())?;
    j.str_field("graph", &name);
    j.num_field("version", outcome.version as f64);
    j.num_field("nodes", outcome.nodes as f64);
    j.num_field("edges", outcome.edges as f64);
    j.num_field("applied", outcome.applied as f64);
    j.num_field("delta_edges", outcome.delta_edges as f64);
    j.num_field("compacted", if outcome.compacted { 1.0 } else { 0.0 });
    Ok(())
}

/// Decodes a query request ([`parse_query`]), executes it, and appends
/// the result fields (`result`, cache markers, `loads`, `elapsed_ms`) to
/// the response envelope under construction. The nested result embeds
/// the report's memoized rendering directly — no intermediate string on
/// the replay hot path.
fn run_query(
    engine: &Engine,
    default_policy: &ResourcePolicy,
    fields: &[(String, Value)],
    j: &mut JsonBuilder,
) -> Result<(), String> {
    let (source, query, policy) = parse_query(fields, default_policy)?;
    match engine
        .execute_serve(&source, &query, &policy)
        .map_err(|e| e.to_string())?
    {
        // Replay fast path: the stored report is shared, not cloned —
        // its rendering is reused verbatim and the per-request envelope
        // fields (both caches hit by construction, fresh elapsed) come
        // from the replay itself.
        crate::engine::ServeReport::Shared { report, elapsed_ms } => {
            j.raw_field("result", report.json_str());
            j.num_field("cache_hit", 1.0);
            j.num_field("result_cache_hit", 1.0);
            j.num_field("loads", engine.catalog().stats().loads as f64);
            j.num_field("elapsed_ms", elapsed_ms);
        }
        crate::engine::ServeReport::Owned(report) => {
            j.raw_field("result", report.json_str());
            if let Some(hit) = report.cache_hit {
                j.num_field("cache_hit", if hit { 1.0 } else { 0.0 });
            }
            if let Some(hit) = report.result_cache_hit {
                j.num_field("result_cache_hit", if hit { 1.0 } else { 0.0 });
            }
            j.num_field("loads", engine.catalog().stats().loads as f64);
            j.num_field("elapsed_ms", report.elapsed_ms);
        }
    }
    Ok(())
}

/// Serves the JSONL loop over stdin/stdout until EOF or `shutdown`.
/// Inherently one connection; [`ServeOptions`] does not apply.
pub fn serve_stdio(engine: &Engine, policy: &ResourcePolicy) -> std::io::Result<ServeSummary> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let metrics = ServeMetrics::new();
    serve_loop(engine, policy, stdin.lock(), &mut stdout, &metrics)
}

/// Removes the socket file when dropped — including drops caused by an
/// error return or a panic unwinding through [`serve_unix`], so a
/// crashed server never leaves a stale socket behind (the regression
/// test for the error path exercises exactly this drop-on-unwind).
struct SocketGuard {
    path: PathBuf,
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Serves the JSONL loop on a Unix socket with an accept thread and a
/// bounded worker pool (see the module docs for the concurrency model).
/// A connection that fails mid-session — abrupt disconnect, a client
/// that stops reading (EPIPE) — ends **that connection only**: the
/// error is absorbed and the server keeps accepting. Only bind/accept
/// failures take the server down. A stale socket file at `path` is
/// replaced; the socket file is removed when the server stops — on
/// clean shutdown *and* on error paths, via an RAII guard.
#[cfg(unix)]
pub fn serve_unix(
    engine: &Engine,
    policy: &ResourcePolicy,
    path: &Path,
    options: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    use std::os::unix::net::UnixListener;

    if path.exists() {
        std::fs::remove_file(path)?;
    }
    // Bind to a temporary name and rename into place once listening:
    // `bind` creates the file before `listen` runs, so a client watching
    // for the socket file could otherwise connect in that window and be
    // refused. After the rename, the public path only ever names a
    // socket that is already accepting.
    let staging = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".bind");
        PathBuf::from(name)
    };
    let _ = std::fs::remove_file(&staging);
    let listener = UnixListener::bind(&staging)?;
    // From here on, every exit — clean shutdown, accept error, panic —
    // removes the socket file (staging name first, public name after
    // the rename).
    let mut guard = SocketGuard {
        path: staging.clone(),
    };
    std::fs::rename(&staging, path)?;
    guard.path = path.to_path_buf();
    let metrics = ServeMetrics::new();
    let runtime = crate::shard::ShardRuntime::new(engine, options)?;
    run_listener(&runtime, policy, &listener, options, &metrics)?;
    Ok(metrics.summary(runtime.engines(), runtime.counters()))
}

/// Write high-water mark per connection: once this many response bytes
/// are buffered unsent (the client has stopped reading), the server
/// stops reading and processing further requests from that connection
/// until the backlog drains below the mark. A slow reader throttles
/// itself, never the server — and never pins a graceful shutdown open.
#[cfg(unix)]
const WRITE_HWM: usize = 256 * 1024;

/// Read chunk size, and the consumed-prefix threshold above which the
/// reusable read/write buffers are compacted.
#[cfg(unix)]
const READ_CHUNK: usize = 64 * 1024;

/// Longest JSONL request line, without its newline: the binary frame
/// cap, so both wire formats bound a request alike.
#[cfg(unix)]
const MAX_LINE: usize = crate::frame::DEFAULT_MAX_FRAME;

/// Bytes ahead of each batch item's payload: its opcode and u32 length.
#[cfg(unix)]
const BATCH_ITEM_HEADER: usize = 5;

/// Counts live connections across all workers and blocks the accept
/// thread at `max_connections` — the pool's backpressure.
#[cfg(unix)]
struct ConnGate {
    used: std::sync::Mutex<usize>,
    freed: std::sync::Condvar,
    cap: usize,
}

#[cfg(unix)]
impl ConnGate {
    fn new(cap: usize) -> Self {
        ConnGate {
            used: std::sync::Mutex::new(0),
            freed: std::sync::Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Claims a connection slot, parking while the server is at
    /// capacity. Returns `false` once shutdown latches instead.
    fn acquire(&self, metrics: &ServeMetrics) -> bool {
        let mut used = self.used.lock().expect("conn gate poisoned");
        while *used >= self.cap {
            if metrics.shutdown_requested() {
                return false;
            }
            used = self.freed.wait(used).expect("conn gate poisoned");
        }
        *used += 1;
        true
    }

    fn release(&self) {
        let mut used = self.used.lock().expect("conn gate poisoned");
        *used = used.saturating_sub(1);
        self.freed.notify_all();
    }

    /// Wakes every thread parked in [`ConnGate::acquire`] so it can
    /// observe the shutdown latch. Taking the mutex first makes the
    /// wake race-free against a concurrent check-then-wait.
    fn poke(&self) {
        let _used = self.used.lock().expect("conn gate poisoned");
        self.freed.notify_all();
    }
}

/// One I/O event loop's mailbox of accepted connections, and the waker
/// that tells it about them.
#[cfg(unix)]
struct IoSlot {
    arrivals: std::sync::Mutex<Vec<std::os::unix::net::UnixStream>>,
    waker: crate::readiness::Waker,
}

/// Everything the accept thread and the I/O event loops share besides
/// the shard runtime and the metrics.
#[cfg(unix)]
struct IoShared {
    slots: Vec<IoSlot>,
    accept_waker: crate::readiness::Waker,
    gate: ConnGate,
}

#[cfg(unix)]
impl IoShared {
    /// Wakes every parked thread — the event loops, the accept thread
    /// and the gate — once shutdown latches.
    fn wake_all(&self) {
        for slot in &self.slots {
            slot.waker.wake();
        }
        self.accept_waker.wake();
        self.gate.poke();
    }
}

/// The accept thread and `workers` I/O event loops per shard around a
/// bound listener, all under one scope: the accept loop ends on
/// shutdown or error, latches the stop flag and wakes everyone, and the
/// scope join is the drain.
#[cfg(unix)]
fn run_listener(
    runtime: &crate::shard::ShardRuntime<'_>,
    policy: &ResourcePolicy,
    listener: &std::os::unix::net::UnixListener,
    options: &ServeOptions,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    use crate::readiness::wake_pair;

    let loops = options.workers.max(1) * runtime.engines().len();
    listener.set_nonblocking(true)?;
    let (accept_waker, accept_rx) = wake_pair()?;
    let mut slots = Vec::with_capacity(loops);
    let mut receivers = Vec::with_capacity(loops);
    for _ in 0..loops {
        let (waker, rx) = wake_pair()?;
        slots.push(IoSlot {
            arrivals: std::sync::Mutex::new(Vec::new()),
            waker,
        });
        receivers.push(rx);
    }
    let shared = IoShared {
        slots,
        accept_waker,
        gate: ConnGate::new(options.max_connections),
    };
    let ctx = ServeCtx {
        runtime,
        policy,
        metrics,
    };
    std::thread::scope(|s| {
        for (slot, rx) in shared.slots.iter().zip(receivers) {
            let (ctx, shared) = (&ctx, &shared);
            s.spawn(move || io_event_loop(ctx, shared, slot, rx));
        }
        let mut next_slot = 0usize;
        let accept_result = loop {
            // Backpressure: at `max_connections` live connections this
            // parks until one closes (or shutdown latches).
            if !shared.gate.acquire(metrics) {
                break Ok(());
            }
            match accept_next(listener, &accept_rx, metrics) {
                Ok(Some(conn)) => {
                    let slot = &shared.slots[next_slot % shared.slots.len()];
                    next_slot = next_slot.wrapping_add(1);
                    slot.arrivals.lock().expect("arrivals poisoned").push(conn);
                    slot.waker.wake();
                }
                Ok(None) => {
                    shared.gate.release();
                    break Ok(());
                }
                Err(e) => {
                    shared.gate.release();
                    break Err(e);
                }
            }
        };
        // Stop the event loops: latch shutdown and wake every one. The
        // request each is running still finishes and its response is
        // flushed best-effort; the scope join below is the drain.
        metrics.request_shutdown();
        shared.wake_all();
        accept_result
    })
}

/// Blocks in `poll(2)` until a connection arrives; `Ok(None)` means the
/// shutdown latch fired instead.
#[cfg(unix)]
fn accept_next(
    listener: &std::os::unix::net::UnixListener,
    wake_rx: &crate::readiness::WakeReceiver,
    metrics: &ServeMetrics,
) -> std::io::Result<Option<std::os::unix::net::UnixStream>> {
    use crate::readiness::{poll_fds, PollFd, POLLIN};
    use std::os::fd::AsRawFd;

    loop {
        if metrics.shutdown_requested() {
            return Ok(None);
        }
        match listener.accept() {
            Ok((conn, _)) => return Ok(Some(conn)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [
                    PollFd::new(listener.as_raw_fd(), POLLIN),
                    PollFd::new(wake_rx.fd(), POLLIN),
                ];
                poll_fds(&mut fds, -1)?;
                if fds[1].ready(POLLIN) {
                    wake_rx.drain();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Borrow bundle the event loops share for their per-connection work.
#[cfg(unix)]
struct ServeCtx<'a> {
    runtime: &'a crate::shard::ShardRuntime<'a>,
    policy: &'a ResourcePolicy,
    metrics: &'a ServeMetrics,
}

/// One I/O event loop, the same at every shard count: adopt handed-over
/// connections, park in `poll(2)` over the set (infinite timeout — an
/// idle loop costs zero wakeups), service whatever turned ready, prune
/// the dead.
#[cfg(unix)]
fn io_event_loop(
    ctx: &ServeCtx<'_>,
    shared: &IoShared,
    slot: &IoSlot,
    wake_rx: crate::readiness::WakeReceiver,
) {
    use crate::readiness::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
    use std::os::fd::AsRawFd;

    let metrics = ctx.metrics;
    let mut conns: Vec<Connection> = Vec::new();
    let mut scratch = FieldScratch::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_conns: Vec<usize> = Vec::new();
    loop {
        if metrics.shutdown_requested() {
            break;
        }
        // Adopt newly assigned connections.
        let adopted: Vec<_> = slot
            .arrivals
            .lock()
            .expect("arrivals poisoned")
            .drain(..)
            .collect();
        for stream in adopted {
            match stream.set_nonblocking(true) {
                Ok(()) => {
                    metrics.connection_opened();
                    conns.push(Connection::new(stream));
                }
                Err(_) => shared.gate.release(),
            }
        }
        // Poll only connections that can act on readiness.
        fds.clear();
        fd_conns.clear();
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        for (index, conn) in conns.iter().enumerate() {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_conns.push(index);
            }
        }
        if poll_fds(&mut fds, -1).is_err() {
            // A poll failure is unrecoverable for this loop; take the
            // whole server down gracefully rather than spinning.
            metrics.request_shutdown();
            shared.wake_all();
            break;
        }
        if fds[0].ready(POLLIN) {
            wake_rx.drain();
        }
        let mut saw_shutdown = false;
        for (pfd, &index) in fds[1..].iter().zip(&fd_conns) {
            if pfd.revents == 0 {
                continue;
            }
            let readable = pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0;
            conns[index].turn(ctx, readable, &mut scratch, &mut saw_shutdown);
            if saw_shutdown {
                break;
            }
        }
        let live = conns.len();
        conns.retain(|conn| !conn.dead);
        for _ in conns.len()..live {
            metrics.connection_closed();
            shared.gate.release();
        }
        if saw_shutdown {
            // The loop already latched the flag; wake everyone so the
            // other event loops (and the accept thread) observe it now
            // instead of at their next natural wakeup.
            shared.wake_all();
            break;
        }
    }
    // Shutdown drain: one best-effort nonblocking flush per connection
    // (a client that stopped reading is abandoned immediately — shutdown
    // never blocks on it), then close everything.
    for conn in &mut conns {
        if !conn.dead {
            conn.flush();
        }
        metrics.connection_closed();
        shared.gate.release();
    }
}

/// Which wire format a connection's first byte selected.
#[cfg(unix)]
enum WireMode {
    /// Nothing received yet.
    Undetected,
    /// Line-delimited JSON (first byte was not the frame magic).
    Jsonl,
    /// Length-prefixed binary frames (first byte was the magic).
    Binary,
}

/// One multiplexed connection: its stream, detected wire mode, and the
/// reusable read/write buffers (both persist across requests, so
/// steady-state decoding allocates nothing).
#[cfg(unix)]
struct Connection {
    stream: std::os::unix::net::UnixStream,
    mode: WireMode,
    /// Bytes read but not yet consumed; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// The untaken items of the batch frame being walked, as a range of
    /// `rbuf` (behind `rpos`; the buffer is not compacted until the
    /// range is empty).
    batch: std::ops::Range<usize>,
    /// Bytes to write; `wpos` is the already-written prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Peer half-closed (or the connection was poisoned): read no more,
    /// close once the write backlog drains.
    eof: bool,
    /// Remove from the set at the next prune.
    dead: bool,
}

#[cfg(unix)]
impl Connection {
    fn new(stream: std::os::unix::net::UnixStream) -> Self {
        Connection {
            stream,
            mode: WireMode::Undetected,
            rbuf: Vec::new(),
            rpos: 0,
            batch: 0..0,
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            dead: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn backlogged(&self) -> bool {
        self.pending_write() >= WRITE_HWM
    }

    /// Read more bytes only when the connection could act on them: not
    /// over the write high-water mark, nor while a batch frame still
    /// holds untaken items — that per-connection backpressure is what
    /// bounds buffered input.
    fn wants_read(&self) -> bool {
        !self.dead && !self.eof && !self.backlogged() && self.batch.is_empty()
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.pending_write() > 0
    }

    /// One service turn: pull readable bytes, answer every complete
    /// request the per-connection rules allow (stopping at the write
    /// high-water mark), flush.
    fn turn(
        &mut self,
        ctx: &ServeCtx<'_>,
        readable: bool,
        scratch: &mut FieldScratch,
        saw_shutdown: &mut bool,
    ) {
        if readable && self.wants_read() {
            self.fill_rbuf();
        }
        loop {
            let was_backlogged = self.backlogged();
            let progressed = self.dispatch(ctx, scratch, saw_shutdown);
            if self.wants_write() {
                self.flush();
            }
            if self.dead || *saw_shutdown {
                break;
            }
            if was_backlogged && !self.backlogged() {
                // Entered this turn over the high-water mark (a POLLOUT
                // wake), so dispatch took nothing — but the flush just
                // cleared the backlog. Complete requests may still sit
                // in `rbuf`, and a pipelining client that has sent
                // everything will never trigger another POLLIN; retry
                // now rather than stranding them.
                continue;
            }
            if !progressed {
                break;
            }
        }
        if !self.dead && self.eof && self.pending_write() == 0 {
            // Peer half-closed, every buffered response is out, and no
            // complete request remains (a trailing partial line/frame at
            // EOF is dropped).
            self.dead = true;
        }
    }

    /// Reads until `WouldBlock`/EOF, appending to the reusable buffer —
    /// and stops once more than one whole request's worth is unconsumed:
    /// the decoder then answers or rejects it, so a client that never
    /// ends its line cannot grow the buffer without bound.
    fn fill_rbuf(&mut self) {
        use std::io::Read;

        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() - self.rpos <= MAX_LINE + crate::frame::HEADER_LEN {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Advances the connection as far as its rules allow: while the
    /// write backlog is under the mark, one decoded item after another.
    /// Returns whether anything moved.
    fn dispatch(
        &mut self,
        ctx: &ServeCtx<'_>,
        scratch: &mut FieldScratch,
        saw_shutdown: &mut bool,
    ) -> bool {
        let mut progressed = false;
        loop {
            if self.dead || *saw_shutdown || self.backlogged() {
                return progressed;
            }
            let Some(item) = self.next_item(scratch) else {
                return progressed;
            };
            progressed = true;
            match item {
                Ok(opcode) => self.answer(ctx, opcode, scratch.fields(), saw_shutdown),
                Err(message) => {
                    ctx.metrics.record_error();
                    self.push_reply(&error_response("null", &message));
                }
            }
        }
    }

    /// Answers one decoded request: `stats` and `shutdown` here, any
    /// other op on the engine the request routes to.
    fn answer(
        &mut self,
        ctx: &ServeCtx<'_>,
        opcode: Option<&'static str>,
        fields: &[(String, Value)],
        saw_shutdown: &mut bool,
    ) {
        let runtime = ctx.runtime;
        let op = op_name(opcode, fields);
        if let Some(reply) = answer_control(
            op,
            fields,
            runtime.engines(),
            runtime.counters(),
            ctx.metrics,
        ) {
            self.push_reply(&reply);
            if op == "shutdown" {
                // Requests after a shutdown go unanswered.
                self.rpos = self.rbuf.len();
                self.batch = 0..0;
                *saw_shutdown = true;
            }
        } else {
            let (engine, metrics) = runtime.route(fields, ctx.metrics);
            let reply = execute(engine, ctx.policy, metrics, fields, op);
            self.push_reply(&reply);
        }
    }

    /// Appends a reply in the connection's wire format: a reply frame,
    /// or a line.
    fn push_reply(&mut self, reply: &str) {
        if matches!(self.mode, WireMode::Binary) {
            crate::frame::encode_reply(reply, &mut self.wbuf);
        } else {
            self.wbuf.extend_from_slice(reply.as_bytes());
            self.wbuf.push(b'\n');
        }
    }

    /// The one request decoder, for both wire formats: the next item
    /// buffered on this connection, or `None` when no complete request
    /// is. `Ok` is a request whose fields are now in `scratch`, with the
    /// op of its binary opcode (`None` for JSONL, whose op is a field);
    /// `Err` is the message of a per-request error reply. Input that
    /// cannot be re-synchronized — framing damage, a line over
    /// [`MAX_LINE`] — also yields its error, after the decoder has
    /// dropped the rest of the input and stopped reading, so the
    /// connection closes once the reply drains.
    fn next_item(
        &mut self,
        scratch: &mut FieldScratch,
    ) -> Option<Result<Option<&'static str>, String>> {
        use crate::frame::{self, FrameError, Opcode};

        loop {
            if let Some(item) = frame::batch_items(&self.rbuf[self.batch.clone()]).next() {
                return Some(match item {
                    Ok((opcode, payload)) => {
                        self.batch.start += BATCH_ITEM_HEADER + payload.len();
                        decode_payload(opcode, payload, scratch)
                    }
                    Err(e) => Err(self.poison(e)),
                });
            }
            // Walked to its end: reset before the buffer may compact.
            self.batch = 0..0;
            if self.rpos >= self.rbuf.len() {
                if self.rpos > 0 {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                return None;
            }
            if self.rpos >= READ_CHUNK {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            if matches!(self.mode, WireMode::Undetected) {
                // The negotiation: one byte settles the connection's
                // wire format for its whole lifetime.
                self.mode = if self.rbuf[self.rpos] == frame::MAGIC {
                    WireMode::Binary
                } else {
                    WireMode::Jsonl
                };
            }
            if matches!(self.mode, WireMode::Binary) {
                match frame::decode_frame(&self.rbuf[self.rpos..], frame::DEFAULT_MAX_FRAME) {
                    Ok(None) => return None,
                    Ok(Some((Opcode::Batch, _, consumed))) => {
                        // Its items are taken one per call, from the top.
                        self.batch = self.rpos + frame::HEADER_LEN..self.rpos + consumed;
                        self.rpos += consumed;
                    }
                    Ok(Some((Opcode::Reply, _, _))) => {
                        let e = FrameError::Misplaced("a client must not send reply frames");
                        return Some(Err(self.poison(e)));
                    }
                    Ok(Some((opcode, payload, consumed))) => {
                        let item = decode_payload(opcode, payload, scratch);
                        self.rpos += consumed;
                        return Some(item);
                    }
                    Err(e) => return Some(Err(self.poison(e))),
                }
                continue;
            }
            let end = self.rbuf.len().min(self.rpos + MAX_LINE + 1);
            let Some(nl) = self.rbuf[self.rpos..end].iter().position(|&b| b == b'\n') else {
                if end - self.rpos > MAX_LINE {
                    let e = format!("request line exceeds the {MAX_LINE}-byte cap");
                    return Some(Err(self.poison(e)));
                }
                return None;
            };
            let start = self.rpos;
            self.rpos = start + nl + 1;
            if let Some(item) = decode_line(&self.rbuf[start..start + nl], scratch) {
                return Some(item.map(|()| None));
            }
        }
    }

    /// Input that cannot be re-synchronized: drops the rest of it and
    /// stops reading. Returns the error reply's message.
    fn poison(&mut self, error: impl ToString) -> String {
        self.rpos = self.rbuf.len();
        self.batch = 0..0;
        self.eof = true;
        error.to_string()
    }

    /// Writes as much of the backlog as the socket accepts right now.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= READ_CHUNK {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// Decodes one binary request payload into `scratch`. A bad payload is
/// a per-request error: the frame boundary is intact, so the stream
/// stays synchronized.
#[cfg(unix)]
fn decode_payload(
    opcode: crate::frame::Opcode,
    payload: &[u8],
    scratch: &mut FieldScratch,
) -> Result<Option<&'static str>, String> {
    crate::frame::decode_request_payload(payload, scratch)
        .map(|()| Some(opcode.op_name()))
        .map_err(|e| e.to_string())
}

/// Transport selection and pipelining depth for [`client_unix_opts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientOptions {
    /// Speak the binary frame protocol instead of JSONL.
    pub binary: bool,
    /// Most requests per window (clamped ≥ 1). 1 is strict lockstep:
    /// each request is read, sent and answered before the next is read.
    /// Above 1 the next window goes out before this one's replies are
    /// read; a binary window of two or more travels as one batch frame.
    pub pipeline: usize,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            binary: false,
            pipeline: 1,
        }
    }
}

/// Per-connection accounting from one [`client_unix_opts`] run.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Request/response exchanges completed.
    pub exchanges: u64,
    /// Per-request latency samples in milliseconds, completion order:
    /// from just before the write of the request's window to the
    /// arrival of that request's reply. The window was read, parsed and
    /// encoded before that instant, so client-side encoding is never
    /// counted. Under pipelining this includes queueing behind the
    /// window's earlier replies — exactly the latency a caller of the
    /// pipelined connection experiences.
    pub latencies_ms: Vec<f64>,
}

impl ClientStats {
    /// The p-th percentile (nearest-rank) of the latency samples.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The client: forwards each non-blank line of `requests` to the server
/// at `path`, as JSONL or binary frames, lockstep or pipelined, and
/// writes each response line to `responses`. Response lines are
/// byte-identical across transports (a binary reply frame carries the
/// same JSON text a JSONL response line would), so callers can switch
/// transports without re-parsing.
///
/// Request lines are read as the session goes: a lockstep session
/// answers each line before it reads the next, so it stays interactive.
/// Binary mode parses each line locally to encode it; a line that is not
/// valid flat JSON ends the session with an `InvalidInput` error, after
/// the requests before it were answered.
#[cfg(unix)]
pub fn client_unix_opts<R: BufRead, W: Write>(
    path: &Path,
    requests: R,
    responses: &mut W,
    options: &ClientOptions,
) -> std::io::Result<ClientStats> {
    let mut stats = ClientStats::default();
    client_session(path, requests, responses, options, &mut stats)?;
    Ok(stats)
}

/// One connection of a [`client_fan_out`].
#[derive(Debug, Default)]
pub struct FanOutConn {
    /// The response lines received, in request order — up to the
    /// failure, when one ended the connection early.
    pub transcript: Vec<u8>,
    /// Exchanges and latencies completed, failure or not.
    pub stats: ClientStats,
    /// What ended the connection early, if anything did.
    pub error: Option<std::io::Error>,
}

/// Opens one [`client_unix_opts`] connection per entry of `requests`,
/// all at once on scoped threads, each sending its own request text.
/// Every connection dials the socket, even one with no requests, and a
/// failed connection keeps its partial transcript and stats.
#[cfg(unix)]
pub fn client_fan_out(
    path: &Path,
    requests: &[String],
    options: &ClientOptions,
) -> Vec<FanOutConn> {
    std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|text| {
                s.spawn(move || {
                    let mut conn = FanOutConn::default();
                    conn.error = client_session(
                        path,
                        text.as_bytes(),
                        &mut conn.transcript,
                        options,
                        &mut conn.stats,
                    )
                    .err();
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A window is cut before it passes this many wire bytes (a longer
/// request goes alone), and only a window within it is sent ahead of the
/// previous window's replies: that send always fits the kernel socket
/// buffer, even while the server has stopped reading under write
/// backpressure, so the client never blocks on a send while it owes
/// reads.
#[cfg(unix)]
const SEND_AHEAD_MAX_BYTES: usize = 64 * 1024;

/// The body of [`client_unix_opts`], counting into `stats` as it goes so
/// a failed session still reports what it completed.
#[cfg(unix)]
fn client_session<R: BufRead, W: Write>(
    path: &Path,
    mut requests: R,
    responses: &mut W,
    options: &ClientOptions,
    stats: &mut ClientStats,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixStream;

    let stream = UnixStream::connect(path)?;
    let mut replies = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = stream;
    let binary = options.binary;
    let pipelined = options.pipeline > 1;
    let mut cutter = WindowCutter {
        binary,
        max_requests: options.pipeline.max(1),
        line: String::new(),
        scratch: FieldScratch::new(),
        carried: Vec::new(),
        eof: false,
    };
    let (mut window, mut next) = (Window::default(), Window::default());
    let mut reply = Vec::new();
    cutter.fill(&mut requests, &mut window)?;
    while window.requests > 0 {
        let sent_at = match window.sent_at {
            Some(at) => at,
            None => window.send(binary, &mut writer)?,
        };
        // Pipelining: the next window goes out before this one's replies
        // are read, so the server never idles a round trip between
        // windows — if it fits the send-ahead cap. Lockstep reads the
        // next request only once this reply is out.
        if pipelined {
            cutter.fill(&mut requests, &mut next)?;
            if next.requests > 0 && next.bytes.len() <= SEND_AHEAD_MAX_BYTES {
                next.send(binary, &mut writer)?;
            }
        }
        for _ in 0..window.requests {
            read_reply(binary, &mut replies, &mut reply)?;
            stats
                .latencies_ms
                .push(sent_at.elapsed().as_secs_f64() * 1e3);
            responses.write_all(&reply)?;
            stats.exchanges += 1;
        }
        if !pipelined {
            cutter.fill(&mut requests, &mut next)?;
        }
        std::mem::swap(&mut window, &mut next);
    }
    Ok(())
}

/// Reads request lines and cuts them into windows: at most
/// `max_requests` requests and at most [`SEND_AHEAD_MAX_BYTES`] of wire
/// bytes each.
#[cfg(unix)]
struct WindowCutter {
    binary: bool,
    max_requests: usize,
    line: String,
    scratch: FieldScratch,
    /// The encoded request that would have pushed the last window past
    /// the cap: it opens the next one.
    carried: Vec<u8>,
    /// `requests` is exhausted: never read it again (an interactive
    /// stdin would wait for more input after its end).
    eof: bool,
}

#[cfg(unix)]
impl WindowCutter {
    /// Refills `window` with the next requests; it holds none at the end
    /// of the input.
    fn fill<R: BufRead>(&mut self, requests: &mut R, window: &mut Window) -> std::io::Result<()> {
        window.bytes.clear();
        window.requests = 0;
        window.sent_at = None;
        if self.binary {
            // The batch header; `Window::send` rewrites it for a window
            // of one.
            crate::frame::begin_frame(crate::frame::Opcode::Batch, &mut window.bytes);
        }
        if !self.carried.is_empty() {
            window.bytes.append(&mut self.carried);
            window.requests = 1;
        }
        while window.requests < self.max_requests && !self.eof {
            self.line.clear();
            if requests.read_line(&mut self.line)? == 0 {
                self.eof = true;
                break;
            }
            let line = self
                .line
                .strip_suffix('\n')
                .map_or(self.line.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
            if line.trim().is_empty() {
                continue;
            }
            let start = window.bytes.len();
            encode_request(self.binary, line, &mut self.scratch, &mut window.bytes)?;
            if window.requests > 0 && window.bytes.len() > SEND_AHEAD_MAX_BYTES {
                self.carried.extend_from_slice(&window.bytes[start..]);
                window.bytes.truncate(start);
                break;
            }
            window.requests += 1;
        }
        Ok(())
    }
}

/// One window of requests, encoded into the buffer one write sends.
#[cfg(unix)]
#[derive(Default)]
struct Window {
    /// JSONL lines, or a batch frame of `[opcode][u32 len][payload]`
    /// items.
    bytes: Vec<u8>,
    requests: usize,
    sent_at: Option<std::time::Instant>,
}

#[cfg(unix)]
impl Window {
    /// Writes the window with one call and returns its send time, taken
    /// just before the write. A binary window of one goes as a plain
    /// request frame, whose header ends where the item's length field
    /// ends: that field is already in place, and the magic, version,
    /// opcode and reserved byte go in the four bytes before it.
    fn send<W: Write>(
        &mut self,
        binary: bool,
        writer: &mut W,
    ) -> std::io::Result<std::time::Instant> {
        use crate::frame::{end_frame, HEADER_LEN, MAGIC, VERSION};

        let start = match (binary, self.requests) {
            (false, _) => 0,
            (true, 1) => {
                let opcode = self.bytes[HEADER_LEN];
                let start = HEADER_LEN - 3;
                self.bytes[start..HEADER_LEN + 1].copy_from_slice(&[MAGIC, VERSION, opcode, 0]);
                start
            }
            (true, _) => {
                end_frame(&mut self.bytes, HEADER_LEN - 4);
                0
            }
        };
        let sent_at = std::time::Instant::now();
        self.sent_at = Some(sent_at);
        writer.write_all(&self.bytes[start..])?;
        Ok(sent_at)
    }
}

/// The window encoder: appends one request line to `out`, as a JSONL
/// line or (`binary`) as a batch item.
#[cfg(unix)]
fn encode_request(
    binary: bool,
    line: &str,
    scratch: &mut FieldScratch,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    if !binary {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        return Ok(());
    }
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
    minijson::parse_object_into(line, scratch)
        .map_err(|e| invalid(format!("cannot encode request as a frame: {e}")))?;
    let fields = scratch.fields();
    crate::frame::encode_batch_item(op_name(None, fields), fields, out)
        .map_err(|e| invalid(e.to_string()))
}

/// The reply reader: one reply into `line`, newline-terminated — a JSONL
/// response line, or the JSON text of a reply frame.
#[cfg(unix)]
fn read_reply<R: BufRead>(
    binary: bool,
    replies: &mut R,
    line: &mut Vec<u8>,
) -> std::io::Result<()> {
    line.clear();
    if binary {
        read_reply_frame(replies, line)?;
        line.push(b'\n');
    } else if replies.read_until(b'\n', line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-exchange",
        ));
    }
    Ok(())
}

/// Reads one reply frame into `buf` (header stripped, payload = the
/// response JSON bytes).
#[cfg(unix)]
fn read_reply_frame<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut header = [0u8; crate::frame::HEADER_LEN];
    reader.read_exact(&mut header)?;
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if header[0] != crate::frame::MAGIC {
        return Err(bad(format!("bad reply magic 0x{:02x}", header[0])));
    }
    if header[1] != crate::frame::VERSION {
        return Err(bad(format!("bad reply version {}", header[1])));
    }
    if crate::frame::Opcode::from_byte(header[2]) != Some(crate::frame::Opcode::Reply) {
        return Err(bad(format!(
            "expected a reply frame, got 0x{:02x}",
            header[2]
        )));
    }
    if header[3] != 0 {
        // Mirror the server-side decode_frame: the reserved byte must be
        // zero until a protocol revision assigns it meaning.
        return Err(bad(format!("nonzero reserved byte 0x{:02x}", header[3])));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > crate::frame::DEFAULT_MAX_FRAME {
        return Err(bad(format!("reply frame length {len} exceeds the cap")));
    }
    buf.resize(len, 0);
    reader.read_exact(buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Algorithm, Query, Source};
    use std::io::Cursor;

    fn fixture(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dsg_engine_serve_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    /// Writes a K5 fixture under a per-test file name: parallel test
    /// threads must never rewrite each other's fixture, or the mtime
    /// change would invalidate the catalog's revalidation stamp
    /// mid-test.
    fn k5_path(name: &str) -> PathBuf {
        let mut s = String::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                s.push_str(&format!("{u} {v}\n"));
            }
        }
        fixture(name, &s)
    }

    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap();
        &rest[..end]
    }

    fn run_lines(engine: &Engine, requests: &str) -> (ServeSummary, String) {
        let mut out = Vec::new();
        let summary = serve_loop(
            engine,
            &ResourcePolicy::default(),
            Cursor::new(requests.to_string()),
            &mut out,
            &ServeMetrics::new(),
        )
        .unwrap();
        (summary, String::from_utf8(out).unwrap())
    }

    #[test]
    fn repeated_queries_load_once_and_are_byte_stable() {
        let path = k5_path("k5_byte_stable.txt");
        let p = path.display();
        let requests = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}\n\
             {{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}\n\
             {{\"id\":3,\"algorithm\":\"charikar\",\"file\":\"{p}\"}}\n\
             {{\"id\":4,\"op\":\"stats\"}}\n"
        );
        let engine = Engine::new();
        let (summary, out) = run_lines(&engine, &requests);
        assert_eq!(summary.queries, 3, "the stats op is not a query");
        assert_eq!(summary.errors, 0);
        assert!(!summary.shutdown, "EOF, not shutdown");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        // One load serves all three queries.
        assert_eq!(field(lines[0], "cache_hit"), "0");
        assert_eq!(field(lines[1], "cache_hit"), "1");
        assert_eq!(field(lines[2], "cache_hit"), "1");
        for l in &lines[..3] {
            assert_eq!(field(l, "loads"), "1", "{l}");
        }
        // The repeated identical query replays from the result cache.
        assert_eq!(field(lines[0], "result_cache_hit"), "0");
        assert_eq!(field(lines[1], "result_cache_hit"), "1");
        assert_eq!(field(lines[2], "result_cache_hit"), "0");
        assert_eq!(field(lines[3], "loads"), "1");
        assert_eq!(field(lines[3], "hits"), "2");
        assert_eq!(field(lines[3], "graphs"), "1");
        assert_eq!(field(lines[3], "result_hits"), "1");
        assert_eq!(field(lines[3], "result_misses"), "2");
        assert_eq!(field(lines[3], "result_entries"), "2");
        // Identical queries produce byte-identical nested results.
        let result_of = |l: &str| l.split("\"result\":").nth(1).unwrap().to_string();
        let r1 = result_of(lines[0]);
        let r2 = result_of(lines[1]);
        assert_eq!(
            r1.split(",\"cache_hit\"").next(),
            r2.split(",\"cache_hit\"").next()
        );
        assert_eq!(field(lines[0], "density"), "2");
    }

    #[test]
    fn shutdown_op_ends_the_loop_and_later_lines_are_unread() {
        let path = k5_path("k5_shutdown_op.txt");
        let requests = format!(
            "{{\"op\":\"shutdown\",\"id\":\"bye\"}}\n\
             {{\"id\":9,\"algorithm\":\"approx\",\"file\":\"{}\"}}\n",
            path.display()
        );
        let engine = Engine::new();
        let (summary, out) = run_lines(&engine, &requests);
        assert!(summary.shutdown);
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("\"id\":\"bye\""), "{out}");
        assert_eq!(engine.catalog().stats().loads, 0);
    }

    #[test]
    fn errors_keep_the_loop_alive() {
        let path = k5_path("k5_errors.txt");
        let requests = format!(
            "not json\n\
             {{\"id\":1,\"algorithm\":\"nope\",\"file\":\"x\"}}\n\
             {{\"id\":2,\"algorithm\":\"approx\"}}\n\
             {{\"id\":3,\"file\":\"/definitely/not/here.txt\"}}\n\
             {{\"id\":4,\"algorithm\":\"atleast-k\",\"file\":\"{p}\",\"k\":1000}}\n\
             {{\"id\":5,\"algorithm\":\"approx\",\"file\":\"{p}\"}}\n",
            p = path.display()
        );
        let engine = Engine::new();
        let (summary, out) = run_lines(&engine, &requests);
        assert_eq!(summary.errors, 5);
        assert_eq!(summary.queries, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        for l in &lines[..5] {
            assert_eq!(field(l, "ok"), "false", "{l}");
            assert!(l.contains("\"error\":"), "{l}");
        }
        assert!(lines[4].contains("exceeds the graph"), "{}", lines[4]);
        assert_eq!(field(lines[5], "ok"), "true");
    }

    #[test]
    fn sketch_width_past_u32_max_is_rejected() {
        let path = k5_path("k5_sketch_width.txt");
        let p = path.display();
        let requests = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"sketch\":4294967297}}\n\
             {{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{p}\",\"sketch\":4294967296}}\n\
             {{\"id\":3,\"algorithm\":\"approx\",\"file\":\"{p}\",\"sketch\":4}}\n"
        );
        let engine = Engine::new();
        let (summary, out) = run_lines(&engine, &requests);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        for l in &lines[..2] {
            assert_eq!(field(l, "ok"), "false", "{l}");
            assert!(l.contains("'sketch' must be at most 4294967295"), "{l}");
        }
        assert_eq!(field(lines[2], "ok"), "true", "{}", lines[2]);
        assert_eq!(field(lines[2], "backend"), "\"sketch\"", "{}", lines[2]);
        assert_eq!((summary.errors, summary.queries), (2, 1));
    }

    #[test]
    fn parallel_backend_is_an_unknown_backend() {
        let path = k5_path("k5_parallel_backend.txt");
        let p = path.display();
        let requests = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"backend\":\"parallel\"}}\n\
             {{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{p}\",\"threads\":2}}\n"
        );
        let engine = Engine::new();
        let (summary, out) = run_lines(&engine, &requests);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert_eq!(
            lines[0],
            "{\"id\":1,\"ok\":false,\"error\":\"unknown backend 'parallel' \
             (auto|memory|stream|mapreduce)\"}"
        );
        // Two threads plan the serial in-memory peel.
        assert_eq!(field(lines[1], "ok"), "true", "{}", lines[1]);
        assert_eq!(field(lines[1], "backend"), "\"memory\"", "{}", lines[1]);
        assert_eq!(field(lines[1], "threads"), "1", "{}", lines[1]);
        assert_eq!((summary.errors, summary.queries), (1, 1));
    }

    #[test]
    fn stdio_loop_answers_invalid_utf8_and_keeps_going() {
        let path = k5_path("k5_stdio_utf8.txt");
        let query = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{}\"}}\n",
            path.display()
        );
        let mut requests = query.clone().into_bytes();
        requests.extend_from_slice(b"{\"id\":2,\"algorithm\":\"appr\xff\xfe\"}\n");
        requests.extend_from_slice(query.replace("\"id\":1", "\"id\":3").as_bytes());
        let engine = Engine::new();
        let mut out = Vec::new();
        let summary = serve_loop(
            &engine,
            &ResourcePolicy::default(),
            Cursor::new(requests),
            &mut out,
            &ServeMetrics::new(),
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert_eq!(
            lines[1],
            "{\"id\":2,\"ok\":false,\"error\":\"unknown algorithm 'appr\u{FFFD}\u{FFFD}'\"}"
        );
        assert_eq!(field(lines[2], "ok"), "true", "{}", lines[2]);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.queries, 2);
    }

    #[test]
    fn mutable_session_transcript() {
        // The README's session, end to end: create → query → add_edges
        // → query (version bump, no stale replay) → remove → compact →
        // stats.
        let engine = Engine::new();
        let requests = "\
            {\"id\":1,\"op\":\"create_graph\",\"graph\":\"live\",\"edges\":\"0 1, 0 2, 1 2\"}\n\
            {\"id\":2,\"algorithm\":\"approx\",\"graph\":\"live\",\"epsilon\":0.5}\n\
            {\"id\":3,\"algorithm\":\"approx\",\"graph\":\"live\",\"epsilon\":0.5}\n\
            {\"id\":4,\"op\":\"add_edges\",\"graph\":\"live\",\"edges\":\"0 3, 1 3, 2 3\"}\n\
            {\"id\":5,\"algorithm\":\"approx\",\"graph\":\"live\",\"epsilon\":0.5}\n\
            {\"id\":6,\"op\":\"remove_edges\",\"graph\":\"live\",\"edges\":\"2 3\"}\n\
            {\"id\":7,\"op\":\"compact\",\"graph\":\"live\"}\n\
            {\"id\":8,\"op\":\"stats\"}\n";
        let (summary, out) = run_lines(&engine, requests);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 8, "{out}");
        for l in &lines {
            assert_eq!(field(l, "ok"), "true", "{l}");
        }
        assert_eq!(summary.queries, 3);
        assert_eq!(summary.mutations, 4);
        assert_eq!(summary.errors, 0);
        // create: version 1, triangle.
        assert_eq!(field(lines[0], "version"), "1");
        assert_eq!(field(lines[0], "nodes"), "3");
        assert_eq!(field(lines[0], "edges"), "3");
        // First query computes (miss), second replays (hit).
        assert_eq!(field(lines[1], "result_cache_hit"), "0");
        assert_eq!(field(lines[1], "density"), "1");
        assert_eq!(field(lines[2], "result_cache_hit"), "1");
        // add_edges bumps the version; the next query must recompute.
        assert_eq!(field(lines[3], "version"), "2");
        assert_eq!(field(lines[3], "applied"), "3");
        assert_eq!(field(lines[3], "edges"), "6");
        assert_eq!(field(lines[4], "result_cache_hit"), "0");
        assert_eq!(field(lines[4], "density"), "1.5", "K4 density");
        // remove bumps again; compact folds the logs.
        assert_eq!(field(lines[5], "version"), "3");
        assert_eq!(field(lines[5], "edges"), "5");
        let compact_version: u64 = field(lines[6], "version").parse().unwrap();
        assert!(compact_version >= 3, "{}", lines[6]);
        assert_eq!(field(lines[6], "delta_edges"), "0");
        // stats: session accounting + per-graph object.
        assert_eq!(field(lines[7], "graphs_named"), "1");
        let muts: u64 = field(lines[7], "mutations").parse().unwrap();
        assert!(muts >= 3, "{}", lines[7]);
        assert!(
            lines[7].contains("\"named\":[{\"name\":\"live\""),
            "{}",
            lines[7]
        );
        assert!(lines[7].contains("\"delta_edges\":0"), "{}", lines[7]);
        assert!(lines[7].contains("\"warm_hits\":"), "{}", lines[7]);
        assert!(lines[7].contains("\"incremental_hits\":"), "{}", lines[7]);
        assert!(
            lines[7].contains("\"incremental_fallbacks\":"),
            "{}",
            lines[7]
        );
    }

    #[test]
    fn incremental_counters_reach_the_serve_surface() {
        // A small-delta mutate/query loop must be answered by the
        // incremental tier, and both the `stats` op and the returned
        // summary must report it (globally and per graph).
        let engine = Engine::new();
        let mut requests =
            String::from("{\"id\":0,\"op\":\"create_graph\",\"graph\":\"live\",\"edges\":\"");
        // A denser seed graph than the transcript test, so single-edge
        // deltas stay well under the affected-set bound.
        let mut sep = "";
        for u in 0..12u32 {
            for v in (u + 1)..12u32 {
                if (u + v) % 3 != 0 {
                    requests.push_str(&format!("{sep}{u} {v}"));
                    sep = ", ";
                }
            }
        }
        requests.push_str(
            "\"}\n{\"id\":1,\"algorithm\":\"approx\",\"graph\":\"live\",\"epsilon\":0.5}\n",
        );
        for i in 0..4 {
            requests.push_str(&format!(
                "{{\"id\":{},\"op\":\"add_edges\",\"graph\":\"live\",\"edges\":\"{} {}\"}}\n",
                2 + 2 * i,
                3 * i,
                3 * i + 3,
            ));
            requests.push_str(&format!(
                "{{\"id\":{},\"algorithm\":\"approx\",\"graph\":\"live\",\"epsilon\":0.5}}\n",
                3 + 2 * i,
            ));
        }
        requests.push_str("{\"id\":99,\"op\":\"stats\"}\n");
        let (summary, out) = run_lines(&engine, &requests);
        assert_eq!(summary.errors, 0, "{out}");
        assert!(
            summary.incremental_hits >= 1,
            "incremental tier never fired: {summary:?}\n{out}"
        );
        let stats_line = out.lines().last().unwrap();
        let hits: u64 = field(stats_line, "incremental_hits").parse().unwrap();
        assert_eq!(hits, summary.incremental_hits, "{stats_line}");
        assert!(
            stats_line.contains("\"named\":[{\"name\":\"live\""),
            "{stats_line}"
        );
        // The per-graph object repeats the counters; with one graph they
        // match the global ones.
        let per_graph = stats_line.split("\"named\":").nth(1).unwrap();
        assert!(
            per_graph.contains(&format!("\"incremental_hits\":{hits}")),
            "{stats_line}"
        );
    }

    #[test]
    fn session_queries_are_byte_identical_to_memory_runs() {
        // A query on a named graph must nest the identical result object
        // as the same query over the materialized edge list (label
        // aside, which is part of the source identity).
        let engine = Engine::new();
        let requests = "\
            {\"id\":1,\"op\":\"create_graph\",\"graph\":\"g\",\"edges\":\"0 1, 0 2, 1 2, 2 3\"}\n\
            {\"id\":2,\"algorithm\":\"approx\",\"graph\":\"g\",\"epsilon\":0.1}\n\
            {\"id\":3,\"algorithm\":\"atleast-k\",\"graph\":\"g\",\"k\":2}\n";
        let (_, out) = run_lines(&engine, requests);
        let lines: Vec<&str> = out.lines().collect();
        let mut list = dsg_graph::EdgeList::new_undirected(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3)] {
            list.push(u, v);
        }
        let reference = Engine::new();
        let policy = ResourcePolicy::default();
        for (line, algorithm) in [
            (
                lines[1],
                Algorithm::Approx {
                    epsilon: 0.1,
                    sketch: None,
                },
            ),
            (lines[2], Algorithm::AtLeastK { k: 2, epsilon: 0.5 }),
        ] {
            let report = reference
                .execute(
                    &Source::Memory {
                        list: list.clone(),
                        label: "g".into(),
                    },
                    &Query::new(algorithm),
                    &policy,
                )
                .unwrap();
            let served = line.split("\"result\":").nth(1).unwrap();
            let served = served.split(",\"result_cache_hit\"").next().unwrap();
            assert_eq!(served, report.json_object(false), "{line}");
        }
    }

    #[test]
    fn session_errors_are_typed_and_keep_the_loop_alive() {
        let engine = Engine::new();
        let requests = "\
            {\"id\":1,\"op\":\"add_edges\",\"graph\":\"nope\",\"edges\":\"0 1\"}\n\
            {\"id\":2,\"op\":\"create_graph\",\"graph\":\"g\"}\n\
            {\"id\":3,\"op\":\"create_graph\",\"graph\":\"g\"}\n\
            {\"id\":4,\"op\":\"add_edges\",\"graph\":\"g\",\"edges\":\"0 1 2\"}\n\
            {\"id\":5,\"op\":\"add_edges\",\"graph\":\"g\",\"edges\":\"0 x\"}\n\
            {\"id\":6,\"op\":\"add_edges\",\"graph\":\"g\"}\n\
            {\"id\":7,\"algorithm\":\"approx\",\"graph\":\"missing\"}\n\
            {\"id\":8,\"algorithm\":\"directed\",\"graph\":\"g\"}\n\
            {\"id\":9,\"algorithm\":\"approx\",\"graph\":\"g\",\"file\":\"x\"}\n\
            {\"id\":10,\"op\":\"add_edges\",\"graph\":\"g\",\"edges\":\"0 1\"}\n";
        let (summary, out) = run_lines(&engine, requests);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(summary.errors, 8, "{out}");
        assert_eq!(summary.mutations, 2);
        assert!(lines[0].contains("unknown graph 'nope'"), "{}", lines[0]);
        assert_eq!(field(lines[1], "ok"), "true");
        assert!(lines[2].contains("already exists"), "{}", lines[2]);
        assert!(lines[3].contains("even number"), "{}", lines[3]);
        assert!(lines[4].contains("bad node id 'x'"), "{}", lines[4]);
        assert!(lines[5].contains("missing 'edges'"), "{}", lines[5]);
        assert!(lines[6].contains("unknown graph 'missing'"), "{}", lines[6]);
        assert!(lines[7].contains("undirected"), "{}", lines[7]);
        assert!(
            lines[8].contains("either 'file' or 'graph'"),
            "{}",
            lines[8]
        );
        assert_eq!(field(lines[9], "ok"), "true", "loop still alive");
    }

    #[test]
    fn directed_sessions_serve_directed_queries() {
        let engine = Engine::new();
        let requests = "\
            {\"id\":1,\"op\":\"create_graph\",\"graph\":\"d\",\"directed\":true,\
\"edges\":\"0 1, 1 0, 0 2, 1 2\"}\n\
            {\"id\":2,\"algorithm\":\"directed\",\"graph\":\"d\",\"delta\":2}\n";
        let (summary, out) = run_lines(&engine, requests);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(summary.errors, 0, "{out}");
        assert_eq!(field(lines[0], "edges"), "4");
        assert_eq!(field(lines[1], "ok"), "true");
        assert!(lines[1].contains("\"s_nodes\":"), "{}", lines[1]);
    }

    #[cfg(unix)]
    fn wait_for_socket(sock: &Path) {
        for _ in 0..300 {
            if sock.exists() {
                return;
            }
            // Test-only: wait for the server thread to bind its socket.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server socket never appeared at {}", sock.display());
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_survives_client_disconnects() {
        use std::os::unix::net::UnixStream;

        let path = k5_path("k5_survive.txt");
        let sock = std::env::temp_dir().join("dsg_engine_serve_tests/survive.sock");
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &ServeOptions::default(),
            )
            .unwrap()
        });
        wait_for_socket(&sock);
        // First client writes a query and vanishes without reading or
        // shutting down; the server must keep accepting.
        {
            let mut rude = UnixStream::connect(&sock).unwrap();
            writeln!(
                rude,
                "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{}\"}}",
                path.display()
            )
            .unwrap();
            let _ = rude.shutdown(std::net::Shutdown::Both);
        }
        // Second client gets full service.
        let requests = format!(
            "{{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{}\"}}\n{{\"op\":\"shutdown\"}}\n",
            path.display()
        );
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new(requests),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        let out = String::from_utf8(out).unwrap();
        assert_eq!(field(out.lines().next().unwrap(), "ok"), "true", "{out}");
        assert_eq!(field(out.lines().next().unwrap(), "density"), "2", "{out}");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path = k5_path("k5_roundtrip.txt");
        let sock = std::env::temp_dir().join("dsg_engine_serve_tests/roundtrip.sock");
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &ServeOptions::default(),
            )
            .unwrap()
        });
        wait_for_socket(&sock);
        let requests = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\"}}\n\
             {{\"id\":2,\"algorithm\":\"exact\",\"file\":\"{p}\"}}\n\
             {{\"op\":\"shutdown\"}}\n",
            p = path.display()
        );
        let mut out = Vec::new();
        let stats = client_unix_opts(
            &sock,
            Cursor::new(requests),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.exchanges, 3);
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        assert_eq!(summary.queries, 2, "the shutdown op is not a query");
        assert!(!sock.exists(), "socket file removed on clean shutdown");
        let out = String::from_utf8(out).unwrap();
        assert_eq!(field(out.lines().nth(1).unwrap(), "density"), "2");
    }

    #[cfg(unix)]
    #[test]
    fn concurrent_clients_share_one_load_and_get_identical_results() {
        let path = k5_path("k5_concurrent.txt");
        let sock = std::env::temp_dir().join("dsg_engine_serve_tests/concurrent.sock");
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &ServeOptions {
                    workers: 4,
                    max_connections: 16,
                    shards: 1,
                    ..ServeOptions::default()
                },
            )
            .unwrap()
        });
        wait_for_socket(&sock);

        // 4 clients, each issuing the same query 3 times concurrently.
        let clients = 4;
        let responses: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let sock = sock.clone();
                    let path = path.clone();
                    s.spawn(move || {
                        let requests = (0..3)
                            .map(|r| {
                                format!(
                                    "{{\"id\":\"{i}-{r}\",\"algorithm\":\"approx\",\"file\":\"{}\",\"epsilon\":0.1}}\n",
                                    path.display()
                                )
                            })
                            .collect::<String>();
                        let mut out = Vec::new();
                        client_unix_opts(&sock, Cursor::new(requests), &mut out, &ClientOptions::default()).unwrap();
                        String::from_utf8(out).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Every response line carries the identical nested result.
        let mut results: Vec<String> = Vec::new();
        for client_out in &responses {
            for l in client_out.lines() {
                assert_eq!(field(l, "ok"), "true", "{l}");
                assert_eq!(field(l, "loads"), "1", "single-flight load: {l}");
                results.push(l.split("\"result\":").nth(1).unwrap().to_string());
            }
        }
        assert_eq!(results.len(), clients * 3);
        let reference = results[0]
            .split(",\"cache_hit\"")
            .next()
            .unwrap()
            .to_string();
        for r in &results {
            assert_eq!(r.split(",\"cache_hit\"").next().unwrap(), reference);
        }

        // Stats, then shutdown.
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new("{\"op\":\"stats\",\"id\":\"s\"}\n{\"op\":\"shutdown\"}\n".to_string()),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let stats_line = out.lines().next().unwrap();
        assert_eq!(field(stats_line, "loads"), "1", "{stats_line}");
        // Each client's 2nd and 3rd queries run strictly after its own
        // 1st completed (and was inserted), so they are guaranteed hits;
        // the 4 first queries may race each other and all miss.
        let result_hits: u64 = field(stats_line, "result_hits").parse().unwrap();
        assert!(result_hits >= (clients * 2) as u64, "{stats_line}");
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        assert_eq!(summary.queries, clients as u64 * 3);
        assert!(summary.peak_connections >= 1);
        assert!(summary.connections >= clients as u64);
        assert!(!sock.exists(), "socket removed after shutdown");
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_drains_even_with_an_idle_connection_open() {
        use std::os::unix::net::UnixStream;

        let sock = std::env::temp_dir().join("dsg_engine_serve_tests/idle.sock");
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &ServeOptions {
                    workers: 2,
                    max_connections: 4,
                    shards: 1,
                    ..ServeOptions::default()
                },
            )
            .unwrap()
        });
        wait_for_socket(&sock);
        // An idle client that connects and sends nothing must not pin
        // the server open across a shutdown.
        let idle = UnixStream::connect(&sock).unwrap();
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new("{\"op\":\"shutdown\"}\n".to_string()),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        drop(idle);
        assert!(!sock.exists());
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_drains_even_when_a_client_stops_reading() {
        use std::os::unix::net::UnixStream;

        let path = k5_path("k5_noread.txt");
        let sock = std::env::temp_dir().join("dsg_engine_serve_tests/noread.sock");
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &ServeOptions {
                    workers: 2,
                    max_connections: 4,
                    shards: 1,
                    ..ServeOptions::default()
                },
            )
            .unwrap()
        });
        wait_for_socket(&sock);
        // A client that pipelines thousands of requests but never reads
        // fills the socket's send buffer; the worker writing responses
        // must not block shutdown forever.
        let mut rude = UnixStream::connect(&sock).unwrap();
        // Bound the rude client's own sends too: once the server stops
        // reading (because its writes to us are blocked), our write
        // would otherwise hang this test thread as well.
        rude.set_write_timeout(Some(std::time::Duration::from_millis(200)))
            .unwrap();
        let request = format!(
            "{{\"id\":1,\"algorithm\":\"charikar\",\"file\":\"{}\"}}\n",
            path.display()
        );
        let burst = request.repeat(4000);
        let _ = rude.write_all(burst.as_bytes());
        // Keep the rude connection open (unread) across the shutdown.
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new("{\"op\":\"shutdown\"}\n".to_string()),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        drop(rude);
        assert!(!sock.exists());
    }

    /// Drops the nondeterministic trailing `elapsed_ms` field so
    /// responses from different runs can be compared byte-for-byte.
    fn strip_elapsed(line: &str) -> String {
        match line.find(",\"elapsed_ms\":") {
            Some(i) => format!("{}}}", &line[..i]),
            None => line.to_string(),
        }
    }

    /// Spawns a serve_unix server on a fresh socket; returns the socket
    /// path and the join handle.
    #[cfg(unix)]
    fn spawn_server(
        sock_name: &str,
        options: ServeOptions,
    ) -> (PathBuf, std::thread::JoinHandle<ServeSummary>) {
        let sock = std::env::temp_dir().join(format!("dsg_engine_serve_tests/{sock_name}"));
        let _ = std::fs::remove_file(&sock);
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let engine = Engine::new();
            serve_unix(
                &engine,
                &ResourcePolicy::default(),
                &sock_for_server,
                &options,
            )
            .unwrap()
        });
        wait_for_socket(&sock);
        (sock, server)
    }

    /// The same request matrix (queries, mutations, stats, typed
    /// errors) answered over JSONL and over binary frames — against two
    /// servers with identical fresh state — must produce byte-identical
    /// response content (`elapsed_ms` aside).
    #[cfg(unix)]
    #[test]
    fn binary_replies_are_byte_identical_in_content_to_jsonl() {
        let path = k5_path("k5_parity.txt");
        let requests = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}\n\
             {{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{p}\",\"epsilon\":0.1}}\n\
             {{\"id\":3,\"algorithm\":\"charikar\",\"file\":\"{p}\"}}\n\
             {{\"id\":4,\"op\":\"create_graph\",\"graph\":\"live\",\"edges\":\"0 1, 0 2, 1 2\"}}\n\
             {{\"id\":5,\"algorithm\":\"approx\",\"graph\":\"live\"}}\n\
             {{\"id\":6,\"op\":\"add_edges\",\"graph\":\"live\",\"edges\":\"0 3\"}}\n\
             {{\"id\":7,\"algorithm\":\"nope\",\"file\":\"{p}\"}}\n\
             {{\"id\":8,\"op\":\"stats\"}}\n\
             {{\"op\":\"shutdown\"}}\n",
            p = path.display()
        );
        let run = |sock_name: &str, options: &ClientOptions| -> (Vec<String>, ServeSummary) {
            let (sock, server) = spawn_server(sock_name, ServeOptions::default());
            let mut out = Vec::new();
            let stats =
                client_unix_opts(&sock, Cursor::new(requests.clone()), &mut out, options).unwrap();
            let summary = server.join().unwrap();
            assert_eq!(stats.exchanges, 9);
            assert_eq!(stats.latencies_ms.len(), 9);
            let lines = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(strip_elapsed)
                .collect();
            (lines, summary)
        };
        let (jsonl, jsonl_summary) = run("parity_jsonl.sock", &ClientOptions::default());
        let (binary, binary_summary) = run(
            "parity_binary.sock",
            &ClientOptions {
                binary: true,
                pipeline: 1,
            },
        );
        let (pipelined, pipelined_summary) = run(
            "parity_pipelined.sock",
            &ClientOptions {
                binary: true,
                pipeline: 4,
            },
        );
        assert_eq!(jsonl, binary, "binary replies must match JSONL content");
        assert_eq!(jsonl, pipelined, "pipelining must not change content");
        for summary in [jsonl_summary, binary_summary, pipelined_summary] {
            assert_eq!(summary.queries, 4, "{summary:?}");
            assert_eq!(summary.mutations, 2, "{summary:?}");
            assert_eq!(summary.errors, 1, "{summary:?}");
            assert!(summary.shutdown);
        }
        // Sanity on the content itself, not just cross-transport equality.
        assert_eq!(field(&jsonl[0], "cache_hit"), "0");
        assert_eq!(field(&jsonl[1], "cache_hit"), "1");
        assert_eq!(field(&jsonl[1], "result_cache_hit"), "1");
        assert_eq!(field(&jsonl[0], "density"), "2");
        assert!(jsonl[6].contains("unknown algorithm"), "{}", jsonl[6]);
        assert_eq!(field(&jsonl[7], "loads"), "1");
    }

    /// JSONL and binary clients negotiated per connection share one
    /// server, one catalog, one result cache.
    #[cfg(unix)]
    #[test]
    fn mixed_transports_share_one_server() {
        let path = k5_path("k5_mixed.txt");
        let (sock, server) = spawn_server("mixed.sock", ServeOptions::default());
        let query = format!(
            "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{}\",\"epsilon\":0.1}}\n",
            path.display()
        );
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new(query.clone()),
            &mut out,
            &ClientOptions {
                binary: true,
                pipeline: 1,
            },
        )
        .unwrap();
        let binary_line = String::from_utf8(out).unwrap();
        assert_eq!(field(&binary_line, "cache_hit"), "0");
        // The JSONL client that follows hits both caches the binary
        // client warmed.
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new(format!("{query}{{\"op\":\"shutdown\"}}\n")),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let jsonl_line = String::from_utf8(out)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        assert_eq!(field(&jsonl_line, "cache_hit"), "1");
        assert_eq!(field(&jsonl_line, "result_cache_hit"), "1");
        assert_eq!(field(&jsonl_line, "loads"), "1");
        assert_eq!(
            strip_elapsed(&jsonl_line).replace("\"cache_hit\":1,\"result_cache_hit\":1", ""),
            strip_elapsed(binary_line.trim()).replace("\"cache_hit\":0,\"result_cache_hit\":0", ""),
            "same result content across transports on one server"
        );
        server.join().unwrap();
    }

    /// A batch frame is answered with one reply per item, in order,
    /// without the client reading in between — the pipelining contract.
    #[cfg(unix)]
    #[test]
    fn pipelined_batches_answer_in_order() {
        let path = k5_path("k5_pipeline.txt");
        let (sock, server) = spawn_server("pipeline.sock", ServeOptions::default());
        let n = 40;
        let requests: String = (0..n)
            .map(|i| {
                format!(
                    "{{\"id\":{i},\"algorithm\":\"approx\",\"file\":\"{}\",\"epsilon\":0.1}}\n",
                    path.display()
                )
            })
            .chain(std::iter::once(
                "{\"op\":\"shutdown\",\"id\":\"bye\"}\n".to_string(),
            ))
            .collect();
        let mut out = Vec::new();
        let stats = client_unix_opts(
            &sock,
            Cursor::new(requests),
            &mut out,
            &ClientOptions {
                binary: true,
                pipeline: 8,
            },
        )
        .unwrap();
        let summary = server.join().unwrap();
        assert_eq!(stats.exchanges as usize, n + 1);
        assert_eq!(summary.queries, n as u64);
        assert!(summary.shutdown);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), n + 1);
        for (i, line) in lines[..n].iter().enumerate() {
            assert_eq!(field(line, "id"), i.to_string(), "in-order replies: {line}");
            assert_eq!(field(line, "ok"), "true", "{line}");
        }
        assert_eq!(field(lines[n], "id"), "\"bye\"");
        assert!(stats.percentile_ms(50.0) <= stats.percentile_ms(99.0));
    }

    /// A lockstep session reads a request line only once every earlier
    /// line's reply has reached `responses`, in both wire formats — what
    /// keeps `densest client` interactive.
    #[cfg(unix)]
    #[test]
    fn lockstep_client_reads_each_line_after_the_previous_reply() {
        use std::cell::RefCell;
        use std::io::Read;
        use std::rc::Rc;

        /// Hands out its lines in order, and fails rather than start a
        /// line while fewer replies than earlier lines have arrived.
        struct GatedLines {
            lines: Vec<String>,
            handed: usize,
            offset: usize,
            replies: Rc<RefCell<Vec<u8>>>,
        }
        impl Read for GatedLines {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = {
                    let available = self.fill_buf()?;
                    let n = available.len().min(buf.len());
                    buf[..n].copy_from_slice(&available[..n]);
                    n
                };
                self.consume(n);
                Ok(n)
            }
        }
        impl BufRead for GatedLines {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                let answered = self
                    .replies
                    .borrow()
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count();
                if self.offset == 0 && self.handed < self.lines.len() && answered < self.handed {
                    return Err(std::io::Error::other(format!(
                        "line {} read before reply {}",
                        self.handed + 1,
                        self.handed
                    )));
                }
                Ok(self
                    .lines
                    .get(self.handed)
                    .map_or(&[][..], |line| &line.as_bytes()[self.offset..]))
            }
            fn consume(&mut self, n: usize) {
                self.offset += n;
                if self.lines.get(self.handed).map(String::len) == Some(self.offset) {
                    self.handed += 1;
                    self.offset = 0;
                }
            }
        }
        struct SharedOut(Rc<RefCell<Vec<u8>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (sock, server) = spawn_server("gated.sock", ServeOptions::default());
        for (binary, last) in [
            (false, "{\"op\":\"stats\",\"id\":3}"),
            (true, "{\"op\":\"shutdown\"}"),
        ] {
            let replies = Rc::new(RefCell::new(Vec::new()));
            let lines = [
                "{\"op\":\"stats\",\"id\":1}",
                "{\"op\":\"stats\",\"id\":2}",
                last,
            ];
            let requests = GatedLines {
                lines: lines.iter().map(|l| format!("{l}\n")).collect(),
                handed: 0,
                offset: 0,
                replies: Rc::clone(&replies),
            };
            let options = ClientOptions {
                binary,
                pipeline: 1,
            };
            let stats = client_unix_opts(
                &sock,
                requests,
                &mut SharedOut(Rc::clone(&replies)),
                &options,
            )
            .unwrap();
            assert_eq!(stats.exchanges, 3, "binary {binary}");
            let out = String::from_utf8(replies.take()).unwrap();
            let ids: Vec<&str> = out.lines().map(|l| field(l, "id")).collect();
            assert_eq!(ids[..2], ["1", "2"], "binary {binary}: {out}");
        }
        assert!(server.join().unwrap().shutdown);
    }

    /// Regression: a service turn entered already over the write
    /// high-water mark (a POLLOUT wake) used to skip the process loop,
    /// and when the flush then fully drained the backlog it broke with
    /// complete requests still buffered. A pipelining client that had
    /// sent its whole window and was waiting on replies never triggers
    /// another POLLIN, so those requests were stranded forever. The
    /// turn must retry processing once the flush clears the backlog.
    #[cfg(unix)]
    #[test]
    fn backlogged_turn_answers_buffered_requests_once_flush_drains() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;

        let (server_side, client_side) = UnixStream::pair().unwrap();
        server_side.set_nonblocking(true).unwrap();
        // The peer actively reads everything — the condition under
        // which a flush can fully drain the backlog.
        let reader = std::thread::spawn(move || {
            let mut client_side = client_side;
            let mut all = Vec::new();
            let mut chunk = [0u8; 1 << 16];
            loop {
                match client_side.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => all.extend_from_slice(&chunk[..n]),
                    Err(_) => break,
                }
            }
            all
        });
        let mut conn = Connection::new(server_side);
        // A previous turn left the write buffer at the high-water mark:
        // this turn starts backlogged, exactly like a POLLOUT wake.
        conn.wbuf = vec![b'#'; WRITE_HWM];
        // Two complete requests already buffered; the client will never
        // send another byte.
        conn.rbuf = b"{\"op\":\"stats\",\"id\":1}\n{\"op\":\"stats\",\"id\":2}\n".to_vec();
        let engine = Engine::new();
        let runtime = crate::shard::ShardRuntime::new(&engine, &ServeOptions::default()).unwrap();
        let ctx = ServeCtx {
            runtime: &runtime,
            policy: &ResourcePolicy::default(),
            metrics: &ServeMetrics::new(),
        };
        let mut scratch = FieldScratch::new();
        let mut saw_shutdown = false;
        conn.turn(&ctx, false, &mut scratch, &mut saw_shutdown);
        assert!(!conn.dead);
        assert!(!saw_shutdown);
        assert!(
            conn.rbuf.is_empty(),
            "buffered requests must be answered in the same turn, not stranded"
        );
        // Let the replies still in flight reach the peer, then close.
        while conn.pending_write() > 0 {
            conn.flush();
            assert!(!conn.dead);
            // Test-only: yield to the reader thread between flushes.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(conn);
        let received = reader.join().unwrap();
        let replies = String::from_utf8(received[WRITE_HWM..].to_vec()).unwrap();
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), 2, "{replies}");
        assert_eq!(field(lines[0], "id"), "1");
        assert_eq!(field(lines[1], "id"), "2");
    }

    /// Regression: an unbounded JSONL `--pipeline` burst whose bytes
    /// outrun the server's write high-water mark plus the kernel socket
    /// buffers deadlocked — the server parked at the HWM while the
    /// client was still blocked writing, not yet reading replies. The
    /// client now splits the window so at most SEND_AHEAD_MAX_BYTES is
    /// unacknowledged, like the binary path.
    #[cfg(unix)]
    #[test]
    fn huge_jsonl_pipeline_window_does_not_deadlock() {
        let (sock, server) = spawn_server("jsonl_huge_window.sock", ServeOptions::default());
        let n = 8000usize;
        let pad = "x".repeat(180);
        let requests: String = (0..n)
            .map(|i| format!("{{\"op\":\"stats\",\"id\":{i},\"pad\":\"{pad}\"}}\n"))
            .chain(std::iter::once(
                "{\"op\":\"shutdown\",\"id\":\"bye\"}\n".to_string(),
            ))
            .collect();
        let mut out = Vec::new();
        let stats = client_unix_opts(
            &sock,
            Cursor::new(requests),
            &mut out,
            &ClientOptions {
                binary: false,
                pipeline: n + 1,
            },
        )
        .unwrap();
        let summary = server.join().unwrap();
        assert_eq!(stats.exchanges as usize, n + 1);
        assert!(summary.shutdown);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), n + 1);
        assert_eq!(field(lines[0], "id"), "0");
        assert_eq!(field(lines[n], "id"), "\"bye\"");
    }

    /// Binary windows are cut at the same wire-byte cap as JSONL ones:
    /// a pipeline deeper than the cap allows goes out as several batch
    /// frames, each cut request opening the next one, and every reply
    /// still arrives in order.
    #[cfg(unix)]
    #[test]
    fn binary_windows_are_cut_at_the_send_ahead_cap() {
        let (sock, server) = spawn_server("binary_cut.sock", ServeOptions::default());
        let n = 2000usize;
        let pad = "x".repeat(180);
        let requests: String = (0..n)
            .map(|i| format!("{{\"op\":\"stats\",\"id\":{i},\"pad\":\"{pad}\"}}\n"))
            .chain(std::iter::once("{\"op\":\"shutdown\"}\n".to_string()))
            .collect();
        let mut out = Vec::new();
        let options = ClientOptions {
            binary: true,
            pipeline: n + 1,
        };
        let stats = client_unix_opts(&sock, Cursor::new(requests), &mut out, &options).unwrap();
        assert!(server.join().unwrap().shutdown);
        assert_eq!(stats.exchanges as usize, n + 1);
        let out = String::from_utf8(out).unwrap();
        let ids: Vec<&str> = out.lines().map(|l| field(l, "id")).collect();
        let want: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        assert_eq!(ids[..n], want);
    }

    /// With many idle connections parked, a graceful shutdown must
    /// complete in well under one legacy 50 ms poll tick — idle
    /// connections are woken by the self-pipe, not by timeout ticks.
    #[cfg(unix)]
    #[test]
    fn shutdown_completes_under_one_tick_with_idle_connections() {
        use std::os::unix::net::UnixStream;
        use std::time::Instant;

        let (sock, server) = spawn_server(
            "fast_shutdown.sock",
            ServeOptions {
                workers: 2,
                max_connections: 32,
                shards: 1,
                ..ServeOptions::default()
            },
        );
        let idle: Vec<UnixStream> = (0..8)
            .map(|_| UnixStream::connect(&sock).unwrap())
            .collect();
        // Let the workers adopt the idle connections and park in poll.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_millis(30));
        let started = Instant::now();
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new("{\"op\":\"shutdown\"}\n".to_string()),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let summary = server.join().unwrap();
        let elapsed = started.elapsed();
        assert!(summary.shutdown);
        assert!(
            elapsed < std::time::Duration::from_millis(50),
            "shutdown with 8 idle connections took {elapsed:?}; must be under one 50ms tick"
        );
        drop(idle);
        assert!(!sock.exists());
    }

    /// Framing damage (bad version, oversized length) gets one typed
    /// error reply, then the connection closes; the server survives.
    #[cfg(unix)]
    #[test]
    fn hostile_frames_poison_only_their_connection() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;

        let (sock, server) = spawn_server("hostile.sock", ServeOptions::default());
        // Bad version byte right after a valid magic.
        {
            let mut conn = UnixStream::connect(&sock).unwrap();
            conn.write_all(&[crate::frame::MAGIC, 99, 1, 0, 0, 0, 0, 0])
                .unwrap();
            conn.flush().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut reply = Vec::new();
            read_reply_frame(&mut reader, &mut reply).unwrap();
            let reply = String::from_utf8(reply).unwrap();
            assert_eq!(field(&reply, "ok"), "false");
            assert!(reply.contains("unsupported frame version"), "{reply}");
            // Then EOF: the poisoned connection is closed.
            let mut rest = Vec::new();
            assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
        }
        // An oversized length prefix is rejected before any allocation.
        {
            let mut conn = UnixStream::connect(&sock).unwrap();
            let mut hostile = vec![crate::frame::MAGIC, crate::frame::VERSION, 0x01, 0];
            hostile.extend_from_slice(&u32::MAX.to_le_bytes());
            conn.write_all(&hostile).unwrap();
            conn.flush().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut reply = Vec::new();
            read_reply_frame(&mut reader, &mut reply).unwrap();
            let reply = String::from_utf8(reply).unwrap();
            assert!(reply.contains("exceeds the"), "{reply}");
        }
        // The server still serves a well-behaved client afterwards.
        let mut out = Vec::new();
        client_unix_opts(
            &sock,
            Cursor::new("{\"op\":\"stats\",\"id\":1}\n{\"op\":\"shutdown\"}\n".to_string()),
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(field(out.lines().next().unwrap(), "ok"), "true");
        let summary = server.join().unwrap();
        assert!(summary.shutdown);
        assert_eq!(summary.errors, 2, "one typed error per hostile frame");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0, "unsorted input");
    }

    #[cfg(unix)]
    #[test]
    fn socket_file_removed_when_serve_exits_via_error_path() {
        // Regression test for the RAII guard: the serve loop used to
        // remove the socket file only on the clean-exit line, so any
        // error return or unwind leaked a stale socket. The guard
        // removes it on *every* exit; unwinding is the harshest such
        // path, so that is what we simulate around the guard itself.
        let dir = std::env::temp_dir().join("dsg_engine_serve_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guarded.sock");
        std::fs::write(&path, b"stale").unwrap();
        let path_for_panic = path.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = SocketGuard {
                path: path_for_panic,
            };
            panic!("serve loop died");
        });
        assert!(result.is_err());
        assert!(
            !path.exists(),
            "the guard must remove the socket on unwind/error exits"
        );
    }
}
