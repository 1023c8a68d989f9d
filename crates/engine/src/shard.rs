//! Sharded serving: N independent engines behind one socket.
//!
//! With `ServeOptions::shards > 1` the Unix-socket server splits into a
//! **front router** and N **engine shards**:
//!
//! ```text
//!                        ┌──────────────┐
//!   accept thread ──────▶│ router worker│──┐
//!   (one, shared)        │ event loops  │  │ bounded per-shard queue
//!                        │ (all conn    │  ▼
//!                        │  I/O lives   │ ┌─────────────────────────┐
//!                        │  here)       │ │ shard 0: Engine+catalog │
//!                        │              │ │ + result cache + warm/  │
//!                        │  hash-route  │ │ incremental state, own  │
//!                        │  by graph    │ │ executor pool           │
//!                        │  identity ───┼▶├─────────────────────────┤
//!                        │              │ │ shard 1: …              │
//!                        └──────▲───────┘ └───────────┬─────────────┘
//!                               └── completion mailbox┘
//! ```
//!
//! * Each shard owns a full [`Engine`] — its own [`GraphCatalog`],
//!   [`ResultCache`], and warm-seed/incremental state — served by its
//!   own executor pool. Shards share **nothing**: no lock is ever taken
//!   by more than one shard, so one shard's slow query or contended
//!   session never stalls another shard's throughput.
//! * The routing rule is pure and stable: FNV-1a over the request's
//!   graph identity (`"g:" + name` for session graphs, `"f:" + path`
//!   for file graphs), mod the shard count. Every `create_graph`,
//!   mutation, and query for the same named graph therefore lands on
//!   the same shard, which is what keeps all per-session invariants
//!   (version monotonicity, warm restarts, incremental re-peeling) of
//!   the single-engine server valid per-shard, unchanged.
//! * The router owns every connection and its buffers. Requests cross
//!   to a shard over a bounded queue (`ShardQueue`); replies come
//!   back pre-encoded through a per-router-worker completion mailbox.
//!   A full queue parks the *connection* (the job is retried once the
//!   shard drains), never the router thread — backpressure is
//!   per-connection, exactly like the write high-water mark.
//! * Dispatch is **serial per connection**: one request in flight at a
//!   time, so responses come back in request order on every connection
//!   and a 1-shard and an N-shard server answer the same single-client
//!   transcript with byte-identical response *content* (`elapsed_ms`
//!   differs per run; `loads` counts per-shard catalog loads).
//! * `stats` and `shutdown` never reach a shard: the router answers
//!   `stats` by scatter/gathering every shard's counters into the flat
//!   single-engine schema (fields summed, `named` arrays concatenated
//!   in shard order) plus a trailing `"shards"` per-shard breakdown
//!   array, and `shutdown` latches the global stop flag directly.
//!
//! [`GraphCatalog`]: crate::GraphCatalog
//! [`ResultCache`]: crate::ResultCache

use std::collections::VecDeque;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::minijson::{self, Value};
use crate::readiness::{poll_fds, wake_pair, PollFd, WakeReceiver, POLLIN, POLLOUT};
use crate::report::JsonBuilder;
use crate::serve::{
    accept_next, error_response, handle_fields, ConnGate, Connection, LineOutcome, ServeMetrics,
    ServeOptions, ServeSummary, WireMode, READ_CHUNK,
};
use crate::{Engine, ResourcePolicy};

/// Bound of each shard's request queue. Small on purpose: the queue is
/// a handoff buffer, not a backlog — a shard that falls this far behind
/// should push back on its connections, not absorb unbounded work.
pub(crate) const SHARD_QUEUE_CAP: usize = 256;

/// Picks the shard serving a request, from the request's graph
/// identity: the session-graph `name` if present, else the `file` path,
/// else shard 0 (identity-free requests have no affinity to honor).
///
/// The hash is FNV-1a over a tagged key (`"g:" + name` / `"f:" + path`)
/// so a file named like a session graph cannot collide with it. The
/// function is pure — the same request routes to the same shard across
/// restarts, which is what pins a named graph's whole session (create,
/// mutations, queries) to one engine.
pub fn routing_shard(graph: Option<&str>, file: Option<&str>, shards: usize) -> usize {
    let shards = shards.max(1);
    let (tag, key) = match (graph, file) {
        (Some(name), _) => (b'g', name),
        (None, Some(path)) => (b'f', path),
        (None, None) => return 0,
    };
    let mut hash: u64 = 0xcbf29ce484222325;
    for &byte in [tag, b':'].iter().chain(key.as_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    (hash % shards as u64) as usize
}

/// One request crossing from the router to a shard. `worker`/`slot`/
/// `gen` address the owning connection so the completion finds its way
/// back (and is dropped if the connection died and its slot was
/// reused — the generation check).
struct ShardJob {
    worker: usize,
    slot: usize,
    gen: u64,
    fields: Vec<(String, Value)>,
    /// Opcode-carried op for binary requests; JSONL requests resolve
    /// the op from their fields, exactly like [`handle_fields`].
    op: Option<&'static str>,
    /// Encode the reply as a binary frame rather than a JSONL line.
    binary: bool,
}

/// A finished job's pre-encoded reply, homed to `(slot, gen)` on the
/// router worker that owns the connection.
struct Completion {
    slot: usize,
    gen: u64,
    bytes: Vec<u8>,
    shutdown: bool,
}

struct QueueState {
    jobs: VecDeque<ShardJob>,
    /// Router workers that hit the bound and parked a connection; the
    /// executor wakes them as soon as it pops (capacity freed).
    stalled: Vec<usize>,
}

/// The bounded SPSC-style handoff queue in front of one shard. The
/// router side never blocks: a push against a full queue fails and the
/// connection parks. The executor side blocks on `ready` until a job
/// or shutdown arrives.
struct ShardQueue {
    backlog: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

impl ShardQueue {
    fn new(cap: usize) -> Self {
        ShardQueue {
            backlog: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stalled: Vec::new(),
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Nonblocking push. On a full queue the job comes back to the
    /// caller (which parks its connection) and `worker` is registered
    /// for a wake once the executor frees a slot.
    fn try_push(&self, job: ShardJob, worker: usize) -> Result<(), ShardJob> {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        if state.jobs.len() >= self.cap {
            if !state.stalled.contains(&worker) {
                state.stalled.push(worker);
            }
            return Err(job);
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once shutdown latches and the queue is
    /// drained. Also returns the stalled router workers to wake now
    /// that a slot is free.
    fn pop(&self, metrics: &ServeMetrics) -> Option<(ShardJob, Vec<usize>)> {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let stalled = std::mem::take(&mut state.stalled);
                return Some((job, stalled));
            }
            if metrics.shutdown_requested() {
                return None;
            }
            state = self.ready.wait(state).expect("shard queue poisoned");
        }
    }

    /// Wakes every executor parked in [`ShardQueue::pop`] so it can
    /// observe the shutdown latch. Taking the mutex first makes the
    /// wake race-free against a concurrent check-then-wait.
    fn poke(&self) {
        let _state = self.backlog.lock().expect("shard queue poisoned");
        self.ready.notify_all();
    }

    /// Test-only: returns a popped job to the head of the queue (an
    /// executor raced a just-raised [`HoldGate`]). May transiently
    /// exceed `cap` by the one job being returned; order is preserved.
    #[cfg(test)]
    fn push_front(&self, job: ShardJob) {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        state.jobs.push_front(job);
        self.ready.notify_one();
    }
}

/// Test-only brake on one shard's executors: while held, the shard
/// pops nothing — used to prove queue backpressure ordering and that
/// other shards keep making progress (shard isolation).
#[cfg(test)]
pub(crate) struct HoldGate {
    held: Mutex<bool>,
    released: Condvar,
}

#[cfg(test)]
impl HoldGate {
    fn new() -> Self {
        HoldGate {
            held: Mutex::new(false),
            released: Condvar::new(),
        }
    }

    pub(crate) fn hold(&self) {
        *self.held.lock().expect("hold gate poisoned") = true;
    }

    pub(crate) fn release(&self) {
        *self.held.lock().expect("hold gate poisoned") = false;
        self.released.notify_all();
    }

    fn is_held(&self) -> bool {
        *self.held.lock().expect("hold gate poisoned")
    }

    fn wait(&self, metrics: &ServeMetrics) {
        let mut held = self.held.lock().expect("hold gate poisoned");
        while *held && !metrics.shutdown_requested() {
            let (guard, _) = self
                .released
                .wait_timeout(held, std::time::Duration::from_millis(25))
                .expect("hold gate poisoned");
            held = guard;
        }
    }
}

/// Everything per-shard: the engines, their queues, per-shard serve
/// metrics (queries/mutations/errors executed there), and the routed
/// counter (requests the router sent there).
pub(crate) struct ShardRuntime {
    engines: Vec<Engine>,
    queues: Vec<ShardQueue>,
    shard_metrics: Vec<ServeMetrics>,
    routed: Vec<AtomicU64>,
    #[cfg(test)]
    holds: Vec<HoldGate>,
}

impl ShardRuntime {
    /// Builds `shards` engines, each tuned like `template` (the engine
    /// the caller configured via CLI flags before serving). With a data
    /// dir in `options`, each shard opens its own `shard-<i>`
    /// subdirectory — WAL and snapshot files are as shard-private as
    /// the locks are, so durability adds no cross-shard contention.
    pub(crate) fn new(
        template: &Engine,
        options: &ServeOptions,
        queue_cap: usize,
    ) -> std::io::Result<Self> {
        let shards = options.shards.max(1);
        let engines = (0..shards)
            .map(|i| shard_engine(template, options, i))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardRuntime {
            engines,
            queues: (0..shards).map(|_| ShardQueue::new(queue_cap)).collect(),
            shard_metrics: (0..shards).map(|_| ServeMetrics::new()).collect(),
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(test)]
            holds: (0..shards).map(|_| HoldGate::new()).collect(),
        })
    }

    #[cfg(test)]
    pub(crate) fn hold(&self, shard: usize) -> &HoldGate {
        &self.holds[shard]
    }
}

/// A fresh engine stamped with `template`'s tuning — every knob the
/// serve CLI exposes is copied so an N-shard server behaves like N
/// independently configured 1-shard servers. Tuning is copied before
/// the data dir opens so recovery replays under the configured
/// compaction ratio.
fn shard_engine(
    template: &Engine,
    options: &ServeOptions,
    index: usize,
) -> std::io::Result<Engine> {
    let engine = Engine::new();
    engine
        .catalog()
        .set_max_entries(template.catalog().max_entries());
    engine
        .catalog()
        .set_compact_ratio(template.catalog().compact_ratio());
    engine.results().set_budget(template.results().budget());
    engine.set_incremental_threshold(template.incremental_threshold());
    engine.set_mapreduce_spill(template.mapreduce_spill());
    if let Some(dir) = &options.data_dir {
        // Graphs recover on the shard whose directory they were written
        // to; restarting with a different `--shards` count strands them
        // on dirs the router no longer hashes to (documented — shard
        // rebalancing is a ROADMAP item).
        engine
            .catalog()
            .open_data_dir(
                &dir.join(format!("shard-{index}")),
                options.fsync_every,
                options.snapshot_every,
            )
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    Ok(engine)
}

/// One router worker's shared mailboxes: accepted connections in,
/// completions back from the shards. One waker covers both.
struct RouterSlot {
    arrivals: Mutex<Vec<UnixStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: crate::readiness::Waker,
}

/// Everything the accept thread, router workers, and executors share
/// besides the runtime and metrics.
struct RouterShared {
    slots: Vec<RouterSlot>,
    accept_waker: crate::readiness::Waker,
    gate: ConnGate,
}

impl RouterShared {
    /// Wakes every parked thread — router loops, the accept thread, the
    /// gate, and each shard's executors — once shutdown latches.
    fn wake_all(&self, runtime: &ShardRuntime) {
        for slot in &self.slots {
            slot.waker.wake();
        }
        self.accept_waker.wake();
        self.gate.poke();
        for queue in &runtime.queues {
            queue.poke();
        }
    }
}

/// A queued piece of work extracted from a connection's read buffer,
/// dispatched strictly in order.
enum PendingItem {
    /// A request still to be routed (or answered inline).
    Req {
        op: Option<&'static str>,
        fields: Vec<(String, Value)>,
    },
    /// A per-request decode error: the reply is fixed, the stream stays
    /// synchronized (pre-encoded for the connection's wire mode).
    BadReq { bytes: Vec<u8> },
    /// Frame-level damage: emit the reply, then the connection closes
    /// (its input was already discarded at extraction).
    Poison { bytes: Vec<u8> },
}

/// One connection owned by a router worker. `gen` disambiguates slab
/// slot reuse; `parked` holds a job bounced off a full shard queue.
struct RouterConn {
    conn: Connection,
    gen: u64,
    pending: VecDeque<PendingItem>,
    parked: Option<(usize, ShardJob)>,
    in_flight: bool,
}

impl RouterConn {
    /// Read more bytes only when the connection could act on them:
    /// not while a request is in flight, parked, or queued — that is
    /// the per-connection backpressure that bounds router memory.
    fn wants_read(&self) -> bool {
        !self.conn.dead
            && !self.conn.eof
            && !self.conn.backlogged()
            && !self.in_flight
            && self.parked.is_none()
            && self.pending.is_empty()
    }

    /// Nothing left to do or deliver: safe to drop once seen dead.
    fn idle(&self) -> bool {
        !self.in_flight && self.parked.is_none() && self.pending.is_empty()
    }
}

/// Serves a bound listener in sharded mode; the entry point
/// `serve_unix` takes when `options.shards > 1`. `template` only
/// donates tuning — all queries run on the per-shard engines.
pub(crate) fn run_sharded_pool(
    template: &Engine,
    policy: &ResourcePolicy,
    listener: &UnixListener,
    options: &ServeOptions,
    metrics: &ServeMetrics,
) -> std::io::Result<ServeSummary> {
    let runtime = ShardRuntime::new(template, options, SHARD_QUEUE_CAP)?;
    run_router(&runtime, policy, listener, options, metrics)?;
    Ok(sharded_summary(&runtime, metrics))
}

/// Folds the per-shard counters into the flat [`ServeSummary`]: global
/// connection accounting from the router metrics plus op counts and
/// incremental stats summed across shards.
pub(crate) fn sharded_summary(runtime: &ShardRuntime, metrics: &ServeMetrics) -> ServeSummary {
    let mut summary = metrics.summary();
    for shard in &runtime.shard_metrics {
        let (queries, mutations, errors) = shard.op_counts();
        summary.queries += queries;
        summary.mutations += mutations;
        summary.errors += errors;
    }
    for engine in &runtime.engines {
        let inc = engine.incremental_stats();
        summary.incremental_hits += inc.hits;
        summary.incremental_fallbacks += inc.fallbacks;
    }
    summary
}

/// The accept thread + router event loops + per-shard executor pools,
/// all under one scope. Mirrors `run_pool`'s lifecycle exactly: the
/// accept loop ends on shutdown or error, latches the stop flag, wakes
/// everyone, and the scope join is the drain.
pub(crate) fn run_router(
    runtime: &ShardRuntime,
    policy: &ResourcePolicy,
    listener: &UnixListener,
    options: &ServeOptions,
    metrics: &ServeMetrics,
) -> std::io::Result<()> {
    let workers = options.workers.max(1);
    listener.set_nonblocking(true)?;
    let (accept_waker, accept_rx) = wake_pair()?;
    let mut slots = Vec::with_capacity(workers);
    let mut receivers = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (waker, rx) = wake_pair()?;
        slots.push(RouterSlot {
            arrivals: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        receivers.push(rx);
    }
    let shared = RouterShared {
        slots,
        accept_waker,
        gate: ConnGate::new(options.max_connections),
    };
    std::thread::scope(|s| {
        for (index, rx) in receivers.into_iter().enumerate() {
            let shared = &shared;
            s.spawn(move || router_event_loop(runtime, policy, metrics, shared, index, rx));
        }
        for shard in 0..runtime.engines.len() {
            for _ in 0..workers {
                let shared = &shared;
                s.spawn(move || executor_loop(runtime, shard, policy, metrics, shared));
            }
        }
        let mut next_worker = 0usize;
        let accept_result = loop {
            if !shared.gate.acquire(metrics) {
                break Ok(());
            }
            match accept_next(listener, &accept_rx, metrics) {
                Ok(Some(conn)) => {
                    let slot = &shared.slots[next_worker % shared.slots.len()];
                    next_worker = next_worker.wrapping_add(1);
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
        metrics.request_shutdown();
        shared.wake_all(runtime);
        accept_result
    })
}

/// One shard's executor: pop, run against **this shard's** engine and
/// metrics only (the whole isolation invariant is visible right here),
/// encode, mail the completion home.
fn executor_loop(
    runtime: &ShardRuntime,
    shard: usize,
    policy: &ResourcePolicy,
    metrics: &ServeMetrics,
    shared: &RouterShared,
) {
    // Not a `while let`: the cfg(test) executor brake must run before
    // every pop, inside the loop body.
    #[allow(clippy::while_let_loop)]
    loop {
        #[cfg(test)]
        runtime.holds[shard].wait(metrics);
        let Some((job, stalled)) = runtime.queues[shard].pop(metrics) else {
            break;
        };
        // The brake can be raised while this executor was already parked
        // inside `pop` — the pre-pop wait above saw it open. Running the
        // job anyway would let a "held" shard answer, so put it back
        // (front: order is sacred) and wait the gate out.
        #[cfg(test)]
        if runtime.holds[shard].is_held() && !metrics.shutdown_requested() {
            runtime.queues[shard].push_front(job);
            for worker in stalled {
                shared.slots[worker].waker.wake();
            }
            runtime.holds[shard].wait(metrics);
            continue;
        }
        let (response, outcome) = handle_fields(
            &runtime.engines[shard],
            policy,
            &runtime.shard_metrics[shard],
            &job.fields,
            job.op,
        );
        let mut bytes = Vec::with_capacity(response.len() + 16);
        encode_response(job.binary, &response, &mut bytes);
        let completion = Completion {
            slot: job.slot,
            gen: job.gen,
            bytes,
            shutdown: matches!(outcome, LineOutcome::Shutdown),
        };
        let home = &shared.slots[job.worker];
        home.completions
            .lock()
            .expect("completion mailbox poisoned")
            .push(completion);
        home.waker.wake();
        // Capacity freed: revive router workers whose connections
        // parked against this queue's bound.
        for worker in stalled {
            shared.slots[worker].waker.wake();
        }
    }
}

fn encode_response(binary: bool, response: &str, out: &mut Vec<u8>) {
    if binary {
        crate::frame::encode_reply(response, out);
    } else {
        out.extend_from_slice(response.as_bytes());
        out.push(b'\n');
    }
}

/// Borrow bundle for the router's per-connection work.
struct RouterCtx<'a> {
    runtime: &'a ShardRuntime,
    global: &'a ServeMetrics,
    shared: &'a RouterShared,
    worker: usize,
}

/// One router worker: owns a slab of connections, multiplexes their
/// sockets with `poll(2)`, extracts requests, routes them, and splices
/// completed replies back into the right write buffer. No engine work
/// happens on this thread — a router turn is pure I/O plus hashing.
fn router_event_loop(
    runtime: &ShardRuntime,
    policy: &ResourcePolicy,
    metrics: &ServeMetrics,
    shared: &RouterShared,
    index: usize,
    wake_rx: WakeReceiver,
) {
    let _ = policy; // engine work (and its policy) lives on the executors
    let ctx = RouterCtx {
        runtime,
        global: metrics,
        shared,
        worker: index,
    };
    let mut conns: Vec<Option<RouterConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut gen_counter = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    loop {
        if metrics.shutdown_requested() {
            break;
        }
        // Adopt newly assigned connections into free slab slots.
        let adopted: Vec<_> = {
            let mut arrivals = shared.slots[index]
                .arrivals
                .lock()
                .expect("arrivals poisoned");
            arrivals.drain(..).collect()
        };
        for stream in adopted {
            match stream.set_nonblocking(true) {
                Ok(()) => {
                    metrics.connection_opened();
                    gen_counter += 1;
                    let rc = RouterConn {
                        conn: Connection::new(stream),
                        gen: gen_counter,
                        pending: VecDeque::new(),
                        parked: None,
                        in_flight: false,
                    };
                    match free.pop() {
                        Some(slot) => conns[slot] = Some(rc),
                        None => conns.push(Some(rc)),
                    }
                }
                Err(_) => shared.gate.release(),
            }
        }
        // Poll only connections that can act on readiness. A connection
        // awaiting a shard (in flight or parked) with nothing to write
        // is deliberately absent — its wake arrives via the completion
        // mailbox, and polling its fd would busy-spin on POLLHUP if the
        // client hung up mid-request.
        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        for (slot, entry) in conns.iter().enumerate() {
            let Some(rc) = entry else { continue };
            let mut events = 0i16;
            if rc.wants_read() {
                events |= POLLIN;
            }
            if rc.conn.wants_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(rc.conn.stream.as_raw_fd(), events));
                fd_slots.push(slot);
            }
        }
        if poll_fds(&mut fds, -1).is_err() {
            metrics.request_shutdown();
            shared.wake_all(runtime);
            break;
        }
        if fds[0].ready(POLLIN) {
            wake_rx.drain();
        }
        let mut saw_shutdown = false;
        // Splice completed replies home first, so the service pass
        // below can flush them and dispatch each connection's next
        // request in the same turn.
        let mut touched: Vec<usize> = Vec::new();
        apply_completions(&ctx, &mut conns, &mut touched, &mut saw_shutdown);
        for (pfd, &slot) in fds[1..].iter().zip(&fd_slots) {
            if pfd.ready(POLLIN | POLLOUT | crate::readiness::POLLERR | crate::readiness::POLLHUP)
                && !touched.contains(&slot)
            {
                touched.push(slot);
            }
        }
        // Parked connections get a turn every wake: the executor that
        // freed queue capacity woke this loop, and the retry lives in
        // the dispatch path.
        for (slot, entry) in conns.iter().enumerate() {
            if let Some(rc) = entry {
                if rc.parked.is_some() && !touched.contains(&slot) {
                    touched.push(slot);
                }
            }
        }
        for &slot in &touched {
            let Some(rc) = conns[slot].as_mut() else {
                continue;
            };
            service_conn(&ctx, rc, slot, &mut saw_shutdown);
            if saw_shutdown {
                break;
            }
        }
        for (slot, entry) in conns.iter_mut().enumerate() {
            let prune = match entry {
                Some(rc) => rc.conn.dead && !rc.in_flight,
                None => false,
            };
            if prune {
                *entry = None;
                free.push(slot);
                metrics.connection_closed();
                shared.gate.release();
            }
        }
        if saw_shutdown {
            shared.wake_all(runtime);
            break;
        }
    }
    // Shutdown drain: deliver any replies already mailed back, then one
    // best-effort flush per connection — never blocking on a slow
    // client, mirroring the single-engine pool's drain.
    let mut touched = Vec::new();
    let mut saw = false;
    apply_completions(&ctx, &mut conns, &mut touched, &mut saw);
    for rc in conns.iter_mut().flatten() {
        if !rc.conn.dead {
            rc.conn.flush();
        }
        metrics.connection_closed();
        shared.gate.release();
    }
}

/// Drains this worker's completion mailbox into the owning
/// connections' write buffers (generation-checked, so a reply for a
/// dead, reclaimed slot is dropped on the floor).
fn apply_completions(
    ctx: &RouterCtx<'_>,
    conns: &mut [Option<RouterConn>],
    touched: &mut Vec<usize>,
    saw_shutdown: &mut bool,
) {
    let completions: Vec<Completion> = {
        let mut mailbox = ctx.shared.slots[ctx.worker]
            .completions
            .lock()
            .expect("completion mailbox poisoned");
        mailbox.drain(..).collect()
    };
    for completion in completions {
        if completion.shutdown {
            // Defensive: shards never see shutdown ops (the router
            // answers them inline), but honor the latch if one slips
            // through a future op.
            *saw_shutdown = true;
        }
        let Some(rc) = conns.get_mut(completion.slot).and_then(Option::as_mut) else {
            continue;
        };
        if rc.gen != completion.gen {
            continue;
        }
        rc.conn.wbuf.extend_from_slice(&completion.bytes);
        rc.in_flight = false;
        if !touched.contains(&completion.slot) {
            touched.push(completion.slot);
        }
    }
}

/// One connection's service turn: read, dispatch in strict order
/// (parked retry → pending items → fresh extraction), flush. The
/// backlog-retry dance mirrors `Connection::service`.
fn service_conn(ctx: &RouterCtx<'_>, rc: &mut RouterConn, slot: usize, saw_shutdown: &mut bool) {
    loop {
        let was_backlogged = rc.conn.backlogged();
        if rc.wants_read() {
            rc.conn.fill_rbuf();
        }
        let progressed = dispatch(ctx, rc, slot, saw_shutdown);
        if rc.conn.wants_write() {
            rc.conn.flush();
        }
        if rc.conn.dead || *saw_shutdown {
            break;
        }
        if was_backlogged && !rc.conn.backlogged() {
            continue;
        }
        if !progressed {
            break;
        }
    }
    if !rc.conn.dead && rc.conn.eof && rc.conn.pending_write() == 0 && rc.idle() {
        rc.conn.dead = true;
    }
}

/// Advances one connection as far as the serial-dispatch rule allows.
/// Returns whether anything moved.
fn dispatch(
    ctx: &RouterCtx<'_>,
    rc: &mut RouterConn,
    slot: usize,
    saw_shutdown: &mut bool,
) -> bool {
    let mut progressed = false;
    loop {
        if rc.conn.dead || *saw_shutdown {
            return progressed;
        }
        // Retry a job bounced off a full shard queue before anything
        // else — order is sacred.
        if let Some((shard, job)) = rc.parked.take() {
            match ctx.runtime.queues[shard].try_push(job, ctx.worker) {
                Ok(()) => {
                    ctx.runtime.routed[shard].fetch_add(1, Ordering::Relaxed);
                    rc.in_flight = true;
                    progressed = true;
                }
                Err(job) => {
                    rc.parked = Some((shard, job));
                    return progressed;
                }
            }
        }
        if rc.in_flight || rc.conn.backlogged() {
            return progressed;
        }
        if let Some(item) = rc.pending.pop_front() {
            progressed = true;
            match item {
                PendingItem::Req { op, fields } => {
                    dispatch_request(ctx, rc, slot, op, fields, saw_shutdown);
                }
                PendingItem::BadReq { bytes } => rc.conn.wbuf.extend_from_slice(&bytes),
                PendingItem::Poison { bytes } => rc.conn.wbuf.extend_from_slice(&bytes),
            }
            continue;
        }
        if !extract_one(ctx, rc) {
            return progressed;
        }
        progressed = true;
    }
}

/// Routes one request: `stats`/`shutdown` are answered inline by the
/// router (they concern the whole server, not one shard); everything
/// else is homed to its shard by [`routing_shard`].
fn dispatch_request(
    ctx: &RouterCtx<'_>,
    rc: &mut RouterConn,
    slot: usize,
    op: Option<&'static str>,
    fields: Vec<(String, Value)>,
    saw_shutdown: &mut bool,
) {
    let binary = matches!(rc.conn.mode, WireMode::Binary);
    let op_name = op.unwrap_or_else(|| {
        match minijson::get(&fields, "op").and_then(Value::as_str) {
            Some("stats") => "stats",
            Some("shutdown") => "shutdown",
            // Routed ops keep their own name via the fields; only the
            // two inline ops need resolving here.
            _ => "routed",
        }
    });
    match op_name {
        "shutdown" => {
            ctx.global.request_shutdown();
            let mut j = JsonBuilder::new();
            begin_envelope(&mut j, &fields);
            j.raw_field("ok", "true");
            j.raw_field("bye", "true");
            let response = j.finish();
            encode_response(binary, &response, &mut rc.conn.wbuf);
            // Requests after a shutdown go unanswered, exactly like the
            // single-engine loop leaves later lines unread.
            rc.pending.clear();
            rc.conn.rpos = rc.conn.rbuf.len();
            *saw_shutdown = true;
        }
        "stats" => {
            let response = merged_stats(ctx.runtime, ctx.global, &fields);
            encode_response(binary, &response, &mut rc.conn.wbuf);
        }
        _ => {
            let graph = minijson::get(&fields, "graph").and_then(Value::as_str);
            let file = minijson::get(&fields, "file").and_then(Value::as_str);
            let shard = routing_shard(graph, file, ctx.runtime.engines.len());
            let job = ShardJob {
                worker: ctx.worker,
                slot,
                gen: rc.gen,
                fields,
                op,
                binary,
            };
            match ctx.runtime.queues[shard].try_push(job, ctx.worker) {
                Ok(()) => {
                    ctx.runtime.routed[shard].fetch_add(1, Ordering::Relaxed);
                    rc.in_flight = true;
                }
                Err(job) => rc.parked = Some((shard, job)),
            }
        }
    }
}

/// Starts a response envelope with the request's echoed `id`, exactly
/// like [`handle_fields`].
fn begin_envelope(j: &mut JsonBuilder, fields: &[(String, Value)]) {
    match minijson::get(fields, "id") {
        Some(v) => j.value_field("id", v),
        None => j.raw_field("id", "null"),
    }
}

/// Scatter/gathers every shard's counters into the single-engine
/// `stats` schema — same fields, same order, values summed, `named`
/// arrays concatenated in shard order — plus a trailing `"shards"`
/// breakdown array. The per-shard rows are the observable proof of
/// isolation: each shard's loads/queries/mutations moved only when
/// requests routed to it.
fn merged_stats(
    runtime: &ShardRuntime,
    metrics: &ServeMetrics,
    fields: &[(String, Value)],
) -> String {
    let mut loads = 0u64;
    let mut hits = 0u64;
    let mut stat_scans = 0u64;
    let mut evictions = 0u64;
    let mut graphs = 0usize;
    let mut result_hits = 0u64;
    let mut result_misses = 0u64;
    let mut result_insertions = 0u64;
    let mut result_evictions = 0u64;
    let mut result_entries = 0u64;
    let mut result_bytes = 0u64;
    let mut mutations = 0u64;
    let mut graphs_named = 0usize;
    let mut warm_hits = 0u64;
    let mut warm_fallbacks = 0u64;
    let mut incremental_hits = 0u64;
    let mut incremental_fallbacks = 0u64;
    let mut replayed_ops = 0u64;
    let mut dropped_tail_records = 0u64;
    let mut named: Vec<String> = Vec::new();
    let mut breakdown: Vec<String> = Vec::new();
    for (index, engine) in runtime.engines.iter().enumerate() {
        let stats = engine.catalog().stats();
        let results = engine.results().stats();
        let warm = engine.warm_stats();
        let inc = engine.incremental_stats();
        loads += stats.loads;
        hits += stats.hits;
        stat_scans += stats.stat_scans;
        evictions += stats.evictions;
        graphs += engine.catalog().len();
        result_hits += results.hits;
        result_misses += results.misses;
        result_insertions += results.insertions;
        result_evictions += results.evictions;
        result_entries += results.entries;
        result_bytes += results.bytes;
        mutations += engine.catalog().mutations();
        graphs_named += engine.catalog().named_len();
        warm_hits += warm.hits;
        warm_fallbacks += warm.fallbacks;
        incremental_hits += inc.hits;
        incremental_fallbacks += inc.fallbacks;
        let (shard_replayed, shard_dropped) = engine.catalog().recovery_counters();
        replayed_ops += shard_replayed;
        dropped_tail_records += shard_dropped;
        for g in engine.catalog().named_stats() {
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
            named.push(item.finish());
        }
        let (shard_queries, shard_mutations, shard_errors) =
            runtime.shard_metrics[index].op_counts();
        let mut row = JsonBuilder::new();
        row.num_field("shard", index as f64);
        row.num_field(
            "routed",
            runtime.routed[index].load(Ordering::Relaxed) as f64,
        );
        row.num_field("queries", shard_queries as f64);
        row.num_field("mutations", shard_mutations as f64);
        row.num_field("errors", shard_errors as f64);
        row.num_field("loads", stats.loads as f64);
        row.num_field("graphs", engine.catalog().len() as f64);
        row.num_field("graphs_named", engine.catalog().named_len() as f64);
        breakdown.push(row.finish());
    }
    let mut j = JsonBuilder::new();
    begin_envelope(&mut j, fields);
    j.raw_field("ok", "true");
    j.num_field("loads", loads as f64);
    j.num_field("hits", hits as f64);
    j.num_field("stat_scans", stat_scans as f64);
    j.num_field("evictions", evictions as f64);
    j.num_field("graphs", graphs as f64);
    j.num_field("result_hits", result_hits as f64);
    j.num_field("result_misses", result_misses as f64);
    j.num_field("result_insertions", result_insertions as f64);
    j.num_field("result_evictions", result_evictions as f64);
    j.num_field("result_entries", result_entries as f64);
    j.num_field("result_bytes", result_bytes as f64);
    j.num_field("conn_active", metrics.active_connections() as f64);
    j.num_field("conn_peak", metrics.peak_connections() as f64);
    j.num_field("mutations", mutations as f64);
    j.num_field("graphs_named", graphs_named as f64);
    j.num_field("warm_hits", warm_hits as f64);
    j.num_field("warm_fallbacks", warm_fallbacks as f64);
    j.num_field("incremental_hits", incremental_hits as f64);
    j.num_field("incremental_fallbacks", incremental_fallbacks as f64);
    j.num_field("replayed_ops", replayed_ops as f64);
    j.num_field("dropped_tail_records", dropped_tail_records as f64);
    if !named.is_empty() {
        j.raw_field("named", &format!("[{}]", named.join(",")));
    }
    j.raw_field("shards", &format!("[{}]", breakdown.join(",")));
    j.finish()
}

/// Extracts one unit of input from the read buffer into `pending`:
/// one JSONL line, one binary frame (a batch frame queues all its
/// items at once — they were sent together). Returns `false` when
/// nothing complete is buffered.
fn extract_one(ctx: &RouterCtx<'_>, rc: &mut RouterConn) -> bool {
    if rc.conn.rpos >= rc.conn.rbuf.len() {
        if rc.conn.rpos > 0 {
            rc.conn.rbuf.clear();
            rc.conn.rpos = 0;
        }
        return false;
    }
    if matches!(rc.conn.mode, WireMode::Undetected) {
        rc.conn.mode = if rc.conn.rbuf[rc.conn.rpos] == crate::frame::MAGIC {
            WireMode::Binary
        } else {
            WireMode::Jsonl
        };
    }
    let handled = if matches!(rc.conn.mode, WireMode::Binary) {
        extract_frame(ctx, rc)
    } else {
        extract_jsonl(ctx, rc)
    };
    if handled && rc.conn.rpos >= READ_CHUNK {
        rc.conn.rbuf.drain(..rc.conn.rpos);
        rc.conn.rpos = 0;
    }
    handled
}

/// Queues one JSONL request (or its parse-error reply), if a complete
/// line is buffered.
fn extract_jsonl(ctx: &RouterCtx<'_>, rc: &mut RouterConn) -> bool {
    let conn = &mut rc.conn;
    let Some(nl) = conn.rbuf[conn.rpos..].iter().position(|&b| b == b'\n') else {
        return false;
    };
    let start = conn.rpos;
    conn.rpos = start + nl + 1;
    let raw = &conn.rbuf[start..start + nl];
    let lossy;
    let text = match std::str::from_utf8(raw) {
        Ok(text) => text,
        Err(_) => {
            lossy = String::from_utf8_lossy(raw).into_owned();
            &lossy
        }
    };
    if text.trim().is_empty() {
        return true;
    }
    match minijson::parse_object(text) {
        Ok(fields) => rc.pending.push_back(PendingItem::Req { op: None, fields }),
        Err(e) => {
            ctx.global.record_error();
            let mut bytes = Vec::new();
            encode_response(false, &error_response("null", &e.to_string()), &mut bytes);
            rc.pending.push_back(PendingItem::BadReq { bytes });
        }
    }
    true
}

/// Queues one binary frame's request(s), if a complete frame is
/// buffered. Framing damage poisons the connection: its reply is
/// queued (order preserved behind earlier requests) and the remaining
/// input is discarded now.
fn extract_frame(ctx: &RouterCtx<'_>, rc: &mut RouterConn) -> bool {
    use crate::frame::{self, FrameError, Opcode};

    let conn = &mut rc.conn;
    let decoded = match frame::decode_frame(&conn.rbuf[conn.rpos..], frame::DEFAULT_MAX_FRAME) {
        Ok(None) => return false,
        Ok(Some(decoded)) => decoded,
        Err(e) => {
            poison(ctx, rc, &e.to_string());
            return true;
        }
    };
    let (opcode, payload, consumed) = decoded;
    let mut scratch = minijson::FieldScratch::new();
    let mut items: Vec<PendingItem> = Vec::new();
    let mut damage: Option<String> = None;
    match opcode {
        Opcode::Reply => {
            damage = Some(FrameError::Misplaced("a client must not send reply frames").to_string());
        }
        Opcode::Batch => {
            for item in frame::batch_items(payload) {
                match item {
                    Ok((op, body)) => items.push(decode_item(ctx, op, body, &mut scratch)),
                    Err(e) => {
                        damage = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        op => items.push(decode_item(ctx, op, payload, &mut scratch)),
    }
    conn.rpos += consumed;
    rc.pending.extend(items);
    if let Some(message) = damage {
        poison(ctx, rc, &message);
    }
    true
}

/// Decodes one binary request payload into a pending item — a routed
/// request, or its per-request typed error (frame boundary intact, so
/// the stream stays synchronized).
fn decode_item(
    ctx: &RouterCtx<'_>,
    opcode: crate::frame::Opcode,
    payload: &[u8],
    scratch: &mut minijson::FieldScratch,
) -> PendingItem {
    match crate::frame::decode_request_payload(payload, scratch) {
        Ok(()) => PendingItem::Req {
            op: Some(opcode.op_name()),
            fields: scratch.fields().to_vec(),
        },
        Err(e) => {
            ctx.global.record_error();
            let mut bytes = Vec::new();
            crate::frame::encode_reply(&error_response("null", &e.to_string()), &mut bytes);
            PendingItem::BadReq { bytes }
        }
    }
}

/// Frame-level damage: queue one typed error reply (ordered behind
/// earlier requests), discard all remaining input, and let the
/// connection close once everything queued has drained.
fn poison(ctx: &RouterCtx<'_>, rc: &mut RouterConn, message: &str) {
    ctx.global.record_error();
    let mut bytes = Vec::new();
    crate::frame::encode_reply(&error_response("null", message), &mut bytes);
    rc.pending.push_back(PendingItem::Poison { bytes });
    rc.conn.rpos = rc.conn.rbuf.len();
    rc.conn.eof = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn sock_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsg_shard_{name}_{}.sock", std::process::id()))
    }

    fn fixture(name: &str, content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("dsg_shard_{name}_{}", std::process::id()));
        std::fs::write(&path, content).expect("fixture write");
        path
    }

    fn connect_retry(path: &Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(path) {
                return stream;
            }
            // Test-only: wait for the router thread to bind its socket.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server socket {} never came up", path.display());
    }

    fn spawn_server(sock: PathBuf, options: ServeOptions) -> std::thread::JoinHandle<ServeSummary> {
        std::thread::spawn(move || {
            let engine = Engine::new();
            crate::serve::serve_unix(&engine, &ResourcePolicy::default(), &sock, &options)
                .expect("serve_unix failed")
        })
    }

    /// Sends every request line, then reads exactly `expect` response
    /// lines.
    fn exchange(stream: &mut UnixStream, requests: &str, expect: usize) -> Vec<String> {
        stream.write_all(requests.as_bytes()).expect("send");
        read_lines(stream, expect)
    }

    fn read_lines(stream: &mut UnixStream, expect: usize) -> Vec<String> {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        (0..expect)
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
                line.trim_end().to_string()
            })
            .collect()
    }

    /// `None` (timeout) when the server sent nothing within `wait`.
    fn try_read_line(stream: &UnixStream, wait: Duration) -> Option<String> {
        stream.set_read_timeout(Some(wait)).expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        let got = match reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                None
            }
            Err(e) => panic!("read failed: {e}"),
        };
        stream.set_read_timeout(None).expect("timeout");
        got
    }

    /// Drops `"key":<value>` (with its leading comma) from a response
    /// line — for the two run-dependent fields, `elapsed_ms` and the
    /// per-engine `loads` counter.
    fn strip_field(line: &str, key: &str) -> String {
        let pat = format!(",\"{key}\":");
        match line.find(&pat) {
            None => line.to_string(),
            Some(start) => {
                let rest = &line[start + pat.len()..];
                let end = rest.find([',', '}']).expect("unterminated field");
                format!("{}{}", &line[..start], &rest[end..])
            }
        }
    }

    fn strip_run_dependent(line: &str) -> String {
        strip_field(&strip_field(line, "elapsed_ms"), "loads")
    }

    #[test]
    fn routing_is_deterministic_and_tagged() {
        // Precomputed FNV-1a values: h("g:alpha") = 13295628215524255688,
        // h("g:beta") = 25966380842540422, h("f:/tmp/a.txt") =
        // 587426745370860717, h("f:g:alpha") = 344651217429707284.
        // A restart (or another process) recomputes the same hash — the
        // function is pure, which is the whole determinism story.
        assert_eq!(routing_shard(Some("alpha"), None, 2), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 4), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 8), 0);
        assert_eq!(routing_shard(Some("beta"), None, 4), 2);
        assert_eq!(routing_shard(Some("beta"), None, 8), 6);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 2), 1);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 8), 5);
        // The graph name wins when both identities are present (the
        // serve layer rejects that request anyway; routing must still
        // be total), and the g:/f: tags keep a file named like a
        // session graph on its own routing key.
        assert_eq!(
            routing_shard(Some("alpha"), Some("/tmp/a.txt"), 8),
            routing_shard(Some("alpha"), None, 8)
        );
        assert_eq!(routing_shard(None, Some("g:alpha"), 8), 4);
        // Identity-free requests (and the degenerate shard counts)
        // pin to shard 0.
        assert_eq!(routing_shard(None, None, 8), 0);
        assert_eq!(routing_shard(Some("anything"), None, 1), 0);
        assert_eq!(routing_shard(Some("anything"), None, 0), 0);
    }

    #[test]
    fn sharded_transcript_is_byte_identical_to_single_shard() {
        let a = fixture("parity_a.txt", "0 1\n0 2\n1 2\n2 3\n");
        let b = fixture("parity_b.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n");
        let requests = format!(
            concat!(
                "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":2,\"algorithm\":\"charikar\",\"file\":\"{a}\"}}\n",
                "{{\"id\":3,\"algorithm\":\"approx\",\"file\":\"{b}\"}}\n",
                "{{\"id\":4,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":5,\"op\":\"create_graph\",\"graph\":\"pg\",\"edges\":\"0 1, 1 2, 0 2\"}}\n",
                "{{\"id\":6,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":7,\"op\":\"add_edges\",\"graph\":\"pg\",\"edges\":\"2 3\"}}\n",
                "{{\"id\":8,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":9,\"op\":\"shutdown\"}}\n",
            ),
            a = a.display(),
            b = b.display(),
        );
        let mut transcripts = Vec::new();
        for shards in [1usize, 4] {
            let sock = sock_path(&format!("parity{shards}"));
            let server = spawn_server(
                sock.clone(),
                ServeOptions {
                    workers: 2,
                    max_connections: 8,
                    shards,
                    ..ServeOptions::default()
                },
            );
            let mut conn = connect_retry(&sock);
            let lines = exchange(&mut conn, &requests, 9);
            server.join().expect("server panicked");
            transcripts.push(
                lines
                    .iter()
                    .map(|l| strip_run_dependent(l))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "4-shard responses must be byte-identical to 1-shard (minus elapsed_ms/loads)"
        );
        // And they carried real results, not errors.
        assert!(transcripts[0].iter().all(|l| l.contains("\"ok\":true")));
    }

    #[test]
    fn binary_and_batched_requests_flow_through_the_router() {
        let a = fixture("bin_a.txt", "0 1\n0 2\n1 2\n");
        let sock = sock_path("binary");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        connect_retry(&sock);
        let mut requests = String::new();
        for id in 1..=6 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"algorithm\":\"approx\",\"file\":\"{}\"}}\n",
                a.display()
            ));
        }
        requests.push_str("{\"id\":7,\"op\":\"stats\"}\n");
        requests.push_str("{\"id\":8,\"op\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let stats = crate::serve::client_unix_opts(
            &sock,
            std::io::Cursor::new(requests),
            &mut out,
            &crate::serve::ClientOptions {
                binary: true,
                pipeline: 4,
            },
        )
        .expect("binary client failed");
        server.join().expect("server panicked");
        assert_eq!(stats.exchanges, 8);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 8);
        // Replies in request order, all ok, stats merged from 2 shards.
        for (index, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{}", index + 1)),
                "out of order: {line}"
            );
            assert!(line.contains("\"ok\":true"), "not ok: {line}");
        }
        assert!(lines[6].contains("\"shards\":[{\"shard\":0,"));
    }

    #[test]
    fn stats_merge_sums_shards_and_keeps_the_flat_field_order() {
        let sock = sock_path("stats");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        let mut conn = connect_retry(&sock);
        // "a" routes to shard 1 and "b" to shard 0 of 2 (FNV-1a above),
        // so this session exercises both engines.
        assert_eq!(routing_shard(Some("a"), None, 2), 1);
        assert_eq!(routing_shard(Some("b"), None, 2), 0);
        let lines = exchange(
            &mut conn,
            concat!(
                "{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1, 1 2\"}\n",
                "{\"id\":2,\"op\":\"create_graph\",\"graph\":\"b\",\"edges\":\"0 1\"}\n",
                "{\"id\":3,\"op\":\"add_edges\",\"graph\":\"a\",\"edges\":\"2 0\"}\n",
                "{\"id\":4,\"algorithm\":\"approx\",\"graph\":\"a\"}\n",
                "{\"id\":5,\"algorithm\":\"approx\",\"graph\":\"b\"}\n",
                "{\"id\":6,\"op\":\"stats\"}\n",
                "{\"id\":7,\"op\":\"shutdown\"}\n",
            ),
            7,
        );
        server.join().expect("server panicked");
        let stats = &lines[5];
        // Counters summed across both engines.
        assert!(stats.contains("\"graphs_named\":2"), "{stats}");
        assert!(stats.contains("\"mutations\":1"), "{stats}");
        assert!(stats.contains("\"result_misses\":2"), "{stats}");
        // Named arrays concatenated in shard order: b (shard 0) first.
        let named_b = stats.find("\"name\":\"b\"").expect("named b");
        let named_a = stats.find("\"name\":\"a\"").expect("named a");
        assert!(named_b < named_a, "{stats}");
        // Per-shard breakdown proves the routing split: shard 0 ran b's
        // create + query, shard 1 ran a's create + add + query.
        assert!(
            stats.contains("{\"shard\":0,\"routed\":2,\"queries\":1,\"mutations\":1,\"errors\":0,"),
            "{stats}"
        );
        assert!(
            stats.contains("{\"shard\":1,\"routed\":3,\"queries\":1,\"mutations\":2,\"errors\":0,"),
            "{stats}"
        );
        // The flat prefix keeps the exact single-engine field order, so
        // existing stats consumers parse a sharded server unchanged.
        let order = [
            "\"ok\":",
            "\"loads\":",
            "\"hits\":",
            "\"stat_scans\":",
            "\"evictions\":",
            "\"graphs\":",
            "\"result_hits\":",
            "\"result_misses\":",
            "\"result_insertions\":",
            "\"result_evictions\":",
            "\"result_entries\":",
            "\"result_bytes\":",
            "\"conn_active\":",
            "\"conn_peak\":",
            "\"mutations\":",
            "\"graphs_named\":",
            "\"warm_hits\":",
            "\"warm_fallbacks\":",
            "\"incremental_hits\":",
            "\"incremental_fallbacks\":",
            "\"replayed_ops\":",
            "\"dropped_tail_records\":",
            "\"named\":",
            "\"shards\":",
        ];
        let mut last = 0usize;
        for key in order {
            let at = stats
                .find(key)
                .unwrap_or_else(|| panic!("missing {key} in {stats}"));
            assert!(at > last, "field {key} out of order in {stats}");
            last = at;
        }
    }

    /// Test harness around [`run_router`] directly: tiny queue caps and
    /// the per-shard [`HoldGate`]s are only reachable this way.
    fn with_held_router<F: FnOnce(&ShardRuntime, &Path)>(name: &str, queue_cap: usize, body: F) {
        let sock = sock_path(name);
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).expect("bind");
        let template = Engine::new();
        let options = ServeOptions {
            workers: 1,
            max_connections: 8,
            shards: 2,
            ..ServeOptions::default()
        };
        let runtime = ShardRuntime::new(&template, &options, queue_cap).expect("shard runtime");
        let policy = ResourcePolicy::default();
        let metrics = ServeMetrics::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                run_router(&runtime, &policy, &listener, &options, &metrics).expect("router failed")
            });
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&runtime, &sock)));
            if let Err(panic) = result {
                // A failed body never reached its shutdown op; without
                // one the scope join below waits on the accept loop
                // forever and the captured assertion message is never
                // shown — the failure presents as a silent hang. Release
                // every brake, stop the router, then re-panic.
                for shard in 0..runtime.holds.len() {
                    runtime.hold(shard).release();
                }
                let mut conn = connect_retry(&sock);
                let _ = conn.write_all(b"{\"op\":\"shutdown\"}\n");
                let _ = try_read_line(&conn, Duration::from_secs(5));
                std::panic::resume_unwind(panic);
            }
        });
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn mutations_behind_queue_backpressure_keep_their_order() {
        // Queue cap 1: conn1's job fills shard 1's queue, conn2's job
        // for the same shard bounces and parks. The mutation and query
        // pipelined behind it must still apply in order once the shard
        // drains.
        with_held_router("backpressure", 1, |runtime, sock| {
            assert_eq!(routing_shard(Some("a"), None, 2), 1);
            assert_eq!(routing_shard(Some("c"), None, 2), 1);
            runtime.hold(1).hold();
            let mut conn1 = connect_retry(sock);
            conn1
                .write_all(
                    b"{\"id\":11,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1\"}\n",
                )
                .expect("send");
            // Test-only: give the router time to enqueue conn1's job
            // (fills the cap).
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(100));
            let mut conn2 = connect_retry(sock);
            conn2
                .write_all(
                    concat!(
                        "{\"id\":21,\"op\":\"create_graph\",\"graph\":\"c\",\"edges\":\"0 1\"}\n",
                        "{\"id\":22,\"op\":\"add_edges\",\"graph\":\"c\",\"edges\":\"1 2\"}\n",
                        "{\"id\":23,\"algorithm\":\"charikar\",\"graph\":\"c\"}\n",
                    )
                    .as_bytes(),
                )
                .expect("send");
            // Held shard: nobody gets an answer.
            assert_eq!(try_read_line(&conn2, Duration::from_millis(200)), None);
            runtime.hold(1).release();
            let replies1 = read_lines(&mut conn1, 1);
            assert!(
                replies1[0].starts_with("{\"id\":11,\"ok\":true"),
                "{}",
                replies1[0]
            );
            let replies2 = read_lines(&mut conn2, 3);
            assert!(
                replies2[0].starts_with("{\"id\":21,\"ok\":true"),
                "{}",
                replies2[0]
            );
            assert!(
                replies2[1].starts_with("{\"id\":22,\"ok\":true"),
                "{}",
                replies2[1]
            );
            // The query ran after the mutation it was pipelined behind:
            // it sees all 3 nodes of the mutated graph.
            assert!(
                replies2[2].starts_with("{\"id\":23,\"ok\":true"),
                "{}",
                replies2[2]
            );
            assert!(replies2[2].contains("\"graph_nodes\":3"), "{}", replies2[2]);
            exchange(&mut conn1, "{\"op\":\"shutdown\"}\n", 1);
        });
    }

    #[test]
    fn a_saturated_shard_never_stalls_the_other() {
        with_held_router("barrier", 4, |runtime, sock| {
            assert_eq!(routing_shard(Some("a"), None, 2), 1);
            assert_eq!(routing_shard(Some("b"), None, 2), 0);
            runtime.hold(1).hold();
            let mut conn1 = connect_retry(sock);
            conn1
                .write_all(
                    b"{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1\"}\n",
                )
                .expect("send");
            // Shard 1 is saturated (its whole executor pool is parked),
            // yet shard 0 answers a different connection immediately —
            // the isolation barrier the shard layer exists for.
            let mut conn2 = connect_retry(sock);
            let replies = exchange(
                &mut conn2,
                "{\"id\":2,\"op\":\"create_graph\",\"graph\":\"b\",\"edges\":\"0 1\"}\n",
                1,
            );
            assert!(
                replies[0].starts_with("{\"id\":2,\"ok\":true"),
                "{}",
                replies[0]
            );
            // conn1 is still waiting on the held shard...
            assert_eq!(try_read_line(&conn1, Duration::from_millis(200)), None);
            runtime.hold(1).release();
            // ...and completes once it drains.
            let replies = read_lines(&mut conn1, 1);
            assert!(
                replies[0].starts_with("{\"id\":1,\"ok\":true"),
                "{}",
                replies[0]
            );
            exchange(&mut conn2, "{\"op\":\"shutdown\"}\n", 1);
        });
    }
}
