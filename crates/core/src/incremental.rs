//! Delta-bounded incremental re-peeling.
//!
//! Given a [`PeelTrace`] of a finished run and a batch of edge deltas,
//! this module re-derives the run's result on the mutated graph touching
//! only an *affected set* `F` — delta endpoints plus every node whose
//! recorded round the delta could change — instead of re-peeling the
//! whole graph. The contract is exact: a successful simulation produces
//! the bit-identical result (densities, thresholds, per-pass stats, best
//! sets) of a cold re-run of the same kernel on the mutated graph, or it
//! reports a fallback reason and the caller re-peels conventionally.
//!
//! ## How it works
//!
//! Nodes outside `F` are *frozen*: the simulation hypothesizes they keep
//! their recorded rounds. Because every delta edge has both endpoints in
//! `F`, a frozen node's degree trajectory depends only on its neighbors'
//! rounds — so the hypothesis is self-consistent once no frozen node's
//! removal pass changes. Per pass the simulator maintains exact degree
//! trajectories for `F` (frozen-neighbor round buckets plus live
//! affected-affected adjacency), reconstitutes the live edge weight from
//! the recorded pass weight by exchanging the old affected contribution
//! for the simulated one, and re-computes density and threshold with the
//! same [`density`] arithmetic the kernel uses — hence bit-identical
//! `f64`s on unweighted graphs (all counters are integers).
//!
//! Two aggregate bounds recorded per pass make the frozen hypothesis
//! checkable in `O(1)` per pass: [`TracePass::max_removal_deg`] proves
//! every recorded removal still qualifies (with an exact per-node bucket
//! scan as the slow path), and [`TracePass::min_noncand_deg`] proves no
//! recorded survivor newly crosses the threshold. When a frozen node provably
//! changes round it is *promoted* into `F` and the simulation restarts;
//! when a change cannot be localized the simulation gives up with a
//! fallback reason. On convergence, every frozen node's neighbors are
//! frozen or affected-with-unchanged-round, so frozen trajectories — and
//! therefore the whole run — are exact.
//!
//! ## What a hit costs
//!
//! A successful simulation costs `O(|F|·passes)` plus the adjacency rows
//! of `F`; outside the bucket scans below, nothing in it is sized by the
//! node count:
//!
//! * The trace it reads is a [`TraceView`]: the last full run's
//!   [`PeelTrace`] as a shared base, plus a patch holding the rows that
//!   changed since. Reading a frozen node's round is a patch probe and a
//!   base lookup, and the simulated run's trace is the same base with the
//!   patch extended by `F` — chained hits never copy the base.
//! * The per-pass id buckets of the recorded run are built only when a
//!   pass needs them — the threshold slow path — at one `O(n)` scan per
//!   side and simulation, and are never stored.
//! * The old and new rows of affected nodes come from a [`RowCache`]
//!   that every simulation of one delta shares: all ratios of a directed
//!   sweep and all restarts fetch each row once.
//! * The best sides, one bitset per side, are built only for the run
//!   that is reported ([`SimSuccess::best_sides`]).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use dsg_graph::{density, FxHashMap, FxHashSet, NodeSet};

use crate::kernel::{order_key, PeelTrace, TracePass, FRONTIER_LEN, NEVER_REMOVED};

/// The removal rule being simulated — mirrors the arithmetic of the
/// kernel policies exactly (same operations in the same order).
#[derive(Clone, Copy, Debug)]
pub enum IncPolicy {
    /// [`crate::kernel::ThresholdPolicy`] (Algorithm 1).
    Threshold {
        /// The `ε` of the `2(1+ε)·ρ` threshold.
        epsilon: f64,
    },
    /// [`crate::kernel::DirectedSizesPolicy`] (Algorithm 3) at a fixed
    /// ratio `c`.
    DirectedSizes {
        /// The `|S|/|T|` side-selection ratio.
        c: f64,
        /// The `ε` of the one-side threshold.
        epsilon: f64,
    },
}

impl IncPolicy {
    fn sides(&self) -> usize {
        match self {
            IncPolicy::DirectedSizes { .. } => 2,
            _ => 1,
        }
    }
}

/// One node's trace row: the 1-based pass that removed it (or
/// [`NEVER_REMOVED`]) and its degree at removal (0 when never removed).
type Row = (u32, f64);

const UNREMOVED: Row = (NEVER_REMOVED, 0.0);

fn same_row(a: Row, b: Row) -> bool {
    a.0 == b.0 && a.1.to_bits() == b.1.to_bits()
}

/// A peel trace kept as a shared base plus a patch — the seed state of
/// the incremental tier.
///
/// The base is the [`PeelTrace`] of the last full run. Each successful
/// [`simulate`] returns a view over the same base whose patch holds, per
/// side, the row of every node that changed since that base, and whose
/// pass records and frontiers are the simulated run's. Base rounds past
/// the *horizon* — the shortest simulated run since the base — read as
/// [`NEVER_REMOVED`]: those nodes outlived the shorter run.
///
/// Reading a row is a patch probe plus a base lookup; extending the view
/// costs `O(|patch| + |F|)` and never copies the base.
#[derive(Clone, Debug)]
pub struct TraceView {
    base: Arc<PeelTrace>,
    /// Node-id capacity of the described run.
    n: u32,
    /// Base rounds above this read as [`NEVER_REMOVED`].
    horizon: u32,
    /// Per side: the rows that differ from the (horizon-clipped) base.
    patch: Vec<FxHashMap<u32, Row>>,
    passes: Vec<TracePass>,
    frontier: Vec<Vec<(f64, u32)>>,
    frontier_complete: Vec<bool>,
}

impl TraceView {
    /// The view of a full run's trace: nothing patched.
    pub fn new(trace: PeelTrace) -> Self {
        TraceView {
            n: trace.n,
            horizon: NEVER_REMOVED,
            patch: vec![FxHashMap::default(); trace.sides()],
            passes: trace.passes.clone(),
            frontier: trace.frontier.clone(),
            frontier_complete: trace.frontier_complete.clone(),
            base: Arc::new(trace),
        }
    }

    /// Node-id capacity of the described run.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Aggregate pass records of the described run, in pass order.
    pub fn passes(&self) -> &[TracePass] {
        &self.passes
    }

    fn sides(&self) -> usize {
        self.patch.len()
    }

    /// Round at which `id` was removed on side `s`, or [`NEVER_REMOVED`].
    fn round(&self, s: usize, id: u32) -> u32 {
        match self.patch[s].get(&id) {
            Some(&(r, _)) => r,
            None => self.base_round(s, id),
        }
    }

    /// Degree `id` had when removed on side `s` (0 if never removed).
    fn removal_deg(&self, s: usize, id: u32) -> f64 {
        match self.patch[s].get(&id) {
            Some(&(_, d)) => d,
            None => self.base_row(s, id).1,
        }
    }

    /// The base's round of `id`, clipped at the horizon.
    fn base_round(&self, s: usize, id: u32) -> u32 {
        match self.base.rounds[s].get(id as usize) {
            Some(&r) if r <= self.horizon => r,
            _ => NEVER_REMOVED,
        }
    }

    /// The base's row for `id`, clipped at the horizon.
    fn base_row(&self, s: usize, id: u32) -> Row {
        match self.base_round(s, id) {
            NEVER_REMOVED => UNREMOVED,
            r => (r, self.base.removal_deg[s][id as usize]),
        }
    }

    /// The densest intermediate sides of the described run, whose best
    /// state was at the start of pass `best_pass`: every node removed at
    /// or after it. One `O(n)` bitset per side.
    fn best_sides(&self, best_pass: u32) -> Vec<NodeSet> {
        (0..self.sides())
            .map(|s| {
                let mut set = NodeSet::from_iter(
                    self.n as usize,
                    (0..self.n).filter(|&id| self.base_round(s, id) >= best_pass),
                );
                for (&id, &(r, _)) in &self.patch[s] {
                    if r >= best_pass {
                        set.insert(id);
                    } else {
                        set.remove(id);
                    }
                }
                set
            })
            .collect()
    }

    /// Per-pass id buckets of side `s`: one `O(n)` scan, ids ascending.
    fn buckets(&self, s: usize) -> Vec<Vec<u32>> {
        #[cfg(test)]
        tests::BUCKET_BUILDS.with(|c| c.set(c.get() + 1));
        let mut out = vec![Vec::new(); self.passes.len() + 1];
        let mut patched: Vec<(u32, u32)> =
            self.patch[s].iter().map(|(&id, &(r, _))| (id, r)).collect();
        patched.sort_unstable();
        let mut next = patched.iter().peekable();
        for id in 0..self.n {
            let r = match next.peek() {
                Some(&&(pid, r)) if pid == id => {
                    next.next();
                    r
                }
                _ => self.base_round(s, id),
            };
            if r != NEVER_REMOVED {
                out[r as usize].push(id);
            }
        }
        out
    }

    /// The view of a simulated run over `n_new` nodes that took `passes`
    /// passes: every row outside `F` is clipped at `passes` (a node the
    /// recorded run removed later outlived the simulated one), and `F`'s
    /// rows are `f_rows[side * |F| + local]`.
    fn extend(
        &self,
        n_new: usize,
        passes: u32,
        f_ids: &[u32],
        f_rows: &[Row],
        log: PassLog,
    ) -> TraceView {
        // Every row this view reads is at most its own pass count, so a
        // run at least as long clips nothing.
        let clip = (passes as usize) < self.passes.len();
        let mut next = TraceView {
            base: self.base.clone(),
            n: n_new as u32,
            horizon: self.horizon.min(passes),
            patch: Vec::new(),
            passes: log.passes,
            frontier: log.frontier,
            frontier_complete: log.frontier_complete,
        };
        for s in 0..self.sides() {
            let mut patch = self.patch[s].clone();
            if clip {
                patch.retain(|&id, row| {
                    if row.0 != NEVER_REMOVED && row.0 > passes {
                        *row = UNREMOVED;
                    }
                    !same_row(*row, next.base_row(s, id))
                });
            }
            let rows = &f_rows[s * f_ids.len()..(s + 1) * f_ids.len()];
            for (&id, &row) in f_ids.iter().zip(rows) {
                if same_row(row, next.base_row(s, id)) {
                    patch.remove(&id);
                } else {
                    patch.insert(id, row);
                }
            }
            next.patch.push(patch);
        }
        next
    }
}

/// Per-pass records of a simulated run, moved into its [`TraceView`].
struct PassLog {
    passes: Vec<TracePass>,
    frontier: Vec<Vec<(f64, u32)>>,
    frontier_complete: Vec<bool>,
}

/// Old/new adjacency of affected nodes, supplied by the caller (the
/// engine answers from the base CSR plus the mutation journal).
///
/// `dir` selects the arc direction on directed graphs: `0` = out-,
/// `1` = in-neighbors. Undirected graphs only see `dir = 0`.
pub trait AffectedAdjacency {
    /// Appends the neighbors of `u` in the pre-delta graph to `out`.
    fn old_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>);
    /// Appends the neighbors of `u` in the post-delta graph to `out`.
    fn new_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>);
}

/// The old and new rows of affected nodes, fetched from an
/// [`AffectedAdjacency`] once and shared by every [`simulate`] call of
/// one delta — all ratios of a directed sweep, all restarts.
pub struct RowCache<'a> {
    adj: &'a dyn AffectedAdjacency,
    /// `(node, dir)` → arena ranges of the old and the new row. A row the
    /// delta left alone — most of them — is stored once, both ranges
    /// equal.
    index: FxHashMap<(u32, u8), [usize; 4]>,
    arena: Vec<u32>,
}

impl<'a> RowCache<'a> {
    /// An empty cache over `adj`.
    pub fn new(adj: &'a dyn AffectedAdjacency) -> Self {
        RowCache {
            adj,
            index: FxHashMap::default(),
            arena: Vec::new(),
        }
    }

    fn fetch(&mut self, u: u32, dir: usize) {
        if let Entry::Vacant(slot) = self.index.entry((u, dir as u8)) {
            let a = self.arena.len();
            self.adj.old_neighbors(u, dir, &mut self.arena);
            let b = self.arena.len();
            self.adj.new_neighbors(u, dir, &mut self.arena);
            if self.arena[a..b] == self.arena[b..] {
                self.arena.truncate(b);
                slot.insert([a, b, a, b]);
            } else {
                slot.insert([a, b, b, self.arena.len()]);
            }
        }
    }

    /// The old and the new row of `u`, and whether they are the same.
    fn get(&self, u: u32, dir: usize) -> (&[u32], &[u32], bool) {
        let [a, b, c, d] = self.index[&(u, dir as u8)];
        (&self.arena[a..b], &self.arena[c..d], (a, b) == (c, d))
    }
}

/// Resource limits of one simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimLimits {
    /// Fallback once `|F|` exceeds this.
    pub max_affected: usize,
    /// Fallback after this many promote-and-restart rounds.
    pub max_restarts: u32,
}

/// A successful simulation: the exact result of the cold run on the
/// mutated graph, plus the refreshed trace for the next delta.
pub struct SimSuccess {
    /// Trace of the simulated run over the mutated graph: the input
    /// view's base with the patch extended by `F` (per-pass aggregate
    /// bounds are conservative where exact values would cost a frozen
    /// scan; conservative means "may cause extra checks later", never
    /// "unsound").
    pub trace: TraceView,
    /// Density of the best state (bit-identical to the cold run).
    pub best_density: f64,
    /// 1-based pass of the best state.
    pub best_pass: u32,
    /// Total passes of the simulated run.
    pub passes: u32,
    /// Final `|F|`.
    pub affected: usize,
    /// Promote-and-restart rounds taken.
    pub restarts: u32,
}

impl SimSuccess {
    /// The densest intermediate sides (bit-identical to the cold run's),
    /// one `O(n)` bitset per side: build them for the reported run only.
    pub fn best_sides(&self) -> Vec<NodeSet> {
        self.trace.best_sides(self.best_pass)
    }
}

enum Attempt {
    Done(Box<SimSuccess>),
    Grow(Vec<u32>),
    Fail(&'static str),
}

/// The threshold fallback's static reason string (the engine and the
/// bench suite key probe-overhead accounting on it).
pub const THRESHOLD_REASON: &str = "affected set exceeds the incremental threshold";

/// A simulation fallback: the static reason plus how much probe work
/// was spent before giving up. After the early-exit bound, a
/// [`THRESHOLD_REASON`] fallback always reports
/// `affected == max_affected + 1` — the probe stops growing `F` the
/// moment it crosses the cap, before any further pass work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimFallback {
    /// Static fallback reason.
    pub reason: &'static str,
    /// `|F|` when the simulation gave up (0 before seeding started).
    pub affected: usize,
    /// Promote-and-restart rounds taken before the fallback.
    pub restarts: u32,
}

impl From<&'static str> for SimFallback {
    fn from(reason: &'static str) -> Self {
        SimFallback {
            reason,
            affected: 0,
            restarts: 0,
        }
    }
}

/// Per-pass id buckets of the recorded run, per side, built on first
/// use and dropped with the simulation.
struct Buckets(Vec<Option<Vec<Vec<u32>>>>);

impl Buckets {
    fn pass(&mut self, trace: &TraceView, side: usize, q: usize) -> &[u32] {
        &self.0[side].get_or_insert_with(|| trace.buckets(side))[q]
    }
}

/// Runs the simulation. `seed` must contain every delta-edge endpoint
/// and every node id in `trace.n()..n_new`; `trace` must come from the
/// same policy on the pre-delta graph, and `rows` must answer for that
/// graph (old rows) and the mutated one (new rows). Returns the exact
/// cold-run result or a fallback carrying the static reason and the
/// probe work spent.
pub fn simulate(
    policy: IncPolicy,
    trace: &TraceView,
    n_new: usize,
    seed: &[u32],
    rows: &mut RowCache<'_>,
    limits: SimLimits,
) -> Result<SimSuccess, SimFallback> {
    let sides = policy.sides();
    if trace.sides() != sides {
        return Err("trace arity does not match policy".into());
    }
    if n_new < trace.n as usize {
        return Err("node count shrank".into());
    }

    // Seed the affected set before any pass work: a delta too large for
    // the tier must cost O(cap). The moment `|F|` crosses the cap the
    // probe is doomed — bail with exactly `max_affected + 1` members,
    // never having looked at the trace body.
    let mut in_f: FxHashSet<u32> = FxHashSet::default();
    let mut f_ids: Vec<u32> = Vec::new();
    for &u in seed {
        if in_f.insert(u) {
            f_ids.push(u);
            if f_ids.len() > limits.max_affected {
                return Err(SimFallback {
                    reason: THRESHOLD_REASON,
                    affected: f_ids.len(),
                    restarts: 0,
                });
            }
        }
    }
    f_ids.sort_unstable();

    let mut buckets = Buckets(vec![None; sides]);
    let mut restarts = 0u32;
    loop {
        match attempt(policy, trace, n_new, &f_ids, rows, &mut buckets, restarts) {
            Attempt::Done(s) => return Ok(*s),
            Attempt::Fail(r) => {
                return Err(SimFallback {
                    reason: r,
                    affected: f_ids.len(),
                    restarts,
                })
            }
            Attempt::Grow(more) => {
                restarts += 1;
                if restarts > limits.max_restarts {
                    return Err(SimFallback {
                        reason: "too many affected-set expansions",
                        affected: f_ids.len(),
                        restarts,
                    });
                }
                let mut grew = false;
                for u in more {
                    if in_f.insert(u) {
                        f_ids.push(u);
                        grew = true;
                        // Early exit: once the cap is crossed no further
                        // attempt can run, so stop growing — the doomed
                        // probe's expansion work stays O(cap), not
                        // O(|Grow batch|) + another full attempt.
                        if f_ids.len() > limits.max_affected {
                            return Err(SimFallback {
                                reason: THRESHOLD_REASON,
                                affected: f_ids.len(),
                                restarts,
                            });
                        }
                    }
                }
                if !grew {
                    return Err(SimFallback {
                        reason: "expansion made no progress",
                        affected: f_ids.len(),
                        restarts,
                    });
                }
                f_ids.sort_unstable();
            }
        }
    }
}

/// Lower bound on the `(degree, id)` pairs of recorded pass-`q`
/// non-candidates past the recorded frontier, which the simulation does
/// not track exactly.
#[derive(Clone, Copy)]
enum Bound {
    /// Every unseen pair sorts strictly above this one.
    Exclusive((f64, u32)),
    /// Every unseen pair sorts at or above this one; the witness id is
    /// not meaningful.
    AtLeast((f64, u32)),
}

impl Bound {
    /// True when `(deg, id)` sorts strictly below every pair the bound
    /// allows, in the kernel's [`order_key`] order.
    fn admits(self, (deg, id): (f64, u32)) -> bool {
        let key = order_key(deg, id);
        match self {
            Bound::AtLeast((d, b)) => key < order_key(d, b),
            Bound::Exclusive((d, b)) => key <= order_key(d, b),
        }
    }

    /// The bound's degree.
    fn degree(self) -> f64 {
        match self {
            Bound::Exclusive((d, _)) | Bound::AtLeast((d, _)) => d,
        }
    }
}

/// The bound on pass `q`'s unlisted non-candidates, `None` when the
/// recorded frontier lists all of them.
fn unlisted_bound(trace: &TraceView, q: usize) -> Option<Bound> {
    if trace.frontier_complete[q - 1] {
        None
    } else if let Some(&last) = trace.frontier[q - 1].last() {
        Some(Bound::Exclusive(last))
    } else {
        // An assembled trace whose frontier cut dropped everything:
        // only the scalar degree bound remains.
        Some(Bound::AtLeast((trace.passes[q - 1].min_noncand_deg, 0)))
    }
}

/// Variable-length rows packed into one buffer: row `i` is
/// `data[off[i]..off[i + 1]]`.
struct Packed {
    data: Vec<u32>,
    off: Vec<usize>,
}

impl Packed {
    fn with_rows(rows: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Packed {
            data: Vec::new(),
            off,
        }
    }

    /// `(key, value)` pairs with keys below `keys`, grouped by key (a
    /// counting sort): row `k` lists the values of key `k`.
    fn grouped(pairs: &[(u32, u32)], keys: usize) -> Self {
        let mut off = vec![0usize; keys + 1];
        for &(k, _) in pairs {
            off[k as usize + 1] += 1;
        }
        for k in 0..keys {
            off[k + 1] += off[k];
        }
        let mut data = vec![0u32; pairs.len()];
        let mut next = off.clone();
        for &(k, v) in pairs {
            data[next[k as usize]] = v;
            next[k as usize] += 1;
        }
        Packed { data, off }
    }

    fn end_row(&mut self) {
        self.off.push(self.data.len());
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[self.off[i]..self.off[i + 1]]
    }
}

#[allow(clippy::too_many_arguments)]
fn attempt(
    policy: IncPolicy,
    trace: &TraceView,
    n_new: usize,
    f_ids: &[u32],
    rows: &mut RowCache<'_>,
    buckets: &mut Buckets,
    restarts: u32,
) -> Attempt {
    let sides = policy.sides();
    let n_old = trace.n as usize;
    let p_total = trace.passes.len();
    let nf = f_ids.len();

    let loc: FxHashMap<u32, u32> = f_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    for s in 0..sides {
        for &id in f_ids {
            rows.fetch(id, s);
        }
    }
    let rows = &*rows;

    // Per (side, affected-node) state lives at index `s * nf + f`. The
    // side-s degree of a node is over its dir-s neighbors (undirected:
    // dir 0; directed S: out, T: in), whose liveness is tracked on side
    // `rel = sides - 1 - s` for directed runs and side 0 otherwise.
    // Frozen neighbors only matter through their count and the pass the
    // recorded run removes them in, so they are grouped by that pass.
    let at = |s: usize, f: usize| s * nf + f;
    let mut fr_alive: Vec<i64> = Vec::with_capacity(sides * nf);
    let mut fr_deaths: Vec<(u32, u32)> = Vec::new();
    let mut aa_old = Packed::with_rows(sides * nf);
    let mut aa_new = Packed::with_rows(sides * nf);
    for s in 0..sides {
        let rel = if sides == 2 { 1 - s } else { 0 };
        for (f, &id) in f_ids.iter().enumerate() {
            let (old_row, new_row, unchanged) = rows.get(id, s);
            let aa_start = aa_new.data.len();
            let mut frozen = 0i64;
            for &v in new_row {
                match loc.get(&v) {
                    Some(&l) => aa_new.data.push(l),
                    None => {
                        if v as usize >= n_old {
                            return Attempt::Grow(vec![v]);
                        }
                        frozen += 1;
                        let r = trace.round(rel, v);
                        if r as usize <= p_total {
                            fr_deaths.push((r, at(s, f) as u32));
                        }
                    }
                }
            }
            fr_alive.push(frozen);
            if unchanged {
                aa_old.data.extend_from_slice(&aa_new.data[aa_start..]);
            } else if (id as usize) < n_old {
                // A frozen old-neighbor is also a frozen new-neighbor
                // (delta endpoints are all in F), already counted.
                aa_old
                    .data
                    .extend(old_row.iter().filter_map(|v| loc.get(v)));
            }
            aa_old.end_row();
            aa_new.end_row();
        }
    }
    let fr_deaths = Packed::grouped(&fr_deaths, p_total + 1);

    // Exact degree trajectories and liveness, old run and simulated run.
    let mut odeg: Vec<i64> = (0..sides * nf)
        .map(|i| fr_alive[i] + aa_old.row(i).len() as i64)
        .collect();
    let mut ndeg: Vec<i64> = (0..sides * nf)
        .map(|i| fr_alive[i] + aa_new.row(i).len() as i64)
        .collect();
    let mut oalive: Vec<bool> = (0..sides * nf)
        .map(|i| (f_ids[i % nf] as usize) < n_old)
        .collect();
    let mut nalive: Vec<bool> = vec![true; sides * nf];
    let mut new_row: Vec<Row> = vec![UNREMOVED; sides * nf];

    // Side aggregates. Frozen liveness is shared between the runs (that
    // is the frozen hypothesis); affected liveness diverges.
    let old_f = f_ids.iter().filter(|&&id| (id as usize) < n_old).count() as i64;
    let mut frozen_alive: Vec<i64> = vec![n_old as i64 - old_f; sides];
    let mut o_aff_alive: Vec<i64> = vec![old_f; sides];
    let mut n_aff_alive: Vec<i64> = vec![nf as i64; sides];
    let mut sum_f_old: Vec<i64> = (0..sides)
        .map(|s| {
            (0..nf)
                .filter(|&f| oalive[at(s, f)])
                .map(|f| fr_alive[at(s, f)])
                .sum()
        })
        .collect();
    let mut sum_f_new: Vec<i64> = (0..sides)
        .map(|s| (0..nf).map(|f| fr_alive[at(s, f)]).sum())
        .collect();
    let (mut aa_e_old, mut aa_e_new) = {
        let o = aa_old.off[nf] as i64;
        let n = aa_new.off[nf] as i64;
        if sides == 2 {
            (o, n)
        } else {
            (o / 2, n / 2)
        }
    };

    // Recorded rounds of F members, grouped by pass: subtracted from the
    // recorded removal counts, and replayed as old-run affected deaths.
    let f_deaths: Vec<Packed> = (0..sides)
        .map(|s| {
            let pairs: Vec<(u32, u32)> = f_ids
                .iter()
                .enumerate()
                .filter(|&(_, &id)| (id as usize) < n_old)
                .map(|(f, &id)| (trace.round(s, id), f as u32))
                .filter(|&(r, _)| r as usize <= p_total)
                .collect();
            Packed::grouped(&pairs, p_total + 1)
        })
        .collect();
    let f_removed = |s: usize, q: u32| f_deaths[s].row(q as usize).len() as i64;

    let mut best_density = 0.0f64;
    let mut best_pass = 0u32;
    let mut new_passes: Vec<TracePass> = Vec::new();
    let mut new_frontier: Vec<Vec<(f64, u32)>> = Vec::new();
    let mut new_frontier_complete: Vec<bool> = Vec::new();
    let mut expand: Vec<u32> = Vec::new();
    // Selected affected removals of the pass in flight: (local, degree at
    // selection — the removal degree the cold run would record).
    let mut rem: Vec<(u32, f64)> = Vec::new();

    let mut qn: u32 = 0;
    loop {
        qn += 1;
        let s0 = frozen_alive[0] + n_aff_alive[0];
        let s1 = if sides == 2 {
            frozen_alive[1] + n_aff_alive[1]
        } else {
            0
        };
        let finished = match policy {
            IncPolicy::Threshold { .. } => s0 == 0,
            IncPolicy::DirectedSizes { .. } => s0 == 0 || s1 == 0,
        };
        if finished {
            qn -= 1;
            break;
        }
        let in_trace = (qn as usize) <= p_total;
        if !in_trace && frozen_alive.iter().any(|&x| x > 0) {
            return Attempt::Fail("recorded trace exhausted with frozen survivors");
        }
        let p = in_trace.then(|| &trace.passes[qn as usize - 1]);

        // Live weight: recorded weight minus the old affected
        // contribution plus the simulated one (frozen-frozen weight is
        // identical in both runs).
        let w: i64 = match p {
            Some(p) => {
                let sfo: i64 = sum_f_old.iter().sum();
                let sfn: i64 = sum_f_new.iter().sum();
                (p.total_weight as i64) - sfo - aa_e_old + sfn + aa_e_new
            }
            None => aa_e_new,
        };

        // Policy step: density, threshold, side, affected removals, and
        // the frozen-hypothesis proofs.
        rem.clear();
        let side;
        let rho;
        let t;
        match policy {
            IncPolicy::Threshold { epsilon } => {
                side = 0usize;
                rho = density::undirected(w as f64, s0 as usize);
                t = density::undirected_threshold(rho, epsilon);
            }
            IncPolicy::DirectedSizes { c, epsilon } => {
                rho = density::directed(w as f64, s0 as usize, s1 as usize);
                let from_s = s0 as f64 / s1 as f64 >= c;
                side = usize::from(!from_s);
                let side_len = if from_s { s0 } else { s1 };
                t = density::directed_threshold(w as f64, side_len as usize, epsilon);
                if let Some(p) = p {
                    if p.side as usize != side {
                        return Attempt::Fail("side choice flipped");
                    }
                }
            }
        }

        let frozen_removed = match p {
            Some(p) => i64::from(p.removed) - f_removed(side, qn),
            None => 0,
        };
        let mut max_rm = f64::NEG_INFINITY;
        let mut min_nc = f64::INFINITY;
        // Live affected non-candidates of the pass, for the simulated
        // trace's frontier.
        let mut aff_nc: Vec<(f64, u32)> = Vec::new();
        // Every node at or below the threshold goes (Algorithm 1, or
        // Algorithm 3 at a fixed side).
        if let Some(p) = p {
            if frozen_removed > 0 && p.max_removal_deg > t {
                // Slow path: some recorded removal may have lost
                // candidacy — check the pass's frozen removals one by one.
                for &id in buckets.pass(trace, side, qn as usize) {
                    if !loc.contains_key(&id) && trace.removal_deg(side, id) > t {
                        expand.push(id);
                    }
                }
                if !expand.is_empty() {
                    return Attempt::Grow(expand);
                }
            }
            // Recorded survivors the shifted threshold now reaches: the
            // frontier names them exactly — promote; beyond the frontier
            // identities are unknowable.
            for &(d, id) in &trace.frontier[qn as usize - 1] {
                if d <= t && !loc.contains_key(&id) {
                    expand.push(id);
                }
            }
            if !expand.is_empty() {
                return Attempt::Grow(expand);
            }
            if let Some(b) = unlisted_bound(trace, qn as usize) {
                if b.degree() <= t {
                    return Attempt::Fail("threshold crossed beyond the recorded frontier");
                }
            }
            if frozen_removed > 0 {
                max_rm = p.max_removal_deg;
            }
            min_nc = p.min_noncand_deg;
        }
        for f in 0..nf {
            if nalive[at(side, f)] {
                let d = ndeg[at(side, f)] as f64;
                if d <= t {
                    rem.push((f as u32, d));
                    if d > max_rm {
                        max_rm = d;
                    }
                } else {
                    if d < min_nc {
                        min_nc = d;
                    }
                    aff_nc.push((d, f_ids[f]));
                }
            }
        }
        let removed_total = frozen_removed + rem.len() as i64;

        if removed_total <= 0 {
            return Attempt::Fail("simulated pass removed nothing");
        }

        // Frontier of the simulated pass: exact affected non-candidates
        // merged with the frozen remainder of the recorded frontier, cut
        // strictly below every pair an unseen survivor could take so the
        // list stays a true prefix of the pass's smallest non-candidates.
        {
            let mut known = aff_nc;
            let mut bound = None;
            if p.is_some() {
                let q = qn as usize;
                for &e in &trace.frontier[q - 1] {
                    if !loc.contains_key(&e.1) && e.0 > t {
                        known.push(e);
                    }
                }
                bound = unlisted_bound(trace, q);
            }
            let mut complete = bound.is_none();
            // The admitted pairs are a prefix of the sorted list; only its
            // first `FRONTIER_LEN` are kept, so select them before sorting.
            if let Some(b) = bound {
                known.retain(|&pr| b.admits(pr));
            }
            if known.len() > FRONTIER_LEN {
                known.select_nth_unstable_by_key(FRONTIER_LEN, |&(d, id)| order_key(d, id));
                known.truncate(FRONTIER_LEN);
                complete = false;
            }
            known.sort_by_key(|&(d, id)| order_key(d, id));
            new_frontier.push(known);
            new_frontier_complete.push(complete);
        }

        if rho > best_density || qn == 1 {
            best_density = rho;
            best_pass = qn;
        }
        new_passes.push(TracePass {
            side: side as u8,
            alive: [s0 as u32, s1 as u32],
            total_weight: w as f64,
            density: rho,
            threshold: t,
            removed: removed_total as u32,
            max_removal_deg: max_rm,
            min_noncand_deg: min_nc,
        });

        // --- End-of-pass updates ---
        if let Some(p) = p {
            // 1. Frozen deaths of recorded pass qn decrement both
            //    trajectories.
            for &i in fr_deaths.row(qn as usize) {
                let (i, s) = (i as usize, i as usize / nf);
                fr_alive[i] -= 1;
                odeg[i] -= 1;
                ndeg[i] -= 1;
                if oalive[i] {
                    sum_f_old[s] -= 1;
                }
                if nalive[i] {
                    sum_f_new[s] -= 1;
                }
            }
            let os = p.side as usize;
            frozen_alive[os] -= i64::from(p.removed) - f_removed(os, qn);
            // 2. Old-run affected deaths of pass qn.
            let other = if sides == 2 { 1 - os } else { 0 };
            for &f in f_deaths[os].row(qn as usize) {
                let i = at(os, f as usize);
                oalive[i] = false;
                o_aff_alive[os] -= 1;
                sum_f_old[os] -= fr_alive[i];
                for &g in aa_old.row(i) {
                    let j = at(other, g as usize);
                    odeg[j] -= 1;
                    if oalive[j] {
                        aa_e_old -= 1;
                    }
                }
            }
        }
        // 3. Simulated affected deaths of pass qn.
        let other = if sides == 2 { 1 - side } else { 0 };
        for &(f, d) in &rem {
            let i = at(side, f as usize);
            nalive[i] = false;
            new_row[i] = (qn, d);
            n_aff_alive[side] -= 1;
            sum_f_new[side] -= fr_alive[i];
            for &g in aa_new.row(i) {
                let j = at(other, g as usize);
                ndeg[j] -= 1;
                if nalive[j] {
                    aa_e_new -= 1;
                }
            }
        }
    }

    // Fixpoint check: an affected node whose round changed within the
    // simulated horizon invalidates its frozen neighbors' trajectories —
    // promote them and restart.
    let horizon = qn;
    for s in 0..sides {
        for (f, &id) in f_ids.iter().enumerate() {
            let old_r = if (id as usize) < n_old {
                trace.round(s, id)
            } else {
                NEVER_REMOVED
            };
            let new_r = new_row[at(s, f)].0;
            if old_r != new_r && old_r.min(new_r) <= horizon {
                expand.extend(rows.get(id, s).1.iter().filter(|v| !loc.contains_key(v)));
            }
        }
    }
    if !expand.is_empty() {
        expand.sort_unstable();
        expand.dedup();
        return Attempt::Grow(expand);
    }

    let log = PassLog {
        passes: new_passes,
        frontier: new_frontier,
        frontier_complete: new_frontier_complete,
    };
    Attempt::Done(Box::new(SimSuccess {
        trace: trace.extend(n_new, horizon, f_ids, &new_row, log),
        best_density,
        best_pass,
        passes: qn,
        affected: nf,
        restarts,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::sweep_c_csr_traced;
    use crate::kernel::{
        peel_with_capture, CsrDirectedStore, CsrUndirectedStore, DirectedSizesPolicy, KernelRun,
        ThresholdPolicy,
    };
    use dsg_graph::{CsrDirected, CsrUndirected, EdgeList, GraphKind, SplitMix64};
    use std::cell::Cell;

    thread_local! {
        /// Bucket builds on this thread (see `TraceView::buckets`).
        pub(super) static BUCKET_BUILDS: Cell<u32> = const { Cell::new(0) };
    }

    const LIMITS: SimLimits = SimLimits {
        max_affected: usize::MAX,
        max_restarts: 64,
    };

    struct ListAdjacency {
        old_out: Vec<Vec<u32>>,
        old_in: Vec<Vec<u32>>,
        new_out: Vec<Vec<u32>>,
        new_in: Vec<Vec<u32>>,
    }

    impl ListAdjacency {
        fn build(old: &EdgeList, new: &EdgeList, n: usize) -> Self {
            let mut a = ListAdjacency {
                old_out: vec![Vec::new(); n],
                old_in: vec![Vec::new(); n],
                new_out: vec![Vec::new(); n],
                new_in: vec![Vec::new(); n],
            };
            let undirected = old.kind == GraphKind::Undirected;
            for (which, list) in [(0, old), (1, new)] {
                for &(u, v) in &list.edges {
                    let (out, inn) = if which == 0 {
                        (&mut a.old_out, &mut a.old_in)
                    } else {
                        (&mut a.new_out, &mut a.new_in)
                    };
                    out[u as usize].push(v);
                    inn[v as usize].push(u);
                    if undirected {
                        out[v as usize].push(u);
                        inn[u as usize].push(v);
                    }
                }
            }
            a
        }
    }

    impl AffectedAdjacency for ListAdjacency {
        fn old_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>) {
            let rows = if dir == 0 {
                &self.old_out
            } else {
                &self.old_in
            };
            out.extend_from_slice(&rows[u as usize]);
        }
        fn new_neighbors(&self, u: u32, dir: usize, out: &mut Vec<u32>) {
            let rows = if dir == 0 {
                &self.new_out
            } else {
                &self.new_in
            };
            out.extend_from_slice(&rows[u as usize]);
        }
    }

    fn random_list(n: u32, m: usize, kind: GraphKind, seed: u64) -> EdgeList {
        let mut rng = SplitMix64::new(seed);
        let mut list = match kind {
            GraphKind::Undirected => EdgeList::new_undirected(n),
            GraphKind::Directed => EdgeList::new_directed(n),
        };
        for _ in 0..m {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            list.push(u, v);
        }
        list.canonicalize();
        list
    }

    /// One delta step: flips `k` random pairs (present → removed, absent
    /// → added) and returns the canonicalized new list plus the seed set.
    fn mutate(list: &EdgeList, k: usize, seed: u64) -> (EdgeList, Vec<u32>) {
        let mut rng = SplitMix64::new(seed);
        let n = list.num_nodes as u64;
        let mut edges: std::collections::BTreeSet<(u32, u32)> =
            list.edges.iter().copied().collect();
        let mut touched = Vec::new();
        for _ in 0..k {
            let mut u = (rng.next_u64() % n) as u32;
            let mut v = (rng.next_u64() % n) as u32;
            if u == v {
                continue;
            }
            if list.kind == GraphKind::Undirected && u > v {
                std::mem::swap(&mut u, &mut v);
            }
            if !edges.remove(&(u, v)) {
                edges.insert((u, v));
            }
            touched.push(u);
            touched.push(v);
        }
        let mut out = match list.kind {
            GraphKind::Undirected => EdgeList::new_undirected(list.num_nodes),
            GraphKind::Directed => EdgeList::new_directed(list.num_nodes),
        };
        for &(u, v) in &edges {
            out.push(u, v);
        }
        out.canonicalize();
        (out, touched)
    }

    /// The kernel run of `policy` on `list`, with its trace.
    fn cold(policy: IncPolicy, list: &EdgeList) -> (KernelRun, PeelTrace) {
        let (run, trace) = match policy {
            IncPolicy::Threshold { epsilon } => {
                let csr = CsrUndirected::from_edge_list(list);
                peel_with_capture(
                    &mut CsrUndirectedStore::new(&csr),
                    &mut ThresholdPolicy::new(epsilon),
                    true,
                )
            }
            IncPolicy::DirectedSizes { c, epsilon } => {
                let csr = CsrDirected::from_edge_list(list);
                let mut policy = DirectedSizesPolicy::new(c, epsilon);
                peel_with_capture(&mut CsrDirectedStore::new(&csr), &mut policy, true)
            }
        };
        (run, trace.expect("capture was requested"))
    }

    /// Asserts a simulated view describes the cold run's trace: rounds
    /// and removal degrees exactly, the exact per-pass fields bit for
    /// bit, and the aggregate bounds and frontiers soundly (a bound may
    /// be looser than the cold run's, a frontier a prefix of it).
    fn assert_matches_cold(view: &TraceView, cold: &PeelTrace) {
        assert_eq!(view.n(), cold.n);
        for s in 0..cold.sides() {
            for id in 0..cold.n {
                let r = cold.rounds[s][id as usize];
                assert_eq!(view.round(s, id), r, "round of {id} on side {s}");
                if r != NEVER_REMOVED {
                    assert_eq!(
                        view.removal_deg(s, id).to_bits(),
                        cold.removal_deg[s][id as usize].to_bits(),
                        "removal degree of {id} on side {s}"
                    );
                }
            }
        }
        assert_eq!(view.passes().len(), cold.passes.len());
        for (q, (x, y)) in view.passes().iter().zip(&cold.passes).enumerate() {
            assert_eq!(x.side, y.side);
            assert_eq!(x.alive, y.alive);
            assert_eq!(x.total_weight.to_bits(), y.total_weight.to_bits());
            assert_eq!(x.density.to_bits(), y.density.to_bits());
            assert_eq!(x.threshold.to_bits(), y.threshold.to_bits());
            assert_eq!(x.removed, y.removed);
            assert!(x.max_removal_deg >= y.max_removal_deg, "pass {q}");
            assert!(x.min_noncand_deg <= y.min_noncand_deg, "pass {q}");
            let (fx, fy) = (&view.frontier[q], &cold.frontier[q]);
            assert!(
                fy.starts_with(fx),
                "pass {q}: {fx:?} is no prefix of {fy:?}"
            );
            if view.frontier_complete[q] {
                assert!(cold.frontier_complete[q], "pass {q}");
                assert_eq!(fx, fy, "pass {q}");
            }
        }
    }

    /// What one chain of deltas did.
    #[derive(Default)]
    struct Chain {
        attempts: usize,
        hits: usize,
        /// Longest run of consecutive hits, each simulated from the
        /// previous hit's view.
        longest: usize,
    }

    impl Chain {
        fn add(&mut self, other: Chain) {
            self.attempts += other.attempts;
            self.hits += other.hits;
            self.longest = self.longest.max(other.longest);
        }
    }

    /// Applies `steps` deltas of `flips` edge flips to `list`, starting
    /// from `view` (a trace of `list`). Each step simulates from the
    /// previous success's view — re-based on the cold trace only after a
    /// fallback — and every hit is checked against a cold traced peel of
    /// the current graph.
    fn chain(
        policy: IncPolicy,
        mut list: EdgeList,
        mut view: TraceView,
        steps: u64,
        flips: usize,
        seed: u64,
    ) -> Chain {
        let n = list.num_nodes as usize;
        let mut out = Chain::default();
        let mut depth = 0;
        for step in 0..steps {
            let (new, touched) = mutate(&list, flips, seed * 1000 + step);
            let (run, trace) = cold(policy, &new);
            let adj = ListAdjacency::build(&list, &new, n);
            let mut rows = RowCache::new(&adj);
            out.attempts += 1;
            match simulate(policy, &view, n, &touched, &mut rows, LIMITS) {
                Ok(sim) => {
                    out.hits += 1;
                    depth += 1;
                    out.longest = out.longest.max(depth);
                    let at = format!("{policy:?} seed {seed} step {step}");
                    assert_eq!(
                        sim.best_density.to_bits(),
                        run.best_density.to_bits(),
                        "{at}"
                    );
                    assert_eq!(sim.best_pass, run.best_pass, "{at}");
                    assert_eq!(sim.passes, run.passes, "{at}");
                    for (a, b) in sim.best_sides().iter().zip(&run.best_sides) {
                        assert_eq!(a.to_vec(), b.to_vec(), "{at}");
                    }
                    assert_matches_cold(&sim.trace, &trace);
                    view = sim.trace;
                }
                // A fallback (threshold drift past a recorded survivor)
                // is legitimate: the engine re-peels then, and so does
                // the chain.
                Err(_) => {
                    depth = 0;
                    view = TraceView::new(trace);
                }
            }
            list = new;
        }
        out
    }

    /// Steps per chain: every chain runs this many deltas.
    const STEPS: u64 = 10;

    #[test]
    fn undirected_simulation_matches_cold() {
        BUCKET_BUILDS.with(|c| c.set(0));
        let mut total = Chain::default();
        for seed in 0..12u64 {
            for epsilon in [0.25, 0.5, 1.0] {
                let list = random_list(60, 150, GraphKind::Undirected, 100 + seed);
                let policy = IncPolicy::Threshold { epsilon };
                let view = TraceView::new(cold(policy, &list).1);
                total.add(chain(policy, list, view, STEPS, 3, 200 + seed));
            }
        }
        assert!(
            total.hits * 3 >= total.attempts,
            "incremental hit rate collapsed: {}/{}",
            total.hits,
            total.attempts
        );
        assert!(total.longest >= 8, "longest chain {}", total.longest);
        // The threshold slow path (a recorded removal above the shifted
        // threshold) builds buckets; the fast path never does.
        assert!(BUCKET_BUILDS.with(Cell::get) > 0, "slow path never ran");
    }

    #[test]
    fn directed_simulation_matches_cold_per_ratio() {
        let mut total = Chain::default();
        // Longer chains than the undirected tests: a node patched by
        // one hit must be clipped when a later, shorter run outlives it.
        for seed in 0..16u64 {
            let list = random_list(40, 160, GraphKind::Directed, 500 + seed);
            let (_, traces) = sweep_c_csr_traced(&CsrDirected::from_edge_list(&list), 2.0, 0.5);
            for (c, trace) in traces {
                let policy = IncPolicy::DirectedSizes { c, epsilon: 0.5 };
                let view = TraceView::new(trace);
                total.add(chain(policy, list.clone(), view, 2 * STEPS, 2, 600 + seed));
            }
        }
        assert!(
            total.hits * 4 >= total.attempts,
            "incremental hit rate collapsed: {}/{}",
            total.hits,
            total.attempts
        );
        assert!(total.longest >= 8, "longest chain {}", total.longest);
    }

    #[test]
    fn node_growth_is_supported_undirected() {
        let old = random_list(30, 80, GraphKind::Undirected, 900);
        let mut new = old.clone();
        // Attach two fresh nodes to the graph.
        new.push(2, 30);
        new.push(30, 31);
        new.push(5, 31);
        new.num_nodes = 32;
        new.canonicalize();
        let policy = IncPolicy::Threshold { epsilon: 0.5 };
        let view = TraceView::new(cold(policy, &old).1);
        let (run, trace) = cold(policy, &new);
        let adj = ListAdjacency::build(&old, &new, 32);
        let mut rows = RowCache::new(&adj);
        let sim = simulate(policy, &view, 32, &[2, 5, 30, 31], &mut rows, LIMITS)
            .expect("growth simulation succeeds");
        assert_eq!(sim.best_density.to_bits(), run.best_density.to_bits());
        assert_eq!(sim.best_sides()[0].to_vec(), run.best_sides[0].to_vec());
        assert_matches_cold(&sim.trace, &trace);
    }

    #[test]
    fn affected_cap_forces_fallback() {
        let old = random_list(40, 100, GraphKind::Undirected, 77);
        let (new, touched) = mutate(&old, 5, 78);
        let policy = IncPolicy::Threshold { epsilon: 0.5 };
        let view = TraceView::new(cold(policy, &old).1);
        let adj = ListAdjacency::build(&old, &new, old.num_nodes as usize);
        let res = simulate(
            policy,
            &view,
            old.num_nodes as usize,
            &touched,
            &mut RowCache::new(&adj),
            SimLimits {
                max_affected: 0,
                max_restarts: 8,
            },
        );
        let fb = match res {
            Err(fb) => fb,
            Ok(_) => panic!("cap of 0 must force a fallback"),
        };
        assert_eq!(fb.reason, THRESHOLD_REASON);
        // The early-exit bound: the probe stops growing F the moment it
        // crosses the cap, so a threshold fallback reports exactly
        // cap + 1 members no matter how large the delta was.
        assert_eq!(fb.affected, 1);
    }

    #[test]
    fn threshold_fallback_probe_is_bounded_by_the_cap() {
        // A delta touching far more endpoints than the cap admits must
        // bail after exactly cap + 1 seed insertions — O(cap) probe
        // work — not after materializing the whole affected set.
        let old = random_list(400, 1600, GraphKind::Undirected, 21);
        let (new, touched) = mutate(&old, 120, 22);
        assert!(touched.len() > 9, "delta must overflow the cap");
        let policy = IncPolicy::Threshold { epsilon: 0.5 };
        let view = TraceView::new(cold(policy, &old).1);
        let adj = ListAdjacency::build(&old, &new, old.num_nodes as usize);
        for cap in [0usize, 3, 8] {
            let fb = match simulate(
                policy,
                &view,
                old.num_nodes as usize,
                &touched,
                &mut RowCache::new(&adj),
                SimLimits {
                    max_affected: cap,
                    max_restarts: 8,
                },
            ) {
                Err(fb) => fb,
                Ok(_) => panic!("overflowing delta must fall back"),
            };
            assert_eq!(fb.reason, THRESHOLD_REASON);
            assert_eq!(fb.affected, cap + 1);
            assert_eq!(fb.restarts, 0);
        }
    }
}
