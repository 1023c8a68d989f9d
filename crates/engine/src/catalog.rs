//! The graph catalog: load and fingerprint each graph **once**, serve
//! many queries from it — concurrently.
//!
//! Every one-shot CLI invocation used to re-read and re-canonicalize the
//! edge file; the catalog is what makes the long-running serve mode
//! amortize that. An entry caches the canonicalized [`EdgeList`] plus
//! lazily-built CSR snapshots (undirected and directed), keyed by
//! `(path, format, orientation)` — the same file parsed as directed and
//! as undirected canonicalizes differently, so the orientations are
//! distinct entries. A cheap `(file length, mtime)` check revalidates
//! entries on every hit; a changed file is transparently reloaded and
//! re-fingerprinted.
//!
//! ## Concurrency model
//!
//! The catalog is internally synchronized (`Send + Sync`, every method
//! takes `&self`) so one instance can serve a pool of worker threads:
//!
//! * The entry map sits behind an [`RwLock`]; lookups of already-loaded
//!   graphs take only the read lock.
//! * Loads are **single-flight**: each entry owns a [`OnceLock`] cell,
//!   so when two workers request the same cold graph, exactly one runs
//!   the load while the other blocks on the cell and then shares the
//!   result (observable as `loads == 1` in [`CatalogStats`]).
//! * Callers receive `Arc<CatalogEntry>` snapshots. LRU eviction and
//!   stale-file replacement only drop the map's reference — a query
//!   already holding the `Arc` keeps computing on the old snapshot and
//!   is never invalidated mid-flight.
//! * Counters are atomics, surfaced by the serve mode's `stats` op.
//! * A failed load is **not** cached: the slot is removed so the next
//!   request retries (waiters that shared the failure see the same
//!   error once).
//!
//! [`GraphCatalog::stat`] answers the planner's question — how big is
//! this graph? — *without* materializing: the binary header or a text
//! validation scan (O(1) memory), cached per path.
//!
//! ## Versioning and named session graphs
//!
//! The catalog is **versioned**: every snapshot carries a
//! [`CatalogEntry::version`]. File-backed entries stay at version 0 —
//! their identity is the content fingerprint, which already changes
//! whenever the file does. **Named session graphs** ([`NamedGraph`]) are
//! in-memory mutable graphs created and mutated through the catalog
//! ([`GraphCatalog::create_named`], [`GraphCatalog::mutate_named`]):
//! a [`DeltaGraph`] applies the edits and every successful mutation
//! publishes a fresh immutable snapshot under a monotonically
//! increasing, never-reused version. Queries hold `Arc` snapshots
//! exactly like file entries, so a mutation never tears an in-flight
//! query, and the result cache keys on `(fingerprint, version)` so a
//! stale replay is structurally impossible.

// Fx, not SipHash: these maps sit on the per-request serve path (one
// catalog probe per query), the keys are short, and the serve socket is
// a local unix socket with a trusted peer — collision-flooding is not in
// the threat model.
use rustc_hash::FxHashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::SystemTime;

use dsg_graph::delta::DEFAULT_COMPACT_RATIO;
use dsg_graph::io::{read_binary, read_text, scan_text, BinaryHeader};
use dsg_graph::{
    CsrDirected, CsrUndirected, DeltaGraph, EdgeList, GraphError, GraphKind, Result as GraphResult,
};

use dsg_graph::wal::SessionOp;
use std::borrow::Cow;

use crate::error::{EngineError, Result as EngineResult};
use crate::persistence::{Durability, GraphWal, RecoveryStats};
use crate::planner::GraphMeta;

/// A loaded, canonicalized graph with lazily-built CSR snapshots.
pub struct CatalogEntry {
    /// The canonicalized edge list (exactly what the one-shot CLI built).
    pub list: EdgeList,
    /// FNV-1a fingerprint of the raw file bytes at load time (0 for
    /// memory-sourced entries).
    pub fingerprint: u64,
    /// Size/weightedness metadata of the loaded graph.
    pub meta: GraphMeta,
    /// **As-stored** counts of the exact file version this entry was
    /// loaded from (pre-canonicalization, the same accounting
    /// [`GraphCatalog::stat`] reports; equals `meta` for memory
    /// entries). The engine compares this against the meta it planned
    /// from to detect a file edit racing between stat and load — a
    /// mismatched plan must not enter the result cache.
    pub stored_meta: GraphMeta,
    /// `false` when the file's stamp changed *during* the load (between
    /// the parse and the fingerprint), so `list` and `fingerprint` may
    /// describe different file versions: the entry still answers
    /// queries, but its reports must not enter the result cache.
    /// Always `true` for memory entries and undisturbed loads.
    pub cacheable: bool,
    /// Catalog version of this snapshot: 0 for file-backed and memory
    /// entries (files are versioned by content fingerprint), a
    /// monotonically increasing — never reused — counter value for
    /// named session graphs.
    pub version: u64,
    /// Hash of the snapshot's *logical content* (orientation, node
    /// count, edge set). For file entries this is the file fingerprint.
    /// For named graphs it is [`DeltaGraph::content_hash`]: a multiset
    /// hash the graph keeps per applied edge, so publishing a version
    /// costs O(1) here, not a pass over the edges. Equal content gives an
    /// equal hash whatever history reached it (a compact, an add undone
    /// by a remove) — the warm-restart replay check. A collision between
    /// different contents is caught by the engine's `verify_candidate`,
    /// which re-scores the stored answer before replaying it.
    pub content_hash: u64,
    /// Epoch of the owning named graph's mutation journal when this
    /// snapshot was published (0 for file/memory entries). An
    /// incremental seed is only replayable against a snapshot of the
    /// same epoch — a journal truncation bumps it, invalidating every
    /// position taken before.
    pub journal_epoch: u64,
    /// Journal length (op count) when this snapshot was published
    /// (0 for file/memory entries): the ops in `pos_a..pos_b` are
    /// exactly the logical edge edits between snapshots `a` and `b` of
    /// the same epoch.
    pub journal_pos: u64,
    csr_undirected: OnceLock<Arc<CsrUndirected>>,
    csr_directed: OnceLock<Arc<CsrDirected>>,
}

impl CatalogEntry {
    /// Wraps an already-canonicalized list (memory sources, tests).
    pub fn from_list(list: EdgeList, file_bytes: u64, fingerprint: u64) -> Self {
        let meta = GraphMeta {
            nodes: list.num_nodes as u64,
            edges: list.num_edges() as u64,
            weighted: list.is_weighted(),
            file_bytes,
        };
        CatalogEntry {
            list,
            fingerprint,
            meta,
            stored_meta: meta,
            cacheable: true,
            version: 0,
            content_hash: fingerprint,
            journal_epoch: 0,
            journal_pos: 0,
            csr_undirected: OnceLock::new(),
            csr_directed: OnceLock::new(),
        }
    }

    /// The undirected CSR snapshot, built on first use and cached.
    /// `OnceLock` makes the build single-flight too: concurrent callers
    /// block until the one builder finishes, then share the `Arc`.
    pub fn csr_undirected(&self) -> Arc<CsrUndirected> {
        self.csr_undirected
            .get_or_init(|| Arc::new(CsrUndirected::from_edge_list(&self.list)))
            .clone()
    }

    /// The directed CSR snapshot, built on first use and cached.
    pub fn csr_directed(&self) -> Arc<CsrDirected> {
        self.csr_directed
            .get_or_init(|| Arc::new(CsrDirected::from_edge_list(&self.list)))
            .clone()
    }
}

/// FNV-1a offset basis / prime — the one definition of FNV-1a in this
/// crate: file fingerprints and graph names here, WAL record and
/// snapshot checksums in `persistence`, shard routing in `shard`.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds bytes into a running FNV-1a state.
pub(crate) fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over a byte sequence.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Cap on retained mutation-journal ops. Crossing it clears the log and
/// bumps the epoch, so incremental seeds holding positions into the old
/// epoch fall back to a warm re-peel instead of replaying garbage.
const MAX_JOURNAL_OPS: usize = 65_536;

/// The mutation journal of a named graph: the logical edge edits
/// (`(is_add, u, v)`, as requested — no-op edits are harmless on
/// replay) applied since the journal's current epoch began. Snapshots
/// record their `(epoch, position)` at publish, so the engine's
/// incremental tier can recover the exact delta between any two
/// same-epoch snapshots without diffing edge lists.
struct Journal {
    epoch: u64,
    ops: Vec<(bool, u32, u32)>,
}

/// A named, **mutable** session graph: a [`DeltaGraph`] guarded by a
/// mutex (mutations are serialized per graph) plus the current immutable
/// [`CatalogEntry`] snapshot behind an `RwLock` swap. Queries clone the
/// snapshot `Arc` and compute on frozen state — exactly the model
/// file-backed entries use — so a mutation landing mid-query never
/// tears anything: the query finishes on the version it started on, and
/// the next query sees the new version atomically.
pub struct NamedGraph {
    name: String,
    /// FNV-1a of the name: the stable identity across versions (the
    /// `fingerprint` half of the result cache's `(fingerprint, version)`
    /// key; snapshots additionally carry a per-version content hash).
    fingerprint: u64,
    state: Mutex<DeltaGraph>,
    snapshot: RwLock<Arc<CatalogEntry>>,
    last_used: AtomicU64,
    warm_hits: AtomicU64,
    /// Mutation journal (see [`Journal`]). Lock order: taken while
    /// holding `state` (a leaf — never held across another
    /// acquisition).
    journal: Mutex<Journal>,
    incremental_hits: AtomicU64,
    incremental_fallbacks: AtomicU64,
    /// The graph's WAL append handle when the catalog has a data dir
    /// (`None` for purely in-memory sessions). Lock order: taken while
    /// holding `state` — mutate appends *before* it publishes — and
    /// never held across another acquisition (a leaf, like `journal`).
    wal: Mutex<Option<GraphWal>>,
    /// WAL records replayed to rebuild this graph at startup (0 unless
    /// the graph was recovered from disk). Fixed at construction.
    replayed_ops: u64,
    /// 1 if recovery dropped a torn/corrupt WAL tail for this graph.
    dropped_tail_records: u64,
}

impl NamedGraph {
    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name's FNV-1a fingerprint (stable across versions).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The current immutable snapshot.
    pub fn snapshot(&self) -> Arc<CatalogEntry> {
        self.snapshot
            .read()
            .expect("named graph lock poisoned")
            .clone()
    }

    /// Records a warm-restart replay/re-peel on this graph.
    pub fn record_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query answered by the incremental tier.
    pub fn record_incremental_hit(&self) {
        self.incremental_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an incremental attempt that fell back (affected set too
    /// large, stale journal, simulation gave up, …).
    pub fn record_incremental_fallback(&self) {
        self.incremental_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// The journal ops in `from..to` of `epoch`, or `None` when the
    /// journal has moved past them (epoch bumped, or the range is not
    /// a prefix-consistent window of the current log).
    pub(crate) fn journal_ops(
        &self,
        epoch: u64,
        from: u64,
        to: u64,
    ) -> Option<Vec<(bool, u32, u32)>> {
        let journal = self.journal.lock().expect("named graph lock poisoned");
        if journal.epoch != epoch || from > to || to > journal.ops.len() as u64 {
            return None;
        }
        Some(journal.ops[from as usize..to as usize].to_vec())
    }

    /// Point-in-time counters for the serve mode's `stats` op.
    pub fn stats(&self) -> NamedGraphStats {
        let (delta_edges, compactions) = {
            let state = self.state.lock().expect("named graph lock poisoned");
            (state.delta_edges() as u64, state.compactions())
        };
        let wal = {
            let wal = self.wal.lock().expect("named graph lock poisoned");
            wal.as_ref().map(|w| w.wal_stats()).unwrap_or_default()
        };
        let snap = self.snapshot();
        NamedGraphStats {
            name: self.name.clone(),
            version: snap.version,
            nodes: snap.meta.nodes,
            edges: snap.meta.edges,
            delta_edges,
            compactions,
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_fallbacks: 0,
            incremental_hits: self.incremental_hits.load(Ordering::Relaxed),
            incremental_fallbacks: self.incremental_fallbacks.load(Ordering::Relaxed),
            wal_bytes: wal.wal_bytes,
            snapshot_version: wal.snapshot_version,
            last_fsync: wal.last_fsync,
            replayed_ops: self.replayed_ops,
            dropped_tail_records: self.dropped_tail_records,
        }
    }
}

/// Per-graph accounting surfaced by the serve mode's `stats` op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedGraphStats {
    /// Graph name.
    pub name: String,
    /// Current catalog version.
    pub version: u64,
    /// Nodes in the current snapshot.
    pub nodes: u64,
    /// Edges in the current snapshot.
    pub edges: u64,
    /// Outstanding (un-compacted) delta log size.
    pub delta_edges: u64,
    /// Times the delta logs were folded into a fresh base.
    pub compactions: u64,
    /// Warm-restart replays/re-peels served on this graph.
    pub warm_hits: u64,
    /// Always 0: every seeded re-peel counts as a warm hit. Kept so the
    /// `stats` schema stays put.
    pub warm_fallbacks: u64,
    /// Queries answered by the incremental tier on this graph.
    pub incremental_hits: u64,
    /// Incremental attempts that fell back to a re-peel on this graph.
    pub incremental_fallbacks: u64,
    /// Bytes currently in the graph's WAL (0 when not durable).
    pub wal_bytes: u64,
    /// Version held by the graph's on-disk snapshot (0 = none yet).
    pub snapshot_version: u64,
    /// WAL records covered by the last fsync (0 when not durable).
    pub last_fsync: u64,
    /// WAL records replayed to rebuild this graph at startup.
    pub replayed_ops: u64,
    /// 1 if recovery dropped a torn/corrupt WAL tail for this graph.
    pub dropped_tail_records: u64,
}

/// One mutation request against a named graph.
#[derive(Clone, Copy, Debug)]
pub enum MutateOp<'a> {
    /// Add a batch of edges (set semantics; duplicates are no-ops).
    Add(&'a [(u32, u32)]),
    /// Remove a batch of edges (absent edges are no-ops).
    Remove(&'a [(u32, u32)]),
    /// Fold the delta logs into a fresh canonical base now.
    Compact,
}

/// What a mutation did, for the serve response and the engine's eager
/// result-cache eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The name's fingerprint (the result cache's invalidation handle).
    pub fingerprint: u64,
    /// Version after the op (unchanged if nothing was applied).
    pub version: u64,
    /// Whether the op changed the graph (and hence bumped the version).
    pub changed: bool,
    /// Edges the op actually applied (0 for pure compactions).
    pub applied: u64,
    /// Node count after the op.
    pub nodes: u64,
    /// Edge count after the op.
    pub edges: u64,
    /// Outstanding delta log size after the op.
    pub delta_edges: u64,
    /// Whether this op compacted the logs (explicitly or because the
    /// delta ratio crossed [`DEFAULT_COMPACT_RATIO`]).
    pub compacted: bool,
}

/// Cache key: one entry per `(path, format, orientation)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    path: PathBuf,
    binary: bool,
    kind: GraphKind,
}

/// `(len, mtime)` snapshot used to revalidate cached entries cheaply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    mtime: Option<SystemTime>,
}

fn stamp(path: &Path) -> GraphResult<FileStamp> {
    let md = std::fs::metadata(path).map_err(GraphError::Io)?;
    Ok(FileStamp {
        len: md.len(),
        mtime: md.modified().ok(),
    })
}

/// FNV-1a over the raw file bytes.
fn fingerprint_file(path: &Path) -> GraphResult<u64> {
    let mut f = File::open(path).map_err(GraphError::Io)?;
    let mut hash = FNV_OFFSET;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf).map_err(GraphError::Io)?;
        if n == 0 {
            break;
        }
        hash = fnv1a_update(hash, &buf[..n]);
    }
    Ok(hash)
}

/// `GraphError` does not implement `Clone` (it wraps `std::io::Error`),
/// but a single-flight load's failure is shared by every waiter. This
/// reconstructs an owned error from the shared one, preserving the
/// variant (and the `io::ErrorKind`) so callers still match on it.
fn clone_graph_error(e: &GraphError) -> GraphError {
    match e {
        GraphError::NodeOutOfRange { node, num_nodes } => GraphError::NodeOutOfRange {
            node: *node,
            num_nodes: *num_nodes,
        },
        GraphError::Io(io) => GraphError::Io(std::io::Error::new(io.kind(), io.to_string())),
        GraphError::Parse { line, msg } => GraphError::Parse {
            line: *line,
            msg: msg.clone(),
        },
        GraphError::Format(msg) => GraphError::Format(msg.clone()),
        GraphError::TooLarge { what, value, max } => GraphError::TooLarge {
            what,
            value: *value,
            max: *max,
        },
    }
}

/// Load/hit counters, surfaced by the serve mode's `stats` op and
/// asserted by the catalog tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Number of times a file was actually read and canonicalized.
    pub loads: u64,
    /// Number of queries answered from a cached entry (including
    /// waiters that shared a single-flight load).
    pub hits: u64,
    /// Number of meta-only stat scans performed.
    pub stat_scans: u64,
    /// Number of entries evicted to respect [`GraphCatalog::set_max_entries`].
    pub evictions: u64,
}

/// Default bound on cached graphs (see [`GraphCatalog::set_max_entries`]).
pub const DEFAULT_MAX_ENTRIES: usize = 32;

/// One slot of the entry map: the revalidation stamp taken *before* the
/// load, an LRU clock reading, and the single-flight cell. The cell
/// holds the load's outcome; `OnceLock` guarantees exactly one caller
/// runs the initializer while concurrent callers block and share it.
struct Slot {
    stamp: FileStamp,
    last_used: AtomicU64,
    cell: OnceLock<Result<Arc<CatalogEntry>, Arc<GraphError>>>,
}

/// The catalog itself: internally synchronized, `Send + Sync`, shared by
/// reference (or `Arc`) across however many worker threads the serve
/// mode runs.
pub struct GraphCatalog {
    entries: RwLock<FxHashMap<Key, Arc<Slot>>>,
    meta_cache: RwLock<FxHashMap<Key, (GraphMeta, FileStamp)>>,
    named: RwLock<FxHashMap<String, Arc<NamedGraph>>>,
    loads: AtomicU64,
    hits: AtomicU64,
    stat_scans: AtomicU64,
    evictions: AtomicU64,
    mutations: AtomicU64,
    clock: AtomicU64,
    max_entries: AtomicUsize,
    /// Monotonic version source for named graphs. Never reused: a graph
    /// re-created under an evicted name continues from here, so a
    /// `(fingerprint, version)` result-cache key can never alias two
    /// different graph states.
    version_counter: AtomicU64,
    /// The durability layer, set at most once by
    /// [`GraphCatalog::open_data_dir`]. `None` = purely in-memory
    /// sessions (the pre-durability behavior, and still the default).
    durability: OnceLock<Durability>,
    /// Total WAL records replayed across all recovered graphs.
    replayed_ops: AtomicU64,
    /// Total torn/corrupt WAL tails dropped across all recovered graphs.
    dropped_tail_records: AtomicU64,
}

impl Default for GraphCatalog {
    fn default() -> Self {
        GraphCatalog {
            entries: RwLock::new(FxHashMap::default()),
            meta_cache: RwLock::new(FxHashMap::default()),
            named: RwLock::new(FxHashMap::default()),
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            stat_scans: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            max_entries: AtomicUsize::new(DEFAULT_MAX_ENTRIES),
            version_counter: AtomicU64::new(0),
            durability: OnceLock::new(),
            replayed_ops: AtomicU64::new(0),
            dropped_tail_records: AtomicU64::new(0),
        }
    }
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the number of cached graphs: loading beyond the bound
    /// evicts the least-recently-used entry, so a long-running server
    /// queried over many distinct files cannot grow without limit
    /// (evicted graphs transparently reload on their next query, and
    /// queries already holding an `Arc` snapshot are unaffected). The
    /// bound is clamped to at least 1; the default is
    /// [`DEFAULT_MAX_ENTRIES`].
    pub fn set_max_entries(&self, max_entries: usize) {
        let bound = max_entries.max(1);
        self.max_entries.store(bound, Ordering::Relaxed);
        {
            let mut map = self.entries.write().expect("catalog lock poisoned");
            while map.len() > bound {
                self.evict_lru(&mut map);
            }
        }
        let mut named = self.named.write().expect("catalog lock poisoned");
        while named.len() > bound {
            self.evict_lru_named(&mut named);
        }
    }

    /// The current entry bound (see [`GraphCatalog::set_max_entries`]) —
    /// read when cloning one catalog's tuning onto another, e.g. when
    /// the sharded server stamps per-shard engines from a template.
    pub fn max_entries(&self) -> usize {
        self.max_entries.load(Ordering::Relaxed)
    }

    fn evict_lru(&self, map: &mut FxHashMap<Key, Arc<Slot>>) {
        if let Some(key) = map
            .iter()
            .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
        {
            map.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn evict_lru_named(&self, map: &mut FxHashMap<String, Arc<NamedGraph>>) {
        if let Some(name) = map
            .iter()
            .min_by_key(|(_, g)| g.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
        {
            map.remove(&name);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counters so far (a consistent-enough snapshot of the atomics).
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            loads: self.loads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            stat_scans: self.stat_scans.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct graphs currently cached.
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock poisoned").len()
    }

    /// Whether no graph is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry **including named session graphs**
    /// (counters are kept). In-flight queries holding `Arc` snapshots
    /// keep them; named graphs are gone for good — there is no file to
    /// reload them from.
    pub fn clear(&self) {
        self.entries.write().expect("catalog lock poisoned").clear();
        self.meta_cache
            .write()
            .expect("catalog lock poisoned")
            .clear();
        self.named.write().expect("catalog lock poisoned").clear();
    }

    /// Returns the cached graph for `(path, binary, kind)`, loading,
    /// canonicalizing, and fingerprinting it on first use — exactly the
    /// sequence the one-shot CLI performed, so results are identical.
    /// The second return is `true` on a cache hit (including waiting out
    /// another thread's in-flight load of the same cold graph).
    pub fn get_or_load(
        &self,
        path: &Path,
        binary: bool,
        kind: GraphKind,
    ) -> GraphResult<(Arc<CatalogEntry>, bool)> {
        let key = Key {
            path: path.to_path_buf(),
            binary,
            kind,
        };
        let current = stamp(path)?;
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;

        // Fast path: a slot with a matching stamp under the read lock.
        let cached = {
            let map = self.entries.read().expect("catalog lock poisoned");
            map.get(&key).filter(|s| s.stamp == current).cloned()
        };
        let slot = match cached {
            Some(slot) => slot,
            None => self.install_slot(&key, current),
        };
        slot.last_used.store(now, Ordering::Relaxed);

        // Single-flight: exactly one caller runs the load; concurrent
        // callers block here and then share the cell's outcome.
        let mut loaded_here = false;
        let outcome = slot.cell.get_or_init(|| {
            loaded_here = true;
            match load_entry(path, binary, kind, current) {
                Ok(entry) => {
                    self.loads.fetch_add(1, Ordering::Relaxed);
                    Ok(entry)
                }
                Err(e) => Err(Arc::new(e)),
            }
        });
        match outcome {
            Ok(entry) => {
                if !loaded_here {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok((entry.clone(), !loaded_here))
            }
            Err(e) => {
                // Failed loads are not cached: drop the slot (if it is
                // still this one) so the next request retries.
                if loaded_here {
                    let mut map = self.entries.write().expect("catalog lock poisoned");
                    if map.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                        map.remove(&key);
                    }
                }
                Err(clone_graph_error(e))
            }
        }
    }

    /// Returns the already-loaded, still-fresh entry for `path` without
    /// ever triggering a load: `None` when the path is cold, mid-load,
    /// failed, or its on-disk stamp changed. The serve replay fast path
    /// uses this to answer repeated queries without planning; a `None`
    /// simply falls back to the full [`GraphCatalog::get_or_load`]
    /// path. Counts as a catalog hit (and refreshes the LRU clock) only
    /// through the crate-internal `record_hit`, which the caller
    /// invokes once it actually serves from the peeked entry.
    pub fn peek(&self, path: &Path, binary: bool, kind: GraphKind) -> Option<Arc<CatalogEntry>> {
        let key = Key {
            path: path.to_path_buf(),
            binary,
            kind,
        };
        let current = stamp(path).ok()?;
        let slot = {
            let map = self.entries.read().expect("catalog lock poisoned");
            map.get(&key).filter(|s| s.stamp == current).cloned()
        }?;
        let entry = slot.cell.get()?.as_ref().ok()?.clone();
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
        Some(entry)
    }

    /// Accounts one catalog hit served outside [`Self::get_or_load`]
    /// (the peek-based replay fast path).
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts (or adopts) the slot for `key` at stamp `current` under
    /// the write lock, with the standard double-check: whoever wins the
    /// race installs one slot and everyone else adopts it, so the
    /// single-flight cell is shared.
    fn install_slot(&self, key: &Key, current: FileStamp) -> Arc<Slot> {
        let mut map = self.entries.write().expect("catalog lock poisoned");
        if let Some(existing) = map.get(key) {
            if existing.stamp == current {
                return existing.clone();
            }
        }
        let fresh = Arc::new(Slot {
            stamp: current,
            last_used: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            cell: OnceLock::new(),
        });
        // Replacing a stale entry never needs an eviction; a genuinely
        // new key beyond the bound pushes out the least-recently-used.
        // In-flight queries on a replaced/evicted slot keep their Arc.
        if !map.contains_key(key) && map.len() >= self.max_entries.load(Ordering::Relaxed) {
            self.evict_lru(&mut map);
        }
        map.insert(key.clone(), fresh.clone());
        fresh
    }

    /// Size metadata for planning, **without** materializing the graph:
    /// binary header, or a text validation scan with O(1) memory. Cached
    /// per `(path, format, orientation)` and revalidated by file stamp.
    ///
    /// The counts always describe the file **as stored** — never the
    /// canonicalized in-memory entry — so a plan is a pure function of
    /// the file's content and the policy, independent of what the
    /// catalog happens to hold. (A loaded entry's canonicalized edge
    /// count can be smaller; consulting it here would make the same
    /// query plan differently hot vs cold, and serve-mode results could
    /// then diverge from one-shot runs.)
    pub fn stat(&self, path: &Path, binary: bool) -> GraphResult<GraphMeta> {
        // Node/edge counts and weightedness do not depend on how the
        // edges will be oriented, so there is no orientation parameter:
        // a directed query after an undirected one (or vice versa) is
        // served from the same cached scan.
        let key = Key {
            path: path.to_path_buf(),
            binary,
            kind: GraphKind::Undirected,
        };
        let current = stamp(path)?;
        {
            let cache = self.meta_cache.read().expect("catalog lock poisoned");
            if let Some((meta, cached)) = cache.get(&key) {
                if *cached == current {
                    return Ok(*meta);
                }
            }
        }
        // Scans run without any lock held: two threads racing on the
        // same cold path may both scan (each counted), and the last
        // insert wins — both computed the same answer from the same
        // stamped file.
        self.stat_scans.fetch_add(1, Ordering::Relaxed);
        let (nodes, edges, weighted) = if binary {
            let (header, _) = BinaryHeader::read(path)?;
            (header.num_nodes, header.num_edges, header.weighted)
        } else {
            let scan = scan_text(path)?;
            (scan.num_nodes()?, scan.edges, scan.weighted)
        };
        let meta = GraphMeta {
            nodes: u64::from(nodes),
            edges,
            weighted,
            file_bytes: current.len,
        };
        let mut cache = self.meta_cache.write().expect("catalog lock poisoned");
        // The meta cache holds a few fixed-size words per key; bound it
        // all the same so a server stat-ing endless distinct paths
        // cannot grow without limit.
        if cache.len() >= 4 * self.max_entries.load(Ordering::Relaxed) {
            cache.clear();
        }
        cache.insert(key, (meta, current));
        Ok(meta)
    }

    // ----- named session graphs -------------------------------------

    /// Mutations applied to named graphs so far (ops that changed
    /// nothing are not counted).
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::Relaxed)
    }

    /// Number of named session graphs currently held.
    pub fn named_len(&self) -> usize {
        self.named.read().expect("catalog lock poisoned").len()
    }

    /// Per-graph accounting of every named graph, sorted by name (the
    /// serve mode's `stats` op).
    pub fn named_stats(&self) -> Vec<NamedGraphStats> {
        let graphs: Vec<Arc<NamedGraph>> = {
            let map = self.named.read().expect("catalog lock poisoned");
            map.values().cloned().collect()
        };
        let mut stats: Vec<NamedGraphStats> = graphs.iter().map(|g| g.stats()).collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Builds the immutable snapshot of a named graph's current state.
    /// `journal` is the graph's journal `(epoch, position)` at publish.
    fn named_snapshot(
        fingerprint: u64,
        version: u64,
        delta: &DeltaGraph,
        journal: (u64, u64),
    ) -> Arc<CatalogEntry> {
        let mut entry = CatalogEntry::from_list(delta.materialize(), 0, fingerprint);
        entry.version = version;
        entry.content_hash = delta.content_hash();
        entry.journal_epoch = journal.0;
        entry.journal_pos = journal.1;
        Arc::new(entry)
    }

    /// Creates a named mutable graph (optionally seeded with edges) and
    /// returns its first snapshot. Fails with
    /// [`EngineError::GraphExists`] if the name is taken. Creating
    /// beyond the catalog bound evicts the least-recently-used named
    /// graph — named graphs have no backing file, so eviction is data
    /// loss and a later mutation against the evicted name fails with a
    /// typed error instead of silently dropping the delta.
    pub fn create_named(
        &self,
        name: &str,
        kind: GraphKind,
        edges: &[(u32, u32)],
    ) -> EngineResult<MutationOutcome> {
        if name.is_empty() {
            return Err(EngineError::InvalidQuery(
                "graph name must not be empty".into(),
            ));
        }
        // Cheap early rejection before the O(m) seed build; the
        // authoritative duplicate check re-runs under the write lock
        // below (two racing creates still resolve to one winner).
        if self
            .named
            .read()
            .expect("catalog lock poisoned")
            .contains_key(name)
        {
            return Err(EngineError::GraphExists {
                name: name.to_string(),
            });
        }
        let mut delta = DeltaGraph::new_empty(kind);
        let applied = delta.add_edges(edges)? as u64;
        let compacted = delta.maybe_compact(DEFAULT_COMPACT_RATIO);
        let delta_edges = delta.delta_edges() as u64;
        let fingerprint = fnv1a(name.as_bytes());
        let version = self.version_counter.fetch_add(1, Ordering::Relaxed) + 1;
        // The seed edges are part of the v1 base; the journal starts
        // empty at epoch 1 (epoch 0 is reserved for file/memory
        // entries, which have no journal at all).
        let snapshot = Self::named_snapshot(fingerprint, version, &delta, (1, 0));
        let outcome = MutationOutcome {
            fingerprint,
            version,
            changed: true,
            applied,
            nodes: snapshot.meta.nodes,
            edges: snapshot.meta.edges,
            delta_edges,
            compacted,
        };
        let mut map = self.named.write().expect("catalog lock poisoned");
        if map.contains_key(name) {
            return Err(EngineError::GraphExists {
                name: name.to_string(),
            });
        }
        // Durable create: reset the graph's directory and write the
        // create record **before** the name is published in the map, so
        // a crash in between recovers to "the graph does not exist" —
        // exactly the pre-op state of an unacknowledged create. This
        // runs under the map write lock (creates are rare; the I/O is
        // one small record) so two racing creates can never both wipe
        // and write the same directory; no other lock is acquired.
        let wal = match self.durability.get() {
            Some(d) => {
                let mut w = d.create_graph_wal(name)?;
                w.append(
                    version,
                    &SessionOp::Create {
                        kind,
                        edges: Cow::Borrowed(edges),
                    },
                    &delta,
                )?;
                Some(w)
            }
            None => None,
        };
        let graph = Arc::new(NamedGraph {
            name: name.to_string(),
            fingerprint,
            state: Mutex::new(delta),
            snapshot: RwLock::new(snapshot),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
            warm_hits: AtomicU64::new(0),
            journal: Mutex::new(Journal {
                epoch: 1,
                ops: Vec::new(),
            }),
            incremental_hits: AtomicU64::new(0),
            incremental_fallbacks: AtomicU64::new(0),
            wal: Mutex::new(wal),
            replayed_ops: 0,
            dropped_tail_records: 0,
        });
        if map.len() >= self.max_entries.load(Ordering::Relaxed) {
            self.evict_lru_named(&mut map);
        }
        map.insert(name.to_string(), graph);
        Ok(outcome)
    }

    /// Looks a named graph up, returning the handle and its current
    /// snapshot (and touching the LRU clock). `None` if the name was
    /// never created or has been evicted.
    pub fn get_named(&self, name: &str) -> Option<(Arc<NamedGraph>, Arc<CatalogEntry>)> {
        let graph = {
            let map = self.named.read().expect("catalog lock poisoned");
            map.get(name).cloned()
        }?;
        graph.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let snapshot = graph.snapshot();
        Some((graph, snapshot))
    }

    /// Applies one mutation to a named graph, atomically publishing a
    /// new versioned snapshot. Concurrent mutations on the same graph
    /// serialize on its mutex; queries keep reading the old snapshot
    /// `Arc` until the swap and the new one after — never a torn state.
    ///
    /// **Eviction race:** if the graph is evicted (or evicted and
    /// re-created) between lookup and publication, the delta must not be
    /// silently dropped. The publication step re-checks, under the map
    /// lock, that the map still holds *this* graph object; if not, the
    /// op fails with [`EngineError::StaleGraph`] and no live state was
    /// changed (the orphaned object the delta was applied to is
    /// unreachable and dies with the last query holding it).
    pub fn mutate_named(&self, name: &str, op: MutateOp<'_>) -> EngineResult<MutationOutcome> {
        let graph = {
            let map = self.named.read().expect("catalog lock poisoned");
            map.get(name).cloned()
        }
        .ok_or_else(|| EngineError::UnknownGraph {
            name: name.to_string(),
        })?;
        graph.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );

        // Apply under the graph's own mutex (mutations serialize per
        // graph; queries are not blocked — they read the snapshot).
        let mut state = graph.state.lock().expect("named graph lock poisoned");
        let (applied, mut compacted) = match op {
            MutateOp::Add(edges) => (state.add_edges(edges)? as u64, false),
            MutateOp::Remove(edges) => (state.remove_edges(edges) as u64, false),
            MutateOp::Compact => {
                let had_delta = state.delta_edges() > 0;
                if had_delta {
                    state.compact();
                }
                (0, had_delta)
            }
        };
        if matches!(op, MutateOp::Add(_) | MutateOp::Remove(_)) && applied > 0 {
            compacted = state.maybe_compact(DEFAULT_COMPACT_RATIO);
        }
        let changed = applied > 0 || compacted;
        // Journal the logical edit (under the state mutex, so journal
        // positions and published versions advance in lockstep). The
        // whole requested batch is recorded — no-op edits replay as
        // no-ops — and only ops that changed content move the position,
        // so `content unchanged ⇒ position unchanged` holds (a pure
        // compact publishes a new version at the same position).
        let journal_mark = {
            let mut journal = graph.journal.lock().expect("named graph lock poisoned");
            if applied > 0 {
                let add = matches!(op, MutateOp::Add(_));
                if let MutateOp::Add(edges) | MutateOp::Remove(edges) = op {
                    if journal.ops.len() + edges.len() > MAX_JOURNAL_OPS {
                        journal.epoch += 1;
                        journal.ops.clear();
                    }
                    journal.ops.extend(edges.iter().map(|&(u, v)| (add, u, v)));
                }
            }
            (journal.epoch, journal.ops.len() as u64)
        };
        let old = graph.snapshot();
        let snapshot = if changed {
            let version = self.version_counter.fetch_add(1, Ordering::Relaxed) + 1;
            // Durability: append **before** publish, still under the
            // state mutex. A crash after the append replays to exactly
            // this version on restart (post-op); a crash before it
            // recovers the previous version (pre-op) — never a hybrid.
            // The wal guard is a leaf: nothing else is acquired while
            // it is held. On an append error the op is reported failed
            // while the in-memory delta already holds it — the next
            // successful mutation's record covers both (records carry
            // the full requested batch; set semantics make replaying a
            // partially-acknowledged batch converge to the same graph).
            {
                let mut wal = graph.wal.lock().expect("named graph lock poisoned");
                if let Some(w) = wal.as_mut() {
                    let rec = match op {
                        MutateOp::Add(edges) => SessionOp::Add(Cow::Borrowed(edges)),
                        MutateOp::Remove(edges) => SessionOp::Remove(Cow::Borrowed(edges)),
                        MutateOp::Compact => SessionOp::Compact,
                    };
                    w.append(version, &rec, &state)?;
                }
            }
            let snapshot = Self::named_snapshot(graph.fingerprint, version, &state, journal_mark);
            *graph.snapshot.write().expect("named graph lock poisoned") = snapshot.clone();
            self.mutations.fetch_add(1, Ordering::Relaxed);
            snapshot
        } else {
            old
        };
        let delta_edges = state.delta_edges() as u64;
        // Keep the state mutex held through the publication check: a
        // concurrent mutation on the same graph cannot interleave, so
        // "the map still points at this object" really does mean this
        // op's snapshot is the published one.
        let still_live = {
            let map = self.named.read().expect("catalog lock poisoned");
            map.get(name).is_some_and(|g| Arc::ptr_eq(g, &graph))
        };
        drop(state);
        if !still_live {
            return Err(EngineError::StaleGraph {
                name: name.to_string(),
            });
        }
        Ok(MutationOutcome {
            fingerprint: graph.fingerprint,
            version: snapshot.version,
            changed,
            applied,
            nodes: snapshot.meta.nodes,
            edges: snapshot.meta.edges,
            delta_edges,
            compacted,
        })
    }

    /// Opens a data directory, making every named session graph durable:
    /// existing graphs are recovered (snapshot first, then WAL replay,
    /// torn tails dropped by checksum) and inserted into the catalog at
    /// the exact versions they crashed at, the version counter is
    /// raised past the highest recovered version (versions never
    /// regress across restarts — the result cache and warm seeds assume
    /// it), and every graph created afterwards gets its own WAL.
    ///
    /// Call once, at startup, before serving; a second call fails. The
    /// serve layer passes a **per-shard** subdirectory so no two engines
    /// share files. `fsync_every` = 0 disables explicit fsync;
    /// `snapshot_every` is clamped ≥ 1.
    pub fn open_data_dir(
        &self,
        dir: &Path,
        fsync_every: u64,
        snapshot_every: u64,
    ) -> EngineResult<RecoveryStats> {
        if self.durability.get().is_some() {
            return Err(EngineError::Persistence(
                "data dir already open for this catalog".into(),
            ));
        }
        let durability = Durability::open(dir, fsync_every, snapshot_every.max(1))?;
        let recovered = durability.recover()?;
        let mut stats = RecoveryStats::default();
        {
            let mut map = self.named.write().expect("catalog lock poisoned");
            for g in recovered {
                stats.graphs += 1;
                stats.replayed_ops += g.replayed_ops;
                stats.dropped_tail_records += g.dropped_tail_records;
                stats.max_version = stats.max_version.max(g.version);
                let fingerprint = fnv1a(g.name.as_bytes());
                // Fresh journal at epoch 1 (same as a new create): any
                // incremental seed from the previous process is gone
                // with that process, so nothing can hold positions into
                // the discarded journal.
                let snapshot = Self::named_snapshot(fingerprint, g.version, &g.state, (1, 0));
                let graph = Arc::new(NamedGraph {
                    name: g.name.clone(),
                    fingerprint,
                    state: Mutex::new(g.state),
                    snapshot: RwLock::new(snapshot),
                    last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
                    warm_hits: AtomicU64::new(0),
                    journal: Mutex::new(Journal {
                        epoch: 1,
                        ops: Vec::new(),
                    }),
                    incremental_hits: AtomicU64::new(0),
                    incremental_fallbacks: AtomicU64::new(0),
                    wal: Mutex::new(Some(g.wal)),
                    replayed_ops: g.replayed_ops,
                    dropped_tail_records: g.dropped_tail_records,
                });
                map.insert(g.name, graph);
            }
            let bound = self.max_entries.load(Ordering::Relaxed);
            while map.len() > bound {
                self.evict_lru_named(&mut map);
            }
        }
        self.version_counter
            .fetch_max(stats.max_version, Ordering::Relaxed);
        self.replayed_ops
            .fetch_add(stats.replayed_ops, Ordering::Relaxed);
        self.dropped_tail_records
            .fetch_add(stats.dropped_tail_records, Ordering::Relaxed);
        self.durability.set(durability).map_err(|_| {
            EngineError::Persistence("data dir already open for this catalog".into())
        })?;
        Ok(stats)
    }

    /// Whether this catalog persists sessions (a data dir is open).
    pub fn is_durable(&self) -> bool {
        self.durability.get().is_some()
    }

    /// `(replayed_ops, dropped_tail_records)` totals from startup
    /// recovery — the serve `stats` op's flat recovery counters.
    pub fn recovery_counters(&self) -> (u64, u64) {
        (
            self.replayed_ops.load(Ordering::Relaxed),
            self.dropped_tail_records.load(Ordering::Relaxed),
        )
    }
}

/// The load sequence: read, orient, canonicalize, fingerprint. Runs at
/// most once per `(key, stamp)` thanks to the slot's `OnceLock`.
///
/// The parse and the fingerprint are two separate reads of the file, so
/// an edit landing between them would pair one version's edges with the
/// other version's hash. The stamp is re-taken afterwards to detect
/// that: a changed stamp marks the entry `cacheable = false`, so it can
/// still answer queries (some consistent-enough version of the file)
/// but its reports never enter the result cache under a fingerprint
/// that may describe different bytes.
fn load_entry(
    path: &Path,
    binary: bool,
    kind: GraphKind,
    before: FileStamp,
) -> GraphResult<Arc<CatalogEntry>> {
    let mut list = if binary {
        read_binary(path)?
    } else {
        read_text(path, kind)?
    };
    // As-stored accounting of exactly the bytes just read — the same
    // numbers `stat` reports for this file version (`read_text` and
    // `scan_text` run one record loop and one `max id + 1` rule; binary
    // counts come from the header).
    let stored_meta = GraphMeta {
        nodes: list.num_nodes as u64,
        edges: list.num_edges() as u64,
        weighted: list.is_weighted(),
        file_bytes: before.len,
    };
    list.kind = kind;
    list.canonicalize();
    let fingerprint = fingerprint_file(path)?;
    let after = stamp(path)?;
    let mut entry = CatalogEntry::from_list(list, before.len, fingerprint);
    entry.stored_meta = stored_meta;
    entry.cacheable = after == before;
    Ok(Arc::new(entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dsg_engine_catalog_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn loads_once_and_serves_hits() {
        let path = fixture("hits.txt", "0 1\n1 2\n2 0\n");
        let cat = GraphCatalog::new();
        let (a, hit_a) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        let (b, hit_b) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        assert!(!hit_a && hit_b);
        assert_eq!(cat.stats().loads, 1);
        assert_eq!(cat.stats().hits, 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(Arc::ptr_eq(&a, &b));
        // The CSR is built once and shared.
        assert!(Arc::ptr_eq(&a.csr_undirected(), &b.csr_undirected()));
    }

    #[test]
    fn orientations_are_distinct_entries() {
        let path = fixture("orient.txt", "0 1\n1 0\n");
        let cat = GraphCatalog::new();
        let (und, _) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        let (dir, _) = cat.get_or_load(&path, false, GraphKind::Directed).unwrap();
        assert_eq!(cat.stats().loads, 2);
        // Canonicalization dedupes the undirected pair but keeps both arcs.
        assert_eq!(und.list.num_edges(), 1);
        assert_eq!(dir.list.num_edges(), 2);
    }

    #[test]
    fn changed_file_is_reloaded() {
        let path = fixture("reload.txt", "0 1\n");
        let cat = GraphCatalog::new();
        let (a, _) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        // Rewrite with different content (and different length, so the
        // stamp check cannot miss it even at mtime granularity).
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let (b, hit) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        assert!(!hit);
        assert_eq!(cat.stats().loads, 2);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(b.list.num_edges(), 2);
    }

    #[test]
    fn stat_is_identical_hot_and_cold() {
        // A duplicate pair: 2 edges as stored, 1 after canonicalization.
        // Planning must see the stored counts whether or not the graph
        // is loaded, or hot serve plans would diverge from cold one-shot
        // plans.
        let path = fixture("hotcold.txt", "0 1\n1 0\n");
        let cat = GraphCatalog::new();
        let cold = cat.stat(&path, false).unwrap();
        assert_eq!(cold.edges, 2);
        let (entry, _) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        assert_eq!(entry.list.num_edges(), 1, "canonicalization dedupes");
        let hot = cat.stat(&path, false).unwrap();
        assert_eq!(cold, hot, "stat must not depend on catalog state");
    }

    #[test]
    fn lru_eviction_bounds_the_catalog() {
        let cat = GraphCatalog::new();
        cat.set_max_entries(2);
        let a = fixture("lru_a.txt", "0 1\n");
        let b = fixture("lru_b.txt", "0 1\n1 2\n");
        let c = fixture("lru_c.txt", "0 1\n1 2\n2 3\n");
        cat.get_or_load(&a, false, GraphKind::Undirected).unwrap();
        cat.get_or_load(&b, false, GraphKind::Undirected).unwrap();
        // Touch `a` so `b` is the least recently used, then overflow.
        cat.get_or_load(&a, false, GraphKind::Undirected).unwrap();
        cat.get_or_load(&c, false, GraphKind::Undirected).unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.stats().evictions, 1);
        // `a` survived (recently used), `b` was evicted and reloads.
        cat.get_or_load(&a, false, GraphKind::Undirected).unwrap();
        assert_eq!(cat.stats().loads, 3, "a still cached");
        cat.get_or_load(&b, false, GraphKind::Undirected).unwrap();
        assert_eq!(cat.stats().loads, 4, "b had to reload");
    }

    #[test]
    fn stat_matches_loaded_meta_without_loading() {
        let path = fixture("stat.txt", "# comment\n0 1\n1 2 2.5\n");
        let cat = GraphCatalog::new();
        let meta = cat.stat(&path, false).unwrap();
        assert_eq!(meta.nodes, 3);
        assert_eq!(meta.edges, 2);
        assert!(meta.weighted);
        assert_eq!(cat.stats().loads, 0);
        assert_eq!(cat.stats().stat_scans, 1);
        // A second stat is served from the cache.
        cat.stat(&path, false).unwrap();
        assert_eq!(cat.stats().stat_scans, 1);
    }

    #[test]
    fn binary_stat_matches_the_loaded_stored_meta() {
        // Header node count 9 exceeds max id + 1 = 4: both sides report
        // the header's count, and the as-stored 3 arcs (the duplicate
        // included) and the weight flag.
        let path = std::env::temp_dir()
            .join("dsg_engine_catalog_tests")
            .join("stat_directed.bin");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut g = EdgeList::new_directed(9);
        g.push_weighted(0, 3, 1.5);
        g.push_weighted(3, 2, 0.25);
        g.push_weighted(0, 3, 1.5);
        dsg_graph::io::write_binary(&path, &g).unwrap();
        let cat = GraphCatalog::new();
        let meta = cat.stat(&path, true).unwrap();
        assert_eq!((meta.nodes, meta.edges, meta.weighted), (9, 3, true));
        let (entry, _) = cat.get_or_load(&path, true, GraphKind::Directed).unwrap();
        assert_eq!(meta, entry.stored_meta);
    }

    #[test]
    fn stat_rejects_a_text_file_naming_u32_max() {
        // `max id + 1` does not fit a u32 node count: the error the load
        // and the stream return, not n = 2^32.
        let path = fixture("stat_huge.txt", &format!("0 {}\n", u32::MAX));
        let cat = GraphCatalog::new();
        assert!(matches!(
            cat.stat(&path, false),
            Err(GraphError::TooLarge { .. })
        ));
        assert!(matches!(
            cat.get_or_load(&path, false, GraphKind::Undirected),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        // WAL and snapshot checksums on disk and shard routing depend on
        // these exact values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn concurrent_cold_requests_load_exactly_once() {
        // The single-flight contract: many threads racing on the same
        // cold graph trigger one load, everyone shares the same Arc.
        let mut body = String::new();
        for u in 0..40u32 {
            for v in (u + 1)..40 {
                body.push_str(&format!("{u} {v}\n"));
            }
        }
        let path = fixture("singleflight.txt", &body);
        let cat = GraphCatalog::new();
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let entries: Vec<Arc<CatalogEntry>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cat.get_or_load(&path, false, GraphKind::Undirected)
                            .unwrap()
                            .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cat.stats().loads, 1, "single-flight: exactly one load");
        assert_eq!(cat.stats().hits, threads as u64 - 1);
        for e in &entries[1..] {
            assert!(Arc::ptr_eq(&entries[0], e), "one shared snapshot");
        }
    }

    #[test]
    fn failed_loads_are_not_cached_and_are_retried() {
        let path = fixture("badload.txt", "0 1\nnot an edge\n");
        let cat = GraphCatalog::new();
        let err = match cat.get_or_load(&path, false, GraphKind::Undirected) {
            Err(e) => e,
            Ok(_) => panic!("loading a malformed file must fail"),
        };
        assert!(matches!(err, GraphError::Parse { .. }), "{err}");
        assert_eq!(cat.len(), 0, "failed slots are dropped");
        // Fixing the file makes the next request succeed.
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let (entry, hit) = cat
            .get_or_load(&path, false, GraphKind::Undirected)
            .unwrap();
        assert!(!hit);
        assert_eq!(entry.list.num_edges(), 2);
    }

    #[test]
    fn named_graph_versions_and_snapshots() {
        let cat = GraphCatalog::new();
        let created = cat
            .create_named("g", GraphKind::Undirected, &[(0, 1), (1, 2)])
            .unwrap();
        assert_eq!(created.version, 1);
        assert_eq!(created.edges, 2);
        assert!(created.changed);
        let (_, snap1) = cat.get_named("g").unwrap();
        assert_eq!(snap1.version, 1);
        assert_eq!(snap1.list.num_edges(), 2);

        // A held snapshot is immutable across mutations.
        let out = cat.mutate_named("g", MutateOp::Add(&[(0, 2)])).unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(out.applied, 1);
        assert_eq!(out.edges, 3);
        assert_eq!(snap1.list.num_edges(), 2, "old snapshot untouched");
        let (_, snap2) = cat.get_named("g").unwrap();
        assert_eq!(snap2.list.num_edges(), 3);
        assert_ne!(snap1.content_hash, snap2.content_hash);

        // No-op mutations do not bump the version.
        let noop = cat.mutate_named("g", MutateOp::Add(&[(0, 1)])).unwrap();
        assert_eq!(noop.version, 2);
        assert!(!noop.changed);
        assert_eq!(cat.mutations(), 1, "no-ops are not mutations");

        // Add-then-remove round trip restores the content hash (the
        // warm-restart replay trigger) at a higher version.
        cat.mutate_named("g", MutateOp::Remove(&[(0, 2)])).unwrap();
        let (_, snap3) = cat.get_named("g").unwrap();
        assert!(snap3.version > snap2.version);
        assert_eq!(snap3.content_hash, snap1.content_hash);

        // Unknown/duplicate names are typed errors.
        assert!(matches!(
            cat.mutate_named("missing", MutateOp::Compact),
            Err(EngineError::UnknownGraph { .. })
        ));
        assert!(matches!(
            cat.create_named("g", GraphKind::Undirected, &[]),
            Err(EngineError::GraphExists { .. })
        ));
    }

    #[test]
    fn named_graphs_auto_compact_past_the_ratio() {
        let cat = GraphCatalog::new();
        cat.create_named(
            "g",
            GraphKind::Undirected,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        // A delta up to the base's size stays in the logs...
        let out = cat
            .mutate_named("g", MutateOp::Add(&[(0, 2), (0, 3), (0, 4), (1, 3)]))
            .unwrap();
        assert!(!out.compacted);
        assert_eq!(out.delta_edges, 4);
        // ...but crossing ratio x base folds them.
        let out = cat.mutate_named("g", MutateOp::Add(&[(1, 4)])).unwrap();
        assert!(out.compacted, "5 delta edges > 1.0 x 4 base edges");
        assert_eq!(out.delta_edges, 0);
        let stats = &cat.named_stats()[0];
        // Two compactions: the seeded create itself (4 delta edges over
        // an empty base) plus the ratio-crossing add above.
        assert_eq!(stats.compactions, 2);
        assert_eq!(stats.edges, 9);
    }

    #[test]
    fn versions_are_never_reused_across_recreation() {
        let cat = GraphCatalog::new();
        cat.set_max_entries(1);
        cat.create_named("a", GraphKind::Undirected, &[(0, 1)])
            .unwrap();
        cat.mutate_named("a", MutateOp::Add(&[(1, 2)])).unwrap();
        // Evict `a` by creating `b`, then re-create `a`: its first
        // version must be beyond every version the old `a` ever had.
        cat.create_named("b", GraphKind::Undirected, &[]).unwrap();
        assert!(cat.get_named("a").is_none(), "a was evicted");
        let recreated = cat.create_named("a", GraphKind::Undirected, &[]).unwrap();
        assert!(recreated.version > 2, "got {}", recreated.version);
    }

    #[test]
    fn eviction_racing_mutation_never_silently_drops_the_delta() {
        // The PR-5 companion to the single-flight test: 8 threads mutate
        // one named graph while the main thread evicts it mid-flight by
        // overflowing the bound. Every add_edges call must either (a)
        // succeed — its edge is in the final graph reachable under the
        // name at the moment of success — or (b) fail with a typed
        // stale/unknown-graph error. What must never happen is an Ok
        // whose edge is missing from the graph the op applied to.
        let threads = 8u32;
        for round in 0..8 {
            let cat = GraphCatalog::new();
            cat.set_max_entries(2);
            cat.create_named("target", GraphKind::Undirected, &[(0, 1)])
                .unwrap();
            let barrier = std::sync::Barrier::new(threads as usize + 1);
            let results: Vec<Result<u32, EngineError>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|i| {
                        let (cat, barrier) = (&cat, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            // Distinct edge per thread, identifiable in
                            // the survivor graph.
                            let edge = (100 + i, 200 + i);
                            cat.mutate_named("target", MutateOp::Add(&[edge]))
                                .map(|out| {
                                    assert!(out.changed);
                                    i
                                })
                        })
                    })
                    .collect();
                barrier.wait();
                // Race the mutators: evict "target" by overflowing the
                // 2-graph bound with fresh names.
                for j in 0..3 {
                    let _ = cat.create_named(
                        &format!("filler_{round}_{j}"),
                        GraphKind::Undirected,
                        &[],
                    );
                }
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // Whatever survived under the name (possibly nothing) tells
            // us which successes must be visible.
            let survivor = cat.get_named("target").map(|(_, e)| e);
            for result in results {
                match result {
                    Ok(i) => {
                        if let Some(entry) = &survivor {
                            assert!(
                                entry.list.edges.contains(&(100 + i, 200 + i)),
                                "round {round}: thread {i} reported success but its edge \
                                 is missing from the live graph"
                            );
                        }
                        // If the whole graph was evicted afterwards, the
                        // op still applied to the then-live entry; the
                        // loss is the (documented) whole-graph eviction,
                        // not a silent per-delta drop.
                    }
                    Err(EngineError::StaleGraph { .. } | EngineError::UnknownGraph { .. }) => {}
                    Err(other) => panic!("round {round}: untyped failure: {other}"),
                }
            }
        }
    }

    #[test]
    fn eviction_never_invalidates_a_held_snapshot() {
        let cat = GraphCatalog::new();
        cat.set_max_entries(1);
        let a = fixture("held_a.txt", "0 1\n1 2\n");
        let b = fixture("held_b.txt", "0 1\n");
        let (held, _) = cat.get_or_load(&a, false, GraphKind::Undirected).unwrap();
        let csr = held.csr_undirected();
        // Loading `b` evicts `a` from the map...
        cat.get_or_load(&b, false, GraphKind::Undirected).unwrap();
        assert_eq!(cat.stats().evictions, 1);
        // ...but the held snapshot (and its CSR) is untouched.
        assert_eq!(held.list.num_edges(), 2);
        assert_eq!(csr.num_nodes(), 3);
    }
}
