//! The query result cache: completed [`Report`]s keyed by *what was
//! computed over which bytes* — `(graph identity, canonical query,
//! effective resource policy)` — with byte-budgeted LRU eviction.
//!
//! The FOCUS-style observation (see PAPERS.md) is that analytical
//! query traffic is heavily repeated: the same densest-subgraph query
//! over the same graph arrives again and again from many clients. The
//! graph catalog removes the *load* from that path; this cache removes
//! the *computation*. A hit replays the stored report byte-for-byte
//! (minus the nondeterministic `elapsed_ms`), which is sound because
//! every cached backend is deterministic for a fixed key:
//!
//! * The **graph identity** ([`GraphId`]) covers both graph worlds. For
//!   file-backed graphs the fingerprint is the FNV-1a hash of the raw
//!   file bytes taken at load time by the catalog (version fixed at 0),
//!   so editing the file changes the key and stale results simply stop
//!   being referenced — invalidation is structural, not epochal — and
//!   age out of the LRU. For named session graphs the fingerprint names
//!   the graph and the catalog's **monotonic version** names its state:
//!   a mutation bumps the version, so a replay of a stale version is
//!   structurally impossible, and the engine additionally evicts the
//!   now-unreachable old-version entries eagerly
//!   ([`ResultCache::evict_stale_versions`]) so mutated graphs do not
//!   pin dead reports until LRU pressure finds them.
//! * The **canonical query** flattens every algorithm parameter to bit
//!   patterns (`f64::to_bits`), so `0.5` and `0.5` can never disagree
//!   and NaN params (rejected upstream anyway) would never alias.
//! * The **effective policy** (budget, threads) participates because the
//!   plan — its backend, its reasons and the MapReduce worker count — is
//!   a function of it; the same query under a different policy may
//!   legitimately take a different backend.
//!
//! Only *materialized, file-backed* runs are cached: memory sources have
//! no fingerprint, and the out-of-core streamed backends exist precisely
//! because memory is scarce — their reports are cheap to recompute
//! relative to holding them, and caching them would require hashing the
//! file without loading it. The engine documents the same contract.

// Fx, not SipHash: the result map is probed once per served query and
// `CacheKey` hashes several words; the serve socket is a local unix
// socket with a trusted peer, so collision flooding is not a concern.
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dsg_flow::FlowBackend;
use dsg_graph::GraphKind;

use crate::query::{Algorithm, BackendRequest, Query, ResourcePolicy};
use crate::report::{Outcome, Report};

/// Default byte budget for cached reports (64 MiB).
pub const DEFAULT_RESULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// The identity of one graph state: which bytes, at which version.
///
/// File-backed graphs are identified by their content fingerprint alone
/// (`named = false`, `version = 0` — a file "mutates" by changing its
/// fingerprint). Named session graphs are identified by the name's
/// fingerprint plus the catalog's monotonically increasing version,
/// which is never reused — not even across eviction and re-creation of
/// the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphId {
    /// FNV-1a fingerprint: file bytes, or the graph name for sessions.
    pub fingerprint: u64,
    /// `true` for named session graphs (separate keyspace from files).
    pub named: bool,
    /// Catalog version of the graph state (0 for files).
    pub version: u64,
}

impl GraphId {
    /// Identity of a file-backed graph state.
    pub fn file(fingerprint: u64) -> Self {
        GraphId {
            fingerprint,
            named: false,
            version: 0,
        }
    }

    /// Identity of a named session graph at a catalog version.
    pub fn named(fingerprint: u64, version: u64) -> Self {
        GraphId {
            fingerprint,
            named: true,
            version,
        }
    }
}

/// Canonical, hashable form of one cacheable execution:
/// `(graph identity, orientation, query bits, policy)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    graph: GraphId,
    kind: GraphKind,
    algorithm: AlgorithmKey,
    backend: Option<BackendRequest>,
    memory_budget_bytes: Option<u64>,
    threads: usize,
}

/// [`Algorithm`] with every float flattened to its bit pattern so the
/// key is `Eq + Hash`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum AlgorithmKey {
    Approx {
        epsilon: u64,
        sketch: Option<u32>,
    },
    AtLeastK {
        k: usize,
        epsilon: u64,
    },
    Directed {
        delta: u64,
        epsilon: u64,
    },
    Charikar,
    Exact {
        push_relabel: bool,
    },
    Enumerate {
        epsilon: u64,
        min_density: u64,
        max_communities: usize,
    },
}

impl CacheKey {
    /// Builds the key for a materialized run of `query` under `policy`
    /// over the graph state identified by `graph`, oriented as `kind`.
    pub fn new(graph: GraphId, kind: GraphKind, query: &Query, policy: &ResourcePolicy) -> Self {
        let algorithm = match query.algorithm {
            Algorithm::Approx { epsilon, sketch } => AlgorithmKey::Approx {
                epsilon: epsilon.to_bits(),
                sketch,
            },
            Algorithm::AtLeastK { k, epsilon } => AlgorithmKey::AtLeastK {
                k,
                epsilon: epsilon.to_bits(),
            },
            Algorithm::Directed { delta, epsilon } => AlgorithmKey::Directed {
                delta: delta.to_bits(),
                epsilon: epsilon.to_bits(),
            },
            Algorithm::Charikar => AlgorithmKey::Charikar,
            Algorithm::Exact { flow } => AlgorithmKey::Exact {
                push_relabel: matches!(flow, FlowBackend::PushRelabel),
            },
            Algorithm::Enumerate {
                epsilon,
                min_density,
                max_communities,
            } => AlgorithmKey::Enumerate {
                epsilon: epsilon.to_bits(),
                min_density: min_density.to_bits(),
                max_communities,
            },
        };
        CacheKey {
            graph,
            kind,
            algorithm,
            backend: query.backend,
            memory_budget_bytes: policy.memory_budget_bytes,
            threads: policy.threads,
        }
    }

    /// The same key with the graph version zeroed — the engine's
    /// warm-seed index, which tracks "this query over this graph, at
    /// whatever version last ran".
    pub fn versionless(&self) -> CacheKey {
        let mut key = self.clone();
        key.graph.version = 0;
        key
    }

    /// The graph-identity half of the key.
    pub fn graph(&self) -> GraphId {
        self.graph
    }
}

/// Hit/miss/eviction counters, surfaced by the serve mode's `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the run was computed and, if it fit, stored).
    pub misses: u64,
    /// Reports stored.
    pub insertions: u64,
    /// Reports evicted to respect the byte budget.
    pub evictions: u64,
    /// Reports currently held.
    pub entries: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
}

struct CachedReport {
    report: std::sync::Arc<Report>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    map: FxHashMap<CacheKey, CachedReport>,
    total_bytes: u64,
    clock: u64,
}

/// The cache itself: a byte-budgeted LRU map behind a [`Mutex`], plus
/// atomic counters (and the budget) readable without the lock. Reports
/// are held as `Arc`s and every deep clone — storing a report, patching
/// a replay — happens *outside* the lock, so the critical sections are
/// map operations only (a few microseconds) and a pool of workers
/// replaying a large hot result does not serialize on its memcpy.
pub struct ResultCache {
    inner: Mutex<Inner>,
    /// Per-fingerprint version floors recorded by
    /// [`ResultCache::evict_stale_versions`]: a named-graph insert below
    /// its fingerprint's floor is rejected, so a query that resolved an
    /// old version and finished *after* the mutation's eager eviction
    /// cannot re-pin an unreachable entry. Bounded; losing floors only
    /// degrades to ordinary LRU reclamation.
    floors: Mutex<FxHashMap<u64, u64>>,
    budget_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_budget(DEFAULT_RESULT_CACHE_BYTES)
    }
}

impl ResultCache {
    /// A cache bounded at `budget_bytes` of estimated report payload.
    /// A budget of 0 disables caching (every lookup misses, nothing is
    /// stored).
    pub fn with_budget(budget_bytes: u64) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                total_bytes: 0,
                clock: 0,
            }),
            floors: Mutex::new(FxHashMap::default()),
            budget_bytes: AtomicU64::new(budget_bytes),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Re-bounds the cache, evicting LRU entries if the new budget is
    /// smaller than the current payload.
    pub fn set_budget(&self, budget_bytes: u64) {
        self.budget_bytes.store(budget_bytes, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("result cache lock poisoned");
        let evicted = inner.evict_to_fit(0, budget_bytes);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// The current byte budget (see [`ResultCache::set_budget`]) — read
    /// when cloning one cache's tuning onto another, e.g. when the
    /// sharded server stamps per-shard engines from a template.
    pub fn budget(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Counters so far.
    pub fn stats(&self) -> ResultCacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock().expect("result cache lock poisoned");
            (inner.map.len() as u64, inner.total_bytes)
        };
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Looks `key` up, returning a replay of the stored report: the
    /// clone is byte-identical to the cold run except `elapsed_ms`
    /// (stamped by the caller) and the `source_label`, which is reset to
    /// the *requesting* source so two paths with identical bytes each
    /// see their own path echoed.
    pub fn lookup(&self, key: &CacheKey, source_label: &str) -> Option<Report> {
        let stored = self.lookup_shared(key, source_label)?;
        let mut report = (*stored).clone();
        report.result_cache_hit = Some(true);
        Some(report)
    }

    /// Like [`lookup`](Self::lookup), but returns the stored report
    /// *shared* — no deep clone on the steady-state path. The caller
    /// must treat the report as the cached run's verbatim record
    /// (`elapsed_ms`, `cache_hit`, and `result_cache_hit` describe the
    /// cold run, not this request) and carry per-request values
    /// separately; the serve loop does exactly that when assembling a
    /// reply envelope. When `source_label` differs from the stored one,
    /// a patched clone is returned instead so the rendered `file` field
    /// echoes the requesting path.
    pub fn lookup_shared(&self, key: &CacheKey, source_label: &str) -> Option<Arc<Report>> {
        // Only the Arc clone happens under the lock; any deep clone
        // (label aliasing only) runs after it is released.
        let hit = {
            let mut inner = self.inner.lock().expect("result cache lock poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            inner.map.get_mut(key).map(|cached| {
                cached.last_used = clock;
                cached.report.clone()
            })
        };
        match hit {
            Some(stored) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if stored.source_label == source_label {
                    Some(stored)
                } else {
                    // The label is rendered (the `file` field), so a
                    // replay under an aliased path cannot share the
                    // stored report's memoized rendering.
                    let mut report = (*stored).clone();
                    report.source_label = source_label.to_string();
                    report.rendered = Default::default();
                    Some(Arc::new(report))
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Eagerly drops every entry of the named graph `fingerprint` whose
    /// version is below `current_version`. Mutated versions are already
    /// unreachable through lookups (the version is part of the key);
    /// this reclaims their bytes immediately instead of waiting for LRU
    /// pressure. Returns how many entries were dropped (counted as
    /// evictions).
    pub fn evict_stale_versions(&self, fingerprint: u64, current_version: u64) -> u64 {
        {
            // Record the floor first: an insert racing this eviction
            // either lands before (and is evicted below) or after (and
            // is rejected by the floor) — never pinned unreachable.
            let mut floors = self.floors.lock().expect("result cache lock poisoned");
            if floors.len() >= 1024 && !floors.contains_key(&fingerprint) {
                floors.clear();
            }
            let floor = floors.entry(fingerprint).or_insert(0);
            *floor = (*floor).max(current_version);
        }
        let evicted = {
            let mut inner = self.inner.lock().expect("result cache lock poisoned");
            let stale: Vec<CacheKey> = inner
                .map
                .keys()
                .filter(|k| {
                    k.graph.named
                        && k.graph.fingerprint == fingerprint
                        && k.graph.version < current_version
                })
                .cloned()
                .collect();
            let mut evicted = 0u64;
            for key in stale {
                if let Some(old) = inner.map.remove(&key) {
                    inner.total_bytes -= old.bytes;
                    evicted += 1;
                }
            }
            evicted
        };
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Stores a completed report under `key`. Reports larger than the
    /// whole budget are not cached (they would evict everything for one
    /// entry); otherwise LRU entries are evicted until the report fits.
    pub fn insert(&self, key: CacheKey, report: &Report) {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        let bytes = approx_report_bytes(report);
        if bytes > budget {
            return;
        }
        if key.graph.named {
            let floors = self.floors.lock().expect("result cache lock poisoned");
            if floors
                .get(&key.graph.fingerprint)
                .is_some_and(|&floor| key.graph.version < floor)
            {
                // The graph has already mutated past this version; the
                // entry could never be looked up again.
                return;
            }
        }
        // Deep-clone before taking the lock (see the struct docs).
        let stored = std::sync::Arc::new(report.clone());
        let evicted = {
            let mut inner = self.inner.lock().expect("result cache lock poisoned");
            // Discount the entry being replaced *before* deciding what
            // to evict, or a same-size refresh of a hot key at full
            // budget would needlessly flush an unrelated LRU entry.
            if let Some(prev) = inner.map.remove(&key) {
                inner.total_bytes -= prev.bytes;
            }
            let evicted = inner.evict_to_fit(bytes, budget);
            inner.clock += 1;
            let clock = inner.clock;
            inner.map.insert(
                key,
                CachedReport {
                    report: stored,
                    bytes,
                    last_used: clock,
                },
            );
            inner.total_bytes += bytes;
            evicted
        };
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }
}

impl Inner {
    /// Evicts LRU entries until `incoming` more bytes fit the budget;
    /// returns how many were evicted.
    fn evict_to_fit(&mut self, incoming: u64, budget_bytes: u64) -> u64 {
        let mut evicted = 0;
        while !self.map.is_empty() && self.total_bytes + incoming > budget_bytes {
            if let Some(key) = self
                .map
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(old) = self.map.remove(&key) {
                    self.total_bytes -= old.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

/// Estimated resident bytes of a cached report: a fixed overhead for the
/// struct and map entry, the label and plan strings, plus the outcome's
/// heap payload (node-set bitsets at `capacity/8`, per-pass traces).
/// This is an accounting estimate for the LRU budget, not `malloc`
/// truth; it is deliberately on the generous side.
fn approx_report_bytes(report: &Report) -> u64 {
    const FIXED: u64 = 512;
    let strings = report.source_label.len() as u64
        + report
            .plan
            .reasons
            .iter()
            .map(|r| r.len() as u64)
            .sum::<u64>();
    let set_bytes = |capacity: usize| -> u64 { (capacity as u64).div_ceil(8) + 32 };
    let outcome = match &report.outcome {
        Outcome::Run(r) => set_bytes(r.best_set.capacity()) + 64 * r.trace.len() as u64,
        Outcome::Sweep(s) => {
            set_bytes(s.best.best_s.capacity())
                + set_bytes(s.best.best_t.capacity())
                + 24 * s.per_c.len() as u64
        }
        Outcome::Charikar(r) => set_bytes(r.best_set.capacity()) + 4 * r.peel_order.len() as u64,
        Outcome::Exact(r) => set_bytes(r.set.capacity()),
        Outcome::Communities(cs) => cs
            .iter()
            .map(|c| set_bytes(c.nodes.capacity()) + 16)
            .sum::<u64>(),
        Outcome::MapReduce(r) => set_bytes(r.best_set.capacity()) + 128 * r.reports.len() as u64,
    };
    FIXED + strings + outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Backend, Plan};

    fn dummy_report(label: &str, density: f64, set_capacity: usize) -> Report {
        Report {
            query: Query::new(Algorithm::Charikar),
            source_label: label.to_string(),
            graph_nodes: set_capacity as u64,
            graph_edges: 0,
            plan: Plan {
                backend: Backend::InMemorySerial,
                est_working_bytes: 0,
                est_in_memory_bytes: 0,
                budget_bytes: None,
                reasons: vec!["test".into()],
            },
            outcome: Outcome::Charikar(dsg_core::charikar::CharikarResult {
                best_set: dsg_graph::NodeSet::empty(set_capacity),
                best_density: density,
                peel_order: Vec::new(),
            }),
            threads: 1,
            sketch_words: None,
            state_bytes: None,
            shuffle: None,
            cache_hit: Some(false),
            result_cache_hit: Some(false),
            elapsed_ms: 1.0,
            rendered: Default::default(),
        }
    }

    fn key(fp: u64) -> CacheKey {
        CacheKey::new(
            GraphId::file(fp),
            GraphKind::Undirected,
            &Query::new(Algorithm::Charikar),
            &ResourcePolicy::default(),
        )
    }

    fn named_key(fp: u64, version: u64) -> CacheKey {
        CacheKey::new(
            GraphId::named(fp, version),
            GraphKind::Undirected,
            &Query::new(Algorithm::Charikar),
            &ResourcePolicy::default(),
        )
    }

    #[test]
    fn lookup_replays_with_fresh_label_and_hit_marker() {
        let cache = ResultCache::default();
        assert!(cache.lookup(&key(1), "a.txt").is_none());
        cache.insert(key(1), &dummy_report("a.txt", 2.0, 64));
        let replay = cache.lookup(&key(1), "other/route/to/a.txt").unwrap();
        assert_eq!(replay.source_label, "other/route/to/a.txt");
        assert_eq!(replay.result_cache_hit, Some(true));
        assert_eq!(replay.density(), 2.0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn distinct_policies_and_params_are_distinct_keys() {
        let q = Query::new(Algorithm::Approx {
            epsilon: 0.5,
            sketch: None,
        });
        let p1 = ResourcePolicy::default();
        let p2 = ResourcePolicy {
            memory_budget_bytes: None,
            threads: 4,
        };
        let k1 = CacheKey::new(GraphId::file(7), GraphKind::Undirected, &q, &p1);
        let k2 = CacheKey::new(GraphId::file(7), GraphKind::Undirected, &q, &p2);
        assert_ne!(k1, k2, "threads are part of the effective policy");
        let q2 = Query::new(Algorithm::Approx {
            epsilon: 0.25,
            sketch: None,
        });
        assert_ne!(
            k1,
            CacheKey::new(GraphId::file(7), GraphKind::Undirected, &q2, &p1),
            "epsilon is part of the canonical query"
        );
        assert_ne!(
            k1,
            CacheKey::new(GraphId::file(8), GraphKind::Undirected, &q, &p1),
            "fingerprint is part of the key"
        );
        assert_ne!(
            k1,
            CacheKey::new(GraphId::named(7, 0), GraphKind::Undirected, &q, &p1),
            "session graphs live in a separate keyspace from files"
        );
        assert_ne!(
            CacheKey::new(GraphId::named(7, 1), GraphKind::Undirected, &q, &p1),
            CacheKey::new(GraphId::named(7, 2), GraphKind::Undirected, &q, &p1),
            "the version is part of the key"
        );
        assert_eq!(
            k1,
            CacheKey::new(GraphId::file(7), GraphKind::Undirected, &q, &p1)
        );
    }

    #[test]
    fn stale_versions_are_evicted_eagerly() {
        let cache = ResultCache::default();
        cache.insert(named_key(9, 1), &dummy_report("g", 1.0, 64));
        cache.insert(named_key(9, 2), &dummy_report("g", 2.0, 64));
        cache.insert(named_key(9, 3), &dummy_report("g", 3.0, 64));
        // A different graph and a file entry with the same fingerprint
        // must both survive.
        cache.insert(named_key(10, 1), &dummy_report("h", 4.0, 64));
        cache.insert(key(9), &dummy_report("f", 5.0, 64));
        let dropped = cache.evict_stale_versions(9, 3);
        assert_eq!(dropped, 2, "versions 1 and 2 are stale");
        assert!(cache.lookup(&named_key(9, 3), "g").is_some());
        assert!(cache.lookup(&named_key(9, 1), "g").is_none());
        assert!(cache.lookup(&named_key(9, 2), "g").is_none());
        assert!(cache.lookup(&named_key(10, 1), "h").is_some());
        assert!(cache.lookup(&key(9), "f").is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 3);
        // Byte accounting stays balanced after the eager eviction.
        let one = approx_report_bytes(&dummy_report("g", 1.0, 64));
        let f = approx_report_bytes(&dummy_report("f", 5.0, 64));
        let h = approx_report_bytes(&dummy_report("h", 4.0, 64));
        assert_eq!(stats.bytes, one + f + h);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Each dummy report is ~FIXED + label + set bytes; budget fits
        // roughly two of them.
        let one = approx_report_bytes(&dummy_report("x", 1.0, 64));
        let cache = ResultCache::with_budget(2 * one + one / 2);
        cache.insert(key(1), &dummy_report("x", 1.0, 64));
        cache.insert(key(2), &dummy_report("x", 2.0, 64));
        // Touch 1 so 2 is LRU, then overflow.
        assert!(cache.lookup(&key(1), "x").is_some());
        cache.insert(key(3), &dummy_report("x", 3.0, 64));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup(&key(2), "x").is_none(), "2 was evicted");
        assert!(cache.lookup(&key(1), "x").is_some());
        assert!(cache.lookup(&key(3), "x").is_some());
        assert!(stats.bytes <= 2 * one + one / 2);
    }

    #[test]
    fn inserts_below_the_eviction_floor_are_rejected() {
        // A query that resolved version 1 but finished after the
        // mutation to version 2 already ran its eager eviction must not
        // re-pin an unreachable version-1 entry.
        let cache = ResultCache::default();
        cache.evict_stale_versions(9, 2);
        cache.insert(named_key(9, 1), &dummy_report("g", 1.0, 64));
        assert_eq!(cache.stats().entries, 0, "below-floor insert rejected");
        cache.insert(named_key(9, 2), &dummy_report("g", 2.0, 64));
        assert_eq!(cache.stats().entries, 1, "current version still caches");
        // File entries and other graphs are unaffected by the floor.
        cache.insert(key(9), &dummy_report("f", 3.0, 64));
        cache.insert(named_key(10, 1), &dummy_report("h", 4.0, 64));
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn oversized_reports_and_zero_budget_skip_caching() {
        let cache = ResultCache::with_budget(0);
        cache.insert(key(1), &dummy_report("x", 1.0, 64));
        assert_eq!(cache.stats().entries, 0, "budget 0 disables the cache");
        assert!(cache.lookup(&key(1), "x").is_none());

        let small = ResultCache::with_budget(64);
        small.insert(key(2), &dummy_report("x", 1.0, 1 << 20));
        assert_eq!(
            small.stats().entries,
            0,
            "a report larger than the whole budget is not cached"
        );
    }

    #[test]
    fn refreshing_a_key_at_full_budget_evicts_nothing() {
        let one = approx_report_bytes(&dummy_report("x", 1.0, 64));
        let cache = ResultCache::with_budget(2 * one);
        cache.insert(key(1), &dummy_report("x", 1.0, 64));
        cache.insert(key(2), &dummy_report("x", 2.0, 64));
        // Re-inserting key 1 replaces in place: the budget stays
        // balanced, so key 2 must survive.
        cache.insert(key(1), &dummy_report("x", 1.5, 64));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "same-size refresh is not an eviction");
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup(&key(2), "x").is_some(), "2 must survive");
        assert_eq!(cache.lookup(&key(1), "x").unwrap().density(), 1.5);
    }

    #[test]
    fn reinserting_a_key_replaces_without_leaking_bytes() {
        let cache = ResultCache::default();
        cache.insert(key(1), &dummy_report("x", 1.0, 64));
        let before = cache.stats().bytes;
        cache.insert(key(1), &dummy_report("x", 2.0, 64));
        assert_eq!(cache.stats().bytes, before, "replacement, not accumulation");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.lookup(&key(1), "x").unwrap().density(), 2.0);
    }
}
