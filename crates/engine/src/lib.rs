//! # dsg-engine — the query engine: plan → execute → serve
//!
//! The paper's thesis is that one density query should run well at any
//! scale — in RAM, streamed from disk, or sketched. This crate turns
//! that into an architecture instead of a pile of CLI branches:
//!
//! * [`Query`] — a declarative query: algorithm ∈ {approx, atleast-k,
//!   directed, charikar, exact, enumerate} × its ε/k/δ/sketch
//!   parameters, with an optional forced [`BackendRequest`].
//! * [`ResourcePolicy`] — memory budget and thread count.
//! * [`planner`] — a pure, deterministic, *explainable* planner mapping
//!   `(Query, GraphMeta, ResourcePolicy)` to a [`Plan`]: in-memory vs
//!   file-streamed vs sketched vs MapReduce, and in-RAM vs spill-to-disk
//!   shuffle for the MapReduce driver. Every fired rule is recorded in
//!   [`Plan::reasons`].
//! * [`Engine`] — executes the plan by calling exactly the public API a
//!   direct caller would, so results are byte-identical (asserted in
//!   `tests/engine.rs`), and returns one unified [`Report`] (density,
//!   node set, passes, state/shuffle bytes, the plan taken).
//! * [`GraphCatalog`] — loads, canonicalizes, and fingerprints each
//!   graph once; repeated queries hit the cache. Internally
//!   synchronized with single-flight loads, so a worker pool sharing
//!   one catalog still loads each cold graph exactly once.
//! * [`ResultCache`] — completed [`Report`]s keyed by
//!   `(file fingerprint, canonical query, effective policy)` with
//!   byte-budgeted LRU eviction; repeated identical queries replay
//!   byte-identically (minus `elapsed_ms`) without recomputing.
//! * [`serve`] — a long-running JSONL request/response loop over
//!   stdin/stdout or a Unix socket. Socket mode runs an accept thread
//!   plus a fixed set of I/O event loops, each answering its
//!   connections' requests inline, so many clients are served
//!   concurrently against one shared engine.
//! * [`shard`] — the sharded serve mode (`ServeOptions::shards > 1`):
//!   N independent engines behind one socket; the event loop hashes
//!   each request's graph identity to pick the engine it runs on, so
//!   shards never touch each other's locks.
//! * **Mutable sessions** — named in-memory graphs created and mutated
//!   through the catalog ([`NamedGraph`], `create_graph` / `add_edges`
//!   / `remove_edges` / `compact` ops): every mutation publishes a
//!   fresh snapshot under a monotonic version, result-cache keys carry
//!   the version (stale replays are structurally impossible), and the
//!   peeling algorithms warm-restart from the previous version's
//!   result where the delta is small (see [`Engine`]'s module docs).
//!
//! ```
//! use dsg_engine::{Algorithm, Engine, Query, ResourcePolicy, Source};
//! use dsg_graph::gen;
//!
//! let mut engine = Engine::new();
//! let source = Source::Memory {
//!     list: gen::clique(8),
//!     label: "k8".into(),
//! };
//! let query = Query::new(Algorithm::Approx { epsilon: 0.5, sketch: None });
//! let report = engine
//!     .execute(&source, &query, &ResourcePolicy::default())
//!     .unwrap();
//! assert_eq!(report.density(), 3.5); // (8 choose 2) / 8
//! assert_eq!(report.plan.backend.name(), "memory");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

pub mod catalog;
mod engine;
mod error;
pub mod frame;
mod incremental;
pub mod minijson;
pub mod persistence;
pub mod planner;
pub mod query;
#[cfg(unix)]
pub mod readiness;
pub mod report;
pub mod result_cache;
pub mod serve;
#[cfg(unix)]
pub mod shard;

pub use catalog::{
    CatalogEntry, CatalogStats, GraphCatalog, MutateOp, MutationOutcome, NamedGraph,
    NamedGraphStats,
};
pub use engine::{mr_edge_splits, Engine, ServeReport, WarmStats, DEFAULT_INCREMENTAL_THRESHOLD};
pub use error::{EngineError, Result};
pub use incremental::IncrementalDebug;
pub use persistence::{RecoveryStats, WalStats, DEFAULT_FSYNC_EVERY, DEFAULT_SNAPSHOT_EVERY};
pub use planner::{Backend, GraphMeta, Plan, ShuffleChoice};
pub use query::{Algorithm, BackendRequest, Query, ResourcePolicy, Source};
pub use report::{JsonBuilder, Outcome, Report, ShuffleStats};
pub use result_cache::{GraphId, ResultCache, ResultCacheStats};
#[cfg(unix)]
pub use serve::{client_fan_out, client_unix_opts, serve_unix};
pub use serve::{
    percentile, serve_loop, serve_stdio, ClientOptions, ClientStats, FanOutConn, ServeMetrics,
    ServeOptions, ServeSummary,
};
#[cfg(unix)]
pub use shard::routing_shard;
