//! # dsg-mapreduce — a MapReduce simulator and the MapReduce realization
//! of the densest-subgraph algorithms (§5.2 of the paper)
//!
//! The paper ran its algorithms on Hadoop with 2000 mappers/reducers over
//! graphs of up to 6.1B edges (Figure 6.7). That substrate is simulated
//! here by a faithful thread-pool MapReduce engine:
//!
//! * [`engine`] — typed `map -> shuffle -> reduce` rounds over partitioned
//!   input, executed by a configurable worker pool (std scoped
//!   threads), with per-round accounting of records, encoded shuffle
//!   bytes, spilled bytes/runs, and wall-clock time. The shuffle can run
//!   fully in RAM or spill sorted runs to disk above a byte budget
//!   ([`engine::ShuffleBackend`]) with bit-identical output — the
//!   Hadoop-style external shuffle that makes out-of-core rounds real.
//! * [`tasks`] — the worker-claim scaffold the engine's phases run on:
//!   scoped threads claiming task indices from one atomic cursor.
//! * [`densest`] — the paper's §5.2 dataflow: per-pass (1) a degree /
//!   density job, and (2) the two-round node-removal job (mark with `$`
//!   tombstones, pivot on each endpoint), looped until the node set
//!   drains. Undirected (Algorithm 1) and directed (Algorithm 3) drivers.
//!
//! The engine preserves the *logical* dataflow — what is keyed, what is
//! shuffled, how many rounds — so per-pass cost scales with surviving
//! edges exactly as in Figure 6.7; only absolute wall-clock differs from
//! Hadoop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod densest;
pub mod engine;
pub mod tasks;

pub use densest::{
    mr_densest_directed, mr_densest_undirected, MrDirectedResult, MrPassReport, MrUndirectedResult,
};
pub use engine::{MapReduceConfig, RoundStats, ShuffleBackend, Spillable};
pub use tasks::run_tasks;
