//! # dsg-core — the streaming densest-subgraph algorithms of
//! Bahmani, Kumar, and Vassilvitskii (VLDB 2012)
//!
//! The central idea of the paper: Charikar's greedy 2-approximation peels
//! one minimum-degree node per step (a linear number of passes in the
//! streaming model); relaxing the rule to *"remove every node whose degree
//! is within a `(1+ε)` factor of twice the average"* removes a constant
//! fraction of nodes per pass, so only `O(log_{1+ε} n)` passes are needed
//! while the approximation degrades only to `(2 + 2ε)`.
//!
//! Modules:
//!
//! * [`undirected`] — **Algorithm 1**: `(2+2ε)`-approximation for
//!   undirected (optionally weighted) graphs, in both true streaming form
//!   (one degree-recomputation pass per iteration over any
//!   [`dsg_graph::stream::EdgeStream`]) and a fast in-memory form with
//!   decremental degree maintenance.
//! * [`large`] — **Algorithm 2**: `(3+3ε)`-approximation for densest
//!   subgraph with at least `k` nodes.
//! * [`directed`] — **Algorithm 3**: `(2+2ε)`-approximation for the
//!   directed (Kannan–Vinay) density, plus the `δ`-grid sweep over the
//!   ratio `c = |S|/|T|`.
//! * [`kernel`] — the **unified peeling kernel**: one pass-loop driver
//!   parameterized by a [`kernel::DegreeStore`] backend (streaming
//!   recompute, decremental CSR, priority structures) and a
//!   [`kernel::RemovalPolicy`] (threshold, k-floor, min-node, directed
//!   one-side sweep). Every algorithm module above is a thin
//!   instantiation of it, with one in-memory entry point per algorithm
//!   on the decremental CSR store.
//! * [`charikar`] — Charikar's exact greedy peeling (the baseline the
//!   paper builds on), implemented with an O(m + n) bucket queue.
//! * [`cores`] — d-core decomposition (Definition 8), used by Algorithm
//!   2's analysis and by tests.
//! * [`oracle`] — the degree-oracle abstraction that lets the sketched
//!   variant of §5.1 plug into Algorithm 1.
//! * [`result`] — shared result and per-pass trace types (the traces
//!   drive the reproduction of Figures 6.2, 6.3, and 6.5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod charikar;
pub mod cores;
pub mod directed;
pub mod enumerate;
pub mod incremental;
pub mod kernel;
pub mod large;
pub mod oracle;
pub mod profile;
pub mod result;
pub mod undirected;

pub use charikar::charikar_peel;
pub use cores::CoreDecomposition;
pub use directed::{
    approx_densest_directed, approx_densest_directed_csr, approx_densest_directed_naive, sweep_c,
    sweep_c_csr, DirectedRun, SweepResult,
};
pub use enumerate::{enumerate_dense_subgraphs, Community, EnumerateOptions};
pub use incremental::{
    simulate, AffectedAdjacency, IncPolicy, RowCache, SimFallback, SimLimits, SimSuccess,
    TraceView, THRESHOLD_REASON,
};
pub use kernel::{DegreeStore, PeelTrace, PeelingKernel, RemovalPolicy, TracePass};
pub use large::{approx_densest_at_least_k, approx_densest_at_least_k_csr};
pub use oracle::{DegreeOracle, ExactDegreeOracle};
pub use profile::{peeling_profile, PeelingProfile};
pub use result::{DirectedPassStats, PassStats, UndirectedRun};
pub use undirected::{approx_densest, approx_densest_csr};
