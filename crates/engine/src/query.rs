//! The declarative query surface: what to compute ([`Query`]), over what
//! ([`Source`]), and under which resource constraints ([`ResourcePolicy`]).
//!
//! A query names an algorithm and its parameters but **not** an execution
//! backend — picking in-memory vs file-streamed vs sketched vs MapReduce
//! (and in-RAM vs spill-to-disk shuffle) is the planner's job, driven by
//! the graph's size and the policy's memory budget. A caller that wants a
//! specific backend anyway (the CLI's `--stream`, a parity experiment)
//! sets [`Query::backend`] and the planner validates the request instead
//! of choosing.

use std::path::PathBuf;

use dsg_flow::FlowBackend;
use dsg_graph::{EdgeList, GraphKind};

/// The algorithm a query runs, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Algorithm 1 — undirected `(2+2ε)`-approximation. `sketch` replaces
    /// the exact degree oracle with a Count-Sketch of width `b` (§5.1).
    Approx {
        /// Approximation parameter ε (≥ 0).
        epsilon: f64,
        /// Count-Sketch width `b` (`t = 5` rows), if sketched.
        sketch: Option<u32>,
    },
    /// Algorithm 2 — densest subgraph with at least `k` nodes,
    /// `(3+3ε)`-approximation.
    AtLeastK {
        /// Size floor `k` (≥ 1).
        k: usize,
        /// Approximation parameter ε (clamped to ≥ 1e-6 at execution,
        /// exactly as the direct API requires).
        epsilon: f64,
    },
    /// Algorithm 3 — directed density with a `δ`-grid sweep over
    /// `c = |S|/|T|`.
    Directed {
        /// Grid resolution δ (> 1).
        delta: f64,
        /// Approximation parameter ε (≥ 0).
        epsilon: f64,
    },
    /// Charikar's exact greedy peeling (2-approximation, in-memory).
    Charikar,
    /// Goldberg max-flow optimum, with a selectable max-flow solver.
    Exact {
        /// Which max-flow solver backs the binary search.
        flow: FlowBackend,
    },
    /// Node-disjoint dense-community enumeration.
    Enumerate {
        /// ε of each extraction round.
        epsilon: f64,
        /// Stop below this density.
        min_density: f64,
        /// Stop after this many communities.
        max_communities: usize,
    },
}

impl Algorithm {
    /// The CLI / JSON name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Approx { .. } => "approx",
            Algorithm::AtLeastK { .. } => "atleast-k",
            Algorithm::Directed { .. } => "directed",
            Algorithm::Charikar => "charikar",
            Algorithm::Exact { .. } => "exact",
            Algorithm::Enumerate { .. } => "enumerate",
        }
    }

    /// Whether the algorithm can run over a multi-pass edge stream with
    /// O(n) state (the paper's semi-streaming model).
    pub fn streamable(&self) -> bool {
        matches!(self, Algorithm::Approx { .. } | Algorithm::AtLeastK { .. })
    }

    /// Whether the MapReduce driver of §5.2 realizes the algorithm.
    pub fn mapreducible(&self) -> bool {
        matches!(self, Algorithm::Approx { sketch: None, .. })
    }
}

/// An explicit backend request, bypassing the planner's choice (the
/// planner still validates it against the algorithm's capabilities).
/// `Hash` because the request is part of the result cache's canonical
/// query key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendRequest {
    /// Force the in-memory path.
    InMemory,
    /// Force the out-of-core path: re-read the source per pass, O(n)
    /// state, the edge list never materialized.
    Streamed,
    /// Force the §5.2 MapReduce driver (shuffle placement is still
    /// planned from the budget).
    MapReduce,
}

impl BackendRequest {
    /// CLI spelling of the request (`--backend <value>`).
    pub fn parse(s: &str) -> Option<Option<BackendRequest>> {
        match s {
            "auto" => Some(None),
            "memory" => Some(Some(BackendRequest::InMemory)),
            "stream" => Some(Some(BackendRequest::Streamed)),
            "mapreduce" => Some(Some(BackendRequest::MapReduce)),
            _ => None,
        }
    }
}

/// A densest-subgraph query: the algorithm plus an optional forced
/// backend. Everything else (backend choice, shuffle placement) is
/// derived by the planner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// What to compute.
    pub algorithm: Algorithm,
    /// Explicit backend request (`None` = let the planner choose).
    pub backend: Option<BackendRequest>,
}

impl Query {
    /// A query with planner-chosen backend.
    pub fn new(algorithm: Algorithm) -> Self {
        Query {
            algorithm,
            backend: None,
        }
    }
}

/// Resource constraints the planner must respect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourcePolicy {
    /// Peak working-set budget in bytes (`None` = unbounded: always plan
    /// the in-memory backend).
    pub memory_budget_bytes: Option<u64>,
    /// Worker threads, `1..=`[`MAX_THREADS`]. They size the MapReduce
    /// backend's workers and input splits, the way the paper
    /// parallelizes a pass (§5.2); every other backend runs serially.
    pub threads: usize,
}

/// The largest [`ResourcePolicy::threads`] the planner accepts. A
/// MapReduce plan starts that many OS threads in every phase, each with
/// `4 × threads` reducer buckets, so a client-sent count needs a bound.
pub const MAX_THREADS: usize = 256;

impl Default for ResourcePolicy {
    fn default() -> Self {
        ResourcePolicy {
            memory_budget_bytes: None,
            threads: 1,
        }
    }
}

impl ResourcePolicy {
    /// The policy's own rule, checked by the planner before every plan
    /// and by a server once for its default policy: `threads` in
    /// `1..=`[`MAX_THREADS`]. `Err` carries the violation's message.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.threads > MAX_THREADS {
            return Err(format!(
                "threads must be at most {MAX_THREADS} (got {})",
                self.threads
            ));
        }
        Ok(())
    }
}

/// Where the graph comes from.
#[derive(Clone, Debug)]
pub enum Source {
    /// An edge-list file on disk (SNAP text or the dsg binary format).
    File {
        /// Path to the edge file.
        path: PathBuf,
        /// `true` for the compact binary format.
        binary: bool,
        /// Parse the file as directed even for undirected algorithms.
        directed_input: bool,
    },
    /// An already-materialized edge list (benchmarks, tests, embedding).
    Memory {
        /// The edge list; canonicalized by the engine before use.
        list: EdgeList,
        /// Label used in reports in place of a file path.
        label: String,
    },
    /// A named mutable session graph held by the engine's catalog
    /// (created via `create_graph`, mutated via `add_edges` /
    /// `remove_edges` / `compact`). Queries run against the graph's
    /// current immutable snapshot; its orientation is fixed at creation
    /// and must match the algorithm's.
    Named {
        /// The session graph's name.
        name: String,
    },
}

impl Source {
    /// A text-file source.
    pub fn text(path: impl Into<PathBuf>) -> Self {
        Source::File {
            path: path.into(),
            binary: false,
            directed_input: false,
        }
    }

    /// A named-session-graph source.
    pub fn named(name: impl Into<String>) -> Self {
        Source::Named { name: name.into() }
    }

    /// The label reports carry for this source (the path, the memory
    /// label, or the session graph name).
    pub fn label(&self) -> String {
        match self {
            Source::File { path, .. } => path.display().to_string(),
            Source::Memory { label, .. } => label.clone(),
            Source::Named { name } => name.clone(),
        }
    }

    /// How the source's edges are to be oriented for `algorithm`:
    /// directed iff the caller said so or the algorithm is directed.
    /// (Named graphs have a fixed orientation; the engine verifies it
    /// against this request.)
    pub fn kind_for(&self, algorithm: &Algorithm) -> GraphKind {
        let directed_input = matches!(
            self,
            Source::File {
                directed_input: true,
                ..
            }
        );
        if directed_input || matches!(algorithm, Algorithm::Directed { .. }) {
            GraphKind::Directed
        } else {
            GraphKind::Undirected
        }
    }
}
