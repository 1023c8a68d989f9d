//! # dsg-graph — graph substrate for densest-subgraph algorithms
//!
//! This crate provides every graph-shaped building block used by the
//! reproduction of *"Densest Subgraph in Streaming and MapReduce"*
//! (Bahmani, Kumar, Vassilvitskii; VLDB 2012):
//!
//! * [`EdgeList`] — a mutable edge-list representation used by builders,
//!   generators, and I/O.
//! * [`CsrUndirected`] / [`CsrDirected`] — immutable compressed-sparse-row
//!   snapshots for fast in-memory algorithms.
//! * [`DeltaGraph`] — a mutable overlay (canonical base + add/remove logs
//!   with tombstones, compactable) backing the engine's graph sessions.
//! * [`NodeSet`] — a dense bitset over node ids with O(1) cardinality,
//!   used to represent subgraphs `S ⊆ V`.
//! * [`stream`] — the multi-pass *semi-streaming* model: the node set fits
//!   in memory, edges are re-read pass by pass ([`stream::EdgeStream`]).
//! * [`gen`] — synthetic graph generators, including the worst-case
//!   instances from the paper's lower bounds (Lemmas 5–7).
//! * [`io`] — SNAP-style text and compact binary edge-list formats.
//! * [`rng`] — a tiny deterministic RNG so every generated graph is
//!   reproducible across platforms.
//! * [`wal`] — the byte codec for durable session ops ([`DeltaGraph`]
//!   mutations), replayed by the engine's write-ahead log on startup.
//!
//! The density definitions of the paper live in [`density`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod bitset;
pub mod csr;
pub mod delta;
pub mod density;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod wal;

pub use bitset::NodeSet;
pub use csr::{CsrDirected, CsrUndirected};
pub use delta::DeltaGraph;
pub use edgelist::{EdgeList, GraphKind};
pub use rng::SplitMix64;
/// The Fx hash containers the graph crates share: deterministic and fast
/// on small integer keys. Re-exported so crates built on this one use
/// the same hasher without a dependency of their own.
pub use rustc_hash::{FxHashMap, FxHashSet};

/// Node identifier. Graphs are addressed by dense ids `0..num_nodes`.
pub type NodeId = u32;

/// Errors produced by graph parsing and validation.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The declared number of nodes.
        num_nodes: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: u64,
        /// Explanation of the failure.
        msg: String,
    },
    /// A binary edge file had an invalid header or truncated body.
    Format(String),
    /// A graph exceeded a hard limit of a serialization format (e.g. the
    /// binary format's `u32` edge count).
    TooLarge {
        /// What overflowed (e.g. `"edge count"`).
        what: &'static str,
        /// The offending value.
        value: u64,
        /// The format's maximum.
        max: u64,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range (num_nodes = {num_nodes})")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Format(msg) => write!(f, "format error: {msg}"),
            GraphError::TooLarge { what, value, max } => {
                write!(f, "{what} {value} exceeds the format limit of {max}")
            }
        }
    }
}

/// `std::io::Error` is not `Clone`: a cloned [`GraphError::Io`] keeps the
/// error's kind and message. Every other variant clones field by field.
impl Clone for GraphError {
    fn clone(&self) -> Self {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => GraphError::NodeOutOfRange {
                node: *node,
                num_nodes: *num_nodes,
            },
            GraphError::Io(e) => GraphError::Io(std::io::Error::new(e.kind(), e.to_string())),
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
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
