//! Serialization of [`DeltaGraph`] session ops for the engine's
//! write-ahead log.
//!
//! A [`SessionOp`] is exactly one catalog mutation as the serve layer
//! applies it: create a session with its initial edges, add a batch of
//! edges, remove a batch, or compact. The encoding is the op **payload**
//! of a WAL record — length framing, checksums, and file layout live in
//! the engine's `persistence` module; this module only defines how an op
//! becomes bytes and how replaying it rebuilds the same [`DeltaGraph`]
//! the live mutation produced.
//!
//! ## Encoding (all integers little-endian)
//!
//! | tag | op      | body                                      |
//! |-----|---------|-------------------------------------------|
//! | 1   | create  | `kind u8`, `edge_count u32`, pairs        |
//! | 2   | add     | `edge_count u32`, pairs                   |
//! | 3   | remove  | `edge_count u32`, pairs                   |
//! | 4   | compact | (empty)                                   |
//!
//! Each pair is `u u32, v u32`. The codec carries no weights: sessions
//! are unweighted ([`DeltaGraph::new`] rejects a weighted base).

use std::borrow::Cow;

use crate::delta::{DeltaGraph, DEFAULT_COMPACT_RATIO};
use crate::edgelist::GraphKind;
use crate::{GraphError, NodeId, Result};

/// Op tag bytes (the first payload byte).
const TAG_CREATE: u8 = 1;
const TAG_ADD: u8 = 2;
const TAG_REMOVE: u8 = 3;
const TAG_COMPACT: u8 = 4;

/// Kind bytes inside a create body.
const KIND_UNDIRECTED: u8 = 0;
const KIND_DIRECTED: u8 = 1;

/// One durable session mutation, exactly as the catalog applied it.
///
/// Edge batches borrow (`Cow::Borrowed`) on the encode path — the live
/// mutation encodes straight from the client's parsed batch without a
/// copy — and own (`Cow::Owned`) on the decode path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOp<'a> {
    /// `create_graph`: a fresh session of `kind` seeded with `edges`.
    Create {
        /// Directedness of the new session.
        kind: GraphKind,
        /// The initial edge batch (may be empty).
        edges: Cow<'a, [(NodeId, NodeId)]>,
    },
    /// `add_edges` with the given batch.
    Add(Cow<'a, [(NodeId, NodeId)]>),
    /// `remove_edges` with the given batch.
    Remove(Cow<'a, [(NodeId, NodeId)]>),
    /// An explicit `compact` request.
    Compact,
}

impl SessionOp<'_> {
    /// Appends the op's encoding to `out` and returns the bytes written.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        match self {
            SessionOp::Create { kind, edges } => {
                out.push(TAG_CREATE);
                out.push(match kind {
                    GraphKind::Undirected => KIND_UNDIRECTED,
                    GraphKind::Directed => KIND_DIRECTED,
                });
                encode_edges(edges, out);
            }
            SessionOp::Add(edges) => {
                out.push(TAG_ADD);
                encode_edges(edges, out);
            }
            SessionOp::Remove(edges) => {
                out.push(TAG_REMOVE);
                encode_edges(edges, out);
            }
            SessionOp::Compact => out.push(TAG_COMPACT),
        }
        out.len() - start
    }

    /// Decodes one op from `bytes`, which must be exactly one encoded op
    /// (the record framing layer has already stripped length prefix and
    /// checksum). Trailing bytes are a format error: a checksummed record
    /// holds exactly one op, so slack means the writer and reader
    /// disagree about the codec.
    pub fn decode(bytes: &[u8]) -> Result<SessionOp<'static>> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| GraphError::Format("empty session op".into()))?;
        let (op, used) = match tag {
            TAG_CREATE => {
                let (&kind_byte, body) = rest
                    .split_first()
                    .ok_or_else(|| GraphError::Format("create op missing kind byte".into()))?;
                let kind = match kind_byte {
                    KIND_UNDIRECTED => GraphKind::Undirected,
                    KIND_DIRECTED => GraphKind::Directed,
                    other => {
                        return Err(GraphError::Format(format!(
                            "create op has unknown graph kind byte {other}"
                        )))
                    }
                };
                let (edges, used) = decode_edges(body)?;
                (
                    SessionOp::Create {
                        kind,
                        edges: Cow::Owned(edges),
                    },
                    2 + used,
                )
            }
            TAG_ADD => {
                let (edges, used) = decode_edges(rest)?;
                (SessionOp::Add(Cow::Owned(edges)), 1 + used)
            }
            TAG_REMOVE => {
                let (edges, used) = decode_edges(rest)?;
                (SessionOp::Remove(Cow::Owned(edges)), 1 + used)
            }
            TAG_COMPACT => (SessionOp::Compact, 1),
            other => {
                return Err(GraphError::Format(format!(
                    "unknown session op tag {other}"
                )))
            }
        };
        if used != bytes.len() {
            return Err(GraphError::Format(format!(
                "session op has {} trailing bytes",
                bytes.len() - used
            )));
        }
        Ok(op)
    }

    /// Replays this op against `state`, mirroring the catalog's live
    /// mutation path: a create replaces `state` with a fresh seeded
    /// session, an add applies the batch and a remove its tombstones,
    /// each followed by the same [`DEFAULT_COMPACT_RATIO`] auto-compaction
    /// the live path runs, and a compact folds the delta. Returns how
    /// many edges the op changed (0 for compact).
    pub fn replay(&self, state: &mut DeltaGraph) -> Result<usize> {
        match self {
            SessionOp::Create { kind, edges } => {
                let mut fresh = DeltaGraph::new_empty(*kind);
                let applied = fresh.add_edges(edges)?;
                fresh.maybe_compact(DEFAULT_COMPACT_RATIO);
                *state = fresh;
                Ok(applied)
            }
            SessionOp::Add(edges) => {
                let applied = state.add_edges(edges)?;
                if applied > 0 {
                    state.maybe_compact(DEFAULT_COMPACT_RATIO);
                }
                Ok(applied)
            }
            SessionOp::Remove(edges) => {
                let removed = state.remove_edges(edges);
                if removed > 0 {
                    state.maybe_compact(DEFAULT_COMPACT_RATIO);
                }
                Ok(removed)
            }
            SessionOp::Compact => {
                state.compact();
                Ok(0)
            }
        }
    }

    /// The edge batch carried by this op (empty for compact).
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        match self {
            SessionOp::Create { edges, .. } => edges,
            SessionOp::Add(edges) | SessionOp::Remove(edges) => edges,
            SessionOp::Compact => &[],
        }
    }

    /// Converts any borrowed edge batch into an owned one, detaching the
    /// op from the buffer it was encoded from.
    pub fn into_owned(self) -> SessionOp<'static> {
        match self {
            SessionOp::Create { kind, edges } => SessionOp::Create {
                kind,
                edges: Cow::Owned(edges.into_owned()),
            },
            SessionOp::Add(edges) => SessionOp::Add(Cow::Owned(edges.into_owned())),
            SessionOp::Remove(edges) => SessionOp::Remove(Cow::Owned(edges.into_owned())),
            SessionOp::Compact => SessionOp::Compact,
        }
    }
}

fn encode_edges(edges: &[(NodeId, NodeId)], out: &mut Vec<u8>) {
    debug_assert!(edges.len() <= u32::MAX as usize);
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for &(u, v) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_edges(bytes: &[u8]) -> Result<(Vec<(NodeId, NodeId)>, usize)> {
    if bytes.len() < 4 {
        return Err(GraphError::Format(
            "session op truncated before edge count".into(),
        ));
    }
    let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let need = count
        .checked_mul(8)
        .and_then(|n| n.checked_add(4))
        .ok_or_else(|| GraphError::Format("session op edge count overflows".into()))?;
    if bytes.len() < need {
        return Err(GraphError::Format(format!(
            "session op edge batch truncated: need {need} bytes, have {}",
            bytes.len()
        )));
    }
    let mut edges = Vec::with_capacity(count);
    let mut at = 4;
    for _ in 0..count {
        let u = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let v = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        edges.push((u, v));
        at += 8;
    }
    Ok((edges, need))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: &SessionOp<'_>) -> SessionOp<'static> {
        let mut buf = Vec::new();
        op.encode_into(&mut buf);
        SessionOp::decode(&buf).expect("roundtrip decode")
    }

    #[test]
    fn ops_roundtrip_bitwise() {
        let ops: Vec<SessionOp<'_>> = vec![
            SessionOp::Create {
                kind: GraphKind::Undirected,
                edges: Cow::Owned(vec![(0, 1), (1, 2)]),
            },
            SessionOp::Create {
                kind: GraphKind::Directed,
                edges: Cow::Owned(vec![]),
            },
            SessionOp::Add(Cow::Owned(vec![(3, 4)])),
            SessionOp::Remove(Cow::Owned(vec![(0, 1), (4, 3)])),
            SessionOp::Compact,
        ];
        for op in &ops {
            assert_eq!(&roundtrip(op), op);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SessionOp::decode(&[]).is_err());
        assert!(SessionOp::decode(&[9]).is_err());
        assert!(SessionOp::decode(&[TAG_CREATE]).is_err());
        assert!(SessionOp::decode(&[TAG_CREATE, 7, 0, 0, 0, 0]).is_err());
        // Truncated edge batch.
        assert!(SessionOp::decode(&[TAG_ADD, 1, 0, 0, 0, 1, 2]).is_err());
        // Trailing slack after a complete op.
        let mut buf = Vec::new();
        SessionOp::Compact.encode_into(&mut buf);
        buf.push(0);
        assert!(SessionOp::decode(&buf).is_err());
    }

    #[test]
    fn replay_reproduces_live_mutations() {
        let mut live = DeltaGraph::new_empty(GraphKind::Undirected);
        let mut replayed = DeltaGraph::new_empty(GraphKind::Directed);
        let script: Vec<SessionOp<'_>> = vec![
            SessionOp::Create {
                kind: GraphKind::Undirected,
                edges: Cow::Owned(vec![(0, 1), (1, 2), (2, 0)]),
            },
            SessionOp::Add(Cow::Owned(vec![(2, 3), (3, 4)])),
            SessionOp::Remove(Cow::Owned(vec![(1, 2)])),
            SessionOp::Compact,
            SessionOp::Add(Cow::Owned(vec![(0, 4)])),
        ];
        for op in &script {
            op.replay(&mut live).unwrap();
            let roundtripped = roundtrip(op);
            roundtripped.replay(&mut replayed).unwrap();
        }
        let mut a = live.materialize();
        a.canonicalize();
        let mut b = replayed.materialize();
        b.canonicalize();
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.edges, b.edges);
        assert_eq!(live.compactions(), replayed.compactions());
    }
}
