//! Graph serialization: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The text format is line-oriented `u v [w]` with `#` comments — the same
//! shape as the SNAP datasets the paper evaluates on (Table 2), so real
//! downloads drop in unchanged. The binary format is a 16-byte
//! [`BinaryHeader`] and fixed-width little-endian records, so that the
//! out-of-core experiments are not bottlenecked on integer parsing.
//!
//! Every read of an edge file (a load, a stream's validating open or
//! pass) runs the record loop of its format. Both loops read through one
//! 64 KiB buffer with no allocation per line or record, and fold the
//! same [`EdgeScan`]. Text lines all go through
//! [`crate::stream::parse_edge_line`], so a file loads in memory if and
//! only if it also streams. [`read_text_from`] and [`read_binary_from`]
//! load from any reader, so a caller can watch the bytes go by.
//!
//! Nothing in this module panics on user input: malformed files, header
//! limits, and out-of-range node ids all surface as [`GraphError`]s.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::edgelist::{EdgeList, GraphKind};
use crate::stream::{parse_edge_line, BINARY_MAGIC};
use crate::{GraphError, Result};

/// Buffer size of both record loops and of [`write_binary`] (64 KiB, a
/// whole number of binary records of either width).
const IO_BUFFER: usize = 64 * 1024;

/// Odd multiplier of the [`EdgeScan`] checksum (2^64 / golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// What one record loop found in an edge file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeScan {
    /// Largest node id an edge names (0 when there are no edges).
    pub max_id: u32,
    /// Edge records read.
    pub edges: u64,
    /// Text: some line has a weight column. Binary: the header's flag.
    pub weighted: bool,
    /// Order-sensitive checksum of every edge's `(u, v, w bits)`, kept in
    /// memory only: file streams compare it across passes.
    pub checksum: u64,
}

impl EdgeScan {
    fn fold(&mut self, u: u32, v: u32, w: f64) {
        self.max_id = self.max_id.max(u).max(v);
        self.edges += 1;
        let word = (u64::from(u) << 32 | u64::from(v)) ^ w.to_bits().wrapping_mul(MIX);
        self.checksum = (self.checksum.rotate_left(5) ^ word).wrapping_mul(MIX);
    }

    /// The node count of a text file: `max id + 1`, or 0 without edges.
    /// Id `u32::MAX` is [`GraphError::TooLarge`]: its count overflows.
    pub fn num_nodes(&self) -> Result<u32> {
        if self.edges == 0 {
            return Ok(0);
        }
        self.max_id.checked_add(1).ok_or(GraphError::TooLarge {
            what: "node id",
            value: u64::from(self.max_id),
            max: u64::from(u32::MAX) - 1,
        })
    }
}

/// The `N` bytes of `bytes` at `at`.
fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// The text record loop: parses each line `reader` yields with
/// [`parse_edge_line`] (1-based line numbers), to the end of the input,
/// and calls `f(u, v, w)` per edge, `w = 1` without a weight column. It
/// stops at the first error: a read, invalid UTF-8 (`InvalidData`), a
/// parse error, or `f`'s. A line longer than the buffer grows it.
pub(crate) fn for_each_text_edge(
    mut reader: impl Read,
    mut f: impl FnMut(u32, u32, f64) -> Result<()>,
) -> Result<EdgeScan> {
    let mut scan = EdgeScan::default();
    let mut buf = vec![0u8; IO_BUFFER];
    let (mut end, mut line_no) = (0, 0u64);
    loop {
        // `end < buf.len()` here, so a read of 0 bytes is the end of file.
        let n = match reader.read(&mut buf[end..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        end += n;
        let mut start = 0;
        while start < end {
            let len = match buf[start..end].iter().position(|&b| b == b'\n') {
                Some(len) => len,
                // The last line may lack its newline.
                None if n == 0 => end - start,
                None => break,
            };
            line_no += 1;
            let line = std::str::from_utf8(&buf[start..start + len])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if let Some((u, v, w)) = parse_edge_line(line, line_no)? {
                scan.weighted |= w.is_some();
                let w = w.unwrap_or(1.0);
                scan.fold(u, v, w);
                f(u, v, w)?;
            }
            start += len + 1;
        }
        if n == 0 {
            return Ok(scan);
        }
        buf.copy_within(start..end, 0);
        end -= start;
        if end == buf.len() {
            buf.resize(2 * end, 0);
        }
    }
}

/// Writes `list` as a text edge list with a SNAP-style header comment.
pub fn write_text<P: AsRef<Path>>(path: P, list: &EdgeList) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let kind = match list.kind {
        GraphKind::Undirected => "undirected",
        GraphKind::Directed => "directed",
    };
    writeln!(
        w,
        "# {kind} graph: Nodes: {} Edges: {}",
        list.num_nodes,
        list.num_edges()
    )?;
    match &list.weights {
        None => {
            for &(u, v) in &list.edges {
                writeln!(w, "{u}\t{v}")?;
            }
        }
        Some(ws) => {
            for (&(u, v), &wt) in list.edges.iter().zip(ws) {
                writeln!(w, "{u}\t{v}\t{wt}")?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a text edge list. Node ids may be arbitrary (non-dense) `u32`
/// values; `num_nodes` is set to `max id + 1` ([`EdgeScan::num_nodes`]).
/// Self-loops and duplicates are kept — call [`EdgeList::canonicalize`]
/// to simplify.
///
/// Uses the same line grammar as [`crate::stream::FileStream`] (shared
/// [`parse_edge_line`]): `u v [w]`, `#` comments, and **no** trailing
/// tokens — a file loads here if and only if it streams.
pub fn read_text<P: AsRef<Path>>(path: P, kind: GraphKind) -> Result<EdgeList> {
    read_text_from(File::open(path)?, kind)
}

/// [`read_text`] over the bytes `reader` yields, read to the end.
pub fn read_text_from(reader: impl Read, kind: GraphKind) -> Result<EdgeList> {
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    let scan = for_each_text_edge(reader, |u, v, w| {
        edges.push((u, v));
        weights.push(w);
        Ok(())
    })?;
    Ok(EdgeList {
        num_nodes: scan.num_nodes()?,
        edges,
        weights: scan.weighted.then_some(weights),
        kind,
    })
}

/// Writes `list` in the compact binary format readable by
/// [`crate::stream::FileStream`] and [`read_binary`].
///
/// The format stores the edge count as a `u32`; lists with more than
/// `u32::MAX` edges are rejected with [`GraphError::TooLarge`].
pub fn write_binary<P: AsRef<Path>>(path: P, list: &EdgeList) -> Result<()> {
    let m = list.num_edges();
    if m > u32::MAX as usize {
        return Err(GraphError::TooLarge {
            what: "edge count",
            value: m as u64,
            max: u32::MAX as u64,
        });
    }
    let file = File::create(path)?;
    let mut w = BufWriter::with_capacity(IO_BUFFER, file);
    let weighted = list.is_weighted();
    let mut flags = 0u32;
    if weighted {
        flags |= 1;
    }
    if list.kind == GraphKind::Directed {
        flags |= 2;
    }
    w.write_all(&BINARY_MAGIC.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&list.num_nodes.to_le_bytes())?;
    w.write_all(&(m as u32).to_le_bytes())?;
    for (i, &(u, v)) in list.edges.iter().enumerate() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
        if weighted {
            w.write_all(&list.weight(i).to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// The 16-byte header of a binary edge file: `magic, flags, num_nodes,
/// num_edges`, little-endian `u32`s (flag bit 0: weighted records, bit
/// 1: directed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryHeader {
    /// Node count; every record's ids must be below it.
    pub num_nodes: u32,
    /// Record count.
    pub num_edges: u64,
    /// Whether records carry an `f64` weight after `u, v`.
    pub weighted: bool,
    /// Directedness recorded in the flags.
    pub kind: GraphKind,
}

impl BinaryHeader {
    /// Opens a binary edge file and validates its header: the magic, and
    /// the file length against the record count. Returns the header and
    /// the file, positioned at the first record.
    pub fn read<P: AsRef<Path>>(path: P) -> Result<(BinaryHeader, File)> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok((Self::read_from(&mut file, len)?, file))
    }

    /// Reads and validates the header at the start of `reader`, a binary
    /// edge file of `len` bytes.
    fn read_from(reader: &mut impl Read, len: u64) -> Result<BinaryHeader> {
        let mut bytes = [0u8; 16];
        reader
            .read_exact(&mut bytes)
            .map_err(|_| GraphError::Format("binary edge file shorter than header".into()))?;
        let word = |at| u32::from_le_bytes(le(&bytes, at));
        let magic = word(0);
        if magic != BINARY_MAGIC {
            return Err(GraphError::Format(format!(
                "bad magic 0x{magic:08x} (expected 0x{BINARY_MAGIC:08x})"
            )));
        }
        let flags = word(4);
        let header = BinaryHeader {
            num_nodes: word(8),
            num_edges: u64::from(word(12)),
            weighted: flags & 1 != 0,
            kind: if flags & 2 != 0 {
                GraphKind::Directed
            } else {
                GraphKind::Undirected
            },
        };
        let expected = 16 + header.num_edges * header.record_len() as u64;
        if len != expected {
            return Err(GraphError::Format(format!(
                "binary edge file length {len} != expected {expected}"
            )));
        }
        Ok(header)
    }

    fn record_len(&self) -> usize {
        if self.weighted {
            16
        } else {
            8
        }
    }
}

/// The binary record loop: decodes the `header.num_edges` records after
/// the header and calls `f(u, v, w)` per edge, `w = 1` for unweighted
/// records. Ids are checked against the header's node count
/// ([`GraphError::NodeOutOfRange`]); a file that ends early (it shrank
/// after [`BinaryHeader::read`]) is a `truncated at record i` format
/// error, `i` the first record of the buffer it could not fill.
pub(crate) fn for_each_binary_edge(
    mut reader: impl Read,
    header: &BinaryHeader,
    mut f: impl FnMut(u32, u32, f64),
) -> Result<EdgeScan> {
    let record = header.record_len();
    let mut scan = EdgeScan {
        weighted: header.weighted,
        ..EdgeScan::default()
    };
    let mut buf = vec![0u8; IO_BUFFER];
    while scan.edges < header.num_edges {
        let left = (header.num_edges - scan.edges) * record as u64;
        let chunk = &mut buf[..left.min(IO_BUFFER as u64) as usize];
        reader.read_exact(chunk).map_err(|e| {
            GraphError::Format(format!(
                "binary edge file truncated at record {}: {e}",
                scan.edges
            ))
        })?;
        for rec in chunk.chunks_exact(record) {
            let u = u32::from_le_bytes(le(rec, 0));
            let v = u32::from_le_bytes(le(rec, 4));
            let w = if header.weighted {
                f64::from_le_bytes(le(rec, 8))
            } else {
                1.0
            };
            if u >= header.num_nodes || v >= header.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: u64::from(u.max(v)),
                    num_nodes: u64::from(header.num_nodes),
                });
            }
            scan.fold(u, v, w);
            f(u, v, w);
        }
    }
    Ok(scan)
}

/// Reads a binary edge file into memory through the binary record loop
/// (only the edge list is materialized, never a whole-file byte copy).
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<EdgeList> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    read_binary_from(file, len)
}

/// [`read_binary`] over `reader`, a binary edge file of `len` bytes. It
/// reads the header and the records the header counts, and no further.
pub fn read_binary_from(mut reader: impl Read, len: u64) -> Result<EdgeList> {
    let header = BinaryHeader::read_from(&mut reader, len)?;
    let m = header.num_edges as usize;
    let mut edges = Vec::with_capacity(m);
    let mut weights = Vec::with_capacity(if header.weighted { m } else { 0 });
    for_each_binary_edge(reader, &header, |u, v, w| {
        edges.push((u, v));
        if header.weighted {
            weights.push(w);
        }
    })?;
    Ok(EdgeList {
        num_nodes: header.num_nodes,
        edges,
        weights: header.weighted.then_some(weights),
        kind: header.kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{EdgeStream, FileStream};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dsg_graph_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> EdgeList {
        let mut g = EdgeList::new_undirected(5);
        g.push(0, 1);
        g.push(1, 2);
        g.push(3, 4);
        g
    }

    #[test]
    fn text_round_trip() {
        let path = tmp("t1.txt");
        let g = sample();
        write_text(&path, &g).unwrap();
        let h = read_text(&path, GraphKind::Undirected).unwrap();
        assert_eq!(h.num_nodes, 5);
        assert_eq!(h.edges, g.edges);
        assert!(!h.is_weighted());
    }

    #[test]
    fn text_round_trip_weighted() {
        let path = tmp("t2.txt");
        let mut g = EdgeList::new_directed(3);
        g.push_weighted(0, 1, 2.25);
        g.push_weighted(2, 0, 0.5);
        write_text(&path, &g).unwrap();
        let h = read_text(&path, GraphKind::Directed).unwrap();
        assert_eq!(h.edges, g.edges);
        assert_eq!(h.weights, g.weights);
        assert_eq!(h.kind, GraphKind::Directed);
    }

    #[test]
    fn text_rejects_trailing_tokens_like_the_stream() {
        // read_text and a text FileStream share one parser; a line with a
        // fourth token fails identically in both.
        let path = tmp("t3.txt");
        std::fs::write(&path, "0 1\n1 2 0.5 extra\n").unwrap();
        let loaded = read_text(&path, GraphKind::Undirected);
        assert!(
            matches!(loaded, Err(GraphError::Parse { line: 2, .. })),
            "{loaded:?}"
        );
        let streamed = FileStream::open(&path, false);
        assert!(matches!(
            streamed.err(),
            Some(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn binary_round_trip() {
        let path = tmp("b1.bin");
        let g = sample();
        write_binary(&path, &g).unwrap();
        let h = read_binary(&path).unwrap();
        assert_eq!(h.num_nodes, g.num_nodes);
        assert_eq!(h.edges, g.edges);
        assert_eq!(h.kind, GraphKind::Undirected);
    }

    #[test]
    fn binary_round_trip_weighted_directed() {
        let path = tmp("b2.bin");
        let mut g = EdgeList::new_directed(4);
        g.push_weighted(0, 3, 1.5);
        g.push_weighted(3, 2, 2.5);
        write_binary(&path, &g).unwrap();
        let h = read_binary(&path).unwrap();
        assert_eq!(h.edges, g.edges);
        assert_eq!(h.weights, g.weights);
        assert_eq!(h.kind, GraphKind::Directed);
    }

    #[test]
    fn binary_stream_matches_file() {
        let path = tmp("b3.bin");
        let g = sample();
        write_binary(&path, &g).unwrap();
        let mut s = FileStream::open(&path, true).unwrap();
        assert_eq!(s.num_nodes(), 5);
        assert_eq!(s.num_edges(), 3);
        let mut seen = Vec::new();
        s.for_each_edge(&mut |u, v, w| seen.push((u, v, w)));
        assert_eq!(seen, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
    }

    #[test]
    fn binary_rejects_truncated() {
        let path = tmp("b4.bin");
        let g = sample();
        write_binary(&path, &g).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_binary(&path).is_err());
        assert!(FileStream::open(&path, true).is_err());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("b5.bin");
        std::fs::write(&path, [0u8; 32]).unwrap();
        assert!(read_binary(&path).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_ids() {
        // Header says 2 nodes but a record names node 9: a typed error,
        // not a later index panic in CSR construction.
        let path = tmp("b6.bin");
        let mut g = EdgeList::new_undirected(10);
        g.push(0, 9);
        write_binary(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_binary(&path),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn chunked_reader_reports_header_fields() {
        let path = tmp("b7.bin");
        let mut g = EdgeList::new_directed(6);
        g.push_weighted(1, 2, 0.25);
        write_binary(&path, &g).unwrap();
        let (header, file) = BinaryHeader::read(&path).unwrap();
        assert_eq!(header.num_nodes, 6);
        assert_eq!(header.num_edges, 1);
        assert!(header.weighted);
        assert_eq!(header.kind, GraphKind::Directed);
        let mut seen = Vec::new();
        for_each_binary_edge(file, &header, |u, v, w| seen.push((u, v, w))).unwrap();
        assert_eq!(seen, vec![(1, 2, 0.25)]);
    }

    /// `read_text` and a text stream's validating open over `body`,
    /// which must agree.
    fn text_edges(name: &str, body: &[u8]) -> Result<EdgeList> {
        let path = tmp(name);
        std::fs::write(&path, body).unwrap();
        let loaded = read_text(&path, GraphKind::Undirected);
        if let Ok(list) = &loaded {
            let scan = FileStream::open(&path, false).unwrap();
            assert_eq!(scan.num_edges(), list.num_edges() as u64);
            assert_eq!(scan.num_nodes(), list.num_nodes);
            assert_eq!(scan.is_weighted(), list.is_weighted());
        }
        loaded
    }

    #[test]
    fn text_loop_grows_past_a_comment_longer_than_the_buffer() {
        let mut body = format!("0 1\n# {}\n", "x".repeat(IO_BUFFER + 5000));
        body.push_str("1 2\n2 3\n");
        let list = text_edges("long_comment.txt", body.as_bytes()).unwrap();
        assert_eq!(list.edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn text_loop_joins_a_line_split_by_the_buffer_boundary() {
        // The comment ends 3 bytes before the boundary, so "1234 5678"
        // starts in the first buffer and ends in the second.
        let mut body = format!("#{}\n", "c".repeat(IO_BUFFER - 5));
        assert_eq!(body.len(), IO_BUFFER - 3);
        body.push_str("1234 5678\n5678 9\n");
        let list = text_edges("straddle.txt", body.as_bytes()).unwrap();
        assert_eq!(list.edges, vec![(1234, 5678), (5678, 9)]);
        assert_eq!(list.num_nodes, 5679);
    }

    #[test]
    fn text_loop_reads_a_last_line_without_newline_and_crlf_endings() {
        let list = text_edges("no_newline.txt", b"0 1\n1 2 2.5").unwrap();
        assert_eq!(list.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(list.weights, Some(vec![1.0, 2.5]));

        let list = text_edges("crlf.txt", b"# c\r\n0 1\r\n\r\n1 2 2.5\r\n").unwrap();
        assert_eq!(list.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(list.weights, Some(vec![1.0, 2.5]));
    }

    #[test]
    fn text_loop_maps_invalid_utf8_to_invalid_data() {
        let err = text_edges("utf8.txt", b"0 1\n1 \xff\xfe2\n").unwrap_err();
        assert!(
            matches!(&err, GraphError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err:?}"
        );
    }

    #[test]
    fn text_loop_numbers_lines_past_the_first_buffer() {
        // 20,000 four-byte lines fill more than one buffer.
        let mut body = "0 1\n".repeat(20_000);
        body.push_str("# ok\n3 x\n");
        let err = text_edges("late_error.txt", body.as_bytes()).unwrap_err();
        assert!(
            matches!(err, GraphError::Parse { line: 20_002, .. }),
            "{err:?}"
        );
    }

    /// A graph of `m` edges over 1,000 nodes whose records span several
    /// read buffers.
    fn many_edges(m: u32, weighted: bool) -> EdgeList {
        let mut g = EdgeList::new_undirected(1000);
        for i in 0..m {
            let (u, v) = (i % 1000, (i * 7 + 1) % 1000);
            if weighted {
                g.push_weighted(u, v, 0.5 + f64::from(i % 3));
            } else {
                g.push(u, v);
            }
        }
        g
    }

    #[test]
    fn binary_loop_reads_records_across_buffers() {
        for weighted in [false, true] {
            // 20,000 records are 2.4 (unweighted) or 4.9 buffers.
            let path = tmp(&format!("many_{weighted}.bin"));
            let g = many_edges(20_000, weighted);
            write_binary(&path, &g).unwrap();
            let h = read_binary(&path).unwrap();
            assert_eq!(h.edges, g.edges);
            assert_eq!(h.weights, g.weights);
            let mut s = FileStream::open(&path, true).unwrap();
            let mut seen = Vec::new();
            s.for_each_edge(&mut |u, v, w| seen.push((u, v, w)));
            assert!(s.take_error().is_none());
            let want: Vec<_> = (0..g.num_edges())
                .map(|i| (g.edges[i].0, g.edges[i].1, g.weight(i)))
                .collect();
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn binary_loop_rejects_an_out_of_range_id_in_a_later_buffer() {
        // Record 15,000 (in the second buffer) names node 777; the
        // header then claims 500 nodes, which every other id fits.
        let path = tmp("late_oob.bin");
        let mut g = EdgeList::new_undirected(1000);
        for i in 0..20_000u32 {
            g.push(i % 500, (i + 1) % 500);
        }
        g.edges[15_000] = (3, 777);
        write_binary(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&500u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_binary(&path),
            Err(GraphError::NodeOutOfRange {
                node: 777,
                num_nodes: 500
            })
        ));
        assert!(matches!(
            FileStream::open(&path, true),
            Err(GraphError::NodeOutOfRange { node: 777, .. })
        ));
    }
}
