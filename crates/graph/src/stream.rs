//! The multi-pass semi-streaming model.
//!
//! In the semi-streaming model (\[18\] in the paper) the node set is known in
//! advance and fits in RAM, while the edges can only be read sequentially,
//! one pass at a time. An [`EdgeStream`] encapsulates exactly that: the
//! algorithm calls [`EdgeStream::for_each_edge`] once per pass and the
//! stream hands every edge to the callback in storage order. The stream
//! counts passes so experiments can report the paper's headline metric.
//!
//! Implementations:
//! * [`MemoryStream`] — edges held in RAM (fast experiments).
//! * [`TextFileStream`] — re-reads a SNAP-style text edge list from disk on
//!   every pass (true out-of-core streaming).
//! * [`BinaryFileStream`] — re-reads the compact binary format of
//!   [`crate::io`].
//!
//! Both file streams read through the record loops of [`crate::io`]: one
//! 64 KiB buffer per pass, no allocation per line or record.
//!
//! ## Failure model of the file streams
//!
//! A file stream validates its file when opened, but the file lives
//! outside the process: it can be truncated, rewritten, or deleted
//! between (or during) passes. Such drift is detected — by re-parsing,
//! id bounds checks, and a comparison of each pass's [`EdgeScan`] (edge
//! count and content checksum) with the one taken at open — and surfaces
//! through [`EdgeStream::take_error`] instead of an unwinding panic. A
//! failed pass is **not** counted in [`EdgeStream::passes`], and once a
//! pass has failed the stream feeds no further edges until the error is
//! taken; any results computed across a failed pass must be discarded
//! (see `dsg-core`'s `try_` entry points).

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::edgelist::EdgeList;
use crate::io::{for_each_binary_edge, for_each_text_edge, scan_text, BinaryHeader, EdgeScan};
use crate::{GraphError, Result};

/// A multi-pass stream of (optionally weighted) edges.
///
/// For undirected graphs an edge `(u, v, w)` is an unordered pair reported
/// once in arbitrary orientation; for directed graphs it is the arc
/// `u -> v`. Whether the stream is to be interpreted as directed is up to
/// the consuming algorithm (matching the paper, where the input format is
/// the same and only the algorithm differs).
pub trait EdgeStream {
    /// Number of nodes `n`; node ids in the stream are `< n`.
    fn num_nodes(&self) -> u32;

    /// Makes one full pass over the edges, invoking `f(u, v, w)` per edge.
    fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64));

    /// Number of *successful* passes made so far (failed passes of file
    /// streams are excluded).
    fn passes(&self) -> u64;

    /// Takes the stream's deferred error, if the last pass failed.
    ///
    /// File streams cannot return mid-iteration errors from
    /// [`EdgeStream::for_each_edge`], so an I/O failure or a file
    /// modified between passes parks the error here: the failed pass
    /// delivers a truncated (possibly empty) edge sequence, is not
    /// counted in [`EdgeStream::passes`], and the stream stays inert
    /// until the error is taken. Always-valid streams return `None`.
    fn take_error(&mut self) -> Option<GraphError> {
        None
    }
}

/// In-memory edge stream over an [`EdgeList`].
#[derive(Clone, Debug)]
pub struct MemoryStream {
    list: EdgeList,
    passes: u64,
}

impl MemoryStream {
    /// Wraps an edge list. The list is moved; clone it if still needed.
    pub fn new(list: EdgeList) -> Self {
        MemoryStream { list, passes: 0 }
    }

    /// Read-only access to the underlying list.
    pub fn edge_list(&self) -> &EdgeList {
        &self.list
    }

    /// Consumes the stream, returning the underlying list.
    pub fn into_edge_list(self) -> EdgeList {
        self.list
    }
}

impl EdgeStream for MemoryStream {
    fn num_nodes(&self) -> u32 {
        self.list.num_nodes
    }

    fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64)) {
        self.passes += 1;
        match &self.list.weights {
            None => {
                for &(u, v) in &self.list.edges {
                    f(u, v, 1.0);
                }
            }
            Some(ws) => {
                for (&(u, v), &w) in self.list.edges.iter().zip(ws) {
                    f(u, v, w);
                }
            }
        }
    }

    fn passes(&self) -> u64 {
        self.passes
    }
}

/// Parses one line of a text edge list: `u v [w]`, `#` comments, no
/// trailing tokens. Returns `None` for blank/comment lines, otherwise
/// `Some((u, v, w))` where `w` is `None` when the line had no weight
/// column.
///
/// This is the **only** text-edge grammar in the crate, and the text
/// record loop of [`crate::io`] its one caller: [`crate::io::read_text`]
/// and [`TextFileStream`] both parse through it, so a file loads in
/// memory if and only if it also streams.
pub fn parse_edge_line(line: &str, line_no: u64) -> Result<Option<(u32, u32, Option<f64>)>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32> {
        tok.ok_or_else(|| GraphError::Parse {
            line: line_no,
            msg: format!("missing {what}"),
        })?
        .parse::<u32>()
        .map_err(|e| GraphError::Parse {
            line: line_no,
            msg: format!("bad {what}: {e}"),
        })
    };
    let u = parse_u32(it.next(), "source id")?;
    let v = parse_u32(it.next(), "target id")?;
    let w = match it.next() {
        None => None,
        Some(tok) => Some(tok.parse::<f64>().map_err(|e| GraphError::Parse {
            line: line_no,
            msg: format!("bad weight: {e}"),
        })?),
    };
    if it.next().is_some() {
        return Err(GraphError::Parse {
            line: line_no,
            msg: "trailing tokens".to_string(),
        });
    }
    Ok(Some((u, v, w)))
}

/// What both file streams keep: the validated file, the scan every pass
/// must reproduce, and the pass accounting.
struct FileState {
    path: PathBuf,
    num_nodes: u32,
    scan: EdgeScan,
    passes: u64,
    error: Option<GraphError>,
}

impl FileState {
    fn new(path: PathBuf, num_nodes: u32, scan: EdgeScan) -> Self {
        FileState {
            path,
            num_nodes,
            scan,
            passes: 0,
            error: None,
        }
    }

    fn drift(&self, detail: impl std::fmt::Display) -> GraphError {
        GraphError::Format(format!(
            "edge file {} changed while streaming: {detail} (the pass was aborted and not \
             counted; results computed from it are invalid)",
            self.path.display()
        ))
    }

    /// A record loop's failure mid-pass, as drift.
    fn mid_pass(&self, e: GraphError) -> GraphError {
        match e {
            GraphError::Parse { .. } => self.drift(format_args!("no longer parses ({e})")),
            GraphError::Io(e) => self.drift(format_args!("i/o error mid-pass: {e}")),
            e => self.drift(e),
        }
    }

    /// Runs one pass: `read` reopens the file and runs its record loop,
    /// returning drift errors. The pass counts only if it reproduces the
    /// scan taken at open; otherwise its error is parked for
    /// [`EdgeStream::take_error`].
    fn pass(&mut self, read: impl FnOnce(&Self) -> Result<EdgeScan>) {
        if self.error.is_some() {
            return;
        }
        let checked = read(self).and_then(|scan| {
            if scan.edges != self.scan.edges {
                Err(self.drift(format_args!(
                    "edge count drifted from {} to {}",
                    self.scan.edges, scan.edges
                )))
            } else if scan != self.scan {
                Err(self.drift("edge content drifted"))
            } else {
                Ok(())
            }
        });
        match checked {
            Ok(()) => self.passes += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Streams a SNAP-style whitespace-separated text edge list from disk,
/// re-opening the file on every pass.
///
/// Lines starting with `#` are comments; each data line is `u v` or
/// `u v w` (the grammar of [`parse_edge_line`], shared with
/// [`crate::io::read_text`]). The file is fully validated at
/// construction; a file modified afterwards (TOCTOU drift) is detected
/// mid- or end-of-pass and surfaces through [`EdgeStream::take_error`] —
/// see the [module docs](self) for the failure model.
pub struct TextFileStream {
    state: FileState,
}

impl TextFileStream {
    /// Opens (and fully validates) the file. `num_nodes` must upper-bound
    /// every node id in the file.
    pub fn open<P: AsRef<Path>>(path: P, num_nodes: u32) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let scan = scan_text(&path)?;
        if scan.edges > 0 && scan.max_id >= num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: scan.max_id as u64,
                num_nodes: num_nodes as u64,
            });
        }
        Ok(TextFileStream {
            state: FileState::new(path, num_nodes, scan),
        })
    }

    /// Opens (and fully validates) the file, inferring the node count as
    /// `max id + 1` from the validation scan — the out-of-core CLI path,
    /// which must never materialize the edge list.
    pub fn open_auto<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let scan = scan_text(&path)?;
        Ok(TextFileStream {
            state: FileState::new(path, scan.num_nodes()?, scan),
        })
    }

    /// Number of edges counted by the validation scan.
    pub fn num_edges(&self) -> u64 {
        self.state.scan.edges
    }
}

impl EdgeStream for TextFileStream {
    fn num_nodes(&self) -> u32 {
        self.state.num_nodes
    }

    fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64)) {
        self.state.pass(|s| {
            let file =
                File::open(&s.path).map_err(|e| s.drift(format_args!("cannot reopen: {e}")))?;
            for_each_text_edge(file, |u, v, w| {
                if u >= s.num_nodes || v >= s.num_nodes {
                    return Err(GraphError::NodeOutOfRange {
                        node: u64::from(u.max(v)),
                        num_nodes: u64::from(s.num_nodes),
                    });
                }
                f(u, v, w);
                Ok(())
            })
            .map_err(|e| s.mid_pass(e))
        });
    }

    fn passes(&self) -> u64 {
        self.state.passes
    }

    fn take_error(&mut self) -> Option<GraphError> {
        self.state.error.take()
    }
}

/// Streams the compact binary edge format of [`crate::io::write_binary`].
///
/// Layout: a 16-byte [`BinaryHeader`] followed by `num_edges` records of
/// `u: u32, v: u32` (+ `w: f64` when weighted), all little-endian. Files
/// truncated, rewritten, or deleted after `open` surface through
/// [`EdgeStream::take_error`] — see the [module docs](self).
pub struct BinaryFileStream {
    state: FileState,
    header: BinaryHeader,
}

/// Magic number of the binary edge format (`"DSG1"`).
pub const BINARY_MAGIC: u32 = 0x4453_4731;

impl BinaryFileStream {
    /// Opens a binary edge file and fully validates it: header, length,
    /// node-id bounds of every record, and a content fingerprint that
    /// every later pass is checked against (so a file rewritten even
    /// before the first pass completes is caught). A corrupt file fails
    /// here with a typed error rather than being misreported as drift.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (header, file) = BinaryHeader::read(&path)?;
        let scan = for_each_binary_edge(file, &header, |_, _, _| {})?;
        Ok(BinaryFileStream {
            state: FileState::new(path, header.num_nodes, scan),
            header,
        })
    }

    /// Number of edges recorded in the header.
    pub fn num_edges(&self) -> u64 {
        self.header.num_edges
    }

    /// Whether records carry weights.
    pub fn is_weighted(&self) -> bool {
        self.header.weighted
    }
}

impl EdgeStream for BinaryFileStream {
    fn num_nodes(&self) -> u32 {
        self.state.num_nodes
    }

    fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64)) {
        let expected = self.header;
        self.state.pass(|s| {
            let (header, file) = BinaryHeader::read(&s.path)
                .map_err(|e| s.drift(format_args!("cannot reopen: {e}")))?;
            if header != expected {
                return Err(s.drift("header drifted"));
            }
            for_each_binary_edge(file, &header, f).map_err(|e| s.mid_pass(e))
        });
    }

    fn passes(&self) -> u64 {
        self.state.passes
    }

    fn take_error(&mut self) -> Option<GraphError> {
        self.state.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::io::write_binary;

    fn collect(stream: &mut dyn EdgeStream) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        stream.for_each_edge(&mut |u, v, w| out.push((u, v, w)));
        out
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsg_graph_test_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_stream_counts_passes() {
        let mut list = EdgeList::new_undirected(3);
        list.push(0, 1);
        list.push(1, 2);
        let mut s = MemoryStream::new(list);
        assert_eq!(s.passes(), 0);
        let edges = collect(&mut s);
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(s.passes(), 1);
        collect(&mut s);
        assert_eq!(s.passes(), 2);
        assert!(s.take_error().is_none());
    }

    #[test]
    fn memory_stream_weighted() {
        let mut list = EdgeList::new_undirected(2);
        list.push_weighted(0, 1, 2.5);
        let mut s = MemoryStream::new(list);
        assert_eq!(collect(&mut s), vec![(0, 1, 2.5)]);
    }

    #[test]
    fn parse_edge_line_variants() {
        assert_eq!(parse_edge_line("", 1).unwrap(), None);
        assert_eq!(parse_edge_line("# comment", 1).unwrap(), None);
        assert_eq!(parse_edge_line("3 4", 1).unwrap(), Some((3, 4, None)));
        assert_eq!(
            parse_edge_line("3\t4\t2.5", 1).unwrap(),
            Some((3, 4, Some(2.5)))
        );
        assert!(parse_edge_line("3", 1).is_err());
        assert!(parse_edge_line("a b", 1).is_err());
        assert!(parse_edge_line("1 2 3 4", 1).is_err());
    }

    #[test]
    fn text_file_stream_round_trip() {
        let path = tmp_dir("text").join("edges.txt");
        std::fs::write(&path, "# header\n0 1\n1 2 3.5\n\n2 0\n").unwrap();
        let mut s = TextFileStream::open(&path, 3).unwrap();
        assert_eq!(s.num_edges(), 3);
        let edges = collect(&mut s);
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 3.5), (2, 0, 1.0)]);
        // Second pass sees the same data.
        assert_eq!(collect(&mut s), edges);
        assert_eq!(s.passes(), 2);
        assert!(s.take_error().is_none());
    }

    #[test]
    fn text_file_stream_open_auto_infers_node_count() {
        let path = tmp_dir("text_auto").join("edges.txt");
        std::fs::write(&path, "0 1\n5 2\n").unwrap();
        let s = TextFileStream::open_auto(&path).unwrap();
        assert_eq!(s.num_nodes(), 6);
        assert_eq!(s.num_edges(), 2);

        let empty = tmp_dir("text_auto").join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert_eq!(TextFileStream::open_auto(&empty).unwrap().num_nodes(), 0);

        // `u32::MAX` as a node id would overflow `max id + 1`: a typed
        // error, not an overflow panic (or a wrapped num_nodes of 0).
        let huge = tmp_dir("text_auto").join("huge.txt");
        std::fs::write(&huge, format!("0 {}\n", u32::MAX)).unwrap();
        assert!(matches!(
            TextFileStream::open_auto(&huge),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn text_file_stream_rejects_out_of_range() {
        let path = tmp_dir("text2").join("edges.txt");
        std::fs::write(&path, "0 7\n").unwrap();
        assert!(TextFileStream::open(&path, 3).is_err());
    }

    #[test]
    fn text_file_stream_rejects_garbage() {
        let path = tmp_dir("text3").join("edges.txt");
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        assert!(matches!(
            TextFileStream::open(&path, 3),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn text_file_stream_detects_drift_between_passes() {
        let path = tmp_dir("text_drift").join("edges.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let mut s = TextFileStream::open(&path, 3).unwrap();
        assert_eq!(collect(&mut s).len(), 2);
        assert_eq!(s.passes(), 1);

        // Same edge count, different content: caught by the checksum.
        std::fs::write(&path, "0 1\n0 2\n").unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 1, "aborted pass must not be counted");
        let err = s.take_error().expect("drift must surface an error");
        assert!(err.to_string().contains("changed while streaming"), "{err}");

        // After taking the error the stream recovers against the new file
        // state only if it still matches the validated shape — here it
        // does not (checksum differs), so the next pass errors again.
        collect(&mut s);
        assert_eq!(s.passes(), 1);
        assert!(s.take_error().is_some());
    }

    #[test]
    fn text_file_stream_detects_two_swapped_lines() {
        // Same bytes, edges, ids and weights in another order: only the
        // order-sensitive checksum tells the rewrite apart.
        let path = tmp_dir("text_swap").join("edges.txt");
        std::fs::write(&path, "0 1\n1 2 0.5\n2 0\n").unwrap();
        let mut s = TextFileStream::open(&path, 3).unwrap();
        assert_eq!(collect(&mut s).len(), 3);
        std::fs::write(&path, "1 2 0.5\n0 1\n2 0\n").unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 1, "aborted pass must not be counted");
        let err = s.take_error().expect("a reordered file is drift");
        assert!(err.to_string().contains("edge content drifted"), "{err}");
    }

    #[test]
    fn text_file_stream_detects_deletion_and_garbage_mid_run() {
        let path = tmp_dir("text_drift2").join("edges.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let mut s = TextFileStream::open(&path, 2).unwrap();
        std::fs::write(&path, "junk line\n").unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 0);
        assert!(s.take_error().unwrap().to_string().contains("parses"));

        std::fs::remove_file(&path).unwrap();
        collect(&mut s);
        assert!(s
            .take_error()
            .unwrap()
            .to_string()
            .contains("cannot reopen"));
    }

    #[test]
    fn text_file_stream_detects_out_of_range_drift() {
        // A rewritten file whose ids exceed the validated bound must not
        // reach the callback with an out-of-range id (downstream degree
        // arrays are sized to num_nodes).
        let path = tmp_dir("text_drift3").join("edges.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let mut s = TextFileStream::open(&path, 2).unwrap();
        std::fs::write(&path, "0 9\n").unwrap();
        let mut max_seen = 0u32;
        s.for_each_edge(&mut |u, v, _| max_seen = max_seen.max(u).max(v));
        assert!(max_seen < 2, "out-of-range id leaked to the callback");
        assert!(s.take_error().is_some());
    }

    #[test]
    fn binary_file_stream_checksums_at_open() {
        // The baseline fingerprint comes from the validation scan at
        // open, so a rewrite landing before the first pass completes is
        // already drift — no one-pass blind window.
        let dir = tmp_dir("bin_open");
        let path = dir.join("edges.bin");
        let mut g = EdgeList::new_undirected(4);
        g.push(0, 1);
        g.push(2, 3);
        write_binary(&path, &g).unwrap();
        let mut s = BinaryFileStream::open(&path).unwrap();
        let mut h = EdgeList::new_undirected(4);
        h.push(0, 1);
        h.push(1, 3);
        write_binary(&path, &h).unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 0, "first pass saw rewritten content");
        assert!(s.take_error().is_some());
    }

    #[test]
    fn binary_file_stream_rejects_corrupt_ids_at_open() {
        // A file whose records were always out of range fails open with
        // a typed error — it is corruption, not drift.
        let dir = tmp_dir("bin_corrupt");
        let path = dir.join("edges.bin");
        let mut g = EdgeList::new_undirected(10);
        g.push(0, 9);
        write_binary(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BinaryFileStream::open(&path),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn binary_file_stream_detects_drift() {
        let dir = tmp_dir("bin_drift");
        let path = dir.join("edges.bin");
        let mut g = EdgeList::new_undirected(4);
        g.push(0, 1);
        g.push(2, 3);
        write_binary(&path, &g).unwrap();
        let mut s = BinaryFileStream::open(&path).unwrap();
        assert_eq!(collect(&mut s).len(), 2);
        assert_eq!(s.passes(), 1);

        // Rewrite with the same record count but different content.
        let mut h = EdgeList::new_undirected(4);
        h.push(0, 1);
        h.push(1, 3);
        write_binary(&path, &h).unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 1);
        assert!(s.take_error().is_some());

        // Truncation is caught by the reopen length check.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        collect(&mut s);
        assert_eq!(s.passes(), 1);
        assert!(s
            .take_error()
            .unwrap()
            .to_string()
            .contains("changed while streaming"));
    }
}
