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
//! * [`MemoryStream`] — edges held in RAM, owned or borrowed.
//! * [`FileStream`] — re-reads a text or binary edge file of
//!   [`crate::io`] on every pass (true out-of-core streaming), through
//!   the record loop of its format: one 64 KiB buffer per pass, no
//!   allocation per line or record. Opening one validates the file in
//!   one read; a clone reuses that validation, so p passes over a kept
//!   stream's clone read the file p times.
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

use std::borrow::Cow;
use std::fs::File;
use std::path::{Path, PathBuf};

use crate::edgelist::EdgeList;
use crate::io::{for_each_binary_edge, for_each_text_edge, BinaryHeader, EdgeScan};
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

/// In-memory edge stream over an owned or borrowed [`EdgeList`].
#[derive(Clone, Debug)]
pub struct MemoryStream<'a> {
    list: Cow<'a, EdgeList>,
    passes: u64,
}

impl<'a> MemoryStream<'a> {
    /// Streams a list it owns: the list is moved.
    pub fn new(list: EdgeList) -> Self {
        MemoryStream {
            list: Cow::Owned(list),
            passes: 0,
        }
    }

    /// Streams a list the caller keeps, without copying it.
    pub fn borrowed(list: &'a EdgeList) -> Self {
        MemoryStream {
            list: Cow::Borrowed(list),
            passes: 0,
        }
    }
}

impl EdgeStream for MemoryStream<'_> {
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
/// and a text [`FileStream`] both parse through it, so a file loads in
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

/// Streams an edge file from disk, re-opening it on every pass: a text
/// edge list (the grammar of [`parse_edge_line`]) or the binary format
/// of [`crate::io::write_binary`]. The file is fully validated at
/// [`FileStream::open`]; a file modified afterwards (TOCTOU drift) is
/// detected mid- or end-of-pass and surfaces through
/// [`EdgeStream::take_error`] — see the [module docs](self). A clone
/// keeps the validation and counts its own passes from there.
#[derive(Clone, Debug)]
pub struct FileStream {
    path: PathBuf,
    /// A binary file's header, which every pass must reproduce; `None`
    /// for a text file.
    header: Option<BinaryHeader>,
    num_nodes: u32,
    /// The validation scan, which every pass must reproduce.
    scan: EdgeScan,
    passes: u64,
    error: Option<GraphError>,
}

/// Another name of [`FileStream`], kept with [`FileStream::open_auto`]
/// because the benchmark harness builds against both.
pub type TextFileStream = FileStream;

impl FileStream {
    /// Opens an edge file (binary or text) and fully validates it in one
    /// read: it parses, its ids fit the node count, and a binary file's
    /// length fits its header. Every pass must reproduce the [`EdgeScan`]
    /// taken here, so even a rewrite before the first pass is drift; a
    /// corrupt file fails here with a typed error. The node count is a
    /// binary file's header's, or a text file's `max id + 1`
    /// ([`EdgeScan::num_nodes`]), which [`Self::with_num_nodes`] raises.
    pub fn open<P: AsRef<Path>>(path: P, binary: bool) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (header, num_nodes, scan) = if binary {
            let (header, file) = BinaryHeader::read(&path)?;
            let scan = for_each_binary_edge(file, &header, |_, _, _| {})?;
            (Some(header), header.num_nodes, scan)
        } else {
            let scan = for_each_text_edge(File::open(&path)?, |_, _, _| Ok(()))?;
            (None, scan.num_nodes()?, scan)
        };
        Ok(FileStream {
            path,
            header,
            num_nodes,
            scan,
            passes: 0,
            error: None,
        })
    }

    /// Opens a text file: [`FileStream::open`] with `binary = false`.
    pub fn open_auto<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open(path, false)
    }

    /// Raises the node bound to `num_nodes`, for a text file whose
    /// highest node ids are isolated (no line can name them). A bound
    /// below the current one is [`GraphError::NodeOutOfRange`].
    pub fn with_num_nodes(mut self, num_nodes: u32) -> Result<Self> {
        if num_nodes < self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u64::from(self.num_nodes - 1),
                num_nodes: u64::from(num_nodes),
            });
        }
        self.num_nodes = num_nodes;
        Ok(self)
    }

    /// Number of edges counted by the validation scan.
    pub fn num_edges(&self) -> u64 {
        self.scan.edges
    }

    /// Whether some edge has a weight column (text) or the header says so.
    pub fn is_weighted(&self) -> bool {
        self.scan.weighted
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

    /// Reopens the file and runs its record loop once, feeding `f`.
    /// Returns the pass's scan, or the drift that cut it short.
    fn read_pass(&self, f: &mut dyn FnMut(u32, u32, f64)) -> Result<EdgeScan> {
        let scan = match &self.header {
            None => {
                let file = File::open(&self.path)
                    .map_err(|e| self.drift(format_args!("cannot reopen: {e}")))?;
                let n = self.num_nodes;
                for_each_text_edge(file, |u, v, w| {
                    if u >= n || v >= n {
                        return Err(GraphError::NodeOutOfRange {
                            node: u64::from(u.max(v)),
                            num_nodes: u64::from(n),
                        });
                    }
                    f(u, v, w);
                    Ok(())
                })
            }
            Some(expected) => {
                let (header, file) = BinaryHeader::read(&self.path)
                    .map_err(|e| self.drift(format_args!("cannot reopen: {e}")))?;
                if header != *expected {
                    return Err(self.drift("header drifted"));
                }
                for_each_binary_edge(file, &header, f)
            }
        };
        scan.map_err(|e| self.mid_pass(e))
    }
}

impl EdgeStream for FileStream {
    fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// One pass. It counts only if it reproduces the scan taken at open;
    /// otherwise its error is parked for [`EdgeStream::take_error`].
    fn for_each_edge(&mut self, f: &mut dyn FnMut(u32, u32, f64)) {
        if self.error.is_some() {
            return;
        }
        let checked = self.read_pass(f).and_then(|scan| {
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

    fn passes(&self) -> u64 {
        self.passes
    }

    fn take_error(&mut self) -> Option<GraphError> {
        self.error.take()
    }
}

/// Magic number of the binary edge format (`"DSG1"`).
pub const BINARY_MAGIC: u32 = 0x4453_4731;

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
        let mut s = FileStream::open(&path, false).unwrap();
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
        let s = FileStream::open(&path, false).unwrap();
        assert_eq!(s.num_nodes(), 6);
        assert_eq!(s.num_edges(), 2);

        let empty = tmp_dir("text_auto").join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert_eq!(FileStream::open(&empty, false).unwrap().num_nodes(), 0);

        // `u32::MAX` as a node id would overflow `max id + 1`: a typed
        // error, not an overflow panic (or a wrapped num_nodes of 0).
        let huge = tmp_dir("text_auto").join("huge.txt");
        std::fs::write(&huge, format!("0 {}\n", u32::MAX)).unwrap();
        assert!(matches!(
            FileStream::open(&huge, false),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn text_file_stream_rejects_out_of_range() {
        let path = tmp_dir("text2").join("edges.txt");
        std::fs::write(&path, "0 7\n").unwrap();
        assert!(FileStream::open(&path, false)
            .and_then(|s| s.with_num_nodes(3))
            .is_err());
    }

    #[test]
    fn text_file_stream_rejects_garbage() {
        let path = tmp_dir("text3").join("edges.txt");
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        assert!(matches!(
            FileStream::open(&path, false),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn text_file_stream_detects_drift_between_passes() {
        let path = tmp_dir("text_drift").join("edges.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let mut s = FileStream::open(&path, false).unwrap();
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
        let mut s = FileStream::open(&path, false).unwrap();
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
        let mut s = FileStream::open(&path, false).unwrap();
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
        let mut s = FileStream::open(&path, false).unwrap();
        std::fs::write(&path, "0 9\n").unwrap();
        let mut max_seen = 0u32;
        s.for_each_edge(&mut |u, v, _| max_seen = max_seen.max(u).max(v));
        assert!(max_seen < 2, "out-of-range id leaked to the callback");
        assert!(s.take_error().is_some());
    }

    #[test]
    fn a_clone_streams_on_its_originals_validation() {
        // A clone reads the file once per pass and never re-validates
        // it: a same-length rewrite after the original's open is drift
        // in the clone's first pass, in both formats.
        let dir = tmp_dir("clone");
        let text = dir.join("edges.txt");
        std::fs::write(&text, "0 1\n1 2\n").unwrap();
        let bin = dir.join("edges.bin");
        let mut g = EdgeList::new_undirected(3);
        g.push(0, 1);
        g.push(1, 2);
        write_binary(&bin, &g).unwrap();
        for (path, binary) in [(&text, false), (&bin, true)] {
            let validated = FileStream::open(path, binary).unwrap();
            let mut first = validated.clone();
            assert_eq!(collect(&mut first).len(), 2);
            assert_eq!((first.passes(), validated.passes()), (1, 0));
            if binary {
                g.edges[1] = (0, 2);
                write_binary(path, &g).unwrap();
            } else {
                std::fs::write(path, "0 1\n0 2\n").unwrap();
            }
            let mut second = validated.clone();
            collect(&mut second);
            assert_eq!(second.passes(), 0, "binary {binary}");
            let err = second
                .take_error()
                .expect("the clone checks the original's scan");
            assert!(err.to_string().contains("edge content drifted"), "{err}");
        }
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
        let mut s = FileStream::open(&path, true).unwrap();
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
            FileStream::open(&path, true),
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
        let mut s = FileStream::open(&path, true).unwrap();
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
