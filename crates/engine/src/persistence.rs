//! Durability layer for named session graphs: per-graph write-ahead
//! logs plus compacted snapshots under a `--data-dir`.
//!
//! ## Layout
//!
//! ```text
//! <data-dir>/
//!   graphs/
//!     <escaped-name>/
//!       name          raw graph name (the dir name is an escaped form)
//!       wal.log       append-only checksummed op records
//!       snapshot.bin  compacted state at some version (tmp+rename)
//! ```
//!
//! The serve layer gives **each shard its own data dir**
//! (`<data-dir>/shard-<i>`), so shards stay lock-free on disk exactly
//! as they are in memory: no two engines ever touch the same file.
//!
//! ## WAL record format (all integers little-endian)
//!
//! | offset | size | field                                        |
//! |--------|------|----------------------------------------------|
//! | 0      | 1    | magic `0xD7`                                 |
//! | 1      | 1    | record-format version (1)                    |
//! | 2      | 2    | reserved (0)                                 |
//! | 4      | 4    | payload length `u32`                         |
//! | 8      | len  | payload: version `u64` + encoded session op  |
//! | 8+len  | 8    | FNV-1a over bytes `0..8+len`                 |
//!
//! The payload's leading `u64` is the catalog version the op published
//! (or would have published): replay assigns exactly those versions, so
//! a restarted server resumes at the version it crashed at and versions
//! stay monotonic across restarts — the result cache and warm-seed
//! invariants assume they never regress.
//!
//! A torn tail (partial header, short payload, or checksum mismatch on
//! the **last** record) is dropped whole — an op is never half-replayed
//! — and the file is truncated back to the good prefix so the next
//! append lands after intact records. Corruption *before* the tail
//! (checksum mismatch followed by more intact bytes) also truncates
//! there: everything after a bad record is unreachable because record
//! boundaries can no longer be trusted.
//!
//! ## Snapshots
//!
//! Every `snapshot_every` appended records the graph's compacted state
//! is written to `snapshot.tmp`, fsynced, renamed over `snapshot.bin`,
//! and the WAL is truncated. Replay loads the snapshot first and then
//! applies only WAL records with `version > snapshot.version`, so a
//! crash anywhere in the rotation sequence recovers correctly: records
//! the snapshot already covers are skipped, never double-applied.
//!
//! ## fsync policy
//!
//! `--fsync-every N` fsyncs the WAL after every Nth appended record
//! (default 1; 0 disables explicit fsync). A `kill -9` keeps the page
//! cache, so crash-recovery holds at any setting; the fsync cadence is
//! the power-loss durability bound. fsync happens on catalog mutation
//! paths only — the I/O event loop that runs the mutation inline calls
//! into them — and dsg-lint's hot-path rule keeps the serve code itself
//! from ever calling it.
//!
//! ## Crash-injection hook
//!
//! `DSG_CRASH_AFTER_BYTES=<n>` makes the process abort once `n`
//! cumulative WAL bytes have been written, tearing the record that
//! crosses the boundary mid-append. The crash-recovery CI lane uses it
//! to test torn-tail recovery with a real `kill`-like exit; without the
//! variable the hook is inert.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dsg_graph::wal::SessionOp;
use dsg_graph::{DeltaGraph, EdgeList, GraphKind};

use crate::catalog::fnv1a;

/// First byte of every WAL record (distinct from the frame codec's
/// `0xD5` so a WAL file can never be mistaken for a wire capture).
pub const WAL_MAGIC: u8 = 0xD7;
/// First byte of a snapshot file.
pub const SNAPSHOT_MAGIC: u8 = 0xD8;
/// Record/snapshot format version.
pub const WAL_FORMAT_VERSION: u8 = 1;
/// Bytes before the payload of a WAL record.
pub const WAL_HEADER_LEN: usize = 8;
/// Trailing checksum bytes of a WAL record.
pub const WAL_TRAILER_LEN: usize = 8;
/// Hard cap on one record's payload — matches the wire frame cap, and a
/// serve mutation can never exceed one request frame.
pub const MAX_WAL_PAYLOAD: usize = 16 * 1024 * 1024;

/// Default snapshot cadence: compact to `snapshot.bin` and truncate the
/// WAL every this many appended records.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;
/// Default fsync cadence: fsync after every appended record.
pub const DEFAULT_FSYNC_EVERY: u64 = 1;

fn io_err(what: &str, e: std::io::Error) -> crate::error::EngineError {
    crate::error::EngineError::Persistence(format!("{what}: {e}"))
}

/// Escapes a graph name into a filesystem-safe directory name:
/// `[A-Za-z0-9_-]` pass through, everything else becomes `%XX`. The
/// authoritative name is stored in the dir's `name` file; the escaped
/// form only needs to be injective.
pub fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Crash-injection hook
// ---------------------------------------------------------------------

/// Cumulative WAL bytes budget parsed once from `DSG_CRASH_AFTER_BYTES`.
fn crash_budget() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("DSG_CRASH_AFTER_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
    })
}

/// Cumulative WAL bytes written by this process (all graphs, all
/// shards) — the crash hook's clock.
static WAL_BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `file`, aborting the process mid-write when the
/// crash budget is crossed: only the prefix up to the budget reaches
/// the file (flushed so the torn record is really on disk), then
/// `abort()` — indistinguishable from a `kill -9` landing between two
/// `write(2)` calls of one append.
fn write_with_crash_hook(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(budget) = crash_budget() {
        let before = WAL_BYTES_WRITTEN.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if before < budget && budget < before + bytes.len() as u64 {
            let keep = (budget - before) as usize;
            file.write_all(&bytes[..keep])?;
            let _ = file.sync_all();
            std::process::abort();
        }
        if before >= budget {
            // Budget already spent: abort before writing anything, so a
            // tiny budget also tears the very first record cleanly.
            std::process::abort();
        }
    }
    file.write_all(bytes)
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// Encodes one `(version, op)` record into `out`.
pub fn encode_record(version: u64, op: &SessionOp<'_>, out: &mut Vec<u8>) {
    let start = out.len();
    out.push(WAL_MAGIC);
    out.push(WAL_FORMAT_VERSION);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    out.extend_from_slice(&version.to_le_bytes());
    op.encode_into(out);
    let payload_len = (out.len() - start - WAL_HEADER_LEN) as u32;
    out[start + 4..start + 8].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// One decoded WAL record.
#[derive(Debug)]
pub struct WalRecord {
    /// The catalog version this op published.
    pub version: u64,
    /// The op itself.
    pub op: SessionOp<'static>,
    /// Total encoded length (header + payload + checksum).
    pub len: usize,
}

/// Why `decode_record` stopped.
#[derive(Debug)]
pub enum WalDecodeError {
    /// The buffer ends mid-record: a truncated tail (or more bytes are
    /// on the way, for streaming callers).
    Truncated,
    /// The bytes at the cursor are not a valid record (bad magic,
    /// unsupported format version, oversized length, checksum mismatch,
    /// or an undecodable op payload).
    Corrupt(String),
}

/// Decodes the record at the start of `buf`.
pub fn decode_record(buf: &[u8]) -> Result<WalRecord, WalDecodeError> {
    if buf.len() < WAL_HEADER_LEN {
        return Err(WalDecodeError::Truncated);
    }
    if buf[0] != WAL_MAGIC {
        return Err(WalDecodeError::Corrupt(format!(
            "bad record magic 0x{:02X}",
            buf[0]
        )));
    }
    if buf[1] != WAL_FORMAT_VERSION {
        return Err(WalDecodeError::Corrupt(format!(
            "unsupported record format version {}",
            buf[1]
        )));
    }
    let payload_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if payload_len > MAX_WAL_PAYLOAD {
        return Err(WalDecodeError::Corrupt(format!(
            "record payload {payload_len} exceeds cap {MAX_WAL_PAYLOAD}"
        )));
    }
    if payload_len < 8 {
        return Err(WalDecodeError::Corrupt(format!(
            "record payload {payload_len} shorter than its version stamp"
        )));
    }
    let total = WAL_HEADER_LEN + payload_len + WAL_TRAILER_LEN;
    if buf.len() < total {
        return Err(WalDecodeError::Truncated);
    }
    let body_end = WAL_HEADER_LEN + payload_len;
    let stored = u64::from_le_bytes(buf[body_end..total].try_into().expect("trailer is 8 bytes"));
    if fnv1a(&buf[..body_end]) != stored {
        return Err(WalDecodeError::Corrupt("record checksum mismatch".into()));
    }
    let payload = &buf[WAL_HEADER_LEN..body_end];
    let version = u64::from_le_bytes(payload[..8].try_into().expect("version stamp is 8 bytes"));
    let op = SessionOp::decode(&payload[8..])
        .map_err(|e| WalDecodeError::Corrupt(format!("undecodable op: {e}")))?;
    Ok(WalRecord {
        version,
        op,
        len: total,
    })
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------

/// Encodes a snapshot file: `[magic, fmt, 0, 0]`, version `u64`, kind
/// `u8`, `num_nodes u32`, `edge_count u32`, pairs, FNV-1a trailer.
fn encode_snapshot(version: u64, state: &DeltaGraph, out: &mut Vec<u8>) {
    let list = state.materialize();
    out.push(SNAPSHOT_MAGIC);
    out.push(WAL_FORMAT_VERSION);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(match list.kind {
        GraphKind::Undirected => 0,
        GraphKind::Directed => 1,
    });
    out.extend_from_slice(&list.num_nodes.to_le_bytes());
    out.extend_from_slice(&(list.edges.len() as u32).to_le_bytes());
    for &(u, v) in &list.edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    let sum = fnv1a(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Decodes a snapshot file into `(version, state)`. Any structural
/// problem — short file, bad magic, checksum mismatch — is an error;
/// recovery treats it as "no snapshot" (the WAL still replays).
fn decode_snapshot(bytes: &[u8]) -> Result<(u64, DeltaGraph), String> {
    const FIXED: usize = 4 + 8 + 1 + 4 + 4;
    if bytes.len() < FIXED + 8 {
        return Err("snapshot file shorter than its fixed header".into());
    }
    if bytes[0] != SNAPSHOT_MAGIC {
        return Err(format!("bad snapshot magic 0x{:02X}", bytes[0]));
    }
    if bytes[1] != WAL_FORMAT_VERSION {
        return Err(format!("unsupported snapshot format version {}", bytes[1]));
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("trailer is 8 bytes"));
    if fnv1a(&bytes[..body_end]) != stored {
        return Err("snapshot checksum mismatch".into());
    }
    let version = u64::from_le_bytes(bytes[4..12].try_into().expect("fixed header"));
    let kind = match bytes[12] {
        0 => GraphKind::Undirected,
        1 => GraphKind::Directed,
        other => return Err(format!("unknown snapshot graph kind byte {other}")),
    };
    let num_nodes = u32::from_le_bytes(bytes[13..17].try_into().expect("fixed header"));
    let count = u32::from_le_bytes(bytes[17..21].try_into().expect("fixed header")) as usize;
    if body_end - FIXED != count * 8 {
        return Err(format!(
            "snapshot edge section is {} bytes, expected {}",
            body_end - FIXED,
            count * 8
        ));
    }
    let mut edges = Vec::with_capacity(count);
    let mut at = FIXED;
    for _ in 0..count {
        let u = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("edge pair"));
        let v = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("edge pair"));
        edges.push((u, v));
        at += 8;
    }
    // The snapshot holds the materialized state, which becomes the new
    // base with the header's node count. The count is not implied by the
    // edges: ids never shrink, so an edge to a new id that was added and
    // then removed leaves trailing isolated nodes that density
    // denominators include. `DeltaGraph::new` rejects an edge naming an
    // id at or past that count.
    let list = EdgeList {
        num_nodes,
        edges,
        weights: None,
        kind,
    };
    let state = DeltaGraph::new(list).map_err(|e| format!("snapshot edges rejected: {e}"))?;
    Ok((version, state))
}

// ---------------------------------------------------------------------
// Per-graph WAL handle
// ---------------------------------------------------------------------

/// Point-in-time durability counters of one graph's WAL.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes currently in `wal.log` (since the last snapshot rotation).
    pub wal_bytes: u64,
    /// Version the current `snapshot.bin` holds (0 = none yet).
    pub snapshot_version: u64,
    /// Total records covered by the last fsync (monotone; equals the
    /// total appended records when `fsync_every == 1`).
    pub last_fsync: u64,
}

/// The append handle for one graph's WAL directory. Owned by the
/// graph's `NamedGraph.wal` mutex; all I/O happens under that guard,
/// which is only ever taken while holding the graph's state mutex (the
/// registered `NamedGraph.state < NamedGraph.wal`-as-leaf order).
#[derive(Debug)]
pub struct GraphWal {
    dir: PathBuf,
    file: File,
    fsync_every: u64,
    snapshot_every: u64,
    wal_bytes: u64,
    /// Records appended over this handle's lifetime plus the replayed
    /// prefix it opened on — the fsync cadence clock.
    records: u64,
    records_since_snapshot: u64,
    last_fsync_records: u64,
    snapshot_version: u64,
    buf: Vec<u8>,
}

impl GraphWal {
    /// Appends one `(version, op)` record, applies the fsync policy, and
    /// rotates a snapshot when the cadence says so. `state` is the
    /// post-op state (used only when this append triggers a rotation).
    pub fn append(
        &mut self,
        version: u64,
        op: &SessionOp<'_>,
        state: &DeltaGraph,
    ) -> crate::error::Result<()> {
        self.buf.clear();
        encode_record(version, op, &mut self.buf);
        write_with_crash_hook(&mut self.file, &self.buf).map_err(|e| io_err("wal append", e))?;
        self.wal_bytes += self.buf.len() as u64;
        self.records += 1;
        self.records_since_snapshot += 1;
        if self.fsync_every > 0 && self.records.is_multiple_of(self.fsync_every) {
            self.file.sync_all().map_err(|e| io_err("wal fsync", e))?;
            self.last_fsync_records = self.records;
        }
        if self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every {
            self.rotate_snapshot(version, state)?;
        }
        Ok(())
    }

    /// Writes the compacted state to `snapshot.tmp`, fsyncs, renames
    /// over `snapshot.bin`, and truncates the WAL. Crash-safe at every
    /// step: replay skips records `<= snapshot.version`, so an old WAL
    /// surviving next to a new snapshot never double-applies.
    fn rotate_snapshot(&mut self, version: u64, state: &DeltaGraph) -> crate::error::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let fin = self.dir.join("snapshot.bin");
        let mut bytes = Vec::new();
        encode_snapshot(version, state, &mut bytes);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("snapshot create", e))?;
            f.write_all(&bytes)
                .map_err(|e| io_err("snapshot write", e))?;
            f.sync_all().map_err(|e| io_err("snapshot fsync", e))?;
        }
        std::fs::rename(&tmp, &fin).map_err(|e| io_err("snapshot rename", e))?;
        sync_dir(&self.dir);
        self.snapshot_version = version;
        self.file
            .set_len(0)
            .map_err(|e| io_err("wal truncate", e))?;
        if self.fsync_every > 0 {
            let _ = self.file.sync_all();
        }
        self.wal_bytes = 0;
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Current durability counters. (Named `wal_stats`, not `stats`, so
    /// dsg-lint's name-based call resolution cannot confuse it with
    /// `NamedGraph::stats` when called under the `NamedGraph.wal`
    /// guard.)
    pub fn wal_stats(&self) -> WalStats {
        WalStats {
            wal_bytes: self.wal_bytes,
            snapshot_version: self.snapshot_version,
            last_fsync: self.last_fsync_records,
        }
    }
}

/// Best-effort directory fsync (makes a rename durable on POSIX; some
/// filesystems refuse fsync on directories, which is fine to ignore).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------
// Data-dir handle + recovery
// ---------------------------------------------------------------------

/// Catalog-level durability configuration: where graph dirs live and
/// the append policies every [`GraphWal`] is opened with.
#[derive(Debug)]
pub struct Durability {
    root: PathBuf,
    fsync_every: u64,
    snapshot_every: u64,
}

/// What recovery found in a data dir.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Graphs restored into the catalog.
    pub graphs: u64,
    /// WAL records replayed over snapshots (across all graphs).
    pub replayed_ops: u64,
    /// Torn/corrupt tails dropped (at most one per graph per restart).
    pub dropped_tail_records: u64,
    /// Highest version seen — the restored version-counter floor.
    pub max_version: u64,
}

/// One graph restored from disk, ready to become a catalog entry.
pub struct RecoveredGraph {
    /// The authoritative name (from the dir's `name` file).
    pub name: String,
    /// Rebuilt session state (snapshot + replayed WAL tail).
    pub state: DeltaGraph,
    /// The version the graph was at when the process died.
    pub version: u64,
    /// The open append handle, positioned after the intact prefix.
    pub wal: GraphWal,
    /// Records replayed for this graph.
    pub replayed_ops: u64,
    /// 1 if a torn/corrupt tail was dropped for this graph.
    pub dropped_tail_records: u64,
}

impl Durability {
    /// Creates the handle and the `graphs/` tree.
    pub fn open(
        root: &Path,
        fsync_every: u64,
        snapshot_every: u64,
    ) -> crate::error::Result<Durability> {
        std::fs::create_dir_all(root.join("graphs")).map_err(|e| io_err("create data dir", e))?;
        Ok(Durability {
            root: root.to_path_buf(),
            fsync_every,
            snapshot_every,
        })
    }

    /// The data-dir root this handle writes under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Creates (or wipes and re-creates) the directory for a new graph
    /// and returns its open WAL handle. Called on the `create_graph`
    /// path under the catalog's map write lock, so two racing creates
    /// of one name cannot both wipe the dir; a leftover dir from an
    /// evicted or crashed-before-publish graph is reset here.
    pub fn create_graph_wal(&self, name: &str) -> crate::error::Result<GraphWal> {
        let dir = self.root.join("graphs").join(escape_name(name));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io_err("reset graph dir", e))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create graph dir", e))?;
        let name_path = dir.join("name");
        let mut f = File::create(&name_path).map_err(|e| io_err("write name file", e))?;
        f.write_all(name.as_bytes())
            .map_err(|e| io_err("write name file", e))?;
        f.sync_all().map_err(|e| io_err("fsync name file", e))?;
        sync_dir(&dir);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.log"))
            .map_err(|e| io_err("open wal", e))?;
        Ok(GraphWal {
            dir,
            file,
            fsync_every: self.fsync_every,
            snapshot_every: self.snapshot_every,
            wal_bytes: 0,
            records: 0,
            records_since_snapshot: 0,
            last_fsync_records: 0,
            snapshot_version: 0,
            buf: Vec::new(),
        })
    }

    /// Permanently removes a graph's directory (drop path). Best-effort:
    /// a failure leaves the dir to be resurrected or wiped later.
    pub fn remove_graph_dir(&self, name: &str) {
        let dir = self.root.join("graphs").join(escape_name(name));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scans `graphs/` and rebuilds every recoverable graph:
    /// snapshot first, then the WAL records with `version >
    /// snapshot.version`, stopping at (and truncating) the first torn or
    /// corrupt record. A dir with no name file or no intact create
    /// lineage — a crash before the create record survived — is skipped:
    /// that create was never acknowledged, so the pre-op state is "the
    /// graph does not exist".
    pub fn recover(&self) -> crate::error::Result<Vec<RecoveredGraph>> {
        let graphs_root = self.root.join("graphs");
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&graphs_root).map_err(|e| io_err("scan data dir", e))?;
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            if let Some(g) = self.recover_one(&dir)? {
                out.push(g);
            }
        }
        Ok(out)
    }

    fn recover_one(&self, dir: &Path) -> crate::error::Result<Option<RecoveredGraph>> {
        let name = match std::fs::read(dir.join("name")) {
            Ok(bytes) => match String::from_utf8(bytes) {
                Ok(s) if !s.is_empty() => s,
                _ => return Ok(None),
            },
            Err(_) => return Ok(None), // crashed before the name file: unborn
        };
        // Snapshot (optional; corrupt == absent, the WAL still replays).
        let mut state: Option<DeltaGraph> = None;
        let mut version = 0u64;
        let mut snapshot_version = 0u64;
        if let Ok(bytes) = std::fs::read(dir.join("snapshot.bin")) {
            match decode_snapshot(&bytes) {
                Ok((v, s)) => {
                    state = Some(s);
                    version = v;
                    snapshot_version = v;
                }
                Err(_) => {
                    // Unreadable snapshot: fall back to pure WAL replay.
                    // (If the WAL was already truncated past the create
                    // record the graph is unrecoverable and skipped —
                    // surfacing that distinctly is a ROADMAP item.)
                }
            }
        }
        // WAL replay.
        let wal_path = dir.join("wal.log");
        let mut wal_bytes_buf = Vec::new();
        if let Ok(mut f) = File::open(&wal_path) {
            let _ = f.read_to_end(&mut wal_bytes_buf);
        }
        let mut at = 0usize;
        let mut replayed = 0u64;
        let mut dropped_tail = 0u64;
        let mut records = 0u64;
        while at < wal_bytes_buf.len() {
            match decode_record(&wal_bytes_buf[at..]) {
                Ok(rec) => {
                    at += rec.len;
                    if rec.version <= snapshot_version {
                        // Already folded into the snapshot (crash midway
                        // through a rotation left the old WAL behind).
                        continue;
                    }
                    let state_ref = match (&mut state, &rec.op) {
                        (None, SessionOp::Create { .. }) => {
                            state = Some(DeltaGraph::new_empty(GraphKind::Undirected));
                            state.as_mut().expect("just set")
                        }
                        (None, _) => {
                            // Ops before any create lineage: the dir was
                            // reset mid-create. Unrecoverable records.
                            break;
                        }
                        (Some(s), _) => s,
                    };
                    rec.op.replay(state_ref).map_err(|e| {
                        crate::error::EngineError::Persistence(format!(
                            "replay of '{name}' failed: {e}"
                        ))
                    })?;
                    version = rec.version;
                    replayed += 1;
                    records += 1;
                }
                Err(WalDecodeError::Truncated) | Err(WalDecodeError::Corrupt(_)) => {
                    // Torn tail (or untrusted remainder): drop it whole
                    // and truncate so future appends land after the
                    // intact prefix.
                    dropped_tail = 1;
                    break;
                }
            }
        }
        let state = match state {
            Some(s) => s,
            None => return Ok(None), // nothing intact: unborn graph
        };
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("reopen wal", e))?;
        if (at as u64)
            < std::fs::metadata(&wal_path)
                .map_err(|e| io_err("stat wal", e))?
                .len()
        {
            file.set_len(at as u64)
                .map_err(|e| io_err("truncate torn wal tail", e))?;
            let _ = file.sync_all();
        }
        let wal = GraphWal {
            dir: dir.to_path_buf(),
            file,
            fsync_every: self.fsync_every,
            snapshot_every: self.snapshot_every,
            wal_bytes: at as u64,
            records,
            records_since_snapshot: records,
            last_fsync_records: records,
            snapshot_version,
            buf: Vec::new(),
        };
        Ok(Some(RecoveredGraph {
            name,
            state,
            version,
            wal,
            replayed_ops: replayed,
            dropped_tail_records: dropped_tail,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dsg-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn op_add(edges: Vec<(u32, u32)>) -> SessionOp<'static> {
        SessionOp::Add(Cow::Owned(edges))
    }

    #[test]
    fn record_roundtrip_and_checksum() {
        let mut buf = Vec::new();
        encode_record(7, &op_add(vec![(1, 2), (3, 4)]), &mut buf);
        let rec = decode_record(&buf).unwrap();
        assert_eq!(rec.version, 7);
        assert_eq!(rec.len, buf.len());
        assert_eq!(rec.op.edges(), &[(1, 2), (3, 4)]);
        // Flip one payload byte: checksum must catch it.
        let mut bad = buf.clone();
        bad[WAL_HEADER_LEN + 3] ^= 0xFF;
        assert!(matches!(
            decode_record(&bad),
            Err(WalDecodeError::Corrupt(_))
        ));
        // Every strict prefix is Truncated or Corrupt, never Ok.
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wal_append_replay_roundtrip() {
        let root = tmpdir("roundtrip");
        let d = Durability::open(&root, 1, 1_000).unwrap();
        let mut live = DeltaGraph::new_empty(GraphKind::Undirected);
        let mut wal = d.create_graph_wal("g").unwrap();
        let script: Vec<SessionOp<'static>> = vec![
            SessionOp::Create {
                kind: GraphKind::Undirected,
                edges: Cow::Owned(vec![(0, 1), (1, 2)]),
            },
            op_add(vec![(2, 3)]),
            SessionOp::Remove(Cow::Owned(vec![(0, 1)])),
            SessionOp::Compact,
        ];
        for (i, op) in script.iter().enumerate() {
            op.replay(&mut live).unwrap();
            wal.append(i as u64 + 1, op, &live).unwrap();
        }
        drop(wal);
        let recovered = d.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        let g = &recovered[0];
        assert_eq!(g.name, "g");
        assert_eq!(g.version, script.len() as u64);
        assert_eq!(g.replayed_ops, script.len() as u64);
        assert_eq!(g.dropped_tail_records, 0);
        let mut a = live.materialize();
        a.canonicalize();
        let mut b = g.state.materialize();
        b.canonicalize();
        assert_eq!(a.edges, b.edges);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let root = tmpdir("torn");
        let d = Durability::open(&root, 1, 1_000).unwrap();
        let mut live = DeltaGraph::new_empty(GraphKind::Undirected);
        let mut wal = d.create_graph_wal("g").unwrap();
        let create = SessionOp::Create {
            kind: GraphKind::Undirected,
            edges: Cow::Owned(vec![(0, 1)]),
        };
        create.replay(&mut live).unwrap();
        wal.append(1, &create, &live).unwrap();
        let add = op_add(vec![(1, 2)]);
        add.replay(&mut live).unwrap();
        wal.append(2, &add, &live).unwrap();
        drop(wal);
        let wal_path = root.join("graphs").join("g").join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        // Tear the second record at every possible boundary: recovery
        // must always see exactly the first op and truncate the file.
        let first_len = decode_record(&full).unwrap().len;
        for cut in first_len..full.len() {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let recovered = d.recover().unwrap();
            assert_eq!(recovered.len(), 1, "cut {cut}");
            let g = &recovered[0];
            let expected_tail = (cut != first_len) as u64;
            assert_eq!(g.dropped_tail_records, expected_tail, "cut {cut}");
            assert_eq!(g.version, 1, "cut {cut}");
            assert_eq!(g.replayed_ops, 1, "cut {cut}");
            assert_eq!(
                std::fs::metadata(&wal_path).unwrap().len(),
                first_len as u64,
                "cut {cut}: torn tail must be truncated"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_rotation_skips_covered_records() {
        let root = tmpdir("rotate");
        // Snapshot every 2 records.
        let d = Durability::open(&root, 1, 2).unwrap();
        let mut live = DeltaGraph::new_empty(GraphKind::Undirected);
        let mut wal = d.create_graph_wal("g").unwrap();
        let mut version = 0u64;
        let script: Vec<SessionOp<'static>> = vec![
            SessionOp::Create {
                kind: GraphKind::Undirected,
                edges: Cow::Owned(vec![(0, 1)]),
            },
            op_add(vec![(1, 2)]),
            op_add(vec![(2, 3)]),
            op_add(vec![(3, 4)]),
            op_add(vec![(4, 5)]),
        ];
        for op in &script {
            op.replay(&mut live).unwrap();
            version += 1;
            wal.append(version, op, &live).unwrap();
        }
        let stats = wal.wal_stats();
        assert!(stats.snapshot_version >= 2, "rotation must have happened");
        drop(wal);
        let recovered = d.recover().unwrap();
        let g = &recovered[0];
        assert_eq!(g.version, script.len() as u64);
        let mut a = live.materialize();
        a.canonicalize();
        let mut b = g.state.materialize();
        b.canonicalize();
        assert_eq!(a.edges, b.edges);
        // Appends keep working after recovery at the right version.
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_node_count_comes_from_the_header() {
        let mut state = DeltaGraph::new_empty(GraphKind::Undirected);
        state.add_edges(&[(0, 1), (1, 2), (2, 9)]).unwrap();
        state.remove_edges(&[(2, 9)]);
        let mut bytes = Vec::new();
        encode_snapshot(7, &state, &mut bytes);
        let (version, decoded) = decode_snapshot(&bytes).unwrap();
        assert_eq!(version, 7);
        assert_eq!(decoded.num_nodes(), 10, "trailing isolated nodes kept");
        assert_eq!(decoded.content_hash(), state.content_hash());
        // A header whose node count the edges exceed is rejected, even
        // under a valid checksum.
        bytes[13..17].copy_from_slice(&2u32.to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn unborn_graph_dirs_are_skipped() {
        let root = tmpdir("unborn");
        let d = Durability::open(&root, 1, 100).unwrap();
        // Dir with a name file but no WAL bytes: crash before the
        // create record — the graph never existed.
        let dir = root.join("graphs").join("ghost");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("name"), b"ghost").unwrap();
        std::fs::write(dir.join("wal.log"), b"").unwrap();
        // Dir with no name file at all.
        std::fs::create_dir_all(root.join("graphs").join("junk")).unwrap();
        assert!(d.recover().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn escape_name_is_injective_on_tricky_names() {
        let names = ["a/b", "a%2Fb", "a b", "a.b", "ABC-123_x", "…"];
        let mut seen = std::collections::HashSet::new();
        for n in names {
            let e = escape_name(n);
            assert!(
                e.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "{e}"
            );
            assert!(seen.insert(e), "collision on {n}");
        }
    }
}
