//! The binary wire codec of the serve protocol: length-prefixed frames
//! negotiated per connection next to the line-delimited JSONL mode.
//!
//! ## Negotiation
//!
//! The first byte a connection sends picks its transport for the whole
//! session: [`MAGIC`] (`0xD5`, not valid UTF-8 as a JSON opener) selects
//! binary frames, anything else — in practice `{` — selects the JSONL
//! path, so every pre-existing client keeps working unchanged against a
//! server that speaks both.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       1     magic      0xD5
//! 1       1     version    1
//! 2       1     opcode     request kind / 0x81 reply (see [`Opcode`])
//! 3       1     reserved   must be 0
//! 4       4     length     payload bytes, u32 little-endian
//! 8       n     payload
//! ```
//!
//! A **request payload** is a flat field list mirroring the JSONL
//! request object (the `op` key is the opcode, everything else is a
//! tagged field): `[key][type][data]…` where `key` is a registered tag
//! byte (or `0xFF` + u16 length + UTF-8 bytes for unregistered keys) and
//! `type`/`data` encode the same scalar values the JSONL schema allows —
//! null, booleans, f64 little-endian, length-prefixed UTF-8 strings.
//! A **reply payload** is the UTF-8 JSON response object, byte-identical
//! to the line the JSONL path would have written (minus the trailing
//! newline) — the parity smoke tests decode both and compare.
//!
//! A [`Opcode::Batch`] request pipelines N requests in one frame:
//! `[opcode][u32 length][payload]…` — the server answers each item with
//! its own reply frame, in order, without waiting for the client to
//! read between them.
//!
//! ## Hostile input
//!
//! Decoding never panics and never allocates ahead of validation: a
//! length prefix above the frame-size cap is rejected **before** any
//! buffer grows ([`FrameError::Oversized`]), truncated input inside a
//! complete frame's payload is a typed [`FrameError::Truncated`], and a
//! truncated frame *prefix* is reported as "incomplete" (`Ok(None)` from
//! [`decode_frame`]) so stream readers just wait for more bytes. The
//! property suite in `crates/engine/tests/frame_props.rs` fuzzes these
//! contracts the same way `minijson_props.rs` fuzzes the JSON parser.

use crate::minijson::{FieldScratch, Value};

/// First byte of every binary frame; never the first byte of a JSONL
/// request (those start with `{` or whitespace), so one `read` settles
/// the transport.
pub const MAGIC: u8 = 0xD5;

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Bytes of the fixed frame header (magic, version, opcode, reserved,
/// u32 length).
pub const HEADER_LEN: usize = 8;

/// Default frame-size cap: a hostile 4-byte length prefix can never
/// make the decoder allocate more than this.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame kinds. Requests mirror the JSONL `op` values one-to-one;
/// [`Opcode::Batch`] carries N pipelined requests; [`Opcode::Reply`] is
/// the single response kind (its payload says `ok` or carries the error,
/// exactly like a JSONL response line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opcode {
    /// A density query (`"op":"query"`).
    Query,
    /// Server counters (`"op":"stats"`).
    Stats,
    /// Graceful shutdown (`"op":"shutdown"`).
    Shutdown,
    /// Create a named session graph (`"op":"create_graph"`).
    CreateGraph,
    /// Add edges to a session graph (`"op":"add_edges"`).
    AddEdges,
    /// Remove edges from a session graph (`"op":"remove_edges"`).
    RemoveEdges,
    /// Compact a session graph's delta log (`"op":"compact"`).
    Compact,
    /// N pipelined requests in one frame.
    Batch,
    /// A response frame (payload = the JSON response object).
    Reply,
}

impl Opcode {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        match self {
            Opcode::Query => 0x01,
            Opcode::Stats => 0x02,
            Opcode::Shutdown => 0x03,
            Opcode::CreateGraph => 0x04,
            Opcode::AddEdges => 0x05,
            Opcode::RemoveEdges => 0x06,
            Opcode::Compact => 0x07,
            Opcode::Batch => 0x0F,
            Opcode::Reply => 0x81,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            0x01 => Opcode::Query,
            0x02 => Opcode::Stats,
            0x03 => Opcode::Shutdown,
            0x04 => Opcode::CreateGraph,
            0x05 => Opcode::AddEdges,
            0x06 => Opcode::RemoveEdges,
            0x07 => Opcode::Compact,
            0x0F => Opcode::Batch,
            0x81 => Opcode::Reply,
            _ => return None,
        })
    }

    /// The JSONL `op` string this opcode mirrors (requests only).
    pub fn op_name(self) -> &'static str {
        match self {
            Opcode::Query => "query",
            Opcode::Stats => "stats",
            Opcode::Shutdown => "shutdown",
            Opcode::CreateGraph => "create_graph",
            Opcode::AddEdges => "add_edges",
            Opcode::RemoveEdges => "remove_edges",
            Opcode::Compact => "compact",
            Opcode::Batch => "batch",
            Opcode::Reply => "reply",
        }
    }

    /// Maps a JSONL `op` string to its request opcode (`batch`/`reply`
    /// are wire-level, not `op` values, and are not mapped).
    pub fn from_op_name(op: &str) -> Option<Opcode> {
        Some(match op {
            "query" => Opcode::Query,
            "stats" => Opcode::Stats,
            "shutdown" => Opcode::Shutdown,
            "create_graph" => Opcode::CreateGraph,
            "add_edges" => Opcode::AddEdges,
            "remove_edges" => Opcode::RemoveEdges,
            "compact" => Opcode::Compact,
            _ => return None,
        })
    }

    /// Whether this opcode may appear as a batch item (plain requests
    /// only: no nested batches, no replies).
    pub fn batchable(self) -> bool {
        !matches!(self, Opcode::Batch | Opcode::Reply)
    }
}

/// A typed decode failure. Every variant names what was rejected and
/// (where it helps) the byte offset, mirroring `minijson::JsonError` —
/// hostile bytes produce one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// First byte was not [`MAGIC`] (the caller should have routed this
    /// connection to the JSONL path).
    BadMagic(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Reserved header byte was nonzero.
    BadReserved(u8),
    /// The length prefix exceeds the frame-size cap; rejected before
    /// any allocation.
    Oversized {
        /// Payload length the header claimed.
        len: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A complete frame's payload ended mid-field.
    Truncated {
        /// Byte offset into the payload at which input ran out.
        at: usize,
        /// What was being decoded.
        what: &'static str,
    },
    /// Unknown field-key tag byte.
    BadFieldKey {
        /// Byte offset into the payload.
        at: usize,
        /// The rejected tag.
        tag: u8,
    },
    /// Unknown value-type byte.
    BadFieldType {
        /// Byte offset into the payload.
        at: usize,
        /// The rejected type byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// Byte offset into the payload.
        at: usize,
    },
    /// A numeric field decoded to NaN/∞ (the JSONL schema rejects
    /// non-finite numbers; the binary schema matches).
    NonFinite {
        /// Byte offset into the payload.
        at: usize,
    },
    /// An opcode that cannot appear where it did (a reply sent as a
    /// request, a batch nested inside a batch).
    Misplaced(&'static str),
    /// Encode-side: the `op` string has no opcode.
    UnknownOp(String),
    /// Encode-side: a key or string value exceeds its length prefix.
    TooLong(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            FrameError::BadVersion(v) => {
                write!(f, "unsupported frame version {v} (expected {VERSION})")
            }
            FrameError::BadOpcode(b) => write!(f, "unknown frame opcode 0x{b:02x}"),
            FrameError::BadReserved(b) => write!(f, "nonzero reserved header byte 0x{b:02x}"),
            FrameError::Oversized { len, cap } => {
                write!(f, "frame length {len} exceeds the {cap}-byte cap")
            }
            FrameError::Truncated { at, what } => {
                write!(f, "frame payload truncated at byte {at} (decoding {what})")
            }
            FrameError::BadFieldKey { at, tag } => {
                write!(f, "unknown field-key tag 0x{tag:02x} at byte {at}")
            }
            FrameError::BadFieldType { at, tag } => {
                write!(f, "unknown value-type byte 0x{tag:02x} at byte {at}")
            }
            FrameError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            FrameError::NonFinite { at } => write!(f, "non-finite number at byte {at}"),
            FrameError::Misplaced(what) => write!(f, "misplaced frame: {what}"),
            FrameError::UnknownOp(op) => write!(f, "op '{op}' has no frame opcode"),
            FrameError::TooLong(what) => write!(f, "{what} exceeds its length prefix"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Registered key tags: the flat request schema's field names, one byte
/// each on the wire. Unregistered keys still travel (tag `0xFF` + the
/// key bytes), so the binary schema is exactly as open as the JSONL one.
const KEYS: &[(u8, &str)] = &[
    (0x01, "id"),
    (0x02, "algorithm"),
    (0x03, "file"),
    (0x04, "graph"),
    (0x05, "epsilon"),
    (0x06, "k"),
    (0x07, "delta"),
    (0x08, "threads"),
    (0x09, "sketch"),
    (0x0A, "stream"),
    (0x0B, "binary"),
    (0x0C, "directed_input"),
    (0x0D, "backend"),
    (0x0E, "memory_budget"),
    (0x0F, "flow_backend"),
    (0x10, "min_density"),
    (0x11, "max_communities"),
    (0x12, "edges"),
    (0x13, "directed"),
];

/// Tag byte announcing an explicit (unregistered) key.
const KEY_OTHER: u8 = 0xFF;

fn key_tag(key: &str) -> Option<u8> {
    KEYS.iter().find(|(_, k)| *k == key).map(|(t, _)| *t)
}

fn key_name(tag: u8) -> Option<&'static str> {
    KEYS.iter().find(|(t, _)| *t == tag).map(|(_, k)| *k)
}

const TYPE_NULL: u8 = 0;
const TYPE_FALSE: u8 = 1;
const TYPE_TRUE: u8 = 2;
const TYPE_NUM: u8 = 3;
const TYPE_STR: u8 = 4;

/// Appends a frame header for `opcode`, returning the offset of the
/// length field; finish with [`end_frame`] once the payload is written.
pub fn begin_frame(opcode: Opcode, out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[MAGIC, VERSION, opcode.byte(), 0]);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    len_at
}

/// Patches the length field of a frame begun at `len_at` to cover every
/// byte appended since.
pub fn end_frame(out: &mut [u8], len_at: usize) {
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one request payload (no header) from parsed JSONL-style
/// fields; the `op` field itself is skipped — it travels as the opcode.
pub fn encode_request_payload(
    fields: &[(String, Value)],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    for (key, value) in fields {
        if key == "op" {
            continue;
        }
        match key_tag(key) {
            Some(tag) => out.push(tag),
            None => {
                let bytes = key.as_bytes();
                if bytes.len() > u16::MAX as usize {
                    return Err(FrameError::TooLong("field key"));
                }
                out.push(KEY_OTHER);
                out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        match value {
            Value::Null => out.push(TYPE_NULL),
            Value::Bool(false) => out.push(TYPE_FALSE),
            Value::Bool(true) => out.push(TYPE_TRUE),
            Value::Num(n) => {
                out.push(TYPE_NUM);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Value::Str(s) => {
                let bytes = s.as_bytes();
                if bytes.len() > u32::MAX as usize {
                    return Err(FrameError::TooLong("string value"));
                }
                out.push(TYPE_STR);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    Ok(())
}

/// Encodes one complete request frame from parsed JSONL-style fields
/// (`op` picked out of `op_name`). The JSONL request
/// `{"op":"query","file":"g.txt",…}` and
/// `encode_request("query", fields)` describe the same wire request.
pub fn encode_request(
    op_name: &str,
    fields: &[(String, Value)],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let opcode =
        Opcode::from_op_name(op_name).ok_or_else(|| FrameError::UnknownOp(op_name.to_string()))?;
    let len_at = begin_frame(opcode, out);
    encode_request_payload(fields, out)?;
    end_frame(out, len_at);
    Ok(())
}

/// Appends one item to a batch payload under construction (opcode +
/// u32 length + request payload).
pub fn encode_batch_item(
    op_name: &str,
    fields: &[(String, Value)],
    batch_payload: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let opcode =
        Opcode::from_op_name(op_name).ok_or_else(|| FrameError::UnknownOp(op_name.to_string()))?;
    batch_payload.push(opcode.byte());
    let len_at = batch_payload.len();
    batch_payload.extend_from_slice(&[0; 4]);
    encode_request_payload(fields, batch_payload)?;
    let len = (batch_payload.len() - len_at - 4) as u32;
    batch_payload[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encodes a reply frame wrapping the JSON response object the JSONL
/// path would have written as a line.
pub fn encode_reply(json: &str, out: &mut Vec<u8>) {
    let len_at = begin_frame(Opcode::Reply, out);
    out.extend_from_slice(json.as_bytes());
    end_frame(out, len_at);
}

/// A decoded frame: `(opcode, payload, consumed)`, where `consumed`
/// covers header + payload.
pub type DecodedFrame<'a> = (Opcode, &'a [u8], usize);

/// Tries to decode one frame from the front of `buf`.
///
/// * `Ok(Some((opcode, payload, consumed)))` — a complete frame;
///   `consumed` covers header + payload.
/// * `Ok(None)` — `buf` holds a valid but incomplete prefix; read more.
/// * `Err(_)` — the prefix can never become a valid frame (bad magic /
///   version / opcode, or a length above `cap`); the connection cannot
///   be re-synchronized and should be closed after reporting the error.
pub fn decode_frame(buf: &[u8], cap: usize) -> Result<Option<DecodedFrame<'_>>, FrameError> {
    // Validate greedily: every header byte present is checked even when
    // the header is still incomplete, so a garbage prefix fails fast
    // instead of stalling until 8 bytes arrive.
    match buf.first() {
        None => return Ok(None),
        Some(&MAGIC) => {}
        Some(&b) => return Err(FrameError::BadMagic(b)),
    }
    if let Some(&v) = buf.get(1) {
        if v != VERSION {
            return Err(FrameError::BadVersion(v));
        }
    }
    let opcode = match buf.get(2) {
        None => return Ok(None),
        Some(&b) => Opcode::from_byte(b).ok_or(FrameError::BadOpcode(b))?,
    };
    if let Some(&r) = buf.get(3) {
        if r != 0 {
            return Err(FrameError::BadReserved(r));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > cap {
        return Err(FrameError::Oversized {
            len: len as u64,
            cap: cap as u64,
        });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some((
        opcode,
        &buf[HEADER_LEN..HEADER_LEN + len],
        HEADER_LEN + len,
    )))
}

/// Decodes a request payload into `scratch` (cleared first), reusing its
/// string allocations across requests. The result mirrors what
/// `minijson::parse_object` would have produced for the equivalent JSONL
/// request, minus the `op` field.
pub fn decode_request_payload(
    payload: &[u8],
    scratch: &mut FieldScratch,
) -> Result<(), FrameError> {
    scratch.reset();
    let mut pos = 0usize;
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        let mut key = scratch.take_string();
        match tag {
            KEY_OTHER => {
                let len = read_u16(payload, &mut pos, "key length")? as usize;
                let bytes = read_bytes(payload, &mut pos, len, "key bytes")?;
                key.push_str(str_utf8(bytes, pos - len)?);
            }
            t => match key_name(t) {
                Some(name) => key.push_str(name),
                None => {
                    return Err(FrameError::BadFieldKey {
                        at: pos - 1,
                        tag: t,
                    })
                }
            },
        }
        let ty = *payload.get(pos).ok_or(FrameError::Truncated {
            at: pos,
            what: "value type",
        })?;
        pos += 1;
        let value = match ty {
            TYPE_NULL => Value::Null,
            TYPE_FALSE => Value::Bool(false),
            TYPE_TRUE => Value::Bool(true),
            TYPE_NUM => {
                let bytes = read_bytes(payload, &mut pos, 8, "f64 value")?;
                // read_bytes guarantees 8 bytes, but a typed error keeps
                // the decode path panic-free (dsg-lint: hot-path-panic).
                let arr = <&[u8; 8]>::try_from(bytes).map_err(|_| FrameError::Truncated {
                    at: pos - 8,
                    what: "f64 value",
                })?;
                let n = f64::from_le_bytes(*arr);
                if !n.is_finite() {
                    return Err(FrameError::NonFinite { at: pos - 8 });
                }
                Value::Num(n)
            }
            TYPE_STR => {
                let len = read_u32(payload, &mut pos, "string length")? as usize;
                let bytes = read_bytes(payload, &mut pos, len, "string bytes")?;
                let mut s = scratch.take_string();
                s.push_str(str_utf8(bytes, pos - len)?);
                Value::Str(s)
            }
            t => {
                return Err(FrameError::BadFieldType {
                    at: pos - 1,
                    tag: t,
                })
            }
        };
        scratch.push_field(key, value);
    }
    Ok(())
}

/// Iterates the items of a batch payload: `(opcode, item payload)`
/// pairs, each validated to be a plain request (no nested batches, no
/// replies).
pub struct BatchItems<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Iterates over a [`Opcode::Batch`] frame's payload.
pub fn batch_items(payload: &[u8]) -> BatchItems<'_> {
    BatchItems {
        buf: payload,
        pos: 0,
    }
}

impl<'a> Iterator for BatchItems<'a> {
    type Item = Result<(Opcode, &'a [u8]), FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let run = |buf: &'a [u8], pos: &mut usize| -> Result<(Opcode, &'a [u8]), FrameError> {
            let b = buf[*pos];
            *pos += 1;
            let opcode = Opcode::from_byte(b).ok_or(FrameError::BadOpcode(b))?;
            if !opcode.batchable() {
                return Err(FrameError::Misplaced(
                    "batch items must be plain requests (no nested batches or replies)",
                ));
            }
            let len = read_u32(buf, pos, "batch item length")? as usize;
            let bytes = read_bytes(buf, pos, len, "batch item payload")?;
            Ok((opcode, bytes))
        };
        let item = run(self.buf, &mut self.pos);
        if item.is_err() {
            self.pos = self.buf.len(); // stop after the first error
        }
        Some(item)
    }
}

fn read_bytes<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8], FrameError> {
    let end = pos.checked_add(len).filter(|&e| e <= buf.len());
    match end {
        Some(end) => {
            let slice = &buf[*pos..end];
            *pos = end;
            Ok(slice)
        }
        None => Err(FrameError::Truncated { at: *pos, what }),
    }
}

fn read_u16(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u16, FrameError> {
    let b = read_bytes(buf, pos, 2, what)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, FrameError> {
    let b = read_bytes(buf, pos, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn str_utf8(bytes: &[u8], at: usize) -> Result<&str, FrameError> {
    std::str::from_utf8(bytes).map_err(|_| FrameError::BadUtf8 { at })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn request_roundtrips_through_the_codec() {
        let f = fields(&[
            ("id", Value::Num(7.0)),
            ("algorithm", Value::Str("approx".into())),
            ("file", Value::Str("graphs/é 語.txt".into())),
            ("epsilon", Value::Num(0.5)),
            ("stream", Value::Bool(true)),
            ("custom_key", Value::Null),
        ]);
        let mut buf = Vec::new();
        encode_request("query", &f, &mut buf).unwrap();
        let (op, payload, consumed) = decode_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(op, Opcode::Query);
        assert_eq!(consumed, buf.len());
        let mut scratch = FieldScratch::new();
        decode_request_payload(payload, &mut scratch).unwrap();
        assert_eq!(scratch.fields(), f.as_slice());
    }

    #[test]
    fn op_field_travels_as_the_opcode() {
        let f = fields(&[("op", Value::Str("stats".into())), ("id", Value::Num(1.0))]);
        let mut buf = Vec::new();
        encode_request("stats", &f, &mut buf).unwrap();
        let (op, payload, _) = decode_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(op, Opcode::Stats);
        let mut scratch = FieldScratch::new();
        decode_request_payload(payload, &mut scratch).unwrap();
        // The op field is not duplicated into the payload.
        assert_eq!(scratch.fields().len(), 1);
        assert_eq!(scratch.fields()[0].0, "id");
    }

    #[test]
    fn incomplete_prefixes_wait_and_hostile_prefixes_fail_fast() {
        let f = fields(&[("id", Value::Num(1.0))]);
        let mut buf = Vec::new();
        encode_request("query", &f, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut], DEFAULT_MAX_FRAME).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
        assert!(matches!(
            decode_frame(b"{\"op\":1}", DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(b'{'))
        ));
        assert!(matches!(
            decode_frame(&[MAGIC, 9], DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(9))
        ));
        assert!(matches!(
            decode_frame(&[MAGIC, VERSION, 0x7E], DEFAULT_MAX_FRAME),
            Err(FrameError::BadOpcode(0x7E))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = vec![MAGIC, VERSION, Opcode::Query.byte(), 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&buf, 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX as u64,
                cap: 1024,
            }
        );
    }

    #[test]
    fn batch_roundtrips_and_rejects_nesting() {
        let q = fields(&[("id", Value::Num(1.0)), ("graph", Value::Str("g".into()))]);
        let mut payload = Vec::new();
        encode_batch_item("query", &q, &mut payload).unwrap();
        encode_batch_item("stats", &[], &mut payload).unwrap();
        let items: Vec<_> = batch_items(&payload).collect::<Result<_, _>>().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, Opcode::Query);
        assert_eq!(items[1].0, Opcode::Stats);
        let mut scratch = FieldScratch::new();
        decode_request_payload(items[0].1, &mut scratch).unwrap();
        assert_eq!(scratch.fields(), q.as_slice());

        // A nested batch item is a typed error, not recursion.
        let mut nested = vec![Opcode::Batch.byte()];
        nested.extend_from_slice(&0u32.to_le_bytes());
        let errs: Vec<_> = batch_items(&nested).collect();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], Err(FrameError::Misplaced(_))));
    }

    #[test]
    fn reply_wraps_json_bytes_exactly() {
        let json = r#"{"id":1,"ok":true,"result":{"density":2}}"#;
        let mut buf = Vec::new();
        encode_reply(json, &mut buf);
        let (op, payload, _) = decode_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(op, Opcode::Reply);
        assert_eq!(payload, json.as_bytes());
    }

    #[test]
    fn scratch_reuse_keeps_results_identical() {
        let mut scratch = FieldScratch::new();
        let a = fields(&[("file", Value::Str("first-graph.txt".into()))]);
        let b = fields(&[("graph", Value::Str("x".into())), ("k", Value::Num(3.0))]);
        for f in [&a, &b, &a] {
            let mut payload = Vec::new();
            encode_request_payload(f, &mut payload).unwrap();
            decode_request_payload(&payload, &mut scratch).unwrap();
            assert_eq!(scratch.fields(), f.as_slice());
        }
    }
}
