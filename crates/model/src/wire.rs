//! Hand-rolled binary wire format for on-disk snapshots (DESIGN.md §8).
//!
//! This workspace builds with no network access, so there is no serde;
//! instead every snapshot-able type writes itself into a [`WireWriter`]
//! and reads itself back from a [`WireReader`] using a small fixed
//! vocabulary of primitives: little-endian `u8`/`u32`/`u64`, `f64` *by
//! bit pattern* (snapshots must preserve similarity values exactly —
//! the repository's bit-identity guarantee depends on it),
//! length-prefixed UTF-8 strings, and length-prefixed lists (a `u32`
//! count, then the items), written by [`WireWriter::put_list`] and read
//! by [`WireReader::get_list`].
//!
//! The format is versioned at the container level (the repository
//! snapshot carries a magic + version header and a trailing checksum;
//! see `cupid-repo`); the primitives here are deliberately
//! version-free. Everything is deterministic: encoding the same value
//! twice yields the same bytes, which is what makes [`fnv1a`] usable
//! for content hashes and config fingerprints.
//!
//! This module also carries the `cupid-model` types' own
//! encode/decode — [`Schema`] and [`SchemaTree`] have private fields,
//! so their wire code lives here — plus [`Schema::content_hash`], the
//! key of the repository's incremental pair cache.

use crate::element::{BroadType, DataType, Element, ElementId, ElementKind};
use crate::schema::{Edges, Schema};
use crate::tree::{NodeId, SchemaTree, SyntheticKind, TreeNode};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

/// Error produced when decoding malformed or truncated wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Clone, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` by bit pattern (exact round-trip, NaN included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a `usize` as `u32` (snapshot counts are far below 2³²;
    /// panics if not, rather than silently truncating).
    pub fn put_len(&mut self, v: usize) {
        self.put_u32(u32::try_from(v).expect("wire length exceeds u32"));
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes (no length prefix; pair with a caller-side count).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed list: the item count, then each item
    /// through `put`. [`WireReader::get_list`] reads it back.
    pub fn put_list<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_len(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the full slice.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error constructor anchored at the current offset.
    pub fn err(&self, message: impl Into<String>) -> WireError {
        WireError { offset: self.pos, message: message.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.err(format!("need {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length written by [`WireWriter::put_len`], sanity-capped
    /// against the remaining input so corrupt counts fail fast instead
    /// of driving giant allocations.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() + self.remaining() / 8 + 64 {
            return Err(self.err(format!("length {n} exceeds remaining input")));
        }
        Ok(n)
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        Ok(self.take_str()?.to_owned())
    }

    /// [`WireReader::get_str`] straight into one shared allocation.
    pub fn get_arc_str(&mut self) -> Result<Arc<str>, WireError> {
        Ok(Arc::from(self.take_str()?))
    }

    fn take_str(&mut self) -> Result<&'a str, WireError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|e| WireError { offset: self.pos - n, message: format!("invalid UTF-8: {e}") })
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a list written by [`WireWriter::put_list`], each item
    /// through `get`. This is where a wire count meets an allocation:
    /// it reserves at most as many items as the bytes left could hold
    /// and grows as items actually decode, so a count the input cannot
    /// back costs an error, not its `count × size_of::<T>()` bytes.
    pub fn get_list<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Assert the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!("{} trailing bytes", self.remaining())))
        }
    }
}

// --- framed messages --------------------------------------------------

/// Leading magic of every wire frame (the daemon protocol's message
/// container; see `cupid-serve`).
pub const FRAME_MAGIC: [u8; 4] = *b"CPDF";

/// Upper bound on a frame payload. Protects both ends of a connection
/// from allocating gigabytes off one corrupt (or hostile) length
/// prefix; real payloads — SDL documents, match summaries — are orders
/// of magnitude smaller.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Error produced while reading or writing a wire frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (or closed mid-frame).
    Io(std::io::Error),
    /// The bytes on the stream are not a valid frame (bad magic,
    /// oversized length, checksum mismatch). The connection cannot be
    /// resynchronized after this; close it.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Did this frame error come from a socket deadline expiring (see
    /// [`is_timeout`]), as opposed to a malformed frame or a hard
    /// socket failure?
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e) if is_timeout(e))
    }
}

/// Is this I/O error a socket read/write deadline expiring? Unix
/// reports `WouldBlock` for a timed-out blocking socket, Windows
/// `TimedOut`; std documents the pair for `set_read_timeout`.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one length-prefixed, checksummed frame:
///
/// ```text
/// magic    4 bytes   b"CPDF"
/// kind     u8        message discriminator (the caller's namespace)
/// len      u32 LE    payload length, at most MAX_FRAME_PAYLOAD
/// payload  len bytes
/// checksum u64 LE    fnv1a over kind byte + payload
/// ```
///
/// The checksum makes corruption on the stream loud: a reader never
/// hands a damaged payload to a decoder.
///
/// The whole frame — header, payload, checksum — is serialized into
/// one buffer and written with a single `write_all`. On a nodelay
/// socket, three separate writes are three syscalls and up to three
/// packets per frame; one write is one of each, and the daemon's wire
/// path sends a frame per request.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Malformed(format!(
            "payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(9 + payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&frame_checksum(kind, payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame written by [`write_frame`].
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection *between* frames); end-of-stream anywhere inside a frame
/// is an [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut header = [0u8; 9];
    // Hand-read the first byte so "peer hung up before the next frame"
    // (normal) is distinguishable from "stream died mid-frame" (error).
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    // The remaining 8 header bytes (magic tail, kind, length) come in
    // one read_exact instead of three — the read-side mirror of
    // write_frame's single buffered write.
    r.read_exact(&mut header[1..])?;
    if header[..4] != FRAME_MAGIC {
        return Err(FrameError::Malformed(format!("bad magic {:02x?}", &header[..4])));
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 header bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Malformed(format!(
            "payload length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap"
        )));
    }
    // Payload and trailing checksum in one read as well, then split.
    let mut body = vec![0u8; len + 8];
    r.read_exact(&mut body)?;
    let stored = u64::from_le_bytes(body[len..].try_into().expect("8 checksum bytes"));
    body.truncate(len);
    let payload = body;
    let actual = frame_checksum(kind, &payload);
    if stored != actual {
        return Err(FrameError::Malformed(format!(
            "checksum mismatch: stored {stored:#x}, actual {actual:#x}"
        )));
    }
    Ok(Some((kind, payload)))
}

/// The checksum a frame carries: FNV-1a over the kind byte followed by
/// the payload.
fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    fnv1a_extend(fnv1a_extend(FNV_OFFSET_BASIS, &[kind]), payload)
}

// --- frame kinds ------------------------------------------------------
//
// Kind codes are append-only workspace-wide: new records get new
// numbers, existing numbers never change meaning, and no two subsystems
// may collide on a kind a stray file could be mistaken for. The
// daemon protocol (`cupid-serve`'s `protocol` module, DESIGN.md §9.2)
// owns the `0x0_` (request) and `0x8_` (response) blocks and declares
// its kinds there. The repository's write-ahead mutation journal
// (`cupid-repo`, DESIGN.md §10) reuses the frame container above for
// its on-disk records, in the `0x4_` block below.

/// Journal header record: version, config/thesaurus fingerprints, and
/// the id of the snapshot the journal extends.
pub const JOURNAL_HEADER: u8 = 0x40;
/// Journal record: a schema was added (payload: [`Schema`] wire bytes).
pub const JOURNAL_ADD: u8 = 0x41;
/// Journal record: a schema was replaced (payload: [`Schema`] wire
/// bytes; the repository key is the schema's own name).
pub const JOURNAL_REPLACE: u8 = 0x42;
/// Journal record: a schema was removed (payload: its name).
pub const JOURNAL_REMOVE: u8 = 0x43;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold more bytes into a running FNV-1a state: the incremental form
/// every FNV user goes through, so the constants exist exactly once.
/// FNV-1a streams, so `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`: a
/// hash over bytes that begin with an already-hashed prefix needs only
/// the rest.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a byte slice — the workspace's deterministic,
/// dependency-free content hash (snapshot checksums, schema content
/// hashes, config/thesaurus fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

// --- enum codes -------------------------------------------------------

/// Stable wire code of an [`ElementKind`]. Codes are append-only: new
/// kinds get new numbers, existing numbers never change meaning.
pub fn element_kind_code(k: ElementKind) -> u8 {
    match k {
        ElementKind::Schema => 0,
        ElementKind::Table => 1,
        ElementKind::Column => 2,
        ElementKind::XmlElement => 3,
        ElementKind::XmlAttribute => 4,
        ElementKind::Class => 5,
        ElementKind::Attribute => 6,
        ElementKind::Entity => 7,
        ElementKind::Relationship => 8,
        ElementKind::TypeDef => 9,
        ElementKind::Key => 10,
        ElementKind::ForeignKey => 11,
        ElementKind::View => 12,
        ElementKind::Other => 13,
    }
}

/// Decode an [`ElementKind`] wire code.
pub fn element_kind_from_code(c: u8) -> Option<ElementKind> {
    Some(match c {
        0 => ElementKind::Schema,
        1 => ElementKind::Table,
        2 => ElementKind::Column,
        3 => ElementKind::XmlElement,
        4 => ElementKind::XmlAttribute,
        5 => ElementKind::Class,
        6 => ElementKind::Attribute,
        7 => ElementKind::Entity,
        8 => ElementKind::Relationship,
        9 => ElementKind::TypeDef,
        10 => ElementKind::Key,
        11 => ElementKind::ForeignKey,
        12 => ElementKind::View,
        13 => ElementKind::Other,
        _ => return None,
    })
}

/// Stable wire code of a [`DataType`].
pub fn data_type_code(t: DataType) -> u8 {
    match t {
        DataType::Unknown => 0,
        DataType::String => 1,
        DataType::Int => 2,
        DataType::Decimal => 3,
        DataType::Float => 4,
        DataType::Money => 5,
        DataType::Bool => 6,
        DataType::Date => 7,
        DataType::Time => 8,
        DataType::DateTime => 9,
        DataType::Binary => 10,
        DataType::Identifier => 11,
        DataType::Enumeration => 12,
        DataType::Complex => 13,
    }
}

/// Decode a [`DataType`] wire code.
pub fn data_type_from_code(c: u8) -> Option<DataType> {
    Some(match c {
        0 => DataType::Unknown,
        1 => DataType::String,
        2 => DataType::Int,
        3 => DataType::Decimal,
        4 => DataType::Float,
        5 => DataType::Money,
        6 => DataType::Bool,
        7 => DataType::Date,
        8 => DataType::Time,
        9 => DataType::DateTime,
        10 => DataType::Binary,
        11 => DataType::Identifier,
        12 => DataType::Enumeration,
        13 => DataType::Complex,
        _ => return None,
    })
}

/// Stable wire code of a [`BroadType`] (used by `cupid-core`'s category
/// serialization).
pub fn broad_type_code(t: BroadType) -> u8 {
    match t {
        BroadType::Number => 0,
        BroadType::Text => 1,
        BroadType::Temporal => 2,
        BroadType::Boolean => 3,
        BroadType::Binary => 4,
        BroadType::Complex => 5,
        BroadType::Unknown => 6,
    }
}

/// Decode a [`BroadType`] wire code.
pub fn broad_type_from_code(c: u8) -> Option<BroadType> {
    Some(match c {
        0 => BroadType::Number,
        1 => BroadType::Text,
        2 => BroadType::Temporal,
        3 => BroadType::Boolean,
        4 => BroadType::Binary,
        5 => BroadType::Complex,
        6 => BroadType::Unknown,
        _ => return None,
    })
}

// --- id lists ---------------------------------------------------------

/// Sentinel for "no parent" in the optional-id encoding.
const NO_ID: u32 = u32::MAX;

fn put_id_list(w: &mut WireWriter, ids: &[ElementId]) {
    w.put_list(ids, |w, id| w.put_u32(id.index() as u32));
}

fn get_id_list(r: &mut WireReader<'_>, len: usize) -> Result<Vec<ElementId>, WireError> {
    r.get_list(|r| {
        let v = r.get_u32()? as usize;
        if v >= len {
            return Err(r.err(format!("element id {v} out of bounds ({len} elements)")));
        }
        Ok(ElementId::from_index(v))
    })
}

// --- Schema -----------------------------------------------------------

impl Schema {
    /// Encode the full schema graph (elements + all edge kinds) into
    /// the wire format. The encoding is canonical: it depends only on
    /// the schema's content, never on construction history, so it
    /// doubles as the input of [`Schema::content_hash`].
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        w.put_list(&self.elements, |w, e| {
            w.put_str(&e.name);
            w.put_u8(element_kind_code(e.kind));
            w.put_u8(data_type_code(e.data_type));
            let flags = (e.optional as u8)
                | (e.not_instantiated as u8) << 1
                | (e.is_key as u8) << 2
                | (e.annotation.is_some() as u8) << 3;
            w.put_u8(flags);
            if let Some(a) = &e.annotation {
                w.put_str(a);
            }
        });
        for edges in &self.edges {
            match edges.parent {
                Some(p) => w.put_u32(p.index() as u32),
                None => w.put_u32(NO_ID),
            }
            put_id_list(w, &edges.children);
            put_id_list(w, &edges.derived_from);
            put_id_list(w, &edges.aggregates);
            put_id_list(w, &edges.references);
        }
    }

    /// Decode a schema written by [`Schema::write_wire`] and re-check
    /// its invariants via [`Schema::validate`].
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<Schema, WireError> {
        let name = r.get_str()?;
        let elements = r.get_list(|r| {
            let ename = r.get_str()?;
            let kind = element_kind_from_code(r.get_u8()?)
                .ok_or_else(|| r.err("unknown element kind code"))?;
            let data_type =
                data_type_from_code(r.get_u8()?).ok_or_else(|| r.err("unknown data type code"))?;
            let flags = r.get_u8()?;
            if flags & !0b1111 != 0 {
                return Err(r.err(format!("unknown element flag bits {flags:#010b}")));
            }
            let annotation = if flags & 0b1000 != 0 { Some(r.get_str()?) } else { None };
            let mut e = Element::structured(ename, kind);
            e.data_type = data_type;
            e.optional = flags & 0b001 != 0;
            e.not_instantiated = flags & 0b010 != 0;
            e.is_key = flags & 0b100 != 0;
            e.annotation = annotation;
            Ok(e)
        })?;
        let n = elements.len();
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            let parent = match r.get_u32()? {
                NO_ID => None,
                v if (v as usize) < n => Some(ElementId::from_index(v as usize)),
                v => return Err(r.err(format!("parent id {v} out of bounds"))),
            };
            edges.push(Edges {
                parent,
                children: get_id_list(r, n)?,
                derived_from: get_id_list(r, n)?,
                aggregates: get_id_list(r, n)?,
                references: get_id_list(r, n)?,
            });
        }
        let schema = Schema { name, elements, edges };
        schema.validate().map_err(|e| r.err(format!("schema invariants violated: {e}")))?;
        Ok(schema)
    }

    /// Deterministic 64-bit content hash of the schema (name, elements,
    /// all relationships): equal-content schemas hash equal across
    /// processes and runs. This is the key of the repository's
    /// incremental pair cache — a pair's cached `MatchSummary` is valid
    /// exactly as long as both schemas' content hashes are unchanged.
    pub fn content_hash(&self) -> u64 {
        let mut w = WireWriter::new();
        self.write_wire(&mut w);
        fnv1a(w.bytes())
    }
}

// --- SchemaTree -------------------------------------------------------

impl SchemaTree {
    /// Encode the expanded tree/DAG: nodes with their adjacency, plus
    /// the root. Derived tables (post-order, leaf sets, depths, paths)
    /// are *not* written — they are a pure function of the adjacency
    /// and are recomputed on decode, which keeps the format small and
    /// guarantees a decoded tree satisfies the same invariants a
    /// freshly expanded one does.
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_str(self.schema_name());
        w.put_u32(self.root().index() as u32);
        w.put_len(self.len());
        for (_, node) in self.iter() {
            w.put_u32(node.element.index() as u32);
            w.put_str(&node.name);
            w.put_u8(element_kind_code(node.kind));
            w.put_u8(data_type_code(node.data_type));
            w.put_bool(node.optional);
            w.put_u8(match node.synthetic {
                None => 0,
                Some(SyntheticKind::JoinView) => 1,
                Some(SyntheticKind::View) => 2,
            });
            for ids in [&node.parents, &node.children] {
                w.put_list(ids, |w, id| w.put_u32(id.index() as u32));
            }
        }
    }

    /// Decode a tree written by [`SchemaTree::write_wire`], recomputing
    /// every derived table.
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<SchemaTree, WireError> {
        let schema_name = r.get_str()?;
        let root = r.get_u32()? as usize;
        let n = r.get_len()?;
        if n == 0 {
            return Err(r.err("schema tree has no nodes"));
        }
        if root >= n {
            return Err(r.err(format!("root {root} out of bounds ({n} nodes)")));
        }
        let mut tree = SchemaTree::new_empty(schema_name);
        let node_id = |r: &mut WireReader<'_>| -> Result<NodeId, WireError> {
            match r.get_u32()? {
                v if (v as usize) < n => Ok(NodeId::from_index(v as usize)),
                v => Err(r.err(format!("node id {v} out of bounds ({n} nodes)"))),
            }
        };
        for _ in 0..n {
            let element = ElementId::from_index(r.get_u32()? as usize);
            let name = r.get_str()?;
            let kind = element_kind_from_code(r.get_u8()?)
                .ok_or_else(|| r.err("unknown element kind code"))?;
            let data_type =
                data_type_from_code(r.get_u8()?).ok_or_else(|| r.err("unknown data type code"))?;
            let optional = r.get_bool()?;
            let synthetic = match r.get_u8()? {
                0 => None,
                1 => Some(SyntheticKind::JoinView),
                2 => Some(SyntheticKind::View),
                c => return Err(r.err(format!("unknown synthetic code {c}"))),
            };
            let parents = r.get_list(node_id)?;
            let children = r.get_list(node_id)?;
            tree.push_node(TreeNode {
                element,
                name,
                kind,
                data_type,
                optional,
                synthetic,
                parents,
                children,
            });
        }
        tree.set_root(NodeId::from_index(root));
        // parent/child symmetry: finalize() trusts the adjacency, so
        // check it here rather than decode a structurally broken DAG.
        for (id, node) in tree.iter() {
            for &c in &node.children {
                if !tree.node(c).parents.contains(&id) {
                    return Err(r.err(format!("child {c} does not list {id} as parent")));
                }
            }
        }
        tree.finalize();
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::joinview::ExpandOptions;
    use crate::tree::expand;

    fn sample_schema() -> Schema {
        let mut b = SchemaBuilder::new("PO");
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::XmlElement, DataType::String);
        let deliver = b.structured(b.root(), "DeliverTo", ElementKind::XmlElement);
        b.derive_from(deliver, addr);
        let items = b.structured(b.root(), "Items", ElementKind::XmlElement);
        let qty = b.atomic(items, "Qty", ElementKind::XmlAttribute, DataType::Int);
        b.set_optional(qty, true);
        b.set_key(qty, true);
        b.annotate(qty, "ordered quantity");
        b.build().unwrap()
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut w = WireWriter::new();
        w.put_str("abcdef");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.get_str().is_err());
        // corrupt length prefix: claims more than remains
        let mut r = WireReader::new(&[0xff, 0xff, 0xff, 0x7f, b'a']);
        assert!(r.get_len().is_err());
    }

    #[test]
    fn arc_str_reads_and_rejects_like_get_str() {
        let mut w = WireWriter::new();
        w.put_str("");
        assert_eq!(&*WireReader::new(w.bytes()).get_arc_str().unwrap(), "");
        let utf8: &[u8] = &[2, 0, 0, 0, b'a', 0xff];
        for (bad, why) in
            [(utf8, "invalid UTF-8"), (&[3, 0], "need 4"), (&[3, 0, 0, 0, 1], "need 3")]
        {
            let want = WireReader::new(bad).get_str().unwrap_err();
            assert!(want.message.starts_with(why), "{want}");
            assert_eq!(WireReader::new(bad).get_arc_str().unwrap_err(), want);
        }
    }

    #[test]
    fn enum_codes_round_trip() {
        for k in [
            ElementKind::Schema,
            ElementKind::Table,
            ElementKind::Column,
            ElementKind::XmlElement,
            ElementKind::XmlAttribute,
            ElementKind::Class,
            ElementKind::Attribute,
            ElementKind::Entity,
            ElementKind::Relationship,
            ElementKind::TypeDef,
            ElementKind::Key,
            ElementKind::ForeignKey,
            ElementKind::View,
            ElementKind::Other,
        ] {
            assert_eq!(element_kind_from_code(element_kind_code(k)), Some(k));
        }
        assert_eq!(element_kind_from_code(200), None);
        for t in [
            DataType::Unknown,
            DataType::String,
            DataType::Int,
            DataType::Decimal,
            DataType::Float,
            DataType::Money,
            DataType::Bool,
            DataType::Date,
            DataType::Time,
            DataType::DateTime,
            DataType::Binary,
            DataType::Identifier,
            DataType::Enumeration,
            DataType::Complex,
        ] {
            assert_eq!(data_type_from_code(data_type_code(t)), Some(t));
            assert_eq!(broad_type_from_code(broad_type_code(t.broad())), Some(t.broad()));
        }
    }

    #[test]
    fn schema_round_trips_exactly() {
        let s = sample_schema();
        let mut w = WireWriter::new();
        s.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Schema::read_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.name(), s.name());
        assert_eq!(back.len(), s.len());
        for (id, e) in s.iter() {
            assert_eq!(back.element(id), e);
            assert_eq!(back.parent(id), s.parent(id));
            assert_eq!(back.children(id), s.children(id));
            assert_eq!(back.derived_from(id), s.derived_from(id));
        }
        assert_eq!(back.content_hash(), s.content_hash());
    }

    #[test]
    fn content_hash_tracks_content_not_identity() {
        let s1 = sample_schema();
        let s2 = sample_schema();
        assert_eq!(s1.content_hash(), s2.content_hash());
        let mut b = SchemaBuilder::new("PO");
        b.atomic(b.root(), "Qty", ElementKind::XmlAttribute, DataType::Int);
        let other = b.build().unwrap();
        assert_ne!(s1.content_hash(), other.content_hash());
        // flipping one flag flips the hash
        let mut b = SchemaBuilder::new("PO");
        let q = b.atomic(b.root(), "Qty", ElementKind::XmlAttribute, DataType::Int);
        b.set_optional(q, true);
        let flipped = b.build().unwrap();
        assert_ne!(other.content_hash(), flipped.content_hash());
    }

    #[test]
    fn tree_round_trip_preserves_all_derived_tables() {
        let s = sample_schema();
        let t = expand(&s, &ExpandOptions::all()).unwrap();
        let mut w = WireWriter::new();
        t.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = SchemaTree::read_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.schema_name(), t.schema_name());
        assert_eq!(back.len(), t.len());
        assert_eq!(back.root(), t.root());
        assert_eq!(back.post_order(), t.post_order());
        assert_eq!(back.leaf_count(), t.leaf_count());
        for (id, node) in t.iter() {
            assert_eq!(back.node(id).name, node.name);
            assert_eq!(back.node(id).children, node.children);
            assert_eq!(back.node(id).parents, node.parents);
            assert_eq!(back.path(id), t.path(id));
            assert_eq!(back.depth(id), t.depth(id));
            assert_eq!(back.leaves(id), t.leaves(id));
            assert_eq!(back.required_leaves(id), t.required_leaves(id));
        }
    }

    #[test]
    fn corrupt_schema_bytes_rejected() {
        let s = sample_schema();
        let mut w = WireWriter::new();
        s.write_wire(&mut w);
        let mut bytes = w.into_bytes();
        // Point an edge out of bounds.
        let last = bytes.len() - 1;
        bytes[last] = 0xff;
        let mut r = WireReader::new(&bytes);
        assert!(Schema::read_wire(&mut r).is_err());
        // Truncation anywhere must error, never panic.
        for cut in [1, 5, bytes.len() / 2, bytes.len() - 3] {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Schema::read_wire(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello frames").unwrap();
        write_frame(&mut buf, 0x84, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((7, b"hello frames".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((0x84, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn corrupt_frames_are_loud() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"payload bytes").unwrap();
        // Flipping any byte must fail to read (magic, kind/len/payload
        // via checksum, or the checksum itself).
        for i in 0..buf.len() {
            let mut broken = buf.clone();
            broken[i] ^= 0x01;
            assert!(read_frame(&mut &broken[..]).is_err(), "flipped byte {i} slipped through");
        }
        // Truncation inside the frame is an I/O error, not a hang or a
        // partial payload.
        for cut in 1..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
        // Over-cap length prefix rejected before allocating.
        let mut oversized = buf.clone();
        oversized[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&mut &oversized[..]), Err(FrameError::Malformed(_))));
        assert!(write_frame(&mut Vec::new(), 0, &vec![0u8; MAX_FRAME_PAYLOAD + 1]).is_err());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_extends_a_prefix_hash() {
        let bytes = b"CUPIDREP snapshot body, then its checksum";
        for split in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(split);
            assert_eq!(fnv1a_extend(fnv1a(head), tail), fnv1a(bytes), "split at {split}");
        }
    }
}
