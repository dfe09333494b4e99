//! The write-ahead mutation journal (DESIGN.md §10).
//!
//! A snapshot rewrite costs the whole corpus; a mutation costs one
//! schema. The journal closes that gap: every
//! add/replace/remove appends one checksummed frame (the
//! [`cupid_model::wire`] container, kinds `JOURNAL_*`) to a sibling
//! `<snapshot>.journal` file, and `Repository::open_or_create` replays
//! the tail on top of the snapshot. An fsynced append is a durability
//! point — a crash loses at most the un-synced suffix, never an
//! acknowledged mutation.
//!
//! The file layout is one header frame followed by zero or more
//! mutation record frames:
//!
//! ```text
//! JOURNAL_HEADER   version, config_fp, thesaurus_fp, snapshot_id
//! JOURNAL_ADD      Schema wire bytes
//! JOURNAL_REPLACE  Schema wire bytes
//! JOURNAL_REMOVE   schema name
//! ...
//! ```
//!
//! `snapshot_id` is the FNV-1a hash of the snapshot file the journal
//! extends (0 for "no snapshot"), which is what makes the
//! snapshot+journal pair crash-consistent *without* any cross-file
//! transaction: `Repository::save` first publishes the new snapshot
//! (atomic rename), then resets the journal with the new id. A crash
//! between the two leaves a journal whose header names the *old*
//! snapshot — the mismatch is detected at open and the journal is
//! discarded, which is correct because every record in it was just
//! folded into the snapshot that did get renamed into place.
//!
//! Replay is strict about damage but forgiving about where it stops:
//! a record tail that fails its frame checksum, truncates mid-frame,
//! or decodes to garbage ends replay *at the last valid record*, and
//! the file is truncated back to that point ([`Journal::open`]). A
//! header that fails to validate — or that names a different matcher
//! configuration or container version — replays nothing, but the file
//! is preserved on disk until this handle's first write: only records
//! provably folded into a published snapshot (the generation-mismatch
//! case above) are destroyed at open. Either way the reason is
//! surfaced through `DurabilityStats`, never silently swallowed.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

use cupid_model::wire::{
    read_frame, write_frame, WireReader, WireWriter, JOURNAL_ADD, JOURNAL_HEADER, JOURNAL_REMOVE,
    JOURNAL_REPLACE,
};
use cupid_model::Schema;

use crate::fault::{self, FaultPoint};

/// Version of the journal container format; bumped on incompatible
/// layout changes, at which point old journals are discarded at open
/// (their snapshot is still authoritative).
pub const JOURNAL_VERSION: u32 = 1;

/// The journal file that extends the snapshot at `snapshot`: the same
/// file name with `.journal` appended (`cupid.repo` →
/// `cupid.repo.journal`), so snapshot, lock, and journal sit side by
/// side in one directory.
pub fn journal_path(snapshot: &Path) -> PathBuf {
    crate::sibling(snapshot, ".journal")
}

/// The journal's first frame: which snapshot (and which matcher
/// configuration) its records extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`JOURNAL_VERSION`] at write time.
    pub version: u32,
    /// The matcher configuration fingerprint the records were produced
    /// under (mirrors the snapshot's own field).
    pub config_fp: u64,
    /// The thesaurus fingerprint, likewise.
    pub thesaurus_fp: u64,
    /// FNV-1a of the snapshot file's bytes at the time the journal was
    /// started, or 0 when no snapshot existed yet. A mismatch at open
    /// means the journal belongs to a different snapshot generation
    /// and must be discarded.
    pub snapshot_id: u64,
}

impl JournalHeader {
    /// Encode the header frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.version);
        w.put_u64(self.config_fp);
        w.put_u64(self.thesaurus_fp);
        w.put_u64(self.snapshot_id);
        w.into_bytes()
    }

    /// Decode a header frame payload written by [`JournalHeader::encode`].
    pub fn decode(payload: &[u8]) -> Result<JournalHeader, String> {
        let mut r = WireReader::new(payload);
        let header = JournalHeader {
            version: r.get_u32().map_err(|e| e.to_string())?,
            config_fp: r.get_u64().map_err(|e| e.to_string())?,
            thesaurus_fp: r.get_u64().map_err(|e| e.to_string())?,
            snapshot_id: r.get_u64().map_err(|e| e.to_string())?,
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(header)
    }
}

/// One journaled mutation — the durable form of the repository's
/// three mutating operations.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// `Repository::add` / each schema of `add_corpus`.
    Add(Schema),
    /// `Repository::replace` with a real content change (unchanged
    /// replaces are no-ops and journal nothing).
    Replace(Schema),
    /// `Repository::remove`, by schema name.
    Remove(String),
}

impl PartialEq for JournalRecord {
    /// Records compare by content: `Schema` has no `PartialEq`, but its
    /// canonical wire encoding (and therefore [`Schema::content_hash`])
    /// is a faithful identity.
    fn eq(&self, other: &JournalRecord) -> bool {
        match (self, other) {
            (JournalRecord::Add(a), JournalRecord::Add(b))
            | (JournalRecord::Replace(a), JournalRecord::Replace(b)) => {
                a.content_hash() == b.content_hash()
            }
            (JournalRecord::Remove(a), JournalRecord::Remove(b)) => a == b,
            _ => false,
        }
    }
}

impl JournalRecord {
    /// The frame kind byte and payload of this record.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = WireWriter::new();
        match self {
            JournalRecord::Add(s) => {
                s.write_wire(&mut w);
                (JOURNAL_ADD, w.into_bytes())
            }
            JournalRecord::Replace(s) => {
                s.write_wire(&mut w);
                (JOURNAL_REPLACE, w.into_bytes())
            }
            JournalRecord::Remove(name) => {
                w.put_str(name);
                (JOURNAL_REMOVE, w.into_bytes())
            }
        }
    }

    /// Decode a record frame. Unknown kinds and malformed payloads are
    /// errors — replay stops rather than guess.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
        let mut r = WireReader::new(payload);
        let record = match kind {
            JOURNAL_ADD => {
                JournalRecord::Add(Schema::read_wire(&mut r).map_err(|e| e.to_string())?)
            }
            JOURNAL_REPLACE => {
                JournalRecord::Replace(Schema::read_wire(&mut r).map_err(|e| e.to_string())?)
            }
            JOURNAL_REMOVE => JournalRecord::Remove(r.get_str().map_err(|e| e.to_string())?),
            k => return Err(format!("unknown journal record kind {k:#04x}")),
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(record)
    }
}

/// The result of scanning journal bytes: everything valid, and where
/// (and why) validity ended.
#[derive(Debug)]
pub struct Scan {
    /// The decoded header frame, if the file begins with a valid one.
    pub header: Option<JournalHeader>,
    /// Every record up to the first damage (or the end).
    pub records: Vec<JournalRecord>,
    /// Byte offset of the end of the header frame (0 when there is no
    /// valid header).
    pub header_len: u64,
    /// Byte offset of the end of each valid record frame, in order —
    /// `offsets[i]` is the file length that keeps records `0..=i`.
    pub offsets: Vec<u64>,
    /// Byte offset of the end of the last valid frame — the truncation
    /// point for a damaged tail.
    pub valid_len: u64,
    /// Why scanning stopped before the end of the input, or `None` for
    /// a clean end-of-file between frames.
    pub stopped: Option<String>,
}

/// Scan journal bytes without touching any file — the pure core of
/// [`Journal::open`], exposed for the corruption property suite.
pub fn scan(bytes: &[u8]) -> Scan {
    let headerless = |stopped: Option<String>| Scan {
        header: None,
        records: Vec::new(),
        header_len: 0,
        offsets: Vec::new(),
        valid_len: 0,
        stopped,
    };
    let mut cur = std::io::Cursor::new(bytes);
    let header = match read_frame(&mut cur) {
        Ok(None) => return headerless(None),
        Ok(Some((JOURNAL_HEADER, payload))) => match JournalHeader::decode(&payload) {
            Ok(h) => h,
            Err(e) => return headerless(Some(format!("malformed journal header: {e}"))),
        },
        Ok(Some((kind, _))) => {
            return headerless(Some(format!(
                "first frame has kind {kind:#04x}, not a journal header"
            )))
        }
        Err(e) => return headerless(Some(format!("unreadable journal header: {e}"))),
    };
    let header_len = cur.position();
    let mut valid_len = header_len;
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let stopped = loop {
        match read_frame(&mut cur) {
            Ok(None) => break None,
            Ok(Some((kind, payload))) => match JournalRecord::decode(kind, &payload) {
                Ok(r) => {
                    records.push(r);
                    valid_len = cur.position();
                    offsets.push(valid_len);
                }
                Err(e) => break Some(e),
            },
            Err(e) => break Some(e.to_string()),
        }
    };
    Scan { header: Some(header), records, header_len, offsets, valid_len, stopped }
}

/// What [`Journal::open`] recovered (and gave up on).
#[derive(Debug)]
pub struct Recovery {
    /// Records to replay on top of the snapshot, in append order.
    pub records: Vec<JournalRecord>,
    /// Why records (or the whole journal) were not replayed, if
    /// anything was skipped: a damaged tail past the last valid record,
    /// a header naming a different snapshot generation, or a header
    /// from a different configuration/version (preserved on disk, not
    /// replayed). `None` on a fully clean open.
    pub discarded: Option<String>,
    /// Byte offset of the end of the header frame in the opened file.
    header_len: u64,
    /// End offset of each replayed record frame, in order.
    offsets: Vec<u64>,
}

impl Recovery {
    /// The file length that keeps exactly the first `applied` records
    /// (`0` keeps just the header) — the truncation point when a
    /// frame-valid record turns out not to *apply* to the snapshot
    /// state at replay.
    pub fn keep_len(&self, applied: usize) -> u64 {
        if applied == 0 {
            self.header_len
        } else {
            self.offsets[applied - 1]
        }
    }
}

/// An open journal file, positioned for appends.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    records: u64,
    bytes: u64,
    /// A reset-to-this-header deferred until the first write: the file
    /// still holds another generation's (or configuration's) bytes,
    /// which a handle that never mutates must not destroy.
    pending: Option<JournalHeader>,
}

impl Journal {
    /// Open the journal at `path` against the snapshot generation
    /// described by `header`, replaying what matches and skipping what
    /// does not:
    ///
    /// * no file / empty file → start a fresh journal (not noteworthy);
    /// * valid header equal to `header` → replay every valid record; a
    ///   damaged tail is truncated off the file and reported;
    /// * same version and fingerprints but a different snapshot id —
    ///   the trace of a crash between snapshot publish and journal
    ///   reset → the journal is discarded and restarted eagerly (its
    ///   records are provably folded into the snapshot that was
    ///   published), with the reason reported;
    /// * anything else (damaged header, other fingerprints or version)
    ///   → nothing is replayed, but the file is **preserved on disk**
    ///   and the truncating reset is deferred to the first append or
    ///   [`Journal::reset`]: an accidental open with the wrong
    ///   configuration must not destroy another configuration's
    ///   durable tail (mirroring how a stale snapshot survives until
    ///   the first save).
    pub fn open(path: &Path, header: JournalHeader) -> std::io::Result<(Journal, Recovery)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan(&bytes);
        if scan.header != Some(header) {
            // Records folded into a published snapshot are the only
            // thing that is provably safe to destroy at open.
            let generation_only = scan.header.is_some_and(|h| {
                h.version == header.version
                    && h.config_fp == header.config_fp
                    && h.thesaurus_fp == header.thesaurus_fp
            });
            let discarded = match scan.header {
                None if bytes.is_empty() => None,
                None => Some(
                    scan.stopped
                        .map(|s| format!("journal not replayed: {s} (file preserved)"))
                        .unwrap_or_else(|| "journal not replayed: no header".to_string()),
                ),
                Some(h) if generation_only => Some(format!(
                    "journal discarded: extends snapshot {:#x}, current is {:#x} \
                     (crash between snapshot publish and journal reset; records \
                     already folded in)",
                    h.snapshot_id, header.snapshot_id
                )),
                Some(_) => Some(
                    "journal not replayed: header version or fingerprints differ \
                     (file preserved; reset deferred to the first write)"
                        .to_string(),
                ),
            };
            if generation_only || bytes.is_empty() {
                let journal = Journal::create(path, header)?;
                let header_len = journal.bytes;
                return Ok((
                    journal,
                    Recovery { records: Vec::new(), discarded, header_len, offsets: Vec::new() },
                ));
            }
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            let journal = Journal {
                path: path.to_path_buf(),
                file,
                records: 0,
                bytes: 0,
                pending: Some(header),
            };
            return Ok((
                journal,
                Recovery { records: Vec::new(), discarded, header_len: 0, offsets: Vec::new() },
            ));
        }
        let discarded = scan
            .stopped
            .map(|s| format!("journal tail truncated after {} records: {s}", scan.records.len()));
        // Keep the valid prefix; truncation to `valid_len` is explicit.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        if scan.valid_len < bytes.len() as u64 {
            file.set_len(scan.valid_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            records: scan.records.len() as u64,
            bytes: scan.valid_len,
            pending: None,
        };
        let recovery = Recovery {
            records: scan.records,
            discarded,
            header_len: scan.header_len,
            offsets: scan.offsets,
        };
        Ok((journal, recovery))
    }

    /// Start a fresh journal at `path` (truncating anything there) with
    /// the given header, fsynced before return.
    pub fn create(path: &Path, header: JournalHeader) -> std::io::Result<Journal> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut journal =
            Journal { path: path.to_path_buf(), file, records: 0, bytes: 0, pending: None };
        journal.restart(header)?;
        Ok(journal)
    }

    /// Truncate the file and write a fresh fsynced header — the
    /// "journal folded into snapshot" step of save/compaction.
    pub fn reset(&mut self, header: JournalHeader) -> std::io::Result<()> {
        self.restart(header)?;
        self.pending = None;
        Ok(())
    }

    fn restart(&mut self, header: JournalHeader) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        write_frame(&mut buf, JOURNAL_HEADER, &header.encode())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        // Both the write and the fsync go through the JournalReset
        // fault point: a reset is one logical operation to the crash
        // matrix, distinct from ordinary appends.
        fault::write_all(FaultPoint::JournalReset, &self.path, &mut self.file, &buf)?;
        fault::sync(FaultPoint::JournalReset, &self.path, &self.file)?;
        self.records = 0;
        self.bytes = buf.len() as u64;
        Ok(())
    }

    /// Truncate the journal back to `len` bytes / `records` records —
    /// the recovery step when a frame-valid suffix fails to *apply* at
    /// replay. Leaving such a suffix in place would strand every later
    /// append behind a record that can never replay.
    pub fn truncate_to(&mut self, len: u64, records: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.file.sync_all()?;
        self.records = records;
        self.bytes = len;
        Ok(())
    }

    /// Append one record frame. **Not** a durability point by itself —
    /// call [`Journal::sync`] to make everything appended so far
    /// survive a crash. A deferred reset from [`Journal::open`] (the
    /// file held another configuration's bytes) is performed first, so
    /// the preserved foreign tail survives exactly until this handle
    /// commits its first record.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        if let Some(h) = self.pending {
            self.restart(h)?;
            self.pending = None;
        }
        let (kind, payload) = record.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, &payload).map_err(|e| std::io::Error::other(e.to_string()))?;
        fault::write_all(FaultPoint::JournalAppend, &self.path, &mut self.file, &buf)?;
        self.records += 1;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Fsync the journal file: everything appended before this call is
    /// durable once it returns.
    pub fn sync(&self) -> std::io::Result<()> {
        fault::sync(FaultPoint::JournalSync, &self.path, &self.file)
    }

    /// Mutation records in the file (excluding the header).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written to the file (header included).
    pub fn bytes_len(&self) -> u64 {
        self.bytes
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_model::{DataType, ElementKind, SchemaBuilder};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_journal() -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cupid-journal-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        journal_path(&dir.join("cupid.repo"))
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    fn schema(name: &str, field: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
        b.atomic(item, field, ElementKind::XmlElement, DataType::Int);
        b.build().unwrap()
    }

    fn header(snapshot_id: u64) -> JournalHeader {
        JournalHeader { version: JOURNAL_VERSION, config_fp: 11, thesaurus_fp: 22, snapshot_id }
    }

    #[test]
    fn append_sync_reopen_replays_in_order() {
        let path = temp_journal();
        let want = vec![
            JournalRecord::Add(schema("A", "Qty")),
            JournalRecord::Replace(schema("A", "Quantity")),
            JournalRecord::Remove("A".to_string()),
        ];
        {
            let mut j = Journal::create(&path, header(7)).unwrap();
            for r in &want {
                j.append(r).unwrap();
            }
            j.sync().unwrap();
            assert_eq!(j.records(), 3);
        }
        let (j, recovery) = Journal::open(&path, header(7)).unwrap();
        assert_eq!(recovery.records, want);
        assert!(recovery.discarded.is_none());
        assert_eq!(j.records(), 3);
        cleanup(&path);
    }

    #[test]
    fn damaged_tail_is_truncated_to_last_valid_record() {
        let path = temp_journal();
        {
            let mut j = Journal::create(&path, header(1)).unwrap();
            j.append(&JournalRecord::Add(schema("A", "Qty"))).unwrap();
            j.append(&JournalRecord::Add(schema("B", "Qty"))).unwrap();
            j.sync().unwrap();
        }
        // Chop the file mid-way through the last record: replay keeps
        // the first record and the file shrinks to the valid prefix.
        let bytes = std::fs::read(&path).unwrap();
        let scan_all = scan(&bytes);
        assert_eq!(scan_all.records.len(), 2);
        let cut = (scan_all.valid_len - 3) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (j, recovery) = Journal::open(&path, header(1)).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.discarded.unwrap().contains("truncated after 1 records"));
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len < cut as u64, "damaged tail removed from the file");
        assert_eq!(j.records(), 1);
        // A reopen of the truncated file is fully clean.
        drop(j);
        let (_, again) = Journal::open(&path, header(1)).unwrap();
        assert_eq!(again.records.len(), 1);
        assert!(again.discarded.is_none());
        cleanup(&path);
    }

    #[test]
    fn mismatched_snapshot_generation_discards_journal() {
        let path = temp_journal();
        {
            let mut j = Journal::create(&path, header(1)).unwrap();
            j.append(&JournalRecord::Add(schema("A", "Qty"))).unwrap();
            j.sync().unwrap();
        }
        // Same fingerprints, different snapshot id: the crash-between-
        // rename-and-reset case. Records are discarded, not replayed.
        let (j, recovery) = Journal::open(&path, header(2)).unwrap();
        assert!(recovery.records.is_empty());
        assert!(recovery.discarded.unwrap().contains("extends snapshot"));
        assert_eq!(j.records(), 0);
        cleanup(&path);
    }

    #[test]
    fn reset_starts_a_new_generation() {
        let path = temp_journal();
        let mut j = Journal::create(&path, header(1)).unwrap();
        j.append(&JournalRecord::Add(schema("A", "Qty"))).unwrap();
        j.sync().unwrap();
        let full = j.bytes_len();
        j.reset(header(9)).unwrap();
        assert_eq!(j.records(), 0);
        assert!(j.bytes_len() < full);
        drop(j);
        let (_, recovery) = Journal::open(&path, header(9)).unwrap();
        assert!(recovery.records.is_empty());
        assert!(recovery.discarded.is_none());
        cleanup(&path);
    }

    #[test]
    fn garbage_and_foreign_files_are_skipped_loudly_but_preserved() {
        let path = temp_journal();
        std::fs::write(&path, b"not a journal at all").unwrap();
        let (j, recovery) = Journal::open(&path, header(3)).unwrap();
        assert!(recovery.records.is_empty());
        assert!(recovery.discarded.unwrap().contains("journal not replayed"));
        // Unrecognizable bytes are not replayed, but they are not
        // destroyed either while this handle never writes.
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), b"not a journal at all");
        // A lone valid non-header frame is not a journal either.
        let mut buf = Vec::new();
        write_frame(&mut buf, JOURNAL_ADD, b"xx").unwrap();
        std::fs::write(&path, &buf).unwrap();
        let scanned = scan(&std::fs::read(&path).unwrap());
        assert!(scanned.stopped.unwrap().contains("not a journal header"));
        cleanup(&path);
    }

    #[test]
    fn mismatched_fingerprints_defer_reset_until_first_write() {
        let path = temp_journal();
        {
            let mut j = Journal::create(&path, header(1)).unwrap();
            j.append(&JournalRecord::Add(schema("A", "Qty"))).unwrap();
            j.sync().unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        // An accidental open under a different matcher configuration:
        // nothing replays, and — crucially — nothing is destroyed.
        let foreign = JournalHeader {
            version: JOURNAL_VERSION,
            config_fp: 99,
            thesaurus_fp: 22,
            snapshot_id: 1,
        };
        {
            let (j, recovery) = Journal::open(&path, foreign).unwrap();
            assert!(recovery.records.is_empty());
            assert!(recovery.discarded.unwrap().contains("fingerprints differ"));
            assert_eq!(j.records(), 0);
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "foreign open must not write");
        // The rightful configuration still replays the preserved tail.
        let (_, recovery) = Journal::open(&path, header(1)).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.discarded.is_none());
        // The first append under the foreign header performs the
        // deferred reset: the file now belongs to the new generation.
        let (mut j, _) = Journal::open(&path, foreign).unwrap();
        j.append(&JournalRecord::Add(schema("B", "Qty"))).unwrap();
        j.sync().unwrap();
        assert_eq!(j.records(), 1);
        drop(j);
        let (_, recovery) = Journal::open(&path, foreign).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.discarded.is_none());
        cleanup(&path);
    }

    #[test]
    fn truncate_to_drops_a_non_applying_suffix() {
        let path = temp_journal();
        let mut j = Journal::create(&path, header(1)).unwrap();
        j.append(&JournalRecord::Add(schema("A", "Qty"))).unwrap();
        j.append(&JournalRecord::Add(schema("B", "Qty"))).unwrap();
        j.sync().unwrap();
        drop(j);
        let (mut j, recovery) = Journal::open(&path, header(1)).unwrap();
        assert_eq!(recovery.records.len(), 2);
        // Keep only the first record, as replay does when the second
        // fails to apply; appends after the cut stay replayable.
        j.truncate_to(recovery.keep_len(1), 1).unwrap();
        assert_eq!(j.records(), 1);
        j.append(&JournalRecord::Add(schema("C", "Qty"))).unwrap();
        j.sync().unwrap();
        drop(j);
        let (_, again) = Journal::open(&path, header(1)).unwrap();
        assert_eq!(again.records.len(), 2);
        assert!(again.discarded.is_none());
        cleanup(&path);
    }
}
