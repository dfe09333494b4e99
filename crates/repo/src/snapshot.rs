//! The versioned snapshot container (DESIGN.md §8.2).
//!
//! Layout (all integers little-endian, strings length-prefixed UTF-8 —
//! see `cupid_model::wire`):
//!
//! ```text
//! magic        8 bytes   b"CUPIDREP"
//! version      u32       currently 1
//! config_fp    u64       CupidConfig::fingerprint()
//! thesaurus_fp u64       Thesaurus::fingerprint()
//! token table            TokenTable wire: entries in id order, then
//!                        its token memo (allocated chunks, f64 bits)
//! schema count u32
//!   per schema: name, content hash u64, Schema wire, PreparedSchema wire
//! cache count  u32
//!   per entry: source hash u64, target hash u64, MatchSummary wire
//! checksum     u64       fnv1a of every preceding byte
//! ```
//!
//! Decoding is strict: bad magic, an unknown version, a checksum
//! mismatch, any structural inconsistency, or a cached pair keyed by a
//! hash no schema holds is
//! [`RepoError::Corrupt`]; fingerprints that do not match the opening
//! config/thesaurus are [`RepoError::Stale`] (the snapshot is valid,
//! just computed under a different matcher — `open_or_create`
//! discards it and starts fresh rather than serving wrong results).

use std::collections::{BTreeMap, BTreeSet};

use cupid_core::{MatchSummary, PreparedSchema};
use cupid_lexical::TokenTable;
use cupid_model::{fnv1a, fnv1a_extend, Schema, WireReader, WireWriter};

use crate::RepoError;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"CUPIDREP";
/// Current container version.
pub const VERSION: u32 = 1;

/// Everything a repository persists, decoded and fingerprint-checked.
#[derive(Debug)]
pub(crate) struct SnapshotState {
    /// Schema names, in repository order.
    pub names: Vec<String>,
    /// Content hashes, parallel to `names`.
    pub hashes: Vec<u64>,
    /// Source schema graphs, parallel to `names`.
    pub sources: Vec<Schema>,
    /// Prepared per-schema precompute, parallel to `names`.
    pub prepared: Vec<PreparedSchema>,
    /// The session token table (vocabulary in id order, token memo).
    pub table: TokenTable,
    /// Per-pair summary cache, keyed by (source hash, target hash).
    pub cache: BTreeMap<(u64, u64), MatchSummary>,
}

/// Borrowed view of everything a repository persists (the encode-side
/// twin of [`SnapshotState`], so saving never clones the session).
pub(crate) struct SnapshotRefs<'a> {
    /// Schema names, in repository order.
    pub names: &'a [String],
    /// Content hashes, parallel to `names`.
    pub hashes: &'a [u64],
    /// Source schema graphs, parallel to `names`.
    pub sources: &'a [Schema],
    /// Prepared per-schema precompute, parallel to `names`.
    pub prepared: &'a [PreparedSchema],
    /// The session token table.
    pub table: &'a TokenTable,
    /// Per-pair summary cache.
    pub cache: &'a BTreeMap<(u64, u64), MatchSummary>,
}

/// Encode a snapshot, appending the trailing checksum.
pub(crate) fn encode(state: &SnapshotRefs<'_>, config_fp: u64, thesaurus_fp: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u64(config_fp);
    w.put_u64(thesaurus_fp);
    state.table.write_wire(&mut w);
    w.put_list(0..state.names.len(), |w, i| {
        w.put_str(&state.names[i]);
        w.put_u64(state.hashes[i]);
        state.sources[i].write_wire(w);
        state.prepared[i].write_wire(w);
    });
    w.put_list(state.cache, |w, (&(ha, hb), summary)| {
        w.put_u64(ha);
        w.put_u64(hb);
        summary.write_wire(w);
    });
    let checksum = fnv1a(w.bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// The id of a snapshot that [`encode`] wrote or whose checksum
/// [`decode`] verified (it returned `Ok` or [`RepoError::Stale`]):
/// `fnv1a` of its bytes (DESIGN.md §10.1). The stored checksum is the FNV
/// state after the body, so the id extends it over the checksum's own 8
/// bytes instead of hashing the body a second time.
pub(crate) fn id(bytes: &[u8]) -> u64 {
    let tail = &bytes[bytes.len() - 8..];
    fnv1a_extend(u64::from_le_bytes(tail.try_into().expect("8 bytes")), tail)
}

/// Decode and validate a snapshot against the opening config/thesaurus
/// fingerprints.
pub(crate) fn decode(
    bytes: &[u8],
    config_fp: u64,
    thesaurus_fp: u64,
) -> Result<SnapshotState, RepoError> {
    let corrupt = |message: String| RepoError::Corrupt { message };
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 + 8 {
        return Err(corrupt(format!("{} bytes is too short for a snapshot", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let actual = fnv1a(body);
    if stored != actual {
        return Err(corrupt(format!("checksum mismatch: stored {stored:#x}, actual {actual:#x}")));
    }
    let mut r = WireReader::new(body);
    let magic = r.get_bytes(MAGIC.len()).map_err(|e| corrupt(e.to_string()))?;
    if magic != MAGIC {
        return Err(corrupt("bad magic: not a cupid repository snapshot".to_string()));
    }
    let version = r.get_u32().map_err(|e| corrupt(e.to_string()))?;
    if version != VERSION {
        return Err(RepoError::Stale {
            reason: format!("snapshot version {version}, this build reads {VERSION}"),
        });
    }
    let snap_config_fp = r.get_u64().map_err(|e| corrupt(e.to_string()))?;
    let snap_thesaurus_fp = r.get_u64().map_err(|e| corrupt(e.to_string()))?;
    if snap_config_fp != config_fp {
        return Err(RepoError::Stale {
            reason: format!(
                "config fingerprint {snap_config_fp:#x} differs from the opening config \
                 ({config_fp:#x}); persisted similarities would not match"
            ),
        });
    }
    if snap_thesaurus_fp != thesaurus_fp {
        return Err(RepoError::Stale {
            reason: format!(
                "thesaurus fingerprint {snap_thesaurus_fp:#x} differs from the opening \
                 thesaurus ({thesaurus_fp:#x}); persisted similarities would not match"
            ),
        });
    }

    let mut parse = || -> Result<SnapshotState, cupid_model::WireError> {
        // Decoding each prepared schema interns its element names into
        // the table: the name memo is derived state, not on the wire.
        let mut table = TokenTable::read_wire(&mut r)?;
        // One record per schema, split into the state's parallel lists
        // as each decodes.
        let (mut names, mut hashes, mut sources, mut prepared) = (vec![], vec![], vec![], vec![]);
        r.get_list(|r| {
            names.push(r.get_str()?);
            hashes.push(r.get_u64()?);
            sources.push(Schema::read_wire(r)?);
            prepared.push(PreparedSchema::read_wire(r, &mut table)?);
            Ok(())
        })?;
        let nc = r.get_len()?;
        let mut cache = BTreeMap::new();
        for _ in 0..nc {
            let ha = r.get_u64()?;
            let hb = r.get_u64()?;
            cache.insert((ha, hb), MatchSummary::read_wire(&mut r)?);
        }
        r.finish()?;
        Ok(SnapshotState { names, hashes, sources, prepared, table, cache })
    };
    let state = parse().map_err(|e| corrupt(e.to_string()))?;

    // Cross-checks the wire decoders cannot do locally.
    for (i, (schema, &hash)) in state.sources.iter().zip(&state.hashes).enumerate() {
        if schema.content_hash() != hash {
            return Err(corrupt(format!(
                "schema #{i} ({}) hashes to {:#x} but the snapshot recorded {hash:#x}",
                state.names[i],
                schema.content_hash()
            )));
        }
    }
    let mut seen = state.names.clone();
    seen.sort();
    seen.dedup();
    if seen.len() != state.names.len() {
        return Err(corrupt("duplicate schema names".to_string()));
    }
    // No writer saves a dead key (mutations evict them, and older
    // versions pruned them at save), so one came from outside.
    let live: BTreeSet<u64> = state.hashes.iter().copied().collect();
    if let Some((a, b)) = state.cache.keys().find(|(a, b)| !live.contains(a) || !live.contains(b)) {
        return Err(corrupt(format!("cached pair ({a:#x}, {b:#x}) names a hash no schema holds")));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_bytes() -> Vec<u8> {
        let (table, cache) = (TokenTable::new(), BTreeMap::new());
        let refs = SnapshotRefs {
            names: &[],
            hashes: &[],
            sources: &[],
            prepared: &[],
            table: &table,
            cache: &cache,
        };
        encode(&refs, 1, 2)
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let state = decode(&empty_bytes(), 1, 2).unwrap();
        assert!(state.names.is_empty());
        assert!(state.cache.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_corrupt() {
        let bytes = empty_bytes();
        assert!(matches!(decode(&bytes, 99, 2), Err(RepoError::Stale { .. })));
        assert!(matches!(decode(&bytes, 1, 99), Err(RepoError::Stale { .. })));
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let bytes = empty_bytes();
        for i in 0..bytes.len() {
            let mut broken = bytes.clone();
            broken[i] ^= 0x01;
            assert!(decode(&broken, 1, 2).is_err(), "flipping byte {i} must not decode silently");
        }
    }

    /// A cache key naming a hash that no schema in the snapshot holds
    /// is refused, whichever side names it.
    #[test]
    fn a_cached_pair_naming_a_dead_hash_is_corrupt() {
        use cupid_core::{CupidConfig, MatchSession};
        use cupid_lexical::Thesaurus;
        use cupid_model::{DataType, ElementKind, SchemaBuilder};

        let (config, thesaurus) = (CupidConfig::default(), Thesaurus::empty());
        let schema = |name: &str| {
            let mut b = SchemaBuilder::new(name);
            let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
            b.atomic(item, "Qty", ElementKind::XmlElement, DataType::Int);
            b.build().unwrap()
        };
        let sources = vec![schema("A"), schema("B")];
        let mut session = MatchSession::new(&config, &thesaurus);
        let ids = session.add_corpus(&sources).unwrap();
        let summary = session.match_pair(ids[0], ids[1]);
        let names = ["A", "B"].map(String::from);
        let hashes: Vec<u64> = sources.iter().map(Schema::content_hash).collect();
        let bytes = |key| {
            let cache = BTreeMap::from([(key, summary.clone())]);
            let refs = SnapshotRefs {
                names: &names,
                hashes: &hashes,
                sources: &sources,
                prepared: session.prepared(),
                table: session.table(),
                cache: &cache,
            };
            encode(&refs, 1, 2)
        };
        assert_eq!(decode(&bytes((hashes[0], hashes[1])), 1, 2).unwrap().cache.len(), 1);
        for key in [(hashes[0], !hashes[1]), (!hashes[0], hashes[1])] {
            match decode(&bytes(key), 1, 2) {
                Err(RepoError::Corrupt { message }) => assert!(message.contains("no schema holds")),
                other => panic!("expected Corrupt for {key:x?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = empty_bytes();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 1, 2).is_err(), "cut at {cut}");
        }
    }
}
