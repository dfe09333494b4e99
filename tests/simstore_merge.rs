//! Direct property coverage for `SimStore::merge` (DESIGN.md §7/§8).
//!
//! The sharded batch path and the snapshot loader both rely on one
//! invariant: a `SimStore` memoizes a *pure* function of the token
//! table, so merging stores — in any order, with any overlap — can
//! change *when* a pair's similarity was computed but never *what* any
//! `sim(t1, t2)` lookup returns. `tests/batch_equivalence.rs` exercises
//! this indirectly through whole matches; these proptests pin the
//! store's own contract over randomized vocabularies, fill patterns and
//! merge orders.

use cupid::core::CupidConfig;
use cupid::lexical::{SimClass, SimStore, Thesaurus, TokenId, TokenSimCache, TokenTable};
use cupid::model::{WireReader, WireWriter};
use proptest::prelude::*;

/// Words for randomized vocabularies: realistic schema tokens with
/// plenty of shared affixes so the affix fallback produces interesting
/// (non-zero, non-one) values.
const POOL: &[&str] = &[
    "order",
    "orders",
    "ordering",
    "customer",
    "custom",
    "cost",
    "costing",
    "street",
    "straight",
    "road",
    "roadway",
    "phone",
    "telephone",
    "bill",
    "billing",
    "invoice",
    "ship",
    "shipment",
    "item",
    "items",
    "vendor",
    "vend",
    "code",
    "codes",
    "number",
    "total",
    "totals",
    "status",
];

/// A vocabulary of `n` distinct tokens (words, plus numbers and a
/// special symbol past the word pool, so every `SimClass` is present).
fn vocabulary(n: usize) -> (TokenTable, Vec<TokenId>) {
    let mut table = TokenTable::new();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let id = if let Some(word) = POOL.get(i) {
            table.intern(SimClass::Word, word)
        } else if i % 2 == 0 {
            table.intern(SimClass::Number, &format!("{i}"))
        } else {
            table.intern(SimClass::Special, &format!("#{i}"))
        };
        ids.push(id);
    }
    (table, ids)
}

/// Fill a fresh store by computing the pair picks (indices into the
/// id list) through a cache over `table`.
fn filled_store(
    table: &TokenTable,
    thesaurus: &Thesaurus,
    ids: &[TokenId],
    picks: &[usize],
) -> SimStore {
    let affix = CupidConfig::default().affix;
    let mut cache = TokenSimCache::new(table, thesaurus, &affix);
    // each pick encodes a pair: high bits pick one token, low bits the
    // other (the shim has no tuple strategies)
    for &p in picks {
        let (a, b) = (p / 32, p % 32);
        cache.sim(ids[a % ids.len()], ids[b % ids.len()]);
    }
    cache.into_store()
}

/// Every `sim` lookup through `store`, for the full id cross product,
/// as exact bit patterns.
fn all_sims(
    table: &TokenTable,
    thesaurus: &Thesaurus,
    ids: &[TokenId],
    store: SimStore,
) -> (Vec<u64>, usize) {
    let affix = CupidConfig::default().affix;
    let mut cache = TokenSimCache::with_store(table, thesaurus, &affix, store);
    let mut out = Vec::with_capacity(ids.len() * ids.len());
    for &a in ids {
        for &b in ids {
            out.push(cache.sim(a, b).to_bits());
        }
    }
    let computed = cache.distinct_pairs_computed();
    (out, computed)
}

/// A decoded store's chunk directory is bounded by the triangle of
/// pairs its table can index: a store filled up to the table's last
/// pair round-trips, and a directory one chunk longer is rejected
/// before anything is reserved for it.
#[test]
fn store_directory_is_bounded_by_the_table_triangle() {
    // 128 tokens index 128·129/2 = 8,256 pairs: three 4,096-slot chunks.
    let (table, ids) = vocabulary(128);
    let thesaurus = Thesaurus::with_default_stopwords();
    let affix = CupidConfig::default().affix;
    let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
    let last = ids[ids.len() - 1];
    let want = cache.sim(last, last).to_bits();
    let read = |bytes: &[u8]| SimStore::read_wire(&mut WireReader::new(bytes), table.len());

    let mut w = WireWriter::new();
    cache.into_store().write_wire(&mut w);
    assert_eq!(&w.bytes()[..4], &3u32.to_le_bytes(), "the last pair lives in chunk 2");
    let back = read(w.bytes()).expect("a store filled over the table decodes");
    let mut cache = TokenSimCache::with_store(&table, &thesaurus, &affix, back);
    assert_eq!(cache.sim(last, last).to_bits(), want);
    assert_eq!(cache.distinct_pairs_computed(), 1, "the decoded value is a hit");

    for (dir_len, fits) in [(3, true), (4, false)] {
        let mut w = WireWriter::new();
        w.put_len(dir_len);
        w.put_len(0);
        assert_eq!(read(w.bytes()).is_ok(), fits, "an empty {dir_len}-chunk directory");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merging shard stores in any order yields a store whose every
    /// lookup — warm or cold — is bit-identical to a cold cache's.
    #[test]
    fn merge_order_never_changes_lookups(
        vocab in 4usize..24,
        picks_a in proptest::collection::vec(0usize..1024, 0..40),
        picks_b in proptest::collection::vec(0usize..1024, 0..40),
        picks_c in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let (table, ids) = vocabulary(vocab);
        let thesaurus = Thesaurus::with_default_stopwords();
        let oracle = {
            let (sims, _) = all_sims(&table, &thesaurus, &ids, SimStore::new());
            sims
        };

        let shards = [&picks_a, &picks_b, &picks_c];
        // every permutation of three shards
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut merged = SimStore::new();
            for k in order {
                let shard = filled_store(&table, &thesaurus, &ids, shards[k]);
                merged.merge(shard);
            }
            let merged_count = merged.distinct_pairs_computed();
            let (sims, final_count) = all_sims(&table, &thesaurus, &ids, merged);
            prop_assert_eq!(&sims, &oracle, "merge order {:?} changed a lookup", order);
            // the merged count never exceeds what the full cross
            // product computes, and merging never loses work
            prop_assert!(merged_count <= final_count);
        }
    }

    /// Merge is idempotent and commutative in its observable effect:
    /// `a ∪ b` and `b ∪ a` (and `a ∪ a`) agree on every lookup and on
    /// the distinct-pairs counter.
    #[test]
    fn merge_is_commutative_and_idempotent(
        vocab in 4usize..20,
        picks_a in proptest::collection::vec(0usize..1024, 0..40),
        picks_b in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let (table, ids) = vocabulary(vocab);
        let thesaurus = Thesaurus::with_default_stopwords();
        let build = |picks: &[usize]| filled_store(&table, &thesaurus, &ids, picks);

        let mut ab = build(&picks_a);
        ab.merge(build(&picks_b));
        let mut ba = build(&picks_b);
        ba.merge(build(&picks_a));
        prop_assert_eq!(ab.distinct_pairs_computed(), ba.distinct_pairs_computed());

        let mut aa = build(&picks_a);
        aa.merge(build(&picks_a));
        prop_assert_eq!(aa.distinct_pairs_computed(), build(&picks_a).distinct_pairs_computed());

        let (sims_ab, _) = all_sims(&table, &thesaurus, &ids, ab);
        let (sims_ba, _) = all_sims(&table, &thesaurus, &ids, ba);
        prop_assert_eq!(sims_ab, sims_ba);
    }

    /// A store that round-trips the wire format merges exactly like the
    /// original (snapshot loading composes with sharded execution).
    #[test]
    fn merge_composes_with_wire_round_trip(
        vocab in 4usize..20,
        picks_a in proptest::collection::vec(0usize..1024, 0..30),
        picks_b in proptest::collection::vec(0usize..1024, 0..30),
    ) {
        let (table, ids) = vocabulary(vocab);
        let thesaurus = Thesaurus::with_default_stopwords();
        let a = filled_store(&table, &thesaurus, &ids, &picks_a);
        let b = filled_store(&table, &thesaurus, &ids, &picks_b);

        let round_trip = |s: &SimStore| -> SimStore {
            let mut w = WireWriter::new();
            s.write_wire(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = SimStore::read_wire(&mut r, table.len()).unwrap();
            r.finish().unwrap();
            back
        };

        let mut direct = a.clone();
        direct.merge(b.clone());
        let mut via_wire = round_trip(&a);
        via_wire.merge(round_trip(&b));
        prop_assert_eq!(direct.distinct_pairs_computed(), via_wire.distinct_pairs_computed());
        let (sims_direct, _) = all_sims(&table, &thesaurus, &ids, direct);
        let (sims_wire, _) = all_sims(&table, &thesaurus, &ids, via_wire);
        prop_assert_eq!(sims_direct, sims_wire);
    }
}
