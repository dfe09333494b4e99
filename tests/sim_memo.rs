//! The token-similarity memo's own contract (DESIGN.md §7/§8).
//!
//! A `SimStore` memoizes a *pure* function of the token table that owns
//! it, and a batch session's shards fill that one store in place through
//! `&`. So the order in which caches fill it — one after another or
//! racing on threads — can change *when* a pair's similarity was
//! computed, but never *what* any `sim(t1, t2)` lookup returns, nor how
//! many distinct pairs the store counts. `tests/batch_equivalence.rs`
//! exercises this indirectly through whole matches; these tests pin the
//! store's own contract over randomized vocabularies and fill patterns,
//! the wire round trip, and the reservation every growth of a table
//! makes.

use std::path::PathBuf;
use std::sync::Barrier;

use cupid::core::linguistic::{analyze, pair_lsim, SchemaLing};
use cupid::core::{CupidConfig, MatchSession, SchemaId};
use cupid::lexical::{
    SimClass, SimStore, Thesaurus, TokenId, TokenSimCache, TokenTable, TOKEN_BOUND,
};
use cupid::model::{DataType, ElementKind, Schema, SchemaBuilder, WireReader, WireWriter};
use cupid::repo::Repository;
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

/// Compute the pair picks (indices into the id list) through `cache`.
fn fill(cache: &mut TokenSimCache<'_>, ids: &[TokenId], picks: &[usize]) {
    // each pick encodes a pair: high bits pick one token, low bits the
    // other (the shim has no tuple strategies)
    for &p in picks {
        let (a, b) = (p / 32, p % 32);
        cache.sim(ids[a % ids.len()], ids[b % ids.len()]);
    }
}

/// Every `sim` lookup through `cache`, for the full id cross product,
/// as exact bit patterns, and the pairs its store counts afterwards.
fn lookups(cache: &mut TokenSimCache<'_>, ids: &[TokenId]) -> (Vec<u64>, usize) {
    let mut out = Vec::with_capacity(ids.len() * ids.len());
    for &a in ids {
        for &b in ids {
            out.push(cache.sim(a, b).to_bits());
        }
    }
    (out, cache.distinct_pairs_computed())
}

/// A cache filling the table's memo in place.
fn memo_cache<'a>(table: &'a TokenTable, thesaurus: &'a Thesaurus) -> TokenSimCache<'a> {
    TokenSimCache::new(table, thesaurus, &CupidConfig::default().affix)
}

/// A cold cache over a store of its own, which leaves the table's memo
/// alone.
fn cold_cache<'a>(table: &'a TokenTable, thesaurus: &'a Thesaurus) -> TokenSimCache<'a> {
    TokenSimCache::with_store(table, thesaurus, &CupidConfig::default().affix, SimStore::new())
}

/// A decoded store's chunk directory is bounded by the triangle of
/// pairs its table can index: a store filled up to the table's last
/// pair round-trips, and a directory one chunk longer is rejected
/// before anything is reserved for it. A pair past `TOKEN_BOUND` is
/// computed every time and never memoized.
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

    // An empty directory, padded so that its length passes the reader's
    // remaining-input cap and only the directory bound decides.
    let empty = |dir_len: usize| {
        let mut w = WireWriter::new();
        w.put_len(dir_len);
        w.put_len(0);
        w.put_bytes(&vec![0; dir_len]);
        w.into_bytes()
    };
    for (dir_len, fits) in [(3, true), (4, false)] {
        assert_eq!(read(&empty(dir_len)).is_ok(), fits, "an empty {dir_len}-chunk directory");
    }

    // A table twice the bound's size still bounds the directory by its
    // own triangle, 8,192·8,193/2 = 33,558,528 pairs: 8,193 chunks.
    for (dir_len, fits) in [(8_193, true), (8_194, false)] {
        let got = SimStore::read_wire(&mut WireReader::new(&empty(dir_len)), 2 * TOKEN_BOUND);
        assert_eq!(got.is_ok(), fits, "an empty {dir_len}-chunk directory past the bound");
    }

    // Pairs with a token at the bound or past it match a cold cache's
    // bits every time and are not memoized; a pair below it is.
    let (table, ids) = vocabulary(TOKEN_BOUND + 2);
    let (mut cache, mut cold) = (memo_cache(&table, &thesaurus), cold_cache(&table, &thesaurus));
    for (a, b) in [(ids[0], ids[TOKEN_BOUND]), (ids[TOKEN_BOUND + 1], ids[1])] {
        let want = cold.sim(a, b).to_bits();
        for _ in 0..3 {
            assert_eq!(cache.sim(a, b).to_bits(), want);
        }
    }
    let store = table.store();
    assert_eq!(store.distinct_pairs_computed(), 0, "a pair past the bound was memoized");
    cache.sim(ids[0], ids[TOKEN_BOUND - 1]);
    assert_eq!(store.distinct_pairs_computed(), 1, "a pair below the bound is memoized");
}

/// A store saved before `TOKEN_BOUND` capped the memo still decodes:
/// for a 5,000-token table the wire holds a pair below the bound in
/// chunk 0 and the table's last pair in chunk 3,052, past the bound's
/// 2,049 chunks. The first is kept and answers as a hit; the second is
/// dropped, uncounted, and its pair is computed on demand.
#[test]
fn a_store_saved_past_the_bound_decodes() {
    // 4,096·4,097/2 = 8,390,656 pairs: the bound's triangle is 2,049 chunks.
    assert_eq!(TOKEN_BOUND, 4096);
    let (table, ids) = vocabulary(5_000);
    let thesaurus = Thesaurus::with_default_stopwords();
    let affix = CupidConfig::default().affix;
    let mut cold = cold_cache(&table, &thesaurus);
    let (first, last) = ((ids[0], ids[1]), (ids[4_999], ids[4_999]));
    let want = [cold.sim(first.0, first.1).to_bits(), cold.sim(last.0, last.1).to_bits()];

    // The layout `SimStore::write_wire` gives a store with these two
    // slots filled: slot 1 of chunk 0, and slot
    // 4,999·5,000/2 + 4,999 = 12,502,499, chunk 3,052.
    let wire = |chunks: &[(u32, usize, u64)]| {
        let mut w = WireWriter::new();
        w.put_len(3_053);
        w.put_len(chunks.len());
        for &(idx, slot, v) in chunks {
            w.put_u32(idx);
            for s in 0..4_096 {
                w.put_f64(if s == slot { f64::from_bits(v) } else { f64::NAN });
            }
        }
        w.into_bytes()
    };
    let read = |bytes: &[u8]| SimStore::read_wire(&mut WireReader::new(bytes), table.len());
    let past = (3_052, 12_502_499 % 4_096, want[1]);
    let back = read(&wire(&[(0, 1, want[0]), past])).expect("a store saved before the bound");
    assert_eq!(back.allocated_chunks(), 1, "only the chunk below the bound is kept");
    assert_eq!(back.distinct_pairs_computed(), 1, "the dropped chunk is not counted");

    let mut cache = TokenSimCache::with_store(&table, &thesaurus, &affix, back);
    assert_eq!(cache.sim(first.0, first.1).to_bits(), want[0]);
    assert_eq!(cache.sim(last.0, last.1).to_bits(), want[1]);
    assert_eq!(cache.distinct_pairs_computed(), 1, "a hit below the bound, a miss past it");

    // A dropped chunk is still checked: a repeated index is corrupt, and
    // the directory is bounded by the table's own triangle, 12,502,500
    // pairs: 3,053 chunks.
    let refused = |bytes: &[u8]| read(bytes).expect_err("a corrupt store decoded").message;
    assert!(refused(&wire(&[past, past])).starts_with("duplicate chunk index 3052"));
    let mut w = WireWriter::new();
    w.put_len(3_054);
    w.put_len(0);
    w.put_bytes(&[0; 3_054]);
    assert!(refused(w.bytes()).starts_with("chunk directory of 3054 past the 3053"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Caches over one table fill its memo in every order of three pick
    /// lists, and then on three racing threads, a fresh table each
    /// time: every lookup equals a cold cache's bits, and the memo
    /// counts the same pairs each time.
    #[test]
    fn fill_order_never_changes_lookups(
        vocab in 4usize..24,
        picks_a in proptest::collection::vec(0usize..1024, 0..40),
        picks_b in proptest::collection::vec(0usize..1024, 0..40),
        picks_c in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let thesaurus = Thesaurus::with_default_stopwords();
        let (table, ids) = vocabulary(vocab);
        let (oracle, _) = lookups(&mut cold_cache(&table, &thesaurus), &ids);

        let lists = [&picks_a, &picks_b, &picks_c];
        let mut counts = Vec::new();
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let (table, ids) = vocabulary(vocab);
            for k in order {
                fill(&mut memo_cache(&table, &thesaurus), &ids, lists[k]);
            }
            counts.push(table.store().distinct_pairs_computed());
            let (sims, _) = lookups(&mut memo_cache(&table, &thesaurus), &ids);
            prop_assert_eq!(&sims, &oracle, "fill order {:?} changed a lookup", order);
        }

        let ((table, ids), start) = (vocabulary(vocab), Barrier::new(lists.len()));
        std::thread::scope(|scope| {
            for picks in lists {
                let (table, thesaurus, ids, start) = (&table, &thesaurus, &ids, &start);
                scope.spawn(move || {
                    start.wait();
                    fill(&mut memo_cache(table, thesaurus), ids, picks)
                });
            }
        });
        counts.push(table.store().distinct_pairs_computed());
        let (sims, _) = lookups(&mut memo_cache(&table, &thesaurus), &ids);
        prop_assert_eq!(&sims, &oracle, "racing threads changed a lookup");
        prop_assert!(counts.iter().all(|&c| c == counts[0]), "counts {:?}", counts);
    }

    /// A store that round-trips the wire format answers every lookup
    /// and counts its pairs exactly like the original.
    #[test]
    fn wire_round_trip_keeps_every_lookup(
        vocab in 4usize..20,
        picks in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let (table, ids) = vocabulary(vocab);
        let thesaurus = Thesaurus::with_default_stopwords();
        let affix = CupidConfig::default().affix;
        let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
        fill(&mut cache, &ids, &picks);
        let store = cache.into_store();

        let mut w = WireWriter::new();
        store.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = SimStore::read_wire(&mut r, table.len()).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back.distinct_pairs_computed(), store.distinct_pairs_computed());
        prop_assert_eq!(back.allocated_chunks(), store.allocated_chunks());

        let after = |store| {
            lookups(&mut TokenSimCache::with_store(&table, &thesaurus, &affix, store), &ids)
        };
        prop_assert_eq!(after(back), after(store));
    }
}

/// A schema of one `Item` holding a leaf per number in `fields`: each
/// leaf name is one word token plus one distinct number token.
fn numbered(name: &str, fields: std::ops::Range<usize>) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
    for f in fields {
        b.atomic(item, format!("Field{f}").as_str(), ElementKind::XmlElement, DataType::Int);
    }
    b.build().unwrap()
}

/// A self-cleaning directory for a repository snapshot.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Each way a table grows reserves its memo. A pair past the reserved
/// directory is computed and not memoized, which changes no output, so
/// this counts pairs: a cold pair of over 90 distinct tokens, whose
/// pairs fall past the first 4,096-slot chunk, must memoize exactly the
/// pairs a cache over a store of its own computes, and a second call
/// must compute none.
#[test]
fn every_table_growth_reserves_the_memo() {
    let cfg = CupidConfig::default();
    let th = Thesaurus::with_default_stopwords();
    let (a, b) = (numbered("A", 0..48), numbered("B", 100..148));
    let want = analyze(&a, &b, &th, &cfg);
    assert!(want.vocab_size > 90, "{} tokens", want.vocab_size);

    // Memoized pairs before, after one and after two calls.
    let check = |at: &str, lsim_of: &dyn Fn(), computed: &dyn Fn() -> (usize, usize)| {
        let (before, _) = computed();
        lsim_of();
        let (once, chunks) = computed();
        lsim_of();
        let (twice, _) = computed();
        assert_eq!(once - before, want.distinct_token_pairs, "{at}: the cold pair");
        assert_eq!(twice, once, "{at}: the warm pair");
        assert!(chunks > 1, "{at}: pairs past the first chunk");
    };
    let session_check = |at: &str, session: &MatchSession<'_>, i: usize, j: usize| {
        let (i, j) = (SchemaId::from_index(i), SchemaId::from_index(j));
        let stats = || (session.stats().distinct_pairs_computed, session.stats().sim_chunks);
        check(at, &|| drop(session.lsim_of(i, j)), &stats);
    };

    // A bare table, grown by preparing both schemas into it, with no
    // session involved. On a clone (the name memo is the table's), a
    // cache over a store of its own counts the pairs `analyze` reports.
    let mut table = TokenTable::new();
    let (p, q) =
        (SchemaLing::prepare(&a, &th, &mut table), SchemaLing::prepare(&b, &th, &mut table));
    let copy = table.clone();
    let mut own = TokenSimCache::with_store(&copy, &th, &cfg.affix, SimStore::new());
    pair_lsim(&p, &q, &cfg, &mut own);
    assert_eq!(own.distinct_pairs_computed(), want.distinct_token_pairs);
    let memo = || (table.store().distinct_pairs_computed(), table.store().allocated_chunks());
    let lsim = || drop(pair_lsim(&p, &q, &cfg, &mut TokenSimCache::new(&table, &th, &cfg.affix)));
    check("TokenTable", &lsim, &memo);

    let mut session = MatchSession::new(&cfg, &th);
    session.add(&a).unwrap();
    session.add(&b).unwrap();
    session_check("add", &session, 0, 1);

    let mut session = MatchSession::new(&cfg, &th);
    session.add_corpus(&[a.clone(), b.clone()]).unwrap();
    session_check("add_corpus", &session, 0, 1);

    let mut session = MatchSession::new(&cfg, &th);
    session.add_corpus(&[numbered("C", 0..1), numbered("D", 1..2)]).unwrap();
    session.replace(SchemaId::from_index(0), &a).unwrap();
    session.replace(SchemaId::from_index(1), &b).unwrap();
    session_check("replace", &session, 0, 1);

    let dir = TempDir(std::env::temp_dir().join(format!("cupid-sim-memo-{}", std::process::id())));
    {
        let mut repo = Repository::open_or_create(&dir.0, &cfg, &th).unwrap();
        repo.add(&numbered("C", 0..1)).unwrap();
        repo.save().unwrap();
    }
    let mut repo = Repository::open_or_create(&dir.0, &cfg, &th).unwrap();
    assert!(repo.was_loaded());
    repo.add(&a).unwrap();
    repo.add(&b).unwrap();
    let stats = || (repo.stats().session.distinct_pairs_computed, repo.stats().session.sim_chunks);
    check("Repository::add", &|| drop(repo.lsim_of("A", "B").unwrap()), &stats);
}
