//! Edges of the name memo (DESIGN.md §6): `ns` per element-name pair,
//! kept in the token table and filled through `&` by every cache over
//! it.
//!
//! - A pair and its mirror hit one slot, and the memo lives in the
//!   table, not in a cache.
//! - A clone copies the memo; a decoded table starts with an empty one.
//! - Threads racing on the same slots leave the bits one thread leaves.
//! - Names past `NAME_BOUND` are computed directly: a session over more
//!   names than the bound matches pairs that straddle it bit for bit
//!   like `Cupid::match_schemas`, and the memo stays within the bound's
//!   triangle of 129 chunks.

use cupid::core::{Cupid, CupidConfig, MappingElement, MatchSession};
use cupid::lexical::strsim::AffixConfig;
use cupid::lexical::{NameId, Thesaurus, ThesaurusBuilder, TokenSimCache, TokenTable, NAME_BOUND};
use cupid::model::{DataType, ElementKind, Schema, SchemaBuilder, WireReader, WireWriter};

/// A table of `n` distinct name keys, interned in order.
fn named_table(n: usize) -> (TokenTable, Vec<NameId>) {
    let mut table = TokenTable::new();
    let ids = (0..n as u32).map(|k| table.intern_key(&[k, 0, 1, 1, 1, 1, 1])).collect();
    (table, ids)
}

/// Every memo slot over `ids`, read without filling any: a miss stores
/// NaN, which the memo reads as "not computed".
fn slots(table: &TokenTable, ids: &[NameId]) -> Vec<u64> {
    let (thesaurus, affix) = (Thesaurus::empty(), AffixConfig::default());
    let mut cache = TokenSimCache::new(table, &thesaurus, &affix);
    let mut out = Vec::new();
    for (j, &b) in ids.iter().enumerate() {
        for &a in &ids[..=j] {
            out.push(cache.name_sim(a, b, |_| f64::NAN).to_bits());
        }
    }
    out
}

#[test]
fn a_name_pair_and_its_mirror_share_a_slot() {
    let (thesaurus, affix) = (Thesaurus::empty(), AffixConfig::default());
    let (mut table, ids) = named_table(3);
    assert_eq!(table.intern_key(&[2, 0, 1, 1, 1, 1, 1]), ids[2], "equal keys, one id");
    assert_eq!(table.name_count(), 3);
    let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
    assert_eq!(cache.name_sim(ids[2], ids[0], |_| 0.25), 0.25);
    assert_eq!(cache.name_sim(ids[0], ids[2], |_| unreachable!("a hit")), 0.25);
    assert_eq!(cache.name_sim(ids[1], ids[2], |_| 0.5), 0.5, "a neighbouring slot is empty");
    // The memo lives in the table, so another cache over it hits.
    let mut other = TokenSimCache::new(&table, &thesaurus, &affix);
    assert_eq!(other.name_sim(ids[0], ids[2], |_| unreachable!("a hit")), 0.25);
}

#[test]
fn a_cloned_table_copies_the_name_memo_and_a_decoded_one_starts_empty() {
    let (thesaurus, affix) = (Thesaurus::empty(), AffixConfig::default());
    let (mut table, ids) = named_table(3);
    table.intern(cupid::lexical::SimClass::Word, "street");
    TokenSimCache::new(&table, &thesaurus, &affix).name_sim(ids[0], ids[1], |_| 0.75);
    let empty = vec![f64::NAN.to_bits(); 6];

    let clone = table.clone();
    assert_eq!((clone.name_count(), clone.name_memo_bytes()), (3, table.name_memo_bytes()));
    assert_ne!(slots(&table, &ids), empty, "the original keeps its value");
    assert_eq!(slots(&clone, &ids), slots(&table, &ids), "the clone holds the same slots");
    TokenSimCache::new(&clone, &thesaurus, &affix).name_sim(ids[0], ids[2], |_| 0.25);
    assert_ne!(slots(&clone, &ids), slots(&table, &ids), "a clone's memo is its own");

    let mut w = WireWriter::new();
    table.write_wire(&mut w);
    let bytes = w.into_bytes();
    let mut back = TokenTable::read_wire(&mut WireReader::new(&bytes)).unwrap();
    assert_eq!((back.len(), back.name_count(), back.name_memo_bytes()), (1, 0, 0));
    let again: Vec<NameId> = (0..3).map(|k| back.intern_key(&[k, 0, 1, 1, 1, 1, 1])).collect();
    assert_eq!(again, ids);
    assert_eq!(slots(&back, &ids), empty);
}

#[test]
fn racing_threads_fill_the_name_memo_like_one_thread() {
    let (thesaurus, affix) = (Thesaurus::empty(), AffixConfig::default());
    // A symmetric pure function of the name pair.
    let ns = |a: NameId, b: NameId| {
        let (a, b) = (a.index() as f64, b.index() as f64);
        (a * b).sin().abs() / (1.0 + a + b)
    };
    let start = std::sync::Barrier::new(2);
    let fill = |table: &TokenTable, ids: &[NameId], mirrored: bool| {
        let mut cache = TokenSimCache::new(table, &thesaurus, &affix);
        for &a in ids {
            for &b in ids {
                let (a, b) = if mirrored { (b, a) } else { (a, b) };
                cache.name_sim(a, b, |_| ns(a, b));
            }
        }
    };
    let (one, ids) = named_table(40);
    fill(&one, &ids, false);
    let (shared, _) = named_table(40);
    // Both threads start together, one walking the pairs mirrored.
    std::thread::scope(|s| {
        for mirrored in [false, true] {
            let (start, shared, ids) = (&start, &shared, &ids);
            s.spawn(move || {
                start.wait();
                fill(shared, ids, mirrored)
            });
        }
    });
    assert_eq!(slots(&shared, &ids), slots(&one, &ids));
    assert!(slots(&one, &ids).iter().all(|&b| !f64::from_bits(b).is_nan()));
}

#[test]
fn a_pair_past_the_bound_is_computed_every_time() {
    let (thesaurus, affix) = (Thesaurus::empty(), AffixConfig::default());
    let (table, ids) = named_table(NAME_BOUND + 3);
    let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
    let (below, past) = (ids[NAME_BOUND - 1], ids[NAME_BOUND]);
    assert_eq!(cache.name_sim(ids[0], below, |_| 0.5), 0.5);
    assert_eq!(cache.name_sim(below, ids[0], |_| unreachable!("a hit")), 0.5);
    let mut calls = 0;
    for _ in 0..2 {
        cache.name_sim(past, ids[0], |_| {
            calls += 1;
            0.5
        });
    }
    assert_eq!(calls, 2);
    // Every pair filled, past the bound too, commits the bound's
    // triangle of 524,800 slots: 129 chunks of 32 KiB, and no more.
    for (j, &b) in ids.iter().enumerate() {
        for &a in &ids[..=j] {
            cache.name_sim(a, b, |_| 0.5);
        }
    }
    assert_eq!(table.name_memo_bytes(), 4_227_072);
}

fn schema(name: &str, fields: &[(String, DataType)]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let c = b.structured(b.root(), "Item", ElementKind::XmlElement);
    for (f, dt) in fields {
        b.atomic(c, f.as_str(), ElementKind::XmlElement, *dt);
    }
    b.build().unwrap()
}

#[test]
fn a_session_past_the_bound_matches_like_single_pairs() {
    // Eleven schemas of 100 uniquely numbered leaves intern over 1,024
    // distinct names, so the last schema's names straddle the bound.
    let cfg = CupidConfig::default();
    let th = ThesaurusBuilder::new().abbreviation("Qty", &["quantity"]).build().unwrap();
    let words = ["Customer", "Order", "Ship", "Bill", "Qty", "Invoice", "Street", "City"];
    let corpus: Vec<Schema> = (0..11)
        .map(|s| {
            let field = |f: usize| format!("{}{}{}", words[f % 8], words[f / 8 % 8], s * 100 + f);
            let types = [DataType::String, DataType::Int];
            schema(
                &format!("S{s}"),
                &(0..100).map(|f| (field(f), types[f % 2])).collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut session = MatchSession::new(&cfg, &th).threads(2);
    let ids = session.add_corpus(&corpus).unwrap();
    let last = session.schema(ids[10]);
    let below = (0..last.ling.len()).filter(|&i| last.ling.name_id(i).index() < NAME_BOUND);
    assert!(session.table().name_count() > NAME_BOUND);
    assert!((1..last.ling.len()).contains(&below.count()), "the last schema straddles the bound");

    let pairs = [(ids[0], ids[10]), (ids[10], ids[9]), (ids[1], ids[2])];
    let summaries = session.match_pairs(&pairs);
    let cupid = Cupid::with_config(cfg.clone(), th.clone());
    let bits = |m: &[MappingElement]| -> Vec<(usize, usize, [u64; 3])> {
        let f = |e: &MappingElement| [e.wsim, e.ssim, e.lsim].map(f64::to_bits);
        m.iter().map(|e| (e.source.index(), e.target.index(), f(e))).collect()
    };
    for (&(a, b), got) in pairs.iter().zip(&summaries) {
        let want = cupid.match_schemas(&corpus[a.index()], &corpus[b.index()]).unwrap();
        assert!(got.compared_pairs > 0 && !got.leaf_mappings.is_empty());
        assert_eq!(bits(&got.leaf_mappings), bits(&want.leaf_mappings), "{a:?} {b:?}");
        assert_eq!(bits(&got.nonleaf_mappings), bits(&want.nonleaf_mappings), "{a:?} {b:?}");
        let lsim = session.lsim_of(a, b);
        let want = want.linguistic.lsim.matrix().iter().map(|(_, _, v)| v.to_bits());
        assert!(lsim.matrix().iter().map(|(_, _, v)| v.to_bits()).eq(want), "{a:?} {b:?}");
    }

    // The memo holds chunks of the bound's triangle as pairs fill them,
    // and no more than that triangle's 129 chunks of 32 KiB.
    let memo = session.table().name_memo_bytes();
    let cap = (NAME_BOUND * (NAME_BOUND + 1) / 2).div_ceil(4096) * 32_768;
    assert!(0 < memo && memo <= cap, "{memo} bytes of at most {cap}");
    assert_eq!(session.stats().sim_bytes, session.store().allocated_bytes() + memo);
}
