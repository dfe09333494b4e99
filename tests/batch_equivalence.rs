//! Equivalence suite for the batch-matching subsystem (DESIGN.md §7).
//!
//! A `MatchSession` must be a pure optimization of independent
//! `Cupid::match_schemas` calls: over randomized schema corpora and
//! thesauri, the all-pairs session output — mappings, similarity
//! components, top-k leaf pairs, `lsim` tables — must be
//! *bit-identical* to the single-pair path, and identical again under
//! 1, 2 and 4 worker threads (shard assignment must never leak into
//! results).

use std::cmp::Ordering;

use cupid::core::linguistic::analyze;
use cupid::core::session::{MatchSession, MatchSummary};
use cupid::core::{Cupid, CupidConfig, MappingElement, MatchOutcome};
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::lexical::{Thesaurus, ThesaurusBuilder};
use cupid::model::{NodeId, Schema, SchemaTree};
use proptest::prelude::*;

/// `MatchSession`'s default number of top leaf pairs per summary.
const DEFAULT_TOP_K: usize = 10;

/// Words that occur in the synthetic generator's vocabulary, so
/// randomized thesaurus entries bite instead of being dead weight.
const POOL: &[&str] = &[
    "order",
    "purchase",
    "customer",
    "client",
    "price",
    "cost",
    "quantity",
    "amount",
    "street",
    "road",
    "phone",
    "telephone",
    "bill",
    "invoice",
    "ship",
    "deliver",
    "item",
    "article",
    "vendor",
    "supplier",
    "payment",
    "region",
    "category",
    "product",
    "account",
    "branch",
    "id",
    "name",
    "code",
    "number",
    "date",
    "total",
    "status",
    "type",
    "flag",
    "line",
];

/// A thesaurus assembled from random picks over the generator's word
/// pool (same recipe as `tests/linguistic_equivalence.rs`).
fn random_thesaurus(picks: &[usize], coeffs: &[f64]) -> Thesaurus {
    let word = |i: usize| POOL[i % POOL.len()];
    let mut b = ThesaurusBuilder::new()
        .abbreviation(word(picks[0]), &[word(picks[1]), word(picks[2])])
        .concept(word(picks[3]), "money")
        .concept(word(picks[4]), "money")
        .stopword(word(picks[5]));
    for (k, w) in picks[6..].windows(2).enumerate() {
        let c = coeffs[k % coeffs.len()];
        b = if k % 2 == 0 {
            b.synonym(word(w[0]), word(w[1]), c)
        } else {
            b.hypernym(word(w[0]), word(w[1]), c)
        };
    }
    b.build().expect("coefficients are in range")
}

/// A corpus of 4 schemas: two synthetic pairs drawn from the shared
/// word pool, so cross-pair schemas still overlap linguistically (the
/// interesting case for a shared interner and memo).
fn corpus(seed: u64, leaves: usize) -> Vec<Schema> {
    let a = generate(&SyntheticConfig::sized(leaves, seed));
    let b = generate(&SyntheticConfig::sized(leaves, seed.wrapping_add(101)));
    vec![a.source, a.target, b.source, b.target]
}

/// Mapping equality down to the similarity bits: `PartialEq` on f64
/// would already fail on any divergence, but comparing bit patterns
/// rules out even `-0.0 == 0.0` coincidences.
fn assert_mappings_bit_identical(got: &[MappingElement], want: &[MappingElement], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.source_path, w.source_path, "{what}");
        assert_eq!(g.target_path, w.target_path, "{what}");
        assert_eq!(g.wsim.to_bits(), w.wsim.to_bits(), "{what}: wsim bits");
        assert_eq!(g.ssim.to_bits(), w.ssim.to_bits(), "{what}: ssim bits");
        assert_eq!(g.lsim.to_bits(), w.lsim.to_bits(), "{what}: lsim bits");
    }
}

/// The reference for `MatchSummary::top_pairs`: every leaf pair of the
/// single-pair engine's final `wsim` matrix, fully sorted by wsim
/// descending, then source node index, then target node index, and cut
/// to `k` — as (source path, target path, wsim).
fn reference_top_pairs(outcome: &MatchOutcome, k: usize) -> Vec<(String, String, f64)> {
    let leaves = |tree: &SchemaTree| -> Vec<NodeId> {
        tree.iter().filter(|(_, n)| n.is_leaf()).map(|(id, _)| id).collect()
    };
    let (t1, t2) = (&outcome.source_tree, &outcome.target_tree);
    let mut all = Vec::new();
    for &s in &leaves(t1) {
        for &t in &leaves(t2) {
            all.push((outcome.structural.wsim.get(s.index(), t.index()), s, t));
        }
    }
    all.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    });
    all.truncate(k);
    all.into_iter().map(|(w, s, t)| (t1.path(s).to_string(), t2.path(t).to_string(), w)).collect()
}

/// Assert one session run (with the given thread count) reproduces the
/// independent single-pair outcomes bit for bit.
fn assert_session_equivalent(
    schemas: &[Schema],
    thesaurus: &Thesaurus,
    cfg: &CupidConfig,
    threads: usize,
) -> Vec<MatchSummary> {
    let mut session = MatchSession::new(cfg, thesaurus).threads(threads);
    let ids = session.add_corpus(schemas).expect("corpus expands");
    let summaries = session.match_all_pairs();
    assert_eq!(summaries.len(), schemas.len() * (schemas.len() - 1) / 2);

    let cupid = Cupid::with_config(cfg.clone(), thesaurus.clone());
    let mut k = 0;
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let summary = &summaries[k];
            k += 1;
            assert_eq!((summary.source, summary.target), (ids[i], ids[j]), "worklist order");
            let outcome = cupid.match_schemas(&schemas[i], &schemas[j]).expect("pair expands");
            assert_mappings_bit_identical(
                &summary.leaf_mappings,
                &outcome.leaf_mappings,
                &format!("leaf mappings ({i},{j}), {threads} threads"),
            );
            assert_mappings_bit_identical(
                &summary.nonleaf_mappings,
                &outcome.nonleaf_mappings,
                &format!("non-leaf mappings ({i},{j}), {threads} threads"),
            );
            assert_eq!(summary.compared_pairs, outcome.linguistic.compared_pairs);
            assert_eq!(summary.total_pairs, outcome.linguistic.total_pairs);
            let what = format!("top pairs ({i},{j}), {threads} threads");
            let want = reference_top_pairs(&outcome, DEFAULT_TOP_K);
            assert_eq!(summary.top_pairs.len(), want.len(), "{what}: length");
            for (g, (source, target, wsim)) in summary.top_pairs.iter().zip(&want) {
                assert_eq!(&*g.source_path, source, "{what}");
                assert_eq!(&*g.target_path, target, "{what}");
                assert_eq!(g.wsim.to_bits(), wsim.to_bits(), "{what}: wsim bits");
            }
        }
    }
    summaries
}

/// Assert the session's per-pair `lsim` tables are bit-identical to the
/// single-pair engine's (the memo may only change *when* a token pair
/// is computed, never its value).
fn assert_lsim_bit_identical(schemas: &[Schema], thesaurus: &Thesaurus, cfg: &CupidConfig) {
    let mut session = MatchSession::new(cfg, thesaurus).threads(1);
    let ids = session.add_corpus(schemas).expect("corpus expands");
    for i in 0..schemas.len() {
        for j in (i + 1)..schemas.len() {
            let got = session.lsim_of(ids[i], ids[j]);
            let want = analyze(&schemas[i], &schemas[j], thesaurus, cfg);
            assert_eq!(
                got.matrix().max_abs_diff(want.lsim.matrix()),
                0.0,
                "lsim diverged for pair ({i}, {j})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All-pairs session output is bit-identical to independent
    /// `Cupid::match` calls, and identical across 1, 2 and 4 threads,
    /// with the generator's own thesaurus.
    #[test]
    fn session_equals_independent_matches(seed in 0u64..10_000, leaves in 4usize..20) {
        let schemas = corpus(seed, leaves);
        let thesaurus = generate(&SyntheticConfig::sized(leaves, seed)).thesaurus;
        let cfg = CupidConfig::default();
        let one = assert_session_equivalent(&schemas, &thesaurus, &cfg, 1);
        for threads in [2, 4] {
            let multi = assert_session_equivalent(&schemas, &thesaurus, &cfg, threads);
            prop_assert_eq!(&multi, &one, "thread count changed summaries: {}", threads);
        }
        assert_lsim_bit_identical(&schemas, &thesaurus, &cfg);
    }

    /// The same equivalences under randomized thesauri (synonyms,
    /// hypernyms, abbreviations, concepts, stop words all vary).
    #[test]
    fn session_equals_independent_on_random_thesauri(
        seed in 0u64..10_000,
        leaves in 4usize..16,
        picks in proptest::collection::vec(0usize..64, 10..16),
        coeffs in proptest::collection::vec(0.05f64..1.0, 3..6),
    ) {
        let schemas = corpus(seed, leaves);
        let thesaurus = random_thesaurus(&picks, &coeffs);
        let cfg = CupidConfig::default();
        let one = assert_session_equivalent(&schemas, &thesaurus, &cfg, 1);
        for threads in [2, 4] {
            let multi = assert_session_equivalent(&schemas, &thesaurus, &cfg, threads);
            prop_assert_eq!(&multi, &one, "thread count changed summaries: {}", threads);
        }
        assert_lsim_bit_identical(&schemas, &thesaurus, &cfg);
    }

    /// An empty thesaurus forces every word pair down the affix
    /// fallback — maximum pressure on the shared memo.
    #[test]
    fn session_equals_independent_without_thesaurus(seed in 0u64..10_000, leaves in 4usize..16) {
        let schemas = corpus(seed, leaves);
        let thesaurus = Thesaurus::empty();
        let cfg = CupidConfig::default();
        let one = assert_session_equivalent(&schemas, &thesaurus, &cfg, 1);
        let multi = assert_session_equivalent(&schemas, &thesaurus, &cfg, 4);
        prop_assert_eq!(&multi, &one);
    }
}
