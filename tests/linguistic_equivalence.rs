//! Equivalence suite for the interned linguistic engine.
//!
//! The interned path (`analyze`: token table + triangular similarity
//! memo) must be a pure optimization of the naive reference path
//! (`analyze_naive`): identical `lsim` tables *bit for bit*, identical
//! pruning counters, and therefore identical mappings — across
//! randomized schemas (the synthetic perturbation generator) and
//! randomized thesauri.

use cupid::core::linguistic::{analyze, analyze_naive};
use cupid::core::mapping::{leaf_mappings, Cardinality};
use cupid::core::treematch::tree_match;
use cupid::core::CupidConfig;
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::lexical::{Thesaurus, ThesaurusBuilder};
use cupid::model::{expand, ExpandOptions, Schema};
use proptest::prelude::*;

/// Words that actually occur in the synthetic generator's vocabulary,
/// so randomized thesaurus entries bite instead of being dead weight.
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
/// pool: synonyms and hypernyms with random coefficients, an
/// abbreviation, a concept family and an extra stop word — every §5.1
/// resource the engines consume.
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

/// Assert the two engines agree on everything observable.
fn assert_equivalent(s1: &Schema, s2: &Schema, thesaurus: &Thesaurus, cfg: &CupidConfig) {
    let fast = analyze(s1, s2, thesaurus, cfg);
    let naive = analyze_naive(s1, s2, thesaurus, cfg);
    assert_eq!(
        fast.lsim.matrix().max_abs_diff(naive.lsim.matrix()),
        0.0,
        "lsim must be bit-identical"
    );
    assert_eq!(fast.compared_pairs, naive.compared_pairs, "compared_pairs diverged");
    assert_eq!(
        fast.compatible_category_pairs, naive.compatible_category_pairs,
        "compatible_category_pairs diverged"
    );
    assert_eq!(fast.total_pairs, naive.total_pairs);
    assert_eq!(fast.names1, naive.names1, "normalization must not differ");
    assert_eq!(fast.names2, naive.names2);

    // Identical lsim in, identical mappings out: run the (deterministic)
    // structural phase on both tables and compare the generated leaf
    // mappings pairwise.
    let t1 = expand(s1, &ExpandOptions::none()).expect("expand");
    let t2 = expand(s2, &ExpandOptions::none()).expect("expand");
    let res_fast = tree_match(&t1, &t2, &fast.lsim, cfg);
    let res_naive = tree_match(&t1, &t2, &naive.lsim, cfg);
    assert_eq!(res_fast.wsim.max_abs_diff(&res_naive.wsim), 0.0, "wsim must be bit-identical");
    let map_fast = leaf_mappings(&t1, &t2, &res_fast, &fast.lsim, cfg, Cardinality::OneToN);
    let map_naive = leaf_mappings(&t1, &t2, &res_naive, &naive.lsim, cfg, Cardinality::OneToN);
    let pairs = |m: &[cupid::core::MappingElement]| -> Vec<(String, String)> {
        m.iter().map(|e| (e.source_path.to_string(), e.target_path.to_string())).collect()
    };
    assert_eq!(pairs(&map_fast), pairs(&map_naive), "mappings diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized schema pairs with the generator's own thesaurus (the
    /// one whose entries the perturbations are drawn from).
    #[test]
    fn interned_equals_naive_on_synthetic_pairs(seed in 0u64..10_000, leaves in 4usize..40) {
        let pair = generate(&SyntheticConfig::sized(leaves, seed));
        assert_equivalent(&pair.source, &pair.target, &pair.thesaurus, &CupidConfig::default());
    }

    /// Randomized thesauri over the same vocabulary: synonym/hypernym
    /// coefficients, abbreviations, concepts and stop words all vary.
    #[test]
    fn interned_equals_naive_on_random_thesauri(
        seed in 0u64..10_000,
        leaves in 4usize..24,
        picks in proptest::collection::vec(0usize..64, 10..16),
        coeffs in proptest::collection::vec(0.05f64..1.0, 3..6),
    ) {
        let pair = generate(&SyntheticConfig::sized(leaves, seed));
        let thesaurus = random_thesaurus(&picks, &coeffs);
        assert_equivalent(&pair.source, &pair.target, &thesaurus, &CupidConfig::default());
    }

    /// An empty thesaurus forces every word pair down the affix
    /// fallback — the path where text-identity of interned ids matters
    /// most.
    #[test]
    fn interned_equals_naive_without_thesaurus(seed in 0u64..10_000, leaves in 4usize..24) {
        let pair = generate(&SyntheticConfig::sized(leaves, seed));
        assert_equivalent(&pair.source, &pair.target, &Thesaurus::empty(), &CupidConfig::default());
    }
}
