//! Property-based tests of the core invariants, driven by the synthetic
//! schema generator and randomized inputs.

use std::borrow::Cow;

use cupid::core::linguistic::{ns_elements, ns_token_sets};
use cupid::core::{Cupid, CupidConfig, TokenTypeWeights};
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::lexical::strsim::{affix_similarity, AffixConfig};
use cupid::lexical::{stem, Normalizer, Thesaurus, Token, TokenType, Tokenizer};
use proptest::prelude::*;

fn ident_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,14}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tokenizer_never_loses_alphanumerics(name in ident_strategy()) {
        let toks = Tokenizer::default().tokenize(&name);
        let reassembled: String = toks.iter().map(|t| t.text.as_str()).collect();
        let expected: String = name.chars().filter(|c| c.is_alphanumeric()).collect();
        prop_assert_eq!(reassembled, expected);
    }

    /// `stem` is not idempotent (`speedings` → `speed` → `spe`), so its
    /// contract is its shape: a borrowed prefix of the word, or for an
    /// `-ies` plural only, the rest of the word plus `y`.
    #[test]
    fn stem_borrows_a_prefix_or_restores_an_ies_plural(word in "[a-z]{1,12}") {
        match stem(&word) {
            Cow::Borrowed(kept) => {
                prop_assert!(word.as_ptr() == kept.as_ptr() && word.starts_with(kept), "{kept}");
            }
            Cow::Owned(stemmed) => {
                let base = stemmed.strip_suffix('y');
                prop_assert!(base.is_some_and(|b| word == format!("{b}ies")), "{stemmed}");
            }
        }
    }

    #[test]
    fn affix_similarity_is_symmetric_and_bounded(a in "[a-z]{1,10}", b in "[a-z]{1,10}") {
        let cfg = AffixConfig::default();
        let ab = affix_similarity(&a, &b, &cfg);
        let ba = affix_similarity(&b, &a, &cfg);
        prop_assert_eq!(ab, ba);
        prop_assert!((0.0..=cfg.max_score).contains(&ab));
    }

    #[test]
    fn ns_is_bounded_and_symmetric(a in ident_strategy(), b in ident_strategy()) {
        let thesaurus = Thesaurus::with_default_stopwords();
        let n = Normalizer::default();
        let na = n.normalize(&a, &thesaurus);
        let nb = n.normalize(&b, &thesaurus);
        let w = TokenTypeWeights::default();
        let affix = AffixConfig::default();
        let ab = ns_elements(&na, &nb, &thesaurus, &w, &affix);
        let ba = ns_elements(&nb, &na, &thesaurus, &w, &affix);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab), "ns out of range: {}", ab);
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {} vs {}", ab, ba);
    }

    #[test]
    fn identical_names_have_ns_one(a in "[A-Za-z]{2,12}") {
        let thesaurus = Thesaurus::empty();
        let n = Normalizer::default();
        let na = n.normalize(&a, &thesaurus);
        prop_assume!(!na.is_vacuous());
        let v = ns_elements(
            &na,
            &na,
            &thesaurus,
            &TokenTypeWeights::default(),
            &AffixConfig::default(),
        );
        prop_assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ns_token_sets_empty_is_zero(a in ident_strategy()) {
        let thesaurus = Thesaurus::empty();
        let affix = AffixConfig::default();
        let tok = Token::new(a, TokenType::Content);
        prop_assert_eq!(ns_token_sets(&[], &[], &thesaurus, &affix), 0.0);
        prop_assert_eq!(ns_token_sets(&[&tok], &[], &thesaurus, &affix), 0.0);
    }
}

proptest! {
    // Full-pipeline properties are expensive; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_on_synthetic_pairs(seed in 0u64..500, leaves in 8usize..48) {
        let pair = generate(&SyntheticConfig::sized(leaves, seed));
        let out = Cupid::with_config(CupidConfig::default(), pair.thesaurus.clone())
            .match_schemas(&pair.source, &pair.target)
            .expect("synthetic schemas expand");

        // all similarity coefficients stay in [0,1]
        for (_, _, v) in out.structural.leaf_ssim.iter() {
            prop_assert!((0.0..=1.0).contains(&v), "leaf ssim {}", v);
        }
        for (_, _, v) in out.structural.wsim.iter() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "wsim {}", v);
        }
        // every reported mapping clears the acceptance threshold and
        // refers to real paths
        for m in &out.leaf_mappings {
            prop_assert!(m.wsim >= out.structural.wsim.get(0, 0).min(0.5) - 1e-9);
            prop_assert!(out.source_tree.find_path(&m.source_path).is_some());
            prop_assert!(out.target_tree.find_path(&m.target_path).is_some());
        }
        // the naive generator emits at most one mapping per target leaf
        // node (paths can repeat: the generator may produce same-named
        // siblings)
        let mut targets: Vec<usize> =
            out.leaf_mappings.iter().map(|m| m.target.index()).collect();
        let before = targets.len();
        targets.sort_unstable();
        targets.dedup();
        prop_assert_eq!(before, targets.len(), "duplicate target in 1:n leaf mapping");
    }

    #[test]
    fn gold_recall_reasonable_on_mild_perturbations(seed in 0u64..200) {
        let cfg = SyntheticConfig {
            drop_prob: 0.0,
            flatten_prob: 0.0,
            rename_prob: 0.15,
            abbreviate_prob: 0.05,
            ..SyntheticConfig::sized(24, seed)
        };
        let pair = generate(&cfg);
        let out = Cupid::with_config(CupidConfig::default(), pair.thesaurus.clone())
            .match_schemas(&pair.source, &pair.target)
            .expect("synthetic schemas expand");
        let q = cupid::eval::metrics::MatchQuality::score_mappings(&out.leaf_mappings, &pair.gold);
        // with no structural perturbation and thesaurus-covered renames,
        // recall should be high
        prop_assert!(q.recall() > 0.7, "recall {} (seed {})", q.recall(), seed);
    }
}
