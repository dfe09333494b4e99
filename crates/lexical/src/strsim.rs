//! Token-level similarity (Section 5.2, "Name Similarity").
//!
//! *"The similarity of two name tokens t1 and t2, sim(t1, t2), is looked
//! up in a synonym and hypernym thesaurus. … In the absence of such
//! entries, we match sub-strings of the words t1 and t2 to identify common
//! prefixes or suffixes."*

use crate::thesaurus::Thesaurus;
use crate::token::{SimClass, Token};

/// Affix (common prefix/suffix) matching parameters.
#[derive(Debug, Clone, Copy)]
pub struct AffixConfig {
    /// Minimum shared prefix/suffix length before a non-zero score is
    /// produced. Short shared affixes ("Co"/"Code") are noise.
    pub min_affix_len: usize,
    /// Maximum score an affix-only match can reach; keeps substring
    /// matches strictly weaker than thesaurus synonyms.
    pub max_score: f64,
}

impl Default for AffixConfig {
    fn default() -> Self {
        AffixConfig { min_affix_len: 3, max_score: 0.9 }
    }
}

/// Length of the longest common prefix of two byte strings, compared
/// eight bytes at a time: XOR a `u64` load from each side — the first
/// differing byte is the lowest non-zero byte of the XOR, found by
/// `trailing_zeros / 8` (little-endian load puts earlier bytes in lower
/// bits). The byte-at-a-time tail handles the last `< 8` bytes. This is
/// `sim(t1, t2)`'s innermost memcmp-shaped loop; one wide compare per 8
/// bytes beats one branch per byte on every cache-cold token pair.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().unwrap());
        let y = u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix, the mirror of
/// [`common_prefix`]: `u64` loads walking backwards, with the first
/// differing byte (from the end) in the *highest* non-zero byte of the
/// XOR — `leading_zeros / 8`.
#[inline]
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[a.len() - i - 8..a.len() - i].try_into().unwrap());
        let y = u64::from_le_bytes(b[b.len() - i - 8..b.len() - i].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return i + (diff.leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

/// Similarity of two canonical token texts based on common prefixes or
/// suffixes: `max(lcp, lcs) * 2 / (|a| + |b|)`, gated by
/// [`AffixConfig::min_affix_len`] and capped at [`AffixConfig::max_score`].
pub fn affix_similarity(a: &str, b: &str, cfg: &AffixConfig) -> f64 {
    affix_rule(a, b, cfg).0
}

/// The affix rule, measuring the common prefix and suffix once: the
/// [`affix_similarity`] score and the provenance that explains it. A
/// score of 0 is [`TokenSimProvenance::NoMatch`], whichever gate
/// produced it (empty text, short affixes, `max_score = 0`).
fn affix_rule(a: &str, b: &str, cfg: &AffixConfig) -> (f64, TokenSimProvenance) {
    if a.is_empty() || b.is_empty() {
        return (0.0, TokenSimProvenance::NoMatch);
    }
    let lcp = common_prefix(a.as_bytes(), b.as_bytes());
    let lcs = common_suffix(a.as_bytes(), b.as_bytes());
    let best = lcp.max(lcs);
    if best < cfg.min_affix_len {
        return (0.0, TokenSimProvenance::NoMatch);
    }
    let raw = (2.0 * best as f64) / (a.len() + b.len()) as f64;
    let score = raw.min(cfg.max_score);
    if score == 0.0 {
        return (score, TokenSimProvenance::NoMatch);
    }
    let capped = raw > cfg.max_score;
    (score, TokenSimProvenance::Affix { prefix_len: lcp as u32, suffix_len: lcs as u32, capped })
}

/// `sim(t1, t2)` on (similarity class, canonical text) pairs — the full
/// information `sim` depends on, which is what makes token interning
/// sound: [`crate::intern::TokenSimCache`] memoizes this function keyed
/// by interned `(class, text)` ids.
///
/// Token-type discipline: `Number` and `Special` tokens only match
/// exactly (the digits in `Street4`/`street4` must agree); a word never
/// matches a number. Words go through the thesaurus (exact canonical
/// match is 1.0), then the affix fallback. The score is that of
/// [`class_similarity_explained`], which owns the rule.
pub fn class_similarity(
    c1: SimClass,
    a: &str,
    c2: SimClass,
    b: &str,
    thesaurus: &Thesaurus,
    cfg: &AffixConfig,
) -> f64 {
    class_similarity_explained(c1, a, c2, b, thesaurus, cfg).0
}

/// `sim(t1, t2)` of the paper, on [`Token`]s: delegates to
/// [`class_similarity`] over the tokens' similarity classes and
/// canonical texts.
pub fn token_similarity(t1: &Token, t2: &Token, thesaurus: &Thesaurus, cfg: &AffixConfig) -> f64 {
    class_similarity(t1.ttype.sim_class(), &t1.text, t2.ttype.sim_class(), &t2.text, thesaurus, cfg)
}

/// Where one token-pair similarity score came from — the per-pair
/// provenance the explain layer (`cupid-core`) surfaces. Every variant
/// corresponds to exactly one arm of [`class_similarity_explained`], so a
/// `(score, provenance)` pair fully reconstructs the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenSimProvenance {
    /// `Number`/`Special` tokens matched exactly (score 1.0).
    ExactSymbol,
    /// The thesaurus answered (synonym, hypernym, or abbreviation
    /// chain) — the affix fallback never ran.
    Thesaurus,
    /// Affix fallback: the longest common prefix/suffix lengths that
    /// produced the score, and whether [`AffixConfig::max_score`]
    /// clipped it.
    Affix {
        /// Length of the longest common prefix, in bytes.
        prefix_len: u32,
        /// Length of the longest common suffix, in bytes.
        suffix_len: u32,
        /// True when the raw affix ratio exceeded the cap.
        capped: bool,
    },
    /// Score 0: incompatible similarity classes, unequal symbols, or
    /// affixes below [`AffixConfig::min_affix_len`].
    NoMatch,
}

/// `sim(t1, t2)` with provenance: the score [`class_similarity`]
/// returns plus which rule produced it.
pub fn class_similarity_explained(
    c1: SimClass,
    a: &str,
    c2: SimClass,
    b: &str,
    thesaurus: &Thesaurus,
    cfg: &AffixConfig,
) -> (f64, TokenSimProvenance) {
    match (c1, c2) {
        (SimClass::Number, SimClass::Number) | (SimClass::Special, SimClass::Special) if a == b => {
            (1.0, TokenSimProvenance::ExactSymbol)
        }
        (SimClass::Word, SimClass::Word) => match thesaurus.token_sim(a, b) {
            Some(s) => (s, TokenSimProvenance::Thesaurus),
            None => affix_rule(a, b, cfg),
        },
        _ => (0.0, TokenSimProvenance::NoMatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thesaurus::ThesaurusBuilder;
    use crate::token::{Token, TokenType};

    fn tok(s: &str) -> Token {
        Token::new(s, TokenType::Content)
    }

    fn num(s: &str) -> Token {
        Token::new(s, TokenType::Number)
    }

    #[test]
    fn exact_tokens_score_one() {
        let t = Thesaurus::empty();
        let cfg = AffixConfig::default();
        assert_eq!(token_similarity(&tok("city"), &tok("city"), &t, &cfg), 1.0);
    }

    #[test]
    fn thesaurus_beats_affix() {
        let t = ThesaurusBuilder::new().synonym("bill", "invoice", 1.0).build().unwrap();
        let cfg = AffixConfig::default();
        assert_eq!(token_similarity(&tok("bill"), &tok("invoice"), &t, &cfg), 1.0);
    }

    #[test]
    fn affix_fallback_common_prefix() {
        let t = Thesaurus::empty();
        let cfg = AffixConfig::default();
        // "num" vs "number": lcp = 3 → 6/9 ≈ 0.667
        let s = token_similarity(&tok("num"), &tok("number"), &t, &cfg);
        assert!((s - 2.0 * 3.0 / 9.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn affix_fallback_common_suffix() {
        let cfg = AffixConfig::default();
        // "partno" vs "no" — suffix "no" is too short (min 3)
        assert_eq!(affix_similarity("partno", "no", &cfg), 0.0);
        // "postalcode" vs "zipcode": suffix "code" (4) → 8/17
        let s = affix_similarity("postalcode", "zipcode", &cfg);
        assert!((s - 8.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn short_affixes_rejected() {
        let cfg = AffixConfig::default();
        assert_eq!(affix_similarity("co", "code", &cfg), 0.0);
        assert_eq!(affix_similarity("id", "id2", &cfg), 0.0);
    }

    #[test]
    fn identical_long_words_capped_by_max_score_only_for_affix() {
        let cfg = AffixConfig { min_affix_len: 3, max_score: 0.9 };
        // identical words go through the thesaurus exact path (1.0),
        // not the affix path.
        let t = Thesaurus::empty();
        assert_eq!(token_similarity(&tok("street"), &tok("street"), &t, &cfg), 1.0);
        // pure affix path is capped
        assert!(affix_similarity("street", "street", &cfg) <= 0.9);
    }

    #[test]
    fn numbers_match_only_exactly() {
        let t = Thesaurus::empty();
        let cfg = AffixConfig::default();
        assert_eq!(token_similarity(&num("4"), &num("4"), &t, &cfg), 1.0);
        assert_eq!(token_similarity(&num("4"), &num("3"), &t, &cfg), 0.0);
        assert_eq!(token_similarity(&num("4"), &tok("four"), &t, &cfg), 0.0);
    }

    #[test]
    fn empty_strings() {
        let cfg = AffixConfig::default();
        assert_eq!(affix_similarity("", "abc", &cfg), 0.0);
        assert_eq!(affix_similarity("", "", &cfg), 0.0);
    }

    #[test]
    fn wide_affix_scans_match_scalar_reference() {
        // The pre-restructuring byte-at-a-time scans.
        fn ref_lcp(a: &str, b: &str) -> usize {
            a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
        }
        fn ref_lcs(a: &str, b: &str) -> usize {
            a.bytes().rev().zip(b.bytes().rev()).take_while(|(x, y)| x == y).count()
        }
        // Lengths straddling the 8-byte chunk boundary, equality at
        // every alignment, and unicode multi-byte content.
        let words = [
            "",
            "a",
            "ab",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefghijklmnop",
            "abcdefghijklmnoq",
            "abcdefgh_abcdefgh",
            "xbcdefghijklmnop",
            "abcdefghijklmnopabcdefghijklmnop",
            "postalcode",
            "zipcode",
            "straße",
            "straßenname",
        ];
        for a in words {
            for b in words {
                assert_eq!(
                    common_prefix(a.as_bytes(), b.as_bytes()),
                    ref_lcp(a, b),
                    "lcp({a:?}, {b:?})"
                );
                assert_eq!(
                    common_suffix(a.as_bytes(), b.as_bytes()),
                    ref_lcs(a, b),
                    "lcs({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn explained_scores_are_bit_identical_with_full_provenance() {
        let t = ThesaurusBuilder::new()
            .synonym("bill", "invoice", 1.0)
            .hypernym("customer", "person", 0.8)
            .build()
            .unwrap();
        let cfg = AffixConfig::default();
        let cases = [
            (SimClass::Word, "bill", SimClass::Word, "invoice"),
            (SimClass::Word, "customer", SimClass::Word, "person"),
            (SimClass::Word, "postalcode", SimClass::Word, "zipcode"),
            (SimClass::Word, "street", SimClass::Word, "streets"),
            (SimClass::Word, "co", SimClass::Word, "code"),
            (SimClass::Word, "city", SimClass::Word, "thing"),
            (SimClass::Number, "4", SimClass::Number, "4"),
            (SimClass::Number, "4", SimClass::Number, "3"),
            (SimClass::Special, "#", SimClass::Special, "#"),
            (SimClass::Number, "4", SimClass::Word, "four"),
            (SimClass::Word, "", SimClass::Word, "abc"),
        ];
        let zero = AffixConfig { max_score: 0.0, ..cfg };
        for (c1, a, c2, b) in cases {
            for cfg in [&cfg, &zero] {
                let plain = class_similarity(c1, a, c2, b, &t, cfg);
                let (explained, _) = class_similarity_explained(c1, a, c2, b, &t, cfg);
                assert_eq!(plain.to_bits(), explained.to_bits(), "{a} vs {b}");
            }
        }
        let prov = |a: &str, b: &str| {
            class_similarity_explained(SimClass::Word, a, SimClass::Word, b, &t, &cfg).1
        };
        assert_eq!(prov("bill", "invoice"), TokenSimProvenance::Thesaurus);
        assert_eq!(
            prov("postalcode", "zipcode"),
            TokenSimProvenance::Affix { prefix_len: 0, suffix_len: 4, capped: false }
        );
        assert_eq!(prov("co", "code"), TokenSimProvenance::NoMatch);
        // identical words not in the thesaurus: exact canonical match
        // answers 1.0 through the thesaurus path.
        assert_eq!(prov("street", "street"), TokenSimProvenance::Thesaurus);
        // "streets" vs "streetss": raw ratio 2*7/15 is under the cap;
        // a full-prefix pair like "street"/"streetx" stays uncapped too,
        // but "abcdefgh" vs "abcdefghi" (16/17) exceeds 0.9 and clips.
        assert_eq!(
            prov("abcdefgh", "abcdefghi"),
            TokenSimProvenance::Affix { prefix_len: 8, suffix_len: 0, capped: true }
        );
        assert_eq!(
            class_similarity_explained(SimClass::Number, "4", SimClass::Number, "4", &t, &cfg).1,
            TokenSimProvenance::ExactSymbol
        );
        // A zero cap zeroes every affix score, and a zero score is no match.
        let w = SimClass::Word;
        let (score, prov) = class_similarity_explained(w, "postalcode", w, "zipcode", &t, &zero);
        assert_eq!((score.to_bits(), prov), (0, TokenSimProvenance::NoMatch));
    }

    #[test]
    fn affix_symmetry() {
        let cfg = AffixConfig::default();
        for (a, b) in [("postal", "postalcode"), ("street", "straight"), ("order", "orders")] {
            assert_eq!(affix_similarity(a, b, &cfg), affix_similarity(b, a, &cfg));
        }
    }
}
