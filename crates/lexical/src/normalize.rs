//! The normalization pipeline of Section 5.1: tokenization → expansion →
//! elimination → concept tagging.
//!
//! The output of normalization is a [`NormalizedName`]: the set of name
//! tokens with their token types, plus the set of concepts the element was
//! tagged with. This is the unit the linguistic matcher compares.

use std::collections::BTreeSet;

use cupid_model::{WireError, WireReader, WireWriter};

use crate::intern::{token_id_from_wire, TokenId};
use crate::thesaurus::{canon, Thesaurus};
use crate::token::{Token, TokenType};
use crate::tokenizer::Tokenizer;

/// A schema element name after normalization.
#[derive(Debug, Clone, Eq, Default)]
pub struct NormalizedName {
    /// All tokens (content, concept, number, special, common).
    pub tokens: Vec<Token>,
    /// Concept tags attached during normalization (canonical names).
    pub concepts: BTreeSet<String>,
    /// Interned ids, parallel to `tokens`, filled by
    /// [`crate::intern::TokenTable::intern_name`]; empty until interned.
    /// Ids are only meaningful relative to the table that produced them,
    /// which is why equality ignores this field.
    pub ids: Vec<TokenId>,
}

/// Equality compares the normalization output (tokens + concepts) only;
/// `ids` is a per-table cache, not part of the name's identity.
impl PartialEq for NormalizedName {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens && self.concepts == other.concepts
    }
}

impl NormalizedName {
    /// Tokens of a given type.
    pub fn tokens_of(&self, ttype: TokenType) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(move |t| t.ttype == ttype)
    }

    /// Number of tokens of a given type.
    pub fn count_of(&self, ttype: TokenType) -> usize {
        self.tokens_of(ttype).count()
    }

    /// Comparison-relevant tokens (everything except eliminated common
    /// words).
    pub fn comparable_tokens(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| !t.is_ignored())
    }

    /// True if the name normalized to nothing comparable (e.g. a name made
    /// only of separators and stop words).
    pub fn is_vacuous(&self) -> bool {
        self.comparable_tokens().next().is_none()
    }

    /// Canonical token texts, for diagnostics and tests.
    pub fn texts(&self) -> Vec<&str> {
        self.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    /// Encode the name: tokens (canonical + raw text, type), concepts,
    /// and the interned id slice (empty when not interned).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_list(&self.tokens, |w, t| {
            w.put_str(&t.text);
            w.put_str(&t.raw);
            w.put_u8(t.ttype.index() as u8);
        });
        w.put_list(&self.concepts, |w, c| w.put_str(c));
        w.put_list(&self.ids, |w, id| w.put_u32(id.index() as u32));
    }

    /// Decode a name written by [`NormalizedName::write_wire`]. Ids are
    /// bounds-checked against `vocab` (the size of the table the
    /// snapshot was taken with).
    pub fn read_wire(r: &mut WireReader<'_>, vocab: usize) -> Result<NormalizedName, WireError> {
        let tokens = r.get_list(|r| {
            let text = r.get_str()?;
            let raw = r.get_str()?;
            let ttype = match r.get_u8()? {
                c if (c as usize) < TokenType::ALL.len() => TokenType::ALL[c as usize],
                c => return Err(r.err(format!("unknown token type code {c}"))),
            };
            Ok(Token { text, raw, ttype })
        })?;
        let concepts = r.get_list(WireReader::get_str)?.into_iter().collect();
        let ids = r.get_list(|r| r.get_u32().and_then(|raw| token_id_from_wire(r, raw, vocab)))?;
        if !ids.is_empty() && ids.len() != tokens.len() {
            return Err(r.err(format!("{} ids for {} tokens", ids.len(), tokens.len())));
        }
        Ok(NormalizedName { tokens, concepts, ids })
    }
}

/// The normalizer: a tokenizer plus a thesaurus.
///
/// Per Section 5.1:
/// * **Tokenization** — split the name into raw tokens.
/// * **Expansion** — abbreviations and acronyms are expanded
///   (`{PO, Lines}` → `{Purchase, Order, Lines}`).
/// * **Elimination** — articles, prepositions and conjunctions are marked
///   to be ignored during comparison (we keep them, typed `CommonWord`).
/// * **Tagging** — elements with a token related to a known concept are
///   tagged with the concept name; the tag is materialized as an extra
///   `Concept` token so the name-similarity formula sees it.
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    tokenizer: Tokenizer,
}

impl Normalizer {
    /// Normalizer with a custom tokenizer.
    pub fn new(tokenizer: Tokenizer) -> Self {
        Normalizer { tokenizer }
    }

    /// Normalize one element name against a thesaurus.
    pub fn normalize(&self, name: &str, thesaurus: &Thesaurus) -> NormalizedName {
        let mut out = NormalizedName::default();
        // Whole-name expansion first, so mixed-case acronyms (`UoM`) that
        // the tokenizer would split are still recognized.
        let trimmed = name.trim();
        if let Some(expansion) = thesaurus.expand(trimmed) {
            for word in expansion {
                self.push_word(&mut out, word, trimmed, thesaurus);
            }
            return out;
        }
        for rt in self.tokenizer.tokenize(name) {
            match rt.ttype {
                TokenType::Number | TokenType::SpecialSymbol => {
                    out.tokens.push(Token {
                        text: rt.text.to_lowercase(),
                        raw: rt.text,
                        ttype: rt.ttype,
                    });
                }
                _ => {
                    // Expansion is looked up by the surface form's
                    // canonical form, so acronym casing like `UoM` is
                    // honoured; without an expansion, that form is the
                    // word.
                    let canonical = canon(&rt.text);
                    match thesaurus.abbreviations.get(&*canonical) {
                        Some(expansion) => {
                            for word in expansion {
                                self.push_word(&mut out, word, &rt.text, thesaurus);
                            }
                        }
                        None => self.push_word(&mut out, &canonical, &rt.text, thesaurus),
                    }
                }
            }
        }
        out
    }

    /// Push one canonical word, classifying it (elimination) and tagging
    /// concepts. Both lookups use the word's own canonical form: `stem` is
    /// not idempotent, so a canonical word is canonicalized again
    /// (`Speedings` is the word `speed`, looked up as `spe`).
    fn push_word(&self, out: &mut NormalizedName, word: &str, raw: &str, thesaurus: &Thesaurus) {
        let key = canon(word);
        let ttype = if thesaurus.stopwords.contains(&*key) {
            TokenType::CommonWord
        } else {
            TokenType::Content
        };
        out.tokens.push(Token { text: word.to_string(), raw: raw.to_string(), ttype });
        if let Some(concept) = thesaurus.concepts.get(&*key) {
            if out.concepts.insert(concept.to_string()) {
                out.tokens.push(Token {
                    text: concept.to_string(),
                    raw: raw.to_string(),
                    ttype: TokenType::Concept,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thesaurus::ThesaurusBuilder;

    fn thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("PO", &["purchase", "order"])
            .abbreviation("Qty", &["quantity"])
            .abbreviation("UoM", &["unit", "of", "measure"])
            .concept("price", "money")
            .concept("cost", "money")
            .build()
            .unwrap()
    }

    fn norm(name: &str) -> NormalizedName {
        Normalizer::default().normalize(name, &thesaurus())
    }

    #[test]
    fn paper_example_expansion() {
        // "{PO, Lines} -> {Purchase, Order, Lines}" (then stemmed)
        let n = norm("POLines");
        assert_eq!(n.texts(), ["purchase", "order", "line"]);
    }

    #[test]
    fn acronym_expansion_uom() {
        // Whole-name expansion catches mixed-case acronyms the tokenizer
        // would split ("UoM for UnitOfMeasure", Section 4).
        let n = norm("UoM");
        assert_eq!(n.texts(), ["unit", "of", "measure"]);
        assert_eq!(norm("uom").texts(), ["unit", "of", "measure"]);
    }

    #[test]
    fn elimination_marks_common_words() {
        let n = norm("UnitOfMeasure");
        let texts = n.texts();
        assert_eq!(texts, ["unit", "of", "measure"]);
        assert_eq!(n.tokens[1].ttype, TokenType::CommonWord);
        let comparable: Vec<&str> = n.comparable_tokens().map(|t| t.text.as_str()).collect();
        assert_eq!(comparable, ["unit", "measure"]);
    }

    #[test]
    fn concept_tagging_adds_concept_token() {
        let n = norm("UnitPrice");
        assert!(n.concepts.contains("money"));
        assert!(n.tokens.iter().any(|t| t.ttype == TokenType::Concept && t.text == "money"));
    }

    #[test]
    fn concept_tag_not_duplicated() {
        let n = norm("PriceCost");
        assert_eq!(n.tokens.iter().filter(|t| t.ttype == TokenType::Concept).count(), 1);
    }

    #[test]
    fn numbers_and_specials_preserved() {
        let n = norm("Street4");
        assert_eq!(n.texts(), ["street", "4"]);
        assert_eq!(n.tokens[1].ttype, TokenType::Number);
    }

    #[test]
    fn stemming_applied_to_content() {
        assert_eq!(norm("Items").texts(), ["item"]);
        assert_eq!(norm("Lines").texts(), ["line"]);
    }

    #[test]
    fn vacuous_names() {
        let n = norm("of");
        assert!(n.is_vacuous());
        assert!(!norm("Order").is_vacuous());
        assert!(norm("").is_vacuous());
    }

    #[test]
    fn canonical_words_are_canonicalized_again_for_lookups() {
        // `stem` is not idempotent: `speedings` stems to `speed`, which
        // stems to `spe`, the form both entries are keyed by.
        let t = ThesaurusBuilder::new()
            .concept("speed", "velocity")
            .synonym("speed", "pace", 0.9)
            .build()
            .unwrap();
        let n = Normalizer::default();
        assert_eq!(n.normalize("Speedings", &t).texts(), ["speed", "velocity"]);
        assert_eq!(n.normalize("Speed", &t).texts(), ["spe", "velocity"]);
        assert_eq!(t.token_sim("speed", "spe"), Some(1.0));
        assert_eq!(t.token_sim("speed", "pace"), Some(0.9));
    }

    #[test]
    fn counts_by_type() {
        let n = norm("UnitOfMeasure4");
        assert_eq!(n.count_of(TokenType::Content), 2);
        assert_eq!(n.count_of(TokenType::CommonWord), 1);
        assert_eq!(n.count_of(TokenType::Number), 1);
    }
}
