//! Incremental thesaurus learning from validated mappings.
//!
//! The paper's own roadmap (§9.3, conclusion 2): *"A robust solution
//! will need a module to incrementally learn synonyms and abbreviations
//! from mappings that are performed over time."* This module implements
//! that: given mappings a user has validated, it aligns the normalized
//! name tokens of each matched pair and proposes thesaurus entries —
//! synonym candidates for co-occurring unrelated tokens, abbreviation
//! candidates when one token is a prefix of the other.
//!
//! Evidence accumulates across matches (and across match sessions): a
//! pair proposed once is weak, a pair that recurs in several validated
//! correspondences is strong. The caller reviews the proposals and
//! applies them to a [`ThesaurusBuilder`], closing the loop for the next
//! match run.

use std::collections::HashMap;

use cupid_lexical::{Normalizer, Thesaurus, ThesaurusBuilder, TokenType};
use cupid_model::SchemaTree;

use crate::mapping::MappingElement;

/// One learned proposal.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// The two tokens appear to be synonyms (strength grows with
    /// supporting evidence).
    Synonym {
        /// First token (canonical form).
        a: String,
        /// Second token (canonical form).
        b: String,
        /// Number of validated correspondences supporting the pair.
        support: usize,
        /// Suggested thesaurus coefficient.
        coefficient: f64,
    },
    /// `short` looks like an abbreviation of `full` (shared prefix).
    Abbreviation {
        /// The short form.
        short: String,
        /// The full form.
        full: String,
        /// Number of validated correspondences supporting the pair.
        support: usize,
    },
}

impl Proposal {
    /// Evidence count behind the proposal.
    pub fn support(&self) -> usize {
        match self {
            Proposal::Synonym { support, .. } | Proposal::Abbreviation { support, .. } => *support,
        }
    }
}

/// Accumulates evidence from validated mappings across sessions.
#[derive(Debug, Clone, Default)]
pub struct ThesaurusLearner {
    /// (token a, token b) sorted → support count, for synonym candidates.
    synonym_votes: HashMap<(String, String), usize>,
    /// (short, full) → support count, for abbreviation candidates.
    abbrev_votes: HashMap<(String, String), usize>,
}

impl ThesaurusLearner {
    /// New, empty learner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Digest a batch of user-validated mappings. `thesaurus` is the one
    /// used for the match: token pairs it already relates are not
    /// re-proposed.
    ///
    /// Alignment heuristic: for each validated pair, normalize both
    /// element names; exact-equal tokens align and are removed; if one
    /// unmatched token is a prefix of another (≥3 chars) it votes for an
    /// abbreviation; if exactly one content token remains unmatched on
    /// each side, the leftover pair votes for a synonym. Multi-leftover
    /// names are skipped — ambiguous alignments would produce noise.
    pub fn observe(
        &mut self,
        validated: &[&MappingElement],
        source_tree: &SchemaTree,
        target_tree: &SchemaTree,
        thesaurus: &Thesaurus,
    ) {
        let normalizer = Normalizer::default();
        for m in validated {
            let sname = &source_tree.node(m.source).name;
            let tname = &target_tree.node(m.target).name;
            let sn = normalizer.normalize(sname, thesaurus);
            let tn = normalizer.normalize(tname, thesaurus);
            let mut s_tokens: Vec<String> = sn
                .tokens
                .iter()
                .filter(|t| t.ttype == TokenType::Content)
                .map(|t| t.text.clone())
                .collect();
            let mut t_tokens: Vec<String> = tn
                .tokens
                .iter()
                .filter(|t| t.ttype == TokenType::Content)
                .map(|t| t.text.clone())
                .collect();
            // remove tokens the thesaurus already considers related
            s_tokens.retain(|s| {
                if let Some(pos) =
                    t_tokens.iter().position(|t| thesaurus.token_sim(s, t).unwrap_or(0.0) >= 0.8)
                {
                    t_tokens.remove(pos);
                    false
                } else {
                    true
                }
            });
            // prefix pairs → abbreviation votes
            let mut s_left: Vec<String> = Vec::new();
            for s in s_tokens {
                if let Some(pos) = t_tokens.iter().position(|t| is_abbreviation(&s, t)) {
                    let t = t_tokens.remove(pos);
                    let (short, full) = if s.len() < t.len() { (s, t) } else { (t, s) };
                    *self.abbrev_votes.entry((short, full)).or_insert(0) += 1;
                } else {
                    s_left.push(s);
                }
            }
            // a single leftover pair → synonym vote
            if s_left.len() == 1 && t_tokens.len() == 1 {
                let (a, b) = (s_left.remove(0), t_tokens.remove(0));
                let key = if a <= b { (a, b) } else { (b, a) };
                *self.synonym_votes.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Proposals with at least `min_support` votes, strongest first.
    /// Synonym coefficients grow with support, saturating at 0.95
    /// (learned entries stay below hand-curated ones).
    pub fn proposals(&self, min_support: usize) -> Vec<Proposal> {
        let mut out: Vec<Proposal> = Vec::new();
        for ((a, b), &support) in &self.synonym_votes {
            if support >= min_support {
                let coefficient = (0.6 + 0.1 * (support as f64 - 1.0)).min(0.95);
                out.push(Proposal::Synonym { a: a.clone(), b: b.clone(), support, coefficient });
            }
        }
        for ((short, full), &support) in &self.abbrev_votes {
            if support >= min_support {
                out.push(Proposal::Abbreviation {
                    short: short.clone(),
                    full: full.clone(),
                    support,
                });
            }
        }
        out.sort_by(|x, y| {
            y.support().cmp(&x.support()).then_with(|| format!("{x:?}").cmp(&format!("{y:?}")))
        });
        out
    }

    /// Apply proposals to a thesaurus builder, returning the augmented
    /// builder.
    pub fn apply(proposals: &[Proposal], mut builder: ThesaurusBuilder) -> ThesaurusBuilder {
        for p in proposals {
            builder = match p {
                Proposal::Synonym { a, b, coefficient, .. } => builder.synonym(a, b, *coefficient),
                Proposal::Abbreviation { short, full, .. } => {
                    builder.abbreviation(short, &[full.as_str()])
                }
            };
        }
        builder
    }

    /// Convenience: observe every mapping of an outcome that the user
    /// validated against a predicate (e.g. membership in a gold set).
    pub fn observe_validated<F>(
        &mut self,
        outcome: &crate::matcher::MatchOutcome,
        thesaurus: &Thesaurus,
        mut is_valid: F,
    ) where
        F: FnMut(&MappingElement) -> bool,
    {
        let validated: Vec<&MappingElement> =
            outcome.leaf_mappings.iter().filter(|m| is_valid(m)).collect();
        self.observe(&validated, &outcome.source_tree, &outcome.target_tree, thesaurus);
    }
}

/// `short` is an abbreviation candidate for `full` when the shorter
/// token's characters appear in order within the longer one, starting at
/// its first character (Qty ⊂ Quantity, Amt ⊂ Amount, Num ⊂ Number).
/// Requires ≥2 chars on the short side and a real length gap; the user
/// reviews proposals, so mild over-generation is acceptable.
fn is_abbreviation(a: &str, b: &str) -> bool {
    if a == b {
        return false;
    }
    let (short, full) = if a.len() < b.len() { (a, b) } else { (b, a) };
    if short.len() < 2 || full.len() <= short.len() {
        return false;
    }
    let mut fc = full.chars();
    let mut first = true;
    for c in short.chars() {
        let found = if first {
            first = false;
            fc.next() == Some(c)
        } else {
            fc.by_ref().any(|f| f == c)
        };
        if !found {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Cupid;
    use cupid_lexical::Thesaurus;
    use cupid_model::{DataType, ElementKind, Schema, SchemaBuilder};

    fn schema(name: &str, class: &str, attrs: &[&str]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), class, ElementKind::Class);
        for a in attrs {
            b.atomic(c, *a, ElementKind::Attribute, DataType::String);
        }
        b.build().unwrap()
    }

    /// The §9.3(2) loop: match without domain knowledge, validate, learn,
    /// re-match with the learned thesaurus, and gain recall.
    #[test]
    fn learned_synonyms_improve_the_next_run() {
        let s1 = schema("S1", "Customer", &["CustomerName", "CustomerStreet", "CustomerPhone"]);
        let s2 = schema("S2", "Client", &["ClientName", "ClientStreet", "ClientPhone"]);
        let base = Thesaurus::with_default_stopwords();
        let cupid = Cupid::new(base.clone());
        let first = cupid.match_schemas(&s1, &s2).unwrap();

        // The user validates whatever the first run found (names share
        // the Name/Street/Phone tokens, so the pairs are found; the
        // customer/client tokens stay unrelated).
        let mut learner = ThesaurusLearner::new();
        learner.observe_validated(&first, &base, |_| true);
        let proposals = learner.proposals(2);
        assert!(
            proposals.iter().any(|p| matches!(
                p,
                Proposal::Synonym { a, b, .. } if a == "client" && b == "customer"
            )),
            "expected a customer/client synonym proposal: {proposals:?}"
        );

        // Apply and re-run: lsim(Customer, Client) is now non-zero, so
        // the class-level mapping appears.
        let learned = ThesaurusLearner::apply(&proposals, ThesaurusBuilder::new()).build().unwrap();
        let second = Cupid::new(learned).match_schemas(&s1, &s2).unwrap();
        let w_first = first.wsim_of_paths("S1.Customer", "S2.Client");
        let w_second = second.wsim_of_paths("S1.Customer", "S2.Client");
        assert!(
            w_second > w_first,
            "learned thesaurus should lift the class pair: {w_first} -> {w_second}"
        );
    }

    #[test]
    fn abbreviations_are_detected_from_prefix_pairs() {
        let s1 = schema("S1", "Order", &["Qty", "Amt"]);
        let s2 = schema("S2", "Order", &["Quantity", "Amount"]);
        // Force the pairing through a seed so the learner sees validated
        // correspondences even without linguistic overlap.
        let base = Thesaurus::with_default_stopwords();
        let qty = s1.find("Qty").unwrap();
        let quantity = s2.find("Quantity").unwrap();
        let amt = s1.find("Amt").unwrap();
        let amount = s2.find("Amount").unwrap();
        let cupid = Cupid::new(base.clone());
        let out = cupid.match_schemas_seeded(&s1, &s2, &[(qty, quantity), (amt, amount)]).unwrap();
        let mut learner = ThesaurusLearner::new();
        learner.observe_validated(&out, &base, |m| {
            (m.source_path.ends_with("Qty") && m.target_path.ends_with("Quantity"))
                || (m.source_path.ends_with("Amt") && m.target_path.ends_with("Amount"))
        });
        let proposals = learner.proposals(1);
        assert!(
            proposals.iter().any(|p| matches!(
                p,
                Proposal::Abbreviation { short, full, .. } if short == "qty" && full == "quantity"
            )),
            "expected qty/quantity abbreviation: {proposals:?}"
        );
    }

    #[test]
    fn already_related_tokens_are_not_reproposed() {
        let s1 = schema("S1", "Order", &["BillCity"]);
        let s2 = schema("S2", "Order", &["InvoiceCity"]);
        let thesaurus = ThesaurusBuilder::new().synonym("bill", "invoice", 1.0).build().unwrap();
        let out = Cupid::new(thesaurus.clone()).match_schemas(&s1, &s2).unwrap();
        let mut learner = ThesaurusLearner::new();
        learner.observe_validated(&out, &thesaurus, |_| true);
        assert!(
            learner.proposals(1).is_empty(),
            "bill/invoice is already in the thesaurus: {:?}",
            learner.proposals(1)
        );
    }

    #[test]
    fn support_accumulates_and_gates() {
        let s1 = schema("S1", "Customer", &["CustomerName"]);
        let s2 = schema("S2", "Client", &["ClientName"]);
        let base = Thesaurus::with_default_stopwords();
        let out = Cupid::new(base.clone()).match_schemas(&s1, &s2).unwrap();
        let mut learner = ThesaurusLearner::new();
        learner.observe_validated(&out, &base, |_| true);
        // one leaf pair → support 1; min_support 2 filters it out
        assert!(learner.proposals(2).is_empty());
        assert!(!learner.proposals(1).is_empty());
        // observing the same evidence again accumulates
        learner.observe_validated(&out, &base, |_| true);
        assert!(!learner.proposals(2).is_empty());
    }

    #[test]
    fn ambiguous_alignments_are_skipped() {
        // two leftovers per side → no synonym vote
        let s1 = schema("S1", "T", &["AlphaBravo"]);
        let s2 = schema("S2", "T", &["GammaDelta"]);
        let base = Thesaurus::with_default_stopwords();
        let a = s1.find("AlphaBravo").unwrap();
        let g = s2.find("GammaDelta").unwrap();
        let out = Cupid::new(base.clone()).match_schemas_seeded(&s1, &s2, &[(a, g)]).unwrap();
        let mut learner = ThesaurusLearner::new();
        learner.observe_validated(&out, &base, |m| m.source_path.ends_with("AlphaBravo"));
        assert!(
            learner.synonym_votes.is_empty(),
            "ambiguous two-token leftovers must not vote: {:?}",
            learner.synonym_votes
        );
    }

    #[test]
    fn is_abbreviation_rules() {
        // subsequence contractions
        assert!(is_abbreviation("qty", "quantity"));
        assert!(is_abbreviation("amt", "amount"));
        assert!(is_abbreviation("num", "number"));
        // plain prefixes
        assert!(is_abbreviation("quan", "quantity"));
        assert!(is_abbreviation("quantity", "quan")); // order-insensitive

        // rejections
        assert!(!is_abbreviation("qty", "qty"));
        assert!(!is_abbreviation("x", "xylophone")); // too short
        assert!(!is_abbreviation("abc", "xyz"));
        assert!(!is_abbreviation("tyq", "quantity")); // wrong first char
    }
}
