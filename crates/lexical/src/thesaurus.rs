//! The thesaurus substrate (Section 5).
//!
//! *"We use a thesaurus to help match names by identifying short-forms
//! (Qty for Quantity), acronyms (UoM for UnitOfMeasure) and synonyms (Bill
//! and Invoice)."* Each synonym/hypernym entry is *"annotated with a
//! coefficient in the range \[0,1\] that indicates the strength of the
//! relationship"*.
//!
//! The thesaurus also carries the normalization tables of Section 5.1:
//! abbreviation/acronym expansions, stop words (articles, prepositions,
//! conjunctions) and concept tags. A small default stop-word list ships
//! with [`Thesaurus::default`]; everything else starts empty.
//!
//! Every table is keyed by canonical forms (lower case, then stemmed),
//! and every lookup canonicalizes its input, canonical tokens included,
//! since stemming is not idempotent. A lookup borrows its canonical
//! forms wherever it can, so an ASCII lower-case query allocates
//! nothing; the synonym and hypernym tables nest first term → second
//! term → coefficient, so a pair lookup borrows both keys too.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::stem::{stem, stem_prefix};

/// Errors raised while building or parsing a thesaurus.
#[derive(Debug, Clone, PartialEq)]
pub enum ThesaurusError {
    /// A relationship coefficient was outside `[0, 1]`.
    CoefficientOutOfRange {
        /// First term of the offending entry.
        a: String,
        /// Second term of the offending entry.
        b: String,
        /// The rejected coefficient.
        coefficient: f64,
    },
    /// A line of the text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ThesaurusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThesaurusError::CoefficientOutOfRange { a, b, coefficient } => {
                write!(f, "coefficient {coefficient} for ({a}, {b}) outside [0,1]")
            }
            ThesaurusError::Parse { line, message } => {
                write!(f, "thesaurus parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ThesaurusError {}

/// The canonical form of a term: lower case, then stemmed. A term that is
/// ASCII with no upper-case byte is its own lower case, so its stem is
/// borrowed from it. Any other term is lowered into one `String`, which
/// is cut to its stem. Lowering can make a term ASCII (U+212A KELVIN SIGN
/// lowers to `k`), so a non-ASCII term is lowered before it is stemmed.
///
/// `stem` is not idempotent, so neither is `canon`: a lookup
/// canonicalizes every input, canonical tokens included.
pub(crate) fn canon(term: &str) -> Cow<'_, str> {
    if term.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        return stem(term);
    }
    let mut lower = term.to_lowercase();
    let (kept, y) = stem_prefix(&lower);
    lower.truncate(kept.len());
    if y {
        lower.push('y');
    }
    Cow::Owned(lower)
}

/// Relation entries: first term → second term → coefficient. The nesting
/// lets a lookup borrow both keys, and iterating it visits entries in
/// (first, second) order, which the fingerprint encodes.
type Relations = BTreeMap<String, BTreeMap<String, f64>>;

fn relation(table: &Relations, a: &str, b: &str) -> Option<f64> {
    table.get(a)?.get(b).copied()
}

fn relate(table: &mut Relations, a: Cow<'_, str>, b: Cow<'_, str>, coefficient: f64) {
    table.entry(a.into_owned()).or_default().insert(b.into_owned(), coefficient);
}

/// A thesaurus: the auxiliary linguistic knowledge Cupid consumes.
///
/// All lookups are keyed on the canonical token form (lower case +
/// stemmed), so callers may query with surface forms.
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    /// abbreviation/acronym → expansion token list (canonical forms).
    pub(crate) abbreviations: BTreeMap<String, Vec<String>>,
    /// Stop words: articles, prepositions, conjunctions.
    pub(crate) stopwords: BTreeSet<String>,
    /// token → concept name (canonical forms), e.g. price/cost/value → money.
    pub(crate) concepts: BTreeMap<String, String>,
    /// Symmetric synonym entries with strength coefficients, keyed by the
    /// lesser canonical term first.
    synonyms: Relations,
    /// Directed hypernym entries (specific → general) with coefficients.
    hypernyms: Relations,
}

impl Thesaurus {
    /// An empty thesaurus (no stop words either). Useful for the paper's
    /// "dropping the thesaurus" experiment (§9.3 conclusion 2).
    pub fn empty() -> Self {
        Thesaurus::default()
    }

    /// A thesaurus with only the default English stop-word list
    /// (articles, prepositions, conjunctions), no domain knowledge.
    pub fn with_default_stopwords() -> Self {
        let mut t = Thesaurus::default();
        for w in DEFAULT_STOPWORDS {
            t.stopwords.insert((*w).to_string());
        }
        t
    }

    /// Expansion for an abbreviation/acronym, if registered.
    pub fn expand(&self, token: &str) -> Option<&[String]> {
        self.abbreviations.get(&*canon(token)).map(|v| v.as_slice())
    }

    /// Is this token a stop word (article/preposition/conjunction)?
    pub fn is_stopword(&self, token: &str) -> bool {
        self.stopwords.contains(&*canon(token))
    }

    /// Concept tag for a token, if any.
    pub fn concept_of(&self, token: &str) -> Option<&str> {
        self.concepts.get(&*canon(token)).map(String::as_str)
    }

    /// Thesaurus similarity between two tokens: exact canonical match is
    /// 1.0; otherwise the strongest synonym or hypernym entry (hypernyms
    /// are looked up in both directions). Returns `None` when the
    /// thesaurus has nothing to say — the caller then falls back to
    /// substring matching.
    pub fn token_sim(&self, a: &str, b: &str) -> Option<f64> {
        let (ca, cb) = (canon(a), canon(b));
        if ca == cb {
            return Some(1.0);
        }
        let (lo, hi) = if ca <= cb { (&*ca, &*cb) } else { (&*cb, &*ca) };
        let syn = relation(&self.synonyms, lo, hi);
        let hyp =
            relation(&self.hypernyms, &ca, &cb).or_else(|| relation(&self.hypernyms, &cb, &ca));
        match (syn, hyp) {
            (Some(s), Some(h)) => Some(s.max(h)),
            (s, h) => s.or(h),
        }
    }

    /// Number of synonym + hypernym entries (diagnostics).
    pub fn relation_count(&self) -> usize {
        self.synonyms.values().chain(self.hypernyms.values()).map(BTreeMap::len).sum()
    }

    /// Number of abbreviation entries (diagnostics).
    pub fn abbreviation_count(&self) -> usize {
        self.abbreviations.len()
    }

    /// Deterministic 64-bit fingerprint of the full thesaurus content
    /// (abbreviations, stop words, concepts, synonym and hypernym
    /// entries with their exact coefficient bits). Every table is a
    /// `BTreeMap`/`BTreeSet`, so iteration — and therefore the
    /// fingerprint — is independent of insertion order. A relation table
    /// is encoded as one list of (first, second, coefficient) entries in
    /// that order, so its bytes do not depend on the nesting. Snapshots store
    /// this next to the config fingerprint: a persisted similarity memo
    /// is only valid for the exact thesaurus it was computed with, so a
    /// mismatch invalidates the snapshot (DESIGN.md §8).
    pub fn fingerprint(&self) -> u64 {
        let mut w = cupid_model::WireWriter::new();
        w.put_list(&self.abbreviations, |w, (short, exp)| {
            w.put_str(short);
            w.put_list(exp, |w, word| w.put_str(word));
        });
        w.put_list(&self.stopwords, |w, s| w.put_str(s));
        w.put_list(&self.concepts, |w, (token, concept)| {
            w.put_str(token);
            w.put_str(concept);
        });
        for table in [&self.synonyms, &self.hypernyms] {
            let entries: Vec<(&String, &String, f64)> = table
                .iter()
                .flat_map(|(a, row)| row.iter().map(move |(b, &coeff)| (a, b, coeff)))
                .collect();
            w.put_list(entries, |w, (a, b, coeff)| {
                w.put_str(a);
                w.put_str(b);
                w.put_f64(coeff);
            });
        }
        cupid_model::fnv1a(w.bytes())
    }

    /// Parse the plain-text thesaurus format. Lines:
    ///
    /// ```text
    /// # comment
    /// abbrev PO = purchase order
    /// syn invoice bill 1.0
    /// hyper customer person 0.8     # customer IS-A person
    /// concept money : price cost value
    /// stop of the an to
    /// ```
    pub fn parse(text: &str) -> Result<Self, ThesaurusError> {
        let mut b = ThesaurusBuilder::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().unwrap_or("");
            let rest: Vec<&str> = parts.collect();
            let perr = |message: String| ThesaurusError::Parse { line: lineno, message };
            match keyword {
                "abbrev" => {
                    let eq = rest
                        .iter()
                        .position(|&w| w == "=")
                        .ok_or_else(|| perr("expected `abbrev SHORT = long form`".to_string()))?;
                    if eq != 1 || rest.len() < 3 {
                        return Err(perr("expected `abbrev SHORT = long form`".to_string()));
                    }
                    b = b.abbreviation(rest[0], &rest[eq + 1..]);
                }
                "syn" | "hyper" => {
                    if rest.len() != 3 {
                        return Err(perr(format!("expected `{keyword} TERM TERM COEFF`")));
                    }
                    let coeff: f64 = rest[2]
                        .parse()
                        .map_err(|_| perr(format!("bad coefficient `{}`", rest[2])))?;
                    b = if keyword == "syn" {
                        b.synonym(rest[0], rest[1], coeff)
                    } else {
                        b.hypernym(rest[0], rest[1], coeff)
                    };
                }
                "concept" => {
                    let colon = rest
                        .iter()
                        .position(|&w| w == ":")
                        .ok_or_else(|| perr("expected `concept NAME : term term…`".to_string()))?;
                    if colon != 1 || rest.len() < 3 {
                        return Err(perr("expected `concept NAME : term term…`".to_string()));
                    }
                    for term in &rest[colon + 1..] {
                        b = b.concept(term, rest[0]);
                    }
                }
                "stop" => {
                    for w in rest {
                        b = b.stopword(w);
                    }
                }
                other => return Err(perr(format!("unknown directive `{other}`"))),
            }
        }
        b.build()
    }
}

/// Default stop words: the articles, prepositions and conjunctions that
/// show up in schema element names (`UnitOfMeasure`, `DeliverTo`,
/// `DayOfWeek`...).
pub const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "to", "for", "in", "on", "at", "by", "and", "or", "per", "with", "from",
];

/// Fluent builder for [`Thesaurus`].
#[derive(Debug, Clone)]
pub struct ThesaurusBuilder {
    thesaurus: Thesaurus,
    error: Option<ThesaurusError>,
}

impl Default for ThesaurusBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThesaurusBuilder {
    /// Start from the default stop-word list.
    pub fn new() -> Self {
        ThesaurusBuilder { thesaurus: Thesaurus::with_default_stopwords(), error: None }
    }

    /// Start from a completely empty thesaurus (no stop words).
    pub fn empty() -> Self {
        ThesaurusBuilder { thesaurus: Thesaurus::empty(), error: None }
    }

    /// Register an abbreviation/acronym expansion, e.g. `PO` → `purchase order`.
    pub fn abbreviation(mut self, short: &str, expansion: &[&str]) -> Self {
        let exp: Vec<String> = expansion.iter().map(|w| canon(w).into_owned()).collect();
        if !exp.is_empty() {
            self.thesaurus.abbreviations.insert(canon(short).into_owned(), exp);
        }
        self
    }

    /// Register a symmetric synonym entry with a strength coefficient.
    pub fn synonym(mut self, a: &str, b: &str, coefficient: f64) -> Self {
        if !(0.0..=1.0).contains(&coefficient) {
            self.error.get_or_insert(ThesaurusError::CoefficientOutOfRange {
                a: a.to_string(),
                b: b.to_string(),
                coefficient,
            });
            return self;
        }
        let (a, b) = (canon(a), canon(b));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        relate(&mut self.thesaurus.synonyms, lo, hi, coefficient);
        self
    }

    /// Register a hypernym entry (`specific` IS-A `general`) with a
    /// strength coefficient.
    pub fn hypernym(mut self, specific: &str, general: &str, coefficient: f64) -> Self {
        if !(0.0..=1.0).contains(&coefficient) {
            self.error.get_or_insert(ThesaurusError::CoefficientOutOfRange {
                a: specific.to_string(),
                b: general.to_string(),
                coefficient,
            });
            return self;
        }
        relate(&mut self.thesaurus.hypernyms, canon(specific), canon(general), coefficient);
        self
    }

    /// Tag a token with a concept name (e.g. `price` → `money`).
    pub fn concept(mut self, token: &str, concept: &str) -> Self {
        self.thesaurus.concepts.insert(canon(token).into_owned(), canon(concept).into_owned());
        self
    }

    /// Add a stop word.
    pub fn stopword(mut self, word: &str) -> Self {
        self.thesaurus.stopwords.insert(canon(word).into_owned());
        self
    }

    /// Finish, returning the first error encountered (if any).
    pub fn build(self) -> Result<Thesaurus, ThesaurusError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.thesaurus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_thesaurus() -> Thesaurus {
        // The CIDX–Excel experiment thesaurus: "the thesauri had a total of
        // 4 abbreviations (UOM, PO, Qty, Num) and 2 synonymy entries
        // (Invoice,Bill; Ship,Deliver)".
        ThesaurusBuilder::new()
            .abbreviation("UOM", &["unit", "of", "measure"])
            .abbreviation("PO", &["purchase", "order"])
            .abbreviation("Qty", &["quantity"])
            .abbreviation("Num", &["number"])
            .synonym("Invoice", "Bill", 1.0)
            .synonym("Ship", "Deliver", 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn abbreviation_expansion() {
        let t = paper_thesaurus();
        assert_eq!(t.expand("PO").unwrap(), ["purchase", "order"]);
        assert_eq!(t.expand("po").unwrap(), ["purchase", "order"]);
        assert_eq!(t.expand("Qty").unwrap(), ["quantity"]);
        assert!(t.expand("XYZ").is_none());
    }

    #[test]
    fn synonym_lookup_is_symmetric_and_stemmed() {
        let t = paper_thesaurus();
        assert_eq!(t.token_sim("Invoice", "Bill"), Some(1.0));
        assert_eq!(t.token_sim("bill", "invoice"), Some(1.0));
        // Stemming folds "billing"/"bills" onto "bill".
        assert_eq!(t.token_sim("bills", "invoices"), Some(1.0));
        assert_eq!(t.token_sim("shipping", "delivers"), Some(1.0));
    }

    #[test]
    fn exact_match_is_one_even_without_entries() {
        let t = Thesaurus::empty();
        assert_eq!(t.token_sim("city", "City"), Some(1.0));
        assert_eq!(t.token_sim("cities", "city"), Some(1.0));
        assert_eq!(t.token_sim("city", "street"), None);
    }

    #[test]
    fn hypernym_lookup_both_directions() {
        let t = ThesaurusBuilder::new().hypernym("customer", "person", 0.8).build().unwrap();
        assert_eq!(t.token_sim("customer", "person"), Some(0.8));
        assert_eq!(t.token_sim("person", "customer"), Some(0.8));
    }

    #[test]
    fn strongest_relation_wins() {
        let t =
            ThesaurusBuilder::new().synonym("a", "b", 0.5).hypernym("a", "b", 0.9).build().unwrap();
        assert_eq!(t.token_sim("a", "b"), Some(0.9));
    }

    #[test]
    fn coefficient_out_of_range_rejected() {
        let err = ThesaurusBuilder::new().synonym("a", "b", 1.5).build().unwrap_err();
        assert!(matches!(err, ThesaurusError::CoefficientOutOfRange { .. }));
    }

    #[test]
    fn stopwords_default_list() {
        let t = Thesaurus::with_default_stopwords();
        assert!(t.is_stopword("of"));
        assert!(t.is_stopword("To"));
        assert!(!t.is_stopword("order"));
        assert!(!Thesaurus::empty().is_stopword("of"));
    }

    #[test]
    fn concept_tagging() {
        let t = ThesaurusBuilder::new()
            .concept("price", "money")
            .concept("cost", "money")
            .concept("value", "money")
            .build()
            .unwrap();
        assert_eq!(t.concept_of("Price"), Some("money"));
        assert_eq!(t.concept_of("costs"), Some("money"));
        assert_eq!(t.concept_of("city"), None);
    }

    #[test]
    fn parse_text_format() {
        let t = Thesaurus::parse(
            "# experiment thesaurus\n\
             abbrev PO = purchase order\n\
             abbrev Qty = quantity\n\
             syn invoice bill 1.0\n\
             hyper customer person 0.8\n\
             concept money : price cost value\n\
             stop of to\n",
        )
        .unwrap();
        assert_eq!(t.expand("PO").unwrap(), ["purchase", "order"]);
        assert_eq!(t.token_sim("bill", "invoice"), Some(1.0));
        assert_eq!(t.token_sim("person", "customer"), Some(0.8));
        assert_eq!(t.concept_of("cost"), Some("money"));
        assert!(t.is_stopword("of"));
        assert_eq!(t.fingerprint(), 0xd044_0440_030e_daab, "every table's encoding is pinned");
    }

    #[test]
    fn relation_tables_encode_by_first_then_second_term() {
        // First terms repeat in both tables, so ordering the entries by
        // second term, or by insertion, changes the bytes.
        let t = Thesaurus::parse(
            "syn invoice bill 1.0\n\
             syn bill statement 0.6\n\
             syn charge bill 0.7\n\
             syn price cost 0.8\n\
             syn amount cost 0.5\n\
             syn Bills invoices 0.9\n\
             hyper customer person 0.8\n\
             hyper customer party 0.7\n\
             hyper customer agent 0.3\n\
             hyper client person 0.75\n\
             hyper vendor party 0.6\n",
        )
        .unwrap();
        assert_eq!(t.relation_count(), 10);
        assert_eq!(t.token_sim("invoice", "bill"), Some(0.9), "a repeated pair keeps its last");
        assert_eq!(t.token_sim("agents", "Customer"), Some(0.3));
        assert_eq!(t.fingerprint(), 0x002d_ea7e_7a1f_9cf8, "recorded with pair keys");
    }

    #[test]
    fn lookups_lowercase_before_they_stem() {
        let t = ThesaurusBuilder::new()
            .concept("kittens", "pet")
            .concept("boxes", "container")
            .concept("city", "place")
            .concept("straße", "place")
            .abbreviation("UoM", &["unit", "of", "measure"])
            .build()
            .unwrap();
        // U+212A KELVIN SIGN is not ASCII, and lowercases to ASCII `k`.
        assert_eq!(t.concept_of("\u{212A}ittens"), Some("pet"));
        assert_eq!(t.concept_of("BOXES"), Some("container"));
        assert_eq!(t.concept_of("CITIES"), Some("place"));
        assert_eq!(t.concept_of("Straße"), Some("place"));
        assert!(t.is_stopword("OF"));
        assert_eq!(t.expand("UoM").unwrap(), ["unit", "of", "measure"]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Thesaurus::parse("syn a b\n").unwrap_err();
        assert!(matches!(err, ThesaurusError::Parse { line: 1, .. }));
        let err = Thesaurus::parse("\nfrobnicate x\n").unwrap_err();
        assert!(matches!(err, ThesaurusError::Parse { line: 2, .. }));
        let err = Thesaurus::parse("syn a b nan\n").unwrap_err();
        assert!(matches!(
            err,
            ThesaurusError::Parse { .. } | ThesaurusError::CoefficientOutOfRange { .. }
        ));
    }

    #[test]
    fn parse_rejects_bad_coefficient_range() {
        let err = Thesaurus::parse("syn a b 2.0\n").unwrap_err();
        assert!(matches!(err, ThesaurusError::CoefficientOutOfRange { .. }));
    }
}
