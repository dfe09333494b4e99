//! The top-k discovery index (DESIGN.md §8.4).
//!
//! All-pairs discovery over `N` schemas executes `N·(N−1)/2` full tree
//! matches, and corpus studies (Valentine; Schemora's retrieve-then-
//! refine staging) show most of those pairs are poor candidates that a
//! cheap retrieval tier could have skipped. This module is that tier:
//! an inverted index over each schema's interned *leaf* name tokens.
//! For a query schema it scores every other schema by exact-token
//! overlap (Dice coefficient over the deduplicated leaf token sets) in
//! one posting-list sweep — no thesaurus lookups, no tree traversal,
//! no per-pair normalization — and only the top-k candidates per
//! schema go on to full TreeMatch execution.
//!
//! The overlap score is a *retrieval heuristic*, not a bound on `wsim`:
//! a thesaurus synonym pair ("Bill"/"Invoice") contributes `wsim` but
//! no token overlap. The eval harness's `retrieval` experiment
//! therefore measures recall of the index's top-k against the
//! exhaustive all-pairs ranking, exactly like a Valentine-style
//! benchmark would, instead of asserting an analytic guarantee.

use std::collections::BTreeMap;

use cupid_core::PreparedSchema;
use cupid_lexical::TokenId;

/// Inverted token index over a corpus of prepared schemas, frozen at
/// build time. Indices into the corpus are positional (`0..n`), matching
/// the order of the slice the index was built from — for a
/// [`crate::Repository`] that is the repository's schema order.
#[derive(Debug, Clone)]
pub struct DiscoveryIndex {
    /// Per schema: sorted, deduplicated interned leaf token ids.
    tokens: Vec<Vec<TokenId>>,
    /// token → sorted schema indices whose leaf token set contains it.
    postings: BTreeMap<TokenId, Vec<u32>>,
}

/// One retrieval candidate: schema index plus its overlap score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index of the candidate schema in the corpus the index was built
    /// over.
    pub schema: usize,
    /// Dice overlap of the two leaf token sets, in `[0, 1]`.
    pub score: f64,
}

impl DiscoveryIndex {
    /// Build the index over a corpus of prepared schemas.
    ///
    /// A schema's entry is the set of interned ids of the comparison-
    /// relevant (non-stop-word) tokens of its *leaf* names — the tokens
    /// that dominate `wsim` because Cupid's structural phase is
    /// leaf-biased (§6 of the paper).
    pub fn build(schemas: &[PreparedSchema]) -> Self {
        let mut tokens: Vec<Vec<TokenId>> = Vec::with_capacity(schemas.len());
        for p in schemas {
            let mut set: Vec<TokenId> = Vec::new();
            for (id, node) in p.tree.iter() {
                if !p.tree.is_leaf(id) {
                    continue;
                }
                let name = &p.ling.names[node.element.index()];
                debug_assert_eq!(name.ids.len(), name.tokens.len(), "schema must be interned");
                for (t, &tid) in name.tokens.iter().zip(&name.ids) {
                    if !t.is_ignored() {
                        set.push(tid);
                    }
                }
            }
            set.sort_unstable();
            set.dedup();
            tokens.push(set);
        }
        let mut postings: BTreeMap<TokenId, Vec<u32>> = BTreeMap::new();
        for (i, set) in tokens.iter().enumerate() {
            for &t in set {
                postings.entry(t).or_default().push(i as u32);
            }
        }
        DiscoveryIndex { tokens, postings }
    }

    /// Number of schemas indexed.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the index covers no schemas.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The top-k candidate schemas for a query schema, scored by
    /// Dice overlap of the leaf token sets, `2·|A ∩ B| / (|A| + |B|)`,
    /// descending (ties broken by ascending schema index so
    /// retrieval is deterministic). The query itself is excluded.
    /// One sweep over the query's posting lists — `O(Σ posting length)`,
    /// independent of the number of non-overlapping schemas.
    ///
    /// Overlap counts accumulate into a dense `Vec<u32>` indexed by
    /// schema: the posting sweep becomes a plain increment (no tree
    /// walk, no per-hit query check — the query's own slot is zeroed
    /// once afterwards), and scanning the dense array in ascending
    /// index order visits candidates exactly as the old
    /// `BTreeMap<u32, usize>` iteration did, so scores and tie order
    /// are unchanged.
    pub fn candidates(&self, query: usize, k: usize) -> Vec<Candidate> {
        let mut counts: Vec<u32> = vec![0; self.len()];
        for t in &self.tokens[query] {
            if let Some(list) = self.postings.get(t) {
                for &s in list {
                    counts[s as usize] += 1;
                }
            }
        }
        counts[query] = 0;
        let qlen = self.tokens[query].len();
        let mut out: Vec<Candidate> = counts
            .iter()
            .enumerate()
            .filter(|(_, &inter)| inter > 0)
            .map(|(s, &inter)| {
                let denom = qlen + self.tokens[s].len();
                Candidate { schema: s, score: 2.0 * inter as f64 / denom as f64 }
            })
            .collect();
        out.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.schema.cmp(&y.schema))
        });
        out.truncate(k);
        out
    }

    /// The pruned all-pairs worklist: the union, over every schema, of
    /// its top-k candidate pairs, as unordered `(i, j)` pairs with
    /// `i < j` in lexicographic order. This is what replaces the full
    /// `N·(N−1)/2` worklist in index-assisted discovery.
    pub fn top_k_pairs(&self, k: usize) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for q in 0..self.len() {
            for c in self.candidates(q, k) {
                let (i, j) = if q < c.schema { (q, c.schema) } else { (c.schema, q) };
                pairs.push((i, j));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_core::{CupidConfig, MatchSession};
    use cupid_lexical::Thesaurus;
    use cupid_model::{DataType, ElementKind, Schema, SchemaBuilder};

    fn schema(name: &str, fields: &[&str]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), "Rec", ElementKind::XmlElement);
        for f in fields {
            b.atomic(c, *f, ElementKind::XmlElement, DataType::String);
        }
        b.build().unwrap()
    }

    fn index_of(schemas: &[Schema]) -> DiscoveryIndex {
        let cfg = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        session.add_corpus(schemas).unwrap();
        let (_, prepared) = session.into_parts();
        DiscoveryIndex::build(&prepared)
    }

    #[test]
    fn overlap_ranks_token_sharing_schemas_first() {
        let corpus = [
            schema("A", &["CustomerName", "CustomerPhone", "Street"]),
            schema("B", &["CustomerName", "CustomerPhone", "Road"]),
            schema("C", &["Voltage", "Amperage", "Wattage"]),
        ];
        let idx = index_of(&corpus);
        assert_eq!(idx.len(), 3);
        let cands = idx.candidates(0, 2);
        assert_eq!(cands.len(), 1, "zero-overlap schemas are never candidates");
        assert_eq!(cands[0].schema, 1);
        assert!(cands[0].score > 0.5, "A and B share most tokens");
        let back = idx.candidates(1, 2);
        assert_eq!(back, [Candidate { schema: 0, score: cands[0].score }], "overlap is symmetric");
    }

    #[test]
    fn top_k_pairs_prunes_the_worklist() {
        let corpus = [
            schema("A", &["CustomerName", "CustomerPhone"]),
            schema("B", &["CustomerName", "CustomerCode"]),
            schema("C", &["OrderDate", "OrderTotal"]),
            schema("D", &["OrderDate", "OrderStatus"]),
        ];
        let idx = index_of(&corpus);
        let pairs = idx.top_k_pairs(1);
        // A~B and C~D dominate; the full worklist would be 6 pairs.
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(2, 3)));
        assert!(pairs.len() < 6, "pruned worklist {pairs:?} must beat all-pairs");
        // pairs are normalized and deduplicated
        for w in pairs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn empty_and_singleton_corpora() {
        let idx = index_of(&[]);
        assert!(idx.is_empty());
        assert!(idx.top_k_pairs(3).is_empty());
        let idx = index_of(&[schema("A", &["X"])]);
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(0, 5).is_empty());
        assert!(idx.top_k_pairs(5).is_empty());
    }
}
