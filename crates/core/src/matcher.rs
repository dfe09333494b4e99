//! The public entry point: [`Cupid`].
//!
//! Wires the three phases together (§4): linguistic matching → structure
//! matching → mapping generation, over schema trees expanded per §8.
//! The linguistic phase runs the interned engine
//! ([`crate::linguistic::analyze`]): token-pair similarities are
//! memoized across the whole match, which the equivalence suite proves
//! output-identical to the naive §5 transliteration
//! ([`crate::linguistic::analyze_naive`]).

use cupid_lexical::Thesaurus;
use cupid_model::{expand, ElementId, ModelError, Schema, SchemaTree};

use crate::config::CupidConfig;
use crate::linguistic::{analyze, LinguisticAnalysis};
use crate::mapping::{leaf_mappings, pair_mappings, Cardinality, MappingElement};
use crate::session::{MatchSession, MatchSummary, SessionStats};
use crate::treematch::{tree_match, TreeMatchResult};

/// The complete match outcome: mappings plus every intermediate artifact
/// (trees, linguistic analysis, similarity matrices) for inspection,
/// evaluation and user validation (§2: *"essential to have user
/// validation of the result"*).
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// Expanded source schema tree.
    pub source_tree: SchemaTree,
    /// Expanded target schema tree.
    pub target_tree: SchemaTree,
    /// Linguistic phase output (`lsim` table, categories, diagnostics).
    pub linguistic: LinguisticAnalysis,
    /// Structural phase output (final similarity matrices).
    pub structural: TreeMatchResult,
    /// Leaf-level mapping (the paper's naïve 1:n generator).
    pub leaf_mappings: Vec<MappingElement>,
    /// Non-leaf mapping from the recomputed similarities.
    pub nonleaf_mappings: Vec<MappingElement>,
}

impl MatchOutcome {
    /// True if some leaf mapping relates the two context paths.
    pub fn has_leaf_mapping(&self, source_path: &str, target_path: &str) -> bool {
        self.leaf_mappings
            .iter()
            .any(|m| &*m.source_path == source_path && &*m.target_path == target_path)
    }

    /// True if some non-leaf mapping relates the two context paths.
    pub fn has_nonleaf_mapping(&self, source_path: &str, target_path: &str) -> bool {
        self.nonleaf_mappings
            .iter()
            .any(|m| &*m.source_path == source_path && &*m.target_path == target_path)
    }

    /// The mapping element (leaf or non-leaf) for a target path, if any.
    pub fn mapping_for_target(&self, target_path: &str) -> Option<&MappingElement> {
        self.leaf_mappings
            .iter()
            .chain(&self.nonleaf_mappings)
            .find(|m| &*m.target_path == target_path)
    }

    /// Weighted similarity of two context paths (0 if unknown paths).
    pub fn wsim_of_paths(&self, source_path: &str, target_path: &str) -> f64 {
        match (self.source_tree.find_path(source_path), self.target_tree.find_path(target_path)) {
            (Some(s), Some(t)) => self.structural.wsim.get(s.index(), t.index()),
            _ => 0.0,
        }
    }

    /// Regenerate the leaf mapping under a different cardinality policy.
    pub fn leaf_mappings_with(
        &self,
        cfg: &CupidConfig,
        cardinality: Cardinality,
    ) -> Vec<MappingElement> {
        leaf_mappings(
            &self.source_tree,
            &self.target_tree,
            &self.structural,
            &self.linguistic.lsim,
            cfg,
            cardinality,
        )
    }
}

/// The result of [`Cupid::match_corpus`]: one [`MatchSummary`] per
/// unordered schema pair (lexicographic order) plus the session's
/// aggregate cache statistics.
#[derive(Debug, Clone)]
pub struct CorpusMatch {
    /// Per-pair summaries, `(i, j)` with `i < j` in corpus order.
    pub summaries: Vec<MatchSummary>,
    /// Session counters (vocabulary size, memoized token pairs, …).
    pub stats: SessionStats,
}

impl CorpusMatch {
    /// The summary for a pair of corpus indices, if it was matched.
    pub fn pair(&self, i: usize, j: usize) -> Option<&MatchSummary> {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        self.summaries.iter().find(|s| s.source.index() == i && s.target.index() == j)
    }
}

/// The Cupid matcher: configuration + thesaurus.
#[derive(Debug, Clone)]
pub struct Cupid {
    config: CupidConfig,
    thesaurus: Thesaurus,
}

impl Cupid {
    /// A matcher with the paper's default parameters (Table 1).
    pub fn new(thesaurus: Thesaurus) -> Self {
        Cupid { config: CupidConfig::default(), thesaurus }
    }

    /// A matcher with a custom configuration.
    pub fn with_config(config: CupidConfig, thesaurus: Thesaurus) -> Self {
        Cupid { config, thesaurus }
    }

    /// Access the configuration.
    pub fn config(&self) -> &CupidConfig {
        &self.config
    }

    /// Access the thesaurus.
    pub fn thesaurus(&self) -> &Thesaurus {
        &self.thesaurus
    }

    /// Match two schemas end to end.
    pub fn match_schemas(&self, s1: &Schema, s2: &Schema) -> Result<MatchOutcome, ModelError> {
        self.match_schemas_seeded(s1, s2, &[])
    }

    /// Open a batch-matching session over this matcher's configuration
    /// and thesaurus (DESIGN.md §7): schemas are prepared once, one
    /// token-similarity memo persists across all pairs, and pair
    /// worklists shard across OS threads — with results bit-identical
    /// to [`Cupid::match_schemas`] on the same pairs.
    pub fn session(&self) -> MatchSession<'_> {
        MatchSession::new(&self.config, &self.thesaurus)
    }

    /// Match every unordered pair of a schema corpus in one session —
    /// the Valentine-style all-pairs discovery workload. Convenience
    /// wrapper over [`Cupid::session`]; use the session directly for
    /// incremental corpora, explicit worklists or thread-count control.
    pub fn match_corpus(&self, schemas: &[Schema]) -> Result<CorpusMatch, ModelError> {
        let mut session = self.session();
        session.add_corpus(schemas)?;
        let summaries = session.match_all_pairs();
        Ok(CorpusMatch { summaries, stats: session.stats() })
    }

    /// Match two schemas with a user-supplied initial mapping (§8.4):
    /// the linguistic similarity of seeded element pairs is raised to the
    /// configured maximum before structure matching, so the hint
    /// propagates to ancestors. Re-running with a corrected seed is the
    /// paper's user-interaction loop. A seed naming an element outside
    /// its schema is rejected with [`ModelError::InvalidElement`].
    pub fn match_schemas_seeded(
        &self,
        s1: &Schema,
        s2: &Schema,
        initial_mapping: &[(ElementId, ElementId)],
    ) -> Result<MatchOutcome, ModelError> {
        // The lsim table checks its bounds in debug builds only.
        for &(e1, e2) in initial_mapping {
            for (id, len) in [(e1, s1.len()), (e2, s2.len())] {
                if id.index() >= len {
                    return Err(ModelError::InvalidElement { id, len });
                }
            }
        }
        let t1 = expand(s1, &self.config.expand)?;
        let t2 = expand(s2, &self.config.expand)?;
        Ok(self.match_trees(s1, t1, s2, t2, initial_mapping))
    }

    /// The single-pair body over expanded trees: linguistic matching,
    /// TreeMatch, then the mapping policy ([`crate::mapping`]).
    fn match_trees(
        &self,
        s1: &Schema,
        t1: SchemaTree,
        s2: &Schema,
        t2: SchemaTree,
        initial_mapping: &[(ElementId, ElementId)],
    ) -> MatchOutcome {
        let mut linguistic = analyze(s1, s2, &self.thesaurus, &self.config);
        for &(e1, e2) in initial_mapping {
            linguistic.lsim.set(e1, e2, self.config.initial_mapping_lsim);
        }
        let structural = tree_match(&t1, &t2, &linguistic.lsim, &self.config);
        let (leaf_mappings, nonleaf_mappings) =
            pair_mappings(&t1, &t2, &structural, &linguistic.lsim, &self.config);
        MatchOutcome {
            source_tree: t1,
            target_tree: t2,
            linguistic,
            structural,
            leaf_mappings,
            nonleaf_mappings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_lexical::ThesaurusBuilder;
    use cupid_model::{DataType, ElementKind, SchemaBuilder};

    fn paper_thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("UOM", &["unit", "of", "measure"])
            .abbreviation("PO", &["purchase", "order"])
            .abbreviation("Qty", &["quantity"])
            .abbreviation("POrder", &["purchase", "order"])
            .synonym("Invoice", "Bill", 1.0)
            .synonym("Ship", "Deliver", 1.0)
            .build()
            .unwrap()
    }

    /// Figure 1's two schemas.
    fn fig1() -> (Schema, Schema) {
        let mut b = SchemaBuilder::new("PO");
        let lines = b.structured(b.root(), "Lines", ElementKind::XmlElement);
        let item = b.structured(lines, "Item", ElementKind::XmlElement);
        b.atomic(item, "Line", ElementKind::XmlElement, DataType::Int);
        b.atomic(item, "Qty", ElementKind::XmlElement, DataType::Int);
        b.atomic(item, "Uom", ElementKind::XmlElement, DataType::String);
        let po = b.build().unwrap();

        let mut b = SchemaBuilder::new("POrder");
        let items = b.structured(b.root(), "Items", ElementKind::XmlElement);
        let item = b.structured(items, "Item", ElementKind::XmlElement);
        b.atomic(item, "ItemNumber", ElementKind::XmlElement, DataType::Int);
        b.atomic(item, "Quantity", ElementKind::XmlElement, DataType::Int);
        b.atomic(item, "UnitOfMeasure", ElementKind::XmlElement, DataType::String);
        let porder = b.build().unwrap();
        (po, porder)
    }

    #[test]
    fn figure_1_mapping() {
        let (po, porder) = fig1();
        // Table 1: cinc is "typically a function of maximum schema depth".
        // Figure 1's schemas are only 3 levels deep, so each leaf pair can
        // receive at most ~3 ancestor reinforcements; 1.35 lets a
        // type-compatible leaf in a matched context reach acceptance
        // without saturating wrong-context pairs.
        let mut cfg = CupidConfig::default();
        cfg.c_inc = 1.35;
        let cupid = Cupid::with_config(cfg, paper_thesaurus());
        let out = cupid.match_schemas(&po, &porder).unwrap();
        // Qty -> Quantity and Uom -> UnitOfMeasure via the thesaurus.
        assert!(out.has_leaf_mapping("PO.Lines.Item.Qty", "POrder.Items.Item.Quantity"));
        assert!(out.has_leaf_mapping("PO.Lines.Item.Uom", "POrder.Items.Item.UnitOfMeasure"));
        // The paper's marquee structural match: Line -> ItemNumber with no
        // thesaurus support, carried by data type + context.
        assert!(
            out.has_leaf_mapping("PO.Lines.Item.Line", "POrder.Items.Item.ItemNumber"),
            "leaf mappings: {:#?}",
            out.leaf_mappings
        );
        // Non-leaf: Lines -> Items, Item -> Item.
        assert!(out.has_nonleaf_mapping("PO.Lines.Item", "POrder.Items.Item"));
        assert!(out.has_nonleaf_mapping("PO.Lines", "POrder.Items"));
    }

    #[test]
    fn initial_mapping_seeds_propagate() {
        // Two schemas with opaque names; a seed on the leaves lifts the
        // ancestors' similarity.
        let mut b = SchemaBuilder::new("S1");
        let g = b.structured(b.root(), "GrpQ", ElementKind::XmlElement);
        let x = b.atomic(g, "FieldX", ElementKind::XmlElement, DataType::Int);
        let s1 = b.build().unwrap();
        let mut b = SchemaBuilder::new("S2");
        let g = b.structured(b.root(), "SectZ", ElementKind::XmlElement);
        let y = b.atomic(g, "DatumY", ElementKind::XmlElement, DataType::Int);
        let s2 = b.build().unwrap();

        let cupid = Cupid::new(Thesaurus::with_default_stopwords());
        let without = cupid.match_schemas(&s1, &s2).unwrap();
        let with = cupid.match_schemas_seeded(&s1, &s2, &[(x, y)]).unwrap();
        let w_before = without.wsim_of_paths("S1.GrpQ.FieldX", "S2.SectZ.DatumY");
        let w_after = with.wsim_of_paths("S1.GrpQ.FieldX", "S2.SectZ.DatumY");
        assert!(w_after > w_before, "seed must raise wsim: {w_before} -> {w_after}");
        assert!(with.has_leaf_mapping("S1.GrpQ.FieldX", "S2.SectZ.DatumY"));
        let g_before = without.wsim_of_paths("S1.GrpQ", "S2.SectZ");
        let g_after = with.wsim_of_paths("S1.GrpQ", "S2.SectZ");
        assert!(g_after > g_before, "seed must lift ancestors: {g_before} -> {g_after}");
    }

    #[test]
    fn out_of_range_seeds_are_rejected() {
        let (po, porder) = fig1();
        let cupid = Cupid::new(paper_thesaurus());
        let (n1, n2) = (po.len(), porder.len());
        let first = ElementId::from_index(0);
        let past = ElementId::from_index;
        // One past the end would wrap into the next lsim row in a
        // release build; further out it would panic.
        for (seed, id, len) in [
            ((first, past(n2)), past(n2), n2),
            ((first, past(n2 + 7)), past(n2 + 7), n2),
            ((past(n1), first), past(n1), n1),
        ] {
            let err = cupid.match_schemas_seeded(&po, &porder, &[seed]).unwrap_err();
            assert_eq!(err, ModelError::InvalidElement { id, len });
        }
        let last = (ElementId::from_index(n1 - 1), ElementId::from_index(n2 - 1));
        assert!(cupid.match_schemas_seeded(&po, &porder, &[last]).is_ok());
    }

    #[test]
    fn match_corpus_agrees_with_single_pairs() {
        let (po, porder) = fig1();
        let cupid = Cupid::new(paper_thesaurus());
        let corpus = [po.clone(), porder.clone(), po.clone()];
        let out = cupid.match_corpus(&corpus).unwrap();
        assert_eq!(out.summaries.len(), 3);
        assert_eq!(out.stats.pairs_matched, 3);
        assert!(out.stats.vocab_size > 0);
        let single = cupid.match_schemas(&po, &porder).unwrap();
        let pair = out.pair(0, 1).unwrap();
        assert_eq!(pair.leaf_mappings, single.leaf_mappings);
        assert_eq!(pair.nonleaf_mappings, single.nonleaf_mappings);
        assert!(out.pair(1, 0).is_some(), "pair lookup is unordered");
        assert!(out.pair(0, 3).is_none());
    }

    #[test]
    fn outcome_helpers() {
        let (po, porder) = fig1();
        let out = Cupid::new(paper_thesaurus()).match_schemas(&po, &porder).unwrap();
        assert!(out.mapping_for_target("POrder.Items.Item.Quantity").is_some());
        assert!(out.mapping_for_target("POrder.Nowhere").is_none());
        let one_to_one = out.leaf_mappings_with(&CupidConfig::default(), Cardinality::OneToOne);
        assert!(!one_to_one.is_empty());
        // 1:1 never repeats a source
        let mut sources: Vec<&str> = one_to_one.iter().map(|m| &*m.source_path).collect();
        sources.sort();
        let before = sources.len();
        sources.dedup();
        assert_eq!(before, sources.len());
    }
}
