//! Match explainability (DESIGN.md §14): per-mapping score provenance.
//!
//! A match result reports one `wsim` per mapping, but the paper defines
//! that number as a composition — `wsim = w·ssim + (1−w)·lsim`, with
//! `lsim` itself built from categorized token similarities and `ssim`
//! from leaf-set propagation. This module runs one prepared pair through
//! the engine's own steps and captures the whole decomposition per kept
//! mapping: the score breakdown at the final weights, the top
//! contributing token pairs with their per-pair provenance (thesaurus
//! hit vs affix match), the structural context (leaf-set sizes,
//! strong-link counts, reinforcement passes), and the threshold decision
//! that admitted the mapping.
//!
//! Explanations are produced by a **separate entry point**
//! ([`crate::MatchSession::explain_pair`]); the zero-explain hot path is
//! untouched. The explanation reads what
//! the engine computed — `pair_lsim`'s category scale, the TreeMatch
//! workspace after its main pass, the match's own mapping policy — and
//! computes only the top token pairs itself. The central invariant,
//! asserted end to end, is that every explanation **recomposes to the
//! reported `wsim` bit-exactly** ([`Explanation::recomposes_exactly`]).

use std::sync::Arc;

use cupid_lexical::{
    class_similarity_explained, Thesaurus, TokenId, TokenSimCache, TokenSimProvenance, TokenTable,
    TokenType,
};
use cupid_model::{NodeId, WireError, WireReader, WireWriter};

use crate::config::CupidConfig;
use crate::linguistic::{element_ns, pair_lsim, PairLsim};
use crate::mapping::{pair_mappings, MappingElement};
use crate::session::PreparedSchema;
use crate::treematch::Workspace;

/// How many top contributing token pairs an explanation keeps per
/// mapping (descending similarity).
pub const TOP_TOKEN_PAIRS: usize = 8;

/// One contributing token pair of a mapping's linguistic score: the two
/// canonical token texts, the token type they were compared under, the
/// memoized similarity, and where that similarity came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenPairScore {
    /// Canonical text of the source-side token.
    pub source_token: String,
    /// Canonical text of the target-side token.
    pub target_token: String,
    /// Token type (category) the pair was compared under.
    pub token_type: TokenType,
    /// Token-pair similarity, exactly as the match memo answered it.
    pub sim: f64,
    /// Where the similarity came from (thesaurus, affix, exact symbol).
    pub provenance: TokenSimProvenance,
}

/// Structural context of a mapping: what TreeMatch saw for the node
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralContext {
    /// Leaves counted under the source node (depth-limited mask size).
    pub source_leaves: usize,
    /// Leaves counted under the target node.
    pub target_leaves: usize,
    /// Source leaves with a strong link into the target subtree.
    pub source_strong_links: usize,
    /// Target leaves with a strong link into the source subtree.
    pub target_strong_links: usize,
    /// `wsim` of the pair during the main (reinforcement) pass — the
    /// value the `th_high`/`th_low` decisions were made on, before the
    /// final recomputation.
    pub main_pass_wsim: f64,
    /// The pair was skipped by leaf-count ratio pruning.
    pub pruned: bool,
    /// The main pass boosted the pair's leaves (`wsim > th_high`).
    pub increased: bool,
    /// The main pass penalized the pair's leaves (`wsim < th_low`).
    pub decreased: bool,
}

/// Full score provenance of one kept mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Source node in the expanded source tree.
    pub source: NodeId,
    /// Target node in the expanded target tree.
    pub target: NodeId,
    /// Source context path, shared with the mapping it explains.
    pub source_path: Arc<str>,
    /// Target context path.
    pub target_path: Arc<str>,
    /// Produced by the leaf generator (1:n) rather than the non-leaf 1:1
    /// generator.
    pub leaf: bool,
    /// Weighted similarity, exactly as reported by the match.
    pub wsim: f64,
    /// Structural component.
    pub ssim: f64,
    /// Linguistic component.
    pub lsim: f64,
    /// Structural weight `w` used for this pair (`w_struct_leaf` for
    /// leaf pairs, `w_struct` otherwise): `wsim = w·ssim + (1−w)·lsim`.
    pub w_struct: f64,
    /// Acceptance threshold the mapping cleared (`wsim ≥ th_accept`).
    pub th_accept: f64,
    /// Element-level name similarity `ns` (token-type-weighted mean);
    /// `lsim = ns × category_scale`.
    pub name_similarity: f64,
    /// Best compatible-category name similarity that scaled `ns` into
    /// `lsim`; 0 when the elements shared no compatible category.
    pub category_scale: f64,
    /// Top contributing token pairs, descending similarity.
    pub token_pairs: Vec<TokenPairScore>,
    /// What TreeMatch saw for the node pair.
    pub structure: StructuralContext,
}

impl Explanation {
    /// Recompose `wsim` from the reported components with the same float
    /// expression the engine used.
    pub fn recomposed_wsim(&self) -> f64 {
        self.w_struct * self.ssim + (1.0 - self.w_struct) * self.lsim
    }

    /// True if the recomposition reproduces the reported `wsim`
    /// bit-exactly — the invariant every served explanation satisfies.
    pub fn recomposes_exactly(&self) -> bool {
        self.recomposed_wsim().to_bits() == self.wsim.to_bits()
    }
}

/// Score provenance for every kept mapping of one schema pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairExplanation {
    /// Source schema name.
    pub source_name: String,
    /// Target schema name.
    pub target_name: String,
    /// Per-mapping explanations: leaf mappings first (generator order),
    /// then non-leaf mappings.
    pub mappings: Vec<Explanation>,
    /// Element pairs the linguistic phase actually compared.
    pub compared_pairs: usize,
    /// Total element pairs (`|S1| × |S2|`).
    pub total_pairs: usize,
    /// `increase-struct-similarity` invocations during the main pass.
    pub increases: usize,
    /// `decrease-struct-similarity` invocations during the main pass.
    pub decreases: usize,
}

impl PairExplanation {
    /// True if every mapping's explanation recomposes to its reported
    /// `wsim` bit-exactly.
    pub fn recomposes_exactly(&self) -> bool {
        self.mappings.iter().all(Explanation::recomposes_exactly)
    }

    /// Encode the explanation (checksummed framing is the transport's
    /// job; this is the payload encoding, DESIGN.md §14).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_str(&self.source_name);
        w.put_str(&self.target_name);
        w.put_list(&self.mappings, |w, m| m.write_wire(w));
        w.put_u64(self.compared_pairs as u64);
        w.put_u64(self.total_pairs as u64);
        w.put_u64(self.increases as u64);
        w.put_u64(self.decreases as u64);
    }

    /// Decode an explanation written by [`PairExplanation::write_wire`].
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<PairExplanation, WireError> {
        let source_name = r.get_str()?;
        let target_name = r.get_str()?;
        Ok(PairExplanation {
            source_name,
            target_name,
            mappings: r.get_list(Explanation::read_wire)?,
            compared_pairs: r.get_u64()? as usize,
            total_pairs: r.get_u64()? as usize,
            increases: r.get_u64()? as usize,
            decreases: r.get_u64()? as usize,
        })
    }
}

impl Explanation {
    /// Encode one mapping's explanation.
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_u32(self.source.index() as u32);
        w.put_u32(self.target.index() as u32);
        w.put_str(&self.source_path);
        w.put_str(&self.target_path);
        w.put_bool(self.leaf);
        for v in [
            self.wsim,
            self.ssim,
            self.lsim,
            self.w_struct,
            self.th_accept,
            self.name_similarity,
            self.category_scale,
        ] {
            w.put_f64(v);
        }
        w.put_list(&self.token_pairs, |w, t| {
            w.put_str(&t.source_token);
            w.put_str(&t.target_token);
            w.put_u8(t.token_type.index() as u8);
            w.put_f64(t.sim);
            write_provenance(w, t.provenance);
        });
        let s = &self.structure;
        w.put_u64(s.source_leaves as u64);
        w.put_u64(s.target_leaves as u64);
        w.put_u64(s.source_strong_links as u64);
        w.put_u64(s.target_strong_links as u64);
        w.put_f64(s.main_pass_wsim);
        w.put_bool(s.pruned);
        w.put_bool(s.increased);
        w.put_bool(s.decreased);
    }

    /// Decode one mapping's explanation written by
    /// [`Explanation::write_wire`].
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<Explanation, WireError> {
        let source = NodeId::from_index(r.get_u32()? as usize);
        let target = NodeId::from_index(r.get_u32()? as usize);
        let source_path = r.get_arc_str()?;
        let target_path = r.get_arc_str()?;
        let leaf = r.get_bool()?;
        let mut f = [0.0f64; 7];
        for v in f.iter_mut() {
            *v = r.get_f64()?;
        }
        let token_pairs = r.get_list(|r| {
            let source_token = r.get_str()?;
            let target_token = r.get_str()?;
            let k = r.get_u8()? as usize;
            if k >= TokenType::ALL.len() {
                return Err(r.err(format!("token type index {k} out of range")));
            }
            Ok(TokenPairScore {
                source_token,
                target_token,
                token_type: TokenType::ALL[k],
                sim: r.get_f64()?,
                provenance: read_provenance(r)?,
            })
        })?;
        let structure = StructuralContext {
            source_leaves: r.get_u64()? as usize,
            target_leaves: r.get_u64()? as usize,
            source_strong_links: r.get_u64()? as usize,
            target_strong_links: r.get_u64()? as usize,
            main_pass_wsim: r.get_f64()?,
            pruned: r.get_bool()?,
            increased: r.get_bool()?,
            decreased: r.get_bool()?,
        };
        Ok(Explanation {
            source,
            target,
            source_path,
            target_path,
            leaf,
            wsim: f[0],
            ssim: f[1],
            lsim: f[2],
            w_struct: f[3],
            th_accept: f[4],
            name_similarity: f[5],
            category_scale: f[6],
            token_pairs,
            structure,
        })
    }
}

fn write_provenance(w: &mut WireWriter, p: TokenSimProvenance) {
    match p {
        TokenSimProvenance::ExactSymbol => w.put_u8(0),
        TokenSimProvenance::Thesaurus => w.put_u8(1),
        TokenSimProvenance::Affix { prefix_len, suffix_len, capped } => {
            w.put_u8(2);
            w.put_u32(prefix_len);
            w.put_u32(suffix_len);
            w.put_bool(capped);
        }
        TokenSimProvenance::NoMatch => w.put_u8(3),
    }
}

fn read_provenance(r: &mut WireReader<'_>) -> Result<TokenSimProvenance, WireError> {
    match r.get_u8()? {
        0 => Ok(TokenSimProvenance::ExactSymbol),
        1 => Ok(TokenSimProvenance::Thesaurus),
        2 => Ok(TokenSimProvenance::Affix {
            prefix_len: r.get_u32()?,
            suffix_len: r.get_u32()?,
            capped: r.get_bool()?,
        }),
        3 => Ok(TokenSimProvenance::NoMatch),
        t => Err(r.err(format!("unknown token provenance tag {t}"))),
    }
}

/// Run one prepared pair through the engine's steps — `pair_lsim`,
/// the TreeMatch workspace, the mapping policy — and explain every kept
/// mapping from their state, so the captured scores are bit-identical
/// to what [`crate::MatchSession::match_pair`] reports.
pub(crate) fn explain_pair(
    cfg: &CupidConfig,
    s1: &PreparedSchema,
    s2: &PreparedSchema,
    table: &TokenTable,
    thesaurus: &Thesaurus,
    cache: &mut TokenSimCache<'_>,
) -> PairExplanation {
    let pair = pair_lsim(&s1.ling, &s2.ling, cfg, cache);
    let mut ws = Workspace::new(&s1.tree, &s2.tree, &pair.lsim, cfg);
    ws.run_main_pass();
    let (leaf, nonleaf) = pair_mappings(&s1.tree, &s2.tree, &ws.result(), &pair.lsim, cfg);

    let mut mappings = Vec::with_capacity(leaf.len() + nonleaf.len());
    for (set, is_leaf) in [(&leaf, true), (&nonleaf, false)] {
        for m in set {
            mappings.push(explain_mapping(
                cfg, s1, s2, table, thesaurus, cache, &pair, &ws, m, is_leaf,
            ));
        }
    }
    PairExplanation {
        source_name: s1.name.clone(),
        target_name: s2.name.clone(),
        mappings,
        compared_pairs: pair.compared_pairs,
        total_pairs: pair.total_pairs,
        increases: ws.stats.increases,
        decreases: ws.stats.decreases,
    }
}

/// Explain one kept mapping: read its category scale out of the pair's
/// `pair_lsim` output and its structural context out of the finished
/// workspace.
fn explain_mapping(
    cfg: &CupidConfig,
    s1: &PreparedSchema,
    s2: &PreparedSchema,
    table: &TokenTable,
    thesaurus: &Thesaurus,
    cache: &mut TokenSimCache<'_>,
    pair: &PairLsim,
    ws: &Workspace<'_>,
    m: &MappingElement,
    leaf: bool,
) -> Explanation {
    let i1 = s1.tree.node(m.source).element.index();
    let i2 = s2.tree.node(m.target).element.index();
    let comparable = s1.ling.is_comparable(i1) && s2.ling.is_comparable(i2);
    let scale = if comparable { pair.category_scale.get(i1, i2) } else { 0.0 };

    let mut name_similarity = 0.0;
    let mut token_pairs = Vec::new();
    if comparable && scale > 0.0 {
        name_similarity = element_ns(&s1.ling, i1, &s2.ling, i2, &cfg.token_weights, cache);
        token_pairs = top_token_pairs(cfg, s1, s2, i1, i2, table, thesaurus, cache);
    }

    let (si, ti) = (m.source.index(), m.target.index());
    let links = ws.link_counts(si, ti);
    let pruned = !leaf && ws.pruned(si, ti);
    let main_pass_wsim = ws.node_wsim.get(si, ti);
    let structure = StructuralContext {
        source_leaves: links.source_leaves,
        target_leaves: links.target_leaves,
        source_strong_links: links.source_links,
        target_strong_links: links.target_links,
        main_pass_wsim,
        pruned,
        increased: !pruned && main_pass_wsim > cfg.th_high,
        decreased: !pruned && main_pass_wsim < cfg.th_low,
    };

    Explanation {
        source: m.source,
        target: m.target,
        source_path: m.source_path.clone(),
        target_path: m.target_path.clone(),
        leaf,
        wsim: m.wsim,
        ssim: m.ssim,
        lsim: m.lsim,
        w_struct: cfg.w_struct_for(leaf),
        th_accept: cfg.th_accept,
        name_similarity,
        category_scale: scale,
        token_pairs,
        structure,
    }
}

/// Best-match token pairs of an element pair, both directions, deduped
/// and sorted by descending similarity, capped at [`TOP_TOKEN_PAIRS`].
fn top_token_pairs(
    cfg: &CupidConfig,
    s1: &PreparedSchema,
    s2: &PreparedSchema,
    i1: usize,
    i2: usize,
    table: &TokenTable,
    thesaurus: &Thesaurus,
    cache: &mut TokenSimCache<'_>,
) -> Vec<TokenPairScore> {
    let mut raw: Vec<(TokenId, TokenId, TokenType, f64)> = Vec::new();
    for ttype in TokenType::ALL {
        if cfg.token_weights.weight(ttype) == 0.0 {
            continue;
        }
        let a_ids = s1.ling.typed(i1).of_type(ttype.index());
        let b_ids = s2.ling.typed(i2).of_type(ttype.index());
        let mut best_of = |from: &[TokenId], to: &[TokenId], flip: bool| {
            for &a in from {
                let mut best: Option<(TokenId, f64)> = None;
                for &b in to {
                    let s = cache.sim(a, b);
                    if best.is_none_or(|(_, bs)| s > bs) {
                        best = Some((b, s));
                    }
                }
                if let Some((b, s)) = best {
                    let (x, y) = if flip { (b, a) } else { (a, b) };
                    raw.push((x, y, ttype, s));
                }
            }
        };
        best_of(a_ids, b_ids, false);
        best_of(b_ids, a_ids, true);
    }
    raw.sort_by(|a, b| {
        b.3.partial_cmp(&a.3)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.index().cmp(&b.0.index()))
            .then(a.1.index().cmp(&b.1.index()))
    });
    raw.dedup_by_key(|&mut (a, b, t, _)| (a, b, t));
    raw.truncate(TOP_TOKEN_PAIRS);
    raw.into_iter()
        .map(|(a, b, ttype, sim)| {
            let (score, provenance) = class_similarity_explained(
                table.class(a),
                table.text(a),
                table.class(b),
                table.text(b),
                thesaurus,
                &cfg.affix,
            );
            debug_assert_eq!(score.to_bits(), sim.to_bits(), "provenance score must match memo");
            TokenPairScore {
                source_token: table.text(a).to_string(),
                target_token: table.text(b).to_string(),
                token_type: ttype,
                sim,
                provenance,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::MatchSession;
    use cupid_lexical::ThesaurusBuilder;
    use cupid_model::{DataType, ElementKind, Schema, SchemaBuilder};

    fn thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("Qty", &["quantity"])
            .synonym("Invoice", "Bill", 1.0)
            .build()
            .unwrap()
    }

    fn schema(name: &str, container: &str, fields: &[(&str, DataType)]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), container, ElementKind::XmlElement);
        for (f, dt) in fields {
            b.atomic(c, *f, ElementKind::XmlElement, *dt);
        }
        b.build().unwrap()
    }

    fn corpus() -> Vec<Schema> {
        vec![
            schema("S0", "Item", &[("Qty", DataType::Int), ("Invoice", DataType::String)]),
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Bill", DataType::String)]),
            schema(
                "S2",
                "Order",
                &[("Quantity", DataType::Int), ("ShipAddress", DataType::String)],
            ),
            schema("S3", "Order", &[("Quantity", DataType::Int), ("ShipAddr", DataType::String)]),
        ]
    }

    #[test]
    fn explanation_matches_match_output_and_recomposes() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let summary = session.match_pair(ids[0], ids[1]);
        let ex = session.explain_pair(ids[0], ids[1]);

        // The explanation covers exactly the kept mappings, leaf first,
        // with bit-identical scores.
        let want: Vec<&MappingElement> =
            summary.leaf_mappings.iter().chain(&summary.nonleaf_mappings).collect();
        assert_eq!(ex.mappings.len(), want.len());
        for (e, m) in ex.mappings.iter().zip(want) {
            assert_eq!(e.source_path, m.source_path);
            assert_eq!(e.target_path, m.target_path);
            assert_eq!(e.wsim.to_bits(), m.wsim.to_bits());
            assert_eq!(e.ssim.to_bits(), m.ssim.to_bits());
            assert_eq!(e.lsim.to_bits(), m.lsim.to_bits());
            assert!(e.recomposes_exactly(), "{e:?}");
            assert!(e.wsim >= e.th_accept, "kept mapping must clear th_accept");
        }
        assert!(ex.recomposes_exactly());
        assert_eq!(ex.compared_pairs, summary.compared_pairs);
        assert_eq!(ex.total_pairs, summary.total_pairs);
    }

    #[test]
    fn token_provenance_distinguishes_thesaurus_and_affix() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();

        // Invoice ↔ Bill is a thesaurus synonym.
        let ex = session.explain_pair(ids[0], ids[1]);
        let inv = ex
            .mappings
            .iter()
            .find(|e| e.source_path.ends_with("Invoice"))
            .expect("Invoice maps to Bill");
        assert!(inv
            .token_pairs
            .iter()
            .any(|t| t.provenance == TokenSimProvenance::Thesaurus && t.sim == 1.0));

        // ShipAddress ↔ ShipAddr: "ship" is exact, "address" ↔ "addr"
        // falls back to the common-prefix similarity.
        let ex = session.explain_pair(ids[2], ids[3]);
        let affix = ex
            .mappings
            .iter()
            .flat_map(|e| &e.token_pairs)
            .find(|t| matches!(t.provenance, TokenSimProvenance::Affix { .. }))
            .expect("an affix-matched token pair");
        assert!(affix.sim > 0.0);
        // Sorted descending, capped.
        for e in &ex.mappings {
            assert!(e.token_pairs.len() <= TOP_TOKEN_PAIRS);
            assert!(e.token_pairs.windows(2).all(|w| w[0].sim >= w[1].sim));
        }
    }

    #[test]
    fn lsim_decomposes_into_ns_times_scale() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let ex = session.explain_pair(ids[0], ids[1]);
        for e in &ex.mappings {
            if e.category_scale > 0.0 {
                let recomposed = (e.name_similarity * e.category_scale).clamp(0.0, 1.0);
                assert_eq!(recomposed.to_bits(), e.lsim.to_bits(), "{e:?}");
            } else {
                assert_eq!(e.lsim, 0.0);
            }
        }
    }

    #[test]
    fn repeated_explain_is_identical_and_counts_no_match() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let want = session.explain_pair(ids[0], ids[1]);
        let computed = session.stats().distinct_pairs_computed;
        assert_eq!(session.explain_pair(ids[0], ids[1]), want);
        assert_eq!(session.stats().distinct_pairs_computed, computed, "the warm memo answers");
        assert_eq!(session.stats().pairs_matched, 0, "an explanation is not a match");
    }

    #[test]
    fn structural_context_reports_leaf_sets_and_links() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let ex = session.explain_pair(ids[0], ids[1]);
        let item = ex
            .mappings
            .iter()
            .find(|e| !e.leaf && e.source_path.ends_with("Item"))
            .expect("Item containers map");
        assert_eq!(item.structure.source_leaves, 2);
        assert_eq!(item.structure.target_leaves, 2);
        assert_eq!(item.structure.source_strong_links, 2);
        assert_eq!(item.structure.target_strong_links, 2);
        assert!(item.structure.increased, "a perfect container pair gets reinforced");
        assert!(!item.structure.pruned);
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let cfg = crate::CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let ex = session.explain_pair(ids[0], ids[1]);
        assert!(!ex.mappings.is_empty());
        let mut w = WireWriter::new();
        ex.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = PairExplanation::read_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, ex);
        assert!(back.recomposes_exactly());
    }
}
