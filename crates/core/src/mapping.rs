//! Mapping generation (§7).
//!
//! *"For each leaf element t in the target schema, if the leaf element s
//! in the source schema with highest weighted similarity to t is
//! acceptable (wsim(s,t) ≥ thaccept), then a mapping element from s to t
//! is returned. This resulting mapping may be 1:n, since a source element
//! may map to many target elements."*
//!
//! Non-leaf mappings use the recomputed similarities (the second
//! post-order traversal of §7, performed in
//! `Workspace::final_matrices`).
//!
//! The paper notes the exact cardinality policy belongs to a
//! tool-specific generator; both the paper's naïve 1:n generator and a
//! greedy 1:1 generator are provided.

use std::fmt;
use std::sync::Arc;

use cupid_model::{NodeId, SchemaTree};

use crate::config::CupidConfig;
use crate::linguistic::LsimTable;
use crate::treematch::TreeMatchResult;

/// Mapping cardinality policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// The paper's naïve generator: best source per target, sources may
    /// repeat.
    OneToN,
    /// Greedy 1:1 assignment by descending similarity.
    OneToOne,
}

/// One mapping element: a correspondence between a source and a target
/// schema-tree node (i.e. element-in-context), with its similarity
/// coefficients. Its context paths are the trees' own
/// [`SchemaTree::shared_path`]s: making or cloning one copies no path.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingElement {
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Source context path (e.g. `PO.POBillTo.City`).
    pub source_path: Arc<str>,
    /// Target context path.
    pub target_path: Arc<str>,
    /// Weighted similarity that justified the mapping.
    pub wsim: f64,
    /// Structural component.
    pub ssim: f64,
    /// Linguistic component.
    pub lsim: f64,
}

impl fmt::Display for MappingElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}  (wsim {:.3}, ssim {:.3}, lsim {:.3})",
            self.source_path, self.target_path, self.wsim, self.ssim, self.lsim
        )
    }
}

fn make_element(
    t1: &SchemaTree,
    t2: &SchemaTree,
    res: &TreeMatchResult,
    lsim: &LsimTable,
    s: NodeId,
    t: NodeId,
) -> MappingElement {
    MappingElement {
        source: s,
        target: t,
        source_path: t1.shared_path(s).clone(),
        target_path: t2.shared_path(t).clone(),
        wsim: res.wsim.get(s.index(), t.index()),
        ssim: res.ssim.get(s.index(), t.index()),
        lsim: lsim.get(t1.node(s).element, t2.node(t).element),
    }
}

/// Indices of nodes matching a predicate.
fn nodes_where(tree: &SchemaTree, leaf: bool) -> Vec<NodeId> {
    tree.iter().filter(|(_, n)| n.is_leaf() == leaf).map(|(id, _)| id).collect()
}

/// Select mappings among the given candidate node sets from the
/// TreeMatch result's `wsim`, honoring the cardinality policy.
fn select(
    t1: &SchemaTree,
    t2: &SchemaTree,
    res: &TreeMatchResult,
    lsim: &LsimTable,
    sources: &[NodeId],
    targets: &[NodeId],
    cfg: &CupidConfig,
    cardinality: Cardinality,
) -> Vec<MappingElement> {
    // Saturated similarities (leaf ssim clamps at 1.0) can tie. Ties are
    // broken by *context consistency*: prefer the source whose parent is
    // more similar to the target's parent — the similarity the ancestors
    // accumulated is exactly Cupid's context evidence.
    let wsim = &res.wsim;
    let parent_wsim = |s: NodeId, t: NodeId| -> f64 {
        match (t1.node(s).parents.first(), t2.node(t).parents.first()) {
            (Some(&ps), Some(&pt)) => wsim.get(ps.index(), pt.index()),
            _ => 0.0,
        }
    };
    let mut out = Vec::new();
    match cardinality {
        Cardinality::OneToN => {
            for &t in targets {
                let mut best: Option<(NodeId, f64, f64)> = None;
                for &s in sources {
                    let v = wsim.get(s.index(), t.index());
                    if v < cfg.th_accept {
                        continue;
                    }
                    let pw = parent_wsim(s, t);
                    match best {
                        Some((_, bv, bpw)) if bv > v || (bv == v && bpw >= pw) => {}
                        _ => best = Some((s, v, pw)),
                    }
                }
                if let Some((s, _, _)) = best {
                    out.push(make_element(t1, t2, res, lsim, s, t));
                }
            }
        }
        Cardinality::OneToOne => {
            let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
            for &s in sources {
                for &t in targets {
                    let v = wsim.get(s.index(), t.index());
                    if v >= cfg.th_accept {
                        pairs.push((s, t, v));
                    }
                }
            }
            // Descending similarity. Saturated similarities tie often, so
            // break ties by preferring pairs at comparable nesting depth
            // (Item↔Item over Item↔Items), then by indices for
            // determinism.
            pairs.sort_by(|a, b| {
                let depth_diff = |p: &(NodeId, NodeId, f64)| {
                    (t1.depth(p.0) as i64 - t2.depth(p.1) as i64).unsigned_abs()
                };
                b.2.partial_cmp(&a.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(depth_diff(a).cmp(&depth_diff(b)))
                    .then(
                        parent_wsim(b.0, b.1)
                            .partial_cmp(&parent_wsim(a.0, a.1))
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.0.cmp(&b.0))
                    .then(a.1.cmp(&b.1))
            });
            let mut used_s = vec![false; t1.len()];
            let mut used_t = vec![false; t2.len()];
            for (s, t, _) in pairs {
                if used_s[s.index()] || used_t[t.index()] {
                    continue;
                }
                used_s[s.index()] = true;
                used_t[t.index()] = true;
                out.push(make_element(t1, t2, res, lsim, s, t));
            }
            out.sort_by_key(|m| m.target.index());
        }
    }
    out
}

/// Leaf-level mapping generation (§7).
pub fn leaf_mappings(
    t1: &SchemaTree,
    t2: &SchemaTree,
    res: &TreeMatchResult,
    lsim: &LsimTable,
    cfg: &CupidConfig,
    cardinality: Cardinality,
) -> Vec<MappingElement> {
    let sources = nodes_where(t1, true);
    let targets = nodes_where(t2, true);
    select(t1, t2, res, lsim, &sources, &targets, cfg, cardinality)
}

/// Non-leaf mapping generation (§7): uses the recomputed similarities of
/// the second traversal, already present in [`TreeMatchResult::wsim`].
pub fn nonleaf_mappings(
    t1: &SchemaTree,
    t2: &SchemaTree,
    res: &TreeMatchResult,
    lsim: &LsimTable,
    cfg: &CupidConfig,
    cardinality: Cardinality,
) -> Vec<MappingElement> {
    let sources = nodes_where(t1, false);
    let targets = nodes_where(t2, false);
    select(t1, t2, res, lsim, &sources, &targets, cfg, cardinality)
}

/// The mapping policy of every pair the matcher runs: `(leaf, non-leaf)`
/// mappings. Leaf mappings use the paper's naïve 1:n generator (§7) —
/// this is what produces the two false positives the paper reports for
/// the CIDX–Excel example. Non-leaf (XML-element level) mappings are
/// reported 1:1: with saturated leaf similarities an inner element
/// (Item) otherwise out-bids its parent (POLines) for the target
/// (Items), and Table 3 shows Cupid reporting POLines→Items *and*
/// Item→Item simultaneously, which is a 1:1 interpretation.
pub(crate) fn pair_mappings(
    t1: &SchemaTree,
    t2: &SchemaTree,
    res: &TreeMatchResult,
    lsim: &LsimTable,
    cfg: &CupidConfig,
) -> (Vec<MappingElement>, Vec<MappingElement>) {
    (
        leaf_mappings(t1, t2, res, lsim, cfg, Cardinality::OneToN),
        nonleaf_mappings(t1, t2, res, lsim, cfg, Cardinality::OneToOne),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linguistic::analyze;
    use crate::treematch::tree_match;
    use cupid_lexical::Thesaurus;
    use cupid_model::{expand, DataType, ElementKind, ExpandOptions, Schema, SchemaBuilder};

    fn schema(name: &str, attrs: &[(&str, DataType)]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        for (a, dt) in attrs {
            b.atomic(c, *a, ElementKind::Attribute, *dt);
        }
        b.build().unwrap()
    }

    struct Fixture {
        t1: cupid_model::SchemaTree,
        t2: cupid_model::SchemaTree,
        res: TreeMatchResult,
        lsim: LsimTable,
        cfg: CupidConfig,
    }

    fn fixture(s1: &Schema, s2: &Schema) -> Fixture {
        let cfg = CupidConfig::default();
        let thesaurus = Thesaurus::with_default_stopwords();
        let t1 = expand(s1, &ExpandOptions::none()).unwrap();
        let t2 = expand(s2, &ExpandOptions::none()).unwrap();
        let la = analyze(s1, s2, &thesaurus, &cfg);
        let res = tree_match(&t1, &t2, &la.lsim, &cfg);
        Fixture { t1, t2, res, lsim: la.lsim, cfg }
    }

    #[test]
    fn identical_schemas_map_one_to_one() {
        let attrs = [
            ("CustomerNumber", DataType::Int),
            ("Name", DataType::String),
            ("Address", DataType::String),
        ];
        let f = fixture(&schema("A", &attrs), &schema("B", &attrs));
        let maps = leaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToN);
        assert_eq!(maps.len(), 3);
        for m in &maps {
            let s_name = m.source_path.rsplit('.').next().unwrap();
            let t_name = m.target_path.rsplit('.').next().unwrap();
            assert_eq!(s_name, t_name, "wrong pairing: {m}");
        }
    }

    #[test]
    fn one_to_n_allows_repeated_sources() {
        // Source has one "Phone"; target has Phone + Telefax (both
        // phone-shaped strings in the same container, names overlapping
        // nothing). Use identical names to force 1:n.
        let s1 = schema("A", &[("Phone", DataType::String)]);
        let s2 = schema("B", &[("Phone", DataType::String), ("Phone2", DataType::String)]);
        let f = fixture(&s1, &s2);
        let maps = leaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToN);
        // Phone maps to both Phone and Phone2 (same best source).
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].source_path, maps[1].source_path);

        let one = leaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToOne);
        assert_eq!(one.len(), 1, "1:1 must not reuse the source");
        assert_eq!(&*one[0].target_path, "B.Customer.Phone");
    }

    #[test]
    fn threshold_gates_mappings() {
        let s1 = schema("A", &[("Alpha", DataType::Int)]);
        let s2 = schema("B", &[("Omega", DataType::Date)]);
        let f = fixture(&s1, &s2);
        let maps = leaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToN);
        assert!(maps.is_empty(), "dissimilar leaves must not map: {maps:?}");
    }

    #[test]
    fn nonleaf_mappings_cover_classes() {
        let attrs = [("Name", DataType::String), ("Address", DataType::String)];
        let f = fixture(&schema("A", &attrs), &schema("B", &attrs));
        let maps = nonleaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToN);
        // Customer -> Customer and root -> root.
        let paths: Vec<(&str, &str)> =
            maps.iter().map(|m| (&*m.source_path, &*m.target_path)).collect();
        assert!(paths.contains(&("A.Customer", "B.Customer")), "{paths:?}");
    }

    #[test]
    fn mapping_elements_report_components() {
        let attrs = [("Name", DataType::String)];
        let f = fixture(&schema("A", &attrs), &schema("B", &attrs));
        let maps = leaf_mappings(&f.t1, &f.t2, &f.res, &f.lsim, &f.cfg, Cardinality::OneToN);
        let m = &maps[0];
        assert!(m.wsim > 0.0 && m.lsim > 0.0 && m.ssim > 0.0);
        let shown = m.to_string();
        assert!(shown.contains("A.Customer.Name") && shown.contains("wsim"));
    }
}
