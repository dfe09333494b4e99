//! Lazy schema-tree expansion (§8.4).
//!
//! Type substitution duplicates shared subtrees — one copy per context —
//! and the duplicated copies are compared again and again: *"We can avoid
//! these duplicate comparisons by a lazy schema tree expansion … After
//! comparing an element that is the target t of multiple IsDerivedFrom
//! and containment relationships, multiple copies of the subtree rooted
//! at t are made, including the structural similarities computed so far.
//! … Hence the computed similarity values will remain the same as in the
//! case when the schema is expanded a priori."*
//!
//! Our implementation realizes this as **block copying over the eagerly
//! expanded tree**: maximal duplicated subtrees of the *source* schema are
//! detected by structural signature; the first copy (the representative)
//! is matched normally; when the outer post-order loop completes the
//! representative's root, its leaf-similarity rows are snapshotted; when
//! the loop reaches a later copy, the snapshot is restored into the copy's
//! rows and the whole subtree's comparisons are skipped. The restored
//! values are *bit-identical* to what eager evaluation would compute,
//! because the skipped comparisons would have performed exactly the same
//! floating-point operations on exactly the same inputs (the tests in
//! this module and `tests/lazy_equivalence.rs` assert exact equality).
//!
//! **A reproduction note.** The paper asserts the equivalence for both
//! schemas. It holds unconditionally for the *outer* (source) schema of
//! the TreeMatch double loop: updates to a subtree's leaves come only
//! from comparisons of the subtree's own nodes and of its ancestors, and
//! post-order guarantees all ancestors are visited after every later
//! copy. For the *inner* (target) schema the same argument breaks:
//! ancestors of a representative can be compared *between* the
//! representative and its copy within one inner pass, so the copies'
//! columns diverge across outer iterations. We therefore apply lazy
//! copying to the source side only and fall back to eager evaluation for
//! target-side duplicates (and for DAGs created by join-view
//! reification, where subtree regions are not well defined).

use std::collections::HashMap;

use cupid_model::{NodeId, SchemaTree};

use crate::config::CupidConfig;
use crate::linguistic::LsimTable;
use crate::treematch::{TreeMatchResult, Workspace};

/// Duplicate-subtree plan for one tree.
#[derive(Debug, Default)]
pub(crate) struct DupPlan {
    /// copy root → representative root (first occurrence in post-order).
    pub copy_to_rep: HashMap<NodeId, NodeId>,
    /// Representative roots that have at least one copy (need a
    /// snapshot).
    pub rep_roots: Vec<NodeId>,
    /// Nodes strictly inside a copy's subtree (skipped by the driver).
    pub in_copy: Vec<bool>,
}

impl DupPlan {
    /// Analyze a tree. Returns an empty plan for DAGs (nodes with several
    /// parents), where region-based copying is unsound.
    pub fn build(tree: &SchemaTree) -> DupPlan {
        let n = tree.len();
        let mut plan = DupPlan { in_copy: vec![false; n], ..Default::default() };
        if tree.iter().any(|(_, node)| node.parents.len() > 1) {
            return plan;
        }
        // Structural signatures: (element, child signatures), interned.
        let mut interner: HashMap<(usize, Vec<u32>), u32> = HashMap::new();
        let mut sig = vec![0u32; n];
        for &id in tree.post_order() {
            let node = tree.node(id);
            let key: (usize, Vec<u32>) =
                (node.element.index(), node.children.iter().map(|c| sig[c.index()]).collect());
            let next = interner.len() as u32;
            sig[id.index()] = *interner.entry(key).or_insert(next);
        }
        let mut count: HashMap<u32, u32> = HashMap::new();
        for &id in tree.post_order() {
            *count.entry(sig[id.index()]).or_insert(0) += 1;
        }
        // First occurrence (in post-order) per duplicated signature.
        let mut first: HashMap<u32, NodeId> = HashMap::new();
        for &id in tree.post_order() {
            first.entry(sig[id.index()]).or_insert(id);
        }
        // Maximal duplicated roots: duplicated signature, parent (if any)
        // not duplicated.
        let mut reps: Vec<NodeId> = Vec::new();
        for &id in tree.post_order() {
            let s = sig[id.index()];
            if count[&s] < 2 {
                continue;
            }
            let maximal = match tree.node(id).parents.first() {
                None => true,
                Some(p) => count[&sig[p.index()]] < 2,
            };
            if !maximal {
                continue;
            }
            let rep = first[&s];
            if id == rep {
                reps.push(id);
            } else {
                plan.copy_to_rep.insert(id, rep);
                // Mark strict descendants for skipping.
                let mut stack: Vec<NodeId> = tree.node(id).children.clone();
                while let Some(d) = stack.pop() {
                    plan.in_copy[d.index()] = true;
                    stack.extend_from_slice(&tree.node(d).children);
                }
            }
        }
        // Only keep representatives actually referenced by a copy (a
        // maximal duplicated rep may exist while all other occurrences
        // are nested inside larger copies and therefore never restored).
        let referenced: std::collections::HashSet<NodeId> =
            plan.copy_to_rep.values().copied().collect();
        plan.rep_roots = reps.into_iter().filter(|r| referenced.contains(r)).collect();
        plan
    }

    /// True when the plan has any copy to exploit.
    pub fn has_duplicates(&self) -> bool {
        !self.copy_to_rep.is_empty()
    }
}

/// TreeMatch with lazy (block-copy) evaluation of duplicated source
/// subtrees. Produces results identical to [`crate::treematch::tree_match`].
pub fn tree_match_lazy(
    t1: &SchemaTree,
    t2: &SchemaTree,
    lsim: &LsimTable,
    cfg: &CupidConfig,
) -> TreeMatchResult {
    let plan = DupPlan::build(t1);
    let mut ws = Workspace::new(t1, t2, lsim, cfg);
    if !plan.has_duplicates() {
        ws.run_main_pass();
        return ws.into_result();
    }

    let order1 = t1.post_order();
    let order2 = t2.post_order();
    // rep root → per-subtree-leaf full rows of leaf_ssim, in the leaf
    // order of `SchemaTree::leaves` (left-to-right; identical for
    // isomorphic copies of a pure tree).
    let mut snapshots: HashMap<NodeId, Vec<Vec<f64>>> = HashMap::new();

    for &s in order1 {
        if plan.in_copy[s.index()] {
            continue;
        }
        if let Some(rep) = plan.copy_to_rep.get(&s) {
            // Restore: the copy's leaves take the representative's rows as
            // of the representative's completion — exactly the values the
            // skipped comparisons would have produced.
            let snap = &snapshots[rep];
            let copy_leaves = t1.leaves(s);
            debug_assert_eq!(snap.len(), copy_leaves.len());
            for (row, &x2) in snap.iter().zip(copy_leaves) {
                for (y, &v) in row.iter().enumerate() {
                    ws.leaf_ssim.set(x2 as usize, y, v);
                    ws.refresh_strong(x2 as usize, y);
                }
            }
            // Account for skipped node-pair computations.
            let subtree_size = count_subtree(t1, s);
            ws.stats.lazy_copied_pairs += subtree_size * order2.len();
            continue;
        }
        ws.process_source(s);
        if plan.rep_roots.contains(&s) {
            let rows: Vec<Vec<f64>> =
                t1.leaves(s).iter().map(|&x| ws.leaf_ssim.row(x as usize).to_vec()).collect();
            snapshots.insert(s, rows);
        }
    }
    ws.into_result()
}

fn count_subtree(tree: &SchemaTree, root: NodeId) -> usize {
    let mut n = 1;
    let mut stack: Vec<NodeId> = tree.node(root).children.clone();
    while let Some(d) = stack.pop() {
        n += 1;
        stack.extend_from_slice(&tree.node(d).children);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linguistic::analyze;
    use crate::treematch::tree_match;
    use cupid_lexical::{Thesaurus, ThesaurusBuilder};
    use cupid_model::{expand, DataType, ElementKind, ExpandOptions, Schema, SchemaBuilder};

    /// PurchaseOrder with Address as a shared type under DeliverTo and
    /// InvoiceTo (the §8.2 example).
    fn shared_address(name: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::XmlElement, DataType::String);
        b.atomic(addr, "City", ElementKind::XmlElement, DataType::String);
        b.atomic(addr, "Zip", ElementKind::XmlElement, DataType::String);
        for ctx in ["DeliverTo", "InvoiceTo", "RemitTo"] {
            let e = b.structured(b.root(), ctx, ElementKind::XmlElement);
            b.derive_from(e, addr);
        }
        let items = b.structured(b.root(), "Items", ElementKind::XmlElement);
        b.atomic(items, "Quantity", ElementKind::XmlElement, DataType::Int);
        b.build().unwrap()
    }

    fn flat_target() -> Schema {
        let mut b = SchemaBuilder::new("Order");
        for ctx in ["ShipTo", "BillTo"] {
            let e = b.structured(b.root(), ctx, ElementKind::XmlElement);
            b.atomic(e, "Street", ElementKind::XmlElement, DataType::String);
            b.atomic(e, "City", ElementKind::XmlElement, DataType::String);
            b.atomic(e, "Zip", ElementKind::XmlElement, DataType::String);
        }
        let items = b.structured(b.root(), "Items", ElementKind::XmlElement);
        b.atomic(items, "Qty", ElementKind::XmlElement, DataType::Int);
        b.build().unwrap()
    }

    fn thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("Qty", &["quantity"])
            .synonym("Invoice", "Bill", 1.0)
            .synonym("Ship", "Deliver", 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn plan_detects_shared_type_copies() {
        let s = shared_address("PO");
        let t = expand(&s, &ExpandOptions::none()).unwrap();
        let plan = DupPlan::build(&t);
        // DeliverTo/InvoiceTo/RemitTo contexts: Street/City/Zip triples
        // are duplicated. The *contexts* differ (different parent
        // elements), so the maximal duplicated units are the individual
        // leaves... unless whole context subtrees share elements. Here
        // the leaves are copies of the same elements: each context's
        // {Street, City, Zip} has identical signatures, and their parents
        // (DeliverTo etc.) differ, so each leaf is a maximal duplicate.
        assert!(plan.has_duplicates());
        assert!(!plan.rep_roots.is_empty());
    }

    #[test]
    fn plan_empty_for_dags() {
        let mut b = SchemaBuilder::new("DB");
        let t1 = b.table("A");
        let c1 = b.column(t1, "X", DataType::Int);
        let pk = b.primary_key(t1, &[c1]);
        let t2 = b.table("B");
        let c2 = b.column(t2, "XRef", DataType::Int);
        b.foreign_key(t2, "B-A-fk", &[c2], pk);
        let s = b.build().unwrap();
        let tree = expand(&s, &ExpandOptions::all()).unwrap();
        let plan = DupPlan::build(&tree);
        assert!(!plan.has_duplicates(), "DAGs must disable lazy copying");
    }

    #[test]
    fn lazy_equals_eager_exactly() {
        let s1 = shared_address("PO");
        let s2 = flat_target();
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let t1 = expand(&s1, &ExpandOptions::none()).unwrap();
        let t2 = expand(&s2, &ExpandOptions::none()).unwrap();
        let la = analyze(&s1, &s2, &th, &cfg);
        let eager = tree_match(&t1, &t2, &la.lsim, &cfg);
        let lazy = tree_match_lazy(&t1, &t2, &la.lsim, &cfg);
        assert_eq!(
            eager.leaf_ssim.max_abs_diff(&lazy.leaf_ssim),
            0.0,
            "leaf ssim must be bit-identical"
        );
        assert_eq!(eager.wsim.max_abs_diff(&lazy.wsim), 0.0, "final wsim must be bit-identical");
        assert!(lazy.stats.lazy_copied_pairs > 0, "lazy must actually skip work");
    }

    #[test]
    fn lazy_equals_eager_with_nested_shared_types() {
        // Contact shares Address; PurchaseOrder shares Contact twice →
        // nested duplication.
        let mut b = SchemaBuilder::new("S1");
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::XmlElement, DataType::String);
        b.atomic(addr, "City", ElementKind::XmlElement, DataType::String);
        let contact = b.type_def("Contact");
        b.atomic(contact, "Phone", ElementKind::XmlElement, DataType::String);
        let chome = b.structured(contact, "Home", ElementKind::XmlElement);
        b.derive_from(chome, addr);
        for ctx in ["Buyer", "Seller", "Broker"] {
            let e = b.structured(b.root(), ctx, ElementKind::XmlElement);
            b.derive_from(e, contact);
        }
        let s1 = b.build().unwrap();

        let mut b = SchemaBuilder::new("S2");
        for ctx in ["Purchaser", "Vendor"] {
            let e = b.structured(b.root(), ctx, ElementKind::XmlElement);
            b.atomic(e, "Phone", ElementKind::XmlElement, DataType::String);
            let h = b.structured(e, "Home", ElementKind::XmlElement);
            b.atomic(h, "Street", ElementKind::XmlElement, DataType::String);
            b.atomic(h, "City", ElementKind::XmlElement, DataType::String);
        }
        let s2 = b.build().unwrap();

        let cfg = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let t1 = expand(&s1, &ExpandOptions::none()).unwrap();
        let t2 = expand(&s2, &ExpandOptions::none()).unwrap();
        let la = analyze(&s1, &s2, &th, &cfg);
        let eager = tree_match(&t1, &t2, &la.lsim, &cfg);
        let lazy = tree_match_lazy(&t1, &t2, &la.lsim, &cfg);
        assert_eq!(eager.leaf_ssim.max_abs_diff(&lazy.leaf_ssim), 0.0);
        assert_eq!(eager.ssim.max_abs_diff(&lazy.ssim), 0.0);
        assert_eq!(eager.wsim.max_abs_diff(&lazy.wsim), 0.0);
        assert!(lazy.stats.lazy_copied_pairs > 0);
    }

    #[test]
    fn lazy_without_duplicates_is_plain_eager() {
        let s1 = flat_target();
        let s2 = flat_target();
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let t1 = expand(&s1, &ExpandOptions::none()).unwrap();
        let t2 = expand(&s2, &ExpandOptions::none()).unwrap();
        let la = analyze(&s1, &s2, &th, &cfg);
        let eager = tree_match(&t1, &t2, &la.lsim, &cfg);
        let lazy = tree_match_lazy(&t1, &t2, &la.lsim, &cfg);
        assert_eq!(eager.wsim.max_abs_diff(&lazy.wsim), 0.0);
        assert_eq!(lazy.stats.lazy_copied_pairs, 0);
    }
}
