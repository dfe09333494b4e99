//! End-to-end integration tests: the full pipeline over every corpus of
//! the paper, asserting the headline results of Section 9.

use cupid::core::lazy;
use cupid::core::mapping::{leaf_mappings, nonleaf_mappings};
use cupid::corpus::{canonical, cidx_excel, fig1, fig2, star_rdb, thesauri};
use cupid::eval::{configs, metrics::MatchQuality};
use cupid::prelude::*;

#[test]
fn figure1_all_gold_found() {
    let out = Cupid::with_config(configs::shallow_xml(), fig1::thesaurus())
        .match_schemas(&fig1::po(), &fig1::porder())
        .unwrap();
    for (s, t) in fig1::gold().pairs() {
        assert!(out.has_leaf_mapping(s, t), "missing {s} -> {t}");
    }
    for (s, t) in fig1::gold_nonleaf().pairs() {
        assert!(out.has_nonleaf_mapping(s, t), "missing element mapping {s} -> {t}");
    }
}

#[test]
fn figure2_context_dependent_binding() {
    let out = Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus())
        .match_schemas(&fig2::po(), &fig2::purchase_order())
        .unwrap();
    let q = MatchQuality::score_mappings(&out.leaf_mappings, &fig2::gold());
    assert!(q.recall() >= 0.99, "recall {}", q.recall());
    // the wrong context must not be selected
    assert!(!out.has_leaf_mapping("PO.POBillTo.City", "PurchaseOrder.DeliverTo.City"));
    assert!(out.has_leaf_mapping("PO.POBillTo.City", "PurchaseOrder.InvoiceTo.City"));
}

#[test]
fn canonical_cases_cupid_all_yes() {
    for case in canonical::all_cases() {
        let out = Cupid::with_config(configs::shallow_xml(), Thesaurus::with_default_stopwords())
            .match_schemas(&case.schema1, &case.schema2)
            .unwrap();
        for (s, t) in case.gold.pairs() {
            assert!(
                out.has_leaf_mapping(s, t),
                "case {} ({}): missing {s} -> {t}",
                case.id,
                case.description
            );
        }
    }
}

#[test]
fn cidx_excel_full_recall_with_paper_thesaurus() {
    let out = Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus())
        .match_schemas(&cidx_excel::cidx(), &cidx_excel::excel())
        .unwrap();
    let q = MatchQuality::score_mappings(&out.leaf_mappings, &cidx_excel::gold());
    assert!(q.recall() >= 0.99, "recall {}", q.recall());
    // Table 3 rows, element level
    for (label, src, targets) in cidx_excel::table3_rows() {
        assert!(
            targets.iter().any(|t| out.has_nonleaf_mapping(src, t)),
            "Table 3 row {label} missing"
        );
    }
}

#[test]
fn star_rdb_join_view_wins_sales() {
    let out = Cupid::with_config(configs::relational(), thesauri::empty_thesaurus())
        .match_schemas(&star_rdb::rdb(), &star_rdb::star())
        .unwrap();
    let sales = out
        .nonleaf_mappings
        .iter()
        .find(|m| &*m.target_path == "Star.Sales")
        .expect("Sales mapped");
    assert_eq!(
        &*sales.source_path, "RDB.OrderDetails-Orders-fk",
        "paper: the join of Orders and OrderDetails matches Sales"
    );
    // and the join strictly beats both plain tables
    let w_join = out.wsim_of_paths("RDB.OrderDetails-Orders-fk", "Star.Sales");
    let w_orders = out.wsim_of_paths("RDB.Orders", "Star.Sales");
    let w_details = out.wsim_of_paths("RDB.OrderDetails", "Star.Sales");
    assert!(w_join > w_orders && w_join > w_details, "{w_join} vs {w_orders}/{w_details}");
}

#[test]
fn lazy_expansion_is_a_pure_optimization() {
    // Same mappings with and without lazy expansion. Lazy block-copying
    // applies to the *source* schema's duplicated contexts (see
    // cupid_core::lazy), so the shared-type Excel schema goes first.
    let s1 = cidx_excel::excel();
    let s2 = cidx_excel::cidx();
    let cfg = configs::shallow_xml();
    let eager = Cupid::with_config(cfg.clone(), thesauri::paper_thesaurus())
        .match_schemas(&s1, &s2)
        .unwrap();
    // The same trees and lsim table through `tree_match_lazy`, then the
    // matcher's mapping policy: leaf 1:n, non-leaf 1:1.
    let (t1, t2, lsim) = (&eager.source_tree, &eager.target_tree, &eager.linguistic.lsim);
    let lazy = lazy::tree_match_lazy(t1, t2, lsim, &cfg);
    let lazy_leaf = leaf_mappings(t1, t2, &lazy, lsim, &cfg, Cardinality::OneToN);
    assert!(lazy.stats.lazy_copied_pairs > 0, "lazy should skip work");
    assert_eq!(eager.leaf_mappings.len(), lazy_leaf.len());
    for (a, b) in eager.leaf_mappings.iter().zip(&lazy_leaf) {
        assert_eq!(a.source_path, b.source_path);
        assert_eq!(a.target_path, b.target_path);
        assert_eq!(a.wsim, b.wsim, "wsim must be bit-identical");
    }
    let lazy_nonleaf = nonleaf_mappings(t1, t2, &lazy, lsim, &cfg, Cardinality::OneToOne);
    assert_eq!(eager.nonleaf_mappings, lazy_nonleaf);
}

#[test]
fn recursive_schemas_are_rejected() {
    let mut b = SchemaBuilder::new("S");
    let part = b.type_def("Part");
    let sub = b.structured(part, "SubPart", ElementKind::XmlElement);
    b.derive_from(sub, part);
    let e = b.structured(b.root(), "Root", ElementKind::XmlElement);
    b.derive_from(e, part);
    let s = b.build().unwrap();
    let err = Cupid::new(Thesaurus::with_default_stopwords()).match_schemas(&s, &s).unwrap_err();
    assert!(matches!(err, cupid::model::ModelError::CycleDetected { .. }));
}

#[test]
fn mapping_is_deterministic() {
    let s1 = cidx_excel::cidx();
    let s2 = cidx_excel::excel();
    let run = || {
        Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus())
            .match_schemas(&s1, &s2)
            .unwrap()
            .leaf_mappings
            .iter()
            .map(|m| (m.source_path.clone(), m.target_path.clone(), m.wsim))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
