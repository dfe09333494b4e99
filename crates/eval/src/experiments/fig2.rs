//! Figure 2 / Section 4: the running example, exercising abbreviation
//! expansion (Qty, UoM), synonyms (Bill≈Invoice, Ship≈Deliver) and
//! context-dependent binding of the shared `Address` type.

use cupid_core::Cupid;
use cupid_corpus::{fig2, thesauri};

use crate::configs;
use crate::metrics::MatchQuality;
use crate::table::TextTable;
use crate::Report;

/// Run the Figure 2 experiment.
pub fn run() -> Report {
    let mut report = Report::new("Figure 2 — PO vs PurchaseOrder (running example)");
    let po = fig2::po();
    let purchase = fig2::purchase_order();
    let cupid = Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus());
    let out = cupid.match_schemas(&po, &purchase).expect("fig2 schemas expand");

    let gold = fig2::gold();
    let mut t = TextTable::new(
        "Leaf mappings (paper: City/Street bind to the synonym-matched \
         context; Line -> ItemNumber structural)",
        vec!["source", "target", "wsim", "in gold"],
    );
    for m in &out.leaf_mappings {
        t.row(vec![
            m.source_path.to_string(),
            m.target_path.to_string(),
            format!("{:.3}", m.wsim),
            if gold.contains(&m.source_path, &m.target_path) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    report.tables.push(t);

    let q = MatchQuality::score_mappings(&out.leaf_mappings, &gold);
    report.notes.push(format!("leaf quality: {}", q.summary()));

    // The §4 claim: POBillTo's City binds to InvoiceTo's, not DeliverTo's.
    let w_right = out.wsim_of_paths("PO.POBillTo.City", "PurchaseOrder.InvoiceTo.City");
    let w_wrong = out.wsim_of_paths("PO.POBillTo.City", "PurchaseOrder.DeliverTo.City");
    report.notes.push(format!(
        "context binding: wsim(POBillTo.City, InvoiceTo.City) = {w_right:.3} vs \
         wsim(POBillTo.City, DeliverTo.City) = {w_wrong:.3} -> {}",
        if w_right > w_wrong { "bound to the synonym context (matches paper)" } else { "WRONG" }
    ));

    let nl_gold = fig2::gold_nonleaf();
    let nl_q = MatchQuality::score_mappings(&out.nonleaf_mappings, &nl_gold);
    report.notes.push(format!("element-level quality: {}", nl_q.summary()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_context_binding_holds() {
        let r = run();
        assert!(r.notes.iter().any(|n| n.contains("matches paper")), "{}", r.render());
    }

    #[test]
    fn fig2_full_recall() {
        let po = fig2::po();
        let purchase = fig2::purchase_order();
        let cupid = Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus());
        let out = cupid.match_schemas(&po, &purchase).unwrap();
        let q = MatchQuality::score_mappings(&out.leaf_mappings, &fig2::gold());
        assert!(q.recall() >= 0.99, "recall {} — mappings: {:#?}", q.recall(), out.leaf_mappings);
    }
}
