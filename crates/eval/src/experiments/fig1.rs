//! Figure 1 / Section 2: the introductory PO ↔ POrder mapping, including
//! `Lines.Item.Line → Items.Item.ItemNumber`.

use cupid_core::Cupid;
use cupid_corpus::fig1;

use crate::configs;
use crate::metrics::MatchQuality;
use crate::table::TextTable;
use crate::Report;

/// Run the Figure 1 experiment.
pub fn run() -> Report {
    let mut report = Report::new("Figure 1 — PO vs POrder (introductory example)");
    let po = fig1::po();
    let porder = fig1::porder();
    let cupid = Cupid::with_config(configs::shallow_xml(), fig1::thesaurus());
    let out = cupid.match_schemas(&po, &porder).expect("fig1 schemas expand");

    let gold = fig1::gold();
    let mut t = TextTable::new(
        "Leaf mappings (paper: all three correspondences, Line -> ItemNumber \
         found structurally)",
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
    let mut t = TextTable::new("Quality vs gold", vec!["metric", "value"]);
    t.row(vec!["precision".to_string(), format!("{:.3}", q.precision())]);
    t.row(vec!["recall".to_string(), format!("{:.3}", q.recall())]);
    t.row(vec!["f1".to_string(), format!("{:.3}", q.f1())]);
    report.tables.push(t);

    let nl = fig1::gold_nonleaf();
    let mut t = TextTable::new("Element-level mappings", vec!["source", "target", "in gold"]);
    for m in &out.nonleaf_mappings {
        t.row(vec![
            m.source_path.to_string(),
            m.target_path.to_string(),
            if nl.contains(&m.source_path, &m.target_path) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    report.tables.push(t);

    report.notes.push(format!(
        "Line -> ItemNumber (no thesaurus support, pure structure+datatype): {}",
        if out.has_leaf_mapping("PO.Lines.Item.Line", "POrder.Items.Item.ItemNumber") {
            "FOUND (matches paper)"
        } else {
            "MISSING (paper found it)"
        }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_mapping() {
        let r = run();
        assert!(r.notes.iter().any(|n| n.contains("FOUND")), "{}", r.render());
    }
}
