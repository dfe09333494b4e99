//! Table 3 and the §9.2 leaf-level narrative: the CIDX ↔ Excel purchase
//! orders, compared across Cupid, DIKE and MOMIS-ARTEMIS.

use cupid_baselines::{artemis::Side, Artemis, Dike};
use cupid_core::Cupid;
use cupid_corpus::{cidx_excel, thesauri};

use crate::adapters;
use crate::configs;
use crate::metrics::MatchQuality;
use crate::table::TextTable;
use crate::Report;

/// Table 3's paper verdicts per row, per system, for the summary note.
const PAPER: [(&str, &str, &str); 7] = [
    ("POHeader -> Header", "Yes", "Yes"),
    ("Item -> Item", "Yes", "cluster w/ Items"),
    ("POLines -> Items", "Yes", "own cluster"),
    ("POBillTo -> InvoiceTo", "No", "cluster w/ Address"),
    ("POShipTo -> DeliverTo", "No", "cluster w/ Address"),
    ("Contact -> Contact", "Yes", "Yes"),
    ("PO -> PurchaseOrder", "Yes", "clustered, elems unmapped"),
];

/// Run the Table 3 experiment (element-level comparison).
pub fn run() -> Report {
    let mut report =
        Report::new("Table 3 — CIDX -> Excel element mappings (Cupid vs DIKE vs MOMIS)");
    let s1 = cidx_excel::cidx();
    let s2 = cidx_excel::excel();
    let thesaurus = thesauri::paper_thesaurus();
    let cfg = configs::shallow_xml();

    // Cupid
    let cupid = Cupid::with_config(cfg.clone(), thesaurus.clone());
    let out = cupid.match_schemas(&s1, &s2).expect("fig7 schemas expand");

    // DIKE: LSPD from Cupid's linguistic coefficients, per the paper.
    let lspd = adapters::lspd_from_cupid(&s1, &s2, &thesaurus, &cfg);
    let dike = Dike::new().run(&s1, &s2, &lspd);

    // MOMIS: the user's best-possible WordNet senses.
    let senses = adapters::momis_senses_cidx_excel();
    let artemis = Artemis::new().run(&s1, &s2, &senses);

    let mut t = TextTable::new(
        "Element mappings (paper verdicts: Cupid all Yes except the two \
         address contexts for DIKE; see notes)",
        vec!["mapping", "Cupid", "DIKE", "MOMIS-ARTEMIS"],
    );
    for (label, src, targets) in cidx_excel::table3_rows() {
        let cupid_found = targets.iter().any(|t| out.has_nonleaf_mapping(src, t));
        // DIKE reports merges over graph paths; the shared Contact type
        // appears as the ContactType entity.
        let dike_found = targets.iter().any(|t| dike.has_entity(src, t))
            || (label.starts_with("Contact")
                && dike.has_entity("PO.Contact", "PurchaseOrder.ContactType"));
        let artemis_cell = {
            let together = targets.iter().any(|t| artemis.clustered_together(src, t))
                || (label.starts_with("Contact")
                    && artemis.clustered_together("PO.Contact", "PurchaseOrder.ContactType"));
            if !together {
                "own cluster".to_string()
            } else {
                let size = artemis.cluster_of(Side::Left, src).map(|c| c.len()).unwrap_or(0);
                if size == 2 {
                    "Yes".to_string()
                } else {
                    format!("cluster of {size}")
                }
            }
        };
        t.row(vec![
            label.to_string(),
            if cupid_found { "Yes" } else { "No" }.to_string(),
            if dike_found { "Yes" } else { "No" }.to_string(),
            artemis_cell,
        ]);
    }
    report.tables.push(t);

    let mut t =
        TextTable::new("Paper's Table 3 (for comparison)", vec!["mapping", "DIKE", "MOMIS"]);
    for (label, d, m) in PAPER {
        t.row(vec![label.to_string(), d.to_string(), m.to_string()]);
    }
    report.tables.push(t);

    report.notes.push(
        "Cupid column expected all Yes; DIKE expected No for the two address \
         contexts (POBillTo/POShipTo); MOMIS expected the Item/Items and \
         address-family clusters."
            .to_string(),
    );
    report
}

/// The §9.2 leaf-level narrative: *"Cupid identifies all the correct
/// XML-attribute matching pairs … Cupid is the only one to identify
/// CIDX.line to correspond to Excel.itemNumber … In addition, there are
/// two false positives (e.g. CIDX.contactName is mapped to both
/// Excel.contactName and Excel.companyName)"*.
pub fn run_leaves() -> Report {
    let mut report = Report::new("§9.2 — CIDX -> Excel leaf (XML-attribute) mappings");
    let s1 = cidx_excel::cidx();
    let s2 = cidx_excel::excel();
    let cupid = Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus());
    let out = cupid.match_schemas(&s1, &s2).expect("fig7 schemas expand");
    let gold = cidx_excel::gold();
    let q = MatchQuality::score_mappings(&out.leaf_mappings, &gold);

    let mut t = TextTable::new(
        "Quality of the naive 1:n leaf generator",
        vec!["metric", "measured", "paper"],
    );
    t.row(vec![
        "correct pairs found".to_string(),
        format!("{}/{} targets", q.gold_targets - q.missed_targets, q.gold_targets),
        "all correct pairs".to_string(),
    ]);
    t.row(vec![
        "false positives".to_string(),
        q.false_positives.to_string(),
        "2 (naive generator)".to_string(),
    ]);
    t.row(vec!["precision".to_string(), format!("{:.2}", q.precision()), "-".to_string()]);
    t.row(vec!["recall".to_string(), format!("{:.2}", q.recall()), "1.00".to_string()]);
    report.tables.push(t);

    let mut t = TextTable::new("False positives (not in gold)", vec!["source", "target", "wsim"]);
    for m in &out.leaf_mappings {
        if !gold.contains(&m.source_path, &m.target_path) {
            t.row(vec![
                m.source_path.to_string(),
                m.target_path.to_string(),
                format!("{:.3}", m.wsim),
            ]);
        }
    }
    report.tables.push(t);

    let line_found =
        out.has_leaf_mapping("PO.POLines.Item.line", "PurchaseOrder.Items.Item.itemNumber");
    report.notes.push(format!(
        "line -> itemNumber (structural, no thesaurus support): {}",
        if line_found { "FOUND (matches paper)" } else { "MISSING" }
    ));
    let fp_company = out.leaf_mappings.iter().any(|m| {
        &*m.source_path == "PO.Contact.ContactName" && m.target_path.ends_with("companyName")
    });
    report.notes.push(format!(
        "contactName also mapped to companyName (the paper's false-positive example): {}",
        if fp_company { "reproduced" } else { "not reproduced" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> cupid_core::MatchOutcome {
        let s1 = cidx_excel::cidx();
        let s2 = cidx_excel::excel();
        Cupid::with_config(configs::shallow_xml(), thesauri::paper_thesaurus())
            .match_schemas(&s1, &s2)
            .unwrap()
    }

    #[test]
    fn cupid_finds_all_table3_rows() {
        let out = outcome();
        for (label, src, targets) in cidx_excel::table3_rows() {
            assert!(
                targets.iter().any(|t| out.has_nonleaf_mapping(src, t)),
                "Cupid misses Table 3 row {label}; nonleaf mappings: {:#?}",
                out.nonleaf_mappings
            );
        }
    }

    #[test]
    fn cupid_leaf_recall_is_full() {
        let out = outcome();
        let q = MatchQuality::score_mappings(&out.leaf_mappings, &cidx_excel::gold());
        assert!(q.recall() >= 0.99, "recall {}: {:#?}", q.recall(), out.leaf_mappings);
    }

    #[test]
    fn line_to_item_number_found_structurally() {
        let out = outcome();
        assert!(out.has_leaf_mapping("PO.POLines.Item.line", "PurchaseOrder.Items.Item.itemNumber"));
    }

    #[test]
    fn dike_fails_on_address_contexts() {
        let s1 = cidx_excel::cidx();
        let s2 = cidx_excel::excel();
        let thesaurus = thesauri::paper_thesaurus();
        let cfg = configs::shallow_xml();
        let lspd = adapters::lspd_from_cupid(&s1, &s2, &thesaurus, &cfg);
        let r = Dike::new().run(&s1, &s2, &lspd);
        assert!(!r.has_entity("PO.POBillTo", "PurchaseOrder.InvoiceTo"));
        assert!(!r.has_entity("PO.POShipTo", "PurchaseOrder.DeliverTo"));
        assert!(r.has_entity("PO.POHeader", "PurchaseOrder.Header"), "{r:#?}");
        assert!(r.has_entity("PO", "PurchaseOrder"));
    }

    #[test]
    fn artemis_builds_the_address_family_cluster() {
        let s1 = cidx_excel::cidx();
        let s2 = cidx_excel::excel();
        let r = Artemis::new().run(&s1, &s2, &adapters::momis_senses_cidx_excel());
        assert!(r.clustered_together("PO.POBillTo", "PurchaseOrder.InvoiceTo"));
        assert!(r.clustered_together("PO.POShipTo", "PurchaseOrder.DeliverTo"));
        // ... but the cluster is the whole address family, not a pair.
        let c = r.cluster_of(Side::Left, "PO.POBillTo").unwrap();
        assert!(c.len() > 2, "address family expected: {c:?}");
        // POLines stays alone (paper: "POLines is in its own cluster").
        assert!(!r.clustered_together("PO.POLines", "PurchaseOrder.Items"));
        // POHeader -> Header is a clean pair.
        assert!(r.clustered_together("PO.POHeader", "PurchaseOrder.Header"));
    }
}
