//! Figure 8 / §9.2: mapping the RDB operational schema to the Star
//! warehouse schema — the join-view experiment.
//!
//! Paper claims for Cupid: the join of Orders and OrderDetails matches
//! the Sales table (the paper itself accepts *"Orders or OrderDetails
//! (or a join of the two)"* as the good mapping); Products and Customers
//! columns match; Geography's columns come from Region/Territories and
//! their join; the three Star PostalCode columns all map to RDB
//! Customers.PostalCode; CustomerName is *not* matched to
//! ContactFirst/LastName without a Customer:Contact thesaurus entry.

use cupid_core::Cupid;
use cupid_corpus::{star_rdb, thesauri};

use crate::configs;
use crate::metrics::MatchQuality;
use crate::table::TextTable;
use crate::Report;

/// Run the Figure 8 experiment.
pub fn run() -> Report {
    let mut report = Report::new("Figure 8 — RDB -> Star warehouse (referential constraints)");
    let rdb = star_rdb::rdb();
    let star = star_rdb::star();
    let cupid = Cupid::with_config(configs::relational(), thesauri::empty_thesaurus());
    let out = cupid.match_schemas(&rdb, &star).expect("fig8 schemas expand");

    // Table-level: best source per Star table from the final wsim.
    let gold_tables = star_rdb::gold_tables();
    let mut t = TextTable::new(
        "Star table -> best RDB source (element-level 1:1)",
        vec!["Star table", "mapped RDB source", "paper-sanctioned"],
    );
    for table in ["Star.Geography", "Star.Customers", "Star.Time", "Star.Products", "Star.Sales"] {
        let found = out
            .nonleaf_mappings
            .iter()
            .find(|m| &*m.target_path == table)
            .map(|m| m.source_path.to_string())
            .unwrap_or_else(|| "(none)".to_string());
        let ok = gold_tables.contains(&found, table);
        t.row(vec![table.to_string(), found, if ok { "yes" } else { "-" }.to_string()]);
    }
    report.tables.push(t);

    // The three PostalCode columns.
    let mut t = TextTable::new(
        "The three Star PostalCode columns (paper: all map to RDB \
         Customers.PostalCode)",
        vec!["Star column", "mapped source"],
    );
    let mut postal_ok = 0;
    for target in
        ["Star.Geography.PostalCode", "Star.Customers.PostalCode", "Star.Sales.PostalCode"]
    {
        let found = out
            .leaf_mappings
            .iter()
            .find(|m| &*m.target_path == target)
            .map(|m| m.source_path.to_string())
            .unwrap_or_else(|| "(none)".to_string());
        if found == "RDB.Customers.PostalCode" {
            postal_ok += 1;
        }
        t.row(vec![target.to_string(), found]);
    }
    report.tables.push(t);
    report.notes.push(format!(
        "PostalCode fan-out: {postal_ok}/3 map to Customers.PostalCode (paper: 3/3)"
    ));

    // Column-level quality.
    let q = MatchQuality::score_mappings(&out.leaf_mappings, &star_rdb::gold_columns());
    report.notes.push(format!("column-level quality vs §9.2 gold: {}", q.summary()));

    // CustomerName: missed without the Customer:Contact entry, found with.
    let name_mapped_without = out.leaf_mappings.iter().any(|m| {
        &*m.target_path == "Star.Customers.CustomerName"
            && (m.source_path.contains("ContactFirstName")
                || m.source_path.contains("ContactLastName"))
    });
    let cupid2 =
        Cupid::with_config(configs::relational(), thesauri::star_rdb_customer_contact_thesaurus());
    let out2 = cupid2.match_schemas(&rdb, &star).expect("fig8 schemas expand");
    let name_mapped_with = out2.leaf_mappings.iter().any(|m| {
        &*m.target_path == "Star.Customers.CustomerName"
            && (m.source_path.contains("ContactFirstName")
                || m.source_path.contains("ContactLastName")
                || m.source_path.contains("CompanyName"))
    });
    report.notes.push(format!(
        "CustomerName <- Contact names without thesaurus entry: {} (paper: missed); \
         with (Customer:Contact) entry: {} (paper: would become possible)",
        if name_mapped_without { "mapped" } else { "missed" },
        if name_mapped_with { "mapped" } else { "missed" },
    ));

    // Join view involvement for Sales.
    let sales_src = out
        .nonleaf_mappings
        .iter()
        .find(|m| &*m.target_path == "Star.Sales")
        .map(|m| m.source_path.to_string())
        .unwrap_or_default();
    report.notes.push(format!(
        "Sales best source: `{sales_src}` (paper: the Orders⋈OrderDetails join; \
         the paper accepts Orders or OrderDetails too)"
    ));
    report.notes.push(
        "Geography: no table-level match is expected — the paper reports \
         Geography's *columns* mapping to Region/Territories and their join \
         (a single 3-way join view is deliberately not built, §8.3)."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> cupid_core::MatchOutcome {
        Cupid::with_config(configs::relational(), thesauri::empty_thesaurus())
            .match_schemas(&star_rdb::rdb(), &star_rdb::star())
            .unwrap()
    }

    #[test]
    fn products_and_customers_columns_match() {
        let out = outcome();
        for c in ["ProductID", "ProductName", "BrandID"] {
            assert!(
                out.has_leaf_mapping(&format!("RDB.Products.{c}"), &format!("Star.Products.{c}")),
                "Products.{c} missing"
            );
        }
        // Figure 8's RDB denormalizes BrandDescription into Products;
        // either that copy or Brands' canonical column is acceptable.
        assert!(
            out.has_leaf_mapping("RDB.Products.BrandDescription", "Star.Products.BrandDescription")
                || out.has_leaf_mapping(
                    "RDB.Brands.BrandDescription",
                    "Star.Products.BrandDescription"
                ),
            "BrandDescription missing"
        );
        assert!(out.has_leaf_mapping("RDB.Customers.CustomerID", "Star.Customers.CustomerID"));
        assert!(
            out.has_leaf_mapping("RDB.Customers.StateOrProvince", "Star.Customers.State"),
            "State <- StateOrProvince expected"
        );
    }

    #[test]
    fn postal_codes_fan_out_from_customers() {
        let out = outcome();
        let mut hits = 0;
        for t in ["Star.Geography.PostalCode", "Star.Customers.PostalCode", "Star.Sales.PostalCode"]
        {
            if out.has_leaf_mapping("RDB.Customers.PostalCode", t) {
                hits += 1;
            }
        }
        assert!(hits >= 2, "paper: all three PostalCodes from Customers.PostalCode ({hits}/3)");
    }

    #[test]
    fn sales_maps_to_orders_family() {
        let out = outcome();
        let src = out
            .nonleaf_mappings
            .iter()
            .find(|m| &*m.target_path == "Star.Sales")
            .map(|m| m.source_path.to_string());
        let src = src.expect("Sales should be mapped");
        assert!(
            src == "RDB.OrderDetails-Orders-fk" || src == "RDB.Orders" || src == "RDB.OrderDetails",
            "Sales mapped to {src}, expected the Orders/OrderDetails family"
        );
    }

    #[test]
    fn geography_from_territory_region_family() {
        let out = outcome();
        // TerritoryID / RegionID columns come from Territories/Region (or
        // the TerritoryRegion join columns).
        let gold = star_rdb::gold_columns();
        for target in ["Star.Geography.TerritoryID", "Star.Geography.RegionID"] {
            let m = out.leaf_mappings.iter().find(|m| &*m.target_path == target);
            if let Some(m) = m {
                assert!(
                    gold.contains(&m.source_path, target),
                    "{target} <- {} not sanctioned",
                    m.source_path
                );
            }
        }
    }

    #[test]
    fn customer_name_needs_thesaurus_entry() {
        let out = outcome();
        assert!(
            !out.leaf_mappings.iter().any(|m| &*m.target_path == "Star.Customers.CustomerName"
                && (m.source_path.contains("ContactFirstName")
                    || m.source_path.contains("ContactLastName"))),
            "paper: CustomerName not matched to contact names without thesaurus"
        );
    }
}
