//! Data-warehouse loading — the paper's second motivating scenario (§1):
//! map an operational relational schema onto a star warehouse schema
//! (Figure 8), exercising referential-constraint reification as join
//! views (§8.3).
//!
//! The schemas are written in SQL and imported through the DDL parser to
//! show the full pipeline from text to mapping.
//!
//! ```sh
//! cargo run -p cupid --example data_warehouse
//! ```

use cupid::corpus::{star_rdb, thesauri};
use cupid::io::parse_ddl;
use cupid::prelude::*;

const STAR_SQL: &str = "\
CREATE TABLE Geography (
    PostalCode VARCHAR(10) PRIMARY KEY,
    TerritoryID INTEGER NOT NULL,
    TerritoryDescription VARCHAR(50) NOT NULL,
    RegionID INTEGER NOT NULL,
    RegionDescription VARCHAR(50) NOT NULL
);
CREATE TABLE Customers (
    CustomerID INTEGER PRIMARY KEY,
    CustomerName VARCHAR(40) NOT NULL,
    CustomerTypeID INTEGER NOT NULL,
    CustomerTypeDescription VARCHAR(50) NOT NULL,
    PostalCode VARCHAR(10) NOT NULL,
    State VARCHAR(20) NOT NULL
);
CREATE TABLE Products (
    ProductID INTEGER PRIMARY KEY,
    ProductName VARCHAR(40) NOT NULL,
    BrandID INTEGER NOT NULL,
    BrandDescription VARCHAR(50) NOT NULL
);
CREATE TABLE Sales (
    OrderID INTEGER PRIMARY KEY,
    OrderDetailID INTEGER NOT NULL,
    CustomerID INTEGER NOT NULL,
    PostalCode VARCHAR(10) NOT NULL,
    ProductID INTEGER NOT NULL,
    OrderDate DATE NOT NULL,
    Quantity NUMERIC(10,2) NOT NULL,
    UnitPrice MONEY NOT NULL,
    Discount NUMERIC(4,2) NOT NULL,
    FOREIGN KEY (CustomerID) REFERENCES Customers (CustomerID),
    FOREIGN KEY (PostalCode) REFERENCES Geography (PostalCode),
    FOREIGN KEY (ProductID) REFERENCES Products (ProductID)
);
";

fn main() {
    // The operational schema comes from the built-in corpus (Figure 8's
    // 13 tables with 12 foreign keys); the warehouse side is parsed from
    // SQL to demonstrate the DDL importer.
    let rdb = star_rdb::rdb();
    let star = parse_ddl("Star", STAR_SQL).expect("DDL parses");

    // Relational configuration: join views make subtree sizes lopsided,
    // so the leaf-count pruning factor is raised (see
    // cupid_eval::configs::relational for the full rationale).
    let mut config = CupidConfig::default();
    config.c_inc = 1.35;
    config.leaf_ratio_prune = Some(4.0);
    config.expand = ExpandOptions::all(); // reify join views

    // §9.2: "There were no relevant synonym and hypernym entries in the
    // thesaurus."
    let outcome = Cupid::with_config(config, thesauri::empty_thesaurus())
        .match_schemas(&rdb, &star)
        .expect("schemas expand");

    println!("Table-level mappings (join views compete as first-class nodes):");
    for m in &outcome.nonleaf_mappings {
        println!("  {m}");
    }

    println!("\nColumn mappings into the Sales fact table:");
    for m in outcome.leaf_mappings.iter().filter(|m| m.target_path.starts_with("Star.Sales.")) {
        println!("  {m}");
    }

    println!("\nThe three Star PostalCode columns:");
    for m in outcome.leaf_mappings.iter().filter(|m| m.target_path.ends_with("PostalCode")) {
        println!("  {m}");
    }

    let sales_source = outcome
        .nonleaf_mappings
        .iter()
        .find(|m| &*m.target_path == "Star.Sales")
        .map(|m| &*m.source_path)
        .unwrap_or("(none)");
    println!(
        "\nSales is sourced from `{sales_source}` — the paper: \"Cupid matches \
         the join of Orders and OrderDetails to the Sales table.\""
    );
}
