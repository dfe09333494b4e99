//! Scalability analysis (§10 future work: *"Scalability analysis and
//! testing are necessary to study the performance on large-sized
//! schemas"*).
//!
//! Runs the full pipeline over synthetic schema pairs of doubling size
//! and reports wall time, node-pair counts, pruning effectiveness and
//! mapping quality. The times are one wall-clock run per size, a
//! series to read the growth from rather than a gated measurement;
//! the performance ledger (`ledger/`) is the repository's benchmark.

use std::time::Instant;

use cupid_core::Cupid;
use cupid_corpus::synthetic::{generate, SyntheticConfig};

use crate::configs;
use crate::metrics::MatchQuality;
use crate::table::TextTable;
use crate::Report;

/// Sizes (approximate leaf counts) used for the sweep.
pub const SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Run the scalability sweep.
pub fn run() -> Report {
    let mut report = Report::new("Scalability — synthetic schema pairs (seeded)");
    let mut t = TextTable::new(
        "Full pipeline (linguistic + TreeMatch + mapping) per pair size",
        vec!["~leaves", "nodes LxR", "time (ms)", "compared pairs", "pruned pairs", "leaf F1"],
    );
    for (i, &size) in SIZES.iter().enumerate() {
        let pair = generate(&SyntheticConfig::sized(size, 1000 + i as u64));
        let cupid = Cupid::with_config(configs::synthetic(), pair.thesaurus.clone());
        let start = Instant::now();
        let out = cupid.match_schemas(&pair.source, &pair.target).expect("synthetic expands");
        let elapsed = start.elapsed();
        let q = MatchQuality::score_mappings(&out.leaf_mappings, &pair.gold);
        t.row(vec![
            size.to_string(),
            format!("{}x{}", out.source_tree.len(), out.target_tree.len()),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            out.structural.stats.compared_pairs.to_string(),
            out.structural.stats.pruned_pairs.to_string(),
            format!("{:.3}", q.f1()),
        ]);
    }
    report.tables.push(t);
    report.notes.push(
        "TreeMatch is quadratic in node pairs with a leaf-product inner term; \
         the leaf-count pruning keeps the compared-pair count subquadratic on \
         heterogeneous trees."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_stays_reasonable_with_size() {
        // quality should not collapse as schemas grow
        for (i, &size) in SIZES.iter().take(3).enumerate() {
            let pair = generate(&SyntheticConfig::sized(size, 1000 + i as u64));
            let cupid = Cupid::with_config(configs::synthetic(), pair.thesaurus.clone());
            let out = cupid.match_schemas(&pair.source, &pair.target).unwrap();
            let q = MatchQuality::score_mappings(&out.leaf_mappings, &pair.gold);
            assert!(q.recall() > 0.5, "size {size}: recall collapsed to {:.2}", q.recall());
        }
    }
}
