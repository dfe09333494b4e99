//! Match-quality metrics against a gold standard.
//!
//! Precision/recall/F-measure are the standard schema-matching quality
//! measures (used throughout the follow-on literature the paper seeded);
//! *overall* is Melnik et al.'s post-match effort measure
//! `recall · (2 − 1/precision)`, included because later comparative
//! studies report it for Cupid.

use cupid_core::MappingElement;
use cupid_corpus::GoldMapping;

/// Quality of a computed mapping against a gold standard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality {
    /// Correspondences produced by the matcher.
    pub found: usize,
    /// Correct correspondences among them.
    pub correct: usize,
    /// Gold correspondences that were *not* produced (counted over
    /// distinct gold targets, since the naïve generator is
    /// target-oriented).
    pub missed_targets: usize,
    /// Distinct gold target paths.
    pub gold_targets: usize,
    /// Incorrect correspondences (false positives).
    pub false_positives: usize,
}

impl MatchQuality {
    /// Score found `(source, target)` path pairs against a gold mapping.
    ///
    /// A found pair is *correct* if the gold set contains it. Recall is
    /// target-oriented: a gold target counts as hit when any acceptable
    /// source was found for it.
    pub fn score<'a, I>(found: I, gold: &GoldMapping) -> MatchQuality
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut n_found = 0usize;
        let mut correct = 0usize;
        let mut fp = 0usize;
        let mut hit_targets: std::collections::BTreeSet<&str> = Default::default();
        let mut gold_target_set: std::collections::BTreeSet<&str> = Default::default();
        for (_, t) in gold.pairs() {
            gold_target_set.insert(t);
        }
        let mut gold_targets_hit: std::collections::BTreeSet<String> = Default::default();
        for (s, t) in found {
            n_found += 1;
            if gold.contains(s, t) {
                correct += 1;
                gold_targets_hit.insert(t.to_string());
            } else {
                fp += 1;
            }
            hit_targets.insert("");
        }
        let gold_targets = gold_target_set.len();
        let missed = gold_targets - gold_targets_hit.len();
        MatchQuality {
            found: n_found,
            correct,
            missed_targets: missed,
            gold_targets,
            false_positives: fp,
        }
    }

    /// Score Cupid mapping elements directly.
    pub fn score_mappings(mappings: &[MappingElement], gold: &GoldMapping) -> MatchQuality {
        Self::score(mappings.iter().map(|m| (&*m.source_path, &*m.target_path)), gold)
    }

    /// Precision = correct / found (1.0 when nothing was found and
    /// nothing should be).
    pub fn precision(&self) -> f64 {
        if self.found == 0 {
            if self.gold_targets == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.correct as f64 / self.found as f64
        }
    }

    /// Target-oriented recall.
    pub fn recall(&self) -> f64 {
        if self.gold_targets == 0 {
            1.0
        } else {
            (self.gold_targets - self.missed_targets) as f64 / self.gold_targets as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Melnik's overall measure `r·(2 − 1/p)`; negative when precision
    /// drops below 0.5 (cleanup costs more than it saves).
    pub fn overall(&self) -> f64 {
        let p = self.precision();
        if p == 0.0 {
            return if self.gold_targets == 0 { 1.0 } else { -1.0 };
        }
        self.recall() * (2.0 - 1.0 / p)
    }

    /// `p/r/f1` formatted for tables.
    pub fn summary(&self) -> String {
        format!("P {:.2} R {:.2} F1 {:.2}", self.precision(), self.recall(), self.f1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold() -> GoldMapping {
        GoldMapping::new([("a", "x"), ("b", "y"), ("c", "z")])
    }

    #[test]
    fn perfect_match() {
        let q = MatchQuality::score([("a", "x"), ("b", "y"), ("c", "z")], &gold());
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.f1(), 1.0);
        assert_eq!(q.overall(), 1.0);
    }

    #[test]
    fn partial_match_with_false_positive() {
        let q = MatchQuality::score([("a", "x"), ("b", "WRONG")], &gold());
        assert_eq!(q.correct, 1);
        assert_eq!(q.false_positives, 1);
        assert!((q.precision() - 0.5).abs() < 1e-12);
        assert!((q.recall() - 1.0 / 3.0).abs() < 1e-12);
        assert!(q.overall() <= 0.0 + 1e-12);
    }

    #[test]
    fn multiple_acceptable_sources_count_once() {
        let g = GoldMapping::new([("a", "x"), ("b", "x")]);
        let q = MatchQuality::score([("a", "x")], &g);
        assert_eq!(q.recall(), 1.0); // target x was hit
        assert_eq!(q.precision(), 1.0);
    }

    #[test]
    fn empty_cases() {
        let g = GoldMapping::default();
        let q = MatchQuality::score(std::iter::empty::<(&str, &str)>(), &g);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        let q = MatchQuality::score(std::iter::empty::<(&str, &str)>(), &gold());
        assert_eq!(q.recall(), 0.0);
        assert_eq!(q.precision(), 0.0);
    }
}
