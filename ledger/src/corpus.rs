//! Seeded synthetic corpora: generated schema pairs over the shared word
//! pool, renamed to unique repository keys (the construction the
//! workspace's `repo` and `serve` benches use).

use cupid_corpus::synthetic::{generate, SyntheticConfig};
use cupid_lexical::Thesaurus;
use cupid_model::Schema;

/// `2 * pairs` schemas of about `leaves` leaves, generated from seeds
/// `base..base + pairs`, named `S<i>a` and `S<i>b`, plus the thesaurus
/// of the first generated pair.
pub fn synthetic(pairs: usize, leaves: usize, base: u64) -> (Vec<Schema>, Thesaurus) {
    let mut schemas = Vec::with_capacity(2 * pairs);
    let mut thesaurus = None;
    for i in 0..pairs as u64 {
        let pair = generate(&SyntheticConfig::sized(leaves, base.wrapping_add(i)));
        thesaurus.get_or_insert(pair.thesaurus);
        for (half, mut s) in [("a", pair.source), ("b", pair.target)] {
            s.rename(format!("S{i}{half}"));
            schemas.push(s);
        }
    }
    (schemas, thesaurus.unwrap_or_else(Thesaurus::with_default_stopwords))
}

/// A fresh schema body of about `leaves` leaves stored under `name`.
pub fn variant(name: &str, leaves: usize, seed: u64) -> Schema {
    let mut s = generate(&SyntheticConfig::sized(leaves, seed)).source;
    s.rename(name);
    s
}

/// The generator seed base a run's `--seed` maps to.
pub fn base_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(17)
}
