//! Round-trip suite for the persistent schema repository (DESIGN.md §8).
//!
//! The repository's contract: a snapshot is a *pure optimization*.
//! Over randomized schema corpora, `save → load` must reproduce the
//! freshly-built session's output — `MatchSummary` mappings down to the
//! similarity bits, and `lsim` tables down to the float bits — while
//! executing zero pairs; incremental edits must re-execute exactly the
//! edited schema's pairs and still agree with a cold rebuild.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

use cupid::core::{Cupid, CupidConfig, MatchSession, MatchSummary};
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::model::Schema;
use cupid::prelude::{CupidRepositoryExt, Repository};
use proptest::prelude::*;

/// A unique, self-cleaning snapshot file per test case.
struct TempSnap(PathBuf);

impl TempSnap {
    fn new() -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cupid-repo-roundtrip-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempSnap(dir.join("cupid.repo"))
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A corpus of four synthetic schemas drawn from the shared word pool,
/// renamed so repository keys are distinct.
fn corpus(seed: u64, leaves: usize) -> Vec<Schema> {
    let a = generate(&SyntheticConfig::sized(leaves, seed));
    let b = generate(&SyntheticConfig::sized(leaves, seed.wrapping_add(577)));
    let mut out = vec![a.source, a.target, b.source, b.target];
    for (i, s) in out.iter_mut().enumerate() {
        // Schema names key the repository; synthetic pairs reuse names,
        // so re-root each under a distinct name via the wire round trip
        // (rebuilding with a builder would renumber nothing — the name
        // lives on the root element).
        *s = rename(s, &format!("Schema{i}_{}", s.name()));
    }
    out
}

/// Rename a schema (root element + schema name) without disturbing ids.
fn rename(schema: &Schema, name: &str) -> Schema {
    let mut w = cupid::model::WireWriter::new();
    schema.write_wire(&mut w);
    let bytes = w.into_bytes();
    let mut r = cupid::model::WireReader::new(&bytes);
    let mut back = Schema::read_wire(&mut r).unwrap();
    back.rename(name);
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// save → load reproduces the cold session bit for bit, serving
    /// every pair from the persisted cache.
    #[test]
    fn loaded_repository_is_bit_identical(seed in 0u64..10_000, leaves in 4usize..16) {
        let tmp = TempSnap::new();
        let schemas = corpus(seed, leaves);
        let thesaurus = generate(&SyntheticConfig::sized(leaves, seed)).thesaurus;
        let config = CupidConfig::default();

        let cold_summaries;
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
            for s in &schemas {
                repo.add(s).unwrap();
            }
            cold_summaries = repo.match_all_pairs();
            prop_assert_eq!(repo.pairs_executed(), 6);
            repo.save().unwrap();
        }

        let warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
        prop_assert!(warm.was_loaded());
        let warm_summaries = warm.match_all_pairs();
        prop_assert_eq!(warm.pairs_executed(), 0, "warm run must execute nothing");
        prop_assert_eq!(&warm_summaries, &cold_summaries);

        // The loaded session's lsim tables equal the single-pair
        // engine's, float bits included.
        let cupid = Cupid::with_config(config.clone(), thesaurus.clone());
        for i in 0..schemas.len() {
            for j in (i + 1)..schemas.len() {
                let got = warm
                    .lsim_of(schemas[i].name(), schemas[j].name())
                    .unwrap();
                let want =
                    cupid::core::linguistic::analyze(&schemas[i], &schemas[j], &thesaurus, &config);
                prop_assert_eq!(
                    got.matrix().max_abs_diff(want.lsim.matrix()),
                    0.0,
                    "lsim diverged for pair ({}, {})", i, j
                );
            }
        }

        // Summaries also agree with the independent single-pair API.
        for s in &warm_summaries {
            let outcome = cupid
                .match_schemas(&schemas[s.source.index()], &schemas[s.target.index()])
                .unwrap();
            prop_assert_eq!(&s.leaf_mappings, &outcome.leaf_mappings);
            prop_assert_eq!(&s.nonleaf_mappings, &outcome.nonleaf_mappings);
        }
    }

    /// Editing one schema of a loaded corpus re-executes exactly that
    /// schema's pairs, and the merged result equals a cold rebuild.
    #[test]
    fn incremental_rematch_executes_only_dirty_pairs(seed in 0u64..10_000, leaves in 4usize..14) {
        let tmp = TempSnap::new();
        let schemas = corpus(seed, leaves);
        let thesaurus = generate(&SyntheticConfig::sized(leaves, seed)).thesaurus;
        let config = CupidConfig::default();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
            for s in &schemas {
                repo.add(s).unwrap();
            }
            repo.match_all_pairs();
            repo.save().unwrap();
        }

        // Edit schema #2: swap in a differently-seeded variant.
        let edited = rename(
            &generate(&SyntheticConfig::sized(leaves, seed.wrapping_add(9001))).source,
            schemas[2].name(),
        );
        let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
        repo.replace(&edited).unwrap();
        let incremental = repo.match_all_pairs();
        prop_assert_eq!(
            repo.pairs_executed(),
            3,
            "exactly the edited schema's pairs re-execute"
        );
        prop_assert_eq!(repo.stats().session.pairs_matched, 3);

        let tmp2 = TempSnap::new();
        let mut cold = Repository::open_or_create(&tmp2.0, &config, &thesaurus).unwrap();
        let mut fresh = schemas.clone();
        fresh[2] = edited;
        for s in &fresh {
            cold.add(s).unwrap();
        }
        prop_assert_eq!(cold.match_all_pairs(), incremental);
    }

    /// The facade path: `cupid.repository(...)` + SDL export/import
    /// round-trips a schema between repositories.
    #[test]
    fn sdl_export_import_between_repositories(seed in 0u64..5_000) {
        let tmp = TempSnap::new();
        let tmp2 = TempSnap::new();
        let schemas = corpus(seed, 6);
        let thesaurus = generate(&SyntheticConfig::sized(6, seed)).thesaurus;
        let cupid = Cupid::with_config(CupidConfig::default(), thesaurus);
        let mut repo = cupid.repository(&tmp.0).unwrap();
        for s in &schemas {
            repo.add(s).unwrap();
        }
        let name = schemas[0].name();
        let text = repo.export_sdl(name).unwrap();
        let mut other = cupid.repository(&tmp2.0).unwrap();
        let imported = other.import_sdl(&text).unwrap();
        prop_assert_eq!(imported.as_str(), name);
        prop_assert_eq!(
            other.schema(name).unwrap().content_hash(),
            repo.schema(name).unwrap().content_hash(),
            "SDL round trip must preserve the schema exactly"
        );
    }
}

/// A replace evicts the summaries it strands at once, so the cache holds
/// only live pairs right after the mutation, after the re-match, and
/// after a save and a reload: `save` has nothing left to prune.
#[test]
fn mutations_evict_unreachable_cache_entries() {
    let tmp = TempSnap::new();
    let schemas = corpus(7, 6);
    let thesaurus = generate(&SyntheticConfig::sized(6, 7)).thesaurus;
    let config = CupidConfig::default();
    let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    for s in &schemas {
        repo.add(s).unwrap();
    }
    repo.match_all_pairs();
    assert_eq!(repo.stats().cached_pairs, 6);
    repo.save().unwrap();

    let edited = rename(&generate(&SyntheticConfig::sized(6, 9100)).source, schemas[0].name());
    repo.replace(&edited).unwrap();
    assert_eq!(repo.stats().cached_pairs, 3, "the replace evicts the edited schema's 3 pairs");
    repo.match_all_pairs();
    assert_eq!(repo.stats().cached_pairs, 6, "the re-match caches live pairs only");
    repo.save().unwrap();
    assert_eq!(repo.stats().cached_pairs, 6, "save writes the cache as it stands");
    // and a reload agrees (the handle must drop first: a snapshot has
    // exactly one writer at a time)
    drop(repo);
    let warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    assert_eq!(warm.stats().cached_pairs, 6);
}

/// A seeded stream of replaces and remove-then-adds, each with fresh
/// content and followed by a refresh. Every mutation evicts the N−1 pairs
/// it strands, so the cache never holds more than the live corpus's
/// N(N−1)/2, and every refresh equals a fresh session over the current
/// schemas. The stream saves halfway and ends unsaved: reopening replays
/// the second half from the journal, which must evict the same way.
#[test]
fn churn_keeps_the_cache_within_the_live_corpus() {
    let tmp = TempSnap::new();
    let thesaurus = generate(&SyntheticConfig::sized(6, 51)).thesaurus;
    let config = CupidConfig::default();
    let fresh = |schemas: &[Schema]| {
        let mut session = MatchSession::new(&config, &thesaurus);
        session.add_corpus(schemas).unwrap();
        bits(&session.match_all_pairs())
    };
    // In repository order: a re-added schema moves to the end.
    let mut live: Vec<Schema> = corpus(51, 6)
        .into_iter()
        .chain(corpus(52, 6))
        .enumerate()
        .map(|(i, s)| rename(&s, &format!("C{i}")))
        .collect();
    let n = live.len();
    let full = n * (n - 1) / 2;
    let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    repo.add_corpus(&live).unwrap();
    repo.match_all_pairs();
    let (steps, mut rng, mut saved, mut unsaved) = (12, 0x5eed_u64, Vec::new(), 0);
    for step in 0..steps {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let k = (rng >> 33) as usize % n;
        let name = live[k].name().to_string();
        let edited = rename(&generate(&SyntheticConfig::sized(6, 1_000 + step)).source, &name);
        if step % 2 == 0 {
            repo.replace(&edited).unwrap();
            live[k] = edited;
            unsaved += 1;
        } else {
            repo.remove(&name).unwrap();
            repo.add(&edited).unwrap();
            live.remove(k);
            live.push(edited);
            unsaved += 2;
        }
        assert_eq!(
            repo.stats().cached_pairs,
            full - (n - 1),
            "step {step}: {name}'s pairs evicted"
        );
        assert!(bits(&repo.match_all_pairs()) == fresh(&live), "step {step}: refresh diverged");
        assert_eq!(repo.stats().cached_pairs, full, "step {step}: the refresh caches live pairs");
        if step == steps / 2 {
            repo.save().unwrap();
            saved = live.iter().map(Schema::content_hash).collect();
            unsaved = 0;
        }
    }
    repo.sync_journal().unwrap();
    drop(repo);
    // The snapshot's pairs between schemas no later mutation touched.
    let kept = live.iter().filter(|s| saved.contains(&s.content_hash())).count();
    assert!(kept < n, "the stream mutates after its save");
    let warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    assert_eq!(warm.durability().replayed_records, unsaved);
    assert_eq!(warm.stats().cached_pairs, kept * (kept - 1) / 2, "replay evicts like the handle");
    assert!(bits(&warm.match_all_pairs()) == fresh(&live), "the reopened repository diverged");
    assert_eq!(warm.stats().cached_pairs, full);
    assert_eq!(warm.pairs_executed(), full - kept * (kept - 1) / 2);
}

/// Name ids are derived state: decoding a snapshot interns every
/// prepared element's name again. The reopened table holds the same name
/// keys and the same memo slots, and pairs executed against it equal the
/// ones executed before the save.
#[test]
fn reopened_repository_interns_every_decoded_name() {
    let tmp = TempSnap::new();
    let schemas = corpus(31, 12);
    let thesaurus = generate(&SyntheticConfig::sized(12, 31)).thesaurus;
    let config = CupidConfig::default();
    let (want, saved) = {
        let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
        repo.add_corpus(&schemas).unwrap();
        // Saved before matching, so the reopened repository must execute
        // every pair.
        repo.save().unwrap();
        let saved = repo.stats().session;
        (repo.match_all_pairs(), saved)
    };
    let warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    let loaded = warm.stats().session;
    // `vocab_bytes` counts the name keys, so equal bytes after reopening
    // mean every decoded name was interned again.
    assert!(saved.vocab_bytes > 0, "names were interned");
    assert_eq!((loaded.vocab_bytes, loaded.sim_bytes), (saved.vocab_bytes, saved.sim_bytes));
    let got = warm.match_all_pairs();
    assert_eq!(warm.pairs_executed(), 6);
    assert_eq!(got, want, "the first match after reopening equals the one before");
}

/// The snapshot container's bytes, pinned. A fixed seeded corpus, saved
/// after `match_all_pairs` at 1 and at 2 threads, hashes (FNV-1a) to one
/// recorded digest, so a change in how summaries hold their data in
/// memory cannot change what is persisted; and a reopened repository
/// saves the same bytes again.
#[test]
fn snapshot_bytes_match_the_recorded_digest() {
    const SNAPSHOT_FNV: u64 = 0xcdf0_e9a0_aad1_19ae;
    let schemas = corpus(4242, 10);
    let thesaurus = generate(&SyntheticConfig::sized(10, 4242)).thesaurus;
    let config = CupidConfig::default();
    for threads in [1, 2] {
        let tmp = TempSnap::new();
        let mut repo =
            Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap().threads(threads);
        repo.add_corpus(&schemas).unwrap();
        assert_eq!(repo.match_all_pairs().len(), 6);
        repo.save().unwrap();
        drop(repo);
        let bytes = std::fs::read(&tmp.0).unwrap();
        let digest = cupid::model::fnv1a(&bytes);
        assert_eq!(digest, SNAPSHOT_FNV, "{threads} threads: snapshot digest {digest:#018x}");
        let mut warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
        assert!(warm.was_loaded());
        warm.save().unwrap();
        assert!(
            std::fs::read(&tmp.0).unwrap() == bytes,
            "{threads} threads: re-save changed bytes"
        );
    }
}

/// Every context path a summary holds, in field order.
fn paths(s: &MatchSummary) -> Vec<Arc<str>> {
    let maps = s.leaf_mappings.iter().chain(&s.nonleaf_mappings);
    let tops = s.top_pairs.iter().map(|e| [&e.source_path, &e.target_path]);
    maps.map(|m| [&m.source_path, &m.target_path]).chain(tops).flatten().cloned().collect()
}

/// Served summaries share the cache's path allocations: two reads of one
/// cached pair through `resolve` and `answer`, and two all-pairs runs,
/// hand out the same `Arc`s — for a freshly matched repository and for
/// one decoded from its snapshot.
#[test]
fn served_summaries_share_the_cached_paths() {
    let tmp = TempSnap::new();
    let thesaurus = generate(&SyntheticConfig::sized(8, 31)).thesaurus;
    let config = CupidConfig::default();
    let shared = |a: &[MatchSummary], b: &[MatchSummary]| {
        let (a, b): (Vec<_>, Vec<_>) =
            (a.iter().flat_map(paths).collect(), b.iter().flat_map(paths).collect());
        assert!(!a.is_empty() && a.len() == b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)), "a served path was copied");
    };
    let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    repo.add_corpus(&corpus(31, 8)).unwrap();
    for reopen in [false, true] {
        if reopen {
            repo.save().unwrap();
            drop(repo);
            repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
            assert!(repo.was_loaded());
        }
        shared(&repo.match_all_pairs(), &repo.match_all_pairs());
        let read = || repo.answer(repo.resolve(&[(0, 1)]), &[(0, 1)]);
        shared(&read(), &read());
    }
}

/// Summaries as wire bytes, so equality is bit equality.
fn bits(summaries: &[MatchSummary]) -> Vec<u8> {
    let mut w = cupid::model::WireWriter::new();
    for s in summaries {
        s.write_wire(&mut w);
    }
    w.into_bytes()
}

/// Three readers share one `&Repository`, started together: two run all
/// pairs and one runs top-k, and each gets, bit for bit, what a fresh
/// repository over the same corpus returns sequentially. Every pair is
/// then cached once, and a save persists the cache: a reopened handle
/// serves all pairs without executing.
#[test]
fn concurrent_reads_share_one_repository() {
    let tmp = TempSnap::new();
    let thesaurus = generate(&SyntheticConfig::sized(8, 41)).thesaurus;
    let config = CupidConfig::default();
    let schemas: Vec<Schema> = corpus(41, 8)
        .into_iter()
        .chain(corpus(42, 8))
        .enumerate()
        .map(|(i, s)| rename(&s, &format!("C{i}")))
        .collect();
    let (want_all, want_top) = {
        let fresh = TempSnap::new();
        let mut repo = Repository::open_or_create(&fresh.0, &config, &thesaurus).unwrap();
        repo.add_corpus(&schemas).unwrap();
        (bits(&repo.match_all_pairs()), bits(&repo.top_k_pairs(2)))
    };
    let mut repo = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    repo.add_corpus(&schemas).unwrap();
    repo.save().unwrap();
    let barrier = Barrier::new(3);
    let (all, top) = std::thread::scope(|scope| {
        let (repo, barrier) = (&repo, &barrier);
        let all: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    barrier.wait();
                    repo.match_all_pairs()
                })
            })
            .collect();
        let top = scope.spawn(move || {
            barrier.wait();
            repo.top_k_pairs(2)
        });
        let all: Vec<_> = all.into_iter().map(|h| h.join().unwrap()).collect();
        (all, top.join().unwrap())
    });
    for got in &all {
        assert!(bits(got) == want_all, "a concurrent all-pairs run diverged");
    }
    assert!(bits(&top) == want_top, "the concurrent top-k diverged");
    let pairs = schemas.len() * (schemas.len() - 1) / 2;
    assert_eq!(repo.stats().cached_pairs, pairs);
    assert!(repo.is_dirty(), "caching pairs dirties the handle");
    let executed = repo.pairs_executed();
    assert!((pairs..=3 * pairs).contains(&executed), "{executed} executions of {pairs} pairs");
    repo.save().unwrap();
    drop(repo);
    let warm = Repository::open_or_create(&tmp.0, &config, &thesaurus).unwrap();
    assert!(bits(&warm.match_all_pairs()) == want_all);
    assert_eq!(warm.pairs_executed(), 0, "the saved cache serves every pair");
}
