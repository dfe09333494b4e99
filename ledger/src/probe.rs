//! Measurement apparatus of traced runs: calls the benchmark makes
//! beside the workload to split an opaque public call into layers.
//! Every span recorded here is a `probe.*` span, so its time is
//! excluded from the traced wall.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cupid_core::linguistic::pair_lsim;
use cupid_core::mapping::{leaf_mappings, nonleaf_mappings};
use cupid_core::treematch::tree_match;
use cupid_core::{Cardinality, CupidConfig, MatchSession, SchemaId};
use cupid_lexical::{SimStore, Thesaurus, TokenSimCache};
use cupid_repo::{Journal, JournalHeader, JournalRecord, Repository, JOURNAL_VERSION};

use crate::report::Tracer;

/// Single-thread replay of pair execution: each pair through the calls
/// `execute_pair` is made of (`pair_lsim`, `tree_match`,
/// `leaf_mappings`, `nonleaf_mappings`) over a side copy of the memo,
/// then through the program's own per-pair call
/// (`MatchSession::match_pair`). Both memos see the same token pairs
/// for the first time at the same pair, so cold similarity work lands
/// in `lsim` on both sides.
#[derive(Debug, Default, Clone)]
pub struct EngineSplit {
    pub lsim_ns: f64,
    pub treematch_ns: f64,
    pub mapping_ns: f64,
    pub program_ns: f64,
    pub pairs: usize,
    pub compared: usize,
    pub total: usize,
    pub tm_compared: usize,
    pub tm_pruned: usize,
    pub mappings: usize,
    /// Pairs whose component replay did not reproduce the program's
    /// mappings bit for bit.
    pub mismatches: usize,
}

impl EngineSplit {
    /// Shares of the program call held by lsim, TreeMatch, mapping
    /// generation and the rest of `execute_pair` (summary top-k
    /// extraction and orchestration).
    pub fn shares(&self) -> [f64; 4] {
        if self.program_ns <= 0.0 {
            return [0.0; 4];
        }
        let l = self.lsim_ns / self.program_ns;
        let t = self.treematch_ns / self.program_ns;
        let m = self.mapping_ns / self.program_ns;
        [l, t, m, (1.0 - l - t - m).max(0.0)]
    }

    pub fn replay(
        &mut self,
        session: &mut MatchSession<'_>,
        side: &mut SimStore,
        cfg: &CupidConfig,
        th: &Thesaurus,
        pairs: &[(SchemaId, SchemaId)],
        tracer: &mut Tracer,
        op: u64,
    ) {
        let start = Instant::now();
        self.replay_pairs(session, side, cfg, th, pairs, tracer, op);
        tracer.end("probe.replay", op, start);
    }

    fn replay_pairs(
        &mut self,
        session: &mut MatchSession<'_>,
        side: &mut SimStore,
        cfg: &CupidConfig,
        th: &Thesaurus,
        pairs: &[(SchemaId, SchemaId)],
        tracer: &mut Tracer,
        op: u64,
    ) {
        for &(a, b) in pairs {
            let (leaf, nonleaf) = {
                let (s1, s2) = (session.schema(a), session.schema(b));
                let store = std::mem::take(side);
                let mut cache = TokenSimCache::with_store(session.table(), th, &cfg.affix, store);
                let (pl, d) = tracer
                    .time("replay.lsim", op, || pair_lsim(&s1.ling, &s2.ling, cfg, &mut cache));
                self.lsim_ns += d.as_nanos() as f64;
                let (res, d) = tracer
                    .time("replay.treematch", op, || tree_match(&s1.tree, &s2.tree, &pl.lsim, cfg));
                self.treematch_ns += d.as_nanos() as f64;
                let ((leaf, nonleaf), d) = tracer.time("replay.mapping", op, || {
                    let l =
                        leaf_mappings(&s1.tree, &s2.tree, &res, &pl.lsim, cfg, Cardinality::OneToN);
                    let n = nonleaf_mappings(
                        &s1.tree,
                        &s2.tree,
                        &res,
                        &pl.lsim,
                        cfg,
                        Cardinality::OneToOne,
                    );
                    (l, n)
                });
                self.mapping_ns += d.as_nanos() as f64;
                *side = cache.into_store();
                self.compared += pl.compared_pairs;
                self.total += pl.total_pairs;
                self.tm_compared += res.stats.compared_pairs;
                self.tm_pruned += res.stats.pruned_pairs;
                self.mappings += leaf.len() + nonleaf.len();
                (leaf, nonleaf)
            };
            let (summary, d) = tracer.time("replay.program", op, || session.match_pair(a, b));
            self.program_ns += d.as_nanos() as f64;
            self.pairs += 1;
            if summary.leaf_mappings != leaf || summary.nonleaf_mappings != nonleaf {
                self.mismatches += 1;
            }
        }
    }
}

/// A scratch journal beside the workload's own, for timing one record
/// append at a time.
pub struct JournalProbe {
    journal: Journal,
    path: PathBuf,
}

impl JournalProbe {
    pub fn new(dir: &Path, cfg: &CupidConfig, th: &Thesaurus) -> std::io::Result<JournalProbe> {
        let path = dir.join("probe.journal");
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            config_fp: cfg.fingerprint(),
            thesaurus_fp: th.fingerprint(),
            snapshot_id: 0,
        };
        Ok(JournalProbe { journal: Journal::create(&path, header)?, path })
    }

    pub fn append(&mut self, record: &JournalRecord, tracer: &mut Tracer, op: u64) -> Duration {
        let start = Instant::now();
        let ok = self.journal.append(record).is_ok();
        let d = tracer.end("probe.journal_append", op, start);
        if ok {
            d
        } else {
            Duration::ZERO
        }
    }

    /// Bytes in the scratch journal so far.
    pub fn bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map_or(0, |m| m.len())
    }
}

/// Memo copy costs on a live repository: one clone of the warm memo
/// (an empty shared worklist is exactly that) and one merge of a
/// warmed clone back (an explanation's memo, absorbed). One probe span
/// covers the calls and every drop.
pub fn memo_costs(
    repo: &mut Repository<'_>,
    source: &str,
    target: &str,
    tracer: &mut Tracer,
    op: u64,
) -> (Duration, Duration) {
    let start = Instant::now();
    let batch = repo.execute_pairs_shared(&[]);
    let clone = start.elapsed();
    drop(batch);
    let mut merge = Duration::ZERO;
    if let Ok((explanation, store)) = repo.explain_shared(source, target) {
        drop(explanation);
        let s = Instant::now();
        repo.absorb_store(store);
        merge = s.elapsed();
    }
    tracer.end("probe.memo", op, start);
    (clone, merge)
}

/// Discovery-index costs: build the index over the repository and rank
/// its top-`k` pairs. Returns (build, rank, candidate pairs).
pub fn index_costs(
    repo: &Repository<'_>,
    k: usize,
    tracer: &mut Tracer,
    op: u64,
) -> (Duration, Duration, usize) {
    let start = Instant::now();
    let index = repo.discovery_index();
    let build = start.elapsed();
    let s = Instant::now();
    let candidates = index.top_k_pairs(k).len();
    let rank = s.elapsed();
    drop(index);
    tracer.end("probe.index", op, start);
    (build, rank, candidates)
}
