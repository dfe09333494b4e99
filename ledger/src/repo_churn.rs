//! `repo_churn`: a warm 64-schema repository under a seeded stream of
//! mutations (mostly `replace` with a fresh variant, some `remove` then
//! `add`). Each mutation is followed by `match_all_pairs`,
//! `top_k_pairs(3)` and `sync_journal`; compaction is on at 16 records.

use std::time::{Duration, Instant};

use cupid_core::{CupidConfig, MatchSession, SchemaId};
use cupid_eval::configs;
use cupid_lexical::{SimStore, Thesaurus};
use cupid_model::Schema;
use cupid_repo::{JournalRecord, RepoError, Repository};

use crate::probe::{index_costs, memo_costs, EngineSplit, JournalProbe};
use crate::report::{Metric, Outcome, Tiling, Tracer};
use crate::util::{digest_summaries, mean, median, quantile, us, Reference, Rng};
use crate::{corpus, Ctx};

const PAIRS: usize = 32;
const LEAVES: usize = 32;
const COMPACT_AFTER: u64 = 16;
const TOP_K: usize = 3;
/// Share of mutations that are `replace`; the rest are remove-then-add.
const REPLACE_SHARE: f64 = 0.8;

/// One mutation of the stream.
enum Mutation {
    Replace(Schema),
    RemoveAdd(Schema),
}

impl Mutation {
    fn next(rng: &mut Rng, names: &[String]) -> Mutation {
        let name = &names[rng.below(names.len())];
        let replace = rng.unit() < REPLACE_SHARE;
        let schema = corpus::variant(name, LEAVES, rng.next_u64());
        if replace {
            Mutation::Replace(schema)
        } else {
            Mutation::RemoveAdd(schema)
        }
    }

    fn apply(&self, repo: &mut Repository<'_>) -> Result<(), RepoError> {
        match self {
            Mutation::Replace(s) => repo.replace(s),
            Mutation::RemoveAdd(s) => {
                repo.remove(s.name())?;
                repo.add(s)
            }
        }
    }

    /// Apply the mutation to a session mirroring the repository's index
    /// order (remove shifts, add appends); returns the touched index.
    fn mirror(&self, replica: &mut MatchSession<'_>) -> Result<usize, RepoError> {
        let position = |name: &str| {
            (0..replica.len()).find(|&i| replica.schema(SchemaId::from_index(i)).name == name)
        };
        match self {
            Mutation::Replace(s) => {
                let i = position(s.name()).unwrap_or(0);
                replica.replace(SchemaId::from_index(i), s)?;
                Ok(i)
            }
            Mutation::RemoveAdd(s) => {
                let i = position(s.name()).unwrap_or(0);
                replica.remove(SchemaId::from_index(i));
                Ok(replica.add(s)?.index())
            }
        }
    }

    fn records(&self) -> Vec<JournalRecord> {
        match self {
            Mutation::Replace(s) => vec![JournalRecord::Replace(s.clone())],
            Mutation::RemoveAdd(s) => {
                vec![JournalRecord::Remove(s.name().to_string()), JournalRecord::Add(s.clone())]
            }
        }
    }
}

/// The refresh after a mutation: fresh results, then durable ones.
/// Returns the time until each.
fn refresh(repo: &mut Repository<'_>, m: &Mutation) -> Result<(Duration, Duration), RepoError> {
    let start = Instant::now();
    m.apply(repo)?;
    std::hint::black_box(repo.match_all_pairs());
    std::hint::black_box(repo.top_k_pairs(TOP_K));
    let fresh = start.elapsed();
    repo.sync_journal()?;
    Ok((fresh, start.elapsed()))
}

/// Refresh times (µs): until the results are fresh, and until they are
/// also durable (the journal fsync on top).
#[derive(Default)]
struct Walls {
    fresh: Vec<f64>,
    durable: Vec<f64>,
}

/// Sums of a traced phase.
#[derive(Default)]
struct Acc {
    refreshes: usize,
    prepare: f64,
    append: f64,
    records: usize,
    compaction: Vec<f64>,
    serve: f64,
    engine: f64,
    lsim: f64,
    treematch: f64,
    mapping: f64,
    residual: f64,
    index_build: Vec<f64>,
    index_rank: Vec<f64>,
    candidates: usize,
    lookups: usize,
    sync: Vec<f64>,
    split: EngineSplit,
}

/// The traced form of one refresh: the same calls under spans, then
/// probes that split them into layers.
fn traced_refresh(
    repo: &mut Repository<'_>,
    m: &Mutation,
    t: &mut Traced<'_, '_>,
) -> Result<(Duration, Duration), RepoError> {
    let Traced { replica, side, journal, cfg, th, tracer, acc } = t;
    let (cfg, th) = (*cfg, *th);
    let op = tracer.op();
    let compactions = repo.durability().compactions;
    let executed = repo.pairs_executed();
    let start = Instant::now();
    m.apply(repo)?;
    let t_mut = tracer.end("mutate", op, start).as_nanos() as f64;
    let s = Instant::now();
    std::hint::black_box(repo.match_all_pairs());
    let t_mat = tracer.end("match_all_pairs", op, s).as_nanos() as f64;
    let s = Instant::now();
    let top = repo.top_k_pairs(TOP_K).len();
    let t_top = tracer.end("top_k_pairs", op, s).as_nanos() as f64;
    let fresh = start.elapsed();
    let s = Instant::now();
    repo.sync_journal()?;
    let t_sync = tracer.end("sync_journal", op, s).as_nanos() as f64;
    let wall = start.elapsed();

    // Probes. Re-prepare on the replica.
    let s = Instant::now();
    let touched = m.mirror(replica)?;
    let t_prep = tracer.end("probe.prepare", op, s).as_nanos() as f64;
    let records = m.records();
    let t_app: f64 = records
        .iter()
        .map(|r| journal.append(r, tracer, op).as_nanos() as f64)
        .sum::<f64>()
        .min(t_mut);
    let ((), serve) = tracer.time("probe.cache_serve", op, || drop(repo.match_all_pairs()));
    let (build, rank, candidates) = index_costs(repo, TOP_K, tracer, op);
    let pairs: Vec<(SchemaId, SchemaId)> = (0..replica.len())
        .filter(|&j| j != touched)
        .map(|j| (SchemaId::from_index(j.min(touched)), SchemaId::from_index(j.max(touched))))
        .collect();
    let mut split = EngineSplit::default();
    split.replay(replica, side, cfg, th, &pairs, tracer, op);

    let compacted = repo.durability().compactions > compactions;
    let compaction = if compacted { (t_mut - t_app - t_prep).max(0.0) } else { 0.0 };
    let serve = (serve.as_nanos() as f64).min(t_mat);
    let (build, rank) = (us(build) * 1e3, us(rank) * 1e3);
    let engine = t_mat - serve;
    let [sl, st, sm, sr] = split.shares();
    acc.refreshes += 1;
    acc.append += t_app;
    acc.records += records.len();
    if compacted {
        acc.compaction.push(compaction);
    }
    acc.prepare += t_mut - t_app - compaction;
    acc.serve += serve + (t_top - build - rank).max(0.0);
    acc.engine += engine;
    acc.lsim += engine * sl;
    acc.treematch += engine * st;
    acc.mapping += engine * sm;
    acc.residual += engine * sr;
    acc.index_build.push(build.min(t_top) / 1e3);
    acc.index_rank.push(rank.min((t_top - build).max(0.0)) / 1e3);
    acc.candidates += candidates;
    acc.lookups += repo.len() * (repo.len() - 1) / 2 + top;
    acc.sync.push(t_sync / 1e3);
    let executed = repo.pairs_executed() - executed;
    acc.split.pairs += executed;
    acc.split.compared += split.compared;
    acc.split.total += split.total;
    acc.split.tm_compared += split.tm_compared;
    acc.split.tm_pruned += split.tm_pruned;
    acc.split.mappings += split.mappings;
    acc.split.mismatches += split.mismatches;
    Ok((fresh, wall))
}

/// The probes' state in a traced phase.
struct Traced<'r, 'a> {
    replica: &'r mut MatchSession<'a>,
    side: &'r mut SimStore,
    journal: &'r mut JournalProbe,
    cfg: &'r CupidConfig,
    th: &'r Thesaurus,
    tracer: &'r mut Tracer,
    acc: &'r mut Acc,
}

/// The seeded mutation stream of a run.
struct Stream {
    rng: Rng,
    reference: Reference,
    /// Refreshes that executed a number of pairs other than the
    /// mutated schema's.
    wrong_executions: usize,
}

impl Stream {
    /// Closed loop of refreshes for `seconds`; returns the phase wall.
    fn phase(
        &mut self,
        repo: &mut Repository<'_>,
        seconds: f64,
        walls: &mut Walls,
        out: &mut Outcome,
        mut traced: Option<&mut Traced<'_, '_>>,
        mut mirror: Option<&mut MatchSession<'_>>,
    ) -> Duration {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let n = repo.len();
        while walls.durable.is_empty() || Instant::now() < deadline {
            self.reference.tick();
            let s = Instant::now();
            let m = Mutation::next(&mut self.rng, repo.names());
            if let Some(t) = traced.as_mut() {
                t.tracer.end("probe.input", 0, s);
            }
            let executed = repo.pairs_executed();
            out.attempted += 1;
            let result = match traced.as_mut() {
                Some(t) => traced_refresh(repo, &m, t),
                None => refresh(repo, &m),
            };
            match result {
                Ok((fresh, durable)) => {
                    walls.fresh.push(us(fresh));
                    walls.durable.push(us(durable));
                    self.wrong_executions += usize::from(repo.pairs_executed() - executed != n - 1);
                    if let Some(replica) = mirror.as_mut() {
                        if m.mirror(replica).is_err() {
                            out.check("mirror", false, "replica diverged");
                        }
                    }
                }
                Err(e) => {
                    eprintln!("ledger: refresh failed: {e}");
                    out.failed += 1;
                    if walls.durable.is_empty() {
                        break;
                    }
                }
            }
        }
        start.elapsed()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = configs::synthetic();
    let (schemas, th) = corpus::synthetic(PAIRS, LEAVES, corpus::base_seed(ctx.seed));
    let dir = ctx.work.join("churn");
    let n = schemas.len();

    // Fixture: the warm snapshot (every pair cached), not timed.
    let fixture = (|| -> Result<(), RepoError> {
        let mut repo = Repository::open_or_create(&dir, &cfg, &th)?;
        repo.add_corpus(&schemas)?;
        repo.match_all_pairs();
        repo.save()
    })();
    if let Err(e) = fixture {
        out.check("fixture", false, e.to_string());
        return out;
    }

    // Set-up: reopening the snapshot (decode, journal open).
    let mut setups = Vec::new();
    let mut repo = None;
    for _ in 0..crate::SETUPS {
        drop(repo.take());
        let t = Instant::now();
        match Repository::open_or_create(&dir, &cfg, &th) {
            Ok(r) => repo = Some(r),
            Err(e) => {
                out.check("setup", false, e.to_string());
                return out;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut repo = repo.expect("opened");
    repo.set_compact_after(Some(COMPACT_AFTER));

    let mut stream =
        Stream { rng: Rng::stream(ctx.seed, 4), reference: ctx.reference(), wrong_executions: 0 };
    let mut walls = Walls::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut acc = Acc::default();
    let mut untraced_walls = Walls::default();
    let mut traced_wall = 0.0;
    let mut journal_bytes = 0;
    if ctx.trace {
        let mut replica = MatchSession::new(&cfg, &th);
        let names = repo.names().to_vec();
        let current: Vec<Schema> = names.iter().filter_map(|nm| repo.schema(nm).cloned()).collect();
        let ready = replica.add_corpus(&current).is_ok();
        replica.match_all_pairs();
        replica.set_threads(1);
        let mut side = replica.store().clone();
        match JournalProbe::new(&ctx.work, &cfg, &th) {
            Ok(mut journal) if ready => {
                let empty = journal.bytes();
                for (traced, seconds) in ctx.plan() {
                    if !traced {
                        let mirror = Some(&mut replica);
                        stream.phase(
                            &mut repo,
                            seconds,
                            &mut untraced_walls,
                            &mut out,
                            None,
                            mirror,
                        );
                        continue;
                    }
                    let probes_before = tracer.probe;
                    let mut traced = Traced {
                        replica: &mut replica,
                        side: &mut side,
                        journal: &mut journal,
                        cfg: &cfg,
                        th: &th,
                        tracer: &mut tracer,
                        acc: &mut acc,
                    };
                    let wall = stream.phase(
                        &mut repo,
                        seconds,
                        &mut walls,
                        &mut out,
                        Some(&mut traced),
                        None,
                    );
                    traced_wall += (wall - (tracer.probe - probes_before)).as_nanos() as f64;
                }
                journal_bytes = journal.bytes() - empty;
            }
            _ => out.check("trace_setup", false, "replica or probe journal failed"),
        }
    } else {
        stream.phase(&mut repo, ctx.seconds, &mut walls, &mut out, None, None);
    }
    let wrong_executions = stream.wrong_executions;
    out.check(
        "executes_only_dirty_pairs",
        wrong_executions == 0,
        format!("{wrong_executions} refreshes executed other than {} pairs", n - 1),
    );

    // Outputs: the final all-pairs result equals a fresh session over the
    // final schema set, and equals it again after close and reopen.
    let final_digest = digest_summaries(&repo.match_all_pairs());
    let names = repo.names().to_vec();
    let current: Vec<Schema> = names.iter().filter_map(|nm| repo.schema(nm).cloned()).collect();
    let mut fresh = MatchSession::new(&cfg, &th);
    let fresh_digest =
        fresh.add_corpus(&current).map(|_| digest_summaries(&fresh.match_all_pairs()));
    out.check(
        "final_equals_fresh_session",
        fresh_digest == Ok(final_digest),
        format!("{final_digest:#018x}"),
    );
    let op = tracer.op();
    let (memo_clone, memo_merge) = if ctx.trace {
        memo_costs(&mut repo, &names[0], &names[1], &mut tracer, op)
    } else {
        (Duration::ZERO, Duration::ZERO)
    };
    let stats = repo.stats();
    let snapshot_bytes = std::fs::metadata(repo.path()).map_or(0, |m| m.len());
    let path = repo.path().to_path_buf();
    drop(repo);
    let t = Instant::now();
    let reopened = Repository::open_or_create(&path, &cfg, &th);
    let replay = t.elapsed();
    match reopened {
        Ok(mut again) => {
            let replayed = again.durability().replayed_records;
            let d = digest_summaries(&again.match_all_pairs());
            out.check(
                "reopen_replays_identically",
                d == final_digest,
                format!("{replayed} records replayed"),
            );
        }
        Err(e) => out.check("reopen_replays_identically", false, e.to_string()),
    }

    // The gated latency stops before the journal fsync: on a shared
    // virtual disk its latency swung by tens of milliseconds between
    // runs, which no CPU reference tracks. Durable figures are printed.
    let total: f64 = walls.durable.iter().sum::<f64>() / 1e6;
    let n_walls = walls.durable.len();
    let reference = std::mem::take(&mut stream.reference.samples);
    ctx.end_to_end(
        &mut out,
        &setups,
        (median(&walls.fresh), n_walls),
        (n_walls as f64 / total, n_walls),
        &reference,
    );
    out.extra.push(Metric::new("refresh_p50_ms", median(&walls.durable) / 1e3, "ms", n_walls));
    out.extra.push(Metric::new(
        "refresh_p99_ms",
        quantile(&walls.durable, 0.99) / 1e3,
        "ms",
        n_walls,
    ));
    out.extra.push(Metric::new("fresh_p50_ms", median(&walls.fresh) / 1e3, "ms", n_walls));

    if ctx.trace {
        let r = acc.refreshes.max(1) as f64;
        let k = acc.refreshes;
        let ms = |ns: f64| ns / r / 1e6;
        let compaction: f64 = acc.compaction.iter().sum();
        let mut tiling = Tiling { wall_ns: traced_wall, ..Tiling::default() };
        tiling.add("prepare", acc.prepare);
        tiling.add("journal.append", acc.append);
        tiling.add("snapshot.save", compaction);
        tiling.add("lsim", acc.lsim);
        tiling.add("treematch", acc.treematch);
        tiling.add("mapping", acc.mapping);
        tiling.add("pair.residual", acc.residual);
        tiling.add("cache.serve", acc.serve);
        tiling.add("index.build", acc.index_build.iter().sum::<f64>() * 1e3);
        tiling.add("index.rank", acc.index_rank.iter().sum::<f64>() * 1e3);
        tiling.add("journal.sync", acc.sync.iter().sum::<f64>() * 1e3);
        out.layer("prepare.busy_ms", ms(acc.prepare), k);
        out.layer("prepare.schemas", 1.0, k);
        out.layer("lsim.busy_ms", ms(acc.lsim), k);
        out.layer("lsim.compared_pairs", acc.split.compared as f64 / r, k);
        out.layer(
            "lsim.compare_ratio",
            acc.split.compared as f64 / acc.split.total.max(1) as f64,
            k,
        );
        out.layer("memo.vocab", stats.session.vocab_size as f64, 1);
        out.layer("memo.distinct_pairs", stats.session.distinct_pairs_computed as f64, 1);
        out.layer("memo.bytes", stats.session.sim_bytes as f64, 1);
        out.layer("memo.clone_us", us(memo_clone), 1);
        out.layer("memo.merge_us", us(memo_merge), 1);
        out.layer("treematch.busy_ms", ms(acc.treematch), k);
        out.layer("treematch.compared_pairs", acc.split.tm_compared as f64 / r, k);
        out.layer("treematch.pruned_pairs", acc.split.tm_pruned as f64 / r, k);
        out.layer("mapping.busy_ms", ms(acc.mapping), k);
        out.layer("mapping.mappings", acc.split.mappings as f64 / r, k);
        out.layer("pair.exec_ms", ms(acc.engine), k);
        out.layer("pair.executed", acc.split.pairs as f64 / r, k);
        out.layer("pair.residual_ms", ms(acc.residual), k);
        out.layer(
            "cache.hit_ratio",
            1.0 - acc.split.pairs as f64 / acc.lookups.max(1) as f64,
            acc.lookups,
        );
        out.layer("cache.entries", stats.cached_pairs as f64, 1);
        out.layer("cache.serve_ms", ms(acc.serve), k);
        out.layer("index.build_us", mean(&acc.index_build), k);
        out.layer("index.rank_us", mean(&acc.index_rank), k);
        out.layer("index.candidate_pairs", acc.candidates as f64 / r, k);
        out.layer(
            "index.prune_ratio",
            1.0 - acc.candidates as f64 / r / (n * (n - 1) / 2) as f64,
            k,
        );
        out.layer("journal.append_us", acc.append / acc.records.max(1) as f64 / 1e3, acc.records);
        out.layer("journal.sync_us", mean(&acc.sync), k);
        out.layer("journal.records", acc.records as f64 / r, k);
        out.layer("journal.bytes", journal_bytes as f64 / r, k);
        out.layer("journal.replay_ms", replay.as_secs_f64() * 1e3, 1);
        out.layer(
            "snapshot.save_ms",
            compaction / acc.compaction.len().max(1) as f64 / 1e6,
            acc.compaction.len(),
        );
        out.layer("snapshot.open_ms", median(&setups) * 1e3, setups.len());
        out.layer("snapshot.bytes", snapshot_bytes as f64, 1);
        out.layer(
            "trace.overhead_share",
            mean(&walls.durable) / mean(&untraced_walls.durable) - 1.0,
            untraced_walls.durable.len(),
        );
        out.layer("trace.attributed_share", tiling.attributed(), tracer.len());
        out.check(
            "replay_reproduces_program",
            acc.split.mismatches == 0,
            format!("{} refreshes", k),
        );
        out.tiling = Some(tiling);
        ctx.write_spans(&tracer);
    }
    out
}
