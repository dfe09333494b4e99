//! `corpus_cold`: 64 seeded synthetic schemas of about 32 leaves go into
//! a fresh `Repository` (`add_corpus` → `match_all_pairs` → `save`),
//! over and over, with the library's default thread count.

use std::path::Path;
use std::time::{Duration, Instant};

use cupid_core::{Cupid, CupidConfig, MatchSession, MatchSummary, SchemaId};
use cupid_eval::configs;
use cupid_lexical::{SimStore, Thesaurus};
use cupid_model::Schema;
use cupid_repo::{JournalRecord, RepoError, Repository};

use crate::probe::{memo_costs, EngineSplit, JournalProbe};
use crate::report::{Outcome, Tiling, Tracer};
use crate::util::{digest_summaries, mapping_digest, median, us, Reference, Rng};
use crate::{corpus, Ctx};

const PAIRS: usize = 32;
const LEAVES: usize = 32;
/// Pairs of the last build checked against `Cupid::match_schemas`.
const CHECKED: usize = 16;
/// Reference-kernel samples taken between two builds.
const REFERENCE_SAMPLES: usize = 4;

/// Per-build times of a traced phase, summed.
#[derive(Default)]
struct Acc {
    builds: usize,
    open: f64,
    add: f64,
    matching: f64,
    save: f64,
    serve: f64,
    clone: Vec<f64>,
    merge: Vec<f64>,
    memo: (usize, usize, usize),
    cache_entries: usize,
    snapshot_bytes: u64,
}

/// One cold build in a fresh directory. Returns the summaries and the
/// build's wall (probes excluded).
fn build(
    dir: &Path,
    schemas: &[Schema],
    cfg: &CupidConfig,
    th: &Thesaurus,
    mut traced: Option<(&mut Tracer, &mut Acc)>,
) -> Result<(Vec<MatchSummary>, Duration), RepoError> {
    let probe_before = traced.as_ref().map_or(Duration::ZERO, |(t, _)| t.probe);
    let op = traced.as_mut().map_or(0, |(t, _)| t.op());
    let mut span = |name: &'static str, start: Instant| -> f64 {
        match traced.as_mut() {
            Some((t, _)) => t.end(name, op, start).as_nanos() as f64,
            None => 0.0,
        }
    };
    let start = Instant::now();
    let mut repo = Repository::open_or_create(dir, cfg, th)?;
    let t_open = span("open_or_create", start);
    let s = Instant::now();
    repo.add_corpus(schemas)?;
    let t_add = span("add_corpus", s);
    let s = Instant::now();
    let summaries = repo.match_all_pairs();
    let t_match = span("match_all_pairs", s);
    let s = Instant::now();
    repo.save()?;
    let t_save = span("save", s);
    if let Some((tracer, acc)) = traced.as_mut() {
        // Cache serving inside `match_all_pairs`: the same call again,
        // now answered wholly from the pair cache.
        let ((), serve) = tracer.time("probe.cache_serve", op, || drop(repo.match_all_pairs()));
        let (clone, merge) = memo_costs(&mut repo, "S0a", "S0b", tracer, op);
        let stats = repo.stats();
        acc.snapshot_bytes = std::fs::metadata(repo.path()).map_or(0, |m| m.len());
        acc.builds += 1;
        acc.open += t_open;
        acc.add += t_add;
        acc.matching += t_match;
        acc.save += t_save;
        acc.serve += (serve.as_nanos() as f64).min(t_match);
        acc.clone.push(us(clone));
        acc.merge.push(us(merge));
        acc.memo = (
            stats.session.vocab_size,
            stats.session.distinct_pairs_computed,
            stats.session.sim_bytes,
        );
        acc.cache_entries = stats.cached_pairs;
    }
    let s = Instant::now();
    drop(repo);
    if let Some((tracer, acc)) = traced.as_mut() {
        acc.open += tracer.end("close", op, s).as_nanos() as f64;
    }
    let probes = traced.as_ref().map_or(Duration::ZERO, |(t, _)| t.probe) - probe_before;
    Ok((summaries, start.elapsed() - probes))
}

/// Closed loop of cold builds for `seconds`. Returns build walls (µs).
fn phase(
    ctx: &Ctx,
    schemas: &[Schema],
    cfg: &CupidConfig,
    th: &Thesaurus,
    seconds: f64,
    digests: &mut Vec<u64>,
    last: &mut Vec<MatchSummary>,
    out: &mut Outcome,
    reference: &mut Reference,
    mut traced: Option<(&mut Tracer, &mut Acc)>,
) -> (Vec<f64>, Duration) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    while walls.is_empty() || Instant::now() < deadline {
        let dir = ctx.work.join(format!("cold-{}", digests.len()));
        out.attempted += 1;
        let result =
            build(&dir, schemas, cfg, th, traced.as_mut().map(|(t, a)| (&mut **t, &mut **a)));
        // Cleanup, the output digest and dropping the previous build's
        // summaries are apparatus, not workload.
        let check = Instant::now();
        std::fs::remove_dir_all(&dir).ok();
        let result = result.map(|(summaries, wall)| {
            walls.push(us(wall));
            digests.push(digest_summaries(&summaries));
            *last = summaries;
        });
        if let Some((tracer, _)) = traced.as_mut() {
            tracer.end("probe.check", 0, check);
        }
        for _ in 0..REFERENCE_SAMPLES {
            reference.sample();
        }
        if let Err(e) = result {
            eprintln!("ledger: cold build failed: {e}");
            out.failed += 1;
            if walls.is_empty() {
                break;
            }
        }
    }
    (walls, start.elapsed())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = configs::synthetic();

    // Set-up: generating the seeded corpus and its thesaurus.
    let mut setups = Vec::new();
    let mut generated = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        generated = Some(corpus::synthetic(PAIRS, LEAVES, corpus::base_seed(ctx.seed)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (schemas, th) = generated.expect("at least one set-up");
    let total_pairs = schemas.len() * (schemas.len() - 1) / 2;

    let mut digests = Vec::new();
    let mut last = Vec::new();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut acc = Acc::default();
    let mut split = EngineSplit::default();
    let mut speedup = 0.0;
    let mut append_us = 0.0;
    let mut journal_bytes = 0;
    let mut traced_wall = 0.0;
    let mut reference = ctx.reference();
    let (walls, untraced) = if ctx.trace {
        // Once per run: the single-thread split of pair execution, the
        // sharding speed-up, and the cost of one journal record.
        let op = tracer.op();
        let mut replica = MatchSession::new(&cfg, &th).threads(1);
        if replica.add_corpus(&schemas).is_ok() {
            let worklist: Vec<(SchemaId, SchemaId)> = (0..schemas.len())
                .flat_map(|i| (i + 1..schemas.len()).map(move |j| (i, j)))
                .map(|(i, j)| (SchemaId::from_index(i), SchemaId::from_index(j)))
                .collect();
            let mut side = SimStore::new();
            split.replay(&mut replica, &mut side, &cfg, &th, &worklist, &mut tracer, op);
        }
        let mut sharded = |threads: usize| {
            let mut s = MatchSession::new(&cfg, &th).threads(threads);
            if s.add_corpus(&schemas).is_err() {
                return 0.0;
            }
            tracer.time("probe.all_pairs", op, || drop(s.match_all_pairs())).1.as_secs_f64()
        };
        let (one, two) = (sharded(1), sharded(2));
        speedup = if two > 0.0 { one / two } else { 0.0 };
        if let Ok(mut journal) = JournalProbe::new(&ctx.work, &cfg, &th) {
            let times: Vec<f64> = schemas
                .iter()
                .map(|s| us(journal.append(&JournalRecord::Add(s.clone()), &mut tracer, op)))
                .collect();
            append_us = crate::util::mean(&times);
            journal_bytes = journal.bytes();
        }
        let mut plain = Vec::new();
        let mut walls = Vec::new();
        for (traced, seconds) in ctx.plan() {
            let r = &mut reference;
            if traced {
                let probes_before = tracer.probe;
                let t = Some((&mut tracer, &mut acc));
                let (w, wall) = phase(
                    ctx,
                    &schemas,
                    &cfg,
                    &th,
                    seconds,
                    &mut digests,
                    &mut last,
                    &mut out,
                    r,
                    t,
                );
                traced_wall += (wall - (tracer.probe - probes_before)).as_nanos() as f64;
                walls.extend(w);
            } else {
                let (w, _) = phase(
                    ctx,
                    &schemas,
                    &cfg,
                    &th,
                    seconds,
                    &mut digests,
                    &mut last,
                    &mut out,
                    r,
                    None,
                );
                plain.extend(w);
            }
        }
        (walls, Some(plain))
    } else {
        let r = &mut reference;
        let (w, _) = phase(
            ctx,
            &schemas,
            &cfg,
            &th,
            ctx.seconds,
            &mut digests,
            &mut last,
            &mut out,
            r,
            None,
        );
        (w, None)
    };

    // Outputs: every build gave the same summaries, and a seeded sample
    // of them is bit-identical to one-shot `Cupid::match_schemas`.
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    out.check("builds_identical", same && !digests.is_empty(), format!("{} builds", digests.len()));
    let cupid = Cupid::with_config(cfg.clone(), th.clone());
    let mut rng = Rng::stream(ctx.seed, 3);
    let mut bad = 0;
    for _ in 0..CHECKED {
        let (i, j) = rng.pair(schemas.len());
        let Some(s) = last.iter().find(|s| s.source.index() == i && s.target.index() == j) else {
            bad += 1;
            continue;
        };
        match cupid.match_schemas(&schemas[i], &schemas[j]) {
            Ok(o) => {
                let same = mapping_digest(&s.leaf_mappings, &s.nonleaf_mappings)
                    == mapping_digest(&o.leaf_mappings, &o.nonleaf_mappings)
                    && s.compared_pairs == o.linguistic.compared_pairs
                    && s.total_pairs == o.linguistic.total_pairs;
                bad += usize::from(!same);
            }
            Err(_) => bad += 1,
        }
    }
    out.check(
        "sample_equals_match_schemas",
        bad == 0 && last.len() == total_pairs,
        format!("{bad} of {CHECKED} differ"),
    );

    // Throughput: pairs over the wall of whole cold builds.
    let build_s: f64 = walls.iter().sum::<f64>() / 1e6;
    let pairs_per_s = (walls.len() * total_pairs) as f64 / build_s;
    let n = walls.len();
    ctx.end_to_end(&mut out, &setups, (median(&walls), n), (pairs_per_s, n), &reference.samples);

    if let Some(w0) = untraced {
        let mut tiling =
            layers(&mut out, &acc, &split, speedup, append_us, schemas.len(), total_pairs);
        tiling.wall_ns = traced_wall;
        out.layer("journal.bytes", journal_bytes as f64, schemas.len());
        out.layer(
            "trace.overhead_share",
            crate::util::mean(&walls) / crate::util::mean(&w0) - 1.0,
            w0.len(),
        );
        out.layer("trace.attributed_share", tiling.attributed(), tracer.len());
        out.check(
            "replay_reproduces_program",
            split.mismatches == 0,
            format!("{} pairs", split.pairs),
        );
        out.tiling = Some(tiling);
        ctx.write_spans(&tracer);
    }
    out
}

/// The per-layer metrics of a traced run, and its tiling (wall unset).
fn layers(
    out: &mut Outcome,
    acc: &Acc,
    split: &EngineSplit,
    speedup: f64,
    append_us: f64,
    schemas: usize,
    total_pairs: usize,
) -> Tiling {
    let b = acc.builds.max(1) as f64;
    let n = acc.builds;
    let appends = (append_us * 1e3 * schemas as f64 * b).min(acc.add);
    let engine = acc.matching - acc.serve;
    let [s_lsim, s_tm, s_map, s_res] = split.shares();
    let mut tiling = Tiling::default();
    tiling.add("snapshot.open", acc.open);
    tiling.add("journal.append", appends);
    tiling.add("prepare", acc.add - appends);
    tiling.add("cache.serve", acc.serve);
    tiling.add("lsim", engine * s_lsim);
    tiling.add("treematch", engine * s_tm);
    tiling.add("mapping", engine * s_map);
    tiling.add("pair.residual", engine * s_res);
    tiling.add("snapshot.save", acc.save);
    let ms = |ns: f64| ns / b / 1e6;
    out.layer("prepare.busy_ms", ms(acc.add - appends), n);
    out.layer("prepare.schemas", schemas as f64, n);
    out.layer("lsim.busy_ms", ms(engine * s_lsim), n);
    out.layer("lsim.compared_pairs", split.compared as f64, split.pairs);
    out.layer("lsim.compare_ratio", split.compared as f64 / split.total.max(1) as f64, split.pairs);
    out.layer("memo.vocab", acc.memo.0 as f64, n);
    out.layer("memo.distinct_pairs", acc.memo.1 as f64, n);
    out.layer("memo.bytes", acc.memo.2 as f64, n);
    out.layer("memo.clone_us", median(&acc.clone), acc.clone.len());
    out.layer("memo.merge_us", median(&acc.merge), acc.merge.len());
    out.layer("session.parallel_speedup", speedup, 1);
    out.layer("treematch.busy_ms", ms(engine * s_tm), n);
    out.layer("treematch.compared_pairs", split.tm_compared as f64, split.pairs);
    out.layer("treematch.pruned_pairs", split.tm_pruned as f64, split.pairs);
    out.layer("mapping.busy_ms", ms(engine * s_map), n);
    out.layer("mapping.mappings", split.mappings as f64, split.pairs);
    out.layer("pair.exec_ms", ms(engine), n);
    out.layer("pair.executed", total_pairs as f64, n);
    out.layer("pair.residual_ms", ms(engine * s_res), n);
    out.layer("cache.hit_ratio", 0.0, n);
    out.layer("cache.entries", acc.cache_entries as f64, n);
    out.layer("cache.serve_ms", ms(acc.serve), n);
    out.layer("journal.append_us", append_us, schemas);
    out.layer("journal.records", schemas as f64, n);
    out.layer("snapshot.save_ms", ms(acc.save), n);
    out.layer("snapshot.open_ms", ms(acc.open), n);
    out.layer("snapshot.bytes", acc.snapshot_bytes as f64, n);
    tiling
}
