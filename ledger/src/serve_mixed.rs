//! `serve_mixed`: an in-process `cupid-serve` daemon on loopback
//! (`ServeOptions::default()`) over a warm 32-schema × 24-leaf snapshot
//! with every pair cached. Two closed-loop connections send a seeded
//! mix of unary matches, 64-entry batches, top-k, explain and replace.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cupid_core::{CupidConfig, MatchSummary};
use cupid_eval::configs;
use cupid_lexical::Thesaurus;
use cupid_repo::{RepoError, Repository};
use cupid_serve::{
    BatchItem, BatchOutcome, ClientBuilder, KindLatency, ServeClient, ServeError, ServeOptions,
    Server, ShutdownHandle, StatsReport, STAGE_NAMES,
};

use crate::probe::{index_costs, memo_costs};
use crate::report::{Metric, Outcome, Tiling, Tracer, DAEMON_KINDS};
use crate::util::{digest_summaries, mean, median, quantile, us, Reference, Rng};
use crate::{corpus, Ctx};

const PAIRS: usize = 16;
const LEAVES: usize = 24;
/// The generator seed of the serve bench's corpus.
const CORPUS_SEED: u64 = 1000;
const CLIENTS: usize = 2;
const BATCH: usize = 64;
const TOP_K: usize = 3;
/// Cumulative shares of the reads, in `DAEMON_KINDS` order: 90 % unary
/// `match_pair`, 5 % batches, 3 % top-k and 1.5 % explain of all
/// requests, over the 99.5 % that are reads.
const READS: [f64; 4] = [0.90 / 0.995, 0.95 / 0.995, 0.98 / 0.995, 1.0];
/// Each connection sends a replace every 42 ms: 48 a second from two,
/// the 0.5 % of a nominal 9,600 requests a second. Pacing replaces by
/// time keeps the growth of the daemon's state (journal, pair cache,
/// memory) the same on a fast and a slow machine.
const REPLACE_EVERY: Duration = Duration::from_millis(42);
/// Pairs checked between the wire and the in-process repository.
const CHECKED: usize = 32;

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Client-observed latency per request kind (µs).
    latency: [Vec<f64>; 5],
    answers: u64,
    pair_answers: u64,
    attempted: u64,
    failed: u64,
    remote_errors: u64,
    overloaded: u64,
    poisoned: u64,
    bad_explanations: u64,
    wall: Duration,
    probe: Duration,
    /// Reference-kernel times (µs).
    reference: Vec<f64>,
}

/// One closed-loop client for `seconds`.
fn client(
    addr: std::net::SocketAddr,
    names: &[String],
    rng: &mut Rng,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut reference: Reference,
) -> Result<ClientLog, ServeError> {
    let builder = ClientBuilder::new().read_timeout(Duration::from_secs(20));
    let mut c = builder.connect(addr)?;
    let mut log = ClientLog::default();
    let probe_before = tracer.as_ref().map_or(Duration::ZERO, |t| t.probe);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut next_replace = start + REPLACE_EVERY;
    while Instant::now() < deadline {
        reference.tick();
        let r = rng.unit();
        let kind = if Instant::now() >= next_replace {
            next_replace += REPLACE_EVERY;
            4
        } else {
            READS.iter().position(|&p| r < p).unwrap_or(0)
        };
        let pair = |rng: &mut Rng| {
            let (i, j) = rng.pair(names.len());
            (names[i].clone(), names[j].clone())
        };
        // Inputs are made before the clock starts; a fresh replacement
        // body is generated and rendered to SDL, which is apparatus.
        let input = Instant::now();
        let sdl = if kind == 4 {
            let name = &names[rng.below(names.len())];
            cupid_io::write_sdl(&corpus::variant(name, LEAVES, rng.next_u64())).ok()
        } else {
            None
        };
        if let Some(t) = tracer.as_mut() {
            t.end("probe.input", 0, input);
        }
        let items: Vec<BatchItem> = if kind == 1 {
            (0..BATCH)
                .map(|_| {
                    let (source, target) = pair(rng);
                    BatchItem::MatchPair { source, target }
                })
                .collect()
        } else {
            Vec::new()
        };
        let (a, b) = pair(rng);
        log.attempted += 1;
        let t0 = Instant::now();
        let result: Result<(u64, u64), ServeError> = match kind {
            0 => c.match_pair(&a, &b).map(|_| (1, 1)),
            1 => c.batch(items).map(|entries| {
                let ok = entries
                    .iter()
                    .filter(|e| matches!(e, Ok(BatchOutcome::Matched { .. })))
                    .count();
                (ok as u64, ok as u64)
            }),
            2 => c.top_k(TOP_K).map(|l| (1, l.summaries.len() as u64)),
            3 => c.explain(&a, &b).map(|e| {
                log.bad_explanations += u64::from(!e.recomposes_exactly());
                (1, 0)
            }),
            _ => match &sdl {
                Some(text) => c.replace_sdl(text).map(|_| (1, 0)),
                None => Err(ServeError::Unexpected("no SDL for the replacement".into())),
            },
        };
        let d = t0.elapsed();
        if let Some(t) = tracer.as_mut() {
            let op = t.op();
            t.end(DAEMON_KINDS[kind], op, t0);
        }
        match result {
            Ok((answers, pairs)) => {
                log.latency[kind].push(us(d));
                log.answers += answers;
                log.pair_answers += pairs;
                if kind == 1 && answers < BATCH as u64 {
                    log.failed += 1;
                }
            }
            Err(e) => {
                log.failed += 1;
                match e {
                    ServeError::Remote(_) => log.remote_errors += 1,
                    ServeError::Overloaded { .. } => log.overloaded += 1,
                    _ => {}
                }
                if c.is_poisoned() {
                    log.poisoned += 1;
                    c = builder.connect(addr)?;
                }
            }
        }
    }
    log.wall = start.elapsed();
    log.reference = reference.samples;
    log.probe = tracer.as_ref().map_or(Duration::ZERO, |t| t.probe) - probe_before;
    Ok(log)
}

/// Both connections for `seconds`, one thread each.
fn phase(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    names: &[String],
    rngs: &mut [Rng],
    seconds: f64,
    traced: bool,
    origin: Instant,
    tracer: &mut Tracer,
) -> Result<Vec<ClientLog>, ServeError> {
    std::thread::scope(|s| {
        let workers: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(i, rng)| {
                let reference = ctx.reference();
                s.spawn(move || {
                    let mut t = Tracer::new(origin, (i as u64 + 1) << 40);
                    let log =
                        client(addr, names, rng, seconds, traced.then_some(&mut t), reference);
                    (log, t)
                })
            })
            .collect();
        let mut logs = Vec::new();
        for w in workers {
            let (log, t) = w.join().expect("client thread panicked");
            tracer.absorb(t);
            logs.push(log?);
        }
        Ok(logs)
    })
}

/// Daemon counters summed over the measured slices: per `<kind>` and
/// `<kind>/<stage>` histogram (count, total ns), and the refusal and
/// execution counters.
#[derive(Default)]
struct Deltas {
    histograms: BTreeMap<String, (u64, u64)>,
    shed: u64,
    cuts: u64,
    executed: u64,
}

impl Deltas {
    fn add(&mut self, before: &StatsReport, after: &StatsReport) {
        let totals = |r: &StatsReport| -> BTreeMap<String, (u64, u64)> {
            r.stage_latencies
                .iter()
                .chain(&r.latencies)
                .map(|k: &KindLatency| (k.kind.clone(), (k.count, k.total_ns)))
                .collect()
        };
        let (b, a) = (totals(before), totals(after));
        for (key, (count, ns)) in a {
            let (c0, n0) = b.get(&key).copied().unwrap_or((0, 0));
            let e = self.histograms.entry(key).or_insert((0, 0));
            e.0 += count.saturating_sub(c0);
            e.1 += ns.saturating_sub(n0);
        }
        self.shed += after.shed_requests.saturating_sub(before.shed_requests);
        self.cuts += after.deadline_cuts.saturating_sub(before.deadline_cuts);
        self.executed += after.pairs_executed.saturating_sub(before.pairs_executed);
    }

    fn get(&self, key: &str) -> (u64, u64) {
        self.histograms.get(key).copied().unwrap_or((0, 0))
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = configs::synthetic();
    let (schemas, th) = corpus::synthetic(PAIRS, LEAVES, CORPUS_SEED);
    let names: Vec<String> = schemas.iter().map(|s| s.name().to_string()).collect();
    let snap = ctx.work.join("warm.repo");

    // Fixture: the warm snapshot with every pair cached, not timed.
    let fixture = (|| -> Result<(), RepoError> {
        let mut repo = Repository::open_or_create(&snap, &cfg, &th)?;
        repo.add_corpus(&schemas)?;
        repo.match_all_pairs();
        repo.save()
    })();
    if let Err(e) = fixture {
        out.check("fixture", false, e.to_string());
        return out;
    }

    // Set-up: bind the daemon (snapshot decode, journal open, listener).
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..crate::SETUPS {
        drop(server.take());
        let t = Instant::now();
        match Server::bind("127.0.0.1:0", &snap, &cfg, &th, ServeOptions::default()) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.check("bind", false, e.to_string());
                return out;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("bound");
    let addr = server.local_addr();
    let drain = server.shutdown_handle();

    let result = std::thread::scope(|s| {
        let daemon = s.spawn(move || server.run());
        // Stop the daemon however `drive` ends, a panic included, so the
        // scope can join it.
        let stop = StopOnDrop(&drain);
        let result = drive(ctx, addr, &names, &cfg, &th, &snap, &setups, &mut out);
        drop(stop);
        let stopped = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
            .and_then(|r| r.map_err(|e| e.to_string()));
        result.and(stopped)
    });
    if let Err(e) = result {
        out.check("serve", false, e);
    }
    if ctx.trace {
        out.layer("snapshot.open_ms", median(&setups) * 1e3, setups.len());
    }
    out
}

/// Drains the daemon when dropped.
struct StopOnDrop<'a>(&'a ShutdownHandle);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.drain();
    }
}

/// Everything between bind and shutdown: the phases, then the checks.
fn drive(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    names: &[String],
    cfg: &CupidConfig,
    th: &Thesaurus,
    snap: &Path,
    setups: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let err = |e: ServeError| e.to_string();
    let mut admin =
        ClientBuilder::new().read_timeout(Duration::from_secs(20)).connect(addr).map_err(err)?;
    let mut rngs: Vec<Rng> = (0..CLIENTS).map(|i| Rng::stream(ctx.seed, 10 + i as u64)).collect();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut untraced = Vec::new();
    let mut logs = Vec::new();
    let mut wall = 0.0;
    let mut deltas = Deltas::default();
    let mut after = None;
    for (traced, seconds) in ctx.plan() {
        if ctx.trace && !traced {
            untraced.extend(
                phase(ctx, addr, names, &mut rngs, seconds, false, origin, &mut tracer)
                    .map_err(err)?,
            );
            continue;
        }
        // Daemon counters are read around the measured slices only.
        let before = admin.stats().map_err(err)?;
        let slice = phase(ctx, addr, names, &mut rngs, seconds, traced, origin, &mut tracer)
            .map_err(err)?;
        let now = admin.stats().map_err(err)?;
        wall += slice.iter().map(|l| l.wall).max().unwrap_or_default().as_secs_f64();
        logs.extend(slice);
        deltas.add(&before, &now);
        after = Some(now);
    }
    let after = after.ok_or("no measured slice")?;

    let latency = |logs: &[ClientLog], k: usize| -> Vec<f64> {
        logs.iter().flat_map(|l| l.latency[k].iter().copied()).collect()
    };
    let sum = |f: &dyn Fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>();
    out.attempted += sum(&|l| l.attempted) + untraced.iter().map(|l| l.attempted).sum::<u64>();
    out.failed += sum(&|l| l.failed) + untraced.iter().map(|l| l.failed).sum::<u64>();
    let unary = latency(&logs, 0);
    let answers = sum(&|l| l.answers);
    // Throughput over the time the connections spent waiting on replies.
    let busy_s: f64 =
        (0..DAEMON_KINDS.len()).map(|k| latency(&logs, k).iter().sum::<f64>()).sum::<f64>()
            / 1e6
            / CLIENTS as f64;
    let reference: Vec<f64> = logs.iter().flat_map(|l| l.reference.iter().copied()).collect();
    let throughput = (answers as f64 / busy_s, answers as usize);
    ctx.end_to_end(out, setups, (median(&unary), unary.len()), throughput, &reference);
    out.extra.push(Metric::new(
        "answers_per_s",
        answers as f64 / wall,
        "answers/s",
        answers as usize,
    ));
    for (k, label) in ["unary", "batch", "topk", "explain", "mutate"].iter().enumerate() {
        let v = latency(&logs, k);
        out.extra.push(Metric::new(&format!("{label}_p50_us"), median(&v), "us", v.len()));
        if *label == "unary" {
            out.extra.push(Metric::new("unary_p99_us", quantile(&v, 0.99), "us", v.len()));
        }
    }
    let refusals =
        deltas.shed + deltas.cuts + sum(&|l| l.remote_errors + l.overloaded + l.poisoned);
    out.extra.push(Metric::new("refusals", refusals as f64, "count", out.attempted as usize));
    let bad =
        sum(&|l| l.bad_explanations) + untraced.iter().map(|l| l.bad_explanations).sum::<u64>();
    out.check("explanations_recompose", bad == 0, format!("{bad} did not"));

    check_against_repository(&mut admin, names, cfg, th, snap, ctx, out, &mut tracer)?;

    if ctx.trace {
        let mut tiling = Tiling::default();
        let mut mix_traced = 0.0;
        let mut mix_untraced = 0.0;
        for (k, kind) in DAEMON_KINDS.iter().enumerate() {
            let (count, _) = deltas.get(kind);
            let lat = latency(&logs, k);
            let client_ns = lat.iter().sum::<f64>() * 1e3;
            let mut daemon_ns = 0.0;
            for stage in STAGE_NAMES {
                let (_, ns) = deltas.get(&format!("{kind}/{stage}"));
                daemon_ns += ns as f64;
                tiling.add(&format!("daemon.{stage}"), ns as f64);
                out.layer(
                    &format!("daemon.{kind}.{stage}_us"),
                    ns as f64 / count.max(1) as f64 / 1e3,
                    count as usize,
                );
            }
            tiling.add("wire", client_ns - daemon_ns);
            out.layer(
                &format!("wire.{kind}.gap_us"),
                (client_ns - daemon_ns) / lat.len().max(1) as f64 / 1e3,
                lat.len(),
            );
            let plain = latency(&untraced, k);
            if !plain.is_empty() {
                mix_traced += lat.iter().sum::<f64>();
                mix_untraced += lat.len() as f64 * mean(&plain);
            }
        }
        tiling.wall_ns = logs.iter().map(|l| (l.wall - l.probe).as_nanos() as f64).sum();
        let requests = sum(&|l| l.attempted).max(1) as f64;
        let executed = deltas.executed;
        let pair_answers = sum(&|l| l.pair_answers).max(1);
        let uncached_ns: f64 = ["match_pair", "batch", "top_k", "explain"]
            .iter()
            .map(|kind| deltas.get(&format!("{kind}/exec_uncached")).1 as f64)
            .sum();
        let cached_unary = deltas.get("match_pair/exec_cached");
        out.layer(
            "daemon.uncached_share",
            executed as f64 / pair_answers as f64,
            pair_answers as usize,
        );
        out.layer("daemon.refusals", refusals as f64, requests as usize);
        out.layer(
            "cache.hit_ratio",
            1.0 - executed as f64 / pair_answers as f64,
            pair_answers as usize,
        );
        out.layer("cache.entries", after.cached_pairs as f64, 1);
        out.layer(
            "cache.serve_ms",
            cached_unary.1 as f64 / cached_unary.0.max(1) as f64 / 1e6,
            cached_unary.0 as usize,
        );
        out.layer("memo.vocab", after.vocab_size as f64, 1);
        out.layer("memo.distinct_pairs", after.distinct_pairs_computed as f64, 1);
        out.layer("memo.bytes", after.sim_bytes as f64, 1);
        out.layer("pair.exec_ms", uncached_ns / requests / 1e6, requests as usize);
        out.layer("pair.executed", executed as f64 / requests, requests as usize);
        let mutations = deltas.get("mutate").0;
        out.layer("journal.records", mutations as f64 / requests, requests as usize);
        out.layer(
            "trace.overhead_share",
            if mix_untraced > 0.0 { mix_traced / mix_untraced - 1.0 } else { 0.0 },
            untraced.len(),
        );
        out.layer("trace.attributed_share", tiling.attributed(), tracer.len());
        tiling.add_nested("engine (in daemon.exec_uncached)", uncached_ns);
        out.tiling = Some(tiling);
        ctx.write_spans(&tracer);
    }
    Ok(())
}

/// Wire answers equal the in-process `Repository` answer over a copy of
/// the daemon's freshly saved snapshot; explanations recompose.
fn check_against_repository(
    admin: &mut ServeClient,
    names: &[String],
    cfg: &CupidConfig,
    th: &Thesaurus,
    snap: &Path,
    ctx: &Ctx,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let err = |e: ServeError| e.to_string();
    admin.save().map_err(err)?;
    let copy = ctx.work.join("check.repo");
    std::fs::copy(snap, &copy).map_err(|e| e.to_string())?;
    let mut repo = Repository::open_or_create(&copy, cfg, th).map_err(|e| e.to_string())?;
    let mut rng = Rng::stream(ctx.seed, 5);
    let pairs: Vec<(String, String)> = (0..CHECKED)
        .map(|_| {
            let (i, j) = rng.pair(names.len());
            (names[i].clone(), names[j].clone())
        })
        .collect();
    let mut wire: Vec<MatchSummary> = Vec::new();
    for (a, b) in &pairs {
        wire.push(admin.match_pair(a, b).map_err(err)?);
    }
    let batched: Vec<MatchSummary> =
        admin.match_pairs(&pairs).map_err(err)?.into_iter().collect::<Result<_, _>>()?;
    let mut local = Vec::new();
    for (a, b) in &pairs {
        local.push(repo.match_pair(a, b).map_err(|e| e.to_string())?);
    }
    let want = digest_summaries(&local);
    out.check("wire_match_equals_repository", digest_summaries(&wire) == want && wire == local, "");
    out.check(
        "wire_batch_equals_repository",
        digest_summaries(&batched) == want && batched == local,
        "",
    );
    let listing = admin.top_k(TOP_K).map_err(err)?;
    let local_top = repo.top_k_pairs(TOP_K);
    out.check(
        "wire_topk_equals_repository",
        digest_summaries(&listing.summaries) == digest_summaries(&local_top),
        format!("{} pairs", local_top.len()),
    );
    let (a, b) = &pairs[0];
    let explained = admin.explain(a, b).map_err(err)?;
    let local_explained = repo.explain(a, b).map_err(|e| e.to_string())?;
    out.check(
        "wire_explain_equals_repository",
        explained == local_explained && explained.recomposes_exactly(),
        "",
    );
    if ctx.trace {
        let op = tracer.op();
        let runs: Vec<(Duration, Duration, usize)> =
            (0..crate::SETUPS).map(|_| index_costs(&repo, TOP_K, tracer, op)).collect();
        let (build, rank): (Vec<f64>, Vec<f64>) = runs.iter().map(|r| (us(r.0), us(r.1))).unzip();
        let candidates = runs.first().map_or(0, |r| r.2);
        let n = names.len();
        out.layer("index.build_us", median(&build), build.len());
        out.layer("index.rank_us", median(&rank), rank.len());
        out.layer("index.candidate_pairs", candidates as f64, 1);
        out.layer("index.prune_ratio", 1.0 - candidates as f64 / (n * (n - 1) / 2) as f64, 1);
        let (clone, merge) = memo_costs(&mut repo, a, b, tracer, op);
        out.layer("memo.clone_us", us(clone), 1);
        out.layer("memo.merge_us", us(merge), 1);
        out.layer("snapshot.bytes", std::fs::metadata(&copy).map_or(0, |m| m.len()) as f64, 1);
    }
    Ok(())
}
