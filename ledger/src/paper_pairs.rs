//! `paper_pairs`: the paper's four schema pairs matched one-shot through
//! `Cupid::match_schemas`, closed loop on one thread, in an order the
//! seed permutes every cycle.

use std::time::{Duration, Instant};

use cupid_core::linguistic::analyze;
use cupid_core::mapping::{leaf_mappings, nonleaf_mappings};
use cupid_core::treematch::tree_match;
use cupid_core::{Cardinality, Cupid, MatchOutcome};
use cupid_corpus::{cidx_excel, fig1, fig2, star_rdb, thesauri};
use cupid_eval::configs;
use cupid_model::{expand, Schema};

use crate::report::{Metric, Outcome, Tiling, Tracer};
use crate::util::{geomean, mapping_digest, mean, median, quantile, us, Reference, Rng};
use crate::Ctx;

/// Bit-identity digests of each pair's leaf and non-leaf mappings
/// (paths, node ids, and the raw bits of wsim, ssim and lsim).
const EXPECTED: [(&str, u64); 4] = [
    ("fig1", 0x288f_6c5d_572c_676d),
    ("fig2", 0x1c4a_75dc_4378_efa1),
    ("cidx_excel", 0x2a0d_a4d7_8e01_a9c6),
    ("rdb_star", 0xe453_e91a_d7ae_17a2),
];

struct Pair {
    name: &'static str,
    cupid: Cupid,
    source: Schema,
    target: Schema,
}

fn inputs() -> Vec<Pair> {
    let xml = |th| Cupid::with_config(configs::shallow_xml(), th);
    vec![
        Pair {
            name: "fig1",
            cupid: xml(fig1::thesaurus()),
            source: fig1::po(),
            target: fig1::porder(),
        },
        Pair {
            name: "fig2",
            cupid: xml(thesauri::paper_thesaurus()),
            source: fig2::po(),
            target: fig2::purchase_order(),
        },
        Pair {
            name: "cidx_excel",
            cupid: xml(thesauri::paper_thesaurus()),
            source: cidx_excel::cidx(),
            target: cidx_excel::excel(),
        },
        Pair {
            name: "rdb_star",
            cupid: Cupid::with_config(configs::relational(), thesauri::empty_thesaurus()),
            source: star_rdb::rdb(),
            target: star_rdb::star(),
        },
    ]
}

fn digest(o: &MatchOutcome) -> u64 {
    mapping_digest(&o.leaf_mappings, &o.nonleaf_mappings)
}

/// Per-call layer account of a traced run.
#[derive(Default)]
struct Split {
    prepare: f64,
    lsim: f64,
    treematch: f64,
    mapping: f64,
    program: f64,
    compared: usize,
    total: usize,
    vocab: usize,
    distinct: usize,
    tm_compared: usize,
    tm_pruned: usize,
    mappings: usize,
}

/// Time the calls `match_schemas` is made of, on the same pair:
/// `expand` twice, `analyze`, `tree_match` and both mapping generators.
/// The whole replay, drops included, is one probe span.
fn components(p: &Pair, split: &mut Split, tracer: &mut Tracer, op: u64) {
    let start = Instant::now();
    replay(p, split, tracer, op);
    tracer.end("probe.replay", op, start);
}

fn replay(p: &Pair, split: &mut Split, tracer: &mut Tracer, op: u64) {
    let cfg = p.cupid.config();
    let ((t1, t2), d) = tracer.time("replay.expand", op, || {
        (expand(&p.source, &cfg.expand), expand(&p.target, &cfg.expand))
    });
    split.prepare += d.as_nanos() as f64;
    let (Ok(t1), Ok(t2)) = (t1, t2) else { return };
    let (ling, d) = tracer
        .time("replay.analyze", op, || analyze(&p.source, &p.target, p.cupid.thesaurus(), cfg));
    split.lsim += d.as_nanos() as f64;
    let (res, d) = tracer.time("replay.treematch", op, || tree_match(&t1, &t2, &ling.lsim, cfg));
    split.treematch += d.as_nanos() as f64;
    let ((leaf, nonleaf), d) = tracer.time("replay.mapping", op, || {
        (
            leaf_mappings(&t1, &t2, &res, &ling.lsim, cfg, Cardinality::OneToN),
            nonleaf_mappings(&t1, &t2, &res, &ling.lsim, cfg, Cardinality::OneToOne),
        )
    });
    split.mapping += d.as_nanos() as f64;
    split.compared += ling.compared_pairs;
    split.total += ling.total_pairs;
    split.vocab += ling.vocab_size;
    split.distinct += ling.distinct_token_pairs;
    split.tm_compared += res.stats.compared_pairs;
    split.tm_pruned += res.stats.pruned_pairs;
    split.mappings += leaf.len() + nonleaf.len();
}

/// Closed-loop workers. Two threads, each with its own seeded order,
/// keep the run's figures from resting on the speed of a single vCPU.
const WORKERS: usize = 2;

/// What the workers of a run produced, merged.
#[derive(Default)]
struct Log {
    samples: Vec<Vec<f64>>,
    last: Vec<Option<MatchOutcome>>,
    calls: usize,
    failed: usize,
    split: Split,
    tracer: Option<Tracer>,
    /// Per-thread phase wall minus probes, summed.
    busy: Duration,
    kernel: Vec<f64>,
}

impl Log {
    fn new(pairs: usize) -> Log {
        Log {
            samples: vec![Vec::new(); pairs],
            last: (0..pairs).map(|_| None).collect(),
            ..Log::default()
        }
    }

    fn absorb(&mut self, other: Log) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.last.iter_mut().zip(other.last) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        self.calls += other.calls;
        self.failed += other.failed;
        self.busy += other.busy;
        self.kernel.extend(other.kernel);
        let (a, b) = (&mut self.split, other.split);
        a.prepare += b.prepare;
        a.lsim += b.lsim;
        a.treematch += b.treematch;
        a.mapping += b.mapping;
        a.program += b.program;
        a.compared += b.compared;
        a.total += b.total;
        a.vocab += b.vocab;
        a.distinct += b.distinct;
        a.tm_compared += b.tm_compared;
        a.tm_pruned += b.tm_pruned;
        a.mappings += b.mappings;
        match (&mut self.tracer, other.tracer) {
            (Some(t), Some(o)) => t.absorb(o),
            (t @ None, o) => *t = o,
            _ => {}
        }
    }
}

/// One worker's closed loop for `seconds`.
fn worker(
    pairs: &[Pair],
    rng: &mut Rng,
    seconds: f64,
    mut tracer: Option<Tracer>,
    mut reference: Reference,
) -> Log {
    let mut log = Log::new(pairs.len());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    while Instant::now() < deadline {
        reference.tick();
        rng.shuffle(&mut order);
        for &i in &order {
            let p = &pairs[i];
            log.calls += 1;
            // The call's time includes dropping the outcome it replaces,
            // as a caller that discards each outcome would pay.
            let t0 = Instant::now();
            let ok = match p.cupid.match_schemas(&p.source, &p.target) {
                Ok(o) => {
                    drop(log.last[i].replace(o));
                    true
                }
                Err(_) => false,
            };
            let d = t0.elapsed();
            if ok {
                log.samples[i].push(us(d));
            } else {
                log.failed += 1;
            }
            if let Some(tracer) = tracer.as_mut() {
                let op = tracer.op();
                tracer.end("match_schemas", op, t0);
                log.split.program += d.as_nanos() as f64;
                components(p, &mut log.split, tracer, op);
            }
        }
    }
    log.busy = start.elapsed() - tracer.as_ref().map_or(Duration::ZERO, |t| t.probe);
    log.tracer = tracer;
    log.kernel = reference.samples;
    log
}

/// All workers for `seconds`, merged.
fn phase(
    ctx: &Ctx,
    pairs: &[Pair],
    rngs: &mut [Rng],
    seconds: f64,
    traced: bool,
    origin: Instant,
) -> Log {
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(w, rng)| {
                let tracer = traced.then(|| Tracer::new(origin, (w as u64 + 1) << 40));
                let reference = ctx.reference();
                s.spawn(move || worker(pairs, rng, seconds, tracer, reference))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let mut merged = Log::new(pairs.len());
    for log in logs {
        merged.absorb(log);
    }
    merged
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: build the schemas, thesauri and matchers, and match each
    // pair once (the first, cold call). Repeated; the median is kept.
    let mut setups = Vec::new();
    let mut pairs = Vec::new();
    let mut first: Vec<u64> = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        pairs = inputs();
        first = pairs
            .iter()
            .map(|p| p.cupid.match_schemas(&p.source, &p.target).map_or(0, |o| digest(&o)))
            .collect();
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut rngs: Vec<Rng> = (0..WORKERS).map(|w| Rng::stream(ctx.seed, 1 + w as u64)).collect();
    let origin = Instant::now();
    let mut log = Log::new(pairs.len());
    let mut plain = Log::new(pairs.len());
    for (traced, seconds) in ctx.plan() {
        let slice = phase(ctx, &pairs, &mut rngs, seconds, traced, origin);
        if ctx.trace && !traced {
            plain.absorb(slice);
        } else {
            log.absorb(slice);
        }
    }
    out.attempted = (log.calls + plain.calls) as u64;
    out.failed = (log.failed + plain.failed) as u64;

    // Outputs: every pair's mappings and score bits equal the recorded
    // digest, on the cold first call and on the last timed call.
    for (i, p) in pairs.iter().enumerate() {
        let want = EXPECTED.iter().find(|(n, _)| *n == p.name).map_or(0, |(_, d)| *d);
        let got = log.last[i].as_ref().map_or(0, digest);
        out.check(
            &format!("digest.{}", p.name),
            got == want && first[i] == want,
            format!("want {want:#018x} got {got:#018x} first {:#018x}", first[i]),
        );
    }

    let samples = &log.samples;
    let p50s: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let p99s: Vec<f64> = samples.iter().map(|s| quantile(s, 0.99)).collect();
    let n = samples.iter().map(Vec::len).sum::<usize>();
    let min_n = samples.iter().map(Vec::len).min().unwrap_or(0);
    // Throughput over the time the workers spent in calls.
    let busy_s = samples.iter().flatten().sum::<f64>() / 1e6 / WORKERS as f64;
    let throughput = (n as f64 / busy_s, n);
    ctx.end_to_end(&mut out, &setups, (geomean(&p50s), min_n), throughput, &log.kernel);
    out.extra.push(Metric::new("match_p99_us", geomean(&p99s), "us", min_n));
    for (i, p) in pairs.iter().enumerate() {
        out.extra.push(Metric::new(
            &format!("match_p50_us.{}", p.name),
            p50s[i],
            "us",
            samples[i].len(),
        ));
        out.extra.push(Metric::new(
            &format!("match_p99_us.{}", p.name),
            p99s[i],
            "us",
            samples[i].len(),
        ));
    }

    if ctx.trace {
        let split = &log.split;
        let calls = log.calls.max(1) as f64;
        let k = log.calls;
        let mut tiling = Tiling { wall_ns: log.busy.as_nanos() as f64, ..Tiling::default() };
        let parts = split.prepare + split.lsim + split.treematch + split.mapping;
        tiling.add("prepare", split.prepare);
        tiling.add("lsim", split.lsim);
        tiling.add("treematch", split.treematch);
        tiling.add("mapping", split.mapping);
        tiling.add("pair.residual", split.program - parts);
        let ms = |ns: f64| ns / calls / 1e6;
        out.layer("prepare.busy_ms", ms(split.prepare), k);
        out.layer("prepare.schemas", 2.0, k);
        out.layer("lsim.busy_ms", ms(split.lsim), k);
        out.layer("lsim.compared_pairs", split.compared as f64 / calls, k);
        out.layer("lsim.compare_ratio", split.compared as f64 / split.total.max(1) as f64, k);
        out.layer("memo.vocab", split.vocab as f64 / calls, k);
        out.layer("memo.distinct_pairs", split.distinct as f64 / calls, k);
        out.layer("treematch.busy_ms", ms(split.treematch), k);
        out.layer("treematch.compared_pairs", split.tm_compared as f64 / calls, k);
        out.layer("treematch.pruned_pairs", split.tm_pruned as f64 / calls, k);
        out.layer("mapping.busy_ms", ms(split.mapping), k);
        out.layer("mapping.mappings", split.mappings as f64 / calls, k);
        out.layer("pair.exec_ms", ms(split.program), k);
        out.layer("pair.executed", 1.0, k);
        out.layer("pair.residual_ms", ms(split.program - parts), k);
        let untraced = plain.samples.concat();
        let traced_mean = split.program / calls / 1e3;
        out.layer("trace.overhead_share", traced_mean / mean(&untraced) - 1.0, untraced.len());
        let tracer = log.tracer.take().unwrap_or_else(|| Tracer::new(origin, 0));
        out.layer("trace.attributed_share", tiling.attributed(), tracer.len());
        out.tiling = Some(tiling);
        ctx.write_spans(&tracer);
    }
    out
}
