//! What a run produces: metric declarations (the names `BENCHMARK.json`
//! lists), the span recorder of traced runs, the tiling account, and
//! the printed report.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::{num, quote};
use crate::util::Provenance;

/// Daemon request kinds the serve workload sends, under the labels of
/// the daemon's own latency histograms.
pub const DAEMON_KINDS: [&str; 5] = ["match_pair", "batch", "top_k", "explain", "mutate"];

/// The per-layer metrics every workload reports with `--trace 1`, with
/// units. A layer that does not run in a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 36] = [
        ("prepare.busy_ms", "ms"),
        ("prepare.schemas", "count"),
        ("lsim.busy_ms", "ms"),
        ("lsim.compared_pairs", "count"),
        ("lsim.compare_ratio", "ratio"),
        ("memo.vocab", "count"),
        ("memo.distinct_pairs", "count"),
        ("memo.bytes", "bytes"),
        ("memo.clone_us", "us"),
        ("memo.merge_us", "us"),
        ("session.parallel_speedup", "x"),
        ("treematch.busy_ms", "ms"),
        ("treematch.compared_pairs", "count"),
        ("treematch.pruned_pairs", "count"),
        ("mapping.busy_ms", "ms"),
        ("mapping.mappings", "count"),
        ("pair.exec_ms", "ms"),
        ("pair.executed", "count"),
        ("pair.residual_ms", "ms"),
        ("cache.hit_ratio", "ratio"),
        ("cache.entries", "count"),
        ("cache.serve_ms", "ms"),
        ("index.build_us", "us"),
        ("index.rank_us", "us"),
        ("index.candidate_pairs", "count"),
        ("index.prune_ratio", "ratio"),
        ("journal.append_us", "us"),
        ("journal.sync_us", "us"),
        ("journal.records", "count"),
        ("journal.bytes", "bytes"),
        ("journal.replay_ms", "ms"),
        ("snapshot.save_ms", "ms"),
        ("snapshot.open_ms", "ms"),
        ("snapshot.bytes", "bytes"),
        ("daemon.uncached_share", "ratio"),
        ("daemon.refusals", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in DAEMON_KINDS {
        for stage in cupid_serve::STAGE_NAMES {
            out.push((format!("daemon.{kind}.{stage}_us"), "us"));
        }
    }
    for kind in DAEMON_KINDS {
        out.push((format!("wire.{kind}.gap_us"), "us"));
    }
    out.push(("trace.overhead_share".to_string(), "ratio"));
    out.push(("trace.attributed_share".to_string(), "ratio"));
    out
}

/// One measured value with its unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, samples: samples as u64 }
    }
}

/// One output check: a name and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Further user-visible figures printed but not gated (latency of
    /// each request kind, failure shares, per-phase counts).
    pub extra: Vec<Metric>,
    /// Per-layer values by name (traced runs); units come from
    /// [`per_layer`].
    pub layers: BTreeMap<String, (f64, u64)>,
    /// The tiling account of a traced run.
    pub tiling: Option<Tiling>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.to_string(), ok, detail: detail.into() });
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        self.layers.insert(name.to_string(), (value, samples as u64));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Spans of a traced run: name, start, end and the operation they
/// belong to, kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<(&'static str, u64, u64, u64)>,
    next_op: u64,
    /// Time spent in `probe.*` spans: measurement apparatus that the
    /// workload itself does not contain, excluded from the traced wall.
    pub probe: Duration,
}

impl Tracer {
    pub fn new(origin: Instant, first_op: u64) -> Tracer {
        Tracer { origin, spans: Vec::new(), next_op: first_op, probe: Duration::ZERO }
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a span that ran from `start` until now; returns its length.
    pub fn end(&mut self, name: &'static str, op: u64, start: Instant) -> Duration {
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push((name, op, ns(start), ns(end)));
        let d = end - start;
        if name.starts_with("probe.") {
            self.probe += d;
        }
        d
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let d = self.end(name, op, start);
        (out, d)
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.probe += other.probe;
    }

    /// Write the spans as tab-separated `op name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tstart_ns\tend_ns")?;
        for (name, op, s, e) in &self.spans {
            writeln!(w, "{op}\t{name}\t{s}\t{e}")?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// How a traced run's wall divides into named layers. The layers are
/// disjoint; whatever they leave uncovered is benchmark glue between
/// calls. `attributed_share` is their sum over the wall.
#[derive(Debug, Default)]
pub struct Tiling {
    pub layers: BTreeMap<String, f64>,
    /// Wall of the traced phase in ns, probes excluded, summed over
    /// client threads.
    pub wall_ns: f64,
    /// Layers measured but nested inside a tiled layer (shown, not summed).
    pub nested: BTreeMap<String, f64>,
}

impl Tiling {
    pub fn add(&mut self, layer: &str, d: f64) {
        *self.layers.entry(layer.to_string()).or_insert(0.0) += d;
    }

    pub fn add_nested(&mut self, layer: &str, d: f64) {
        *self.nested.entry(layer.to_string()).or_insert(0.0) += d;
    }

    pub fn attributed(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            return 0.0;
        }
        self.layers.values().sum::<f64>() / self.wall_ns
    }

    /// Share of the wall held by the layers whose names start with
    /// `prefix` (tiled layers only).
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        if self.wall_ns <= 0.0 {
            return 0.0;
        }
        self.layers
            .iter()
            .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
            .map(|(_, v)| v)
            .sum::<f64>()
            .max(0.0)
            / self.wall_ns
    }
}

/// The layer groups the acceptance shares are stated in.
pub const ENGINE: [&str; 4] = ["lsim", "treematch", "mapping", "pair.residual"];

/// Print the human-readable report (every metric with unit and sample
/// count) to stdout.
pub fn print_report(
    workload: &str,
    seed: u64,
    trace: bool,
    out: &Outcome,
    metrics: &[Metric],
    prov: &Provenance,
) {
    println!("ledger workload={workload} seed={seed} trace={}", u8::from(trace));
    println!(
        "  provenance: commit={} rustc=\"{}\" nproc={} cpu=\"{}\" load_before=\"{}\" load_after=\"{}\"",
        prov.commit, prov.rustc, prov.nproc, prov.cpu, prov.load_before, prov.load_after
    );
    println!("  operations: attempted={} failed={}", out.attempted, out.failed);
    for c in &out.checks {
        println!("  check {:<40} {} {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    for m in metrics.iter().chain(&out.extra) {
        println!("  {:<36} {:>18} {:<6} n={}", m.name, num(m.value), m.unit, m.samples);
    }
    if let Some(t) = &out.tiling {
        println!("  tiling: wall {:.3} ms, attributed {:.4}", t.wall_ns / 1e6, t.attributed());
        for (k, v) in &t.layers {
            println!("    {:<34} {:>8.4} of wall", k, v / t.wall_ns.max(1.0));
        }
        for (k, v) in &t.nested {
            println!("    {:<34} {:>8.4} of wall (nested)", k, v / t.wall_ns.max(1.0));
        }
        println!(
            "    {:<34} {:>8.4} of wall",
            "= engine (lsim+treematch+mapping+residual)",
            t.share(&ENGINE)
        );
        println!("    {:<34} {:>8.4} of wall", "= daemon stages", t.share(&["daemon."]));
    }
}

/// The result record appended to the results file: the final line's
/// content plus workload, seed, sample counts and provenance.
pub fn record_line(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Outcome,
    metrics: &[Metric],
    prov: &Provenance,
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        quote(workload),
        u8::from(trace),
        out.correct(),
        out.attempted,
        out.failed
    ));
    let all: Vec<&Metric> = metrics.iter().chain(&out.extra).collect();
    for (i, m) in all.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            quote(&m.name),
            num(m.value),
            quote(m.unit),
            m.samples
        ));
    }
    s.push_str(&format!(
        "}}, \"provenance\": {{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"load_before\": {}, \"load_after\": {}}}}}",
        quote(&prov.commit),
        quote(prov.rustc),
        prov.nproc,
        quote(&prov.cpu),
        quote(&prov.load_before),
        quote(&prov.load_after)
    ));
    s
}

/// The contract line: the last line of stdout.
pub fn final_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}
