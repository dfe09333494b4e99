//! The Cupid performance ledger. See WORKLOADS.md for what each
//! workload and metric is for.
//!
//! ```text
//! cupid-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! cupid-ledger compare <parent.jsonl> <change.jsonl> [--claim <metric>@<workload>]
//! ```
//!
//! A run prints a report (every metric with its unit and sample count,
//! every output check, provenance) and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It also
//! appends a fuller record (seed, sample counts, provenance) to
//! `.ledger-work/results.jsonl` or the `--record` file; `compare` reads
//! two such files.

// The workloads pass their run state to loop functions explicitly, as
// the workspace does for `mapping::select`.
#![allow(clippy::too_many_arguments)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod compare;
mod corpus;
mod corpus_cold;
mod json;
mod paper_pairs;
mod probe;
mod repo_churn;
mod report;
mod serve_mixed;
mod util;

use report::{Metric, Outcome, Tracer};

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// A traced run alternates untraced and traced slices of this many in
/// total, so drift over the run weighs on both alike; the untraced
/// slices are the baseline of `trace.overhead_share`.
const SLICES: usize = 6;

/// How often an untraced run times the reference kernel.
const REFERENCE_EVERY: std::time::Duration = std::time::Duration::from_millis(20);

/// Scratch space, relative to the directory the ledger runs in.
const WORK_DIR: &str = ".ledger-work";

const WORKLOADS: [&str; 4] = ["paper_pairs", "corpus_cold", "repo_churn", "serve_mixed"];

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private scratch directory, removed when it ends.
    pub work: PathBuf,
}

impl Ctx {
    /// The slices of the run as (traced, seconds): one untraced slice,
    /// or for a traced run untraced and traced slices in turn.
    pub fn plan(&self) -> Vec<(bool, f64)> {
        if self.trace {
            (0..SLICES).map(|i| (i % 2 == 1, self.seconds / SLICES as f64)).collect()
        } else {
            vec![(false, self.seconds)]
        }
    }

    /// The reference-kernel sampler for this run: on in untraced runs,
    /// whose end-to-end metrics it normalizes; off in traced ones.
    pub fn reference(&self) -> util::Reference {
        util::Reference::new((!self.trace).then_some(REFERENCE_EVERY))
    }

    /// The end-to-end metrics every workload reports: set-up time, peak
    /// memory, and the headline operation's median latency relative to
    /// the reference kernel (`reference`, its times in this run). The
    /// absolute figures and the throughput go to the report.
    pub fn end_to_end(
        &self,
        out: &mut Outcome,
        setups: &[f64],
        latency_us: (f64, usize),
        throughput: (f64, usize),
        reference: &[f64],
    ) {
        let r = util::Reference::seconds(reference);
        out.end_to_end = vec![
            Metric::new("setup_s", util::median(setups), "s", setups.len()),
            Metric::new("peak_rss_mb", util::peak_rss_mb(), "MiB", 1),
            Metric::new("latency_p50_rel", latency_us.0 / 1e6 / r, "ref", latency_us.1),
        ];
        out.extra.push(Metric::new("latency_p50_us", latency_us.0, "us", latency_us.1));
        out.extra.push(Metric::new("throughput_per_s", throughput.0, "1/s", throughput.1));
        out.extra.push(Metric::new("throughput_rel", throughput.0 * r, "1/ref", throughput.1));
        out.extra.push(Metric::new("reference_us", r * 1e6, "us", reference.len()));
        out.extra.push(Metric::new(
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            out.attempted as usize,
        ));
    }

    /// Keep a traced run's spans (one file per workload, replaced by the
    /// next traced run of that workload).
    pub fn write_spans(&self, tracer: &Tracer) {
        let path = Path::new(WORK_DIR).join(format!("spans-{}.tsv", self.workload));
        if let Err(e) = tracer.write(&path) {
            eprintln!("ledger: writing {}: {e}", path.display());
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cupid-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--record <file>]\n       \
         cupid-ledger compare <parent.jsonl> <change.jsonl> [--claim <metric>@<workload>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = PathBuf::from(WORK_DIR).join("results.jsonl");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 60.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--record" => record = PathBuf::from(value),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }
    let declared = match declared_metrics(&workload, trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ledger: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };

    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ledger: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let _cleanup = WorkDir(work.clone());
    let mut prov = util::Provenance::capture();
    let ctx = Ctx { workload: workload.clone(), seed, seconds, trace, work };
    let out: Outcome = match workload.as_str() {
        "paper_pairs" => paper_pairs::run(&ctx),
        "corpus_cold" => corpus_cold::run(&ctx),
        "repo_churn" => repo_churn::run(&ctx),
        _ => serve_mixed::run(&ctx),
    };
    prov.load_after = util::loadavg();

    let metrics: Vec<Metric> = if trace {
        let mut out_layers = out.layers.clone();
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = out_layers.remove(&name).unwrap_or((0.0, 0));
                Metric { name, value, unit, samples }
            })
            .collect()
    } else {
        out.end_to_end.clone()
    };
    let mut out = out;
    if let Some(names) = declared {
        let emitted: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let mut want: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut have = emitted.clone();
        want.sort_unstable();
        have.sort_unstable();
        if want != have {
            out.check(
                "metrics_match_benchmark_json",
                false,
                format!("declared {want:?}, emitted {have:?}"),
            );
        }
    }
    if let Some(t) = &out.tiling {
        let share = t.attributed();
        out.check("trace.attributed_share>=0.95", share >= 0.95, format!("{share:.4}"));
    }

    report::print_report(&workload, seed, trace, &out, &metrics, &prov);
    let line = report::record_line(&workload, seed, seconds as u64, trace, &out, &metrics, &prov);
    if let Err(e) = append_line(&record, &line) {
        eprintln!("ledger: recording to {}: {e}", record.display());
    }
    println!("{}", report::final_line(&out, &metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// The metric names `BENCHMARK.json` declares for this kind of run, if
/// the file is present; an error if it does not list the workload.
fn declared_metrics(workload: &str, trace: bool) -> Result<Option<Vec<String>>, String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(None);
    };
    let bench = json::Json::parse(&text)?;
    let listed = bench
        .get("workloads")
        .map(|w| {
            w.as_array().iter().any(|x| x.get("name").and_then(|n| n.as_str()) == Some(workload))
        })
        .unwrap_or(false);
    if !listed {
        return Err(format!("workload {workload} is not listed"));
    }
    let key = if trace { "per_layer" } else { "end_to_end" };
    let names = bench
        .get(key)
        .map(|list| {
            list.as_array()
                .iter()
                .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok(Some(names))
}
