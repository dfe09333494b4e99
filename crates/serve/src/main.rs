//! `cupid-serve` — the match daemon's command line.
//!
//! Daemon mode (the default) runs a [`cupid_serve::Server`] over a
//! repository snapshot with the default matcher configuration and the
//! default-stopword thesaurus:
//!
//! ```text
//! cupid-serve <addr> <repo-path> [--max-conns N] [--autosave N] [--compact-after N]
//!             [--max-inflight N] [--queue-deadline MS] [--idle-timeout MS] [--frame-deadline MS]
//!             [--slow-log-capacity N] [--slow-threshold-ms MS] [--log-level LEVEL]
//! ```
//!
//! `--max-inflight` / `--queue-deadline` enable admission control
//! (shed with a typed `Overloaded` frame instead of queueing);
//! `--idle-timeout` / `--frame-deadline` bound how long a silent or
//! stalling peer can hold a connection (DESIGN.md §12). The
//! observability knobs (DESIGN.md §13) tune the slow-log ring and the
//! structured stderr log; per-request stage tracing is always on. The
//! daemon also answers `GET /metrics` on its own port with a Prometheus
//! text exposition.
//!
//! Client mode sends one request to a running daemon and prints the
//! reply:
//!
//! ```text
//! cupid-serve --client <addr> stats
//! cupid-serve --client <addr> slowlog
//! cupid-serve --client <addr> add <schema.sdl>
//! cupid-serve --client <addr> replace <schema.sdl>
//! cupid-serve --client <addr> remove <name>
//! cupid-serve --client <addr> match <source> <target>
//! cupid-serve --client <addr> explain <source> <target>
//! cupid-serve --client <addr> topk <k>
//! cupid-serve --client <addr> save
//! cupid-serve --client <addr> shutdown
//! ```

use cupid_core::CupidConfig;
use cupid_lexical::Thesaurus;
use cupid_serve::{Level, ServeClient, ServeOptions, Server, STAGE_NAMES};

const USAGE: &str = "usage:
  cupid-serve <addr> <repo-path> [--max-conns N] [--autosave N] [--compact-after N]
              [--max-inflight N] [--queue-deadline MS] [--idle-timeout MS] [--frame-deadline MS]
              [--slow-log-capacity N] [--slow-threshold-ms MS] [--log-level LEVEL]
  cupid-serve --client <addr> <command> [args]

daemon flags:
  --max-conns N        concurrent connection cap (default 64)
  --autosave N         fsync the journal every N mutations
  --compact-after N    fold the journal into a snapshot at N records
  --max-inflight N     admission control: at most N requests execute at
                       once; arrivals over the cap are shed with a typed
                       Overloaded frame after --queue-deadline
  --queue-deadline MS  how long a request may wait for a slot (default 100)
  --idle-timeout MS    close connections idle between frames this long
                       (default 300000; 0 disables)
  --frame-deadline MS  cut connections stalled mid-frame this long
                       (default 30000; 0 disables)
  --slow-log-capacity N  slowest traces retained for `slowlog` (default
                       32; 0 disables the ring)
  --slow-threshold-ms MS  requests at least this slow enter the slow
                       log (default 1)
  --log-level LEVEL    structured stderr log level: debug, info, warn,
                       error, off (default info)

the daemon also answers HTTP `GET /metrics` on the same port with a
Prometheus text exposition of every counter and histogram.

client commands:
  stats                      daemon counters, latency and stage tables
  slowlog                    the slowest retained requests, stage by stage
  add <schema.sdl>           add a schema from an SDL file
  replace <schema.sdl>       replace the schema with the same name
  remove <name>              remove a schema
  match <source> <target>    match one stored pair
  explain <source> <target>  per-mapping score provenance for one pair
  topk <k>                   index-pruned top-k discovery
  save                       persist the snapshot now
  shutdown                   stop the daemon (it saves on the way out)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--client") {
        run_client(&args[1..])
    } else {
        run_daemon(&args)
    };
    if let Err(message) = result {
        eprintln!("cupid-serve: {message}");
        std::process::exit(1);
    }
}

fn run_daemon(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut options = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-conns" => {
                options.max_connections = flag_value(args, &mut i, "--max-conns")? as usize;
            }
            "--autosave" => {
                options.autosave_every = Some(flag_value(args, &mut i, "--autosave")?);
            }
            "--compact-after" => {
                options.compact_after = Some(flag_value(args, &mut i, "--compact-after")?);
            }
            "--max-inflight" => {
                options.max_inflight = Some(flag_value(args, &mut i, "--max-inflight")? as usize);
            }
            "--queue-deadline" => {
                options.queue_deadline =
                    std::time::Duration::from_millis(flag_value(args, &mut i, "--queue-deadline")?);
            }
            "--idle-timeout" => {
                let ms = flag_value(args, &mut i, "--idle-timeout")?;
                options.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--frame-deadline" => {
                let ms = flag_value(args, &mut i, "--frame-deadline")?;
                options.frame_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--slow-log-capacity" => {
                options.slow_log_capacity =
                    flag_value(args, &mut i, "--slow-log-capacity")? as usize;
            }
            "--slow-threshold-ms" => {
                options.slow_threshold = std::time::Duration::from_millis(flag_value(
                    args,
                    &mut i,
                    "--slow-threshold-ms",
                )?);
            }
            "--log-level" => {
                i += 1;
                options.log_level = args.get(i).and_then(|v| Level::parse(v)).ok_or_else(|| {
                    "--log-level needs one of: debug, info, warn, error, off".to_string()
                })?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let [addr, repo_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let config = CupidConfig::default();
    let thesaurus = Thesaurus::with_default_stopwords();
    let server = Server::bind(addr.as_str(), repo_path, &config, &thesaurus, options)
        .map_err(|e| e.to_string())?;
    println!(
        "cupid-serve: listening on {} over {}",
        server.local_addr(),
        server.repo_path().display()
    );
    server.run().map_err(|e| e.to_string())?;
    println!("cupid-serve: shut down, snapshot saved");
    Ok(())
}

/// Render nanoseconds with a unit the eye can scan in a table:
/// sub-microsecond stays in ns, sub-millisecond in µs, the rest in ms.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    }
}

/// Render a token-pair similarity's source for the explain table.
fn provenance_label(p: &cupid_lexical::TokenSimProvenance) -> String {
    match p {
        cupid_lexical::TokenSimProvenance::ExactSymbol => "exact symbol".into(),
        cupid_lexical::TokenSimProvenance::Thesaurus => "thesaurus".into(),
        cupid_lexical::TokenSimProvenance::Affix { prefix_len, suffix_len, capped } => format!(
            "affix (prefix {prefix_len}, suffix {suffix_len}{})",
            if *capped { ", capped" } else { "" }
        ),
        cupid_lexical::TokenSimProvenance::NoMatch => "no match".into(),
    }
}

fn flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    *i += 1;
    args.get(*i).and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} needs a numeric value"))
}

fn run_client(args: &[String]) -> Result<(), String> {
    let [addr, command, rest @ ..] = args else {
        return Err(USAGE.to_string());
    };
    let mut client = ServeClient::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let remote = |e: cupid_serve::ServeError| e.to_string();
    match (command.as_str(), rest) {
        ("stats", []) => {
            let s = client.stats().map_err(remote)?;
            for (series, _, _, value) in s.counters() {
                println!("{series} {value}");
            }
            if !s.last_fsync_error.is_empty() {
                println!("DEGRADED: last fsync error: {}", s.last_fsync_error);
            }
            let served: Vec<_> = s.latencies.iter().filter(|l| l.count > 0).collect();
            if !served.is_empty() {
                println!("latency (per request kind, log2 buckets):");
                println!(
                    "  {:<12} {:>9} {:>10} {:>10} {:>10} {:>10}",
                    "kind", "count", "mean", "p50", "p99", "p999"
                );
                for l in served {
                    println!(
                        "  {:<12} {:>9} {:>10} {:>10} {:>10} {:>10}",
                        l.kind,
                        l.count,
                        fmt_ns(l.mean_ns()),
                        fmt_ns(l.quantile_ns(0.50)),
                        fmt_ns(l.quantile_ns(0.99)),
                        fmt_ns(l.quantile_ns(0.999))
                    );
                }
            }
            if !s.stage_latencies.is_empty() {
                println!("stage attribution (share of each kind's total wall time):");
                println!(
                    "  {:<28} {:>9} {:>10} {:>10} {:>7}",
                    "kind/stage", "count", "total", "mean", "share"
                );
                for stage in &s.stage_latencies {
                    let kind = stage.kind.split('/').next().unwrap_or("");
                    let kind_total_ns = s
                        .latencies
                        .iter()
                        .find(|l| l.kind == kind)
                        .map(|l| l.total_ns)
                        .unwrap_or(0);
                    let share = if kind_total_ns > 0 {
                        100.0 * stage.total_ns as f64 / kind_total_ns as f64
                    } else {
                        0.0
                    };
                    println!(
                        "  {:<28} {:>9} {:>10} {:>10} {:>6.1}%",
                        stage.kind,
                        stage.count,
                        fmt_ns(stage.total_ns),
                        fmt_ns(stage.mean_ns()),
                        share
                    );
                }
            }
        }
        ("slowlog", []) => {
            let entries = client.slow_log().map_err(remote)?;
            if entries.is_empty() {
                println!("slow log is empty (no request cleared the daemon's threshold)");
            }
            for e in &entries {
                println!(
                    "trace {}  {}  total {}  finished@{}ms",
                    e.trace_id,
                    e.kind,
                    fmt_ns(e.total_ns),
                    e.finished_unix_ms
                );
                for (name, &ns) in STAGE_NAMES.iter().zip(&e.stage_ns) {
                    if ns > 0 {
                        println!(
                            "  {:<16} {:>10}  {:>5.1}%",
                            name,
                            fmt_ns(ns),
                            100.0 * ns as f64 / e.total_ns.max(1) as f64
                        );
                    }
                }
            }
        }
        ("add", [file]) => {
            let sdl = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            println!("added `{}`", client.add_sdl(&sdl).map_err(remote)?);
        }
        ("replace", [file]) => {
            let sdl = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            println!("replaced `{}`", client.replace_sdl(&sdl).map_err(remote)?);
        }
        ("remove", [name]) => {
            client.remove(name).map_err(remote)?;
            println!("removed `{name}`");
        }
        ("match", [source, target]) => {
            let summary = client.match_pair(source, target).map_err(remote)?;
            println!(
                "{source} ~ {target}: best wsim {:.3}, {} leaf mappings",
                summary.best_wsim(),
                summary.leaf_mappings.len()
            );
            for m in summary.leaf_mappings.iter().take(10) {
                println!("  {} -> {}  (wsim {:.3})", m.source_path, m.target_path, m.wsim);
            }
        }
        ("explain", [source, target]) => {
            let x = client.explain(source, target).map_err(remote)?;
            println!(
                "{} ~ {}: {} mappings explained  \
                 (compared {} of {} element pairs; {} increases, {} decreases)",
                x.source_name,
                x.target_name,
                x.mappings.len(),
                x.compared_pairs,
                x.total_pairs,
                x.increases,
                x.decreases
            );
            for m in &x.mappings {
                println!(
                    "{} -> {}  {}",
                    m.source_path,
                    m.target_path,
                    if m.leaf { "[leaf]" } else { "[non-leaf]" }
                );
                println!(
                    "  wsim {:.4} = {:.2}*ssim {:.4} + {:.2}*lsim {:.4}  \
                     (th_accept {:.2}, recomposes {})",
                    m.wsim,
                    m.w_struct,
                    m.ssim,
                    1.0 - m.w_struct,
                    m.lsim,
                    m.th_accept,
                    if m.recomposes_exactly() { "bit-exactly" } else { "INEXACTLY" }
                );
                println!(
                    "  lsim = ns {:.4} x category scale {:.4}",
                    m.name_similarity, m.category_scale
                );
                let s = &m.structure;
                let passes = match (s.pruned, s.increased, s.decreased) {
                    (true, ..) => "pruned",
                    (_, true, _) => "increased",
                    (_, _, true) => "decreased",
                    _ => "unchanged",
                };
                println!(
                    "  structure: leaves {}/{}  strong links {}/{}  \
                     main-pass wsim {:.4} ({passes})",
                    s.source_leaves,
                    s.target_leaves,
                    s.source_strong_links,
                    s.target_strong_links,
                    s.main_pass_wsim
                );
                if !m.token_pairs.is_empty() {
                    println!(
                        "  {:<16} {:<16} {:<8} {:>7}  provenance",
                        "source token", "target token", "type", "sim"
                    );
                    for t in &m.token_pairs {
                        println!(
                            "  {:<16} {:<16} {:<8} {:>7.4}  {}",
                            t.source_token,
                            t.target_token,
                            format!("{:?}", t.token_type).to_lowercase(),
                            t.sim,
                            provenance_label(&t.provenance)
                        );
                    }
                }
            }
        }
        ("topk", [k]) => {
            let k: usize = k.parse().map_err(|_| "topk needs a number".to_string())?;
            let listing = client.top_k(k).map_err(remote)?;
            println!("{} candidate pairs executed:", listing.summaries.len());
            let mut ranked: Vec<_> = listing.summaries.iter().collect();
            ranked.sort_by(|a, b| {
                b.best_wsim().partial_cmp(&a.best_wsim()).unwrap_or(std::cmp::Ordering::Equal)
            });
            for s in ranked.iter().take(10) {
                println!(
                    "  {} ~ {}  best wsim {:.3}",
                    listing.names[s.source.index()],
                    listing.names[s.target.index()],
                    s.best_wsim()
                );
            }
        }
        ("save", []) => {
            println!("snapshot saved ({} bytes)", client.save().map_err(remote)?);
        }
        ("shutdown", []) => {
            client.shutdown().map_err(remote)?;
            println!("daemon shutting down");
        }
        _ => return Err(format!("unknown client command `{command}`\n{USAGE}")),
    }
    Ok(())
}
