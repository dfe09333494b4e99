//! Integration suite for the daemon's observability surface
//! (DESIGN.md §13): per-stage latency attribution, the slow-log ring,
//! and the `/metrics` exposition sharing the frame port.
//!
//! The load-bearing contract is *accounting*: the per-(kind, stage)
//! histograms must explain where the daemon's measured request wall
//! time actually goes — the suite drives a mixed workload and asserts
//! the stage sums reconstruct ≥95% of every kind's wall-histogram
//! total, which is what makes a "client p50 is 34 ms, daemon p50 is
//! 0.13 ms" gap diagnosable instead of mysterious.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use cupid::core::CupidConfig;
use cupid::lexical::Thesaurus;
use cupid::prelude::{ServeClient, ServeOptions, Server, ShutdownHandle};
use cupid::serve::{BatchItem, StatsReport, STAGE_NAMES};

/// Drains the daemon if the test body panics (see `serve_daemon.rs`).
struct DrainOnPanic(ShutdownHandle);

impl Drop for DrainOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.drain();
        }
    }
}

/// A unique, self-cleaning snapshot location per test.
struct TempSnap(PathBuf);

impl TempSnap {
    fn new() -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cupid-obs-test-{}-{}",
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

const CORPUS_SDL: &[&str] = &[
    "schema PO\n  element Item\n    attr Qty : int\n    attr Invoice : string\n",
    "schema Order\n  element Item\n    attr Quantity : int\n    attr Bill : string\n",
    "schema Sales\n  element Order\n    attr Quantity : int\n    attr OrderDate : date\n",
];

fn thesaurus() -> Thesaurus {
    Thesaurus::parse("abbrev Qty = quantity\nsyn invoice bill 1.0\n").unwrap()
}

/// Drive a mixed workload (mutations, uncached + cached matches, a
/// batch, a one-entry stats batch, top-k, saves) against a daemon with
/// `options`, then return the final stats snapshot taken *before*
/// shutdown.
fn run_workload(options: ServeOptions) -> StatsReport {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let server = Server::bind("127.0.0.1:0", &tmp.0, &config, &th, options).unwrap();
    let addr = server.local_addr();
    let mut report = None;
    std::thread::scope(|scope| {
        let guard = DrainOnPanic(server.shutdown_handle());
        scope.spawn(move || server.run().unwrap());
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            client.add_sdl(sdl).unwrap();
        }
        // Uncached, then cached, matches; a batch; discovery; a save.
        client.match_pair("PO", "Order").unwrap();
        client.match_pair("PO", "Order").unwrap();
        client
            .batch(vec![
                BatchItem::MatchPair { source: "PO".into(), target: "Sales".into() },
                BatchItem::TopK { k: 3 },
                BatchItem::Stats,
            ])
            .unwrap();
        client.batch(vec![BatchItem::Stats]).unwrap();
        client.top_k(2).unwrap();
        client.save().unwrap();
        client.stats().unwrap();
        report = Some(client.stats().unwrap());
        client.shutdown().unwrap();
        drop(guard);
    });
    report.unwrap()
}

/// The tentpole acceptance bar: for every request kind the daemon
/// served, the per-stage attribution sums reconstruct at least 95% of
/// that kind's wall-histogram total (and never exceed it by more than
/// clock-read noise).
#[test]
fn stage_sums_account_for_at_least_95_percent_of_wall_time() {
    let report = run_workload(ServeOptions::default());
    assert!(!report.stage_latencies.is_empty(), "every request is traced");
    let mut checked = 0;
    for wall in report.latencies.iter().filter(|l| l.count > 0) {
        let attributed: u64 = report
            .stage_latencies
            .iter()
            .filter(|s| s.kind.split('/').next() == Some(wall.kind.as_str()))
            .map(|s| s.total_ns)
            .sum();
        // The *last* stats request is still mid-flight when its own
        // report is snapshotted, so its stage fold lags its wall record
        // by one request; every other kind must tile tightly.
        if wall.kind == "stats" {
            continue;
        }
        assert!(
            attributed as f64 >= 0.95 * wall.total_ns as f64,
            "kind `{}`: stages explain {attributed} ns of {} ns wall (< 95%)",
            wall.kind,
            wall.total_ns
        );
        checked += 1;
    }
    assert!(checked >= 4, "workload must exercise several request kinds, saw {checked}");
    // Stage labels are well-formed: "<kind>/<stage>" with known stages.
    for s in &report.stage_latencies {
        let (_, stage) = s.kind.split_once('/').expect("label is kind/stage");
        assert!(STAGE_NAMES.contains(&stage), "unknown stage `{stage}`");
    }
}

/// A unary read — a one-entry batch, sent by the unary client calls or
/// explicitly — is recorded under its own kind, not folded into
/// `batch`.
#[test]
fn unary_reads_are_recorded_under_their_own_kind() {
    let report = run_workload(ServeOptions::default());
    let count = |kind: &str| report.latencies.iter().find(|l| l.kind == kind).map(|l| l.count);
    // `run_workload`'s traffic, less the stats request still in flight
    // when its own report is taken.
    for (kind, served) in [
        ("mutate", 3),
        ("match_pair", 2),
        ("top_k", 1),
        ("stats", 2),
        ("save", 1),
        ("batch", 1),
        ("shutdown", 0),
        ("slow_log", 0),
        ("explain", 0),
    ] {
        assert_eq!(count(kind), Some(served), "requests recorded under `{kind}`");
    }
    for wall in report.latencies.iter().filter(|l| l.count > 0) {
        for stage in ["decode", "socket_write"] {
            let label = format!("{}/{stage}", wall.kind);
            let cell = report.stage_latencies.iter().find(|s| s.kind == label);
            assert_eq!(cell.map(|s| s.count), Some(wall.count), "stage cell `{label}`");
        }
    }
}

/// Every read runs under the read guard, cached or not: executing a
/// pair fills the memo and the pair cache in place, and an explanation
/// caches nothing. So a warm daemon serves an uncached match, a batch
/// naming a fresh pair, a top-k over uncached pairs and explanations
/// without ever taking the repository's write lock: each request
/// records one read-lock wait, and no `<kind>/lock_wait_write` cell
/// appears for any read kind. Each distinct pair executes and is cached
/// once; explanations count as explanations, never as pair executions.
#[test]
fn reads_take_no_write_lock() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let guard = DrainOnPanic(server.shutdown_handle());
        scope.spawn(move || server.run().unwrap());
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            client.add_sdl(sdl).unwrap();
        }
        let before = client.stats().unwrap();
        assert_eq!(before.cached_pairs, 0);
        // Pairs by repository index, in `(i, j)` order: PO, Order, Sales.
        let mut distinct = std::collections::BTreeSet::new();
        client.match_pair("PO", "Order").unwrap();
        distinct.insert((0, 1));
        let pair = |source: &str, target: &str| BatchItem::MatchPair {
            source: source.into(),
            target: target.into(),
        };
        for entry in client.batch(vec![pair("PO", "Order"), pair("Order", "Sales")]).unwrap() {
            entry.unwrap();
        }
        distinct.insert((1, 2));
        let listing = client.top_k(3).unwrap();
        let fresh = listing.summaries.iter().map(|s| (s.source.index(), s.target.index()));
        let listed: Vec<_> = fresh.filter(|p| distinct.insert(*p)).collect();
        assert!(!listed.is_empty(), "the top-k executed no uncached pair");
        let explains = [("PO", "Order"), ("Order", "Sales"), ("Sales", "PO")];
        for (source, target) in explains {
            assert!(client.explain(source, target).unwrap().recomposes_exactly());
        }
        let after = client.stats().unwrap();
        let cell = |label: &str| after.stage_latencies.iter().find(|s| s.kind == label);
        let sent = [("match_pair", 1), ("batch", 1), ("top_k", 1), ("explain", explains.len())];
        for (kind, requests) in sent {
            let read = cell(&format!("{kind}/lock_wait_read")).map(|s| s.count);
            assert_eq!(read, Some(requests as u64), "one read-lock wait per `{kind}` request");
            let write = format!("{kind}/lock_wait_write");
            assert!(cell(&write).is_none(), "a `{kind}` read took the write lock");
        }
        let executed = after.pairs_executed - before.pairs_executed;
        assert_eq!(executed, distinct.len() as u64, "one execution per distinct pair");
        assert_eq!(after.cached_pairs - before.cached_pairs, distinct.len() as u64);
        assert_eq!(after.explanations_served, before.explanations_served + explains.len() as u64);
        client.shutdown().unwrap();
        drop(guard);
    });
}

/// The slow log retains the slowest requests (bounded, sorted, stage
/// breakdowns attached) and the stats counters agree with it.
#[test]
fn slow_log_retains_bounded_sorted_traces() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let options = ServeOptions {
        // Threshold zero: every request qualifies, so the ring must
        // demonstrably bound and keep the slowest.
        slow_threshold: Duration::from_millis(0),
        slow_log_capacity: 4,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", &tmp.0, &config, &th, options).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let guard = DrainOnPanic(server.shutdown_handle());
        scope.spawn(move || server.run().unwrap());
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            client.add_sdl(sdl).unwrap();
        }
        for _ in 0..5 {
            client.match_pair("PO", "Order").unwrap();
        }
        let entries = client.slow_log().unwrap();
        assert!(!entries.is_empty(), "threshold 0 must capture requests");
        assert!(entries.len() <= 4, "ring respects its capacity, got {}", entries.len());
        assert!(
            entries.windows(2).all(|w| w[0].total_ns >= w[1].total_ns),
            "entries are sorted slowest first"
        );
        for e in &entries {
            assert_eq!(e.stage_ns.len(), STAGE_NAMES.len());
            let attributed: u64 = e.stage_ns.iter().sum();
            assert!(attributed > 0, "slow entries carry stage breakdowns");
            assert!(
                attributed <= e.total_ns + e.total_ns / 10,
                "stages cannot exceed the request wall by more than noise: \
                 {attributed} vs {}",
                e.total_ns
            );
        }
        let stats = client.stats().unwrap();
        assert!(stats.slow_requests >= 8, "every request cleared the zero threshold");
        assert_eq!(stats.slow_log_entries, 4, "the ring is full by now");
        client.shutdown().unwrap();
        drop(guard);
    });
}

/// `GET /metrics` on the daemon's own port answers valid Prometheus
/// text covering the counters and both histogram families — and the
/// frame protocol keeps working on the next connection.
#[test]
fn metrics_endpoint_shares_the_frame_port() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let guard = DrainOnPanic(server.shutdown_handle());
        scope.spawn(move || server.run().unwrap());
        let mut client = ServeClient::connect(addr).unwrap();
        client.add_sdl(CORPUS_SDL[0]).unwrap();
        client.add_sdl(CORPUS_SDL[1]).unwrap();
        client.match_pair("PO", "Order").unwrap();

        let scrape = |path: &str| -> String {
            let mut http = std::net::TcpStream::connect(addr).unwrap();
            http.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write!(http, "GET {path} HTTP/1.1\r\nHost: cupid\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut body = String::new();
            http.read_to_string(&mut body).unwrap();
            body
        };
        let text = scrape("/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {}", &text[..60.min(text.len())]);
        assert!(text.contains("text/plain; version=0.0.4"));
        for family in [
            "cupid_requests_total",
            "cupid_schemas",
            "cupid_pairs_executed_total",
            "cupid_request_duration_seconds_bucket",
            "cupid_stage_duration_seconds_bucket",
        ] {
            assert!(text.contains(family), "missing family {family} in:\n{text}");
        }
        // Sample lines parse as `name{labels} value`.
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
        }
        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));

        // The frame protocol still works, and the scrapes were counted.
        let mut after = ServeClient::connect(addr).unwrap();
        let stats = after.stats().unwrap();
        assert_eq!(stats.metrics_scrapes, 1, "only /metrics counts as a scrape");
        after.shutdown().unwrap();
        drop(guard);
    });
}
