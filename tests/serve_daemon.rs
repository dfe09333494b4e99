//! Integration suite for the match daemon (DESIGN.md §9).
//!
//! The daemon's contract is the repository's, one network hop out: a
//! response must be **bit-identical** to the same operation run
//! in-process. The main test drives N concurrent clients over every
//! schema pair and compares each wire-decoded [`MatchSummary`] —
//! similarity `f64`s included — against a direct
//! [`cupid::core::MatchSession`] over the same corpus; top-k discovery
//! is compared against a direct [`Repository`]. Lifecycle tests cover
//! mutation-under-traffic, persistence across daemon restarts, error
//! responses, and the on-disk single-writer lock held while the daemon
//! runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use cupid::core::{CupidConfig, MatchSession, MatchSummary};
use cupid::io::parse_sdl;
use cupid::lexical::Thesaurus;
use cupid::model::Schema;
use cupid::prelude::{RepoError, Repository, ServeClient, ServeOptions, Server, ShutdownHandle};
use cupid::repo::RepoLock;
use cupid::serve::{BatchItem, BatchOutcome, ClientBuilder, ServeError, ServePool};

/// Drains the daemon if the test body panics. The daemon runs on a
/// scoped thread; without the guard, a failed assertion in the body
/// would leave `thread::scope` joining a daemon that never hears a
/// shutdown — the suite hangs instead of failing. Construct it
/// *inside* the scope closure (guards outside drop only after the
/// join).
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
            "cupid-serve-test-{}-{}",
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

/// The corpus travels as SDL text — the same bytes the clients ship —
/// so daemon and in-process sides prepare literally identical schemas.
const CORPUS_SDL: &[&str] = &[
    "schema PO\n  element Item\n    attr Qty : int\n    attr Invoice : string\n",
    "schema Order\n  element Item\n    attr Quantity : int\n    attr Bill : string\n",
    "schema Sales\n  element Order\n    attr Quantity : int\n    attr OrderDate : date\n",
    "schema Customer\n  element Person\n    attr CustomerName : string\n    attr Phone : string\n",
    "schema Client\n  element Person\n    attr ClientName : string\n    attr Telephone : string\n",
    "schema Misc\n  element Thing\n    attr Unrelated : decimal\n",
];

fn thesaurus() -> Thesaurus {
    Thesaurus::parse(
        "abbrev Qty = quantity\n\
         syn invoice bill 1.0\n\
         syn phone telephone 1.0\n\
         syn customer client 0.9\n",
    )
    .unwrap()
}

fn corpus() -> Vec<Schema> {
    CORPUS_SDL.iter().map(|sdl| parse_sdl(sdl).unwrap()).collect()
}

/// Expected summaries from a direct in-process session: name pair →
/// summary, both orientations executed exactly as the daemon would.
fn expected_pairs(config: &CupidConfig, th: &Thesaurus) -> Vec<((String, String), MatchSummary)> {
    let corpus = corpus();
    let mut session = MatchSession::new(config, th);
    let ids = session.add_corpus(&corpus).unwrap();
    let mut out = Vec::new();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            let summary = session.match_pair(ids[i], ids[j]);
            out.push(((corpus[i].name().to_string(), corpus[j].name().to_string()), summary));
        }
    }
    out
}

#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();

    // In-process ground truth.
    let want_pairs = expected_pairs(&config, &th);
    let want_topk = {
        let other = TempSnap::new();
        let mut repo = Repository::open_or_create(&other.0, &config, &th).unwrap();
        repo.add_corpus(&corpus()).unwrap();
        repo.top_k_pairs(2)
    };

    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);

        // One client populates the corpus.
        let mut setup = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            setup.add_sdl(sdl).unwrap();
        }

        // Three concurrent clients each run the full pair worklist and
        // a top-k, in different orders so cached and uncached serves
        // interleave across the read/write split.
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let want_pairs = &want_pairs;
                let want_topk = &want_topk;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let mut order: Vec<usize> = (0..want_pairs.len()).collect();
                    if c % 2 == 1 {
                        order.reverse();
                    }
                    for idx in order {
                        let ((source, target), want) = &want_pairs[idx];
                        let got = client.match_pair(source, target).unwrap();
                        assert_eq!(
                            &got, want,
                            "client {c}: daemon summary for {source}~{target} diverged"
                        );
                    }
                    let listing = client.top_k(2).unwrap();
                    assert_eq!(listing.summaries, *want_topk, "client {c}: top-k diverged");
                    assert_eq!(
                        listing.names,
                        CORPUS_SDL
                            .iter()
                            .map(|s| parse_sdl(s).unwrap().name().to_string())
                            .collect::<Vec<_>>()
                    );
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();

        // Counters: 45 match requests across the clients collapse to
        // ~15 executions. Two clients racing on the same uncached pair
        // may both execute it before either caches it (benign: identical
        // summaries), so the exact count is bounded, not fixed.
        let stats = setup.stats().unwrap();
        assert_eq!(stats.schemas, 6);
        assert!(
            (15..=45).contains(&stats.pairs_executed),
            "expected ~15 executions, got {}",
            stats.pairs_executed
        );
        let saved = setup.save().unwrap();
        assert!(saved > 0);
        setup.shutdown().unwrap();
        drop(setup);
        for r in results {
            r.unwrap();
        }
    });

    // The daemon released the repository lock and persisted its state:
    // a direct reopen serves every pair from the snapshot cache.
    let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
    assert!(warm.was_loaded());
    for ((source, target), want) in &want_pairs {
        assert_eq!(&warm.match_pair(source, target).unwrap(), want);
    }
    assert_eq!(warm.pairs_executed(), 0, "daemon snapshot already covers all pairs");
}

/// The tentpole contract of the batched wire path: a cold batch —
/// executed under one read-lock acquisition over the one shared memo
/// — returns summaries bit-identical to in-process matching (and hence
/// to unary daemon requests, which the suite above pins to the same
/// ground truth), a mid-batch invalid schema name fails only its own
/// entry with the exact unary error string, and the per-kind latency
/// histograms surface through `Stats`.
#[test]
fn batched_requests_match_unary_bit_for_bit() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let want_pairs = expected_pairs(&config, &th);

    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let pool = ServePool::new(addr.to_string(), 2);
        {
            let mut setup = pool.checkout().unwrap();
            for sdl in CORPUS_SDL {
                setup.add_sdl(sdl).unwrap();
            }
        }
        assert_eq!(pool.idle(), 1, "healthy connection checked back in");

        // One cold batch: every pair, with an invalid entry wedged in
        // the middle, then a top-k probe and a stats probe.
        let mut client = pool.checkout().unwrap();
        assert_eq!(pool.live(), 1, "checkout reuses the parked connection");
        let mut items: Vec<BatchItem> = want_pairs
            .iter()
            .map(|((s, t), _)| BatchItem::MatchPair { source: s.clone(), target: t.clone() })
            .collect();
        let bad_at = items.len() / 2;
        items.insert(bad_at, BatchItem::MatchPair { source: "PO".into(), target: "Nope".into() });
        items.push(BatchItem::TopK { k: 2 });
        items.push(BatchItem::Stats);
        let entries = client.batch(items).unwrap();
        assert_eq!(entries.len(), want_pairs.len() + 3);
        // The top-k entry's pairs all repeat match entries: each
        // distinct pair executed once for the whole frame.
        assert_eq!(client.stats().unwrap().pairs_executed, want_pairs.len() as u64);

        let mut want_iter = want_pairs.iter();
        for (pos, entry) in entries.iter().take(want_pairs.len() + 1).enumerate() {
            if pos == bad_at {
                let message = entry.as_ref().expect_err("invalid entry must fail alone");
                let unary = client.match_pair("PO", "Nope").unwrap_err();
                match unary {
                    ServeError::Remote(unary_message) => assert_eq!(
                        message, &unary_message,
                        "batch entry error must equal the unary error"
                    ),
                    other => panic!("unary error of unexpected kind: {other:?}"),
                }
                continue;
            }
            let ((s, t), want) = want_iter.next().unwrap();
            match entry {
                Ok(BatchOutcome::Matched { source, target, summary }) => {
                    assert_eq!((source, target), (s, t));
                    assert_eq!(summary, want, "batched {s}~{t} diverged from in-process");
                }
                other => panic!("expected Matched for {s}~{t}, got {other:?}"),
            }
        }

        // The top-k entry equals a unary top-k on the warmed daemon.
        let unary_topk = client.top_k(2).unwrap();
        match &entries[want_pairs.len() + 1] {
            Ok(BatchOutcome::TopKList { names, summaries }) => {
                assert_eq!(names, &unary_topk.names);
                assert_eq!(summaries, &unary_topk.summaries, "batched top-k diverged");
            }
            other => panic!("expected TopKList, got {other:?}"),
        }
        assert!(matches!(
            &entries[want_pairs.len() + 2],
            Ok(BatchOutcome::Stats(report)) if report.schemas == 6
        ));

        // Unary requests after the batch are cache hits on the batch's
        // published summaries — same bits again.
        for ((s, t), want) in &want_pairs {
            assert_eq!(&client.match_pair(s, t).unwrap(), want);
        }

        // The convenience batchers agree with everything above.
        let pairs: Vec<(String, String)> =
            want_pairs.iter().map(|((s, t), _)| (s.clone(), t.clone())).collect();
        for (got, (_, want)) in client.match_pairs(&pairs).unwrap().iter().zip(&want_pairs) {
            assert_eq!(got.as_ref().unwrap(), want);
        }
        let listings = client.top_k_many(&[2, 2]).unwrap();
        assert_eq!(listings.len(), 2);
        for listing in listings {
            assert_eq!(listing.unwrap().summaries, unary_topk.summaries);
        }

        // Per-kind latency histograms surface through Stats.
        let stats = client.stats().unwrap();
        let kinds: Vec<&str> = stats.latencies.iter().map(|l| l.kind.as_str()).collect();
        for kind in ["mutate", "match_pair", "top_k", "stats", "save", "batch", "shutdown"] {
            assert!(kinds.contains(&kind), "missing latency kind {kind} in {kinds:?}");
        }
        let batch_lat = stats.latencies.iter().find(|l| l.kind == "batch").unwrap();
        assert!(batch_lat.count >= 3, "three batches served, got {}", batch_lat.count);
        assert!(batch_lat.quantile_ns(0.5) > 0);
        assert!(batch_lat.quantile_ns(0.999) >= batch_lat.quantile_ns(0.5));
        assert!(batch_lat.mean_ns() > 0);

        client.shutdown().unwrap();
    });
}

/// A daemon that accepts but never answers must not park the client
/// forever: the read timeout surfaces as a typed `DeadlineExceeded`,
/// the connection is poisoned, and its pool evicts it on checkin
/// instead of handing the desynchronized stream to the next checkout.
#[test]
fn read_timeout_fails_loudly_and_pool_evicts_broken_connections() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let pool = ServePool::with_builder(
        addr.to_string(),
        2,
        ClientBuilder::new()
            .connect_timeout(Duration::from_secs(10))
            .read_timeout(Duration::from_millis(50)),
    );
    let mut client = pool.checkout().unwrap();
    assert_eq!(pool.live(), 1);
    let err = client.stats().unwrap_err();
    assert!(
        matches!(err, ServeError::DeadlineExceeded),
        "timeout must be typed DeadlineExceeded: {err:?}"
    );
    assert!(err.is_retryable(), "a deadline expiry is worth retrying");
    assert!(client.is_poisoned());
    // Poisoned clients refuse further exchanges instead of reading
    // from a desynchronized stream (typed too, for pool diagnostics).
    assert!(matches!(client.stats().unwrap_err(), ServeError::Poisoned));
    drop(client);
    assert_eq!(pool.live(), 0, "poisoned connection evicted on checkin");
    assert_eq!(pool.idle(), 0);
    drop(listener);
}

#[test]
fn daemon_holds_the_single_writer_lock() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        // While the daemon runs, a second writer is refused loudly.
        match Repository::open_or_create(&tmp.0, &config, &th) {
            Err(RepoError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked while the daemon runs, got {other:?}"),
        }
        ServeClient::connect(addr).unwrap().shutdown().unwrap();
    });
    // After shutdown the lock is released.
    assert!(Repository::open_or_create(&tmp.0, &config, &th).is_ok());
}

#[test]
fn mutations_errors_and_restart() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();

    // Expected state after the replace: PO edited to carry a Total.
    let edited_po = "schema PO\n  element Item\n    attr Qty : int\n    attr Total : decimal\n";
    let want_after_replace = {
        let mut fresh = corpus();
        fresh[0] = parse_sdl(edited_po).unwrap();
        let mut session = MatchSession::new(&config, &th);
        let ids = session.add_corpus(&fresh).unwrap();
        session.match_pair(ids[0], ids[1])
    };

    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            client.add_sdl(sdl).unwrap();
        }

        // Error responses keep the connection usable.
        assert!(matches!(
            client.match_pair("PO", "Nope"),
            Err(cupid::serve::ServeError::Remote(m)) if m.contains("Nope")
        ));
        assert!(matches!(
            client.add_sdl(CORPUS_SDL[0]),
            Err(cupid::serve::ServeError::Remote(m)) if m.contains("already")
        ));
        assert!(matches!(
            client.replace_sdl("schema Ghost\n  element X\n    attr Y : int\n"),
            Err(cupid::serve::ServeError::Remote(_))
        ));
        assert!(client.match_pair("PO", "Order").is_ok(), "connection survives errors");

        // Replace re-matches incrementally; the response equals a cold
        // in-process rebuild with the edited corpus.
        client.replace_sdl(edited_po).unwrap();
        assert_eq!(client.match_pair("PO", "Order").unwrap(), want_after_replace);

        // Remove shrinks the corpus.
        client.remove("Misc").unwrap();
        assert_eq!(client.stats().unwrap().schemas, 5);
        assert!(matches!(
            client.match_pair("PO", "Misc"),
            Err(cupid::serve::ServeError::Remote(_))
        ));

        client.shutdown().unwrap();
    });

    // Restart the daemon over the saved snapshot: state survives.
    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let mut client = ServeClient::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.schemas, 5, "restarted daemon loads the saved corpus");
        assert_eq!(stats.pairs_executed, 0);
        assert_eq!(
            client.match_pair("PO", "Order").unwrap(),
            want_after_replace,
            "cached pair served across daemon restarts, bit-identical"
        );
        assert_eq!(client.stats().unwrap().pairs_executed, 0, "served from the snapshot cache");
        client.shutdown().unwrap();
    });
}

/// Replaces over the wire evict the summaries they strand. After each
/// replace, a read of the replaced schema's pairs serves what a fresh
/// in-process session computes, and the Stats frame counts exactly the
/// distinct live pairs read so far, never more than N(N−1)/2.
#[test]
fn replaces_keep_the_daemon_cache_within_the_live_corpus() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let mut live: Vec<String> = CORPUS_SDL.iter().map(|sdl| sdl.to_string()).collect();
    let names: Vec<String> = corpus().iter().map(|s| s.name().to_string()).collect();
    let n = names.len();

    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in &live {
            client.add_sdl(sdl).unwrap();
        }
        // The pairs read since either schema last changed, as (i < j).
        let mut read = std::collections::BTreeSet::new();
        for round in 0..2 * n {
            let t = round % n;
            live[t] = format!(
                "schema {}\n  element Item\n    attr Qty : int\n    attr Field{round} : string\n",
                names[t]
            );
            client.replace_sdl(&live[t]).unwrap();
            read.retain(|&(a, b)| a != t && b != t);
            let pairs: Vec<(usize, usize)> =
                (0..n).filter(|&j| j != t).map(|j| (t.min(j), t.max(j))).collect();
            let named: Vec<(&str, &str)> =
                pairs.iter().map(|&(a, b)| (names[a].as_str(), names[b].as_str())).collect();
            let got = client.match_pairs(&named).unwrap();
            let schemas: Vec<Schema> = live.iter().map(|sdl| parse_sdl(sdl).unwrap()).collect();
            let mut session = MatchSession::new(&config, &th);
            let ids = session.add_corpus(&schemas).unwrap();
            for (&(a, b), summary) in pairs.iter().zip(got) {
                let want = session.match_pair(ids[a], ids[b]);
                assert_eq!(summary.unwrap(), want, "round {round}: {}~{}", names[a], names[b]);
            }
            read.extend(pairs);
            let cached = client.stats().unwrap().cached_pairs as usize;
            assert!(cached <= n * (n - 1) / 2, "round {round}: {cached} pairs cached");
            assert_eq!(cached, read.len(), "round {round}: the replace evicted what it stranded");
        }
        assert_eq!(read.len(), n * (n - 1) / 2, "every pair was read since its last replace");
        client.shutdown().unwrap();
    });
}

/// Process-mode daemon used by [`restart_under_load_loses_no_acked_mutation`]:
/// a no-op under the normal test run, a real `--autosave 1` daemon when
/// re-executed with the child environment set. The bound address is
/// published through an atomically renamed file.
#[test]
fn daemon_child_entry() {
    let Ok(snap) = std::env::var("CUPID_DAEMON_CHILD_SNAP") else { return };
    let addr_file = std::env::var("CUPID_DAEMON_CHILD_ADDR").unwrap();
    let config = CupidConfig::default();
    let th = thesaurus();
    let options = ServeOptions { autosave_every: Some(1), ..ServeOptions::default() };
    let server = Server::bind("127.0.0.1:0", Path::new(&snap), &config, &th, options).unwrap();
    let tmp = format!("{addr_file}.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).unwrap();
    std::fs::rename(&tmp, &addr_file).unwrap();
    server.run().unwrap();
}

/// Re-execute this test binary as a daemon child and wait for its
/// address.
fn spawn_daemon_child(snap: &Path, addr_file: &Path) -> (std::process::Child, String) {
    std::fs::remove_file(addr_file).ok();
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["daemon_child_entry", "--exact", "--nocapture"])
        .env("CUPID_DAEMON_CHILD_SNAP", snap)
        .env("CUPID_DAEMON_CHILD_ADDR", addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .unwrap();
    let start = std::time::Instant::now();
    loop {
        if let Ok(addr) = std::fs::read_to_string(addr_file) {
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("daemon child exited before binding: {status}");
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon child never published its address"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// SIGKILL under concurrent load, relaunch on the same path: the OS
/// released the dead process's lock, so the new daemon takes it, and
/// every *acknowledged* mutation survives — with `--autosave 1`, a
/// response is not written until its journal record is fsynced, so at
/// most each writer's one unacknowledged request may be lost.
#[test]
fn restart_under_load_loses_no_acked_mutation() {
    let tmp = TempSnap::new();
    let addr_file = tmp.0.parent().unwrap().join("addr");
    let (child, addr) = spawn_daemon_child(&tmp.0, &addr_file);
    let child = std::sync::Mutex::new(child);

    // Three writers on disjoint name spaces plus one reader, while a
    // killer thread SIGKILLs the daemon mid-stream.
    let sdl_for = |c: usize, i: usize| {
        format!("schema W{c}N{i}\n  element Item\n    attr V{i} : int\n    attr Qty : int\n")
    };
    let mut acked: Vec<Vec<(String, String)>> = Vec::new(); // (name, sdl) per writer
    std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(25));
            child.lock().unwrap().kill().ok();
        });
        let reader = {
            let addr = addr.clone();
            scope.spawn(move || {
                let Ok(mut client) = ServeClient::connect(addr.as_str()) else { return };
                // Read load racing the writers; remote errors (unknown
                // names, severed connection) are part of the weather.
                loop {
                    if client.stats().is_err() {
                        return;
                    }
                    if client.match_pair("W0N0", "W1N0").is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        };
        let writers: Vec<_> = (0..3)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr.as_str()).unwrap();
                    let mut acked = Vec::new();
                    for i in 0..40 {
                        let sdl = sdl_for(c, i);
                        match client.add_sdl(&sdl) {
                            Ok(name) => acked.push((name, sdl)),
                            Err(_) => break, // the kill severed us
                        }
                    }
                    acked
                })
            })
            .collect();
        acked = writers.into_iter().map(|w| w.join().unwrap()).collect();
        killer.join().unwrap();
        child.lock().unwrap().wait().unwrap();
        reader.join().unwrap();
    });
    let acked_total: usize = acked.iter().map(Vec::len).sum();
    assert!(acked_total > 0, "some mutations must land before the kill");
    assert!(
        RepoLock::lock_path(&tmp.0).exists(),
        "the killed daemon's lock file stays on disk; the OS released the lock"
    );

    // Relaunch on the same path: the fresh daemon process takes the
    // lock its dead predecessor's file still names and replays the
    // journal.
    let (mut child, addr) = spawn_daemon_child(&tmp.0, &addr_file);
    let mut client = ServeClient::connect(addr.as_str()).unwrap();
    let stats = client.stats().unwrap();
    // Each writer may have one unacknowledged add in flight at the kill.
    let plausible = acked_total as u64..=acked_total as u64 + 3;
    assert!(
        plausible.contains(&stats.schemas),
        "expected {acked_total}..={} schemas after recovery, got {}",
        acked_total + 3,
        stats.schemas
    );
    assert!(
        plausible.contains(&stats.replayed_records),
        "every acked mutation replays from the journal (acked {acked_total}, replayed {})",
        stats.replayed_records
    );
    client.shutdown().unwrap();
    child.wait().unwrap();

    // Offline content check: every acknowledged add survives with
    // byte-identical schema content.
    let config = CupidConfig::default();
    let th = thesaurus();
    let repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
    assert_eq!(repo.durability().replayed_records, 0, "shutdown folded the journal");
    for (name, sdl) in acked.iter().flatten() {
        let got = repo.schema(name).unwrap_or_else(|| panic!("acked schema `{name}` lost"));
        assert_eq!(
            got.content_hash(),
            parse_sdl(sdl).unwrap().content_hash(),
            "acked schema `{name}` changed across the crash"
        );
    }
}

#[test]
fn autosave_journals_mutations_and_snapshots_at_shutdown() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let options = ServeOptions { autosave_every: Some(1), ..ServeOptions::default() };
    let server = Server::bind("127.0.0.1:0", &tmp.0, &config, &th, options).unwrap();
    let addr = server.local_addr();
    let journal = cupid::repo::journal::journal_path(&tmp.0);
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let mut client = ServeClient::connect(addr).unwrap();
        let header_only = std::fs::metadata(&journal).unwrap().len();

        client.add_sdl(CORPUS_SDL[0]).unwrap();
        let after_one = std::fs::metadata(&journal).unwrap().len();
        assert!(after_one > header_only, "the acked mutation is on disk in the journal");
        assert!(!tmp.0.exists(), "autosave appends a journal record, not a snapshot rewrite");

        client.add_sdl(CORPUS_SDL[1]).unwrap();
        assert!(std::fs::metadata(&journal).unwrap().len() > after_one);
        let stats = client.stats().unwrap();
        assert_eq!(stats.journal_records, 2);
        assert!(stats.journal_bytes > 0);
        assert_eq!(stats.last_fsync_error, "", "healthy daemon reports no fsync error");

        client.shutdown().unwrap();
    });

    // Shutdown folded the journal into a snapshot; a direct reopen
    // loads it without replaying anything.
    assert!(tmp.0.exists(), "the shutdown save writes the snapshot");
    let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
    assert!(warm.was_loaded());
    assert_eq!(warm.len(), 2);
    assert_eq!(warm.durability().replayed_records, 0, "journal was folded at shutdown");
}

/// The explainability contract (DESIGN.md §14), one network hop out:
/// a served explanation equals the in-process one field for field,
/// every mapping recomposes to its reported `wsim` bit-exactly, and
/// explain requests leave the match path untouched — they fill no pair
/// cache, count no pair executions, and the summaries served afterward
/// are bit-identical to the explain-free ground truth.
#[test]
fn explanations_recompose_and_leave_match_output_untouched() {
    let tmp = TempSnap::new();
    let config = CupidConfig::default();
    let th = thesaurus();
    let want_pairs = expected_pairs(&config, &th);

    // In-process explanation ground truth over the same corpus.
    let want_explained = {
        let corpus = corpus();
        let mut session = MatchSession::new(&config, &th);
        let ids = session.add_corpus(&corpus).unwrap();
        session.explain_pair(ids[0], ids[1])
    };
    assert!(!want_explained.mappings.is_empty(), "PO~Order explains at least one mapping");

    let server =
        Server::bind("127.0.0.1:0", &tmp.0, &config, &th, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(move || server.run().unwrap());
        let _guard = DrainOnPanic(handle);
        let mut client = ServeClient::connect(addr).unwrap();
        for sdl in CORPUS_SDL {
            client.add_sdl(sdl).unwrap();
        }

        // Explain before any match: the wire-decoded explanation is the
        // in-process one, similarity bits included, and recomposes.
        let got = client.explain("PO", "Order").unwrap();
        assert_eq!(got, want_explained, "served explanation diverged from in-process");
        assert!(got.recomposes_exactly(), "every mapping must recompose to its wsim bit-exactly");
        for m in &got.mappings {
            assert!(m.wsim >= m.th_accept, "kept mappings cleared the acceptance threshold");
        }

        // Unknown names are loud errors, connection stays usable.
        assert!(matches!(client.explain("PO", "Nope"), Err(ServeError::Remote(_))));

        // Diagnostics, not matches: nothing was executed or cached, but
        // the explain counters and latency kind did move.
        let stats = client.stats().unwrap();
        assert_eq!(stats.pairs_executed, 0, "explain must not count as pair execution");
        assert_eq!(stats.cached_pairs, 0, "explain must not fill the pair cache");
        assert_eq!(stats.explanations_served, 1);
        assert!(stats.vocab_bytes > 0, "token-table gauge is live");
        let explain_latency =
            stats.latencies.iter().find(|l| l.kind == "explain").expect("explain kind recorded");
        // The latency kind counts requests, successful or not: the
        // explain that worked plus the unknown-name error.
        assert_eq!(explain_latency.count, 2);

        // The match path is untouched: every summary still equals the
        // explain-free in-process ground truth bit for bit.
        for ((source, target), want) in &want_pairs {
            let got = client.match_pair(source, target).unwrap();
            assert_eq!(&got, want, "summary for {source}~{target} diverged after explain");
        }

        // Explaining a now-cached pair still answers (and still does
        // not disturb the cache counters).
        let again = client.explain("PO", "Order").unwrap();
        assert_eq!(again, want_explained);
        let stats = client.stats().unwrap();
        assert_eq!(stats.explanations_served, 2);
        assert_eq!(stats.cached_pairs as usize, want_pairs.len());

        // Explain and slow log are batch entries like any read: in a
        // mixed batch each entry answers as its lone read does, and an
        // unknown name fails its entry alone.
        let ((source, target), want_summary) = &want_pairs[0];
        assert_eq!((source.as_str(), target.as_str()), ("PO", "Order"));
        let entries = client
            .batch(vec![
                BatchItem::Explain { source: "PO".into(), target: "Order".into() },
                BatchItem::MatchPair { source: "PO".into(), target: "Order".into() },
                BatchItem::Explain { source: "PO".into(), target: "Nope".into() },
                BatchItem::SlowLog,
            ])
            .unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0], Ok(BatchOutcome::Explained(want_explained.clone())));
        match &entries[1] {
            Ok(BatchOutcome::Matched { summary, .. }) => assert_eq!(summary, want_summary),
            other => panic!("expected the PO~Order summary, got {other:?}"),
        }
        match &entries[2] {
            Err(message) => assert!(message.contains("`Nope`"), "got `{message}`"),
            other => panic!("an unknown name must fail its entry, got {other:?}"),
        }
        assert!(matches!(entries[3], Ok(BatchOutcome::SlowLog(_))), "got {:?}", entries[3]);
        let after = client.stats().unwrap();
        assert_eq!(after.explanations_served, stats.explanations_served + 1);
        assert_eq!(after.pairs_executed, stats.pairs_executed, "every pair was cached");

        client.shutdown().unwrap();
    });
}
