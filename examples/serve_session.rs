//! The match daemon end to end (DESIGN.md §9).
//!
//! A resident matcher changes the shape of schema-matching workloads:
//! instead of a one-shot process that re-prepares its corpus per run,
//! a daemon keeps the session hot — interned vocabulary, similarity
//! memo, prepared schemas, pair cache — and answers clients over a
//! checksummed binary protocol. This example walks the full lifecycle
//! on a loopback port:
//!
//! 1. **serve** — bind `cupid.serve(addr, repo_path)` and run it on a
//!    daemon thread;
//! 2. **populate** — a client ships the paper's schemas as SDL;
//! 3. **match / discover** — match-pair and index-pruned top-k
//!    requests, answered from the warm session;
//! 4. **batch** — a pooled client ships a whole worklist as one
//!    checksummed frame; the daemon answers it under a single read
//!    lock, per-entry errors failing alone (DESIGN.md §11);
//! 5. **edit** — replace one schema; only its pairs re-execute;
//! 6. **persist** — save, shut down, and reopen the snapshot directly
//!    to show the daemon's work survives it.
//!
//! Run with: `cargo run --release --example serve_session`

use cupid::prelude::*;
use cupid::serve::CupidServeExt;

const CORPUS_SDL: &[&str] = &[
    "schema PO\n  element Item\n    attr Qty : int\n    attr Invoice : string\n",
    "schema Order\n  element Item\n    attr Quantity : int\n    attr Bill : string\n",
    "schema Sales\n  element Order\n    attr Quantity : int\n    attr SaleDate : date\n",
    "schema Inventory\n  element Thing\n    attr Stock : int\n",
];

fn main() {
    let dir = std::env::temp_dir().join(format!("cupid-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let thesaurus =
        Thesaurus::parse("abbrev Qty = quantity\nsyn invoice bill 1.0").expect("thesaurus");
    let cupid = Cupid::new(thesaurus);

    // ---- 1. serve: daemon on a loopback port ---------------------------
    let server = cupid.serve("127.0.0.1:0", &dir).expect("bind daemon");
    let addr = server.local_addr();
    println!("daemon: listening on {addr}, repository {}", server.repo_path().display());

    std::thread::scope(|scope| {
        scope.spawn(move || server.run().expect("daemon run"));

        // ---- 2. populate: schemas travel as SDL ------------------------
        let mut client = ServeClient::connect(addr).expect("connect");
        for sdl in CORPUS_SDL {
            let name = client.add_sdl(sdl).expect("add schema");
            println!("client: added `{name}`");
        }

        // ---- 3. match and discover -------------------------------------
        let summary = client.match_pair("PO", "Order").expect("match");
        println!(
            "client: PO ~ Order  best wsim {:.3}, {} leaf mappings",
            summary.best_wsim(),
            summary.leaf_mappings.len()
        );
        for m in summary.leaf_mappings.iter().take(3) {
            println!("  {} -> {}  (wsim {:.3})", m.source_path, m.target_path, m.wsim);
        }
        let listing = client.top_k(2).expect("top-k");
        let mut ranked: Vec<_> = listing.summaries.iter().collect();
        ranked.sort_by(|a, b| {
            b.best_wsim().partial_cmp(&a.best_wsim()).unwrap_or(std::cmp::Ordering::Equal)
        });
        println!("client: top-2 discovery executed {} candidate pairs:", ranked.len());
        for s in ranked.iter().take(3) {
            println!(
                "  {} ~ {}  best wsim {:.3}",
                listing.names[s.source.index()],
                listing.names[s.target.index()],
                s.best_wsim()
            );
        }

        // ---- 4. batch: a worklist in one frame, via the pool -----------
        let pool = ServePool::new(addr.to_string(), 2);
        let mut pooled = pool.checkout().expect("checkout");
        let entries = pooled
            .match_pairs(&[("PO", "Order"), ("PO", "Sales"), ("PO", "Nope"), ("Order", "Sales")])
            .expect("batch");
        for (entry, (s, t)) in entries.iter().zip([
            ("PO", "Order"),
            ("PO", "Sales"),
            ("PO", "Nope"),
            ("Order", "Sales"),
        ]) {
            match entry {
                Ok(summary) => {
                    println!("batch:  {s} ~ {t}  best wsim {:.3}", summary.best_wsim());
                }
                Err(message) => println!("batch:  {s} ~ {t}  failed alone: {message}"),
            }
        }
        drop(pooled); // back to the pool's idle list, connection kept warm
        let latency = pool.checkout().expect("checkout").stats().expect("stats").latencies;
        if let Some(batch) = latency.iter().find(|l| l.kind == "batch") {
            println!(
                "batch:  daemon served {} batch frame(s), p50 {}ns",
                batch.count,
                batch.quantile_ns(0.50)
            );
        }

        // ---- 5. edit: incremental re-match under traffic ---------------
        let before = client.stats().expect("stats").pairs_executed;
        client
            .replace_sdl(
                "schema PO\n  element Item\n    attr Qty : int\n    attr Invoice : string\n    \
                 attr Total : decimal\n",
            )
            .expect("replace");
        client.match_pair("PO", "Order").expect("re-match");
        let after = client.stats().expect("stats").pairs_executed;
        println!("client: replaced `PO`; {} pair(s) re-executed", after - before);

        // ---- 6. persist and shut down ----------------------------------
        let bytes = client.save().expect("save");
        println!("client: snapshot saved ({bytes} bytes)");
        client.shutdown().expect("shutdown");
        println!("client: daemon shutting down");
    });

    // The daemon's work outlives it: reopen the snapshot directly.
    let warm = cupid.repository(&dir).expect("reopen snapshot");
    assert!(warm.was_loaded(), "snapshot present");
    let served = warm.match_pair("PO", "Order").expect("cached pair");
    println!(
        "reopened:   {} schemas, PO ~ Order served from cache (best wsim {:.3}, {} executed)",
        warm.len(),
        served.best_wsim(),
        warm.pairs_executed()
    );

    std::fs::remove_dir_all(&dir).ok();
}
