//! Crash recovery through the write-ahead journal (DESIGN.md §10).
//!
//! A repository embedded in a long-running service must not lose
//! acknowledged work when the process dies between snapshots. This
//! example demonstrates the guarantee end to end, with a *real* crash:
//!
//! 1. **crash child** — the example re-executes itself as a child
//!    process that opens a repository, adds the paper's Figure 1 and
//!    Figure 2 schemas, fsyncs the journal (`sync_journal`, exactly
//!    what the daemon's `--autosave 1` does per mutation), and then
//!    exits abruptly — no snapshot save, destructors skipped, its lock
//!    file left on disk with its pid inside;
//! 2. **recovery** — the parent reopens the same path: the OS released
//!    the dead process's lock when it exited, so the open takes it, the
//!    journal tail is replayed past the (nonexistent) snapshot, and
//!    every acknowledged schema is back, match-ready;
//! 3. **compaction** — one `save` folds the journal into a fresh
//!    snapshot; the next open loads the snapshot alone and replays
//!    nothing.
//!
//! Run with: `cargo run --release --example journal_recovery`

use std::path::Path;

use cupid::corpus::{fig1, fig2, thesauri};
use cupid::eval::configs;
use cupid::prelude::*;
use cupid::repo::journal::journal_path;

/// The corpus the crash child acknowledges before dying.
fn corpus() -> Vec<(&'static str, Schema)> {
    vec![
        ("fig1.PO", fig1::po()),
        ("fig1.POrder", fig1::porder()),
        ("fig2.PO", fig2::po()),
        ("fig2.PurchaseOrder", fig2::purchase_order()),
    ]
}

/// Child mode: journal four schemas durably, then die without saving.
fn crash_child(snapshot: &Path) -> ! {
    let config = configs::shallow_xml();
    let th = thesauri::paper_thesaurus();
    let mut repo = Repository::open_or_create(snapshot, &config, &th).expect("child open");
    for (name, mut schema) in corpus() {
        schema.rename(name);
        repo.add(&schema).expect("add");
    }
    repo.sync_journal().expect("journal fsync");
    // Simulated crash: no `save`, no destructors — the snapshot file
    // was never written and the lock file stays behind; exiting
    // releases the lock itself.
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let ["--crash-child", snapshot] = args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        crash_child(Path::new(snapshot));
    }

    let dir = std::env::temp_dir().join(format!("cupid-journal-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot = dir.join("cupid.repo");

    // 1. A child process acknowledges four schemas and crashes.
    let status = std::process::Command::new(std::env::current_exe().expect("current exe"))
        .arg("--crash-child")
        .arg(&snapshot)
        .status()
        .expect("spawn crash child");
    assert!(status.success());
    let journal_bytes = std::fs::metadata(journal_path(&snapshot)).expect("journal file").len();
    println!(
        "crashed child left: no snapshot, a {journal_bytes}-byte journal, an unheld lock file"
    );
    assert!(!snapshot.exists());

    // 2. Recovery: reopen the same path.
    let config = configs::shallow_xml();
    let th = thesauri::paper_thesaurus();
    let mut repo = Repository::open_or_create(&snapshot, &config, &th).expect("recovery");
    let d = repo.durability();
    println!(
        "recovered: {} schemas via {} replayed journal records (discarded: {})",
        repo.len(),
        d.replayed_records,
        d.replay_discarded.as_deref().unwrap_or("none"),
    );
    assert_eq!(repo.len(), 4);
    assert_eq!(d.replayed_records, 4);
    let summary = repo.match_pair("fig1.PO", "fig1.POrder").expect("replayed schemas match");
    println!(
        "fig1.PO ~ fig1.POrder straight off the journal: {} leaf mappings",
        summary.leaf_mappings.len()
    );
    assert!(!summary.leaf_mappings.is_empty());

    // 3. Compaction: fold the journal into a snapshot.
    repo.save().expect("compaction");
    println!(
        "saved: snapshot {} bytes, journal back to {} records",
        std::fs::metadata(&snapshot).expect("snapshot file").len(),
        repo.durability().journal_records,
    );
    drop(repo);
    let repo = Repository::open_or_create(&snapshot, &config, &th).expect("warm open");
    assert!(repo.was_loaded());
    assert_eq!(repo.durability().replayed_records, 0, "snapshot covers everything");
    println!("warm reopen: {} schemas from the snapshot, zero records replayed", repo.len());

    drop(repo);
    std::fs::remove_dir_all(&dir).ok();
}
