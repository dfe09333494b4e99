//! Fault-injection crash suite for the durability layer (DESIGN.md §10).
//!
//! The contract under test: with `--autosave 1`, a mutation is fsynced
//! into the write-ahead journal *before* its response is written, so a
//! daemon killed with SIGKILL at an arbitrary point loses **at most the
//! one in-flight request** — never an acknowledged mutation — and the
//! recovered repository is bit-identical to replaying the acknowledged
//! stream through a fresh `Repository`.
//!
//! The suite is `harness = false` because it is its own process
//! orchestrator: each round re-executes this binary with
//! `--daemon-child`, which runs a real [`cupid::prelude::Server`] over
//! a private snapshot directory and publishes its bound address through
//! an atomically renamed file. The parent then drives a randomized
//! mutation stream (seeded [`rand::rngs::StdRng`], so failures
//! reproduce) while a killer thread SIGKILLs the child after a few
//! milliseconds — landing mid-mutation, mid-journal-append, or mid
//! threshold-compaction depending on the round. Recovery happens by
//! plain [`Repository::open_or_create`] on the same path, which also
//! exercises the single-writer lock across processes: a live daemon
//! child refuses a second opener and names its pid, and once it is
//! killed the OS has released its lock, so reopening takes it even
//! though the child's lock file, pid inside, stays behind.
//!
//! Acceptance per round:
//!
//! * the recovered state equals `apply(acked)` or
//!   `apply(acked + the single in-flight op)` — nothing else;
//! * the equality is checked structurally (names + content hashes) and,
//!   on small corpora, bit-identically over every match summary;
//! * a post-recovery save folds the journal, and a further reopen
//!   replays nothing.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cupid::core::CupidConfig;
use cupid::io::parse_sdl;
use cupid::lexical::Thesaurus;
use cupid::prelude::{RepoError, Repository, ServeClient, ServeError, ServeOptions, Server};
use cupid::repo::RepoLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon-child") {
        daemon_child(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        // `cargo test -- --list` support for tooling.
        println!("crash_recovery: main");
        return;
    }

    idle_kill_round();
    println!("crash_recovery: idle-kill round ok");
    // Randomized kill points: short delays land mid-stream (often mid
    // journal append or mid threshold-compaction), longer ones towards
    // the end of the stream. Seeds are fixed so a failure replays.
    for (round, delay_ms) in [2u64, 5, 9, 14, 25, 45].iter().enumerate() {
        let seed = 0xC0FF_EE00 + round as u64;
        let report = crash_round(seed, *delay_ms);
        println!(
            "crash_recovery: seed {seed:#x} kill@{delay_ms}ms ok \
             ({} acked, in-flight {}, {} replayed, state={})",
            report.acked, report.inflight, report.replayed, report.matched
        );
    }
    println!("crash_recovery: all rounds passed");
}

// ---------------------------------------------------------------------
// Child mode: a real daemon over a private snapshot path.
// ---------------------------------------------------------------------

fn daemon_child(args: &[String]) -> ! {
    let [snapshot, addr_file, autosave, compact] = args else {
        eprintln!("usage: --daemon-child <snapshot> <addr-file> <autosave> <compact-after>");
        std::process::exit(2);
    };
    let config = CupidConfig::default();
    let th = Thesaurus::with_default_stopwords();
    let compact: u64 = compact.parse().unwrap();
    let options = ServeOptions {
        autosave_every: Some(autosave.parse().unwrap()),
        compact_after: (compact > 0).then_some(compact),
        ..ServeOptions::default()
    };
    let server = match Server::bind("127.0.0.1:0", Path::new(snapshot), &config, &th, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("daemon child bind failed: {e}");
            std::process::exit(3);
        }
    };
    // Publish the bound address atomically so the parent never reads a
    // half-written file.
    let tmp = format!("{addr_file}.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).unwrap();
    std::fs::rename(&tmp, addr_file).unwrap();
    server.run().ok();
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// Parent-side harness.
// ---------------------------------------------------------------------

/// A unique, self-cleaning directory per round.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cupid-crash-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn snapshot(&self) -> PathBuf {
        self.0.join("cupid.repo")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Spawn this binary as a daemon child and wait for its address.
fn spawn_daemon(dir: &TempDir, autosave: u64, compact: u64) -> (Child, String) {
    let addr_file = dir.0.join("addr");
    std::fs::remove_file(&addr_file).ok();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .arg("--daemon-child")
        .arg(dir.snapshot())
        .arg(&addr_file)
        .arg(autosave.to_string())
        .arg(compact.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let start = Instant::now();
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
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

/// One mutation in the randomized stream, in wire form (SDL text) so
/// the daemon side and the expected-state side see identical bytes.
#[derive(Clone, Debug)]
enum Op {
    Add { sdl: String },
    Replace { sdl: String },
    Remove { name: String },
    Save,
}

/// A schema body derived from a name and a draw; distinct draws give
/// distinct content hashes, so replaces are observable.
fn sdl_for(name: &str, draw: u64) -> String {
    let pool =
        ["Qty : int", "Amount : decimal", "ShipDate : date", "Contact : string", "Count : int"];
    let mut text = format!("schema {name}\n  element Item\n");
    for i in 0..=(draw % 3) {
        text.push_str(&format!("    attr V{}_{i} : int\n", draw % 16));
    }
    text.push_str(&format!("    attr {}\n", pool[(draw % pool.len() as u64) as usize]));
    text
}

/// Draw the next op against the optimistic live-name set. The corpus is
/// capped so post-crash bit-identity checks stay cheap.
fn gen_op(rng: &mut StdRng, live: &mut Vec<String>, next_id: &mut u64) -> Op {
    let roll: u32 = rng.gen_range(0..100);
    let can_grow = live.len() < 10;
    if live.len() < 2 || (can_grow && roll < 40) {
        let name = format!("S{next_id}");
        *next_id += 1;
        live.push(name.clone());
        Op::Add { sdl: sdl_for(&name, rng.next_u64()) }
    } else if roll < 70 {
        let name = live[rng.gen_range(0..live.len())].clone();
        Op::Replace { sdl: sdl_for(&name, rng.next_u64()) }
    } else if roll < 92 {
        let name = live.remove(rng.gen_range(0..live.len()));
        Op::Remove { name }
    } else {
        Op::Save
    }
}

fn send(client: &mut ServeClient, op: &Op) -> Result<(), ServeError> {
    match op {
        Op::Add { sdl } => client.add_sdl(sdl).map(drop),
        Op::Replace { sdl } => client.replace_sdl(sdl).map(drop),
        Op::Remove { name } => client.remove(name),
        Op::Save => client.save().map(drop),
    }
}

fn apply(repo: &mut Repository, op: &Op) {
    match op {
        Op::Add { sdl } => repo.add(&parse_sdl(sdl).unwrap()).unwrap(),
        Op::Replace { sdl } => repo.replace(&parse_sdl(sdl).unwrap()).unwrap(),
        Op::Remove { name } => {
            repo.remove(name).unwrap();
        }
        Op::Save => repo.save().unwrap(),
    }
}

/// Structural identity of a repository: names in order plus each
/// schema's canonical content hash.
fn state_of(repo: &Repository) -> (Vec<String>, Vec<u64>) {
    let names = repo.names().to_vec();
    let hashes = names.iter().map(|n| repo.schema(n).unwrap().content_hash()).collect();
    (names, hashes)
}

struct RoundReport {
    acked: usize,
    inflight: bool,
    replayed: u64,
    /// Which candidate matched: "acked" or "acked+inflight".
    matched: &'static str,
}

/// Verify a crashed repository directory against the acknowledged op
/// stream (plus, optionally, one in-flight op that may or may not have
/// landed). Returns the recovery report; panics on any divergence.
fn verify_recovery(
    dir: &TempDir,
    acked: &[Op],
    inflight: Option<&Op>,
    config: &CupidConfig,
    th: &Thesaurus,
) -> RoundReport {
    let snapshot = dir.snapshot();
    assert!(
        RepoLock::lock_path(&snapshot).exists(),
        "the killed daemon's lock file stays on disk; the OS released the lock"
    );

    // Reopen on the same path: the lock is free although its file names
    // the dead pid, and the journal tail replays past the last snapshot.
    let mut recovered =
        Repository::open_or_create(&snapshot, config, th).expect("recovery after SIGKILL");
    let durability = recovered.durability();
    let got = state_of(&recovered);

    // Candidate end states: every acknowledged op, plus optionally the
    // one request that never got a response.
    let mut candidates: Vec<(&'static str, Vec<Op>)> = vec![("acked", acked.to_vec())];
    if let Some(op) = inflight {
        if !matches!(op, Op::Save) {
            let mut with = acked.to_vec();
            with.push(op.clone());
            candidates.push(("acked+inflight", with));
        }
    }

    let expect_dir = TempDir::new("expect");
    let mut matched = None;
    for (label, ops) in &candidates {
        let path = expect_dir.0.join(format!("{label}.repo"));
        let mut expected = Repository::open_or_create(&path, config, th).unwrap();
        for op in ops {
            apply(&mut expected, op);
        }
        if state_of(&expected) == got {
            // Structure agrees; on this small corpus also demand
            // bit-identical similarity output for every pair.
            assert_eq!(
                recovered.match_all_pairs(),
                expected.match_all_pairs(),
                "recovered repository diverged from replaying the {label} stream"
            );
            matched = Some(*label);
            break;
        }
    }
    let matched = matched.unwrap_or_else(|| {
        panic!(
            "recovered state {:?} matches neither candidate; \
             acked {} ops, in-flight {:?}, durability {:?}",
            got.0,
            acked.len(),
            inflight,
            durability
        )
    });

    // A post-recovery save folds the journal: the next open replays
    // nothing and loads the identical corpus from the snapshot alone.
    recovered.save().expect("post-recovery compaction");
    drop(recovered);
    let refolded = Repository::open_or_create(&snapshot, config, th).unwrap();
    assert_eq!(refolded.durability().replayed_records, 0, "save folded the journal");
    assert_eq!(state_of(&refolded), got, "folding must not change state");

    RoundReport {
        acked: acked.len(),
        inflight: inflight.is_some(),
        replayed: durability.replayed_records,
        matched,
    }
}

/// Deterministic baseline: every op acknowledged, daemon killed while
/// idle. Exactly the acked stream must come back — no ambiguity.
fn idle_kill_round() {
    let dir = TempDir::new("idle");
    let config = CupidConfig::default();
    let th = Thesaurus::with_default_stopwords();
    let (mut child, addr) = spawn_daemon(&dir, 1, 4);

    let mut rng = StdRng::seed_from_u64(0x1D1E);
    let (mut live, mut next_id) = (Vec::new(), 0u64);
    let mut acked = Vec::new();
    let mut client = ServeClient::connect(addr.as_str()).unwrap();
    for _ in 0..24 {
        let op = gen_op(&mut rng, &mut live, &mut next_id);
        send(&mut client, &op).expect("no faults while the daemon is alive");
        acked.push(op);
    }
    // The daemon child holds the snapshot's lock, so an opener in this
    // process is refused and told the child's pid.
    match Repository::open_or_create(dir.snapshot(), &config, &th) {
        Err(RepoError::Locked { pid, .. }) => assert_eq!(pid, child.id()),
        other => panic!("expected Locked by the daemon child, got {other:?}"),
    }
    // Every response has been read, so nothing is in flight; SIGKILL.
    child.kill().unwrap();
    child.wait().unwrap();
    drop(client);

    let report = verify_recovery(&dir, &acked, None, &config, &th);
    assert_eq!(report.matched, "acked", "idle kill loses nothing");
}

/// Randomized round: a killer thread SIGKILLs the daemon after
/// `delay_ms` while the parent hammers mutations; at most the one
/// unacknowledged request may be lost.
fn crash_round(seed: u64, delay_ms: u64) -> RoundReport {
    let dir = TempDir::new(&format!("seed{seed:x}"));
    let config = CupidConfig::default();
    let th = Thesaurus::with_default_stopwords();
    let mut rng = StdRng::seed_from_u64(seed);
    let compact_after = rng.gen_range(2u64..6);
    let (child, addr) = spawn_daemon(&dir, 1, compact_after);

    let child = Arc::new(Mutex::new(child));
    let killer = {
        let child = Arc::clone(&child);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            child.lock().unwrap().kill().ok();
        })
    };

    let (mut live, mut next_id) = (Vec::new(), 0u64);
    let mut acked = Vec::new();
    let mut inflight = None;
    let mut client = ServeClient::connect(addr.as_str()).unwrap();
    // Keep mutating until the kill severs the connection (cap as a
    // safety net if the kill loses the race to a fast stream).
    for _ in 0..3000 {
        let op = gen_op(&mut rng, &mut live, &mut next_id);
        match send(&mut client, &op) {
            Ok(()) => acked.push(op),
            Err(_) => {
                inflight = Some(op);
                break;
            }
        }
    }
    killer.join().unwrap();
    child.lock().unwrap().wait().unwrap();
    drop(client);

    verify_recovery(&dir, &acked, inflight.as_ref(), &config, &th)
}
