//! A list count the input cannot back reserves nothing (DESIGN.md §8.1,
//! §9.2).
//!
//! Each input below claims the largest count `WireReader::get_len`
//! accepts for its first list, and every byte after that count is
//! `0xff`, so not one item decodes. Decoding must fail with a typed
//! error and grow the process's VmPeak by less than 64 MiB; a decoder
//! that reserved `count × size_of::<T>()` before its items decoded
//! would reserve gigabytes first.
//!
//! Linux-only, because VmPeak is read from `/proc/self/status`. The
//! file holds one test function so that no other test moves the
//! process's peak while this one measures.
#![cfg(target_os = "linux")]

use cupid::core::CupidConfig;
use cupid::lexical::Thesaurus;
use cupid::model::{fnv1a, WireWriter};
use cupid::prelude::Repository;
use cupid::repo::RepoError;
use cupid::serve::protocol::{Request, Response, BATCH_REQUEST, BATCH_RESPONSE};

/// Size of each crafted input.
const INPUT: usize = 8 << 20;
/// Largest VmPeak growth a decode may cause, in kB.
const BOUND_KB: u64 = 64 << 10;

/// The process's peak virtual memory size, in kB.
fn vm_peak_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("VmPeak:")).expect("a VmPeak line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmPeak in kB")
}

/// `prefix`, then the largest list count `get_len` accepts for the
/// bytes that follow it, then `0xff` up to `INPUT` bytes in all.
fn unbacked_list(prefix: &[u8]) -> Vec<u8> {
    let rest = INPUT - prefix.len() - 4;
    let mut w = WireWriter::new();
    w.put_bytes(prefix);
    w.put_len(rest + rest / 8 + 64);
    w.put_bytes(&vec![0xff; rest]);
    w.into_bytes()
}

/// Run `decode`, returning its result and how far it raised VmPeak.
fn peak_growth_kb<T>(decode: impl FnOnce() -> T) -> (T, u64) {
    let before = vm_peak_kb();
    let out = decode();
    (out, vm_peak_kb() - before)
}

#[test]
fn unbacked_counts_reserve_nothing() {
    let (config, thesaurus) = (CupidConfig::default(), Thesaurus::with_default_stopwords());
    let frame = unbacked_list(&[]);
    // A valid snapshot header with matching fingerprints, an empty
    // token table and similarity memo, then the schema count; the
    // trailing checksum covers it all, so only the list is at fault.
    let mut header = WireWriter::new();
    header.put_bytes(b"CUPIDREP");
    header.put_u32(1);
    header.put_u64(config.fingerprint());
    header.put_u64(thesaurus.fingerprint());
    header.put_len(0); // token table entries
    header.put_len(0); // memo chunk directory
    header.put_len(0); // memo chunks present
    let mut snapshot = unbacked_list(header.bytes());
    snapshot.extend_from_slice(&fnv1a(&snapshot).to_le_bytes());
    let dir = std::env::temp_dir().join(format!("cupid-wire-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cupid.repo");
    std::fs::write(&path, &snapshot).unwrap();

    let (request, request_kb) = peak_growth_kb(|| Request::decode(BATCH_REQUEST, &frame));
    let (response, response_kb) = peak_growth_kb(|| Response::decode(BATCH_RESPONSE, &frame));
    let (repo, repo_kb) =
        peak_growth_kb(|| Repository::open_or_create(&path, &config, &thesaurus).map(drop));
    std::fs::remove_dir_all(&dir).ok();

    assert!(request.is_err(), "the batch request must not decode");
    assert!(response.is_err(), "the batch response must not decode");
    assert!(matches!(repo, Err(RepoError::Corrupt { .. })), "the snapshot is corrupt: {repo:?}");
    for (what, kb) in [("request", request_kb), ("response", response_kb), ("snapshot", repo_kb)] {
        assert!(kb < BOUND_KB, "decoding the {what} grew VmPeak by {kb} kB");
    }
}
