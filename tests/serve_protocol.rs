//! Property suite for the daemon's wire protocol (DESIGN.md §9.2).
//!
//! Three contracts:
//!
//! * **Round trip** — every request/response frame decodes back to a
//!   value `==` the one encoded, over randomized payloads including
//!   full [`MatchSummary`] values with arbitrary `f64` bit patterns
//!   (similarity values travel by bits, so equality here means
//!   *bit-identical*).
//! * **Loud rejection** — flipping any byte of an encoded frame, or
//!   truncating it anywhere, must fail to read: the frame checksum (or
//!   the strict payload decoder behind it) catches every single-byte
//!   corruption, so a daemon never serves a damaged summary.
//! * **Recorded bytes** — one fixed message of every frame kind encodes
//!   to the kind byte and payload digest recorded in `GOLDEN_FRAMES`.
//!   The round trips alone would pass a change made to encoder and
//!   decoder alike, which still breaks every deployed client.

use cupid::core::session::SimilarityEntry;
use cupid::core::{
    CupidConfig, Explanation, MappingElement, MatchSummary, PairExplanation, SchemaId,
    StructuralContext, TokenPairScore,
};
use cupid::lexical::{Thesaurus, TokenSimProvenance, TokenType};
use cupid::model::{fnv1a, read_frame, write_frame, NodeId, WireWriter};
use cupid::serve::{
    BatchItem, BatchOutcome, KindLatency, MutationOp, Request, Response, ServeOptions, Server,
    StatsReport, TraceRecord, STAGES,
};
use proptest::prelude::*;

/// splitmix64 — a tiny deterministic generator so summaries with
/// arbitrary float bit patterns can be derived from one drawn seed
/// (the proptest shim has no tuple/map strategies).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn word(&mut self) -> String {
        let n = self.next();
        format!("w{:x}", n & 0xffff_ffff)
    }
}

/// A structurally arbitrary summary: ids, mappings and top pairs with
/// raw `f64` bit patterns (NaNs and negative zero included roughly one
/// draw in eight), plus large counters.
fn summary_from(seed: u64) -> MatchSummary {
    let mut mix = Mix(seed);
    let f = |mix: &mut Mix| {
        let bits = mix.next();
        // Bias some draws to the interesting corners of f64 space.
        match bits & 0b111 {
            0 => f64::from_bits(bits | 0x7ff8_0000_0000_0000), // NaN payloads
            1 => -0.0,
            _ => f64::from_bits(bits),
        }
    };
    let mappings = |mix: &mut Mix| {
        (0..(mix.next() % 4) as usize)
            .map(|i| MappingElement {
                source: NodeId::from_index(i),
                target: NodeId::from_index(i + 1),
                source_path: mix.word().into(),
                target_path: mix.word().into(),
                wsim: f(mix),
                ssim: f(mix),
                lsim: f(mix),
            })
            .collect::<Vec<_>>()
    };
    MatchSummary {
        source: SchemaId::from_index((seed % 64) as usize),
        target: SchemaId::from_index((seed % 61) as usize),
        leaf_mappings: mappings(&mut mix),
        nonleaf_mappings: mappings(&mut mix),
        top_pairs: (0..(mix.next() % 4) as usize)
            .map(|_| SimilarityEntry {
                source_path: mix.word().into(),
                target_path: mix.word().into(),
                wsim: f(&mut mix),
            })
            .collect(),
        compared_pairs: (mix.next() % 1_000_000) as usize,
        total_pairs: (mix.next() % 3_000_000) as usize,
    }
}

/// Summaries compare equal iff their similarity *bits* agree — plain
/// `==` on f64 fields would treat NaN ≠ NaN.
fn summary_bits_eq(a: &MatchSummary, b: &MatchSummary) -> bool {
    let m_eq = |x: &MappingElement, y: &MappingElement| {
        x.source == y.source
            && x.target == y.target
            && x.source_path == y.source_path
            && x.target_path == y.target_path
            && x.wsim.to_bits() == y.wsim.to_bits()
            && x.ssim.to_bits() == y.ssim.to_bits()
            && x.lsim.to_bits() == y.lsim.to_bits()
    };
    a.source == b.source
        && a.target == b.target
        && a.leaf_mappings.len() == b.leaf_mappings.len()
        && a.leaf_mappings.iter().zip(&b.leaf_mappings).all(|(x, y)| m_eq(x, y))
        && a.nonleaf_mappings.len() == b.nonleaf_mappings.len()
        && a.nonleaf_mappings.iter().zip(&b.nonleaf_mappings).all(|(x, y)| m_eq(x, y))
        && a.top_pairs.len() == b.top_pairs.len()
        && a.top_pairs.iter().zip(&b.top_pairs).all(|(x, y)| {
            x.source_path == y.source_path
                && x.target_path == y.target_path
                && x.wsim.to_bits() == y.wsim.to_bits()
        })
        && a.compared_pairs == b.compared_pairs
        && a.total_pairs == b.total_pairs
}

/// Read outcomes compare equal iff their summaries' and explanations'
/// similarity bits agree, everything else by `==`.
fn outcome_bits_eq(a: &BatchOutcome, b: &BatchOutcome) -> bool {
    match (a, b) {
        (
            BatchOutcome::Matched { source: as_, target: at, summary: asum },
            BatchOutcome::Matched { source: bs, target: bt, summary: bsum },
        ) => as_ == bs && at == bt && summary_bits_eq(asum, bsum),
        (
            BatchOutcome::TopKList { names: an, summaries: asums },
            BatchOutcome::TopKList { names: bn, summaries: bsums },
        ) => {
            an == bn
                && asums.len() == bsums.len()
                && asums.iter().zip(bsums).all(|(x, y)| summary_bits_eq(x, y))
        }
        (BatchOutcome::Explained(x), BatchOutcome::Explained(y)) => explanation_bits_eq(x, y),
        (a, b) => a == b,
    }
}

/// A structurally arbitrary explanation: mapping breakdowns with raw
/// `f64` bit patterns, every provenance tag, and boundary counters.
fn explanation_from(a: &str, b: &str, seed: u64) -> PairExplanation {
    let mut mix = Mix(seed);
    let f = |mix: &mut Mix| {
        let bits = mix.next();
        match bits & 0b111 {
            0 => f64::from_bits(bits | 0x7ff8_0000_0000_0000), // NaN payloads
            1 => -0.0,
            _ => f64::from_bits(bits),
        }
    };
    let provenance = |mix: &mut Mix| match mix.next() % 4 {
        0 => TokenSimProvenance::ExactSymbol,
        1 => TokenSimProvenance::Thesaurus,
        2 => TokenSimProvenance::Affix {
            prefix_len: (mix.next() & 0xff) as u32,
            suffix_len: (mix.next() & 0xff) as u32,
            capped: mix.next().is_multiple_of(2),
        },
        _ => TokenSimProvenance::NoMatch,
    };
    let mappings = (0..(mix.next() % 4) as usize)
        .map(|i| Explanation {
            source: NodeId::from_index(i),
            target: NodeId::from_index(i + 2),
            source_path: mix.word().into(),
            target_path: mix.word().into(),
            leaf: mix.next().is_multiple_of(2),
            wsim: f(&mut mix),
            ssim: f(&mut mix),
            lsim: f(&mut mix),
            w_struct: f(&mut mix),
            th_accept: f(&mut mix),
            name_similarity: f(&mut mix),
            category_scale: f(&mut mix),
            token_pairs: (0..(mix.next() % 3) as usize)
                .map(|_| TokenPairScore {
                    source_token: mix.word(),
                    target_token: mix.word(),
                    token_type: TokenType::ALL[(mix.next() % 5) as usize],
                    sim: f(&mut mix),
                    provenance: provenance(&mut mix),
                })
                .collect(),
            structure: StructuralContext {
                source_leaves: (mix.next() % 1_000) as usize,
                target_leaves: (mix.next() % 1_000) as usize,
                source_strong_links: (mix.next() % 1_000) as usize,
                target_strong_links: (mix.next() % 1_000) as usize,
                main_pass_wsim: f(&mut mix),
                pruned: mix.next().is_multiple_of(2),
                increased: mix.next().is_multiple_of(2),
                decreased: mix.next().is_multiple_of(2),
            },
        })
        .collect();
    PairExplanation {
        source_name: a.to_string(),
        target_name: b.to_string(),
        mappings,
        compared_pairs: (mix.next() % 1_000_000) as usize,
        total_pairs: (mix.next() % 3_000_000) as usize,
        increases: (mix.next() % 10_000) as usize,
        decreases: (mix.next() % 10_000) as usize,
    }
}

/// Explanations compare equal iff their similarity *bits* agree (plain
/// `==` would treat NaN ≠ NaN), everything else by `==`.
fn explanation_bits_eq(a: &PairExplanation, b: &PairExplanation) -> bool {
    let f_eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.source_name == b.source_name
        && a.target_name == b.target_name
        && a.compared_pairs == b.compared_pairs
        && a.total_pairs == b.total_pairs
        && a.increases == b.increases
        && a.decreases == b.decreases
        && a.mappings.len() == b.mappings.len()
        && a.mappings.iter().zip(&b.mappings).all(|(x, y)| {
            x.source == y.source
                && x.target == y.target
                && x.source_path == y.source_path
                && x.target_path == y.target_path
                && x.leaf == y.leaf
                && f_eq(x.wsim, y.wsim)
                && f_eq(x.ssim, y.ssim)
                && f_eq(x.lsim, y.lsim)
                && f_eq(x.w_struct, y.w_struct)
                && f_eq(x.th_accept, y.th_accept)
                && f_eq(x.name_similarity, y.name_similarity)
                && f_eq(x.category_scale, y.category_scale)
                && x.token_pairs.len() == y.token_pairs.len()
                && x.token_pairs.iter().zip(&y.token_pairs).all(|(s, t)| {
                    s.source_token == t.source_token
                        && s.target_token == t.target_token
                        && s.token_type == t.token_type
                        && f_eq(s.sim, t.sim)
                        && s.provenance == t.provenance
                })
                && x.structure.source_leaves == y.structure.source_leaves
                && x.structure.target_leaves == y.structure.target_leaves
                && x.structure.source_strong_links == y.structure.source_strong_links
                && x.structure.target_strong_links == y.structure.target_strong_links
                && f_eq(x.structure.main_pass_wsim, y.structure.main_pass_wsim)
                && x.structure.pruned == y.structure.pruned
                && x.structure.increased == y.structure.increased
                && x.structure.decreased == y.structure.decreased
        })
}

/// Every request variant, parameterized by the drawn values, with a
/// one-entry batch per item tag.
fn requests(sdl: &str, a: &str, b: &str, k: u32) -> Vec<Request> {
    vec![
        Request::Batch {
            items: vec![BatchItem::MatchPair { source: a.to_string(), target: b.to_string() }],
        },
        Request::Batch { items: vec![BatchItem::TopK { k }] },
        Request::Batch { items: vec![BatchItem::Stats] },
        Request::Save,
        Request::Shutdown,
        Request::Batch {
            items: vec![
                BatchItem::MatchPair { source: a.to_string(), target: b.to_string() },
                BatchItem::TopK { k },
                BatchItem::Stats,
            ],
        },
        Request::Batch { items: Vec::new() },
        Request::Mutate {
            request_id: k as u64 ^ 0xdead_beef,
            op: MutationOp::Add { sdl: sdl.to_string() },
        },
        Request::Mutate {
            request_id: u64::MAX - k as u64,
            op: MutationOp::Replace { sdl: sdl.to_string() },
        },
        Request::Mutate { request_id: k as u64, op: MutationOp::Remove { name: a.to_string() } },
        Request::Batch { items: vec![BatchItem::SlowLog] },
        Request::Batch {
            items: vec![BatchItem::Explain { source: a.to_string(), target: b.to_string() }],
        },
    ]
}

/// A batch entry mix covering every outcome tag plus the error slot;
/// the top-k listing carries `names`.
fn batch_entries(
    names: &[String],
    a: &str,
    b: &str,
    summary: &MatchSummary,
    report: &StatsReport,
) -> Vec<Result<BatchOutcome, String>> {
    vec![
        Ok(BatchOutcome::Matched {
            source: a.to_string(),
            target: b.to_string(),
            summary: summary.clone(),
        }),
        Err(format!("no schema `{b}` in repository")),
        Ok(BatchOutcome::TopKList { names: names.to_vec(), summaries: vec![summary.clone()] }),
        Ok(BatchOutcome::Stats(report.clone())),
    ]
}

/// A stats payload with busy per-kind histograms (and one empty kind).
fn report_from(a: &str, n: u64) -> StatsReport {
    StatsReport {
        schemas: n,
        cached_pairs: n.wrapping_mul(3),
        pairs_executed: n / 2,
        vocab_size: n.wrapping_add(17),
        distinct_pairs_computed: n.rotate_left(5),
        sim_chunks: n % 97,
        sim_bytes: n.wrapping_mul(32),
        requests_served: n,
        journal_records: n.rotate_left(9),
        journal_bytes: n.wrapping_mul(41),
        replayed_records: n % 13,
        compactions: n % 7,
        shed_requests: n.rotate_left(3),
        idle_disconnects: n % 29,
        deadline_cuts: n % 31,
        deduped_mutations: n.rotate_left(11),
        slow_requests: n % 411,
        slow_log_entries: n % 33,
        metrics_scrapes: n.rotate_left(13),
        vocab_bytes: n.wrapping_mul(57),
        explanations_served: n % 203,
        last_fsync_error: if n.is_multiple_of(2) {
            String::new()
        } else {
            format!("{a}: injected fault {n:#x}")
        },
        latencies: vec![
            KindLatency {
                kind: "match_pair".to_string(),
                count: n % 1000,
                total_ns: n.wrapping_mul(7),
                buckets: (0..40u32).map(|i| n.rotate_left(i) & 0xff).collect(),
            },
            KindLatency::empty("save"),
        ],
        stage_latencies: vec![
            KindLatency {
                kind: "batch/exec_uncached".to_string(),
                count: n % 500,
                total_ns: n.wrapping_mul(11),
                buckets: (0..40u32).map(|i| n.rotate_right(i) & 0x7f).collect(),
            },
            KindLatency {
                kind: "match_pair/lock_wait_read".to_string(),
                count: 1 + n % 9,
                total_ns: n.wrapping_mul(3),
                buckets: (0..40u32).map(|i| (n >> (i % 17)) & 0x3).collect(),
            },
        ],
    }
}

/// A slow-log trace with a full stage breakdown.
fn trace_record(a: &str, n: u64) -> TraceRecord {
    TraceRecord {
        trace_id: n,
        kind: a.to_string(),
        total_ns: n.rotate_left(17),
        stage_ns: (0..STAGES as u64).map(|i| n.rotate_left(i as u32) & 0xffff_ffff).collect(),
        finished_unix_ms: n.rotate_right(21),
    }
}

/// Every response variant, with a one-entry batch per outcome tag.
fn responses(a: &str, b: &str, summary: &MatchSummary, n: u64) -> Vec<Response> {
    let one = |outcome| Response::Batch { entries: vec![Ok(outcome)] };
    // `summary_from` draws schema ids below 64, so top-k listings over
    // this name table name no id past it and decode.
    let names: Vec<String> = (0..64).map(|i| format!("{a}{i}")).collect();
    vec![
        Response::Added { name: a.to_string() },
        Response::Replaced { name: b.to_string() },
        Response::Removed { name: a.to_string() },
        one(BatchOutcome::Matched {
            source: a.to_string(),
            target: b.to_string(),
            summary: summary.clone(),
        }),
        one(BatchOutcome::TopKList {
            names: names.clone(),
            summaries: vec![summary.clone(), summary.clone()],
        }),
        one(BatchOutcome::Stats(report_from(a, n))),
        Response::Saved { bytes: n },
        Response::ShuttingDown,
        Response::Error { message: b.to_string() },
        Response::Batch { entries: batch_entries(&names, a, b, summary, &report_from(a, n)) },
        Response::Batch { entries: Vec::new() },
        Response::Overloaded { max_inflight: n % 4096, queue_deadline_ms: n.rotate_left(7) },
        one(BatchOutcome::SlowLog(vec![trace_record(a, n), trace_record(b, n.wrapping_add(1))])),
        one(BatchOutcome::SlowLog(Vec::new())),
        one(BatchOutcome::Explained(explanation_from(a, b, n))),
        one(BatchOutcome::Explained(explanation_from(b, a, n.wrapping_add(7)))),
    ]
}

/// The seed behind every fixture of the golden-frame table.
const GOLDEN_SEED: u64 = 0x5eed_0bad_cafe_f00d;

/// An explain and a slow-log read, built from the fixtures of the
/// retired `0x0C` and `0x0B` frames.
fn diagnostic_items() -> Vec<BatchItem> {
    vec![BatchItem::Explain { source: "PO".into(), target: "Order".into() }, BatchItem::SlowLog]
}

/// Their outcomes, built from the fixtures of the retired `0x8D` and
/// `0x8C` frames.
fn diagnostic_outcomes() -> Vec<BatchOutcome> {
    vec![
        BatchOutcome::Explained(explanation_from("PO", "Order", GOLDEN_SEED)),
        BatchOutcome::SlowLog(vec![trace_record("batch", GOLDEN_SEED), trace_record("top_k", 3)]),
    ]
}

/// One fixed message of every request kind the daemon accepts.
fn golden_requests() -> Vec<(&'static str, Request)> {
    let sdl = "schema PO\n  element Item\n    attr Qty : int\n";
    let (a, b) = ("PO".to_string(), "Order".to_string());
    vec![
        (
            "mutate_add",
            Request::Mutate {
                request_id: 0x0123_4567_89ab_cdef,
                op: MutationOp::Add { sdl: sdl.to_string() },
            },
        ),
        (
            "mutate_replace",
            Request::Mutate { request_id: 7, op: MutationOp::Replace { sdl: sdl.to_string() } },
        ),
        (
            "mutate_remove",
            Request::Mutate { request_id: u64::MAX, op: MutationOp::Remove { name: a.clone() } },
        ),
        ("save", Request::Save),
        ("shutdown", Request::Shutdown),
        (
            "batch",
            Request::Batch {
                items: vec![
                    BatchItem::MatchPair { source: a, target: b },
                    BatchItem::TopK { k: 2 },
                    BatchItem::Stats,
                ],
            },
        ),
        ("batch_diagnostics", Request::Batch { items: diagnostic_items() }),
    ]
}

/// One fixed message of every response kind the daemon sends.
fn golden_responses() -> Vec<(&'static str, Response)> {
    let (a, b) = ("PO".to_string(), "Order".to_string());
    let summary = summary_from(GOLDEN_SEED);
    let report = report_from(&a, GOLDEN_SEED);
    vec![
        ("added", Response::Added { name: a.clone() }),
        ("replaced", Response::Replaced { name: a.clone() }),
        ("removed", Response::Removed { name: b.clone() }),
        ("saved", Response::Saved { bytes: 4096 }),
        ("shutting_down", Response::ShuttingDown),
        ("error", Response::Error { message: format!("no schema `{b}` in repository") }),
        ("overloaded", Response::Overloaded { max_inflight: 32, queue_deadline_ms: 100 }),
        // Its top-k listing names ids past its two-name table: the row
        // pins encoder bytes recorded before decoding checked listings.
        (
            "batch",
            Response::Batch {
                entries: batch_entries(&[a.clone(), b.clone()], &a, &b, &summary, &report),
            },
        ),
        (
            "batch_diagnostics",
            Response::Batch { entries: diagnostic_outcomes().into_iter().map(Ok).collect() },
        ),
    ]
}

/// Recorded (message, frame kind, FNV-1a of the payload) per golden
/// message, requests first. A deployed client holds these bytes, so a
/// change here is a wire break, not a refactor.
#[rustfmt::skip]
const GOLDEN_FRAMES: &[(&str, u8, u64)] = &[
    ("mutate_add", 0x0a, 0x27186472609f5879),
    ("mutate_replace", 0x0a, 0x85d9d63fae4e7d75),
    ("mutate_remove", 0x0a, 0x340255ea51f84ad5),
    ("save", 0x07, 0xcbf29ce484222325),
    ("shutdown", 0x08, 0xcbf29ce484222325),
    ("batch", 0x09, 0x97c3a92f94d3f604),
    ("batch_diagnostics", 0x09, 0x662424f9d6feb40c),
    ("added", 0x81, 0x91b52a60060c0a9e),
    ("replaced", 0x82, 0x91b52a60060c0a9e),
    ("removed", 0x83, 0x4b6d00304abf7938),
    ("saved", 0x87, 0x53a03f8d0add0c15),
    ("shutting_down", 0x88, 0xcbf29ce484222325),
    ("error", 0x89, 0x6ce4dd5b88a64071),
    ("overloaded", 0x8b, 0x0bcb2bb4308877e1),
    ("batch", 0x8a, 0x09f90518aa120c58),
    ("batch_diagnostics", 0x8a, 0x733c142c0a9ad70a),
];

#[test]
fn frame_bytes_match_the_recorded_table() {
    let requests = golden_requests().into_iter().map(|(label, req)| (label, req.encode()));
    let responses = golden_responses().into_iter().map(|(label, resp)| (label, resp.encode()));
    let actual: Vec<(&str, u8, u64)> = requests
        .chain(responses)
        .map(|(label, (kind, payload))| (label, kind, fnv1a(&payload)))
        .collect();
    if actual != GOLDEN_FRAMES {
        let table: String = actual
            .iter()
            .map(|(label, kind, digest)| {
                format!("    (\"{label}\", 0x{kind:02x}, 0x{digest:016x}),\n")
            })
            .collect();
        panic!("frame bytes changed:\n{table}");
    }
}

/// FNV-1a of the payloads the retired explain (`0x0C`), slow-log
/// (`0x0B`), explanation (`0x8D`) and slow-log response (`0x8C`) frames
/// carried for the fixtures of `diagnostic_items` and
/// `diagnostic_outcomes`, as the golden table recorded them.
const RETIRED_PAYLOADS: [u64; 4] =
    [0x4865286100afdbcd, 0xcbf29ce484222325, 0xddce47408c609b1b, 0xff8e1868a6f0e25d];

/// An explain or slow-log entry's body is, byte for byte, the payload
/// its retired frame carried.
#[test]
fn diagnostic_entry_bodies_are_the_retired_payloads() {
    // A one-entry batch payload is a `u32` count, the entry's tag byte,
    // then its body.
    let body = |(_, payload): (u8, Vec<u8>)| fnv1a(&payload[5..]);
    let requests = diagnostic_items()
        .into_iter()
        .map(|item| body(Request::Batch { items: vec![item] }.encode()));
    let responses = diagnostic_outcomes()
        .into_iter()
        .map(|outcome| body(Response::Batch { entries: vec![Ok(outcome)] }.encode()));
    let actual: Vec<u64> = requests.chain(responses).collect();
    assert_eq!(actual, RETIRED_PAYLOADS);
}

/// Kinds 0x01..=0x03 carried id-less add/replace/remove requests, and
/// 0x04..=0x06 (answered in 0x84..=0x86) one read each, as did 0x0B and
/// 0x0C (answered in 0x8C and 0x8D) for the slow log and explain. They
/// are retired: every mutation is a `Mutate` and every read a batch
/// entry, and the old kinds decode as unknown ones, on the wire and in
/// a live daemon.
#[test]
fn retired_kinds_are_unknown() {
    const RETIRED_REQUESTS: [u8; 8] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x0B, 0x0C];
    let mut body = WireWriter::new();
    body.put_str("schema S\n  attr A : int\n");
    let payload = body.into_bytes();
    for kind in RETIRED_REQUESTS {
        let err = Request::decode(kind, &payload).expect_err("retired kind must not decode");
        let want = format!("unknown request kind {kind:#04x}");
        assert!(err.to_string().contains(&want), "`{err}` should name kind {kind:#04x}");
    }
    for kind in [0x84u8, 0x85, 0x86, 0x8C, 0x8D] {
        let err = Response::decode(kind, &payload).expect_err("retired kind must not decode");
        let want = format!("unknown response kind {kind:#04x}");
        assert!(err.to_string().contains(&want), "`{err}` should name kind {kind:#04x}");
    }

    let dir = std::env::temp_dir()
        .join(format!("cupid-protocol-test-{}-retired-kinds", std::process::id()));
    let (config, th) = (CupidConfig::default(), Thesaurus::with_default_stopwords());
    let server =
        Server::bind("127.0.0.1:0", dir.join("cupid.repo"), &config, &th, ServeOptions::default())
            .unwrap();
    let (addr, drain) = (server.local_addr(), server.shutdown_handle());
    let answers = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        // The daemon hangs up after a malformed frame: one connection
        // per kind.
        let answers = std::panic::catch_unwind(|| {
            RETIRED_REQUESTS.map(|kind| {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                write_frame(&mut stream, kind, &payload).unwrap();
                Response::read_from(&mut stream).unwrap()
            })
        });
        drain.drain();
        daemon.join().unwrap().unwrap();
        answers
    });
    std::fs::remove_dir_all(&dir).ok();
    for (kind, answer) in RETIRED_REQUESTS.into_iter().zip(answers.expect("the daemon answers")) {
        match answer {
            Some(Response::Error { message }) => {
                let want = format!("unknown request kind {kind:#04x}");
                assert!(message.contains(&want), "got `{message}`");
            }
            other => panic!("expected an error frame for {kind:#04x}, got {other:?}"),
        }
    }
}

fn request_frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    req.write_to(&mut buf).unwrap();
    buf
}

fn response_frame(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.write_to(&mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode is the identity on every request variant, and a
    /// stream of many frames reads back in order.
    #[test]
    fn requests_round_trip(
        sdl in "[ -~]{0,40}",
        a in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        b in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        k in 0u32..1000,
    ) {
        let all = requests(&sdl, &a, &b, k);
        let mut stream = Vec::new();
        for req in &all {
            req.write_to(&mut stream).unwrap();
        }
        let mut r = &stream[..];
        for want in &all {
            let got = Request::read_from(&mut r).unwrap().expect("frame present");
            prop_assert_eq!(&got, want);
        }
        prop_assert_eq!(Request::read_from(&mut r).unwrap(), None);
    }

    /// encode → decode is the identity on every response variant,
    /// similarity bits included.
    #[test]
    fn responses_round_trip(
        a in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        b in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        seed in 0u64..u64::MAX,
        n in 0u64..u64::MAX,
    ) {
        let summary = summary_from(seed);
        for want in responses(&a, &b, &summary, n) {
            let bytes = response_frame(&want);
            let mut r = &bytes[..];
            let got = Response::read_from(&mut r).unwrap().expect("frame present");
            prop_assert_eq!(Response::read_from(&mut r).unwrap(), None);
            match (&got, &want) {
                (Response::Batch { entries: g }, Response::Batch { entries: w }) => {
                    prop_assert_eq!(g.len(), w.len());
                    for (x, y) in g.iter().zip(w) {
                        match (x, y) {
                            (Ok(x), Ok(y)) => {
                                prop_assert!(outcome_bits_eq(x, y), "outcome bits diverged");
                            }
                            (x, y) => prop_assert_eq!(x, y),
                        }
                    }
                }
                (got, want) => prop_assert_eq!(got, want),
            }
        }
    }

    /// Single-byte corruption anywhere in a frame is rejected loudly,
    /// and so is truncation at any offset.
    #[test]
    fn corrupt_and_truncated_frames_rejected(
        sdl in "[ -~]{0,40}",
        a in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        b in "[A-Za-z][A-Za-z0-9_.]{0,11}",
        seed in 0u64..u64::MAX,
        byte in 0usize..10_000,
    ) {
        let summary = summary_from(seed);
        let mut frames: Vec<Vec<u8>> =
            requests(&sdl, &a, &b, 5).iter().map(request_frame).collect();
        frames.extend(responses(&a, &b, &summary, 12_345).iter().map(response_frame));
        for bytes in frames {
            let flip = byte % bytes.len();
            let mut broken = bytes.clone();
            broken[flip] ^= 0x01;
            prop_assert!(
                read_frame(&mut &broken[..]).is_err(),
                "flipped byte {} of {} slipped through", flip, bytes.len()
            );
            let cut = byte % bytes.len();
            if cut > 0 {
                prop_assert!(
                    read_frame(&mut &bytes[..cut]).is_err(),
                    "truncation at {} slipped through", cut
                );
            }
        }
    }
}
