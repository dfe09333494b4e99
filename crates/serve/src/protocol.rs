//! The daemon's wire protocol (DESIGN.md §9.2).
//!
//! Every message is one checksummed frame
//! ([`cupid_model::wire::write_frame`]): the frame kind byte is the
//! message discriminator, the payload is the message body in the
//! workspace's hand-rolled wire format ([`WireWriter`]/[`WireReader`]
//! — little-endian integers, `f64` by bits, length-prefixed UTF-8).
//! This module declares the daemon's whole kind space. Requests use
//! kinds `0x07..=0x0A`; responses set the high bit (`0x81..=0x8B`), so
//! a stray response on a request stream (or vice versa) is rejected as
//! an unknown kind rather than mis-decoded. Kinds `0x01..=0x06`,
//! `0x0B`, `0x0C`, `0x84..=0x86`, `0x8C` and `0x8D` carried id-less
//! mutations and reads of their own; they are retired and stay
//! reserved, never reused.
//!
//! Every read is a [`BatchItem`] and every read result a
//! [`BatchOutcome`]. The batch kinds (`0x09`/`0x8A`, DESIGN.md §11)
//! carry a worklist of them — tagged entries in, per-entry
//! outcome-or-error statuses out — so one frame round-trip amortizes
//! across many requests. A lone read, an explanation or a slow-log
//! query included, is a one-entry batch. Every mutation is a
//! [`Request::Mutate`] (`0x0A`), stamped with a request id for retry
//! deduplication (DESIGN.md §12); `0x8B` is the admission controller's
//! typed overload shed.
//!
//! Schema payloads travel as SDL text (`cupid-io`'s schema description
//! language), the reproduction's native review/exchange format — the
//! daemon parses, validates and prepares on its side, so a client
//! never ships prepared state, only content. Match results travel as
//! [`MatchSummary`] wire bytes, similarity bits included: a summary
//! decoded from the daemon compares `==` to one computed in-process,
//! which is what the bit-identity integration suite asserts.
//!
//! Decoding is strict both ways: unknown kinds, malformed payloads and
//! trailing bytes are loud [`WireError`]s, and the frame layer already
//! rejected any byte corruption via its FNV-1a checksum.

use std::io::{Read, Write};

use cupid_core::{MatchSummary, PairExplanation};
use cupid_model::{read_frame, write_frame, FrameError, WireError, WireReader, WireWriter};

use crate::histogram::KindLatency;
use crate::trace::TraceRecord;

/// A request a client sends to the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Persist the repository snapshot now.
    Save,
    /// Stop accepting connections and exit after a final save.
    Shutdown,
    /// A worklist of read-side requests in one frame (DESIGN.md §11).
    /// The daemon answers with [`Response::Batch`], one status per
    /// entry in order: a bad entry fails alone, the rest still serve.
    Batch {
        /// The worklist, executed under one read-lock acquisition.
        items: Vec<BatchItem>,
    },
    /// A schema mutation carrying a client-assigned request id
    /// (DESIGN.md §12). The daemon remembers recently executed ids and
    /// answers a duplicate with the *original* response instead of
    /// re-applying — which is what makes mutation retries safe when an
    /// acknowledgment is lost to a reset: the retried `Add` gets its
    /// `Added` back, not an "already in repository" error, and the
    /// mutation applies exactly once.
    Mutate {
        /// Client-assigned id, unique per logical mutation; a retry
        /// resends the same id with the same payload.
        request_id: u64,
        /// The mutation itself.
        op: MutationOp,
    },
}

/// The operation inside a [`Request::Mutate`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Add a new schema, shipped as SDL text. Fails if the schema's
    /// name is already present.
    Add {
        /// The schema as an SDL document.
        sdl: String,
    },
    /// Replace the stored schema with the same name (incremental
    /// re-match: only the edited schema's pairs lose their cache).
    Replace {
        /// The replacement schema as an SDL document.
        sdl: String,
    },
    /// Remove the schema stored under this name.
    Remove {
        /// The repository key.
        name: String,
    },
}

/// One read: an entry of a [`Request::Batch`] worklist. Only reads
/// batch — mutations stay unary so each keeps its own durability
/// acknowledgment (DESIGN.md §10.4).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// Match one stored pair by name.
    MatchPair {
        /// Source schema name.
        source: String,
        /// Target schema name.
        target: String,
    },
    /// Index-pruned top-`k` discovery over the whole corpus.
    TopK {
        /// Candidates kept per schema.
        k: u32,
    },
    /// Repository and session counters.
    Stats,
    /// Explain one stored pair by name (DESIGN.md §14): per-mapping
    /// score provenance — the lsim/ssim/wsim breakdown, top token
    /// pairs with their similarity sources, and the structural context
    /// behind each kept mapping. Never consults or fills the pair
    /// cache; the match hot path is untouched.
    Explain {
        /// Source schema name.
        source: String,
        /// Target schema name.
        target: String,
    },
    /// The daemon's slow-log ring (DESIGN.md §13.2): the slowest-N
    /// requests seen so far, each carried whole with its per-stage
    /// latency breakdown, slowest first.
    SlowLog,
}

/// The successful result of one [`BatchItem`], in a batch entry.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// [`BatchItem::MatchPair`] result.
    Matched {
        /// Source schema name, echoed back.
        source: String,
        /// Target schema name, echoed back.
        target: String,
        /// The match result, bit-identical to an in-process run.
        summary: MatchSummary,
    },
    /// [`BatchItem::TopK`] result: the executed candidate pairs in
    /// `(i, j)` index order, plus the repository's name table so the
    /// client can render `SchemaId` indices.
    TopKList {
        /// Schema names, in repository order (summary ids index this).
        names: Vec<String>,
        /// Executed candidate pairs' summaries.
        summaries: Vec<MatchSummary>,
    },
    /// [`BatchItem::Stats`] result.
    Stats(StatsReport),
    /// [`BatchItem::Explain`] result: per-mapping score provenance for
    /// the pair. Every mapping's explanation recomposes to its reported
    /// `wsim` bit-exactly ([`PairExplanation::recomposes_exactly`]).
    Explained(PairExplanation),
    /// [`BatchItem::SlowLog`] result: the ring contents, slowest first,
    /// each with its full stage breakdown.
    SlowLog(Vec<TraceRecord>),
}

/// Declares [`StatsReport`]: its `u64` counters in wire order, each
/// with its Prometheus series, type and HELP line (which is also the
/// field's doc), then the fields that are not plain counters. From the
/// one list come the struct, its Stats payload codec and
/// [`StatsReport::counters`], which `/metrics` and the CLI render.
macro_rules! stats_report {
    ($($field:ident: $series:literal $kind:ident $help:literal,)*) => {
        /// Aggregate daemon counters, as served by [`BatchItem::Stats`].
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct StatsReport {
            $(#[doc = $help] pub $field: u64,)*
            /// The repository's most recent persistence failure, or
            /// empty when durability is healthy — how autosave
            /// degradation reaches operators instead of dying in the
            /// daemon's stderr.
            pub last_fsync_error: String,
            /// Per-request-kind latency histograms (log2 buckets;
            /// DESIGN.md §11), one entry per kind the daemon records, in
            /// the daemon's fixed kind order.
            pub latencies: Vec<KindLatency>,
            /// Per-(request kind, stage) attribution histograms
            /// (DESIGN.md §13.1), labeled `"<kind>/<stage>"`, non-empty
            /// cells only — where each kind's wall time actually goes.
            pub stage_latencies: Vec<KindLatency>,
        }

        impl StatsReport {
            /// Every counter as (Prometheus series, type, HELP line,
            /// value), in wire order.
            pub fn counters(&self) -> Vec<(&'static str, &'static str, &'static str, u64)> {
                vec![$(($series, stringify!($kind), $help, self.$field)),*]
            }

            fn write_wire(&self, w: &mut WireWriter) {
                $(w.put_u64(self.$field);)*
                w.put_str(&self.last_fsync_error);
                write_latencies(w, &self.latencies);
                write_latencies(w, &self.stage_latencies);
            }

            fn read_wire(r: &mut WireReader<'_>) -> Result<StatsReport, WireError> {
                // Struct-literal order is evaluation order, so fields
                // decode in wire order.
                Ok(StatsReport {
                    $($field: r.get_u64()?,)*
                    last_fsync_error: r.get_str()?,
                    latencies: read_latencies(r)?,
                    stage_latencies: read_latencies(r)?,
                })
            }
        }
    };
}

// Append-only, like every wire layout: a new counter goes after every
// older one.
stats_report! {
    schemas: "cupid_schemas" gauge "Schemas resident in the repository.",
    cached_pairs: "cupid_cached_pairs" gauge "Pair summaries currently cached.",
    pairs_executed: "cupid_pairs_executed_total" counter
        "Full pair executions since the daemon opened the repository.",
    vocab_size: "cupid_vocab_size" gauge "Distinct interned tokens across the corpus.",
    distinct_pairs_computed: "cupid_distinct_token_pairs" gauge
        "Distinct token pairs memoized in the similarity store.",
    sim_chunks: "cupid_sim_chunks" gauge "Chunks allocated by the similarity memo.",
    sim_bytes: "cupid_sim_bytes" gauge "Bytes committed by the similarity memo.",
    requests_served: "cupid_requests_total" counter "Requests served since daemon start.",
    journal_records: "cupid_journal_records" gauge
        "Mutation records in the write-ahead journal (folds to 0 at compaction).",
    journal_bytes: "cupid_journal_bytes" gauge "Bytes in the journal file, header included.",
    replayed_records: "cupid_replayed_records_total" counter
        "Journal records replayed when the daemon opened the repository.",
    compactions: "cupid_compactions_total" counter
        "Times the journal was folded into a snapshot since open.",
    shed_requests: "cupid_shed_requests_total" counter
        "Requests refused by admission control past the queue deadline.",
    idle_disconnects: "cupid_idle_disconnects_total" counter
        "Connections closed for idling past the idle read deadline.",
    deadline_cuts: "cupid_deadline_cuts_total" counter
        "Connections cut for stalling mid-frame past the frame deadline.",
    deduped_mutations: "cupid_deduped_mutations_total" counter
        "Mutation retries answered from the request-id replay table.",
    slow_requests: "cupid_slow_requests_total" counter
        "Requests slower than the slow-log threshold since daemon start.",
    slow_log_entries: "cupid_slow_log_entries" gauge "Traces currently held in the slow-log ring.",
    metrics_scrapes: "cupid_metrics_scrapes_total" counter
        "HTTP /metrics scrapes answered since daemon start.",
    vocab_bytes: "cupid_vocab_bytes" gauge
        "Approximate heap bytes held by the interned token table.",
    explanations_served: "cupid_explanations_served_total" counter
        "Explain requests answered since daemon start.",
}

/// A response the daemon sends back. Every request gets exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The schema was added under this name.
    Added {
        /// The repository key the schema is now stored under.
        name: String,
    },
    /// The schema was replaced (or found content-identical).
    Replaced {
        /// The repository key that was replaced.
        name: String,
    },
    /// The schema was removed.
    Removed {
        /// The repository key that was removed.
        name: String,
    },
    /// The snapshot was persisted ([`Request::Save`]).
    Saved {
        /// Size of the written snapshot file, in bytes.
        bytes: u64,
    },
    /// The daemon acknowledged [`Request::Shutdown`] and will exit.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Admission control shed the request: the daemon's in-flight cap
    /// stayed full past its queue deadline (DESIGN.md §12). The
    /// connection stays usable and the request is safe to retry after
    /// backing off — nothing was executed.
    Overloaded {
        /// The daemon's in-flight cap at the time of the shed.
        max_inflight: u64,
        /// How long the request waited for a slot before being shed,
        /// in milliseconds (the daemon's queue deadline).
        queue_deadline_ms: u64,
    },
    /// The result of a [`Request::Batch`]: one status per worklist
    /// entry, in order. An `Err` entry carries the failure message and
    /// fails alone — the other entries still carry their results.
    Batch {
        /// Per-entry statuses, in worklist order.
        entries: Vec<Result<BatchOutcome, String>>,
    },
}

// Frame kind codes: the daemon's whole kind space, which
// `cupid_model::wire` reserves (`0x0_` requests, `0x8_` responses; the
// journal writes `0x4_`). Append-only, like every enum code in the wire
// format: new messages get new numbers, existing numbers never change
// meaning. Retired kinds decode as unknown ones and are never reused:
// 0x01..=0x03 carried the id-less add/replace/remove requests before
// every mutation became a `Mutate`; 0x04..=0x06 (answered in
// 0x84..=0x86) carried one read each before a lone read became a
// one-entry batch; and 0x0B/0x0C (answered in 0x8C/0x8D) carried the
// slow-log query and explain before they became batch entries.
const REQ_SAVE: u8 = 0x07;
const REQ_SHUTDOWN: u8 = 0x08;
/// Batch request frame kind: a worklist of [`BatchItem`]s.
pub const BATCH_REQUEST: u8 = 0x09;
const REQ_MUTATE: u8 = 0x0A;
const RESP_ADDED: u8 = 0x81;
const RESP_REPLACED: u8 = 0x82;
const RESP_REMOVED: u8 = 0x83;
const RESP_SAVED: u8 = 0x87;
const RESP_SHUTTING_DOWN: u8 = 0x88;
const RESP_ERROR: u8 = 0x89;
/// Batch response frame kind: one status per worklist entry.
pub const BATCH_RESPONSE: u8 = 0x8A;
const RESP_OVERLOADED: u8 = 0x8B;

// Inner tag bytes of batch worklist entries and their statuses
// (same append-only discipline as frame kinds).
const ITEM_MATCH_PAIR: u8 = 0x01;
const ITEM_TOP_K: u8 = 0x02;
const ITEM_STATS: u8 = 0x03;
const ITEM_EXPLAIN: u8 = 0x04;
const ITEM_SLOW_LOG: u8 = 0x05;
const MUTATE_ADD: u8 = 0x01;
const MUTATE_REPLACE: u8 = 0x02;
const MUTATE_REMOVE: u8 = 0x03;
const ENTRY_ERR: u8 = 0x00;
const ENTRY_MATCHED: u8 = 0x01;
const ENTRY_TOP_K: u8 = 0x02;
const ENTRY_STATS: u8 = 0x03;
const ENTRY_EXPLAINED: u8 = 0x04;
const ENTRY_SLOW_LOG: u8 = 0x05;

impl Request {
    /// Encode into (frame kind, payload bytes).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = WireWriter::new();
        let kind = match self {
            Request::Save => REQ_SAVE,
            Request::Shutdown => REQ_SHUTDOWN,
            Request::Batch { items } => {
                w.put_list(items, |w, item| item.write_wire(w));
                BATCH_REQUEST
            }
            Request::Mutate { request_id, op } => {
                w.put_u64(*request_id);
                match op {
                    MutationOp::Add { sdl } => {
                        w.put_u8(MUTATE_ADD);
                        w.put_str(sdl);
                    }
                    MutationOp::Replace { sdl } => {
                        w.put_u8(MUTATE_REPLACE);
                        w.put_str(sdl);
                    }
                    MutationOp::Remove { name } => {
                        w.put_u8(MUTATE_REMOVE);
                        w.put_str(name);
                    }
                }
                REQ_MUTATE
            }
        };
        (kind, w.into_bytes())
    }

    /// Decode a frame's kind + payload. Strict: unknown kinds and
    /// trailing bytes are errors.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let req = match kind {
            REQ_SAVE => Request::Save,
            REQ_SHUTDOWN => Request::Shutdown,
            BATCH_REQUEST => Request::Batch { items: r.get_list(BatchItem::read_wire)? },
            REQ_MUTATE => {
                let request_id = r.get_u64()?;
                let op = match r.get_u8()? {
                    MUTATE_ADD => MutationOp::Add { sdl: r.get_str()? },
                    MUTATE_REPLACE => MutationOp::Replace { sdl: r.get_str()? },
                    MUTATE_REMOVE => MutationOp::Remove { name: r.get_str()? },
                    other => return Err(r.err(format!("unknown mutation tag {other:#04x}"))),
                };
                Request::Mutate { request_id, op }
            }
            other => return Err(r.err(format!("unknown request kind {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }

    /// Write this request as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), FrameError> {
        let (kind, payload) = self.encode();
        write_frame(w, kind, &payload)
    }

    /// Read one request frame; `None` on clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Request>, FrameError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Request::decode(kind, &payload)
                .map(Some)
                .map_err(|e| FrameError::Malformed(e.to_string())),
        }
    }
}

impl BatchItem {
    /// Write this read as a batch entry: its tag, then its body.
    fn write_wire(&self, w: &mut WireWriter) {
        match self {
            BatchItem::MatchPair { source, target } => {
                w.put_u8(ITEM_MATCH_PAIR);
                w.put_str(source);
                w.put_str(target);
            }
            BatchItem::TopK { k } => {
                w.put_u8(ITEM_TOP_K);
                w.put_u32(*k);
            }
            BatchItem::Stats => w.put_u8(ITEM_STATS),
            BatchItem::Explain { source, target } => {
                w.put_u8(ITEM_EXPLAIN);
                w.put_str(source);
                w.put_str(target);
            }
            BatchItem::SlowLog => w.put_u8(ITEM_SLOW_LOG),
        }
    }

    fn read_wire(r: &mut WireReader<'_>) -> Result<BatchItem, WireError> {
        Ok(match r.get_u8()? {
            ITEM_MATCH_PAIR => BatchItem::MatchPair { source: r.get_str()?, target: r.get_str()? },
            ITEM_TOP_K => BatchItem::TopK { k: r.get_u32()? },
            ITEM_STATS => BatchItem::Stats,
            ITEM_EXPLAIN => BatchItem::Explain { source: r.get_str()?, target: r.get_str()? },
            ITEM_SLOW_LOG => BatchItem::SlowLog,
            other => return Err(r.err(format!("unknown batch item tag {other:#04x}"))),
        })
    }
}

impl BatchOutcome {
    /// Write one batch entry: its status tag, then its body.
    fn write_entry(entry: &Result<BatchOutcome, String>, w: &mut WireWriter) {
        match entry {
            Err(message) => {
                w.put_u8(ENTRY_ERR);
                w.put_str(message);
            }
            Ok(BatchOutcome::Matched { source, target, summary }) => {
                w.put_u8(ENTRY_MATCHED);
                w.put_str(source);
                w.put_str(target);
                summary.write_wire(w);
            }
            Ok(BatchOutcome::TopKList { names, summaries }) => {
                w.put_u8(ENTRY_TOP_K);
                w.put_list(names, |w, n| w.put_str(n));
                w.put_list(summaries, |w, s| s.write_wire(w));
            }
            Ok(BatchOutcome::Stats(report)) => {
                w.put_u8(ENTRY_STATS);
                report.write_wire(w);
            }
            Ok(BatchOutcome::Explained(explanation)) => {
                w.put_u8(ENTRY_EXPLAINED);
                explanation.write_wire(w);
            }
            Ok(BatchOutcome::SlowLog(traces)) => {
                w.put_u8(ENTRY_SLOW_LOG);
                w.put_list(traces, |w, trace| trace.write_wire(w));
            }
        }
    }

    fn read_entry(r: &mut WireReader<'_>) -> Result<Result<BatchOutcome, String>, WireError> {
        Ok(Ok(match r.get_u8()? {
            ENTRY_ERR => return Ok(Err(r.get_str()?)),
            ENTRY_MATCHED => BatchOutcome::Matched {
                source: r.get_str()?,
                target: r.get_str()?,
                summary: MatchSummary::read_wire(r)?,
            },
            ENTRY_TOP_K => {
                let names = r.get_list(WireReader::get_str)?;
                let summaries = r.get_list(|r| {
                    let summary = MatchSummary::read_wire(r)?;
                    // A client renders summary ids through the name
                    // table, so an id past it is a malformed listing.
                    let id = summary.source.index().max(summary.target.index());
                    if id >= names.len() {
                        return Err(r.err(format!(
                            "top-k summary names schema id {id} past its {}-name table",
                            names.len()
                        )));
                    }
                    Ok(summary)
                })?;
                BatchOutcome::TopKList { names, summaries }
            }
            ENTRY_STATS => BatchOutcome::Stats(StatsReport::read_wire(r)?),
            ENTRY_EXPLAINED => BatchOutcome::Explained(PairExplanation::read_wire(r)?),
            ENTRY_SLOW_LOG => BatchOutcome::SlowLog(r.get_list(TraceRecord::read_wire)?),
            other => return Err(r.err(format!("unknown batch entry tag {other:#04x}"))),
        }))
    }
}

/// Shared encoding of a latency-histogram list (the per-kind wall
/// histograms and the per-(kind, stage) attribution histograms use the
/// same shape).
fn write_latencies(w: &mut WireWriter, latencies: &[KindLatency]) {
    w.put_list(latencies, |w, l| {
        w.put_str(&l.kind);
        w.put_u64(l.count);
        w.put_u64(l.total_ns);
        w.put_list(&l.buckets, |w, &b| w.put_u64(b));
    });
}

fn read_latencies(r: &mut WireReader<'_>) -> Result<Vec<KindLatency>, WireError> {
    r.get_list(|r| {
        Ok(KindLatency {
            kind: r.get_str()?,
            count: r.get_u64()?,
            total_ns: r.get_u64()?,
            buckets: r.get_list(WireReader::get_u64)?,
        })
    })
}

impl TraceRecord {
    fn write_wire(&self, w: &mut WireWriter) {
        w.put_u64(self.trace_id);
        w.put_str(&self.kind);
        w.put_u64(self.total_ns);
        w.put_u64(self.finished_unix_ms);
        w.put_list(&self.stage_ns, |w, &ns| w.put_u64(ns));
    }

    fn read_wire(r: &mut WireReader<'_>) -> Result<TraceRecord, WireError> {
        Ok(TraceRecord {
            trace_id: r.get_u64()?,
            kind: r.get_str()?,
            total_ns: r.get_u64()?,
            finished_unix_ms: r.get_u64()?,
            stage_ns: r.get_list(WireReader::get_u64)?,
        })
    }
}

impl Response {
    /// Encode into (frame kind, payload bytes).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = WireWriter::new();
        let kind = match self {
            Response::Added { name } => {
                w.put_str(name);
                RESP_ADDED
            }
            Response::Replaced { name } => {
                w.put_str(name);
                RESP_REPLACED
            }
            Response::Removed { name } => {
                w.put_str(name);
                RESP_REMOVED
            }
            Response::Saved { bytes } => {
                w.put_u64(*bytes);
                RESP_SAVED
            }
            Response::ShuttingDown => RESP_SHUTTING_DOWN,
            Response::Error { message } => {
                w.put_str(message);
                RESP_ERROR
            }
            Response::Overloaded { max_inflight, queue_deadline_ms } => {
                w.put_u64(*max_inflight);
                w.put_u64(*queue_deadline_ms);
                RESP_OVERLOADED
            }
            Response::Batch { entries } => {
                w.put_list(entries, |w, entry| BatchOutcome::write_entry(entry, w));
                BATCH_RESPONSE
            }
        };
        (kind, w.into_bytes())
    }

    /// Decode a frame's kind + payload. Strict, like
    /// [`Request::decode`].
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        let resp = match kind {
            RESP_ADDED => Response::Added { name: r.get_str()? },
            RESP_REPLACED => Response::Replaced { name: r.get_str()? },
            RESP_REMOVED => Response::Removed { name: r.get_str()? },
            RESP_SAVED => Response::Saved { bytes: r.get_u64()? },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_ERROR => Response::Error { message: r.get_str()? },
            RESP_OVERLOADED => {
                Response::Overloaded { max_inflight: r.get_u64()?, queue_deadline_ms: r.get_u64()? }
            }
            BATCH_RESPONSE => Response::Batch { entries: r.get_list(BatchOutcome::read_entry)? },
            other => return Err(r.err(format!("unknown response kind {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Write this response as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), FrameError> {
        let (kind, payload) = self.encode();
        write_frame(w, kind, &payload)
    }

    /// Read one response frame; `None` on clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Response>, FrameError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Response::decode(kind, &payload)
                .map(Some)
                .map_err(|e| FrameError::Malformed(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_core::{Explanation, SchemaId, StructuralContext, TokenPairScore};
    use cupid_lexical::{TokenSimProvenance, TokenType};
    use cupid_model::NodeId;

    /// A hand-built explanation exercising every payload shape: token
    /// pairs with distinct provenances, structural flags, and the
    /// pair-level counters.
    fn sample_explanation() -> PairExplanation {
        PairExplanation {
            source_name: "PO".into(),
            target_name: "Order".into(),
            mappings: vec![Explanation {
                source: NodeId::from_index(2),
                target: NodeId::from_index(3),
                source_path: "PO.Item.Qty".into(),
                target_path: "Order.Item.Quantity".into(),
                leaf: true,
                wsim: 0.75,
                ssim: 0.9,
                lsim: 0.6,
                w_struct: 0.5,
                th_accept: 0.5,
                name_similarity: 0.6,
                category_scale: 1.0,
                token_pairs: vec![
                    TokenPairScore {
                        source_token: "quantity".into(),
                        target_token: "quantity".into(),
                        token_type: TokenType::Concept,
                        sim: 1.0,
                        provenance: TokenSimProvenance::Thesaurus,
                    },
                    TokenPairScore {
                        source_token: "addr".into(),
                        target_token: "address".into(),
                        token_type: TokenType::Content,
                        sim: 0.55,
                        provenance: TokenSimProvenance::Affix {
                            prefix_len: 4,
                            suffix_len: 0,
                            capped: true,
                        },
                    },
                ],
                structure: StructuralContext {
                    source_leaves: 2,
                    target_leaves: 2,
                    source_strong_links: 2,
                    target_strong_links: 1,
                    main_pass_wsim: 0.7,
                    pruned: false,
                    increased: true,
                    decreased: false,
                },
            }],
            compared_pairs: 9,
            total_pairs: 16,
            increases: 1,
            decreases: 0,
        }
    }

    #[test]
    fn explain_frames_round_trip() {
        let explain = BatchItem::Explain { source: "PO".into(), target: "Order".into() };
        let req = Request::Batch { items: vec![explain] };
        let (kind, payload) = req.encode();
        assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        // Request kind on a response stream must not decode.
        assert!(Response::decode(kind, &payload).is_err());

        let want =
            Response::Batch { entries: vec![Ok(BatchOutcome::Explained(sample_explanation()))] };
        let (kind, payload) = want.encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), want);
        assert!(Request::decode(kind, &payload).is_err());
        // Trailing bytes are rejected, like every frame.
        let (kind, mut payload) = want.encode();
        payload.push(0);
        assert!(Response::decode(kind, &payload).is_err());
    }

    #[test]
    fn request_kinds_round_trip() {
        let requests = [
            Request::Batch {
                items: vec![BatchItem::MatchPair { source: "PO".into(), target: "Order".into() }],
            },
            Request::Batch { items: vec![BatchItem::TopK { k: 3 }] },
            Request::Batch { items: vec![BatchItem::Stats] },
            Request::Save,
            Request::Shutdown,
            Request::Batch {
                items: vec![
                    BatchItem::MatchPair { source: "PO".into(), target: "Order".into() },
                    BatchItem::TopK { k: 2 },
                    BatchItem::Stats,
                ],
            },
            Request::Batch { items: Vec::new() },
            Request::Mutate {
                request_id: 0xDEAD_BEEF_0BAD_CAFE,
                op: MutationOp::Add { sdl: "schema S\n  attr A : int\n".into() },
            },
            Request::Mutate { request_id: 0, op: MutationOp::Replace { sdl: String::new() } },
            Request::Mutate { request_id: u64::MAX, op: MutationOp::Remove { name: "S".into() } },
            Request::Batch { items: vec![BatchItem::SlowLog] },
            Request::Batch {
                items: vec![BatchItem::Explain { source: "PO".into(), target: "Order".into() }],
            },
        ];
        let mut buf = Vec::new();
        for req in &requests {
            req.write_to(&mut buf).unwrap();
        }
        let mut r = &buf[..];
        for req in &requests {
            assert_eq!(Request::read_from(&mut r).unwrap().as_ref(), Some(req));
        }
        assert_eq!(Request::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn request_response_kind_spaces_are_disjoint() {
        // A response frame on a request stream must not decode.
        let (kind, payload) = Response::ShuttingDown.encode();
        assert!(Request::decode(kind, &payload).is_err());
        let (kind, payload) = Request::Batch { items: vec![BatchItem::Stats] }.encode();
        assert!(Response::decode(kind, &payload).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (kind, mut payload) = Request::Batch { items: vec![BatchItem::TopK { k: 9 }] }.encode();
        payload.push(0);
        assert!(Request::decode(kind, &payload).is_err());
        let (kind, mut payload) = Response::Saved { bytes: 17 }.encode();
        payload.push(0);
        assert!(Response::decode(kind, &payload).is_err());
    }

    #[test]
    fn overloaded_response_round_trips() {
        let want = Response::Overloaded { max_inflight: 32, queue_deadline_ms: 100 };
        let (kind, payload) = want.encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), want);
        // The shed is a response kind: it must not decode as a request.
        assert!(Request::decode(kind, &payload).is_err());
        let (kind, mut payload) = want.encode();
        payload.push(0);
        assert!(Response::decode(kind, &payload).is_err());
    }

    #[test]
    fn mutation_tags_are_strict() {
        let (kind, mut payload) =
            Request::Mutate { request_id: 7, op: MutationOp::Remove { name: "X".into() } }.encode();
        payload[8] = 0x7f; // the op tag byte, after the u64 request id
        assert!(Request::decode(kind, &payload).is_err());
    }

    #[test]
    fn batch_response_round_trips_per_entry_statuses() {
        let entries = vec![
            Err("no schema `Ghost` in the repository".to_string()),
            Ok(BatchOutcome::TopKList { names: vec!["A".into(), "B".into()], summaries: vec![] }),
        ];
        let want = Response::Batch { entries };
        let (kind, payload) = want.encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), want);
        // An unknown entry tag is a loud decode error.
        let (kind, mut payload) = Response::Batch { entries: vec![Err("x".into())] }.encode();
        payload[4] = 0x7f; // the first entry's tag byte (after the u32 count)
        assert!(Response::decode(kind, &payload).is_err());
    }

    #[test]
    fn top_k_listing_ids_stay_inside_the_name_table() {
        let summary = MatchSummary {
            source: SchemaId::from_index(0),
            target: SchemaId::from_index(5),
            leaf_mappings: Vec::new(),
            nonleaf_mappings: Vec::new(),
            top_pairs: Vec::new(),
            compared_pairs: 0,
            total_pairs: 0,
        };
        let listing = |names: usize| Response::Batch {
            entries: vec![Ok(BatchOutcome::TopKList {
                names: (0..names).map(|i| format!("S{i}")).collect(),
                summaries: vec![summary.clone()],
            })],
        };
        let (kind, payload) = listing(6).encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), listing(6));
        // Id 5 indexes past a one-name table: a client would panic
        // rendering it, so the listing must not decode.
        let (kind, payload) = listing(1).encode();
        let err = Response::decode(kind, &payload).expect_err("id 5 is past a one-name table");
        assert!(err.to_string().contains("schema id 5 past its 1-name table"), "got `{err}`");
    }

    #[test]
    fn slow_log_response_round_trips() {
        let one = |traces| Response::Batch { entries: vec![Ok(BatchOutcome::SlowLog(traces))] };
        let want = one(vec![
            TraceRecord {
                trace_id: 42,
                kind: "batch".into(),
                total_ns: 2_000_000,
                finished_unix_ms: 1_754_000_000_000,
                stage_ns: vec![0, 1_000, 0, 0, 1_900_000, 0, 50_000, 49_000],
            },
            TraceRecord {
                trace_id: 7,
                kind: "match_pair".into(),
                total_ns: 1_200_000,
                finished_unix_ms: 0,
                stage_ns: Vec::new(),
            },
        ]);
        let (kind, payload) = want.encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), want);
        // Empty ring round-trips too.
        let empty = one(Vec::new());
        let (kind, payload) = empty.encode();
        assert_eq!(Response::decode(kind, &payload).unwrap(), empty);
        // Trailing bytes are rejected, like every frame.
        let (kind, mut payload) = want.encode();
        payload.push(0);
        assert!(Response::decode(kind, &payload).is_err());
    }
}
