//! Request-scoped tracing and per-stage latency attribution
//! (DESIGN.md §13).
//!
//! Per-kind latency histograms say how long a request took, never
//! where: a client can observe far more latency than the daemon's own
//! histogram holds, and nothing in them says which stage holds the gap.
//! This module is the answer: every request carries a [`RequestTrace`]
//! that attributes its wall time to a fixed taxonomy of pipeline
//! [`Stage`]s (admission wait, frame decode, repository lock wait split
//! read/write, match execution split cached/uncached, response encode,
//! socket write).
//! Traces aggregate into per-(request kind, stage)
//! [`LatencyHistogram`]s ([`StageRecorder`]) served by `Stats` reads,
//! and the slowest requests land whole in a bounded [`SlowLog`] ring
//! served by `SlowLog` reads — so a single 4 ms p999
//! outlier is explained post hoc by its own stage breakdown instead of
//! being averaged away.
//!
//! Tracing is attribution *by tiling*: the daemon timestamps stage
//! boundaries it already crosses (one `Instant::now` per boundary, no
//! allocation, no locks until the trace finishes), so the stage sums of
//! a request reconstruct its handler wall time to within the few
//! untimed glue instructions between boundaries — the integration suite
//! asserts ≥ 95% coverage. Tracing is always on, so its cost is inside
//! every latency the daemon reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use crate::histogram::{KindLatency, LatencyHistogram};

/// The pipeline stages a request's wall time is attributed to, in wire
/// and display order. The stage set is append-only, like every code
/// the wire format ships: [`TraceRecord::stage_ns`] is indexed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Waiting for an in-flight slot under admission control
    /// (DESIGN.md §12.2). Zero when admission is off or uncontended.
    AdmissionWait = 0,
    /// Reading and decoding the request frame once its first byte is
    /// visible (the idle wait *before* the first byte is connection
    /// time, not request time).
    Decode = 1,
    /// Blocked acquiring the repository read lock.
    LockWaitRead = 2,
    /// Blocked acquiring the repository write lock: mutations and
    /// saves, which are the only requests that take it.
    LockWaitWrite = 3,
    /// Handler work answered from resident state: name resolution, cache
    /// lookups and inserts (waits on the pair cache's lock included),
    /// index walks, stats assembly, serving summaries in response order.
    ExecCached = 4,
    /// Fresh pair execution ([`cupid_repo::Repository::resolve`]) and
    /// explanations; for mutations, the mutation body itself — journal
    /// append and cache invalidation included — and for saves, the
    /// snapshot write.
    ExecUncached = 5,
    /// Encoding the response frame (payload bytes + checksum).
    Encode = 6,
    /// Writing the encoded frame to the socket.
    SocketWrite = 7,
}

/// Stage labels, indexed by [`Stage`] discriminants — the names the
/// `Stats` frame, the CLI table and the `/metrics` exposition all use.
pub const STAGE_NAMES: [&str; STAGES] = [
    "admission_wait",
    "decode",
    "lock_wait_read",
    "lock_wait_write",
    "exec_cached",
    "exec_uncached",
    "encode",
    "socket_write",
];

/// Number of stages in the taxonomy.
pub const STAGES: usize = 8;

/// One request's stage-attributed timings: a trace id (unique within
/// the daemon run, stamped into slow-log entries and log lines) plus a
/// nanosecond accumulator per [`Stage`]. Cheap to create per request —
/// no allocation, no clock read until the first stage is timed.
#[derive(Debug)]
pub struct RequestTrace {
    /// Daemon-unique id of this request (monotonic per daemon run).
    pub trace_id: u64,
    /// Nanoseconds attributed to each stage, indexed by [`Stage`].
    pub stage_ns: [u64; STAGES],
}

impl RequestTrace {
    /// A trace with the given id.
    pub fn new(trace_id: u64) -> RequestTrace {
        RequestTrace { trace_id, stage_ns: [0; STAGES] }
    }

    /// Attribute `elapsed` to `stage` (accumulating — a batch that
    /// executes several uncached stretches sums them).
    #[inline]
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.stage_ns[stage as usize] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Start timing a stage; [`Timed::stop`] attributes the elapsed
    /// time.
    #[inline]
    pub fn start(&self, stage: Stage) -> Timed {
        Timed { stage, started: Instant::now() }
    }

    /// Attribute everything of `handler_wall` not yet attributed to a
    /// lock-wait or uncached-execution stage to [`Stage::ExecCached`] —
    /// the tiling step that makes per-request stage sums reconstruct
    /// the handler's wall time exactly (resolution, cache lookups and
    /// splicing are interleaved with the timed stretches, so they are
    /// attributed by subtraction instead of by dozens of clock reads).
    pub fn absorb_handler_residual(&mut self, handler_wall: Duration) {
        let wall = u64::try_from(handler_wall.as_nanos()).unwrap_or(u64::MAX);
        let attributed = self.stage_ns[Stage::LockWaitRead as usize]
            + self.stage_ns[Stage::LockWaitWrite as usize]
            + self.stage_ns[Stage::ExecUncached as usize];
        self.stage_ns[Stage::ExecCached as usize] += wall.saturating_sub(attributed);
    }

    /// Sum of all attributed stage time, in nanoseconds.
    pub fn attributed_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }
}

/// An in-progress stage timing handed out by [`RequestTrace::start`].
#[must_use = "call stop(trace) to attribute the elapsed time"]
pub struct Timed {
    stage: Stage,
    started: Instant,
}

impl Timed {
    /// Stop the clock and attribute the elapsed time to the stage.
    #[inline]
    pub fn stop(self, trace: &mut RequestTrace) {
        trace.add(self.stage, self.started.elapsed());
    }
}

/// Per-(request kind, stage) histogram matrix: the daemon-side
/// aggregation finished traces record into, snapshotted into the
/// `Stats` frame as one [`KindLatency`] per non-empty (kind, stage)
/// cell labeled `"<kind>/<stage>"`.
pub struct StageRecorder<const KINDS: usize> {
    cells: [[LatencyHistogram; STAGES]; KINDS],
}

impl<const KINDS: usize> StageRecorder<KINDS> {
    /// A zeroed matrix.
    pub fn new() -> Self {
        StageRecorder {
            cells: std::array::from_fn(|_| std::array::from_fn(|_| LatencyHistogram::new())),
        }
    }

    /// Fold a finished trace into the `kind` row. Stages with zero
    /// attributed time are skipped — their counts would say nothing and
    /// their zero samples would drag bucket 0.
    pub fn record(&self, kind: usize, trace: &RequestTrace) {
        for (stage, &ns) in trace.stage_ns.iter().enumerate() {
            if ns > 0 {
                self.cells[kind][stage].record(Duration::from_nanos(ns));
            }
        }
    }

    /// Snapshot every non-empty cell as `"<kind>/<stage>"`, in kind
    /// then stage order.
    pub fn snapshot(&self, kind_names: &[&str; KINDS]) -> Vec<KindLatency> {
        let mut out = Vec::new();
        for (k, row) in self.cells.iter().enumerate() {
            for (s, hist) in row.iter().enumerate() {
                let snap = hist.snapshot(&format!("{}/{}", kind_names[k], STAGE_NAMES[s]));
                if snap.count > 0 {
                    out.push(snap);
                }
            }
        }
        out
    }
}

impl<const KINDS: usize> Default for StageRecorder<KINDS> {
    fn default() -> Self {
        StageRecorder::new()
    }
}

/// One slow request, frozen for post-hoc inspection: identity, shape
/// and the full stage breakdown. This is what a `SlowLog` read
/// answers with, so it lives here rather than in the protocol module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The request's trace id (matches the daemon's log lines).
    pub trace_id: u64,
    /// Request kind label (`"batch"`, `"match_pair"`, …).
    pub kind: String,
    /// Wall time of the whole request, in nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds per stage, indexed like [`STAGE_NAMES`].
    pub stage_ns: Vec<u64>,
    /// When the request finished, as milliseconds since the Unix epoch
    /// (wall-clock, for correlating with external logs).
    pub finished_unix_ms: u64,
}

/// Bounded ring of the slowest requests seen so far: a request slower
/// than the configured threshold is admitted; once the ring is full,
/// a new entry evicts the *fastest* resident entry if the newcomer is
/// slower — so the ring converges on the slowest-N population rather
/// than the most recent N (a burst of mild outliers cannot flush the
/// one catastrophic request an operator is hunting).
pub struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    entries: Mutex<Vec<TraceRecord>>,
    /// Requests that cleared the threshold (admitted or not) — lets an
    /// operator see how censored the ring is.
    over_threshold: AtomicU64,
}

impl SlowLog {
    /// A ring keeping at most `capacity` traces of requests slower than
    /// `threshold`. A zero capacity disables recording entirely.
    pub fn new(capacity: usize, threshold: Duration) -> SlowLog {
        SlowLog {
            threshold_ns: u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX),
            capacity,
            entries: Mutex::new(Vec::new()),
            over_threshold: AtomicU64::new(0),
        }
    }

    /// The admission threshold, in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Requests that ran slower than the threshold since the daemon
    /// started (admitted to the ring or not).
    pub fn over_threshold(&self) -> u64 {
        self.over_threshold.load(Ordering::Relaxed)
    }

    /// Offer a finished trace. Fast path (under threshold, or capacity
    /// zero) takes no lock.
    pub fn offer(&self, trace: &RequestTrace, kind: &str, total: Duration) {
        let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        if total_ns < self.threshold_ns {
            return;
        }
        self.over_threshold.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let record = TraceRecord {
            trace_id: trace.trace_id,
            kind: kind.to_string(),
            total_ns,
            stage_ns: trace.stage_ns.to_vec(),
            finished_unix_ms: unix_ms(),
        };
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() < self.capacity {
            entries.push(record);
            return;
        }
        // Full: replace the fastest resident entry iff we're slower.
        if let Some((slot, fastest)) = entries.iter().enumerate().min_by_key(|(_, r)| r.total_ns) {
            if record.total_ns > fastest.total_ns {
                entries[slot] = record;
            }
        }
    }

    /// The current ring contents, slowest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = self.entries.lock().unwrap_or_else(|e| e.into_inner()).clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        out
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before 1970,
/// which only a badly broken clock reports).
pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_tile_handler_wall() {
        let mut t = RequestTrace::new(7);
        t.add(Stage::LockWaitRead, Duration::from_nanos(300));
        t.add(Stage::ExecUncached, Duration::from_nanos(5_000));
        t.absorb_handler_residual(Duration::from_nanos(6_000));
        assert_eq!(t.stage_ns[Stage::ExecCached as usize], 700);
        assert_eq!(
            t.attributed_ns(),
            6_000,
            "stage sums must reconstruct the handler wall exactly"
        );
    }

    #[test]
    fn residual_never_underflows() {
        let mut t = RequestTrace::new(0);
        // Attributed time can exceed the measured wall by clock
        // granularity; the residual must clamp, not wrap.
        t.add(Stage::ExecUncached, Duration::from_nanos(10_000));
        t.absorb_handler_residual(Duration::from_nanos(9_000));
        assert_eq!(t.stage_ns[Stage::ExecCached as usize], 0);
    }

    #[test]
    fn recorder_labels_and_skips_empty_cells() {
        let rec: StageRecorder<2> = StageRecorder::new();
        let mut t = RequestTrace::new(1);
        t.add(Stage::Decode, Duration::from_nanos(1_000));
        t.add(Stage::SocketWrite, Duration::from_nanos(2_000));
        rec.record(1, &t);
        let snaps = rec.snapshot(&["mutate", "batch"]);
        let labels: Vec<&str> = snaps.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(labels, ["batch/decode", "batch/socket_write"]);
        assert!(snaps.iter().all(|s| s.count == 1));
    }

    #[test]
    fn slow_log_keeps_the_slowest() {
        let log = SlowLog::new(2, Duration::from_nanos(100));
        let offer = |log: &SlowLog, id: u64, ns: u64| {
            let t = RequestTrace::new(id);
            log.offer(&t, "match_pair", Duration::from_nanos(ns));
        };
        offer(&log, 1, 50); // under threshold: ignored
        offer(&log, 2, 500);
        offer(&log, 3, 200);
        offer(&log, 4, 300); // evicts id 3 (fastest resident)
        offer(&log, 5, 150); // slower than nothing resident: dropped
        let snap = log.snapshot();
        let ids: Vec<u64> = snap.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, [2, 4], "slowest first, fastest evicted");
        assert_eq!(log.over_threshold(), 4);
    }

    #[test]
    fn zero_capacity_disables_the_ring_but_counts() {
        let log = SlowLog::new(0, Duration::from_nanos(0));
        log.offer(&RequestTrace::new(1), "stats", Duration::from_nanos(10));
        assert!(log.is_empty());
        assert_eq!(log.over_threshold(), 1);
    }
}
