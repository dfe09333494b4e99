//! Fixed-bucket log-scale latency histograms (DESIGN.md §11).
//!
//! The daemon records how long every request takes, per request kind,
//! into a histogram whose bucket `i` counts latencies with
//! `⌊log2(ns)⌋ == i` — fixed memory (40 atomic counters per kind), no
//! allocation on the hot path, one `fetch_add` per request, and
//! mergeable across threads for free because buckets are independent
//! counters. Log-scale buckets trade precision for range: every
//! quantile is known to within a factor of two from 1 ns to ~18 min,
//! which is exactly the resolution a latency SLO conversation needs
//! ("p99 under 4 µs" vs "p99 blew past 1 ms").
//!
//! [`LatencyHistogram`] is the daemon-side atomic recorder;
//! [`KindLatency`] is the frozen snapshot that travels in the `Stats`
//! frame ([`crate::StatsReport`]) and feeds the CLI table and the
//! `/metrics` exposition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets. Bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0 ns); the last
/// bucket absorbs everything from `2^39` ns (~9.2 min) up.
pub const LATENCY_BUCKETS: usize = 40;

/// The bucket a nanosecond latency falls into.
#[inline]
pub fn latency_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (ns.ilog2() as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Atomic per-request-kind latency recorder. All counters are relaxed:
/// a stats snapshot racing a recording thread may be one sample ahead
/// or behind in a bucket, which is fine for observability counters.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Record one request latency.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Freeze the current counters into a snapshot labeled `kind`.
    pub fn snapshot(&self, kind: &str) -> KindLatency {
        KindLatency {
            kind: kind.to_string(),
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A frozen latency histogram for one request kind, as served by the
/// `Stats` frame. `buckets[i]` counts requests whose latency had
/// `⌊log2(ns)⌋ == i` (see [`latency_bucket`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindLatency {
    /// Request kind label (`"match_pair"`, `"top_k"`, `"batch"`, …).
    pub kind: String,
    /// Requests recorded.
    pub count: u64,
    /// Sum of all recorded latencies, in nanoseconds.
    pub total_ns: u64,
    /// [`LATENCY_BUCKETS`] log2 bucket counters.
    pub buckets: Vec<u64>,
}

impl KindLatency {
    /// An empty histogram for `kind` (what a daemon reports before the
    /// first request of that kind).
    pub fn empty(kind: &str) -> Self {
        KindLatency {
            kind: kind.to_string(),
            count: 0,
            total_ns: 0,
            buckets: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Mean latency in nanoseconds (0 when no samples).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (inclusive, in ns) of the bucket holding the `q`
    /// quantile sample, `0.0 < q <= 1.0` — e.g. `quantile_ns(0.99)` is
    /// "p99 was at most this". Returns 0 when no samples are recorded.
    /// Bucket resolution makes this exact to within a factor of two.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(self.buckets.len().saturating_sub(1))
    }
}

/// Inclusive upper bound of log2 bucket `i`, in nanoseconds (also the
/// `le` boundary the Prometheus exposition derives its cumulative
/// buckets from — see [`crate::metrics`]).
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn record_and_quantiles() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~1 µs bucket), 10 slow (~1 ms bucket).
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_100));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_100_000));
        }
        let snap = h.snapshot("match_pair");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.kind, "match_pair");
        let p50 = snap.quantile_ns(0.50);
        let p99 = snap.quantile_ns(0.99);
        assert!(p50 < 3_000, "p50 {p50} must sit in the fast bucket");
        assert!(p99 > 1_000_000, "p99 {p99} must sit in the slow bucket");
        assert!(snap.quantile_ns(1.0) >= p99);
        assert_eq!(snap.mean_ns(), (90 * 1_100 + 10 * 1_100_000) / 100);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let snap = KindLatency::empty("save");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_ns(0.99), 0);
        assert_eq!(snap.mean_ns(), 0);
    }
}
