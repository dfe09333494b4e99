//! Prometheus text exposition of the daemon's counters and histograms
//! (DESIGN.md §13.3).
//!
//! The daemon publishes everything the `Stats` frame carries — the
//! repository/session/journal/hostile-network counters plus the
//! per-request-kind wall histograms and the per-(kind, stage)
//! attribution histograms — in the Prometheus text format (version
//! 0.0.4), hand-rolled like the rest of the stack: the exposition is
//! plain `name{labels} value` lines, so no dependency is needed or
//! wanted. The daemon serves it over HTTP on the *same* port as the
//! frame protocol: an accepted connection whose first bytes are
//! `GET ` (vs the `CPDF` frame magic) is answered as an HTTP/1.1
//! request for `/metrics` and closed — so `curl
//! http://host:port/metrics` works against any running daemon with no
//! extra listener, flag, or port.
//!
//! Histograms translate directly: the log2 bucket `i` of a
//! [`KindLatency`] covers `(2^i - 1, 2^(i+1) - 1]` nanoseconds, so its
//! inclusive upper bound becomes the `le` boundary in seconds and the
//! running total becomes the cumulative count Prometheus expects.
//! Trailing all-zero buckets are elided (the `+Inf` bucket closes every
//! series), which keeps a full scrape in the tens of kilobytes.

use crate::histogram::{bucket_upper_ns, KindLatency};
use crate::protocol::StatsReport;

/// Render a full exposition from one stats snapshot: every declared
/// counter ([`StatsReport::counters`], in wire order), the durability
/// flag derived from `last_fsync_error`, then both histogram families.
pub fn render_prometheus(report: &StatsReport) -> String {
    let mut out = String::with_capacity(8 << 10);
    for (name, kind, help, value) in report.counters() {
        scalar(&mut out, name, help, kind, value);
    }
    scalar(
        &mut out,
        "cupid_durability_degraded",
        "1 when the repository's last journal fsync failed, 0 when healthy.",
        "gauge",
        u64::from(!report.last_fsync_error.is_empty()),
    );
    histogram_family(
        &mut out,
        "cupid_request_duration_seconds",
        "Request wall time by request kind (log2 buckets).",
        report.latencies.iter().map(|l| (vec![("kind", l.kind.as_str())], l)),
    );
    histogram_family(
        &mut out,
        "cupid_stage_duration_seconds",
        "Per-request stage time by request kind and pipeline stage (log2 buckets).",
        report.stage_latencies.iter().map(|l| {
            // Stage snapshots are labeled "<kind>/<stage>".
            let (kind, stage) = l.kind.split_once('/').unwrap_or((l.kind.as_str(), "unknown"));
            (vec![("kind", kind), ("stage", stage)], l)
        }),
    );
    out
}

/// One `# HELP` / `# TYPE` / value triple for a label-less scalar.
fn scalar(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
}

/// A histogram family: one `_bucket`/`_sum`/`_count` series per
/// labeled [`KindLatency`]. Series with zero samples are skipped —
/// an absent series is valid exposition, an all-zero 40-bucket ladder
/// is noise.
fn histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    series: impl Iterator<Item = (Vec<(&'a str, &'a str)>, &'a KindLatency)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (labels, latency) in series {
        if latency.count == 0 {
            continue;
        }
        let label_body = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect::<Vec<_>>()
            .join(",");
        let last_live = latency.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &n) in latency.buckets.iter().enumerate().take(last_live + 1) {
            cumulative += n;
            let le = bucket_upper_ns(i) as f64 / 1e9;
            out.push_str(&format!("{name}_bucket{{{label_body},le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{{label_body},le=\"+Inf\"}} {}\n", latency.count));
        out.push_str(&format!("{name}_sum{{{label_body}}} {}\n", latency.total_ns as f64 / 1e9));
        out.push_str(&format!("{name}_count{{{label_body}}} {}\n", latency.count));
    }
}

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// A minimal HTTP/1.1 response with the exposition content type.
pub(crate) fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The exposition content type (text format version 0.0.4).
pub(crate) const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;
    use std::time::Duration;

    /// A report whose counters all hold distinct values, with a
    /// persistence failure recorded.
    fn report() -> StatsReport {
        let wall = LatencyHistogram::new();
        wall.record(Duration::from_micros(3));
        wall.record(Duration::from_millis(2));
        let stage = LatencyHistogram::new();
        stage.record(Duration::from_micros(1));
        StatsReport {
            schemas: 1,
            cached_pairs: 2,
            pairs_executed: 3,
            vocab_size: 4,
            distinct_pairs_computed: 5,
            sim_chunks: 6,
            sim_bytes: 7,
            requests_served: 8,
            journal_records: 9,
            journal_bytes: 10,
            replayed_records: 11,
            compactions: 12,
            shed_requests: 13,
            idle_disconnects: 14,
            deadline_cuts: 15,
            deduped_mutations: 16,
            slow_requests: 17,
            slow_log_entries: 18,
            metrics_scrapes: 19,
            vocab_bytes: 20,
            explanations_served: 21,
            last_fsync_error: "fsync: injected".into(),
            latencies: vec![wall.snapshot("match_pair"), KindLatency::empty("save")],
            stage_latencies: vec![stage.snapshot("match_pair/decode")],
        }
    }

    #[test]
    fn exposition_carries_every_counter_family() {
        let text = render_prometheus(&report());
        for family in [
            "cupid_schemas",
            "cupid_cached_pairs",
            "cupid_pairs_executed_total",
            "cupid_vocab_size",
            "cupid_vocab_bytes",
            "cupid_distinct_token_pairs",
            "cupid_sim_chunks",
            "cupid_sim_bytes",
            "cupid_requests_total",
            "cupid_journal_records",
            "cupid_journal_bytes",
            "cupid_replayed_records_total",
            "cupid_compactions_total",
            "cupid_shed_requests_total",
            "cupid_idle_disconnects_total",
            "cupid_deadline_cuts_total",
            "cupid_deduped_mutations_total",
            "cupid_slow_requests_total",
            "cupid_slow_log_entries",
            "cupid_metrics_scrapes_total",
            "cupid_explanations_served_total",
            "cupid_durability_degraded",
            "cupid_request_duration_seconds",
            "cupid_stage_duration_seconds",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} missing from exposition:\n{text}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed_by_inf() {
        let text = render_prometheus(&report());
        // Two samples for match_pair: the +Inf bucket must say 2 and
        // the _count line must agree.
        assert!(text
            .contains("cupid_request_duration_seconds_bucket{kind=\"match_pair\",le=\"+Inf\"} 2"));
        assert!(text.contains("cupid_request_duration_seconds_count{kind=\"match_pair\"} 2"));
        // The empty "save" kind is elided entirely.
        assert!(!text.contains("kind=\"save\""));
        // Stage series split the "kind/stage" label.
        assert!(text.contains(
            "cupid_stage_duration_seconds_bucket{kind=\"match_pair\",stage=\"decode\",le=\""
        ));
        // Every line is either a comment or name{...} value / name value.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line.rsplit_once(' ').is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "unparseable exposition line: {line}"
            );
        }
    }

    #[test]
    fn degraded_flag_follows_fsync_error() {
        let mut r = report();
        assert!(render_prometheus(&r).contains("cupid_durability_degraded 1"));
        r.last_fsync_error.clear();
        assert!(render_prometheus(&r).contains("cupid_durability_degraded 0"));
    }

    /// Every series line by line: the sorted exposition hashes to a
    /// digest recorded from the hand-written renderer this one
    /// replaced, so no series name, HELP line, TYPE or value changes
    /// unnoticed, while the order of families may.
    #[test]
    fn sorted_exposition_matches_the_recorded_digest() {
        let text = render_prometheus(&report());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let digest = cupid_model::fnv1a(lines.join("\n").as_bytes());
        assert_eq!(digest, 0xce5a_8bd1_0c17_228c, "exposition changed:\n{text}");
    }

    #[test]
    fn http_response_frames_the_body() {
        let resp = http_response("200 OK", EXPOSITION_CONTENT_TYPE, "x 1\n");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nx 1\n"));
    }
}
