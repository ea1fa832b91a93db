//! Run results and their JSON serialization (`mq loadgen --out`).
//!
//! The JSON is hand-assembled (the workspace has no serde); numbers are
//! emitted with Rust's shortest-roundtrip `f64` formatting, and
//! non-finite values become `null` so the file always parses.

use mq_obs::Snapshot;

/// One request's answers as `(object id, distance bits)` pairs — bits,
/// not floats, so oracle comparisons are exact.
pub type AnswerSet = Vec<(u32, u64)>;

/// Captured answers of a whole run, indexed by request; `None` entries
/// are requests that failed.
pub type CapturedAnswers = Vec<Option<AnswerSet>>;

/// The server-side view of one run window: deltas of the scheduler's
/// counters between the before- and after-run scrapes.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerWindow {
    /// Queries the scheduler accepted into flushed batches.
    pub queries: f64,
    /// Batches flushed (all reasons).
    pub batches: f64,
    /// Mean queries per batch over the window.
    pub mean_batch_size: f64,
    /// p99 of the in-window queue-wait distribution, seconds (absent if
    /// the window saw no queue-wait observations).
    pub queue_wait_p99: Option<f64>,
}

impl ServerWindow {
    /// Builds the window from the two scrapes, if both exist.
    pub fn from_scrapes(before: Option<&Snapshot>, after: Option<&Snapshot>) -> Option<Self> {
        let (before, after) = (before?, after?);
        let delta = after.delta(before);
        let queries = delta.value("mq_server_queries_total");
        // One batch-size observation per flushed batch, whatever its flush
        // reason: no label value to keep in step with the scheduler.
        let batches = delta.value("mq_server_batch_size_count");
        Some(Self {
            queries,
            batches,
            mean_batch_size: if batches > 0.0 {
                queries / batches
            } else {
                0.0
            },
            queue_wait_p99: delta.quantile("mq_server_queue_wait_seconds", 0.99),
        })
    }
}

/// One step of a ramp run: its offered rate and what came back.
#[derive(Clone, Debug, PartialEq)]
pub struct StepReport {
    /// Offered rate of the step, queries per second.
    pub offered_qps: f64,
    /// Requests budgeted to the step.
    pub requests: usize,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests refused with a typed `Overloaded` reply.
    pub rejected: u64,
    /// Requests that failed with transport errors or timeouts.
    pub failed: u64,
    /// 99th-percentile latency of the step's successful requests,
    /// seconds.
    pub p99: f64,
}

/// Everything one run produced: client-side latency distribution and
/// throughput, error/timeout/retry counts, the request-stream
/// fingerprint, and the server-side window.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// `"open"`, `"closed"` or `"ramp"`.
    pub mode: &'static str,
    /// Requests the plan contained.
    pub requests: usize,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests that failed after exhausting retries (excluding
    /// timeouts).
    pub errors: u64,
    /// Requests whose final failure was a read/connect timeout.
    pub timeouts: u64,
    /// Requests the server refused with a typed `Overloaded` reply —
    /// admission control doing its job, not a transport failure.
    pub rejected: u64,
    /// Transport-level retries performed across all clients.
    pub retries: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
    /// Offered rate (open loop only).
    pub offered_qps: Option<f64>,
    /// Successful answers per wall-clock second.
    pub achieved_qps: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// 99.9th-percentile latency, seconds.
    pub p999: f64,
    /// Mean latency, seconds.
    pub mean_latency: f64,
    /// Largest single latency observed, seconds.
    pub max_latency: f64,
    /// FNV-1a fingerprint of the plan's byte encoding: equal
    /// fingerprints ⇒ identical request streams.
    pub fingerprint: u64,
    /// Per-step windows (ramp mode only).
    pub steps: Option<Vec<StepReport>>,
    /// Offered rate of the saturation knee — the first ramp step that
    /// saw rejections or delivered under 90% of its budget (`None` if
    /// the ramp never saturated, or off-ramp).
    pub knee_qps: Option<f64>,
    /// Server-side window delta (absent if the server has no recorder).
    pub server: Option<ServerWindow>,
    /// Per-request answers as `(object id, distance bits)`, only when
    /// [`RunOptions::capture_answers`](crate::RunOptions) was set.
    pub answers: Option<CapturedAnswers>,
}

/// A finite `f64` as a JSON number, `null` otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    /// The run as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("    \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("    \"requests\": {},\n", self.requests));
        out.push_str(&format!("    \"ok\": {},\n", self.ok));
        out.push_str(&format!("    \"errors\": {},\n", self.errors));
        out.push_str(&format!("    \"timeouts\": {},\n", self.timeouts));
        out.push_str(&format!("    \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("    \"retries\": {},\n", self.retries));
        out.push_str(&format!(
            "    \"wall_secs\": {},\n",
            json_num(self.wall_secs)
        ));
        out.push_str(&format!(
            "    \"offered_qps\": {},\n",
            self.offered_qps.map_or("null".into(), json_num)
        ));
        out.push_str(&format!(
            "    \"achieved_qps\": {},\n",
            json_num(self.achieved_qps)
        ));
        out.push_str(&format!(
            "    \"latency_seconds\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"mean\": {}, \"max\": {} }},\n",
            json_num(self.p50),
            json_num(self.p95),
            json_num(self.p99),
            json_num(self.p999),
            json_num(self.mean_latency),
            json_num(self.max_latency),
        ));
        out.push_str(&format!(
            "    \"request_stream_fingerprint\": \"{:016x}\",\n",
            self.fingerprint
        ));
        if let Some(steps) = &self.steps {
            out.push_str("    \"ramp\": {\n      \"steps\": [\n");
            for (i, s) in steps.iter().enumerate() {
                out.push_str(&format!(
                    "        {{ \"offered_qps\": {}, \"requests\": {}, \"ok\": {}, \
                     \"rejected\": {}, \"failed\": {}, \"p99\": {} }}{}\n",
                    json_num(s.offered_qps),
                    s.requests,
                    s.ok,
                    s.rejected,
                    s.failed,
                    json_num(s.p99),
                    if i + 1 < steps.len() { "," } else { "" },
                ));
            }
            out.push_str(&format!(
                "      ],\n      \"knee_qps\": {}\n    }},\n",
                self.knee_qps.map_or("null".into(), json_num)
            ));
        }
        match &self.server {
            Some(w) => out.push_str(&format!(
                "    \"server\": {{ \"queries\": {}, \"batches\": {}, \"mean_batch_size\": {}, \"queue_wait_p99\": {} }}\n",
                json_num(w.queries),
                json_num(w.batches),
                json_num(w.mean_batch_size),
                w.queue_wait_p99.map_or("null".into(), json_num),
            )),
            None => out.push_str("    \"server\": null\n"),
        }
        out.push_str("  }");
        out
    }

    /// One-paragraph human summary for terminal output.
    pub fn summary(&self) -> String {
        let offered = self
            .offered_qps
            .map(|r| format!(" of {r:.0} offered"))
            .unwrap_or_default();
        let mut text = format!(
            "{} loop: {}/{} ok ({} rejected, {} errors, {} timeouts, {} retries) in {:.2}s — \
             {:.1} qps{offered}\n  latency p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  \
             p999 {:.2}ms  max {:.2}ms",
            self.mode,
            self.ok,
            self.requests,
            self.rejected,
            self.errors,
            self.timeouts,
            self.retries,
            self.wall_secs,
            self.achieved_qps,
            self.p50 * 1e3,
            self.p95 * 1e3,
            self.p99 * 1e3,
            self.p999 * 1e3,
            self.max_latency * 1e3,
        );
        if let Some(steps) = &self.steps {
            for (i, s) in steps.iter().enumerate() {
                text.push_str(&format!(
                    "\n  step {i}: {:.0} qps offered — {} ok, {} rejected, {} failed, \
                     p99 {:.2}ms",
                    s.offered_qps,
                    s.ok,
                    s.rejected,
                    s.failed,
                    s.p99 * 1e3,
                ));
            }
            text.push_str(&match self.knee_qps {
                Some(knee) => format!("\n  saturation knee at ~{knee:.0} qps offered"),
                None => "\n  no saturation knee within the ramp".to_string(),
            });
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_window_counts_batches_under_every_flush_reason() {
        let before = Snapshot::from_exposition(
            "mq_server_queries_total 3\n\
             mq_server_batches_total{reason=\"full\"} 1\n\
             mq_server_batch_size_count 1\n",
        )
        .unwrap();
        // `a_reason_nobody_names` stands for any flush reason this code
        // does not spell out; its batches must count all the same.
        let after = Snapshot::from_exposition(
            "mq_server_queries_total 15\n\
             mq_server_batches_total{reason=\"full\"} 2\n\
             mq_server_batches_total{reason=\"a_reason_nobody_names\"} 3\n\
             mq_server_batch_size_count 5\n",
        )
        .unwrap();
        let window = ServerWindow::from_scrapes(Some(&before), Some(&after)).unwrap();
        assert_eq!(window.queries, 12.0);
        assert_eq!(window.batches, 4.0);
        assert_eq!(window.mean_batch_size, 3.0);
    }
}
