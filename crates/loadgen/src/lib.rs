#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-loadgen — the end-to-end latency harness
//!
//! Beside the kernels, batching and durability, this crate is the
//! instrument that measures what a client of `mq serve` actually
//! experiences: it replays **seed-deterministic**
//! open-loop (Poisson arrivals, Zipf hot-key skew) and closed-loop
//! (N sessions, think time) traffic against a live endpoint, records
//! per-request latency from monotonic timestamps into HDR-style
//! log-bucketed histograms, scrapes the server's metrics endpoint
//! before and after, and reports p50/p95/p99/p999, achieved-vs-offered
//! throughput, and error/timeout/retry counts.
//!
//! The pipeline is split so determinism is testable in isolation:
//!
//! * [`WorkloadSpec`] → [`RequestPlan::materialize`] — the whole request
//!   sequence (vectors, query types, sessions, arrival offsets) as plain
//!   data, a pure function of one seed. [`RequestPlan::encode`] is its
//!   canonical byte form; [`RequestPlan::fingerprint`] the FNV-1a hash
//!   every report records, so two runs can prove they offered the same
//!   stream even when their latency numbers differ.
//! * [`run`] — the only wall-clock-touching stage: sender threads
//!   (`RetryingClient` underneath, so transport faults retry with seeded
//!   jitter) replay the plan and fill a [`RunReport`].
//!
//! Consumers: `mq loadgen <ADDR>` in the CLI (CI's `server-load` and
//! `overload` jobs) and the FlakyProxy-under-load suite in `mq-testkit`.

pub mod driver;
pub mod plan;
pub mod report;

pub use driver::{run, RunOptions};
pub use plan::{Mode, RampSegment, Request, RequestPlan, WorkloadSpec};
pub use report::{json_num, AnswerSet, CapturedAnswers, RunReport, ServerWindow, StepReport};
