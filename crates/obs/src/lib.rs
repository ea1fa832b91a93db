#![forbid(unsafe_code)]
//! `mq-obs`: a zero-dependency observability core for the mquery workspace.
//!
//! The paper's whole argument is quantitative — §4 splits query cost into
//! `C_io` (page reads) and `C_cpu` (distance calculations) and §5's
//! optimizations are judged by how much they shave off each term — so the
//! runtime needs those numbers continuously, per layer, while it serves
//! traffic, not just as end-of-run [`ExecutionStats`] summaries.
//!
//! This crate provides the three pieces every layer shares:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   atomics, safe to hammer from the engine's hot loops.
//! * **A [`Registry`]** — named, labelled families with cheap
//!   [`snapshot`](Registry::snapshot)/[`Snapshot::delta`] and a
//!   Prometheus-style text [`render`](Registry::render) served over the
//!   MQNW `STATS` opcode.
//! * **A [`Recorder`] handle** — the only type the runtime crates touch.
//!   [`Recorder::disabled`] carries no registry, so every instrumentation
//!   site collapses to a single `Option` check and the equivalence suites
//!   (`option_equivalence`, `oracle_equivalence`) stay bit-identical with
//!   observability on or off.
//!
//! Span-level tracing is a [`Histogram`] of elapsed seconds plus the
//! [`SpanTimer`] drop guard from [`Histogram::start_timer`]; stages like
//! *engine step*, *page fetch*, *kernel eval* and *merge* each get one.
//!
//! The crate is deliberately dependency-free (std only): every runtime
//! crate links it, so it must never widen the build graph.
//!
//! [`ExecutionStats`]: https://docs.rs/mq-core

#![warn(missing_docs)]

mod metrics;
mod recorder;
mod registry;

pub use metrics::{log_bounds, Counter, FloatCounter, Gauge, Histogram, SpanTimer};
pub use recorder::Recorder;
pub use registry::{MetricKind, Registry, Snapshot};

/// Default bucket upper bounds (in seconds) for stage/span latency
/// histograms: log-ish spacing from 10 µs to 10 s.
pub const DURATION_BOUNDS: [f64; 14] = [
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
];

/// Default bucket upper bounds for small-count histograms (batch sizes,
/// queue depths): powers of two up to 256.
pub const SIZE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
