//! Engine-level observability: the §4 cost-model terms as live metrics.
//!
//! [`EngineObs`] is a bundle of pre-registered instruments mirroring what
//! [`ExecutionStats`](crate::ExecutionStats) reports at the end of a run —
//! steps, performed vs. avoided vs. reused distance calculations
//! (`C_cpu`), per-query completion latency — plus stage-level span
//! histograms for the four phases of a
//! [`multiple_query_step`](crate::QueryEngine::multiple_query_step):
//! leader *step* wall-clock, *page_fetch*, *kernel_eval*, and *merge*.
//!
//! The bundle is built once per engine from a [`Recorder`]
//! ([`EngineObs::new`] returns `None` for a disabled recorder), so the hot
//! loop pays a single `Option` check when observability is off and plain
//! atomic adds when it is on. Recording only ever *reads* the session's
//! counters — answers, [`AvoidanceStats`](crate::AvoidanceStats) and
//! `IoStats` are computed exactly as without a recorder.

use mq_obs::{Counter, Histogram, Recorder, DURATION_BOUNDS};
use std::sync::Arc;

/// Pre-registered engine instruments; see the module docs.
#[derive(Debug)]
pub struct EngineObs {
    /// `mq_core_steps_total` — multiple-query steps executed.
    pub(crate) steps: Arc<Counter>,
    /// `mq_core_queries_completed_total` — queries answered completely.
    pub(crate) queries_completed: Arc<Counter>,
    /// `mq_core_distance_calculations_total{outcome="performed"}`.
    pub(crate) dist_performed: Arc<Counter>,
    /// `mq_core_distance_calculations_total{outcome="avoided"}`.
    pub(crate) dist_avoided: Arc<Counter>,
    /// `mq_core_distance_calculations_total{outcome="reused"}` — distances
    /// taken from `QObjDists` because the record is an admitted query.
    pub(crate) dist_reused: Arc<Counter>,
    /// `mq_core_avoidance_tries_total` — §5.2 lemma applications.
    pub(crate) avoid_tries: Arc<Counter>,
    /// `mq_core_query_completion_seconds` — wall-clock of the completing
    /// step, i.e. the latency of answering one query within its session.
    pub(crate) completion_seconds: Arc<Histogram>,
    /// `mq_core_stage_seconds{stage="step"}` — whole-step wall-clock,
    /// recorded on every exit (success, fault error, or unwind).
    pub(crate) step_seconds: Arc<Histogram>,
    /// `mq_core_stage_seconds{stage="page_fetch"}` — demand read latency.
    pub(crate) fetch_seconds: Arc<Histogram>,
    /// `mq_core_stage_seconds{stage="kernel_eval"}` — page evaluation:
    /// avoidance filter, distance kernels and the answer inserts.
    pub(crate) eval_seconds: Arc<Histogram>,
    /// `mq_core_stage_seconds{stage="merge"}` — the bookkeeping after a
    /// page's evaluation: ageing the avoidance ledger by the page and
    /// marking the page processed for its active queries. The answers are
    /// inserted during evaluation, under `kernel_eval`.
    pub(crate) merge_seconds: Arc<Histogram>,
}

impl EngineObs {
    /// Registers the engine's instruments with `recorder`; `None` when the
    /// recorder is disabled.
    pub fn new(recorder: &Recorder) -> Option<Arc<Self>> {
        let registry = recorder.registry()?;
        // Info-style gauge: constant 1, the payload is the label. Scrapes
        // can tell which distance-kernel tier this process dispatches to
        // (scalar / avx2 / neon) without guessing from the host.
        registry
            .gauge(
                "mq_core_simd_dispatch_info",
                "Distance-kernel SIMD dispatch tier selected at startup \
                 (constant 1; the tier is the 'level' label)",
                &[("level", mq_metric::kernel::active().name())],
            )
            .set(1);
        let dist = |outcome: &str| {
            registry.counter(
                "mq_core_distance_calculations_total",
                "Distance calculations by outcome: performed, proven \
                 unnecessary by triangle-inequality avoidance (§5.2), or \
                 reused from the inter-query distance matrix",
                &[("outcome", outcome)],
            )
        };
        let stage = |stage: &str| {
            registry.histogram(
                "mq_core_stage_seconds",
                "Wall-clock seconds per engine stage of a multiple-query step",
                &[("stage", stage)],
                &DURATION_BOUNDS,
            )
        };
        Some(Arc::new(Self {
            steps: registry.counter(
                "mq_core_steps_total",
                "Incremental multiple-query steps executed (Fig. 4 calls)",
                &[],
            ),
            queries_completed: registry.counter(
                "mq_core_queries_completed_total",
                "Queries answered completely across all sessions",
                &[],
            ),
            dist_performed: dist("performed"),
            dist_avoided: dist("avoided"),
            dist_reused: dist("reused"),
            avoid_tries: registry.counter(
                "mq_core_avoidance_tries_total",
                "Triangle-inequality avoidance attempts (§5.2 lemma applications)",
                &[],
            ),
            completion_seconds: registry.histogram(
                "mq_core_query_completion_seconds",
                "Wall-clock seconds of the step that completed a query",
                &[],
                &DURATION_BOUNDS,
            ),
            step_seconds: stage("step"),
            fetch_seconds: stage("page_fetch"),
            eval_seconds: stage("kernel_eval"),
            merge_seconds: stage("merge"),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The series an engine registers are exactly the `mq-core` catalogue
    /// of `docs/observability.md`, by name and type, in both directions.
    #[test]
    fn registered_series_equal_the_catalogue() {
        let recorder = Recorder::enabled();
        EngineObs::new(&recorder).expect("an enabled recorder registers");
        let registered: BTreeSet<(String, String)> = recorder
            .render()
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|line| line.split_once(' '))
            .map(|(name, kind)| (name.to_string(), kind.to_string()))
            .collect();
        let doc = include_str!("../../../docs/observability.md");
        let section = doc
            .split("### `mq-core`")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("the catalogue has an mq-core section");
        let catalogued: BTreeSet<(String, String)> = section
            .lines()
            .filter_map(|row| row.strip_prefix("| `"))
            .filter_map(|row| {
                let mut cells = row.split(" | ");
                let name = cells.next()?.strip_suffix('`')?;
                Some((name.to_string(), cells.next()?.trim().to_string()))
            })
            .collect();
        assert_eq!(registered, catalogued);
    }
}
