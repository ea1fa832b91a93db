//! What the two in-process mining workloads share: an X-tree over a
//! simulated disk, and the traced and one-at-a-time windows of a traced run.

use crate::harness::{
    insert_counts, Avoidance, Outcome, RunConfig, TracedWindow, Window, PLAIN_SHARE, TRACED_SHARE,
};
use crate::speed::Probe;
use crate::trace::{Decorators, TimedMetric};
use mq_core::QueryEngine;
use mq_index::{XTree, XTreeConfig};
use mq_metric::{Euclidean, Vector};
use mq_storage::{Dataset, SimulatedDisk};

/// The paper's buffer: 10 % of the pages.
const BUFFER_FRACTION: f64 = 0.10;

/// A bulk-loaded X-tree and the disk its pages live on.
pub struct TreeWorld {
    pub tree: XTree,
    pub disk: SimulatedDisk<Vector>,
}

impl TreeWorld {
    pub fn build(objects: Vec<Vector>) -> Self {
        let (tree, db) = XTree::bulk_load(&Dataset::new(objects), XTreeConfig::default());
        Self {
            tree,
            disk: SimulatedDisk::new(db, BUFFER_FRACTION),
        }
    }

    /// The engine users get: default options, no decorators.
    pub fn engine(&self) -> QueryEngine<'_, Vector, Euclidean> {
        QueryEngine::new(&self.disk, &self.tree, Euclidean)
    }
}

/// The engine of a [`TreeWorld`] behind the decorators.
pub type TracedEngine<'a> = QueryEngine<'a, Vector, TimedMetric<Euclidean>>;

/// The traced part of a traced run. `unit(engine, i, failed)` does unit `i`
/// of the workload's stream on `engine` and counts failed operations. First
/// `fixed_units` units, whose exact counts go into `out.layers` (nothing
/// time-bounded has run yet, so they repeat for one seed); then a window of
/// [`TRACED_SHARE`] of the run for the layer shares. Returns that window's
/// rate, for `trace.overhead_share`.
pub fn traced_windows(
    cfg: &RunConfig,
    probe: &Probe,
    world: &TreeWorld,
    fixed_units: usize,
    ops_per_unit: f64,
    out: &mut Outcome,
    mut unit: impl FnMut(&TracedEngine<'_>, usize, &mut u64),
) -> f64 {
    let decorators = Decorators::default();
    let clock = &decorators.clock;
    decorators.with_engine(&world.disk, &world.tree, Euclidean, |engine| {
        let ops = fixed_units as f64 * ops_per_unit;
        let io = world.disk.stats();
        let avoidance = Avoidance::read(&decorators.recorder);
        let fixed = TracedWindow::run(0.0, fixed_units, probe, clock, |i| {
            unit(engine, i, &mut out.failed)
        });
        fixed.push_spans(&mut out.spans, "core", 0);
        insert_counts(&mut out.layers, fixed.leaf, world.disk.stats() - io, ops);
        Avoidance::read(&decorators.recorder).insert_since(&avoidance, ops, &mut out.layers);

        let open = TracedWindow::run(cfg.seconds * TRACED_SHARE, 0, probe, clock, |i| {
            unit(engine, fixed_units + i, &mut out.failed)
        });
        open.push_spans(&mut out.spans, "core", fixed_units as u64);
        open.insert_shares(&mut out.layers, 1.0);
        open.window.rate(ops_per_unit)
    })
}

/// The last part of a traced run, after the untraced window filled in
/// `out.ops_per_s`: the same stream one query at a time (`single(i, failed)`)
/// for `core.batch_speedup`, and `trace.overhead_share` from `traced_rate`.
pub fn single_window(
    cfg: &RunConfig,
    probe: &Probe,
    ops_per_unit: f64,
    traced_rate: f64,
    out: &mut Outcome,
    mut single: impl FnMut(usize, &mut u64),
) {
    let seconds = cfg.seconds * (1.0 - TRACED_SHARE - PLAIN_SHARE);
    let singles = Window::run(seconds, 0, probe, |i| single(i, &mut out.failed));
    out.layers.insert(
        "core.batch_speedup",
        out.ops_per_s / singles.rate(ops_per_unit),
    );
    out.layers
        .insert("trace.overhead_share", 1.0 - traced_rate / out.ops_per_s);
}
