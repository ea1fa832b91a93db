//! What the four workloads share: the run's arguments, its result, the timed
//! window and the repeated set-up.

use crate::speed::{thread_cpu_ns, Probe, SpeedLog};
use crate::stats::{median, median_slice_rate, SLICES};
use crate::trace::{now_ns, LayerClock, LayerReading, Spans};
use mq_datagen::image_histograms;
use mq_metric::Vector;
use mq_obs::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed part of the run.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub trace: bool,
}

/// A workload's world is built at least this many times and for at least
/// [`SETUP_SECONDS`] in all; `setup_s` is the median build.
pub const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`].
pub const SETUP_SECONDS: f64 = 2.0;

impl RunConfig {
    /// Length in seconds and least number of units of the untraced window,
    /// the one the end-to-end metrics come from: all of `--seconds` and
    /// [`MIN_LATENCY_SAMPLES`] in the plain run, so that `latency_p95_ms`
    /// has its sample floor however slow the host; [`PLAIN_SHARE`] of
    /// `--seconds` in the traced run, which reports no end-to-end metric.
    pub fn plain_window(&self) -> (f64, usize) {
        if self.trace {
            (self.seconds * PLAIN_SHARE, 0)
        } else {
            (self.seconds, MIN_LATENCY_SAMPLES)
        }
    }
}

/// Fewest latency samples an end-to-end `latency_p95_ms` may rest on.
pub const MIN_LATENCY_SAMPLES: usize = 200;

/// Shares of `--seconds` a traced in-process run gives to its traced,
/// untraced and one-query-at-a-time windows.
pub const TRACED_SHARE: f64 = 0.4;
/// See [`TRACED_SHARE`].
pub const PLAIN_SHARE: f64 = 0.3;

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// FNV-1a over the generated inputs.
    pub fingerprint: u64,
    /// Median speed-corrected seconds to build the system under test from
    /// the seed.
    pub setup_s: f64,
    /// Median-of-slices throughput of the untraced window, speed-corrected.
    pub ops_per_s: f64,
    /// The same window's operations over its seconds, as measured.
    pub raw_ops_per_s: f64,
    /// Median cost of the probe during the untraced window, milliseconds.
    pub probe_ms: f64,
    /// Latency samples of the untraced window, speed-corrected milliseconds.
    pub latency_ms: Vec<f64>,
    /// The same samples as measured, for the report's uncorrected line.
    pub raw_latency_ms: Vec<f64>,
    /// `VmHWM` when the untraced window closed.
    pub rss_peak_mb: f64,
    /// Operations in the untraced window.
    pub attempted: u64,
    /// Operations that errored or whose answer failed its check.
    pub failed: u64,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The span buffer (traced run only).
    pub spans: Spans,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fills in throughput (`ops_per_s` is the window's corrected rate in
    /// the workload's slices), probe cost, operations attempted and peak RSS
    /// from the untraced window; call it as soon as the window closes.
    pub fn record_window(&mut self, window: &Window, ops_per_unit: f64, ops_per_s: f64) {
        self.ops_per_s = ops_per_s;
        self.raw_ops_per_s = window.raw_rate(ops_per_unit);
        self.probe_ms = window.speed.median_cost_ns() / 1e6;
        self.attempted = (window.units.len() as f64 * ops_per_unit) as u64;
        self.rss_peak_mb = rss_peak_mb();
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`). Workloads
/// read it when their last timed window closes: what the benchmark allocates
/// afterwards to check answers is not the program's memory.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `n` clustered 64-d colour histograms for `seed`, and the rest of the
/// population they were drawn from: a seeded sample, in seeded order, of a
/// population an eighth larger whose cluster geometry is fixed.
///
/// `image_histograms` draws its 80 cluster centres from its seed, and how
/// much work a range query or a scan with avoidance does depends on that
/// geometry: across seeds 1–6 DBSCAN's exact `core.avoid_tries_per_op`
/// ranged 1 979–2 370, twice the 10 % bound. Runs with different seeds must
/// be comparable, so every seed sees the same "station" and a different
/// sample of its snapshots.
pub fn histogram_split(n: usize, seed: u64) -> (Vec<Vector>, Vec<Vector>) {
    const GEOMETRY_SEED: u64 = 2000;
    let mut sample = image_histograms(n + n / 8, GEOMETRY_SEED);
    sample.shuffle(&mut StdRng::seed_from_u64(seed));
    let rest = sample.split_off(n);
    (sample, rest)
}

/// The sample of [`histogram_split`] alone.
pub fn histogram_sample(n: usize, seed: u64) -> Vec<Vector> {
    histogram_split(n, seed).0
}

/// Builds the world again and again, each time after dropping the last,
/// until [`SETUP_REPEATS`] builds and [`SETUP_SECONDS`] are both reached;
/// returns the final world with the median (speed-corrected) build time in
/// seconds. A build of a tenth of a second is as noisy as this host's CPU,
/// so it is the median of twenty.
pub fn median_setup<T>(probe: &Probe, build: impl Fn() -> T) -> (T, f64) {
    let mut speed = SpeedLog::default();
    let mut builds: Vec<Timed> = Vec::new();
    let mut world = None;
    let opened = now_ns();
    speed.push(opened, probe.run());
    while builds.len() < SETUP_REPEATS || (now_ns() - opened) as f64 / 1e9 < SETUP_SECONDS {
        drop(world.take());
        let (built, timed) = Timed::of(&build);
        world = Some(built);
        builds.push(timed);
        speed.push(now_ns(), probe.run());
    }
    let seconds: Vec<f64> = builds
        .iter()
        .map(|b| b.corrected_ns(&speed) / 1e9)
        .collect();
    (world.expect("at least one build"), median(&seconds))
}

/// One timed piece of work on this thread.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// When it started, nanoseconds since the epoch of `trace`.
    pub start_ns: u64,
    /// When it ended.
    pub end_ns: u64,
    /// CPU time this thread consumed meanwhile.
    pub cpu_ns: u64,
}

impl Timed {
    /// Runs `f` and times it.
    pub fn of<R>(f: impl FnOnce() -> R) -> (R, Timed) {
        let cpu = thread_cpu_ns();
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        let cpu_ns = thread_cpu_ns() - cpu;
        (
            r,
            Timed {
                start_ns,
                end_ns,
                cpu_ns,
            },
        )
    }

    /// Wall-clock length, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Length with the on-CPU part rescaled to the reference speed.
    pub fn corrected_ns(&self, speed: &SpeedLog) -> f64 {
        speed.corrected_ns(self.end_ns, self.wall_ns(), self.cpu_ns)
    }
}

/// The probe runs between units whenever the last one is this old.
const PROBE_EVERY_NS: u64 = 20_000_000;

/// A run of equal units of work on this thread, each timed, with the probe
/// between them.
#[derive(Debug)]
pub struct Window {
    /// The units, in order.
    pub units: Vec<Timed>,
    /// The host's speed meanwhile.
    pub speed: SpeedLog,
}

impl Window {
    /// Calls `unit(i)` for `i = 0, 1, …` until `seconds` have passed and at
    /// least `min_units` have run.
    pub fn run(seconds: f64, min_units: usize, probe: &Probe, mut unit: impl FnMut(usize)) -> Self {
        let mut speed = SpeedLog::default();
        speed.push(now_ns(), probe.run());
        let deadline = now_ns() + (seconds * 1e9) as u64;
        let mut units = Vec::new();
        while units.len() < min_units || now_ns() < deadline {
            let i = units.len();
            units.push(Timed::of(|| unit(i)).1);
            if now_ns() - speed.last_at().unwrap_or(0) >= PROBE_EVERY_NS {
                speed.push(now_ns(), probe.run());
            }
        }
        Self { units, speed }
    }

    /// Time inside the units, nanoseconds, as measured.
    pub fn wall_ns(&self) -> u64 {
        self.units.iter().map(Timed::wall_ns).sum()
    }

    /// Operations per second, as measured: all units over their total time.
    pub fn raw_rate(&self, ops_per_unit: f64) -> f64 {
        self.units.len() as f64 * ops_per_unit / (self.wall_ns() as f64 / 1e9)
    }

    /// Operations per corrected second: the median rate of [`SLICES`] equal
    /// slices.
    pub fn rate(&self, ops_per_unit: f64) -> f64 {
        self.rate_in_slices_of((self.units.len() / SLICES).max(1), ops_per_unit)
    }

    /// Operations per corrected second: the median rate of slices of
    /// `units_per_slice` units.
    pub fn rate_in_slices_of(&self, units_per_slice: usize, ops_per_unit: f64) -> f64 {
        let mut at = 0.0;
        let ends: Vec<f64> = self
            .units
            .iter()
            .map(|u| {
                at += u.corrected_ns(&self.speed) / 1e9;
                at
            })
            .collect();
        median_slice_rate(0.0, &ends, units_per_slice, ops_per_unit)
    }

    /// Each unit's corrected duration in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.units
            .iter()
            .map(|u| u.corrected_ns(&self.speed) / 1e6)
            .collect()
    }

    /// Each unit's duration in milliseconds, as measured.
    pub fn raw_latencies_ms(&self) -> Vec<f64> {
        self.units
            .iter()
            .map(|u| u.wall_ns() as f64 / 1e6)
            .collect()
    }
}

/// A [`Window`] whose units ran through the decorators of a clock.
#[derive(Debug)]
pub struct TracedWindow {
    /// The window.
    pub window: Window,
    /// What the leaf layers accumulated inside each unit.
    spent: Vec<LayerReading>,
    /// Their sum.
    pub leaf: LayerReading,
}

impl TracedWindow {
    /// Like [`Window::run`], reading `clock` around every unit.
    pub fn run(
        seconds: f64,
        min_units: usize,
        probe: &Probe,
        clock: &LayerClock,
        mut unit: impl FnMut(usize),
    ) -> Self {
        let mut spent = Vec::new();
        let window = Window::run(seconds, min_units, probe, |i| {
            let before = clock.read();
            unit(i);
            spent.push(clock.read() - before);
        });
        let mut leaf = LayerReading::default();
        for s in &spent {
            leaf += *s;
        }
        Self {
            window,
            spent,
            leaf,
        }
    }

    /// Records one `root` span with its three layer children per unit;
    /// `first_op` is the op id of unit 0.
    pub fn push_spans(&self, spans: &mut Spans, root: &'static str, first_op: u64) {
        for (i, (unit, spent)) in self.window.units.iter().zip(&self.spent).enumerate() {
            spans.push_op(
                root,
                first_op + i as u64,
                unit.start_ns,
                unit.end_ns,
                *spent,
            );
        }
    }

    /// Inserts the four in-process layer shares of the time inside this
    /// window's units, and `metric.ns_per_distance`, into `layers`, as
    /// measured (shares need no speed correction). `scale` is the share of
    /// the workload's whole timed window that this window's kind of work
    /// makes up.
    pub fn insert_shares(&self, layers: &mut BTreeMap<&'static str, f64>, scale: f64) {
        let wall = self.window.wall_ns();
        let share = |ns: u64| scale * ns as f64 / wall as f64;
        layers.insert("metric.busy_share", share(self.leaf.metric_ns));
        layers.insert("index.busy_share", share(self.leaf.index_ns));
        layers.insert("storage.busy_share", share(self.leaf.storage_ns));
        layers.insert(
            "core.self_share",
            share(wall.saturating_sub(self.leaf.leaf_ns())),
        );
        layers.insert(
            "metric.ns_per_distance",
            self.leaf.metric_ns as f64 / self.leaf.distances as f64,
        );
    }
}

/// The engine's own avoidance counters, read through its recorder.
#[derive(Clone, Copy, Debug, Default)]
pub struct Avoidance {
    /// Lemma applications.
    pub tries: f64,
    /// Distance calculations proven unnecessary.
    pub avoided: f64,
    /// Distance calculations performed on database objects.
    pub performed: f64,
}

impl Avoidance {
    /// Reads the counters `mq-core` registers with `recorder`.
    pub fn read(recorder: &Recorder) -> Self {
        let s = recorder.snapshot();
        Self {
            tries: s.value("mq_core_avoidance_tries_total"),
            avoided: s.value("mq_core_distance_calculations_total{outcome=\"avoided\"}"),
            performed: s.value("mq_core_distance_calculations_total{outcome=\"performed\"}"),
        }
    }

    /// Inserts `core.avoid_tries_per_op` and `core.avoided_share` for the
    /// interval `self − before` over `ops` operations.
    pub fn insert_since(
        &self,
        before: &Avoidance,
        ops: f64,
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        let avoided = self.avoided - before.avoided;
        let candidates = avoided + self.performed - before.performed;
        layers.insert("core.avoid_tries_per_op", (self.tries - before.tries) / ops);
        layers.insert(
            "core.avoided_share",
            if candidates > 0.0 {
                avoided / candidates
            } else {
                0.0
            },
        );
    }
}

/// Inserts the exact per-operation counts of the fixed-count traced prefix.
pub fn insert_counts(
    layers: &mut BTreeMap<&'static str, f64>,
    leaf: LayerReading,
    io: mq_storage::IoStats,
    ops: f64,
) {
    layers.insert("metric.distances_per_op", leaf.distances as f64 / ops);
    layers.insert(
        "index.pages_planned_per_op",
        leaf.pages_planned as f64 / ops,
    );
    layers.insert(
        "storage.logical_reads_per_op",
        io.logical_reads as f64 / ops,
    );
    layers.insert(
        "storage.physical_reads_per_op",
        io.physical_reads as f64 / ops,
    );
    layers.insert("storage.buffer_hit_ratio", io.hit_ratio());
}
