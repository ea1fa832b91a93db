//! Execution statistics and the combined cost model (`C = C_io + C_cpu`, §5).

use crate::avoidance::AvoidanceStats;
use mq_metric::{CpuCostModel, DistanceCounter};
use mq_storage::{IoCostModel, IoStats, PageStore, StorageObject};
use std::time::{Duration, Instant};

/// Everything one query run cost: I/O counters, distance calculations,
/// triangle-inequality counters, and measured wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecutionStats {
    /// Disk counters.
    pub io: IoStats,
    /// Distance calculations (including `QObjDists` initialization and any
    /// metric-index routing distances).
    pub dist_calcs: u64,
    /// Triangle-inequality counters of §5.2.
    pub avoidance: AvoidanceStats,
    /// Measured wall-clock time on the current machine.
    pub elapsed: Duration,
}

impl ExecutionStats {
    /// Canonical `key=value` record of every counter, one space-separated
    /// line. The stable machine-readable form used by server responses and
    /// bench reports alike; keys never change meaning across versions.
    pub fn to_record(&self) -> String {
        format!(
            "logical_reads={} buffer_hits={} physical_reads={} random_reads={} \
             sequential_reads={} prefetch_reads={} prefetched_hits={} \
             dist_calcs={} avoid_tries={} avoided={} \
             computed={} elapsed_us={}",
            self.io.logical_reads,
            self.io.buffer_hits,
            self.io.physical_reads,
            self.io.random_reads,
            self.io.sequential_reads,
            self.io.prefetch_reads,
            self.io.prefetched_hits,
            self.dist_calcs,
            self.avoidance.tries,
            self.avoidance.avoided,
            self.avoidance.computed,
            self.elapsed.as_micros(),
        )
    }

    /// Parses a [`to_record`](Self::to_record) line back into stats.
    /// Unknown keys are ignored so records stay forward-compatible.
    pub fn from_record(record: &str) -> Option<Self> {
        let mut out = ExecutionStats::default();
        for pair in record.split_whitespace() {
            let (key, value) = pair.split_once('=')?;
            let v: u64 = value.parse().ok()?;
            match key {
                "logical_reads" => out.io.logical_reads = v,
                "buffer_hits" => out.io.buffer_hits = v,
                "physical_reads" => out.io.physical_reads = v,
                "random_reads" => out.io.random_reads = v,
                "sequential_reads" => out.io.sequential_reads = v,
                "prefetch_reads" => out.io.prefetch_reads = v,
                "prefetched_hits" => out.io.prefetched_hits = v,
                "dist_calcs" => out.dist_calcs = v,
                "avoid_tries" => out.avoidance.tries = v,
                "avoided" => out.avoidance.avoided = v,
                "computed" => out.avoidance.computed = v,
                "elapsed_us" => out.elapsed = Duration::from_micros(v),
                _ => {}
            }
        }
        Some(out)
    }

    /// Per-query average: divides every counter by `n`.
    pub fn per_query(&self, n: u64) -> PerQueryCost {
        let n = n.max(1) as f64;
        PerQueryCost {
            physical_reads: self.io.physical_reads as f64 / n,
            logical_reads: self.io.logical_reads as f64 / n,
            dist_calcs: self.dist_calcs as f64 / n,
            comparisons: self.avoidance.tries as f64 / n,
            elapsed_secs: self.elapsed.as_secs_f64() / n,
        }
    }
}

impl std::fmt::Display for ExecutionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} page reads ({} logical, {} buffer hits, {} random, \
             {} sequential, {} prefetched, {} prefetch hits), \
             {} distance calcs ({} tries, {} avoided, {} computed), {:.3} ms",
            self.io.physical_reads,
            self.io.logical_reads,
            self.io.buffer_hits,
            self.io.random_reads,
            self.io.sequential_reads,
            self.io.prefetch_reads,
            self.io.prefetched_hits,
            self.dist_calcs,
            self.avoidance.tries,
            self.avoidance.avoided,
            self.avoidance.computed,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

impl std::ops::Add for ExecutionStats {
    type Output = ExecutionStats;

    fn add(self, rhs: ExecutionStats) -> ExecutionStats {
        ExecutionStats {
            io: self.io + rhs.io,
            dist_calcs: self.dist_calcs + rhs.dist_calcs,
            avoidance: self.avoidance + rhs.avoidance,
            elapsed: self.elapsed + rhs.elapsed,
        }
    }
}

impl std::ops::AddAssign for ExecutionStats {
    fn add_assign(&mut self, rhs: ExecutionStats) {
        *self = *self + rhs;
    }
}

/// Per-query averages, as reported in the paper's figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerQueryCost {
    /// Physical page reads per query.
    pub physical_reads: f64,
    /// Logical page requests per query.
    pub logical_reads: f64,
    /// Distance calculations per query.
    pub dist_calcs: f64,
    /// Triangle-inequality comparisons per query.
    pub comparisons: f64,
    /// Measured seconds per query.
    pub elapsed_secs: f64,
}

/// The combined cost model: converts [`ExecutionStats`] into modeled
/// seconds using the paper's CPU constants and the documented disk
/// constants, at a fixed data dimensionality.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// CPU constants (distance calculation, comparison).
    pub cpu: CpuCostModel,
    /// Disk constants (seek, transfer).
    pub io: IoCostModel,
    /// Dimensionality used to price a distance calculation.
    pub dim: usize,
}

impl CostModel {
    /// The paper's 1999 constants at dimensionality `dim`.
    pub fn paper_1999(dim: usize) -> Self {
        Self {
            cpu: CpuCostModel::paper_1999(),
            io: IoCostModel::paper_1999(),
            dim,
        }
    }

    /// Modeled I/O seconds.
    pub fn io_seconds(&self, stats: &ExecutionStats) -> f64 {
        self.io.io_seconds(&stats.io)
    }

    /// Modeled CPU seconds (§5.2 formula: distance calculations — which
    /// include the `QObjDists` initialization — plus comparisons).
    pub fn cpu_seconds(&self, stats: &ExecutionStats) -> f64 {
        self.cpu
            .cpu_seconds(self.dim, stats.dist_calcs, stats.avoidance.tries)
    }

    /// Modeled total seconds (`C = C_io + C_cpu`).
    pub fn total_seconds(&self, stats: &ExecutionStats) -> f64 {
        self.io_seconds(stats) + self.cpu_seconds(stats)
    }
}

/// Captures a before/after window over the shared counters of one engine:
/// take [`StatsProbe::start`] before the run, call
/// [`StatsProbe::finish`] after it.
pub struct StatsProbe {
    io0: IoStats,
    dist0: u64,
    avoid0: AvoidanceStats,
    counter: DistanceCounter,
    started: Instant,
}

impl StatsProbe {
    /// Starts a measurement window.
    pub fn start<O: StorageObject>(
        disk: &dyn PageStore<O>,
        counter: &DistanceCounter,
        avoidance_now: AvoidanceStats,
    ) -> Self {
        Self {
            io0: disk.stats(),
            dist0: counter.get(),
            avoid0: avoidance_now,
            counter: counter.clone(),
            started: Instant::now(),
        }
    }

    /// Ends the window and returns the deltas.
    pub fn finish<O: StorageObject>(
        self,
        disk: &dyn PageStore<O>,
        avoidance_now: AvoidanceStats,
    ) -> ExecutionStats {
        ExecutionStats {
            io: disk.stats() - self.io0,
            dist_calcs: self.counter.get() - self.dist0,
            avoidance: AvoidanceStats {
                tries: avoidance_now.tries - self.avoid0.tries,
                avoided: avoidance_now.avoided - self.avoid0.avoided,
                computed: avoidance_now.computed - self.avoid0.computed,
                reused: avoidance_now.reused - self.avoid0.reused,
            },
            elapsed: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_combines_io_and_cpu() {
        let model = CostModel::paper_1999(20);
        let stats = ExecutionStats {
            io: IoStats {
                logical_reads: 100,
                buffer_hits: 0,
                physical_reads: 100,
                random_reads: 10,
                sequential_reads: 90,
                ..Default::default()
            },
            dist_calcs: 1_000_000,
            avoidance: AvoidanceStats {
                tries: 500_000,
                avoided: 400_000,
                computed: 600_000,
                ..Default::default()
            },
            elapsed: Duration::from_millis(5),
        };
        // IO: 10*(8ms) + 90*4ms = 440ms; CPU: 1e6*4.3µs + 5e5*0.082µs.
        assert!((model.io_seconds(&stats) - 0.44).abs() < 1e-9);
        assert!((model.cpu_seconds(&stats) - (4.3 + 0.041)).abs() < 1e-6);
        assert!((model.total_seconds(&stats) - (0.44 + 4.341)).abs() < 1e-6);
    }

    #[test]
    fn per_query_averages() {
        let stats = ExecutionStats {
            io: IoStats {
                logical_reads: 100,
                physical_reads: 50,
                ..Default::default()
            },
            dist_calcs: 1000,
            avoidance: AvoidanceStats {
                tries: 200,
                avoided: 100,
                computed: 900,
                ..Default::default()
            },
            elapsed: Duration::from_secs(2),
        };
        let per = stats.per_query(10);
        assert!((per.physical_reads - 5.0).abs() < 1e-12);
        assert!((per.logical_reads - 10.0).abs() < 1e-12);
        assert!((per.dist_calcs - 100.0).abs() < 1e-12);
        assert!((per.comparisons - 20.0).abs() < 1e-12);
        assert!((per.elapsed_secs - 0.2).abs() < 1e-12);
        // n = 0 is treated as 1 to avoid division by zero.
        let per0 = stats.per_query(0);
        assert!((per0.dist_calcs - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn record_roundtrip() {
        let stats = ExecutionStats {
            io: IoStats {
                logical_reads: 100,
                buffer_hits: 40,
                physical_reads: 60,
                random_reads: 10,
                sequential_reads: 50,
                prefetch_reads: 3,
                prefetched_hits: 2,
            },
            dist_calcs: 12345,
            avoidance: AvoidanceStats {
                tries: 500,
                avoided: 400,
                computed: 600,
                ..Default::default()
            },
            elapsed: Duration::from_micros(789),
        };
        let record = stats.to_record();
        let back = ExecutionStats::from_record(&record).expect("parse");
        assert_eq!(back.io.logical_reads, 100);
        assert_eq!(back.io.buffer_hits, 40);
        assert_eq!(back.io.physical_reads, 60);
        assert_eq!(back.io.random_reads, 10);
        assert_eq!(back.io.sequential_reads, 50);
        assert_eq!(back.io.prefetch_reads, 3);
        assert_eq!(back.io.prefetched_hits, 2);
        assert_eq!(back.dist_calcs, 12345);
        assert_eq!(back.avoidance.tries, 500);
        assert_eq!(back.avoidance.avoided, 400);
        assert_eq!(back.avoidance.computed, 600);
        assert_eq!(back.elapsed, Duration::from_micros(789));
        // Unknown keys are ignored; malformed records are rejected.
        assert!(ExecutionStats::from_record("future_key=7").is_some());
        assert!(ExecutionStats::from_record("no-equals-sign").is_none());
        assert!(ExecutionStats::from_record("dist_calcs=abc").is_none());
    }

    #[test]
    fn display_is_one_line() {
        let stats = ExecutionStats {
            dist_calcs: 42,
            ..Default::default()
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("42 distance calcs"));
    }

    #[test]
    fn display_prints_all_twelve_fields() {
        let stats = ExecutionStats {
            io: IoStats {
                logical_reads: 100,
                buffer_hits: 40,
                physical_reads: 60,
                random_reads: 10,
                sequential_reads: 50,
                prefetch_reads: 3,
                prefetched_hits: 2,
            },
            dist_calcs: 42,
            avoidance: AvoidanceStats {
                tries: 500,
                avoided: 400,
                computed: 600,
                ..Default::default()
            },
            elapsed: Duration::from_micros(789),
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("60 page reads"));
        assert!(line.contains("100 logical"));
        assert!(line.contains("40 buffer hits"));
        assert!(line.contains("10 random"));
        assert!(line.contains("50 sequential"));
        assert!(line.contains("3 prefetched"));
        assert!(line.contains("2 prefetch hits"));
        assert!(line.contains("42 distance calcs"));
        assert!(line.contains("500 tries"));
        assert!(line.contains("400 avoided"));
        assert!(line.contains("600 computed"));
        assert!(line.contains("0.789 ms"));
    }

    #[test]
    fn stats_addition() {
        let a = ExecutionStats {
            dist_calcs: 5,
            elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        let b = ExecutionStats {
            dist_calcs: 7,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        let mut s = a;
        s += b;
        assert_eq!(s.dist_calcs, 12);
        assert_eq!(s.elapsed, Duration::from_secs(3));
    }
}
