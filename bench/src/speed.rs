//! The host's speed, measured while the benchmark runs, and the correction
//! it implies.
//!
//! This host's CPU moves between speed states that last seconds: the same
//! pure-CPU loop took 7.7, 9.5 or 15.0 ms per iteration depending on when it
//! ran, and identical DBSCAN passes 85, 107 or 140 ms. No window short enough
//! to fit the run-time cap averages that out, and medians do not help when a
//! whole run sits in one state. So the benchmark runs a fixed **probe** — a
//! millisecond of arithmetic over a cache-resident array, in this file, using
//! nothing of the program — every few tens of milliseconds, and reports every
//! time with its on-CPU part rescaled to the speed at which the probe costs
//! exactly [`REFERENCE_PROBE_NS`]:
//!
//! ```text
//! corrected = (wall − cpu) + cpu × REFERENCE_PROBE_NS / probe cost nearby
//! ```
//!
//! Waiting (fsync, the batching window's timer, the loopback) is left as
//! measured. Across six 24-second DBSCAN runs the median pass took
//! 101.8–110.1 ms raw and 106.3–110.1 probe-milliseconds.

use crate::stats::median;

/// What the probe costs on the reference host: the unit every reported time
/// is expressed in. This host's most common state costs about 0.97 ms.
pub const REFERENCE_PROBE_NS: f64 = 1_000_000.0;

/// Probes within this distance of a moment decide its speed factor.
const NEIGHBOURHOOD_NS: u64 = 400_000_000;

/// CPU time this thread has consumed, in nanoseconds.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Without a per-thread CPU clock, all time counts as on-CPU.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    crate::trace::now_ns()
}

/// The fixed piece of work whose cost tracks the host's speed.
pub struct Probe {
    rows: Vec<f32>,
    query: [f32; 64],
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x9E37_79B9u32;
        let rows: Vec<f32> = (0..64 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x % 1000) as f32 / 1000.0
            })
            .collect();
        let mut query = [0.0; 64];
        for (i, q) in query.iter_mut().enumerate() {
            *q = rows[i * 7];
        }
        Self { rows, query }
    }
}

impl Probe {
    /// Runs the probe once and returns the CPU time it took, nanoseconds.
    pub fn run(&self) -> u64 {
        let started = thread_cpu_ns();
        let mut near = 0u32;
        for _ in 0..32 {
            for row in std::hint::black_box(&self.rows[..]).chunks_exact(64) {
                let mut sum = 0.0f32;
                for (a, b) in row.iter().zip(&self.query) {
                    let d = a - b;
                    sum += d * d;
                }
                near += u32::from(sum < 10.0);
            }
        }
        std::hint::black_box(near);
        thread_cpu_ns() - started
    }
}

/// Probe costs over time.
#[derive(Debug, Default, Clone)]
pub struct SpeedLog {
    /// `(when, cost)`, nanoseconds, in time order.
    probes: Vec<(u64, u64)>,
}

impl SpeedLog {
    /// Records a probe that finished at `at_ns` and cost `cost_ns`.
    pub fn push(&mut self, at_ns: u64, cost_ns: u64) {
        self.probes.push((at_ns, cost_ns));
    }

    /// When the last probe ran.
    pub fn last_at(&self) -> Option<u64> {
        self.probes.last().map(|p| p.0)
    }

    /// How much slower than the reference the host ran around `at_ns`: the
    /// median cost of the probes within [`NEIGHBOURHOOD_NS`] (or of the three
    /// nearest, when fewer are that close) over [`REFERENCE_PROBE_NS`].
    /// `1.0` with no probes at all.
    pub fn factor_at(&self, at_ns: u64) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let mut lo = self
            .probes
            .partition_point(|p| p.0 + NEIGHBOURHOOD_NS < at_ns);
        let mut hi = self
            .probes
            .partition_point(|p| p.0 <= at_ns + NEIGHBOURHOOD_NS);
        while hi - lo < 3 && (lo > 0 || hi < self.probes.len()) {
            let before = lo.checked_sub(1).map(|i| at_ns.abs_diff(self.probes[i].0));
            let after = self.probes.get(hi).map(|p| at_ns.abs_diff(p.0));
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let costs: Vec<f64> = self.probes[lo..hi].iter().map(|p| p.1 as f64).collect();
        median(&costs) / REFERENCE_PROBE_NS
    }

    /// The corrected length in nanoseconds of an interval that ended at
    /// `end_ns`, lasted `wall_ns` and spent `cpu_ns` of that on a CPU.
    pub fn corrected_ns(&self, end_ns: u64, wall_ns: u64, cpu_ns: u64) -> f64 {
        let cpu = cpu_ns.min(wall_ns) as f64;
        wall_ns as f64 - cpu + cpu / self.factor_at(end_ns - wall_ns / 2)
    }

    /// Median probe cost of the whole log, nanoseconds.
    pub fn median_cost_ns(&self) -> f64 {
        let costs: Vec<f64> = self.probes.iter().map(|p| p.1 as f64).collect();
        median(&costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_costs_about_a_millisecond_of_cpu() {
        let probe = Probe::default();
        let cost = (0..5).map(|_| probe.run()).min().unwrap();
        assert!((100_000..20_000_000).contains(&cost), "{cost} ns");
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_not_with_sleep() {
        let before = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - before;
        assert!(slept < 20_000_000, "{slept} ns of CPU while asleep");
        let probe = Probe::default();
        let before = thread_cpu_ns();
        probe.run();
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn factor_is_the_local_median_probe_cost() {
        let mut log = SpeedLog::default();
        assert_eq!(log.factor_at(5), 1.0);
        // 1.1 s at reference speed, then 0.9 s 1.5× slower, probed every
        // 100 ms, with one outlier.
        for i in 0..11u64 {
            log.push(i * 100_000_000, if i == 4 { 9_000_000 } else { 1_000_000 });
        }
        for i in 11..20u64 {
            log.push(i * 100_000_000, 1_500_000);
        }
        assert_eq!(log.factor_at(400_000_000), 1.0);
        assert_eq!(log.factor_at(1_600_000_000), 1.5);
        // Far outside the log: the three nearest probes decide.
        assert_eq!(log.factor_at(60_000_000_000), 1.5);
        assert_eq!(log.median_cost_ns(), 1_000_000.0);
    }

    #[test]
    fn only_the_cpu_part_is_rescaled() {
        let mut log = SpeedLog::default();
        log.push(0, 2_000_000);
        // 10 ms of which 6 on the CPU, on a host running at half speed.
        assert_eq!(
            log.corrected_ns(10_000_000, 10_000_000, 6_000_000),
            7_000_000.0
        );
        // More CPU than wall (clock granularity) is clamped.
        assert_eq!(
            log.corrected_ns(10_000_000, 10_000_000, 11_000_000),
            5_000_000.0
        );
    }
}
