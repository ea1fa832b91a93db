//! The instrument types. All of them are plain atomics: incrementing a
//! counter from the engine's step loop costs one relaxed fetch-add, and
//! none of them ever block.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge that can go up and down (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` counter (a histogram's summed span
/// durations). Stored as bit-cast `f64` in an `AtomicU64`, updated with a
/// CAS loop — contention on these is low (one add per span end, not per
/// distance calculation).
#[derive(Debug, Default)]
pub struct FloatCounter(AtomicU64);

impl FloatCounter {
    /// Creates a float counter starting at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    /// Adds `v` (negative or non-finite values are ignored so the counter
    /// stays monotone).
    pub fn add(&self, v: f64) {
        if !v.is_finite() || v <= 0.0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-boundary histogram: `bounds` are strictly increasing bucket
/// upper limits, with an implicit `+Inf` overflow bucket at the end.
/// Buckets are stored non-cumulatively so an observation touches exactly
/// one bucket; [`Registry::render`](crate::Registry::render) accumulates
/// them into Prometheus `le` form.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    sum: FloatCounter,
}

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds. Bounds must
    /// be finite and strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.into(),
            buckets,
            sum: FloatCounter::new(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// Records the seconds elapsed since `start`.
    pub fn observe_since(&self, start: Instant) {
        self.observe(start.elapsed().as_secs_f64());
    }

    /// Starts a span: the returned guard records the elapsed seconds into
    /// this histogram when dropped.
    pub fn start_timer(&self) -> SpanTimer<'_> {
        SpanTimer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// The configured bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) observation counts, including the final
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from the bucket
    /// counts, or `None` if the histogram is empty.
    ///
    /// The estimate uses rank selection with linear interpolation inside
    /// the chosen bucket, so an observation stream placed exactly on the
    /// bucket boundaries is recovered exactly: bounds are *inclusive*
    /// upper limits (`observe(b)` lands in the `le = b` bucket), and the
    /// interpolation reaches the bucket's upper bound when the target
    /// rank is the bucket's last observation. Two clamps keep the result
    /// meaningful at the edges:
    ///
    /// * a rank that falls in the overflow (`+Inf`) bucket reports the
    ///   largest *finite* bound — the histogram cannot resolve beyond its
    ///   range, and `+Inf` would poison downstream arithmetic;
    /// * the first bucket's lower edge is `min(0, bounds[0])`, so
    ///   non-negative quantities (latencies) never interpolate below 0.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.bounds, &self.bucket_counts(), q)
    }
}

/// Rank-selection quantile over non-cumulative bucket `counts` (one more
/// entry than `bounds`: the overflow bucket last). Shared by
/// [`Histogram::quantile`] and `Snapshot::quantile`.
pub(crate) fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || !q.is_finite() {
        return None;
    }
    // The rank of the selected observation, 1-based: q <= 0 selects the
    // first, q >= 1 the last.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if cumulative + count >= rank {
            let Some(&upper) = bounds.get(i) else {
                // Overflow bucket: clamp to the largest finite bound.
                return Some(bounds.last().copied().unwrap_or(f64::INFINITY));
            };
            let lower = if i == 0 {
                bounds[0].min(0.0)
            } else {
                bounds[i - 1]
            };
            let within = (rank - cumulative) as f64 / count as f64;
            return Some(lower + within * (upper - lower));
        }
        cumulative += count;
    }
    None
}

/// Log-spaced histogram bounds: `per_decade` bucket upper limits per
/// factor of ten, from `lo` up to (at least) `hi` — the HDR-style layout
/// the load generator uses for request latencies, where relative error
/// per bucket is constant across six orders of magnitude.
///
/// # Panics
/// Panics unless `0 < lo < hi` (both finite) and `per_decade > 0`.
pub fn log_bounds(lo: f64, hi: f64, per_decade: usize) -> Vec<f64> {
    assert!(
        lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi && per_decade > 0,
        "log_bounds requires 0 < lo < hi and per_decade > 0"
    );
    let step = 10f64.powf(1.0 / per_decade as f64);
    let mut bounds = vec![lo];
    while *bounds.last().unwrap() < hi {
        let next = bounds.last().unwrap() * step;
        bounds.push(next);
    }
    bounds
}

/// Drop guard from [`Histogram::start_timer`]: records the span's elapsed
/// seconds into the histogram when it goes out of scope.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl SpanTimer<'_> {
    /// Seconds elapsed so far (the span keeps running).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.hist.observe_since(self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.sub(2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn float_counter_accumulates_and_stays_monotone() {
        let f = FloatCounter::new();
        f.add(1.5);
        f.add(2.25);
        f.add(-7.0); // ignored
        f.add(f64::NAN); // ignored
        assert_eq!(f.get(), 3.75);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 7.0, 100.0] {
            h.observe(v);
        }
        // 0.5 and 1.0 fall in le=1 (bound is inclusive), 3.0 in le=5,
        // 7.0 in le=10, 100.0 overflows.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 111.5).abs() < 1e-9);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = Histogram::new(&[1000.0]);
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0.0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    fn quantile_is_exact_on_boundary_aligned_observations() {
        // One bound per integer 1..=100, one observation on each bound:
        // every percentile is known exactly, and because bounds are
        // inclusive upper limits each observation occupies precisely its
        // own bucket.
        let bounds: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = Histogram::new(&bounds);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        assert_eq!(h.quantile(0.50), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0), "q=0 selects the minimum");
        assert_eq!(h.quantile(0.001), Some(1.0));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 4 observations in (2, 4]: ranks 1..=4 interpolate the bucket.
        for v in [2.5, 3.0, 3.5, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.25), Some(2.5));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn quantile_value_on_boundary_never_spills_into_next_bucket() {
        // 100 observations of exactly 2.0 (a bound): every quantile must
        // report at most 2.0 — the old temptation is to place boundary
        // values in the *next* bucket, which would report p99 = 8.
        let h = Histogram::new(&[1.0, 2.0, 8.0]);
        for _ in 0..100 {
            h.observe(2.0);
        }
        let p99 = h.quantile(0.99).unwrap();
        assert!(
            p99 > 1.0 && p99 <= 2.0,
            "p99 = {p99} escaped the le=2 bucket"
        );
        assert_eq!(h.quantile(1.0), Some(2.0));
        assert_eq!(
            h.quantile(0.5),
            Some(1.5),
            "mid-rank interpolates from the lower edge"
        );
    }

    #[test]
    fn quantile_clamps_overflow_to_last_finite_bound() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(5.0);
        h.observe(1e9); // overflow bucket
        h.observe(1e9);
        let p99 = h.quantile(0.99).unwrap();
        assert_eq!(
            p99, 10.0,
            "overflow reports the largest finite bound, not +Inf"
        );
        assert!(h.quantile(0.99).unwrap().is_finite());
    }

    #[test]
    fn quantile_empty_and_bad_inputs() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        h.observe(0.5);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_first_bucket_lower_edge_is_zero_for_positive_bounds() {
        let h = Histogram::new(&[8.0, 16.0]);
        h.observe(4.0);
        h.observe(4.0);
        // Rank 1 of 2 in bucket (0, 8]: interpolates to 4, not -something.
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert!(h.quantile(0.0).unwrap() >= 0.0);
    }

    #[test]
    fn log_bounds_cover_range_with_constant_ratio() {
        let b = log_bounds(1e-5, 10.0, 5);
        assert!(b[0] == 1e-5 && *b.last().unwrap() >= 10.0);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        for w in b.windows(2) {
            let ratio = w[1] / w[0];
            assert!((ratio - 10f64.powf(0.2)).abs() < 1e-9);
        }
        // 6 decades at 5 buckets per decade: 31 bounds (32 if the final
        // step lands a hair under `hi` in floating point).
        assert!(b.len() == 31 || b.len() == 32, "got {} bounds", b.len());
    }

    #[test]
    #[should_panic(expected = "log_bounds requires")]
    fn log_bounds_rejects_bad_range() {
        let _ = log_bounds(0.0, 1.0, 4);
    }
}
