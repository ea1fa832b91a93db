//! Counting distance evaluations.
//!
//! The paper measures CPU cost in *numbers of distance calculations* (its
//! most expensive operation, §5.2) and *numbers of triangle-inequality
//! comparisons*. [`DistanceCounter`] is a shared counter and
//! [`CountingMetric`] a transparent wrapper that increments it on every
//! evaluation — so the engine, indexes, and mining algorithms never need to
//! count manually.

use crate::distance::Metric;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared counter of distance evaluations.
///
/// Cloning is cheap (an `Arc`); all clones observe the same count. Counting
/// uses relaxed atomics: the count is a statistic, not a synchronization
/// point.
#[derive(Clone, Debug, Default)]
pub struct DistanceCounter {
    count: Arc<AtomicU64>,
}

impl DistanceCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one distance calculation.
    #[inline]
    pub fn record(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` distance calculations at once (e.g. the `m(m-1)/2`
    /// query-distance-matrix initialization of §5.2).
    #[inline]
    pub fn record_n(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// The number of distance calculations recorded so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Wraps a [`Metric`] so that every distance evaluation is counted.
#[derive(Clone, Debug)]
pub struct CountingMetric<M> {
    inner: M,
    counter: DistanceCounter,
}

impl<M> CountingMetric<M> {
    /// Wraps `inner`, counting into a fresh counter.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            counter: DistanceCounter::new(),
        }
    }

    /// Wraps `inner`, counting into an existing shared counter.
    pub fn with_counter(inner: M, counter: DistanceCounter) -> Self {
        Self { inner, counter }
    }

    /// The shared counter (clone to keep observing after moving `self`).
    pub fn counter(&self) -> &DistanceCounter {
        &self.counter
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<O: ?Sized, M: Metric<O>> Metric<O> for CountingMetric<M> {
    #[inline]
    fn distance(&self, a: &O, b: &O) -> f64 {
        self.counter.record();
        self.inner.distance(a, b)
    }

    #[inline]
    fn distance_batch(&self, query: &O, objects: &[&O], out: &mut [f64]) {
        // One evaluation per object pair, exactly as if each went through
        // `distance`.
        self.counter.record_n(objects.len() as u64);
        self.inner.distance_batch(query, objects, out)
    }

    #[inline]
    fn distance_le(&self, a: &O, b: &O, bound: f64) -> Option<f64> {
        // Counted as one full calculation even when the kernel exits early:
        // the paper's counters measure how many pairs the avoidance logic
        // failed to prune, not how many multiplications the CPU retired.
        self.counter.record();
        self.inner.distance_le(a, b, bound)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports_triangle_avoidance(&self) -> bool {
        self.inner.supports_triangle_avoidance()
    }

    fn nonnegative(&self) -> bool {
        self.inner.nonnegative()
    }

    fn distance_price(&self, payload_bytes: usize) -> f64 {
        self.inner.distance_price(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::Euclidean;
    use crate::object::Vector;

    #[test]
    fn counts_every_evaluation() {
        let m = CountingMetric::new(Euclidean);
        let a = Vector::new(vec![0.0, 0.0]);
        let b = Vector::new(vec![1.0, 1.0]);
        assert_eq!(m.counter().get(), 0);
        let _ = m.distance(&a, &b);
        let _ = m.distance(&b, &a);
        assert_eq!(m.counter().get(), 2);
        m.counter().reset();
        assert_eq!(m.counter().get(), 0);
    }

    #[test]
    fn shared_counter_across_clones() {
        let counter = DistanceCounter::new();
        let m1 = CountingMetric::with_counter(Euclidean, counter.clone());
        let m2 = CountingMetric::with_counter(Euclidean, counter.clone());
        let a = Vector::new(vec![0.0]);
        let b = Vector::new(vec![2.0]);
        let _ = m1.distance(&a, &b);
        let _ = m2.distance(&a, &b);
        counter.record_n(3);
        assert_eq!(counter.get(), 5);
    }

    #[test]
    fn counts_batch_and_bounded_evaluations() {
        let m = CountingMetric::new(Euclidean);
        let q = Vector::new(vec![0.0, 0.0]);
        let objects = [
            Vector::new(vec![3.0, 4.0]),
            Vector::new(vec![1.0, 0.0]),
            Vector::new(vec![5.0, 12.0]),
        ];
        let refs: Vec<&Vector> = objects.iter().collect();
        let mut out = vec![0.0; refs.len()];
        m.distance_batch(&q, &refs, &mut out);
        assert_eq!(m.counter().get(), 3);
        assert_eq!(m.distance_le(&q, &objects[0], 10.0), Some(5.0));
        assert_eq!(m.distance_le(&q, &objects[0], 1.0), None);
        assert_eq!(m.counter().get(), 5);
    }

    #[test]
    fn counting_preserves_distance_values() {
        let plain = Euclidean;
        let counted = CountingMetric::new(Euclidean);
        let a = Vector::new(vec![1.0, 2.0, 3.0]);
        let b = Vector::new(vec![4.0, 5.0, 6.0]);
        assert_eq!(plain.distance(&a, &b), counted.distance(&a, &b));
        assert_eq!(counted.name(), "euclidean");
    }

    #[test]
    fn forwards_the_price() {
        let counted = CountingMetric::new(crate::EditDistance);
        assert_eq!(
            Metric::<crate::Symbols>::distance_price(&counted, 40),
            Metric::<crate::Symbols>::distance_price(&crate::EditDistance, 40)
        );
    }
}
