//! The [`Metric`] trait: a metric distance function over a set of objects.

/// A metric distance function `dist: O × O → ℝ⁺` (paper §2).
///
/// Implementations must satisfy the metric axioms:
/// identity (`dist(a, b) = 0 ⇔ a = b`), symmetry, and the triangle
/// inequality. The query engine relies on the triangle inequality both for
/// index pruning (M-tree) and for the avoidance of distance calculations in
/// multiple similarity queries (paper §5.2); an implementation violating the
/// axioms silently produces *incorrect query answers*, not just slow ones.
///
/// Symmetry must hold **bit for bit**: `distance(a, b)` and `distance(b, a)`
/// return the same `f64` bits, and so do [`distance_batch`] and
/// [`distance_le`] in either orientation. The engine takes one orientation
/// for the other: a session's `QObjDists` holds `distance(newer, older)`,
/// and a page record that is itself an admitted query takes its distance to
/// every other query from there instead of computing
/// `distance_batch(query, record)`.
///
/// Use [`crate::validation::check_metric_axioms`] in tests to validate a new
/// implementation on a sample (it checks symmetry only to within a
/// tolerance).
///
/// [`distance_batch`]: Metric::distance_batch
/// [`distance_le`]: Metric::distance_le
pub trait Metric<O: ?Sized>: Send + Sync {
    /// Computes the distance between two objects. Must be non-negative and
    /// finite for all valid objects.
    fn distance(&self, a: &O, b: &O) -> f64;

    /// Computes the distance from one `query` object to a batch of `objects`,
    /// writing `distance(query, objects[i])` into `out[i]`.
    ///
    /// The default forwards to [`distance`](Metric::distance) pairwise.
    /// Implementations that can amortize per-pair work (dimension checks,
    /// widening, vectorization) should override it, but every override must
    /// produce *bit-identical* results to the pairwise path — the engine
    /// mixes both freely and its equivalence tests compare `f64::to_bits`.
    ///
    /// # Panics
    /// Panics if `objects.len() != out.len()`.
    fn distance_batch(&self, query: &O, objects: &[&O], out: &mut [f64]) {
        assert_eq!(
            objects.len(),
            out.len(),
            "distance_batch: objects and out have different lengths"
        );
        for (object, slot) in objects.iter().zip(out.iter_mut()) {
            *slot = self.distance(query, object);
        }
    }

    /// Computes the distance only as far as needed to decide `d ≤ bound`:
    /// returns `Some(distance(a, b))` when the distance is within `bound`
    /// and `None` otherwise.
    ///
    /// The verdict and the returned value must agree exactly with
    /// `distance(a, b)`: `distance_le(a, b, t)` is `Some(d)` if and only if
    /// `distance(a, b) = d ∧ d ≤ t`. Overrides may abandon the accumulation
    /// early once the partial sum provably exceeds `bound` (sound for
    /// monotone accumulations of non-negative terms), which is profitable
    /// when most objects on a page fall outside the query region.
    fn distance_le(&self, a: &O, b: &O, bound: f64) -> Option<f64> {
        let d = self.distance(a, b);
        if d <= bound {
            Some(d)
        } else {
            None
        }
    }

    /// A human-readable name for reports and benchmark tables.
    fn name(&self) -> &str {
        "metric"
    }

    /// Whether the triangle inequality holds, making §5.2 distance-
    /// calculation avoidance and triangle-based index pruning sound.
    ///
    /// Defaults to `true` (the trait's contract). Similarity functions
    /// that are *not* metrics — e.g. [`DotProduct`](crate::DotProduct) —
    /// return `false`, and the query engine then disables avoidance and
    /// falls back to exhaustive page evaluation for correctness.
    fn supports_triangle_avoidance(&self) -> bool {
        true
    }

    /// Whether `distance` is guaranteed non-negative for all inputs.
    ///
    /// Defaults to `true`. Ranking functions with signed scores (again
    /// [`DotProduct`](crate::DotProduct)) return `false`; the engine then
    /// stops treating `0` as a universal lower bound when planning page
    /// visits and pruning.
    fn nonnegative(&self) -> bool {
        true
    }

    /// The price of one distance calculation in avoidance-sweep visits, for
    /// a query object of `payload_bytes` bytes: how many records the §5.2
    /// sweep can test against one pivot in the time one distance takes. The
    /// engine consults a pivot only while it removes at least one record per
    /// `price` visits, so a dearer metric keeps more pivots.
    ///
    /// Defaults to [`linear_distance_price`](crate::cost::linear_distance_price),
    /// fitted on vector kernels. Override it only where the cost grows faster
    /// than the payload ([`EditDistance`](crate::EditDistance),
    /// [`QuadraticForm`](crate::QuadraticForm)). The price changes which
    /// distances are computed, never an answer.
    fn distance_price(&self, payload_bytes: usize) -> f64 {
        crate::cost::linear_distance_price(payload_bytes)
    }
}

impl<O: ?Sized, M: Metric<O> + ?Sized> Metric<O> for &M {
    #[inline]
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }

    #[inline]
    fn distance_batch(&self, query: &O, objects: &[&O], out: &mut [f64]) {
        (**self).distance_batch(query, objects, out)
    }

    #[inline]
    fn distance_le(&self, a: &O, b: &O, bound: f64) -> Option<f64> {
        (**self).distance_le(a, b, bound)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn supports_triangle_avoidance(&self) -> bool {
        (**self).supports_triangle_avoidance()
    }

    fn nonnegative(&self) -> bool {
        (**self).nonnegative()
    }

    fn distance_price(&self, payload_bytes: usize) -> f64 {
        (**self).distance_price(payload_bytes)
    }
}

impl<O: ?Sized, M: Metric<O> + ?Sized> Metric<O> for std::sync::Arc<M> {
    #[inline]
    fn distance(&self, a: &O, b: &O) -> f64 {
        (**self).distance(a, b)
    }

    #[inline]
    fn distance_batch(&self, query: &O, objects: &[&O], out: &mut [f64]) {
        (**self).distance_batch(query, objects, out)
    }

    #[inline]
    fn distance_le(&self, a: &O, b: &O, bound: f64) -> Option<f64> {
        (**self).distance_le(a, b, bound)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn supports_triangle_avoidance(&self) -> bool {
        (**self).supports_triangle_avoidance()
    }

    fn nonnegative(&self) -> bool {
        (**self).nonnegative()
    }

    fn distance_price(&self, payload_bytes: usize) -> f64 {
        (**self).distance_price(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::Euclidean;
    use crate::object::Vector;
    use std::sync::Arc;

    #[test]
    fn metric_through_reference_and_arc() {
        let a = Vector::new(vec![0.0, 0.0]);
        let b = Vector::new(vec![3.0, 4.0]);
        let m = Euclidean;
        let by_ref: &dyn Metric<Vector> = &&m;
        assert!((by_ref.distance(&a, &b) - 5.0).abs() < 1e-12);
        let by_arc = Arc::new(Euclidean);
        assert!((by_arc.distance(&a, &b) - 5.0).abs() < 1e-12);
        assert_eq!(by_arc.name(), "euclidean");
    }

    /// A metric that implements only `distance`, to exercise the trait's
    /// default `distance_batch` / `distance_le`.
    struct PairwiseOnly;

    impl Metric<Vector> for PairwiseOnly {
        fn distance(&self, a: &Vector, b: &Vector) -> f64 {
            Euclidean.distance(a, b)
        }
    }

    /// A metric with a price of its own, to check that wrappers forward it.
    struct Dear;

    impl Metric<Vector> for Dear {
        fn distance(&self, a: &Vector, b: &Vector) -> f64 {
            Euclidean.distance(a, b)
        }

        fn distance_price(&self, _payload_bytes: usize) -> f64 {
            1e3
        }
    }

    #[test]
    fn price_defaults_to_linear_and_forwards() {
        assert_eq!(
            PairwiseOnly.distance_price(80),
            crate::cost::linear_distance_price(80)
        );
        assert_eq!(<&Dear as Metric<Vector>>::distance_price(&&Dear, 80), 1e3);
        assert_eq!(Arc::new(Dear).distance_price(80), 1e3);
    }

    #[test]
    fn default_batch_matches_pairwise() {
        let q = Vector::new(vec![0.0, 0.0]);
        let objects = [
            Vector::new(vec![3.0, 4.0]),
            Vector::new(vec![1.0, 0.0]),
            Vector::new(vec![0.0, 0.0]),
        ];
        let refs: Vec<&Vector> = objects.iter().collect();
        let mut out = vec![0.0; refs.len()];
        PairwiseOnly.distance_batch(&q, &refs, &mut out);
        for (object, d) in objects.iter().zip(&out) {
            assert_eq!(d.to_bits(), PairwiseOnly.distance(&q, object).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn default_batch_checks_lengths() {
        let q = Vector::new(vec![0.0]);
        let o = Vector::new(vec![1.0]);
        let mut out = vec![0.0; 2];
        PairwiseOnly.distance_batch(&q, &[&o], &mut out);
    }

    #[test]
    fn default_distance_le_agrees_with_distance() {
        let a = Vector::new(vec![0.0, 0.0]);
        let b = Vector::new(vec![3.0, 4.0]);
        assert_eq!(PairwiseOnly.distance_le(&a, &b, 5.0), Some(5.0));
        assert_eq!(PairwiseOnly.distance_le(&a, &b, 4.999), None);
        assert_eq!(PairwiseOnly.distance_le(&a, &a, 0.0), Some(0.0));
    }
}
