//! Property suite pinning the cross-tier bit-identity guarantee: every
//! SIMD kernel tier the CPU can run must produce *exactly* the bits of
//! the blocked scalar tier, for every kernel, any dimensionality (blocked
//! body plus ragged tails), and any denormal-free input — and the metric
//! API built on top must agree bit-for-bit between its pairwise, batch
//! and early-exit entry points.
//!
//! CI runs this suite twice: once with `MQ_SIMD=off` (the process
//! dispatches to the scalar tier) and once with native dispatch, so the
//! metric-level properties are checked under both dispatch decisions
//! while the kernel-level properties compare tiers explicitly via the
//! `*_at` entry points.

use mq_metric::kernel::{
    dot_at, l1_at, l1_le_at, l2_sq_at, l2_sq_le_at, weighted_l2_sq_at, SimdLevel,
};
use mq_metric::{
    Chebyshev, Cosine, DotProduct, EditDistance, Euclidean, Hamming, Jaccard, Manhattan, Metric,
    Minkowski, QuadraticForm, SymbolSet, Symbols, Vector, VectorMetric, WeightedEuclidean,
};
use proptest::prelude::*;

/// Every tier this CPU can actually execute (scalar always included).
fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon]
        .into_iter()
        .filter(|level| level.supported())
        .collect()
}

/// Equal-length component triples (x, y, weight). Lengths 1..=96 sweep
/// the pure-tail cases (dim < 4), exact multiples of the 4-lane block,
/// every tail remainder, and several early-exit check-period boundaries
/// (16, 32, ... dimensions). The magnitude range keeps all values and
/// partial sums far from the denormal range while still mixing signs and
/// fractional parts.
fn triples() -> impl Strategy<Value = Vec<(f32, f32, f64)>> {
    prop::collection::vec(((-16.0f32..16.0), (-16.0f32..16.0), (0.0f64..4.0)), 1..=96)
}

fn unzip3(t: &[(f32, f32, f64)]) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
    let xs = t.iter().map(|e| e.0).collect();
    let ys = t.iter().map(|e| e.1).collect();
    let ws = t.iter().map(|e| e.2).collect();
    (xs, ys, ws)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full kernels: every available tier reproduces the scalar bits.
    #[test]
    fn full_kernels_bit_identical_across_tiers(t in triples()) {
        let (xs, ys, ws) = unzip3(&t);
        let l2 = l2_sq_at(SimdLevel::Scalar, &xs, &ys);
        let l1 = l1_at(SimdLevel::Scalar, &xs, &ys);
        let w = weighted_l2_sq_at(SimdLevel::Scalar, &xs, &ys, &ws);
        let dp = dot_at(SimdLevel::Scalar, &xs, &ys);
        for level in available_levels() {
            prop_assert_eq!(l2_sq_at(level, &xs, &ys).to_bits(), l2.to_bits());
            prop_assert_eq!(l1_at(level, &xs, &ys).to_bits(), l1.to_bits());
            prop_assert_eq!(
                weighted_l2_sq_at(level, &xs, &ys, &ws).to_bits(),
                w.to_bits()
            );
            prop_assert_eq!(dot_at(level, &xs, &ys).to_bits(), dp.to_bits());
        }
    }

    /// Early-exit kernels: identical verdict (`None` vs `Some`) and
    /// identical bits on completion, for limits spanning "exit on the
    /// first check", "exit mid-way" and "never exit".
    #[test]
    fn early_exit_kernels_bit_identical_across_tiers(
        t in triples(),
        frac in 0.0f64..1.5,
    ) {
        let (xs, ys, _) = unzip3(&t);
        let l2 = l2_sq_at(SimdLevel::Scalar, &xs, &ys);
        let l1 = l1_at(SimdLevel::Scalar, &xs, &ys);
        let limits_l2 = [0.0, l2 * frac, l2, f64::INFINITY];
        let limits_l1 = [0.0, l1 * frac, l1, f64::INFINITY];
        for level in available_levels() {
            for limit in limits_l2 {
                prop_assert_eq!(
                    l2_sq_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                    l2_sq_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits)
                );
            }
            for limit in limits_l1 {
                prop_assert_eq!(
                    l1_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                    l1_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits)
                );
            }
        }
    }

    /// A completed early-exit run returns exactly the full kernel's bits
    /// (the engine mixes `distance_le` and `distance_batch` freely).
    #[test]
    fn early_exit_completion_equals_full_kernel(t in triples()) {
        let (xs, ys, _) = unzip3(&t);
        for level in available_levels() {
            let l2 = l2_sq_at(level, &xs, &ys);
            prop_assert_eq!(
                l2_sq_le_at(level, &xs, &ys, f64::INFINITY).map(f64::to_bits),
                Some(l2.to_bits())
            );
            let l1 = l1_at(level, &xs, &ys);
            prop_assert_eq!(
                l1_le_at(level, &xs, &ys, f64::INFINITY).map(f64::to_bits),
                Some(l1.to_bits())
            );
        }
    }

    /// Metric level, under the process's dispatch decision (CI runs the
    /// suite with `MQ_SIMD=off` and with native dispatch): batch and
    /// bounded evaluation agree bit-for-bit with pairwise `distance` for
    /// every vector metric, including the new cosine / dot.
    #[test]
    fn metric_entry_points_agree_bitwise(t in triples(), frac in 0.0f64..1.5) {
        let (xs, ys, ws) = unzip3(&t);
        let a = Vector::new(xs);
        let b = Vector::new(ys);
        let weighted = WeightedEuclidean::new(ws);
        let metrics: Vec<Box<dyn Metric<Vector>>> = vec![
            Box::new(Euclidean),
            Box::new(Manhattan),
            Box::new(weighted),
            Box::new(Minkowski::new(1.0)),
            Box::new(Minkowski::new(2.0)),
            Box::new(Cosine),
            Box::new(DotProduct),
            Box::new(VectorMetric::Euclidean),
            Box::new(VectorMetric::Manhattan),
            Box::new(VectorMetric::Cosine),
            Box::new(VectorMetric::Dot),
        ];
        for metric in &metrics {
            let d = metric.distance(&a, &b);
            prop_assert!(d.is_finite());
            if metric.nonnegative() {
                prop_assert!(d >= 0.0);
            }
            // Symmetry (DotProduct included: ⟨a,b⟩ = ⟨b,a⟩ bitwise).
            prop_assert_eq!(metric.distance(&b, &a).to_bits(), d.to_bits());

            let refs = [&b, &a, &b];
            let mut out = [f64::NAN; 3];
            metric.distance_batch(&a, &refs, &mut out);
            prop_assert_eq!(out[0].to_bits(), d.to_bits());
            prop_assert_eq!(out[1].to_bits(), metric.distance(&a, &a).to_bits());
            prop_assert_eq!(out[2].to_bits(), d.to_bits());

            // distance_le: verdict and value must match `distance` for
            // bounds below, at, and above the true distance — including
            // the one-ulp neighbours where early exits are most fragile.
            let bounds = [
                d - d.abs() * frac,
                f64::from_bits(d.to_bits().wrapping_sub(1)),
                d,
                f64::from_bits(d.to_bits().wrapping_add(1)),
                d + d.abs() * frac,
                f64::INFINITY,
            ];
            for bound in bounds {
                let got = metric.distance_le(&a, &b, bound);
                let want = if d <= bound { Some(d) } else { None };
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }
}

/// `Metric`'s bitwise-symmetry contract for one pair: `distance` in both
/// orientations, and `distance_batch` and `distance_le` (at the distance
/// itself, one ulp below it, and `∞`) in both orientations, all return the
/// same bits.
fn check_bitwise_symmetry<O, M: Metric<O> + ?Sized>(metric: &M, a: &O, b: &O) {
    let d = metric.distance(a, b);
    let name = metric.name();
    prop_assert_eq!(
        metric.distance(b, a).to_bits(),
        d.to_bits(),
        "{} distance",
        name
    );
    let below = f64::from_bits(if d > 0.0 {
        d.to_bits() - 1
    } else {
        d.to_bits() + 1
    });
    for (x, y) in [(a, b), (b, a)] {
        let mut out = [f64::NAN];
        metric.distance_batch(x, &[y], &mut out);
        prop_assert_eq!(out[0].to_bits(), d.to_bits(), "{} distance_batch", name);
        for bound in [d, f64::INFINITY] {
            prop_assert_eq!(
                metric.distance_le(x, y, bound).map(f64::to_bits),
                Some(d.to_bits()),
                "{} distance_le",
                name
            );
        }
        if d != 0.0 && d.is_finite() {
            prop_assert_eq!(metric.distance_le(x, y, below), None, "{} below", name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every shipped metric is symmetric bit for bit, through all three
    /// entry points — the engine takes a record's distance to a query from
    /// `QObjDists`, which holds the other orientation. CI runs it under
    /// `MQ_SIMD=off` and under native dispatch.
    #[test]
    fn every_shipped_metric_is_bitwise_symmetric(
        t in triples(),
        xs in prop::collection::vec(0u32..6, 0..=24),
        ys in prop::collection::vec(0u32..6, 0..=24),
    ) {
        let (us, vs, ws) = unzip3(&t);
        let dim = us.len();
        let (a, b) = (Vector::new(us), Vector::new(vs));
        let vector_metrics: Vec<Box<dyn Metric<Vector>>> = vec![
            Box::new(Euclidean),
            Box::new(WeightedEuclidean::new(ws)),
            Box::new(Manhattan),
            Box::new(Chebyshev),
            Box::new(Minkowski::new(1.0)),
            Box::new(Minkowski::new(1.5)),
            Box::new(Minkowski::new(2.0)),
            Box::new(Minkowski::new(3.0)),
            Box::new(Cosine),
            Box::new(DotProduct),
            Box::new(QuadraticForm::histogram_similarity(dim, 2.0)),
            Box::new(VectorMetric::Euclidean),
            Box::new(VectorMetric::Manhattan),
            Box::new(VectorMetric::Cosine),
            Box::new(VectorMetric::Dot),
        ];
        for metric in &vector_metrics {
            check_bitwise_symmetry(&**metric, &a, &b);
        }
        let (p, q) = (Symbols::new(xs.clone()), Symbols::new(ys.clone()));
        check_bitwise_symmetry(&EditDistance, &p, &q);
        check_bitwise_symmetry(&Hamming, &p, &q);
        check_bitwise_symmetry(&Jaccard, &SymbolSet::new(xs), &SymbolSet::new(ys));
    }
}

/// The ulp-neighbour bounds above need care for negative distances
/// (DotProduct): bit-adjacent values of a negative float order in
/// reverse. Pin the semantics explicitly here so the property test's
/// helper assumptions stay honest.
#[test]
fn negative_distance_bounds_order_correctly() {
    let d = -3.5f64;
    let below = f64::from_bits(d.to_bits().wrapping_add(1)); // more negative
    let above = f64::from_bits(d.to_bits().wrapping_sub(1));
    assert!(below < d && d < above);
    let a = Vector::new(vec![1.0, 2.0]);
    let b = Vector::new(vec![0.5, 1.5]);
    let dist = DotProduct.distance(&a, &b);
    assert_eq!(DotProduct.distance_le(&a, &b, dist), Some(dist));
    let tighter = f64::from_bits(dist.to_bits().wrapping_add(1));
    assert_eq!(DotProduct.distance_le(&a, &b, tighter), None);
}
