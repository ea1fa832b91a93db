//! The CPU cost model of the paper (§5.2 and §6.2).
//!
//! The paper measured, on its Pentium II 300 MHz testbed:
//!
//! * Euclidean distance on 20-d objects: **4.3 µs** per calculation,
//! * Euclidean distance on 64-d objects: **12.7 µs** per calculation,
//! * one triangle-inequality evaluation: **0.082 µs** (constant in `d`),
//!
//! i.e. a distance calculation is 52× (20-d) / 155× (64-d) more expensive
//! than a comparison. These *ratios* drive every crossover in the paper's
//! evaluation, so the benchmark harness reports costs modeled with exactly
//! these constants alongside wall-clock measurements on current hardware.
//!
//! For other dimensionalities the model interpolates linearly:
//! `t_dist(d) = base + per_dim · d`, fitted through the paper's two points.
//!
//! # The price the engine acts on
//!
//! The query engine does not only report these ratios; it acts on the
//! current machine's. Its avoidance sweep (§5.2, `mq_core::multiple`) tests
//! one pivot against a page's surviving records at a time — one *visit*
//! per record — and consults a pivot only while the records it removes pay
//! for its visits. A distance's price in visits comes from
//! [`Metric::distance_price`](crate::Metric::distance_price), whose default
//! is [`linear_distance_price`], fitted on a 2-core x86-64 (AVX2) host:
//!
//! | operation | ns |
//! |---|---|
//! | one sweep visit (load, add, two compares, compaction store) | 1.6 |
//! | Euclidean distance at 4 / 20 / 64 / 256 dims, batch kernel plus the page evaluation's gather and scatter, over records in shuffled heap order | 6.5 / 9.5 / 18.3 / 60.5 |
//!
//! Distance time is close to linear in the payload, `5.2 ns + 0.054 ns`
//! per byte, which in visits is [`PRICE_BASE_VISITS`] +
//! [`PRICE_VISITS_PER_BYTE`] per byte: about 6 visits for a 20-d vector
//! and 12 for a 64-d one — where §6.2 had 52 and 155 comparisons. A visit
//! evaluates zero lemmas (pivot distance unknown), one (Lemma 1 fires) or
//! two; on the benchmark's mining workloads it averaged 1.18–1.26, so on the
//! paper's machine a distance costs about
//! [`CpuCostModel::dist_to_comparison_ratio`] visits.

/// Sweep visits one distance calculation costs regardless of its payload
/// (call, gather, scatter, answer check), on the host documented above.
pub const PRICE_BASE_VISITS: f64 = 3.25;

/// Additional sweep visits per payload byte of the query object, on the host
/// documented above.
pub const PRICE_VISITS_PER_BYTE: f64 = 0.034;

/// The default price of one distance calculation in avoidance-sweep visits,
/// for a query object of `payload_bytes` bytes: linear in the payload, with
/// the constants fitted in the module docs.
pub fn linear_distance_price(payload_bytes: usize) -> f64 {
    PRICE_BASE_VISITS + PRICE_VISITS_PER_BYTE * payload_bytes as f64
}

/// CPU cost model: converts operation counts into modeled seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuCostModel {
    /// Fixed cost of one distance calculation, in microseconds.
    pub dist_base_us: f64,
    /// Additional distance-calculation cost per dimension, in microseconds.
    pub dist_per_dim_us: f64,
    /// Cost of one triangle-inequality evaluation, in microseconds.
    pub comparison_us: f64,
}

impl CpuCostModel {
    /// The paper's measured constants (Pentium II 300 MHz, §6.2), fitted
    /// linearly in the dimension:
    /// `t(20) = 4.3 µs`, `t(64) = 12.7 µs` ⇒ slope `8.4/44 ≈ 0.1909` µs/dim,
    /// intercept `≈ 0.4818` µs; comparison `0.082` µs.
    pub fn paper_1999() -> Self {
        let per_dim = (12.7 - 4.3) / (64.0 - 20.0);
        Self {
            dist_base_us: 4.3 - 20.0 * per_dim,
            dist_per_dim_us: per_dim,
            comparison_us: 0.082,
        }
    }

    /// Modeled cost of one distance calculation at dimensionality `d`,
    /// in microseconds.
    pub fn distance_us(&self, dim: usize) -> f64 {
        self.dist_base_us + self.dist_per_dim_us * dim as f64
    }

    /// Ratio of distance-calculation cost to comparison cost at `d`
    /// (paper: 52 at 20-d, 155 at 64-d).
    pub fn dist_to_comparison_ratio(&self, dim: usize) -> f64 {
        self.distance_us(dim) / self.comparison_us
    }

    /// Modeled CPU seconds for the given operation counts (§5.2 formula):
    /// `C_cpu = dist_calcs · t(dist) + comparisons · t(comparison)`.
    ///
    /// The `dist_calcs` argument must already include the query-distance-
    /// matrix initialization (`m(m-1)/2` calculations), as the engine counts
    /// those through the same [`crate::DistanceCounter`].
    pub fn cpu_seconds(&self, dim: usize, dist_calcs: u64, comparisons: u64) -> f64 {
        (dist_calcs as f64 * self.distance_us(dim) + comparisons as f64 * self.comparison_us) * 1e-6
    }
}

impl Default for CpuCostModel {
    fn default() -> Self {
        Self::paper_1999()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_paper_measurements() {
        let m = CpuCostModel::paper_1999();
        assert!((m.distance_us(20) - 4.3).abs() < 1e-9);
        assert!((m.distance_us(64) - 12.7).abs() < 1e-9);
    }

    #[test]
    fn reproduces_paper_ratios() {
        let m = CpuCostModel::paper_1999();
        // Paper §6.2: "52 times" at 20-d and "155" at 64-d.
        assert!((m.dist_to_comparison_ratio(20) - 52.4).abs() < 0.5);
        assert!((m.dist_to_comparison_ratio(64) - 154.9).abs() < 0.5);
    }

    #[test]
    fn prices_grow_with_the_payload() {
        // 20-d and 64-d f32 vectors: about 6 and 12 visits.
        assert!((linear_distance_price(80) - 5.97).abs() < 0.01);
        assert!((linear_distance_price(256) - 11.95).abs() < 0.01);
    }

    #[test]
    fn cpu_seconds_formula() {
        let m = CpuCostModel::paper_1999();
        // 1e6 distance calcs at 20-d = 4.3 seconds.
        let secs = m.cpu_seconds(20, 1_000_000, 0);
        assert!((secs - 4.3).abs() < 1e-6);
        // Comparisons add 0.082 µs each.
        let secs = m.cpu_seconds(20, 0, 1_000_000);
        assert!((secs - 0.082).abs() < 1e-9);
    }
}
