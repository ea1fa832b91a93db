//! Exact order statistics, the median-of-slices rate, and the FNV-1a input
//! fingerprint. No histogram buckets anywhere: every quantile the benchmark
//! prints is an element of the raw sample.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest element with at least `q·n` elements at or below it.
/// Always an element of the sample; `0.0` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Number of equal-count slices a timed window is cut into, unless the
/// workload has a period of its own to cut along.
pub const SLICES: usize = 30;

/// Throughput of a timed window as the median of per-slice rates.
///
/// `ends[i]` is the time (seconds, any origin) at which unit `i` of the
/// window completed and `start` the time the window opened; every unit is
/// `ops_per_unit` operations. The units are cut into slices of
/// `units_per_slice` (a remainder at the tail is dropped), each slice's rate
/// is its operations over its own elapsed time, and the median of those is
/// returned — a neighbour's burst slows a few slices, not the median. A
/// window shorter than one slice is one slice.
///
/// A cost the workload pays every so many units (a checkpoint) must fall in
/// every slice or it falls out of the median: such a workload passes a whole
/// number of its periods as `units_per_slice`.
pub fn median_slice_rate(
    start: f64,
    ends: &[f64],
    units_per_slice: usize,
    ops_per_unit: f64,
) -> f64 {
    if ends.is_empty() {
        return 0.0;
    }
    let per_slice = units_per_slice.clamp(1, ends.len());
    let mut rates = Vec::with_capacity(ends.len() / per_slice);
    let mut opened = start;
    for chunk in ends.chunks_exact(per_slice) {
        let closed = chunk[per_slice - 1];
        rates.push(per_slice as f64 * ops_per_unit / (closed - opened));
        opened = closed;
    }
    median(&rates)
}

/// FNV-1a over a byte stream: the fingerprint of a run's generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds every component's bit pattern of every vector into the hash.
    pub fn vectors<'a>(&mut self, vectors: impl IntoIterator<Item = &'a mq_metric::Vector>) {
        for v in vectors {
            for c in v.components() {
                self.bytes(&c.to_bits().to_le_bytes());
            }
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_datagen::{classification_query_ids, tycho_like};

    #[test]
    fn known_answer_quantiles() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.5], 0.95), 7.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_is_an_element_of_the_sample() {
        let s = [0.31, 12.5, 0.29, 3.3, 0.30];
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            assert!(s.contains(&quantile(&s, q)));
        }
    }

    #[test]
    fn slice_rate_ignores_a_burst() {
        // 300 units one second apart, except a 50-second stall inside one
        // slice: the mean rate drops by 14 %, the median slice rate not at all.
        let mut t = 0.0;
        let ends: Vec<f64> = (0..300)
            .map(|i| {
                t += if i == 137 { 51.0 } else { 1.0 };
                t
            })
            .collect();
        assert_eq!(median_slice_rate(0.0, &ends, 10, 2.0), 2.0);
        // Fewer units than a slice: one slice.
        assert_eq!(median_slice_rate(0.0, &[0.5, 1.0, 1.5], 10, 1.0), 2.0);
        assert_eq!(median_slice_rate(0.0, &[], 10, 1.0), 0.0);
    }

    #[test]
    fn slice_rate_drops_the_tail_remainder() {
        // 61 units in slices of 2; the slow 61st unit is not counted.
        let mut ends: Vec<f64> = (1..=60).map(f64::from).collect();
        ends.push(1000.0);
        assert_eq!(median_slice_rate(0.0, &ends, 2, 1.0), 1.0);
    }

    #[test]
    fn a_periodic_cost_counts_when_slices_are_whole_periods() {
        // 3 000 units of 1 s; every 500th also pays a 100 s "checkpoint".
        let ends = |stall: f64| -> Vec<f64> {
            let mut t = 0.0;
            (1..=3_000)
                .map(|i| {
                    t += if i % 500 == 0 { 1.0 + stall } else { 1.0 };
                    t
                })
                .collect()
        };
        // Cut into 30 slices of 100, only 6 slices hold a stall: the median
        // does not see it, however long it is.
        assert_eq!(median_slice_rate(0.0, &ends(100.0), 100, 1.0), 1.0);
        assert_eq!(median_slice_rate(0.0, &ends(200.0), 100, 1.0), 1.0);
        // Cut along the period, every slice holds one, and a stall twice as
        // long shows.
        assert_eq!(
            median_slice_rate(0.0, &ends(100.0), 500, 1.0),
            500.0 / 600.0
        );
        assert_eq!(
            median_slice_rate(0.0, &ends(200.0), 500, 1.0),
            500.0 / 700.0
        );
    }

    fn input_fingerprint(seed: u64) -> u64 {
        let mut f = Fnv::default();
        f.vectors(&tycho_like(200, seed));
        for id in classification_query_ids(200, 16, seed) {
            f.u64(u64::from(id.0));
        }
        f.finish()
    }

    #[test]
    fn fingerprint_follows_the_seed() {
        assert_eq!(input_fingerprint(7), input_fingerprint(7));
        assert_ne!(input_fingerprint(7), input_fingerprint(8));
    }

    #[test]
    fn fnv_known_answers() {
        // Published FNV-1a 64-bit test vectors.
        let hash = |s: &str| {
            let mut f = Fnv::default();
            f.bytes(s.as_bytes());
            f.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
