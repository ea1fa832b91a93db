//! The two MINDIST kernels, `box_mindists` (one query against the boxes of
//! a column-major layout) and `row_mindists` (many queries against one
//! box), against the formula the X-tree's `Mbr::mindist` used before they
//! existed: `(lo − c).max(c − hi).max(0.0)` per dimension, squared and
//! summed in dimension order, square-rooted. Every tier this CPU runs, and
//! the dispatched entry points (whichever tier `MQ_SIMD` picks), must
//! return those bits, including for query components that are ±0, ±∞, NaN
//! or subnormal.
//!
//! Then the edge shapes: zero dimensions, dimensions around the four-lane
//! vectors, sub-slices at odd offsets, and lengths that do not fit, which
//! are refused.

use mq_metric::kernel::{box_mindists, box_mindists_at, row_mindists, row_mindists_at, SimdLevel};
use proptest::prelude::*;

/// Every tier this CPU can execute (scalar always included).
fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon]
        .into_iter()
        .filter(|level| level.supported())
        .collect()
}

/// The reference: the formula in its `f64::max` form, in dimension order.
fn reference(query: &[f32], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for ((&lo, &hi), &c) in lo.iter().zip(hi).zip(query) {
        let c = f64::from(c);
        let d = (lo - c).max(c - hi).max(0.0);
        acc += d * d;
    }
    acc.sqrt()
}

/// A seeded xorshift stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[-50, 50)`.
    fn coordinate(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
    }

    /// A box side `[lo, hi]` of `f32` corners; one in four is a point.
    fn side(&mut self) -> (f64, f64) {
        let a = f64::from(self.coordinate() as f32);
        if self.next().is_multiple_of(4) {
            return (a, a);
        }
        let b = f64::from(self.coordinate() as f32);
        (a.min(b), a.max(b))
    }

    /// A query component: mostly ordinary, sometimes on a face of `side`,
    /// sometimes ±0, ±∞, NaN or subnormal.
    fn component(&mut self, (lo, hi): (f64, f64)) -> f32 {
        match self.next() % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => f32::from_bits(1 + (self.next() as u32 & 0x7f_ffff)),
            6 => -f32::from_bits(1 + (self.next() as u32 & 0x7f_ffff)),
            7 => lo as f32,
            8 => hi as f32,
            _ => self.coordinate() as f32,
        }
    }
}

/// `n ≥ 1` boxes of dimension `dim`, column-major, and a query near them.
fn layout(stream: &mut Stream, dim: usize, n: usize) -> (Vec<f32>, Vec<f64>, Vec<f64>) {
    let (mut lo, mut hi) = (vec![0.0; dim * n], vec![0.0; dim * n]);
    let mut query = Vec::with_capacity(dim);
    for d in 0..dim {
        for k in 0..n {
            (lo[d * n + k], hi[d * n + k]) = stream.side();
        }
        let k = stream.next() as usize % n;
        query.push(stream.component((lo[d * n + k], hi[d * n + k])));
    }
    (query, lo, hi)
}

/// Box `k` of a column-major layout, as its own `lo` and `hi`.
fn column(lo: &[f64], hi: &[f64], n: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
    let dim = lo.len() / n;
    (
        (0..dim).map(|d| lo[d * n + k]).collect(),
        (0..dim).map(|d| hi[d * n + k]).collect(),
    )
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Checks both kernels on one layout: `box_mindists` for the query against
/// every box, and `row_mindists` for rows made of the query and of random
/// points against every box.
fn check(stream: &mut Stream, dim: usize, n: usize, rows: usize) {
    let (query, lo, hi) = layout(stream, dim, n);
    let want: Vec<f64> = (0..n)
        .map(|k| {
            let (lo, hi) = column(&lo, &hi, n, k);
            reference(&query, &lo, &hi)
        })
        .collect();
    let mut out = vec![f64::NAN; n];
    for level in available_levels() {
        box_mindists_at(level, &query, &lo, &hi, &mut out);
        assert_eq!(
            bits(&out),
            bits(&want),
            "box {:?} dim {} n {}",
            level,
            dim,
            n
        );
    }
    box_mindists(&query, &lo, &hi, &mut out);
    assert_eq!(
        bits(&out),
        bits(&want),
        "box dispatched dim {} n {}",
        dim,
        n
    );

    for k in 0..n.min(3) {
        let (lo, hi) = column(&lo, &hi, n, k);
        let points: Vec<Vec<f32>> = (0..rows)
            .map(|r| {
                if r % 3 == 0 {
                    query.clone()
                } else {
                    (0..dim).map(|d| stream.component((lo[d], hi[d]))).collect()
                }
            })
            .collect();
        let refs: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
        let want: Vec<f64> = points.iter().map(|p| reference(p, &lo, &hi)).collect();
        let mut out = vec![f64::NAN; rows];
        for level in available_levels() {
            row_mindists_at(level, &refs, &lo, &hi, &mut out);
            assert_eq!(
                bits(&out),
                bits(&want),
                "rows {:?} dim {} rows {}",
                level,
                dim,
                rows
            );
        }
        row_mindists(&refs, &lo, &hi, &mut out);
        assert_eq!(
            bits(&out),
            bits(&want),
            "rows dispatched dim {} rows {}",
            dim,
            rows
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dimensions 1–70 and 1–33 boxes or rows: every block width of both
    /// kernels, full and padded, and every dimension tail.
    #[test]
    fn both_kernels_equal_the_sequential_formula_bit_for_bit(
        dim in 1usize..=70,
        n in 1usize..=33,
        rows in 0usize..=33,
        seed in any::<u64>(),
    ) {
        check(&mut Stream(seed | 1), dim, n, rows);
    }
}

#[test]
fn every_fanout_and_row_count_around_the_blocks() {
    let mut stream = Stream(0x9e37_79b9_7f4a_7c15);
    for dim in [1, 3, 4, 5, 8, 63, 64, 65] {
        for n in 1..=33 {
            check(&mut stream, dim, n, n);
        }
    }
}

#[test]
fn zero_dimensions_give_zero_bounds() {
    for level in available_levels() {
        let mut out = [f64::NAN; 5];
        box_mindists_at(level, &[], &[], &[], &mut out);
        assert_eq!(bits(&out), [0; 5], "{level:?}");
        let rows: [&[f32]; 5] = [&[]; 5];
        let mut out = [f64::NAN; 5];
        row_mindists_at(level, &rows, &[], &[], &mut out);
        assert_eq!(bits(&out), [0; 5], "{level:?}");
        // No boxes and no rows: nothing to write.
        box_mindists_at(level, &[1.0, 2.0], &[], &[], &mut []);
        row_mindists_at(level, &[], &[1.0], &[2.0], &mut []);
    }
}

#[test]
fn odd_dimensions_and_unaligned_sub_slices() {
    let mut stream = Stream(77);
    for dim in [1, 3, 5, 63, 65] {
        for n in [1, 4, 7, 8, 9, 20] {
            // Every slice starts one element into a longer buffer, so no
            // vector load is aligned.
            let (query, lo, hi) = layout(&mut stream, dim, n);
            let pad = |xs: &[f64]| [&[7.0][..], xs, &[9.0]].concat();
            let (lo1, hi1) = (pad(&lo), pad(&hi));
            let query1 = [&[3.0f32][..], &query, &[5.0]].concat();
            let (q, l, h) = (&query1[1..=dim], &lo1[1..=dim * n], &hi1[1..=dim * n]);
            let mut want = vec![0.0; n + 2];
            box_mindists_at(SimdLevel::Scalar, &query, &lo, &hi, &mut want[1..=n]);
            let (l0, h0) = column(&lo, &hi, n, 0);
            let rows_buf: Vec<f32> = [&[1.0f32][..], &query, &query, &query].concat();
            let rows: Vec<&[f32]> = (0..3)
                .map(|r| &rows_buf[1 + r * dim..1 + (r + 1) * dim])
                .collect();
            let row_want = reference(&query, &l0, &h0).to_bits();
            let (l0_1, h0_1) = (pad(&l0), pad(&h0));
            for level in available_levels() {
                let mut out = vec![f64::NAN; n + 2];
                box_mindists_at(level, q, l, h, &mut out[1..=n]);
                assert_eq!(
                    bits(&out[1..=n]),
                    bits(&want[1..=n]),
                    "{level:?} dim {dim} n {n}"
                );
                let mut out = [f64::NAN; 4];
                row_mindists_at(level, &rows, &l0_1[1..=dim], &h0_1[1..=dim], &mut out[1..]);
                assert_eq!(bits(&out[1..]), [row_want; 3], "{level:?} dim {dim}");
            }
        }
    }
}

/// Runs `f` at every tier and checks that each refuses with `message`.
fn refused_at_every_tier(message: &str, f: impl Fn(SimdLevel) + std::panic::RefUnwindSafe) {
    for level in available_levels() {
        let err = std::panic::catch_unwind(|| f(level)).expect_err("refused");
        let text = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(text.contains(message), "{level:?}: {text}");
    }
}

#[test]
fn box_layouts_that_do_not_fit_are_refused() {
    let (lo, hi) = ([0.0; 12], [1.0; 12]);
    let query = [0.5f32; 3];
    // Three dimensions of four boxes fit; one value short, or one box more,
    // or a longer query, does not.
    refused_at_every_tier("box bounds mismatch", |level| {
        box_mindists_at(level, &query, &lo[..11], &hi, &mut [0.0; 4])
    });
    refused_at_every_tier("box bounds mismatch", |level| {
        box_mindists_at(level, &query, &lo, &hi[..11], &mut [0.0; 4])
    });
    refused_at_every_tier("box bounds mismatch", |level| {
        box_mindists_at(level, &query, &lo, &hi, &mut [0.0; 5])
    });
    refused_at_every_tier("box bounds mismatch", |level| {
        box_mindists_at(level, &[0.5; 4], &lo, &hi, &mut [0.0; 4])
    });
}

#[test]
fn rows_that_do_not_fit_the_box_are_refused() {
    let (lo, hi) = ([0.0; 5], [1.0; 5]);
    let (short, long, fit) = ([0.5f32; 4], [0.5f32; 6], [0.5f32; 5]);
    for bad in [&short[..], &long[..]] {
        refused_at_every_tier("row dimensionality mismatch", |level| {
            row_mindists_at(level, &[&fit, bad, &fit], &lo, &hi, &mut [0.0; 3])
        });
    }
    refused_at_every_tier("box bounds mismatch", |level| {
        row_mindists_at(level, &[&fit], &lo, &hi[..4], &mut [0.0; 1])
    });
    refused_at_every_tier("one lower bound per row", |level| {
        row_mindists_at(level, &[&fit, &fit], &lo, &hi, &mut [0.0; 1])
    });
}
