//! The AVX2 kernel tier (x86-64).
//!
//! Bit-identity with the scalar tier is load-bearing: every kernel widens
//! four `f32`s to `f64`, then performs the same subtract / multiply / add
//! per lane that `scalar.rs` does, reduces through the same
//! `(l0 + l1) + (l2 + l3)` tree, and finishes with the identical
//! sequential tail loop. FMA is deliberately never used — the scalar
//! kernels round after the multiply, and fusing would change the bits.
//!
//! The four lane accumulators live in one `__m256d`, so the per-lane
//! accumulation order is exactly the scalar tier's.
//!
//! # Safety
//!
//! Every `pub(crate)` kernel here is `#[target_feature(enable = "avx2")]`
//! and `unsafe` to call, with the same two obligations on its caller: the
//! CPU supports AVX2, and `ys` is at least as long as `xs`. The `*_at`
//! entry points in `mod.rs` are the only callers; they trim both slices to
//! the shorter one and `dispatch!` checks the feature at runtime before
//! each call. The two MINDIST kernels take a box and rows or a query
//! instead; each states the lengths it needs, and their `*_at` entry points
//! assert those lengths before they dispatch. Value intrinsics are safe inside such a function; only the
//! raw-pointer loads and stores need an `unsafe` block, and each says why
//! its pointer is in bounds.

#![deny(unsafe_op_in_unsafe_fn)]
#![allow(clippy::missing_safety_doc)] // one contract for every fn, stated above

use std::arch::x86_64::*;

use super::LANES;

const CHECK_EVERY: u32 = 4;

/// Reduces a 256-bit accumulator through the fixed combine tree. Safe to
/// call from the kernels below: they carry the same target feature.
#[inline]
#[target_feature(enable = "avx2")]
fn combine256(acc: __m256d) -> f64 {
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is four f64s, exactly the 32 bytes the store writes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Scalar tails: identical to the `chunks_exact`
/// remainder loops in `scalar.rs`.
#[inline]
fn tail_l2(xs: &[f32], ys: &[f32], from: usize) -> f64 {
    let mut tail = 0.0f64;
    for i in from..xs.len() {
        let d = xs[i] as f64 - ys[i] as f64;
        tail += d * d;
    }
    tail
}

#[inline]
fn tail_weighted(xs: &[f32], ys: &[f32], ws: &[f64], from: usize) -> f64 {
    let mut tail = 0.0f64;
    for i in from..xs.len() {
        let d = xs[i] as f64 - ys[i] as f64;
        tail += ws[i] * d * d;
    }
    tail
}

#[inline]
fn tail_l1(xs: &[f32], ys: &[f32], from: usize) -> f64 {
    let mut tail = 0.0f64;
    for i in from..xs.len() {
        tail += (xs[i] as f64 - ys[i] as f64).abs();
    }
    tail
}

#[inline]
fn tail_dot(xs: &[f32], ys: &[f32], from: usize) -> f64 {
    let mut tail = 0.0f64;
    for i in from..xs.len() {
        tail += xs[i] as f64 * ys[i] as f64;
    }
    tail
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn l2_sq_avx2(xs: &[f32], ys: &[f32]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        let d = _mm256_sub_pd(x, y);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    combine256(acc) + tail_l2(xs, ys, chunks * LANES)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn l2_sq_le_avx2(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let chunks = xs.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    let mut until_check = CHECK_EVERY;
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        let d = _mm256_sub_pd(x, y);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine256(acc) > limit {
                return None;
            }
        }
    }
    Some(combine256(acc) + tail_l2(xs, ys, chunks * LANES))
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn weighted_l2_sq_avx2(xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    let chunks = xs.len().min(ws.len()) / LANES;
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        // SAFETY: `chunks * LANES <= ws.len()` too, by the `min` above.
        let w = unsafe { _mm256_loadu_pd(ws.as_ptr().add(i * LANES)) };
        let d = _mm256_sub_pd(x, y);
        // (w · d) · d — the same association order as the scalar kernel.
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(w, d), d));
    }
    combine256(acc) + tail_weighted(xs, ys, ws, chunks * LANES)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn l1_avx2(xs: &[f32], ys: &[f32]) -> f64 {
    let sign = _mm256_set1_pd(-0.0);
    let chunks = xs.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        let d = _mm256_sub_pd(x, y);
        acc = _mm256_add_pd(acc, _mm256_andnot_pd(sign, d));
    }
    combine256(acc) + tail_l1(xs, ys, chunks * LANES)
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn l1_le_avx2(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let sign = _mm256_set1_pd(-0.0);
    let chunks = xs.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    let mut until_check = CHECK_EVERY;
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        let d = _mm256_sub_pd(x, y);
        acc = _mm256_add_pd(acc, _mm256_andnot_pd(sign, d));
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine256(acc) > limit {
                return None;
            }
        }
    }
    Some(combine256(acc) + tail_l1(xs, ys, chunks * LANES))
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_avx2(xs: &[f32], ys: &[f32]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * LANES <= xs.len()`: in bounds.
        let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr().add(i * LANES)) });
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(ys.as_ptr().add(i * LANES)) });
        acc = _mm256_add_pd(acc, _mm256_mul_pd(x, y));
    }
    combine256(acc) + tail_dot(xs, ys, chunks * LANES)
}

/// The squared MINDIST gap of four lanes: `_mm256_max_pd(a, b)` is
/// `if a > b { a } else { b }` per lane, so this is `axis_gap`'s two
/// selects, then the square.
#[inline]
#[target_feature(enable = "avx2")]
fn gap_sq(lo: __m256d, hi: __m256d, c: __m256d) -> __m256d {
    let outside = _mm256_max_pd(_mm256_sub_pd(lo, c), _mm256_sub_pd(c, hi));
    let gap = _mm256_max_pd(outside, _mm256_setzero_pd());
    _mm256_mul_pd(gap, gap)
}

/// `box_mindists` (column-major boxes, one query): eight boxes per pass in
/// two accumulators, then four in one, then the scalar tier's single boxes.
/// Beyond the module contract, `lo` and `hi` hold `query.len() * out.len()`
/// values each.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn box_mindists_avx2(query: &[f32], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut k0 = 0;
    while k0 + 2 * LANES <= n {
        let (mut acc0, mut acc1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for (d, &c) in query.iter().enumerate() {
            let c = _mm256_set1_pd(f64::from(c));
            let at = d * n + k0;
            // SAFETY: `d < query.len()` and `k0 + 8 <= n`, so
            // `at + 8 <= query.len() * n`, the length of `lo` and `hi`.
            let (lo0, lo1, hi0, hi1) = unsafe {
                (
                    _mm256_loadu_pd(lo.as_ptr().add(at)),
                    _mm256_loadu_pd(lo.as_ptr().add(at + LANES)),
                    _mm256_loadu_pd(hi.as_ptr().add(at)),
                    _mm256_loadu_pd(hi.as_ptr().add(at + LANES)),
                )
            };
            acc0 = _mm256_add_pd(acc0, gap_sq(lo0, hi0, c));
            acc1 = _mm256_add_pd(acc1, gap_sq(lo1, hi1, c));
        }
        // SAFETY: `k0 + 8 <= n == out.len()`.
        unsafe {
            _mm256_storeu_pd(out.as_mut_ptr().add(k0), _mm256_sqrt_pd(acc0));
            _mm256_storeu_pd(out.as_mut_ptr().add(k0 + LANES), _mm256_sqrt_pd(acc1));
        }
        k0 += 2 * LANES;
    }
    if k0 + LANES <= n {
        let mut acc = _mm256_setzero_pd();
        for (d, &c) in query.iter().enumerate() {
            let at = d * n + k0;
            // SAFETY: as above, with `k0 + 4 <= n`.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_pd(lo.as_ptr().add(at)),
                    _mm256_loadu_pd(hi.as_ptr().add(at)),
                )
            };
            acc = _mm256_add_pd(acc, gap_sq(lo, hi, _mm256_set1_pd(f64::from(c))));
        }
        // SAFETY: `k0 + 4 <= n == out.len()`.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(k0), _mm256_sqrt_pd(acc)) };
        k0 += LANES;
    }
    for k in k0..n {
        super::scalar::box_block::<1>(query, lo, hi, n, k, out);
    }
}

/// The squared-gap sums of `4 * G` rows against one box. Each group of four
/// rows is read four dimensions at a time and transposed in registers, so a
/// lane holds one row and a vector one dimension; the box's bounds are
/// broadcast. Beyond the module contract, every row holds exactly
/// `lo.len()` components and `hi` is as long as `lo`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_sums<const G: usize>(rows: &[&[f32]; 8], lo: &[f64], hi: &[f64]) -> [__m256d; G] {
    let dim = lo.len();
    let blocked = dim - dim % LANES;
    let mut acc = [_mm256_setzero_pd(); G];
    for d in (0..blocked).step_by(LANES) {
        for (g, acc) in acc.iter_mut().enumerate() {
            let r = &rows[g * LANES..g * LANES + LANES];
            // SAFETY: `d + 4 <= blocked <= dim`, every row's length.
            let (x0, x1, x2, x3) = unsafe {
                (
                    _mm_loadu_ps(r[0].as_ptr().add(d)),
                    _mm_loadu_ps(r[1].as_ptr().add(d)),
                    _mm_loadu_ps(r[2].as_ptr().add(d)),
                    _mm_loadu_ps(r[3].as_ptr().add(d)),
                )
            };
            let (t0, t1) = (_mm_unpacklo_ps(x0, x1), _mm_unpacklo_ps(x2, x3));
            let (t2, t3) = (_mm_unpackhi_ps(x0, x1), _mm_unpackhi_ps(x2, x3));
            // Dimensions d, d + 1, d + 2, d + 3 in that order: each lane's
            // sum stays in dimension order.
            let columns = [
                _mm_movelh_ps(t0, t1),
                _mm_movehl_ps(t1, t0),
                _mm_movelh_ps(t2, t3),
                _mm_movehl_ps(t3, t2),
            ];
            for (j, c) in columns.into_iter().enumerate() {
                let (lo, hi) = (_mm256_set1_pd(lo[d + j]), _mm256_set1_pd(hi[d + j]));
                *acc = _mm256_add_pd(*acc, gap_sq(lo, hi, _mm256_cvtps_pd(c)));
            }
        }
    }
    for d in blocked..dim {
        let (lo, hi) = (_mm256_set1_pd(lo[d]), _mm256_set1_pd(hi[d]));
        for (g, acc) in acc.iter_mut().enumerate() {
            let r = &rows[g * LANES..g * LANES + LANES];
            let c = _mm256_setr_pd(
                f64::from(r[0][d]),
                f64::from(r[1][d]),
                f64::from(r[2][d]),
                f64::from(r[3][d]),
            );
            *acc = _mm256_add_pd(*acc, gap_sq(lo, hi, c));
        }
    }
    acc
}

/// `row_mindists` (rows against one box): eight rows per pass, or four for
/// a last pass of four or fewer. A short pass repeats its last row in the
/// spare lanes and drops their sums. Beyond the module contract, every row
/// holds exactly `lo.len()` components, `hi` is as long as `lo`, and `out`
/// as long as `rows`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn row_mindists_avx2(rows: &[&[f32]], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    for (batch, lbs) in rows.chunks(2 * LANES).zip(out.chunks_mut(2 * LANES)) {
        let padded: [&[f32]; 8] = std::array::from_fn(|l| batch[l.min(batch.len() - 1)]);
        let mut sums = [0.0f64; 2 * LANES];
        if batch.len() > LANES {
            // SAFETY: the rows and bounds are as this function's contract
            // says, and `sums` holds the 8 f64s the two stores write.
            unsafe {
                let [a, b] = row_sums::<2>(&padded, lo, hi);
                _mm256_storeu_pd(sums.as_mut_ptr(), _mm256_sqrt_pd(a));
                _mm256_storeu_pd(sums.as_mut_ptr().add(LANES), _mm256_sqrt_pd(b));
            }
        } else {
            // SAFETY: as above; the store writes the first 4 of `sums`.
            unsafe {
                let [a] = row_sums::<1>(&padded, lo, hi);
                _mm256_storeu_pd(sums.as_mut_ptr(), _mm256_sqrt_pd(a));
            }
        }
        lbs.copy_from_slice(&sums[..lbs.len()]);
    }
}
