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
//! each call. Value intrinsics are safe inside such a function; only the
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

/// Hamming distance over packed bit codes: Muła's nibble-lookup popcount.
/// Each 256-bit block XORs four code words, splits every byte into its two
/// nibbles, maps them through an in-register popcount table with `vpshufb`,
/// and accumulates byte sums into four u64 lanes via `vpsadbw`. Integer
/// arithmetic — the count is exactly the scalar tier's.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn hamming_avx2(xs: &[u64], ys: &[u64]) -> u32 {
    const WORDS: usize = 4; // u64 words per 256-bit block
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let chunks = xs.len() / WORDS;
    let mut total = _mm256_setzero_si256();
    for i in 0..chunks {
        // SAFETY: `i < chunks` and `chunks * WORDS <= xs.len()`: in bounds.
        let x = unsafe { _mm256_loadu_si256(xs.as_ptr().add(i * WORDS) as *const __m256i) };
        // SAFETY: likewise, `ys` being at least as long (module contract).
        let y = unsafe { _mm256_loadu_si256(ys.as_ptr().add(i * WORDS) as *const __m256i) };
        let v = _mm256_xor_si256(x, y);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        total = _mm256_add_epi64(total, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
    }
    let mut lanes = [0u64; WORDS];
    // SAFETY: `lanes` is four u64s, exactly the 32 bytes the store writes.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total) };
    let mut sum = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
    for i in chunks * WORDS..xs.len() {
        sum += (xs[i] ^ ys[i]).count_ones();
    }
    sum
}
