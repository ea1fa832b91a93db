//! NEON kernel tier (aarch64).
//!
//! Mirrors the SSE2 structure: the four lane accumulators are split
//! across two `float64x2_t`s (lanes 0–1 and 2–3), each `f32` block is
//! widened to `f64` before subtract / multiply / add, the reduction uses
//! the fixed `(l0 + l1) + (l2 + l3)` tree, and the tail loop is the
//! scalar remainder loop verbatim — so results are bit-identical with
//! the scalar tier. No fused multiply-add instructions are used.

#![allow(clippy::missing_safety_doc)] // every fn: caller must ensure NEON
                                      // is available

use std::arch::aarch64::*;

use super::LANES;

const CHECK_EVERY: u32 = 4;

/// Reduces the split accumulators (lanes 0–1, lanes 2–3) through the
/// fixed combine tree.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn combine_neon(acc01: float64x2_t, acc23: float64x2_t) -> f64 {
    (vgetq_lane_f64::<0>(acc01) + vgetq_lane_f64::<1>(acc01))
        + (vgetq_lane_f64::<0>(acc23) + vgetq_lane_f64::<1>(acc23))
}

/// Loads one LANES-sized block as two f64 pairs: lanes 0–1 and 2–3.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn load_f64_pair(xs: &[f32], at: usize) -> (float64x2_t, float64x2_t) {
    let v = vld1q_f32(xs.as_ptr().add(at));
    (vcvt_f64_f32(vget_low_f32(v)), vcvt_high_f64_f32(v))
}

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

#[target_feature(enable = "neon")]
pub(crate) unsafe fn l2_sq_neon(xs: &[f32], ys: &[f32]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        let d01 = vsubq_f64(x01, y01);
        let d23 = vsubq_f64(x23, y23);
        acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
        acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
    }
    combine_neon(acc01, acc23) + tail_l2(xs, ys, chunks * LANES)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn l2_sq_le_neon(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let chunks = xs.len() / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut until_check = CHECK_EVERY;
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        let d01 = vsubq_f64(x01, y01);
        let d23 = vsubq_f64(x23, y23);
        acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
        acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine_neon(acc01, acc23) > limit {
                return None;
            }
        }
    }
    Some(combine_neon(acc01, acc23) + tail_l2(xs, ys, chunks * LANES))
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn weighted_l2_sq_neon(xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    let chunks = xs.len().min(ws.len()) / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        let w01 = vld1q_f64(ws.as_ptr().add(i * LANES));
        let w23 = vld1q_f64(ws.as_ptr().add(i * LANES + 2));
        let d01 = vsubq_f64(x01, y01);
        let d23 = vsubq_f64(x23, y23);
        // (w · d) · d — the same association order as the scalar kernel.
        acc01 = vaddq_f64(acc01, vmulq_f64(vmulq_f64(w01, d01), d01));
        acc23 = vaddq_f64(acc23, vmulq_f64(vmulq_f64(w23, d23), d23));
    }
    combine_neon(acc01, acc23) + tail_weighted(xs, ys, ws, chunks * LANES)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn l1_neon(xs: &[f32], ys: &[f32]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        acc01 = vaddq_f64(acc01, vabsq_f64(vsubq_f64(x01, y01)));
        acc23 = vaddq_f64(acc23, vabsq_f64(vsubq_f64(x23, y23)));
    }
    combine_neon(acc01, acc23) + tail_l1(xs, ys, chunks * LANES)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn l1_le_neon(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let chunks = xs.len() / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut until_check = CHECK_EVERY;
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        acc01 = vaddq_f64(acc01, vabsq_f64(vsubq_f64(x01, y01)));
        acc23 = vaddq_f64(acc23, vabsq_f64(vsubq_f64(x23, y23)));
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine_neon(acc01, acc23) > limit {
                return None;
            }
        }
    }
    Some(combine_neon(acc01, acc23) + tail_l1(xs, ys, chunks * LANES))
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn dot_neon(xs: &[f32], ys: &[f32]) -> f64 {
    let chunks = xs.len() / LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..chunks {
        let (x01, x23) = load_f64_pair(xs, i * LANES);
        let (y01, y23) = load_f64_pair(ys, i * LANES);
        acc01 = vaddq_f64(acc01, vmulq_f64(x01, y01));
        acc23 = vaddq_f64(acc23, vmulq_f64(x23, y23));
    }
    combine_neon(acc01, acc23) + tail_dot(xs, ys, chunks * LANES)
}
