//! The blocked scalar kernel tier: the bit-identity reference every SIMD
//! tier must reproduce exactly.
//!
//! Each kernel widens `f32` components to `f64`, accumulates into
//! [`LANES`](super::LANES) independent lanes, reduces through the fixed
//! [`combine`](super::combine) tree and finishes with a sequential tail —
//! the exact operation sequence the AVX2 and NEON tiers replicate with
//! vector registers. It is also what an x86-64 CPU without AVX2 runs: at
//! that baseline LLVM compiles these four-lane loops to the same
//! `cvtps2pd/subpd/mulpd/addpd` a hand-written 128-bit tier would use.

use super::{combine, LANES};

/// Blocked sum of squared differences. For `dim < LANES` this degenerates
/// to the plain sequential sum (the chunked loop body never runs and
/// `combine` contributes an exact `0.0`).
#[inline]
pub(crate) fn l2_sq(xs: &[f32], ys: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    for (x, y) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            let d = x[l] as f64 - y[l] as f64;
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        let d = *x as f64 - *y as f64;
        tail += d * d;
    }
    combine(acc) + tail
}

/// [`l2_sq`] with early exit: returns `None` as soon as the partial sum
/// exceeds `limit`. Sound because floating-point accumulation of
/// non-negative terms is monotone per lane and `combine` is monotone in
/// each argument, so any partial reduction lower-bounds the final sum.
/// When it runs to completion the additions (and therefore the bits) are
/// identical to [`l2_sq`].
#[inline]
pub(crate) fn l2_sq_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    // Check every 4 chunks (16 dimensions): frequent enough to save work
    // on far-away objects, rare enough not to serialize the lanes.
    const CHECK_EVERY: u32 = 4;
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    let mut until_check = CHECK_EVERY;
    for (x, y) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            let d = x[l] as f64 - y[l] as f64;
            acc[l] += d * d;
        }
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine(acc) > limit {
                return None;
            }
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        let d = *x as f64 - *y as f64;
        tail += d * d;
    }
    Some(combine(acc) + tail)
}

/// Blocked weighted sum of squared differences (same structure as
/// [`l2_sq`]; each term is `(w·d)·d` in that association order).
#[inline]
pub(crate) fn weighted_l2_sq(xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    let mut wc = ws.chunks_exact(LANES);
    for ((x, y), w) in (&mut xc).zip(&mut yc).zip(&mut wc) {
        for l in 0..LANES {
            let d = x[l] as f64 - y[l] as f64;
            acc[l] += w[l] * d * d;
        }
    }
    let mut tail = 0.0f64;
    for ((x, y), w) in xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .zip(wc.remainder())
    {
        let d = *x as f64 - *y as f64;
        tail += w * d * d;
    }
    combine(acc) + tail
}

/// Blocked sum of absolute differences.
#[inline]
pub(crate) fn l1(xs: &[f32], ys: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    for (x, y) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += (x[l] as f64 - y[l] as f64).abs();
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        tail += (*x as f64 - *y as f64).abs();
    }
    combine(acc) + tail
}

/// [`l1`] with early exit once the partial sum exceeds `limit`.
/// L1 needs no slack: the partial sum lives in the same domain as the
/// final distance, so `partial > limit` already proves `total > limit`.
#[inline]
pub(crate) fn l1_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    const CHECK_EVERY: u32 = 4;
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    let mut until_check = CHECK_EVERY;
    for (x, y) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += (x[l] as f64 - y[l] as f64).abs();
        }
        until_check -= 1;
        if until_check == 0 {
            until_check = CHECK_EVERY;
            if combine(acc) > limit {
                return None;
            }
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        tail += (*x as f64 - *y as f64).abs();
    }
    Some(combine(acc) + tail)
}

/// Blocked inner product: `Σ x_i · y_i` with each factor widened to f64
/// before the multiply. No early-exit variant exists — partial inner
/// products of signed terms bound nothing.
#[inline]
pub(crate) fn dot(xs: &[f32], ys: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut yc = ys.chunks_exact(LANES);
    for (x, y) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += x[l] as f64 * y[l] as f64;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
        tail += *x as f64 * *y as f64;
    }
    combine(acc) + tail
}

/// Boxes (or rows) per pass of the lower-bound kernels: eight independent
/// sums, so no sum waits on another's additions.
const BOUND_BLOCK: usize = 8;

/// One block of `W` boxes of [`super::box_mindists`]'s column-major layout,
/// boxes `k0..k0 + W` of `n`: each box's squared gaps summed in dimension
/// order, then its square root, into `out[k0..k0 + W]`.
#[inline(always)]
pub(crate) fn box_block<const W: usize>(
    query: &[f32],
    lo: &[f64],
    hi: &[f64],
    n: usize,
    k0: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for (d, &c) in query.iter().enumerate() {
        let at = d * n + k0;
        let (lo, hi) = (&lo[at..at + W], &hi[at..at + W]);
        for l in 0..W {
            let gap = super::axis_gap(lo[l], hi[l], f64::from(c));
            acc[l] += gap * gap;
        }
    }
    for (o, a) in out[k0..k0 + W].iter_mut().zip(acc) {
        *o = a.sqrt();
    }
}

/// MINDIST from `query` to every box of a column-major layout, eight boxes
/// per pass, then four, then one at a time.
#[inline]
pub(crate) fn box_mindists(query: &[f32], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut k0 = 0;
    while k0 + BOUND_BLOCK <= n {
        box_block::<BOUND_BLOCK>(query, lo, hi, n, k0, out);
        k0 += BOUND_BLOCK;
    }
    if k0 + LANES <= n {
        box_block::<LANES>(query, lo, hi, n, k0, out);
        k0 += LANES;
    }
    for k in k0..n {
        box_block::<1>(query, lo, hi, n, k, out);
    }
}

/// MINDIST from each row to one box, eight rows per pass. A short last
/// pass repeats its last row in the spare lanes and drops their sums.
#[inline]
pub(crate) fn row_mindists(rows: &[&[f32]], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    let dim = lo.len();
    for (batch, lbs) in rows.chunks(BOUND_BLOCK).zip(out.chunks_mut(BOUND_BLOCK)) {
        // Every row cut to exactly `dim`, so the loop below needs no checks.
        let rows: [&[f32]; BOUND_BLOCK] =
            std::array::from_fn(|l| &batch[l.min(batch.len() - 1)][..dim]);
        let mut acc = [0.0f64; BOUND_BLOCK];
        for (d, (&lo, &hi)) in lo.iter().zip(hi).enumerate() {
            for l in 0..BOUND_BLOCK {
                let gap = super::axis_gap(lo, hi, f64::from(rows[l][d]));
                acc[l] += gap * gap;
            }
        }
        for (lb, a) in lbs.iter_mut().zip(acc) {
            *lb = a.sqrt();
        }
    }
}
