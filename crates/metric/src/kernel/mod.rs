//! Runtime-dispatched distance kernels: a blocked scalar tier and one vector
//! tier per architecture (AVX2 on x86-64, NEON on aarch64) behind one set of
//! entry points.
//!
//! Every tier computes the *same* IEEE-754 operation sequence — widen each
//! `f32` lane to `f64`, subtract/multiply/add per lane, reduce through the
//! fixed `combine` tree, then add an identically-ordered scalar tail — so
//! the results are **bit-identical** across tiers. That keeps the
//! equivalence suites meaningful: a test run with `MQ_SIMD=off` pins the
//! exact bits a production AVX2 run must reproduce. The SIMD paths use
//! explicit multiply-then-add (never FMA): the scalar kernels round after
//! the multiply, and a fused operation would change the bits.
//!
//! Two more entry points compute MBR lower bounds (an X-tree's MINDIST):
//! [`box_mindists`] for one query against the boxes of a directory node,
//! stored column-major, and [`row_mindists`] for many queries against one
//! leaf box. Their vector lanes are independent boxes or queries, never
//! dimensions: every bound is its own sum of squared [`axis_gap`]s in
//! dimension order, then its square root, so every tier returns the bits of
//! the plain sequential loop. `axis_gap`'s two comparison selects are
//! exactly what `maxpd` computes, which is what lets the AVX2 tier keep
//! those bits. The NEON tier runs the scalar code for these two.
//!
//! The tier is chosen once, on first use, from runtime CPU feature
//! detection, and can be overridden with the `MQ_SIMD` environment
//! variable (`off|avx2|neon|auto`). Requesting a tier the CPU cannot run
//! falls back to the best detected tier; the scalar tier is always
//! available (and is what x86-64 without AVX2 runs). Per-call dispatch
//! costs one relaxed atomic load; batch loops should hoist [`active`] and
//! call the `*_at` variants.

pub(crate) mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of independent accumulator lanes in every kernel tier. Four f64
/// lanes match a 256-bit vector register and break the loop-carried
/// addition dependency so even the scalar tier auto-vectorizes well.
pub const LANES: usize = 4;

/// Relative slack applied to the squared bound before the early-exit
/// comparison in the L2 kernels. A partial sum can only exceed
/// `bound² · SLACK` if the true distance exceeds `bound` by well over the
/// combined rounding error of the squaring and the square root, so the
/// early verdict always agrees with the full computation.
pub const EARLY_EXIT_SLACK: f64 = 1.0 + 1e-9;

/// Fixed reduction tree over the lane accumulators. Every tier — scalar,
/// AVX2, NEON, full, batched, and early-exit — reduces through this
/// same tree so results stay bit-identical no matter which code path
/// computed them.
#[inline]
pub(crate) fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// A kernel dispatch tier. Ordered by preference: higher discriminants
/// are wider (faster) paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Blocked scalar kernels — always available, the bit-identity
    /// reference for every other tier.
    Scalar = 0,
    /// 256-bit AVX2 kernels (four f64 lanes per block).
    Avx2 = 1,
    /// 128-bit NEON kernels (two f64 lanes twice per block); the aarch64
    /// baseline.
    Neon = 2,
}

impl SimdLevel {
    /// The tier's name as used by `MQ_SIMD` and recorded in benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses an `MQ_SIMD` value. `Ok(None)` means `auto` (detect);
    /// `Err` carries the unrecognized token.
    pub fn parse(s: &str) -> Result<Option<SimdLevel>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "" => Ok(None),
            "off" | "scalar" | "none" => Ok(Some(SimdLevel::Scalar)),
            "avx2" => Ok(Some(SimdLevel::Avx2)),
            "neon" => Ok(Some(SimdLevel::Neon)),
            other => Err(other.to_string()),
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Avx2,
            2 => SimdLevel::Neon,
            _ => SimdLevel::Scalar,
        }
    }
}

/// The widest tier the current CPU supports.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    #[allow(unreachable_code)]
    SimdLevel::Scalar
}

/// Uninitialized sentinel for [`ACTIVE`]; never a valid `SimdLevel`.
const UNINIT: u8 = u8::MAX;

/// The process-wide selected tier; initialized lazily on first dispatch.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// The tier the process dispatches to. On first call this is resolved
/// from `MQ_SIMD` (unset or `auto` → [`detected`]); afterwards it is a
/// single relaxed load. An unsupported or unrecognized request falls back
/// to [`detected`] with a note on stderr.
pub fn active() -> SimdLevel {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != UNINIT {
        return SimdLevel::from_u8(v);
    }
    let level = match std::env::var("MQ_SIMD") {
        Err(_) => detected(),
        Ok(raw) => match SimdLevel::parse(&raw) {
            Ok(None) => detected(),
            Ok(Some(level)) if level.supported() => level,
            Ok(Some(level)) => {
                eprintln!(
                    "MQ_SIMD={}: tier not supported on this CPU, using {}",
                    level.name(),
                    detected().name()
                );
                detected()
            }
            Err(token) => {
                eprintln!(
                    "MQ_SIMD={token}: unrecognized (want off|avx2|neon|auto), using {}",
                    detected().name()
                );
                detected()
            }
        },
    };
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

// ---------------------------------------------------------------------------
// Dispatched entry points. The `*_at` variants take an explicit tier so
// batch loops can hoist the dispatch decision and tests can compare tiers
// without mutating process state; a tier the CPU cannot run silently
// degrades to the scalar kernel (which computes the same bits anyway).
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($level:expr, $scalar:expr, $avx2:expr, $neon:expr) => {{
        match $level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence is verified at runtime.
            SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe { $avx2 },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON presence is verified at runtime.
            SimdLevel::Neon if std::arch::is_aarch64_feature_detected!("neon") => unsafe { $neon },
            _ => $scalar,
        }
    }};
}

/// Both slices cut to the shorter one's length. The scalar tier's `zip`
/// loops stop there anyway; the vector tiers load through raw pointers and
/// rely on it, so every `*_at` entry point trims before it dispatches.
#[inline]
fn common_prefix<'a, T>(xs: &'a [T], ys: &'a [T]) -> (&'a [T], &'a [T]) {
    let n = xs.len().min(ys.len());
    (&xs[..n], &ys[..n])
}

/// Sum of squared differences at the process-wide tier.
#[inline]
pub fn l2_sq(xs: &[f32], ys: &[f32]) -> f64 {
    l2_sq_at(active(), xs, ys)
}

/// Sum of squared differences at an explicit tier.
#[inline]
pub fn l2_sq_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::l2_sq(xs, ys),
        x86::l2_sq_avx2(xs, ys),
        neon::l2_sq_neon(xs, ys)
    )
}

/// Early-exit sum of squared differences at the process-wide tier:
/// `None` as soon as a partial sum exceeds `limit`.
#[inline]
pub fn l2_sq_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    l2_sq_le_at(active(), xs, ys, limit)
}

/// Early-exit sum of squared differences at an explicit tier.
#[inline]
pub fn l2_sq_le_at(level: SimdLevel, xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::l2_sq_le(xs, ys, limit),
        x86::l2_sq_le_avx2(xs, ys, limit),
        neon::l2_sq_le_neon(xs, ys, limit)
    )
}

/// Weighted sum of squared differences at the process-wide tier.
#[inline]
pub fn weighted_l2_sq(xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    weighted_l2_sq_at(active(), xs, ys, ws)
}

/// Weighted sum of squared differences at an explicit tier.
#[inline]
pub fn weighted_l2_sq_at(level: SimdLevel, xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::weighted_l2_sq(xs, ys, ws),
        x86::weighted_l2_sq_avx2(xs, ys, ws),
        neon::weighted_l2_sq_neon(xs, ys, ws)
    )
}

/// Sum of absolute differences at the process-wide tier.
#[inline]
pub fn l1(xs: &[f32], ys: &[f32]) -> f64 {
    l1_at(active(), xs, ys)
}

/// Sum of absolute differences at an explicit tier.
#[inline]
pub fn l1_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::l1(xs, ys),
        x86::l1_avx2(xs, ys),
        neon::l1_neon(xs, ys)
    )
}

/// Early-exit sum of absolute differences at the process-wide tier.
#[inline]
pub fn l1_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    l1_le_at(active(), xs, ys, limit)
}

/// Early-exit sum of absolute differences at an explicit tier.
#[inline]
pub fn l1_le_at(level: SimdLevel, xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::l1_le(xs, ys, limit),
        x86::l1_le_avx2(xs, ys, limit),
        neon::l1_le_neon(xs, ys, limit)
    )
}

/// Inner product at the process-wide tier (for cosine / dot-product
/// metrics; each f32 pair is widened to f64 before multiplying).
#[inline]
pub fn dot(xs: &[f32], ys: &[f32]) -> f64 {
    dot_at(active(), xs, ys)
}

/// Inner product at an explicit tier.
#[inline]
pub fn dot_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    let (xs, ys) = common_prefix(xs, ys);
    dispatch!(
        level,
        scalar::dot(xs, ys),
        x86::dot_avx2(xs, ys),
        neon::dot_neon(xs, ys)
    )
}

/// The distance from coordinate `c` to the interval `[lo, hi]`, zero
/// inside: one term of an MBR's MINDIST. Written as two comparison selects,
/// each of which is one `maxpd` (`maxpd a, b` is `if a > b { a } else { b }`
/// per lane), so the vector tiers below compute these bits exactly.
///
/// For an interval with `lo <= hi` the two differences are never both
/// positive, and both are non-positive exactly when `c` is inside. This
/// equals `(lo - c).max(c - hi).max(0.0)` bit for bit up to the sign of a
/// zero gap, which squaring removes: a NaN difference is never a positive
/// gap in either form, because `c - hi` is NaN with `lo - c` a number only
/// when `c` and `hi` are the same infinity, and then `lo - c` is not
/// positive.
#[inline]
pub fn axis_gap(lo: f64, hi: f64, c: f64) -> f64 {
    let (below, above) = (lo - c, c - hi);
    let outside = if below > above { below } else { above };
    if outside > 0.0 {
        outside
    } else {
        0.0
    }
}

/// MINDIST from `query` to each of `out.len()` axis-aligned boxes, at the
/// process-wide tier. The boxes are stored column-major: box `k`'s bounds
/// in dimension `d` are `lo[d * out.len() + k]` and `hi[d * out.len() + k]`.
/// Each box's squared [`axis_gap`]s are summed in dimension order, so
/// `out[k]` has the bits of the sequential sum's square root. This is an
/// X-tree directory node expanding its children.
///
/// # Panics
/// Panics unless `lo` and `hi` each hold `query.len() * out.len()` values.
#[inline]
pub fn box_mindists(query: &[f32], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    box_mindists_at(active(), query, lo, hi, out)
}

/// [`box_mindists`] at an explicit tier.
pub fn box_mindists_at(level: SimdLevel, query: &[f32], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    assert!(
        lo.len() == hi.len() && query.len().checked_mul(out.len()) == Some(lo.len()),
        "box bounds mismatch: {} lower and {} upper bounds for {} boxes of dimension {}",
        lo.len(),
        hi.len(),
        out.len(),
        query.len()
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 presence is verified at runtime, and the assert
        // above is the kernel's length contract.
        SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe {
            x86::box_mindists_avx2(query, lo, hi, out)
        },
        // The NEON tier runs the scalar code.
        _ => scalar::box_mindists(query, lo, hi, out),
    }
}

/// MINDIST from each row to one axis-aligned box `[lo, hi]`, at the
/// process-wide tier: `out[r]` is row `r`'s squared [`axis_gap`]s summed
/// in dimension order, square-rooted. This is one X-tree leaf tested for
/// many queries.
///
/// # Panics
/// Panics unless `hi`, and every row, are as long as `lo`, and `out` is as
/// long as `rows`.
#[inline]
pub fn row_mindists(rows: &[&[f32]], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    row_mindists_at(active(), rows, lo, hi, out)
}

/// [`row_mindists`] at an explicit tier.
pub fn row_mindists_at(level: SimdLevel, rows: &[&[f32]], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    assert_eq!(lo.len(), hi.len(), "box bounds mismatch");
    assert_eq!(rows.len(), out.len(), "one lower bound per row");
    for row in rows {
        assert_eq!(row.len(), lo.len(), "row dimensionality mismatch");
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 presence is verified at runtime, and the asserts
        // above are the kernel's length contract.
        SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe {
            x86::row_mindists_avx2(rows, lo, hi, out)
        },
        // The NEON tier runs the scalar code.
        _ => scalar::row_mindists(rows, lo, hi, out),
    }
}

/// Hints the CPU to pull every cache line `xs` touches into L1, one hint
/// per 64-byte line. A hint changes no value and never faults; on
/// architectures without one wired up this is a no-op.
///
/// Scan loops call it a few records ahead of the one they compute, so a
/// payload that lives wherever its allocator put it is in cache by the time
/// its distance starts.
#[inline]
pub fn prefetch_lines(xs: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const CACHE_LINE: usize = 64;
        let lead = xs.as_ptr().addr() % CACHE_LINE;
        let first = xs.as_ptr().cast::<i8>().wrapping_sub(lead);
        for off in (0..lead + std::mem::size_of_val(xs)).step_by(CACHE_LINE) {
            // SAFETY: a prefetch is a hint: it never dereferences its
            // address in the program's sense and never faults, whatever
            // the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(off)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_lines_takes_every_edge_shape() {
        // 64-byte aligned storage, so the boundary cases below are exact.
        #[repr(align(64))]
        struct Lines([f32; 64]);
        let lines = Lines([1.0; 64]);
        let xs = &lines.0[..];
        assert_eq!(xs.as_ptr().addr() % 64, 0);
        prefetch_lines(&[]);
        prefetch_lines(&xs[..0]);
        prefetch_lines(&xs[..1]);
        prefetch_lines(&xs[63..]);
        // An odd offset: the slice starts mid-line and straddles three.
        prefetch_lines(&xs[3..40]);
        // Ends exactly on a line boundary.
        prefetch_lines(&xs[..16]);
        prefetch_lines(&xs[16..48]);
        // Lengths that are not a multiple of one line's 16 floats.
        for len in [5, 17, 20, 33, 63] {
            prefetch_lines(&xs[1..=len]);
        }
        prefetch_lines(xs);
    }

    fn pseudo(dim: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 20) as f32 - 8.0
            })
            .collect()
    }

    fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon]
            .into_iter()
            .filter(|l| l.supported())
            .collect()
    }

    #[test]
    fn parse_accepts_documented_tokens() {
        assert_eq!(SimdLevel::parse("auto"), Ok(None));
        assert_eq!(SimdLevel::parse("off"), Ok(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("AVX2"), Ok(Some(SimdLevel::Avx2)));
        assert_eq!(SimdLevel::parse("neon"), Ok(Some(SimdLevel::Neon)));
        assert!(SimdLevel::parse("avx512").is_err());
        assert_eq!(SimdLevel::parse("sse2"), Err("sse2".to_string()));
    }

    #[test]
    fn detected_tier_is_supported() {
        assert!(detected().supported());
        assert!(SimdLevel::Scalar.supported());
    }

    #[test]
    fn all_tiers_bit_identical_to_scalar() {
        for dim in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 63, 64, 65, 96] {
            let xs = pseudo(dim, 3);
            let ys = pseudo(dim, 71);
            let ws: Vec<f64> = (0..dim).map(|i| 0.25 + (i % 5) as f64).collect();
            let l2_ref = l2_sq_at(SimdLevel::Scalar, &xs, &ys);
            let l1_ref = l1_at(SimdLevel::Scalar, &xs, &ys);
            let w_ref = weighted_l2_sq_at(SimdLevel::Scalar, &xs, &ys, &ws);
            let dot_ref = dot_at(SimdLevel::Scalar, &xs, &ys);
            for level in available_levels() {
                assert_eq!(
                    l2_sq_at(level, &xs, &ys).to_bits(),
                    l2_ref.to_bits(),
                    "l2_sq {level:?} dim={dim}"
                );
                assert_eq!(
                    l1_at(level, &xs, &ys).to_bits(),
                    l1_ref.to_bits(),
                    "l1 {level:?} dim={dim}"
                );
                assert_eq!(
                    weighted_l2_sq_at(level, &xs, &ys, &ws).to_bits(),
                    w_ref.to_bits(),
                    "weighted {level:?} dim={dim}"
                );
                assert_eq!(
                    dot_at(level, &xs, &ys).to_bits(),
                    dot_ref.to_bits(),
                    "dot {level:?} dim={dim}"
                );
                // Early-exit kernels: same verdict and same bits for a
                // spread of limits around the true sum.
                for limit in [f64::INFINITY, l2_ref, l2_ref * 0.5, 0.0] {
                    assert_eq!(
                        l2_sq_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                        l2_sq_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits),
                        "l2_sq_le {level:?} dim={dim} limit={limit}"
                    );
                }
                for limit in [f64::INFINITY, l1_ref, l1_ref * 0.5, 0.0] {
                    assert_eq!(
                        l1_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                        l1_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits),
                        "l1_le {level:?} dim={dim} limit={limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_lengths_compare_the_common_prefix() {
        // The vector tiers load through raw pointers: a longer slice must
        // not carry them past the end of the shorter one.
        let (long, short) = (pseudo(13, 3), pseudo(6, 71));
        let (ws, inf) = ([0.5f64; 6], f64::INFINITY);
        for level in available_levels() {
            for (a, b) in [(&long, &short), (&short, &long)] {
                let (pa, pb) = (&a[..6], &b[..6]);
                assert_eq!(l2_sq_at(level, a, b), scalar::l2_sq(pa, pb), "{level:?}");
                assert_eq!(l1_at(level, a, b), scalar::l1(pa, pb), "{level:?}");
                assert_eq!(dot_at(level, a, b), scalar::dot(pa, pb), "{level:?}");
                let weighted = scalar::weighted_l2_sq(pa, pb, &ws);
                assert_eq!(weighted_l2_sq_at(level, a, b, &ws), weighted, "{level:?}");
                assert_eq!(l2_sq_le_at(level, a, b, inf), Some(scalar::l2_sq(pa, pb)));
                assert_eq!(l1_le_at(level, a, b, inf), Some(scalar::l1(pa, pb)));
            }
        }
    }
}
