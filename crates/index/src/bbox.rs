//! Minimum bounding rectangles (MBRs) in d-dimensional space.
//!
//! The geometry kernel of the X-tree: the covering boxes its bulk loader
//! builds, and MINDIST for best-first k-NN ordering (Roussopoulos et al. /
//! Hjaltason–Samet).

use mq_metric::kernel::axis_gap;
use mq_metric::Vector;

/// A d-dimensional axis-aligned minimum bounding rectangle.
///
/// Coordinates are kept in `f64`; point data (`f32`) widens losslessly, so
/// MINDIST lower bounds are exact and never prune a qualifying page.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbr {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Mbr {
    /// The MBR of a single point.
    pub fn from_point(p: &Vector) -> Self {
        let lo: Box<[f64]> = p.components().iter().map(|&c| c as f64).collect();
        Self { hi: lo.clone(), lo }
    }

    /// The MBR of a non-empty set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn from_points<'a>(mut points: impl Iterator<Item = &'a Vector>) -> Self {
        let first = points.next().expect("MBR of an empty point set");
        let mut mbr = Self::from_point(first);
        for p in points {
            mbr.expand_point(p);
        }
        mbr
    }

    /// Creates an MBR from explicit bounds.
    ///
    /// # Panics
    /// Panics if the bounds have different lengths or `lo > hi` anywhere.
    pub fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound dimensionality mismatch");
        assert!(
            lo.iter().zip(&hi).all(|(a, b)| a <= b),
            "lower bound exceeds upper bound"
        );
        Self {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds per dimension.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds per dimension.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Panics unless `got`, the dimensionality of the `what` operand,
    /// equals the MBR's. Checked once per call, in release builds too: a
    /// loop over the shorter operand would answer on a prefix. The panic
    /// is out of line, so the X-tree build's hot calls pay one compare.
    #[inline]
    #[track_caller]
    fn check_dim(&self, what: &str, got: usize) {
        if got != self.dim() {
            dim_mismatch(what, got, self.dim());
        }
    }

    /// Grows the MBR to cover `p`.
    ///
    /// # Panics
    /// Panics if `p`'s dimensionality differs from the MBR's.
    pub fn expand_point(&mut self, p: &Vector) {
        self.check_dim("point", p.dim());
        for (i, &c) in p.components().iter().enumerate() {
            let c = c as f64;
            if c < self.lo[i] {
                self.lo[i] = c;
            }
            if c > self.hi[i] {
                self.hi[i] = c;
            }
        }
    }

    /// Grows the MBR to cover `other`.
    ///
    /// # Panics
    /// Panics if `other`'s dimensionality differs from this MBR's.
    pub fn expand_mbr(&mut self, other: &Mbr) {
        self.check_dim("MBR", other.dim());
        for (lo, &olo) in self.lo.iter_mut().zip(&*other.lo) {
            if olo < *lo {
                *lo = olo;
            }
        }
        for (hi, &ohi) in self.hi.iter_mut().zip(&*other.hi) {
            if ohi > *hi {
                *hi = ohi;
            }
        }
    }

    /// Whether `p` lies inside (or on the boundary of) the MBR.
    ///
    /// # Panics
    /// Panics if `p`'s dimensionality differs from the MBR's.
    pub fn contains_point(&self, p: &Vector) -> bool {
        self.check_dim("point", p.dim());
        p.components()
            .iter()
            .enumerate()
            .all(|(i, &c)| self.lo[i] <= c as f64 && (c as f64) <= self.hi[i])
    }

    /// MINDIST: the minimum Euclidean distance from point `q` to any point
    /// of the MBR (zero if `q` is inside). The exact lower bound used by
    /// the Hjaltason–Samet best-first traversal.
    ///
    /// The squared gaps ([`axis_gap`]) are summed in dimension order; the
    /// X-tree's batched lower bounds sum in the same order and return the
    /// same bits.
    ///
    /// # Panics
    /// Panics if `q`'s dimensionality differs from the MBR's.
    pub fn mindist(&self, q: &Vector) -> f64 {
        self.check_dim("query", q.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &c) in self.lo.iter().zip(&*self.hi).zip(q.components()) {
            let d = axis_gap(lo, hi, f64::from(c));
            acc += d * d;
        }
        acc.sqrt()
    }
}

/// The panic of [`Mbr::check_dim`], kept out of the callers' code.
#[cold]
#[inline(never)]
#[track_caller]
fn dim_mismatch(what: &str, got: usize, dim: usize) -> ! {
    panic!("{what} dimensionality mismatch: {got} vs MBR {dim}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(cs: &[f32]) -> Vector {
        Vector::new(cs.to_vec())
    }

    fn unit_square() -> Mbr {
        Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [v(&[0.0, 5.0]), v(&[2.0, 1.0]), v(&[-1.0, 3.0])];
        let mbr = Mbr::from_points(pts.iter());
        assert_eq!(mbr.lo(), &[-1.0, 1.0]);
        assert_eq!(mbr.hi(), &[2.0, 5.0]);
        for p in &pts {
            assert!(mbr.contains_point(p));
            assert_eq!(mbr.mindist(p), 0.0);
        }
    }

    #[test]
    fn mindist_outside_corner_and_face() {
        let mbr = unit_square();
        // Corner: distance to (2,2) is sqrt(2).
        assert!((mbr.mindist(&v(&[2.0, 2.0])) - 2f64.sqrt()).abs() < 1e-12);
        // Face: distance to (0.5, 3) is 2.
        assert!((mbr.mindist(&v(&[0.5, 3.0])) - 2.0).abs() < 1e-12);
        // Inside: zero.
        assert_eq!(mbr.mindist(&v(&[0.5, 0.5])), 0.0);
    }

    /// The three-way branch `mindist` used before it became branch-free.
    fn branchy_mindist(mbr: &Mbr, q: &Vector) -> f64 {
        let mut acc = 0.0f64;
        for (i, &c) in q.components().iter().enumerate() {
            let c = c as f64;
            let d = if c < mbr.lo[i] {
                mbr.lo[i] - c
            } else if c > mbr.hi[i] {
                c - mbr.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc.sqrt()
    }

    #[test]
    fn mindist_matches_the_branchy_formula_bit_for_bit() {
        let mbr = Mbr::from_bounds(vec![-1.5, 0.0, 2.25], vec![0.5, 0.0, 7.0]);
        let points = [
            [-1.5, 0.0, 2.25],   // c == lo in every dimension
            [0.5, 0.0, 7.0],     // c == hi in every dimension
            [-0.25, 0.0, 3.0],   // inside
            [-9.0, 3.5, 100.0],  // outside: below, above, above
            [4.0, -0.125, -2.0], // outside: above, below, below
            [0.5, -1e-30, 2.25], // on faces, one coordinate just outside
        ];
        for p in points {
            let q = v(&p);
            assert_eq!(
                mbr.mindist(&q).to_bits(),
                branchy_mindist(&mbr, &q).to_bits(),
                "{p:?}"
            );
        }
        assert_eq!(mbr.mindist(&v(&[-1.5, 0.0, 2.25])).to_bits(), 0);
    }

    #[test]
    fn mindist_refuses_a_query_of_another_dimensionality() {
        // `assert!`, not `debug_assert!`: this holds in release builds too.
        let mbr = unit_square();
        for q in [v(&[0.5]), v(&[0.5, 0.5, 0.5])] {
            let err = std::panic::catch_unwind(|| mbr.mindist(&q)).expect_err("refused");
            let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(text.contains("query dimensionality mismatch"), "{text}");
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_text<R: std::fmt::Debug>(f: impl FnOnce() -> R) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("refused");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn every_operation_refuses_an_operand_of_another_dimensionality() {
        // Checked in release builds too: a shorter operand would otherwise
        // answer on the common prefix and a longer one panic with a bare
        // index error.
        let mbr = unit_square();
        for dims in [1, 3] {
            let p = v(&vec![0.5; dims]);
            let other = Mbr::from_point(&p);
            let refusals = [
                ("point", panic_text(|| mbr.contains_point(&p))),
                ("point", panic_text(|| mbr.clone().expand_point(&p))),
                ("MBR", panic_text(|| mbr.clone().expand_mbr(&other))),
            ];
            for (what, text) in refusals {
                let expected = format!("{what} dimensionality mismatch: {dims} vs MBR 2");
                assert!(text.contains(&expected), "{dims}-d: {text}");
            }
        }
    }

    #[test]
    fn union_and_expand() {
        let mut u = unit_square();
        u.expand_mbr(&Mbr::from_bounds(vec![2.0, -1.0], vec![3.0, 0.5]));
        assert_eq!(u.lo(), &[0.0, -1.0]);
        assert_eq!(u.hi(), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_point_set_rejected() {
        let _ = Mbr::from_points(std::iter::empty::<&Vector>());
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn inverted_bounds_rejected() {
        let _ = Mbr::from_bounds(vec![1.0], vec![0.0]);
    }
}
