//! Avoiding distance calculations with the triangle inequality (§5.2).
//!
//! Given the precomputed inter-query distances `QObjDists` and the already
//! computed distances `dist(Qj, O)` for some pivots `Qj`, the calculation of
//! `dist(Qi, O)` is *avoidable* (Definition 5) when either lemma proves
//! `dist(Qi, O) > QueryDist(Qi)`:
//!
//! * **Lemma 1:** `dist(O, Qj) > dist(Qi, Qj) + QueryDist(Qi)`
//!   (the pivot is close to `Qi` but far from `O`), or
//! * **Lemma 2:** `dist(Qi, Qj) > dist(O, Qj) + QueryDist(Qi)`
//!   (the pivot is close to `O` but far from `Qi`).
//!
//! Every lemma evaluation is one *distance comparison* — the cheap operation
//! the paper's CPU cost formula charges at `time(comparison)`. On the
//! paper's 1999 machine a comparison was 52–155× cheaper than a distance
//! calculation (§6.2); on current hardware the gap is an order of magnitude
//! smaller (a 20-d Euclidean distance costs about six sweep visits), so the
//! engine tries a pivot only while it pays at the metric's
//! [`distance_price`](mq_metric::Metric::distance_price) — see
//! [`crate::multiple`].
//!
//! **Deviation from the paper:** the paper states both lemmas with `≥` in
//! the premise, which only proves `dist(Qi, O) ≥ QueryDist(Qi)` — but an
//! object at distance *exactly* `QueryDist` still qualifies as an answer
//! (the insert condition of Fig. 1 is `≤`). With `≥` premises, an exact-
//! boundary answer (e.g. the query object itself under a zero-radius range
//! query) can be falsely avoided. We therefore use the *strict* premises
//! above, which prove `dist(Qi, O) > QueryDist(Qi)` as Definition 5
//! requires; the integration suite has a regression test for this case.

use mq_metric::Metric;

/// Counters for the CPU cost formula of §5.2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AvoidanceStats {
    /// Triangle-inequality evaluations, successful or not
    /// (`avoiding_tries`).
    pub tries: u64,
    /// Distance calculations proven avoidable.
    pub avoided: u64,
    /// Distance calculations actually performed on database objects
    /// (`not_avoided`).
    pub computed: u64,
    /// Distances taken from `QObjDists` instead of computed: a record that
    /// is itself an admitted query (admitted by id) already has its distance
    /// to every other query in the matrix. `avoided + computed + reused`
    /// is the number of candidate (query, record) pairs.
    pub reused: u64,
}

impl AvoidanceStats {
    /// Fraction of the candidate distance calculations not taken from
    /// `QObjDists` that were avoided.
    pub fn avoidance_ratio(&self) -> f64 {
        let total = self.avoided + self.computed;
        if total == 0 {
            0.0
        } else {
            self.avoided as f64 / total as f64
        }
    }
}

impl std::ops::Add for AvoidanceStats {
    type Output = AvoidanceStats;

    fn add(self, rhs: AvoidanceStats) -> AvoidanceStats {
        AvoidanceStats {
            tries: self.tries + rhs.tries,
            avoided: self.avoided + rhs.avoided,
            computed: self.computed + rhs.computed,
            reused: self.reused + rhs.reused,
        }
    }
}

impl std::ops::AddAssign for AvoidanceStats {
    fn add_assign(&mut self, rhs: AvoidanceStats) {
        *self = *self + rhs;
    }
}

/// The inter-query distance matrix `QObjDists` (§5.2): `dist(Qi, Qj)` for
/// all pairs of query objects of one multiple-query session.
///
/// The matrix grows dynamically as an `ExploreNeighborhoods` algorithm
/// admits new query objects: admitting the `m`-th query costs `m − 1`
/// distance calculations, so a session that ends with `m` queries has spent
/// the paper's `m(m−1)/2` initialization total. Those calculations go
/// through the session's metric and are therefore counted as CPU cost.
#[derive(Clone, Debug, Default)]
pub struct QueryDistanceMatrix {
    /// Row `i` holds `dist(Qi, Qj)` for `j < i`.
    rows: Vec<Vec<f64>>,
}

impl QueryDistanceMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits the next query object, computing its distances to all
    /// previously admitted ones with `metric` (counted there). `queries`
    /// must iterate the previously admitted objects in admission order.
    pub fn admit<'a, O: 'a, M: Metric<O>>(
        &mut self,
        metric: &M,
        queries: impl IntoIterator<Item = &'a O>,
        new: &O,
    ) {
        let row: Vec<f64> = queries
            .into_iter()
            .map(|q| metric.distance(new, q))
            .collect();
        debug_assert_eq!(row.len(), self.rows.len(), "admit order mismatch");
        self.rows.push(row);
    }

    /// Number of admitted queries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no query was admitted yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `dist(Qi, Qj)` for two admitted queries.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            std::cmp::Ordering::Greater => self.rows[i][j],
            std::cmp::Ordering::Less => self.rows[j][i],
            std::cmp::Ordering::Equal => 0.0,
        }
    }

    /// Tries to prove `dist(Qi, O) > query_dist` from the known pivot
    /// distances `(j, dist(Qj, O))` via Lemma 1 / Lemma 2, updating `stats`.
    /// Returns `true` when the calculation of `dist(Qi, O)` is avoidable.
    ///
    /// This is Fig. 5 for one object, and the reference: page evaluation
    /// runs the same comparisons for a page of objects at a time (the
    /// avoidance sweep in [`crate::multiple`]) over the pivots that pay,
    /// and a property test holds it to equal verdicts and counters on
    /// exactly those pivots, and to removing only what this removes over
    /// all of them.
    #[inline]
    pub fn try_avoid(
        &self,
        i: usize,
        known: &[(usize, f64)],
        query_dist: f64,
        stats: &mut AvoidanceStats,
    ) -> bool {
        // An infinite query distance (k-NN before k answers) can never be
        // exceeded, so no lemma can fire; skip the comparisons entirely.
        if query_dist.is_infinite() {
            return false;
        }
        for &(j, d_oj) in known {
            let d_ij = self.get(i, j);
            // Lemma 1 (strict): dist(O,Qj) > dist(Qi,Qj) + QueryDist(Qi)
            // ⇒ dist(O,Qi) > QueryDist(Qi).
            stats.tries += 1;
            if d_oj > d_ij + query_dist {
                stats.avoided += 1;
                return true;
            }
            // Lemma 2 (strict): dist(Qi,Qj) > dist(O,Qj) + QueryDist(Qi)
            // ⇒ dist(O,Qi) > QueryDist(Qi).
            stats.tries += 1;
            if d_ij > d_oj + query_dist {
                stats.avoided += 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_metric::{Euclidean, Metric, Vector};

    fn v(x: f64) -> Vector {
        Vector::new(vec![x as f32])
    }

    fn matrix(queries: &[Vector]) -> QueryDistanceMatrix {
        let mut m = QueryDistanceMatrix::new();
        for (i, q) in queries.iter().enumerate() {
            m.admit(&Euclidean, &queries[..i], q);
        }
        m
    }

    #[test]
    fn get_is_symmetric_with_zero_diagonal() {
        let qs = vec![v(0.0), v(3.0), v(10.0)];
        let m = matrix(&qs);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(2, 0), 10.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn lemma1_fires_when_pivot_near_query_far_object() {
        // Q0 = 0, Q1 = 1 (close); O = 100 (far from Q0).
        let qs = vec![v(0.0), v(1.0)];
        let m = matrix(&qs);
        let d_o_q0 = Euclidean.distance(&v(100.0), &v(0.0));
        let mut stats = AvoidanceStats::default();
        // QueryDist(Q1) = 5: dist(O,Q0)=100 ≥ dist(Q1,Q0)=1 + 5 → avoid.
        assert!(m.try_avoid(1, &[(0, d_o_q0)], 5.0, &mut stats));
        assert_eq!(stats.avoided, 1);
        assert_eq!(stats.tries, 1, "lemma 1 fired on the first comparison");
        // The conclusion is correct: dist(O, Q1) = 99 > 5.
        assert!(Euclidean.distance(&v(100.0), &v(1.0)) > 5.0);
    }

    #[test]
    fn lemma2_fires_when_pivot_near_object_far_query() {
        // Q0 = 0, Q1 = 100 (far); O = 1 (close to Q0).
        let qs = vec![v(0.0), v(100.0)];
        let m = matrix(&qs);
        let d_o_q0 = Euclidean.distance(&v(1.0), &v(0.0));
        let mut stats = AvoidanceStats::default();
        // dist(Q1,Q0)=100 ≥ dist(O,Q0)=1 + QueryDist(Q1)=5 → avoid.
        assert!(m.try_avoid(1, &[(0, d_o_q0)], 5.0, &mut stats));
        assert_eq!(stats.avoided, 1);
        assert_eq!(stats.tries, 2, "lemma 1 failed, lemma 2 fired");
        assert!(Euclidean.distance(&v(1.0), &v(100.0)) > 5.0);
    }

    #[test]
    fn no_false_avoidance_when_object_in_range() {
        // O = 3 is within QueryDist 5 of Q1 = 1; no lemma may fire.
        let qs = vec![v(0.0), v(1.0)];
        let m = matrix(&qs);
        let d_o_q0 = 3.0;
        let mut stats = AvoidanceStats::default();
        assert!(!m.try_avoid(1, &[(0, d_o_q0)], 5.0, &mut stats));
        assert_eq!(stats.avoided, 0);
        assert_eq!(stats.tries, 2);
    }

    #[test]
    fn infinite_query_dist_never_tries() {
        let qs = vec![v(0.0), v(1.0)];
        let m = matrix(&qs);
        let mut stats = AvoidanceStats::default();
        assert!(!m.try_avoid(1, &[(0, 1000.0)], f64::INFINITY, &mut stats));
        assert_eq!(stats.tries, 0);
    }

    #[test]
    fn multiple_pivots_any_can_fire() {
        let qs = vec![v(0.0), v(50.0), v(51.0)];
        let m = matrix(&qs);
        // O = 0.5: pivot Q0 is useless for Q2 with small range? dist(O,Q0)=0.5,
        // dist(Q2,Q0)=51 ≥ 0.5 + 5 → lemma 2 via pivot 0.
        let mut stats = AvoidanceStats::default();
        assert!(m.try_avoid(2, &[(0, 0.5)], 5.0, &mut stats));
        // Also via pivot 1: dist(O,Q1)=49.5, dist(Q2,Q1)=1: lemma1 needs
        // 49.5 ≥ 1 + 5 → fires too.
        let mut stats2 = AvoidanceStats::default();
        assert!(m.try_avoid(2, &[(1, 49.5)], 5.0, &mut stats2));
    }

    #[test]
    fn stats_arithmetic() {
        let a = AvoidanceStats {
            tries: 10,
            avoided: 4,
            computed: 6,
            reused: 3,
        };
        let b = AvoidanceStats {
            tries: 2,
            avoided: 1,
            computed: 1,
            reused: 1,
        };
        let s = a + b;
        assert_eq!(s.tries, 12);
        assert_eq!(s.avoided, 5);
        assert_eq!(s.computed, 7);
        assert_eq!(s.reused, 4);
        assert!((a.avoidance_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(AvoidanceStats::default().avoidance_ratio(), 0.0);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, s);
    }

    /// Property: avoidance conclusions are always sound on random data.
    #[test]
    fn avoidance_is_sound_on_random_configurations() {
        let mut x: u64 = 0xDEADBEEF;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
        };
        for _ in 0..500 {
            let qs = vec![v(next()), v(next()), v(next())];
            let m = matrix(&qs);
            let o = v(next());
            let query_dist = next().abs() * 0.3;
            let known: Vec<(usize, f64)> = (0..2)
                .map(|j| (j, Euclidean.distance(&o, &qs[j])))
                .collect();
            let mut stats = AvoidanceStats::default();
            if m.try_avoid(2, &known, query_dist, &mut stats) {
                let true_dist = Euclidean.distance(&o, &qs[2]);
                assert!(
                    true_dist >= query_dist,
                    "false avoidance: dist {true_dist} < query_dist {query_dist}"
                );
            }
        }
    }
}
