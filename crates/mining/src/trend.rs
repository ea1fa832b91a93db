//! Spatial trend detection (Ester, Frommelt, Kriegel, Sander — KDD'98;
//! paper ref. \[6\]).
//!
//! A *spatial trend* is a regular change of a non-spatial attribute when
//! moving away from a start object. Neighborhood paths model the movement:
//! starting from `o`, repeatedly step to a not-yet-visited neighbor; along
//! the path, regress the attribute value against the distance from `o`. In
//! the `ExploreNeighborhoods` scheme, the loop is additionally controlled
//! by the path length, and `proc_1`/`proc_2` feed the regression.

use mq_core::{QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;
use std::collections::HashSet;

/// Simple linear regression result for one neighborhood path.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendResult {
    /// Slope of `attribute ~ distance-from-start`.
    pub slope: f64,
    /// Intercept of the regression line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Objects on the path (including the start object).
    pub path: Vec<ObjectId>,
}

impl TrendResult {
    /// Whether the path shows a trend at the given strength: `|slope|` at
    /// least `min_slope` and fit at least `min_r2`.
    pub fn is_trend(&self, min_slope: f64, min_r2: f64) -> bool {
        self.slope.abs() >= min_slope && self.r_squared >= min_r2
    }
}

/// Ordinary least squares of `y ~ x`; `r_squared` is 0 for degenerate data.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "regression input length mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return (0.0, ys.first().copied().unwrap_or(0.0), 0.0);
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if sxx <= f64::EPSILON || syy <= f64::EPSILON {
        return (0.0, my, 0.0);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, intercept, r2)
}

/// Follows one neighborhood path of at most `max_steps` steps from
/// `start`, always moving to the nearest unvisited neighbor (k-NN query
/// with k = `lookahead`), and regresses `attribute(object)` on the metric
/// distance from the start object.
///
/// Queries along a path are *dependent* (each step's query object is an
/// answer of the previous step), so paths are evaluated through one
/// multiple-query session.
pub fn detect_trend<O, M, F>(
    engine: &QueryEngine<'_, O, M>,
    start: ObjectId,
    attribute: F,
    max_steps: usize,
    lookahead: usize,
) -> TrendResult
where
    O: StorageObject,
    M: Metric<O>,
    F: Fn(ObjectId) -> f64,
{
    assert!(lookahead > 0, "need at least one neighbor to step to");
    let qtype = QueryType::knn(lookahead + 1); // +1: self-match
    let start_obj = engine.disk().database().object(start).clone();
    let metric_dist = |id: ObjectId| {
        engine
            .metric()
            .distance(engine.disk().database().object(id), &start_obj)
    };

    let mut session = engine.new_session(Vec::new());
    let mut visited: HashSet<ObjectId> = HashSet::new();
    let mut path = vec![start];
    visited.insert(start);
    let mut xs = vec![0.0];
    let mut ys = vec![attribute(start)];

    let mut current = start;
    for _ in 0..max_steps {
        let idx = engine.push_stored_query(&mut session, current, qtype);
        engine.complete_query(&mut session, idx);
        let next = session
            .answers(idx)
            .as_slice()
            .iter()
            .map(|a| a.id)
            .find(|id| !visited.contains(id));
        let Some(next) = next else { break };
        visited.insert(next);
        path.push(next);
        xs.push(metric_dist(next));
        ys.push(attribute(next));
        current = next;
    }

    let (slope, intercept, r_squared) = linear_regression(&xs, &ys);
    TrendResult {
        slope,
        intercept,
        r_squared,
        path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    #[test]
    fn regression_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let (slope, intercept, r2) = linear_regression(&xs, &ys);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_degenerate_inputs() {
        assert_eq!(linear_regression(&[], &[]), (0.0, 0.0, 0.0));
        assert_eq!(linear_regression(&[1.0], &[5.0]), (0.0, 5.0, 0.0));
        // Constant y: slope 0, r² 0.
        let (s, _, r2) = linear_regression(&[0.0, 1.0, 2.0], &[4.0, 4.0, 4.0]);
        assert_eq!((s, r2), (0.0, 0.0));
    }

    /// A line of cities whose "price" attribute falls with distance.
    fn city_line() -> (Dataset<Vector>, Vec<f64>) {
        let pts: Vec<Vector> = (0..15).map(|i| Vector::new(vec![i as f32])).collect();
        let price: Vec<f64> = (0..15).map(|i| 100.0 - 6.0 * i as f64).collect();
        (Dataset::new(pts), price)
    }

    #[test]
    fn detects_negative_price_trend() {
        let (ds, price) = city_line();
        let db = PagedDatabase::pack(&ds, PageLayout::new(64, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = detect_trend(&engine, ObjectId(0), |id| price[id.index()], 8, 3);
        assert!(result.path.len() >= 5, "path too short: {:?}", result.path);
        assert!(
            result.is_trend(3.0, 0.9),
            "slope {} r2 {}",
            result.slope,
            result.r_squared
        );
        assert!(result.slope < 0.0);
    }

    #[test]
    fn no_trend_in_constant_attribute() {
        let (ds, _) = city_line();
        let db = PagedDatabase::pack(&ds, PageLayout::new(64, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = detect_trend(&engine, ObjectId(3), |_| 7.0, 8, 3);
        assert!(!result.is_trend(0.1, 0.5));
        assert_eq!(result.slope, 0.0);
    }

    #[test]
    fn path_never_revisits() {
        let (ds, price) = city_line();
        let db = PagedDatabase::pack(&ds, PageLayout::new(64, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = detect_trend(&engine, ObjectId(7), |id| price[id.index()], 14, 2);
        let mut seen = result.path.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), result.path.len(), "path revisited an object");
    }
}
