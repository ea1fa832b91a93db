//! Property-based test of the paper's central algorithmic claim (§3.3):
//! *"the algorithmic scheme ExploreNeighborhoodsMultiple performs exactly
//! the same task as the original ExploreNeighborhoods scheme"* — for
//! arbitrary data, radii, start objects and batch sizes.

use mquery::mining::{
    explore_neighborhoods, explore_neighborhoods_multiple, Dbscan, Label, NeighborhoodTask,
};
use mquery::prelude::*;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Records every observable interaction of the scheme with the task.
#[derive(Default)]
struct Recorder {
    eps: f64,
    max_steps: usize,
    log: Vec<(ObjectId, Vec<ObjectId>)>,
}

impl NeighborhoodTask for Recorder {
    fn should_continue(&mut self, control: &VecDeque<ObjectId>, steps: usize) -> bool {
        !control.is_empty() && steps < self.max_steps
    }

    fn sim_type(&mut self, _object: ObjectId) -> QueryType {
        QueryType::range(self.eps)
    }

    fn proc_2(&mut self, object: ObjectId, answers: &[mquery::core::Answer]) {
        self.log
            .push((object, answers.iter().map(|a| a.id).collect()));
    }

    fn filter(&mut self, _object: ObjectId, answers: &[mquery::core::Answer]) -> Vec<ObjectId> {
        answers.iter().map(|a| a.id).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multiple_scheme_observes_identical_behaviour(
        data in prop::collection::vec(
            prop::collection::vec(-30.0f32..30.0, 2).prop_map(Vector::new),
            4..80,
        ),
        eps in 0.5f64..25.0,
        start in 0usize..1000,
        batch in 1usize..12,
        max_session in 12usize..48,
    ) {
        let ds = Dataset::new(data.clone());
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let start = ObjectId((start % data.len()) as u32);

        let mut single = Recorder { eps, max_steps: 40, ..Default::default() };
        let s1 = explore_neighborhoods(&engine, &[start], &mut single);

        let mut multi = Recorder { eps, max_steps: 40, ..Default::default() };
        let s2 = explore_neighborhoods_multiple(
            &engine, &[start], &mut multi, batch, max_session.max(batch),
        );

        prop_assert_eq!(s1, s2, "step counts differ");
        prop_assert_eq!(single.log, multi.log, "observation sequences differ");
    }

    /// DBSCAN on the Fig. 3 driver admits the control list's first `batch`
    /// objects before every head, so the admitted window slides whenever a
    /// cluster's frontier is longer than the batch. Dense blobs make
    /// clusters larger than the batch; the clustering and the query count
    /// must still be the single-query driver's.
    #[test]
    fn dbscan_is_driver_independent_when_the_window_slides(
        blobs in prop::collection::vec(
            (
                (-60.0f32..60.0, -60.0f32..60.0),
                prop::collection::vec((0.0f32..4.0, 0.0f32..4.0), 20..50),
            ),
            1..4,
        ),
        noise in prop::collection::vec((-80.0f32..80.0, -80.0f32..80.0), 0..12),
        eps in 0.8f64..2.0,
        min_pts in 2usize..5,
        batch in 0usize..4,
    ) {
        let mut data = Vec::new();
        for ((cx, cy), offsets) in &blobs {
            data.extend(offsets.iter().map(|(dx, dy)| Vector::new(vec![cx + dx, cy + dy])));
        }
        data.extend(noise.iter().map(|&(x, y)| Vector::new(vec![x, y])));
        let ds = Dataset::new(data);
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        let batch = [1, 2, 3, 8][batch];
        let dbscan = Dbscan::new(eps, min_pts);
        let single = dbscan.run_single(&engine);
        let multi = dbscan.run_multiple(&engine, batch);
        let largest = (0..single.clusters)
            .map(|c| single.labels.iter().filter(|&&l| l == Label::Cluster(c)).count())
            .max()
            .unwrap_or(0);
        prop_assert!(largest > batch, "largest cluster {} within batch {}", largest, batch);
        prop_assert_eq!(multi.labels, single.labels);
        prop_assert_eq!(multi.clusters, single.clusters);
        prop_assert_eq!(multi.queries, single.queries);
    }
}
