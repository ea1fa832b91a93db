//! DBSCAN — density-based clustering (Ester, Kriegel, Sander, Xu — KDD'96;
//! paper ref. \[7\]).
//!
//! DBSCAN is the paper's flagship instance of iterative neighborhood
//! exploration: it grows clusters by repeatedly issuing `ε`-range queries
//! for objects returned by previous range queries. A *core object* has at
//! least `min_pts` neighbors (including itself); clusters are the
//! density-connected components of core objects plus their border objects;
//! everything else is noise.
//!
//! Both execution modes produce the **same clustering** (cluster ids are
//! assigned in discovery order, which both modes share). Each cluster is
//! grown by one run of an `ExploreNeighborhoods` driver from its start
//! object; `filter` labels the answers and passes the unclassified ones on
//! as seeds:
//!
//! * [`Dbscan::run_single`] — the single-query driver
//!   ([`explore_neighborhoods`], Fig. 2);
//! * [`Dbscan::run_multiple`] — the multiple-query driver
//!   ([`explore_neighborhoods_multiple`], Fig. 3): the seed list is admitted
//!   into one session per start object, sharing page reads and
//!   triangle-inequality pivots across the cluster frontier.

use crate::explore::{explore_neighborhoods, explore_neighborhoods_multiple, NeighborhoodTask};
use mq_core::{Answer, QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;

/// Cluster assignment of one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core object.
    Noise,
    /// Member of the cluster with the given id (0-based, discovery order).
    Cluster(u32),
}

/// The result of a DBSCAN run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbscanResult {
    /// Per-object labels, indexed by object id.
    pub labels: Vec<Label>,
    /// Number of clusters found.
    pub clusters: u32,
    /// Number of range queries issued.
    pub queries: usize,
}

impl DbscanResult {
    /// Number of noise objects.
    pub fn noise_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, Label::Noise))
            .count()
    }
}

/// DBSCAN parameters.
///
/// ```
/// use mq_core::QueryEngine;
/// use mq_index::LinearScan;
/// use mq_metric::{Euclidean, Vector};
/// use mq_mining::Dbscan;
/// use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
///
/// // Two blobs and one outlier.
/// let mut pts: Vec<Vector> = (0..10).map(|i| Vector::new(vec![i as f32 * 0.1])).collect();
/// pts.extend((0..10).map(|i| Vector::new(vec![100.0 + i as f32 * 0.1])));
/// pts.push(Vector::new(vec![50.0]));
/// let ds = Dataset::new(pts);
/// let db = PagedDatabase::pack(&ds, Default::default());
/// let scan = LinearScan::new(db.page_count());
/// let disk = SimulatedDisk::new(db, 0.10);
/// let engine = QueryEngine::new(&disk, &scan, Euclidean);
///
/// let result = Dbscan::new(0.15, 3).run_multiple(&engine, 8);
/// assert_eq!(result.clusters, 2);
/// assert_eq!(result.noise_count(), 1);
/// // Multiple-query execution returns the same labels as single queries.
/// assert_eq!(result.labels, Dbscan::new(0.15, 3).run_single(&engine).labels);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Dbscan {
    /// Neighborhood radius (`Eps`).
    pub eps: f64,
    /// Density threshold (`MinPts`), counting the object itself.
    pub min_pts: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(u32),
}

impl Dbscan {
    /// Creates the parameter set.
    ///
    /// # Panics
    /// Panics if `eps` is negative or `min_pts` is zero.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(eps >= 0.0, "eps must be non-negative");
        assert!(min_pts >= 1, "min_pts must be positive");
        Self { eps, min_pts }
    }

    /// Runs DBSCAN with single similarity queries.
    pub fn run_single<O, M>(&self, engine: &QueryEngine<'_, O, M>) -> DbscanResult
    where
        O: StorageObject,
        M: Metric<O>,
    {
        self.run_impl(engine, None)
    }

    /// Runs DBSCAN with multiple similarity queries: the expansion seed
    /// list is kept admitted (up to `batch_size` lookahead) in one session
    /// per start object.
    pub fn run_multiple<O, M>(
        &self,
        engine: &QueryEngine<'_, O, M>,
        batch_size: usize,
    ) -> DbscanResult
    where
        O: StorageObject,
        M: Metric<O>,
    {
        assert!(batch_size > 0, "batch size must be positive");
        self.run_impl(engine, Some(batch_size))
    }

    fn run_impl<O, M>(&self, engine: &QueryEngine<'_, O, M>, batch: Option<usize>) -> DbscanResult
    where
        O: StorageObject,
        M: Metric<O>,
    {
        let n = engine.disk().database().object_count();
        let mut task = Expansion {
            qtype: QueryType::range(self.eps),
            min_pts: self.min_pts,
            state: vec![State::Unclassified; n],
            clusters: 0,
            cluster: None,
        };
        let mut queries = 0usize;
        for start in (0..n as u32).map(ObjectId) {
            if task.state[start.index()] != State::Unclassified {
                continue;
            }
            task.cluster = None;
            queries += match batch {
                None => explore_neighborhoods(engine, &[start], &mut task),
                Some(m) => {
                    explore_neighborhoods_multiple(engine, &[start], &mut task, m, usize::MAX)
                }
            };
        }

        let labels = task
            .state
            .into_iter()
            .map(|s| match s {
                State::Noise => Label::Noise,
                State::Cluster(c) => Label::Cluster(c),
                State::Unclassified => unreachable!("every object is classified"),
            })
            .collect();
        DbscanResult {
            labels,
            clusters: task.clusters,
            queries,
        }
    }
}

/// One start object's expansion as an `ExploreNeighborhoods` task: the
/// head is the start object while `cluster` is `None`, a seed of the open
/// cluster afterwards.
struct Expansion {
    qtype: QueryType,
    min_pts: usize,
    state: Vec<State>,
    clusters: u32,
    cluster: Option<u32>,
}

impl NeighborhoodTask for Expansion {
    fn sim_type(&mut self, _object: ObjectId) -> QueryType {
        self.qtype
    }

    fn proc_2(&mut self, _object: ObjectId, _answers: &[Answer]) {}

    fn filter(&mut self, object: ObjectId, answers: &[Answer]) -> Vec<ObjectId> {
        if answers.len() < self.min_pts {
            // A start object is noise (until a cluster adopts it); a seed is
            // a border object and expands no further.
            if self.cluster.is_none() {
                self.state[object.index()] = State::Noise;
            }
            return Vec::new();
        }
        let cluster = *self.cluster.get_or_insert_with(|| {
            self.clusters += 1;
            self.clusters - 1
        });
        self.state[object.index()] = State::Cluster(cluster);
        let mut seeds = Vec::new();
        for a in answers {
            match self.state[a.id.index()] {
                State::Unclassified => seeds.push(a.id),
                State::Noise => {} // border object adopted by the cluster
                State::Cluster(_) => continue,
            }
            self.state[a.id.index()] = State::Cluster(cluster);
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    /// Two dense blobs plus two isolated points.
    fn blobs() -> Dataset<Vector> {
        let mut pts = Vec::new();
        for i in 0..12 {
            pts.push(Vector::new(vec![
                (i % 4) as f32 * 0.5,
                (i / 4) as f32 * 0.5,
            ]));
        }
        for i in 0..12 {
            pts.push(Vector::new(vec![
                100.0 + (i % 4) as f32 * 0.5,
                (i / 4) as f32 * 0.5,
            ]));
        }
        pts.push(Vector::new(vec![50.0, 50.0]));
        pts.push(Vector::new(vec![-50.0, 50.0]));
        Dataset::new(pts)
    }

    fn engine_parts(ds: &Dataset<Vector>) -> (PagedDatabase<Vector>, usize) {
        let db = PagedDatabase::pack(ds, PageLayout::new(128, 16));
        let pages = db.page_count();
        (db, pages)
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let ds = blobs();
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = Dbscan::new(0.8, 3).run_single(&engine);
        assert_eq!(result.clusters, 2);
        assert_eq!(result.noise_count(), 2);
        // All of blob 1 in one cluster, all of blob 2 in the other.
        let c0 = result.labels[0];
        assert!((0..12).all(|i| result.labels[i] == c0));
        let c1 = result.labels[12];
        assert!((12..24).all(|i| result.labels[i] == c1));
        assert_ne!(c0, c1);
        assert_eq!(result.labels[24], Label::Noise);
        assert_eq!(result.labels[25], Label::Noise);
    }

    #[test]
    fn multiple_mode_produces_identical_clustering() {
        let ds = blobs();
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let single = Dbscan::new(0.8, 3).run_single(&engine);
        for batch in [1, 4, 16] {
            let multi = Dbscan::new(0.8, 3).run_multiple(&engine, batch);
            assert_eq!(multi.labels, single.labels, "batch {batch}");
            assert_eq!(multi.clusters, single.clusters);
            assert_eq!(
                multi.queries, single.queries,
                "same number of range queries"
            );
        }
    }

    #[test]
    fn multiple_mode_reads_fewer_pages() {
        let ds = blobs();
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        disk.reset_stats();
        let _ = Dbscan::new(0.8, 3).run_single(&engine);
        let single_io = disk.stats().logical_reads;

        disk.reset_stats();
        let _ = Dbscan::new(0.8, 3).run_multiple(&engine, 16);
        let multi_io = disk.stats().logical_reads;

        assert!(
            multi_io < single_io,
            "multiple-query DBSCAN should read fewer pages: {multi_io} vs {single_io}"
        );
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let ds = blobs();
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = Dbscan::new(0.8, 100).run_single(&engine);
        assert_eq!(result.clusters, 0);
        assert_eq!(result.noise_count(), ds.len());
    }

    #[test]
    fn one_cluster_when_eps_huge() {
        let ds = blobs();
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = Dbscan::new(1000.0, 3).run_single(&engine);
        assert_eq!(result.clusters, 1);
        assert_eq!(result.noise_count(), 0);
    }

    #[test]
    fn border_object_between_dense_regions() {
        // A bridge point within eps of a cluster but not core itself.
        let mut pts: Vec<Vector> = (0..6)
            .map(|i| Vector::new(vec![i as f32 * 0.4, 0.0]))
            .collect();
        pts.push(Vector::new(vec![2.4, 0.0])); // border: within eps of the chain end only
        let ds = Dataset::new(pts);
        let (db, pages) = engine_parts(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let result = Dbscan::new(0.5, 3).run_single(&engine);
        assert_eq!(result.clusters, 1);
        assert_eq!(
            result.labels[6],
            Label::Cluster(0),
            "border object joins the cluster"
        );
    }

    #[test]
    #[should_panic(expected = "min_pts must be positive")]
    fn zero_min_pts_rejected() {
        let _ = Dbscan::new(1.0, 0);
    }
}
