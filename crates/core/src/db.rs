//! A self-contained metric database: storage, access method, metric and
//! engine configuration in one owned value.
//!
//! [`QueryEngine`] borrows its disk and index, which is the right shape for
//! benchmarks that probe each component — but applications usually want one
//! value to own everything. [`MetricDatabase`] is that facade: it owns the
//! simulated disk and the access method behind `Arc`s and mints engines on
//! demand.
//!
//! ```
//! use mq_core::{db::MetricDatabase, QueryType};
//! use mq_index::{XTree, XTreeConfig};
//! use mq_metric::{Euclidean, ObjectId, Vector};
//! use mq_storage::Dataset;
//!
//! let ds = Dataset::new((0..300).map(|i| Vector::new(vec![i as f32, 0.0])).collect());
//! let (tree, pages) = XTree::bulk_load(&ds, XTreeConfig::default());
//! let db = MetricDatabase::new(pages, tree, Euclidean, 0.10);
//!
//! let answers = db.query(db.object(ObjectId(42)), &QueryType::knn(3));
//! assert_eq!(answers.len(), 3);
//!
//! let batch = vec![
//!     (db.object(ObjectId(1)).clone(), QueryType::knn(2)),
//!     (db.object(ObjectId(250)).clone(), QueryType::range(1.5)),
//! ];
//! let all = db.multiple_query(batch);
//! assert_eq!(all.len(), 2);
//! assert!(db.stats().dist_calcs > 0);
//! ```

use crate::answers::{Answer, AnswerList};
use crate::engine::{EngineOptions, QueryEngine};
use crate::multiple::MultiQuerySession;
use crate::query::QueryType;
use crate::stats::ExecutionStats;
use mq_index::SimilarityIndex;
use mq_metric::{CountingMetric, Metric, ObjectId};
use mq_storage::{PagedDatabase, SimulatedDisk, StorageObject};
use std::sync::Arc;

/// An owned metric database: disk + access method + counted metric.
pub struct MetricDatabase<O, M> {
    disk: Arc<SimulatedDisk<O>>,
    index: Arc<dyn SimilarityIndex<O>>,
    metric: CountingMetric<M>,
    avoidance: bool,
}

impl<O: StorageObject, M: Metric<O> + Clone> MetricDatabase<O, M> {
    /// Wraps a page layout (from `PagedDatabase::pack` or an index build)
    /// and an access method; `buffer_fraction` sizes the LRU buffer (the
    /// paper uses 0.10).
    pub fn new(
        pages: PagedDatabase<O>,
        index: impl SimilarityIndex<O> + 'static,
        metric: M,
        buffer_fraction: f64,
    ) -> Self {
        Self {
            disk: Arc::new(SimulatedDisk::new(pages, buffer_fraction)),
            index: Arc::new(index),
            metric: CountingMetric::new(metric),
            avoidance: true,
        }
    }

    /// Disables §5.2 triangle-inequality avoidance.
    pub fn without_avoidance(mut self) -> Self {
        self.avoidance = false;
        self
    }

    /// A fresh engine over this database's components.
    pub fn engine(&self) -> QueryEngine<'_, O, CountingMetric<M>> {
        QueryEngine::new(&*self.disk, &*self.index, self.metric.clone()).with_options(
            EngineOptions {
                avoidance: self.avoidance,
                ..Default::default()
            },
        )
    }

    /// One similarity query (Fig. 1).
    pub fn query(&self, object: &O, qtype: &QueryType) -> AnswerList {
        self.engine().similarity_query(object, qtype)
    }

    /// One complete multiple similarity query (Fig. 4, run to completion).
    pub fn multiple_query(&self, queries: Vec<(O, QueryType)>) -> Vec<Vec<Answer>> {
        self.engine().multiple_similarity_query(queries)
    }

    /// Opens an incremental session (Definition 4).
    pub fn session(&self, queries: Vec<(O, QueryType)>) -> MultiQuerySession<O> {
        self.engine().new_session(queries)
    }

    /// An object by id (un-metered bookkeeping access).
    pub fn object(&self, id: ObjectId) -> &O {
        self.disk.database().object(id)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.disk.database().object_count()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying simulated disk (for I/O inspection).
    pub fn disk(&self) -> &SimulatedDisk<O> {
        &self.disk
    }

    /// The access method.
    pub fn index(&self) -> &dyn SimilarityIndex<O> {
        &*self.index
    }

    /// Cumulative execution statistics since the last
    /// [`reset_stats`](Self::reset_stats) (I/O counters plus distance
    /// calculations; avoidance counters live on sessions).
    pub fn stats(&self) -> ExecutionStats {
        ExecutionStats {
            io: self.disk.stats(),
            dist_calcs: self.metric.counter().get(),
            avoidance: Default::default(),
            elapsed: Default::default(),
        }
    }

    /// Resets the I/O and distance counters and empties the buffer.
    pub fn reset_stats(&self) {
        self.disk.cold_restart();
        self.metric.counter().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout};

    fn make() -> MetricDatabase<Vector, Euclidean> {
        let ds = Dataset::new((0..200).map(|i| Vector::new(vec![i as f32])).collect());
        let pages = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(pages.page_count());
        MetricDatabase::new(pages, scan, Euclidean, 0.1)
    }

    #[test]
    fn facade_queries_work() {
        let db = make();
        assert_eq!(db.len(), 200);
        assert!(!db.is_empty());
        let answers = db.query(&Vector::new(vec![50.2]), &QueryType::knn(2));
        let ids: Vec<u32> = answers.ids().map(|i| i.0).collect();
        assert_eq!(ids, vec![50, 51]);
        assert!(db.stats().dist_calcs >= 200);
        db.reset_stats();
        assert_eq!(db.stats().dist_calcs, 0);
    }

    #[test]
    fn facade_sessions_and_options() {
        let db = make();
        let mut session = db.session(vec![
            (Vector::new(vec![10.0]), QueryType::range(2.0)),
            (Vector::new(vec![12.0]), QueryType::range(2.0)),
        ]);
        let engine = db.engine();
        engine.run_to_completion(&mut session);
        assert!(session.is_complete(0) && session.is_complete(1));
        assert_eq!(session.answers(0).len(), 5); // 8..=12

        let db2 = make().without_avoidance();
        let answers = db2.multiple_query(vec![
            (Vector::new(vec![10.0]), QueryType::range(2.0)),
            (Vector::new(vec![12.0]), QueryType::range(2.0)),
        ]);
        assert_eq!(answers[0].len(), 5);
    }
}
