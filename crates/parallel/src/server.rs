//! One shared-nothing server: a partition of the data behind its own disk,
//! buffer and index.

use mq_index::SimilarityIndex;
use mq_metric::{CountingMetric, DistanceCounter, Metric, ObjectId};
use mq_storage::{Dataset, PageStore, PagedDatabase, SimulatedDisk, StorageObject};

/// A server of the shared-nothing cluster.
///
/// Objects get *local* dense ids on the server; [`Server::global_id`] maps
/// local answers back to the global id space when merging.
pub struct Server<O, M> {
    disk: Box<dyn PageStore<O>>,
    index: Box<dyn SimilarityIndex<O>>,
    metric: CountingMetric<M>,
    global_ids: Vec<ObjectId>,
}

impl<O: StorageObject, M: Metric<O>> Server<O, M> {
    /// Builds a server for its partition's `objects`, the object with
    /// local id `j` having global id `global_ids[j]`, using `build_index`
    /// to construct its local access method and database layout, with a
    /// local LRU buffer of `buffer_fraction` of its pages. The server's
    /// distance calculations are counted on a private counter.
    ///
    /// # Panics
    /// Panics if `objects` and `global_ids` differ in length.
    pub fn build<F>(
        objects: Vec<O>,
        global_ids: Vec<ObjectId>,
        metric: M,
        buffer_fraction: f64,
        build_index: F,
    ) -> Self
    where
        F: FnOnce(&Dataset<O>) -> (Box<dyn SimilarityIndex<O>>, PagedDatabase<O>),
    {
        assert_eq!(
            objects.len(),
            global_ids.len(),
            "every local id needs a global mapping"
        );
        let (index, db) = build_index(&Dataset::new(objects));
        let disk = SimulatedDisk::new(db, buffer_fraction);
        Self {
            disk: Box::new(disk),
            index,
            metric: CountingMetric::new(metric),
            global_ids,
        }
    }

    /// Assembles a server from an already-built page store (any backend),
    /// access method, and local→global id map. This is how a durable
    /// (`mq-store`) partition joins the cluster: the caller opens or
    /// creates the per-partition store and hands it over boxed.
    pub fn from_parts(
        disk: Box<dyn PageStore<O>>,
        index: Box<dyn SimilarityIndex<O>>,
        metric: M,
        global_ids: Vec<ObjectId>,
    ) -> Self {
        assert_eq!(
            disk.database().object_count(),
            global_ids.len(),
            "every local id needs a global mapping"
        );
        Self {
            disk,
            index,
            metric: CountingMetric::new(metric),
            global_ids,
        }
    }

    /// The server's page store.
    pub fn disk(&self) -> &dyn PageStore<O> {
        &*self.disk
    }

    /// The server's access method.
    pub fn index(&self) -> &dyn SimilarityIndex<O> {
        &*self.index
    }

    /// The server's counted metric (shared counter).
    pub fn metric(&self) -> &CountingMetric<M>
    where
        M: Clone,
    {
        &self.metric
    }

    /// The server's distance counter.
    pub fn counter(&self) -> &DistanceCounter {
        self.metric.counter()
    }

    /// Number of objects on this server.
    pub fn object_count(&self) -> usize {
        self.global_ids.len()
    }

    /// Maps a local object id back to the global id space.
    pub fn global_id(&self, local: ObjectId) -> ObjectId {
        self.global_ids[local.index()]
    }
}
