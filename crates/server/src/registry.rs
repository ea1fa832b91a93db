//! Named collections: one server, many datasets.
//!
//! A [`Collection`] owns everything one dataset needs to serve queries —
//! its dimensionality, metric, index, engine backend and (for durable
//! collections) its store directories — plus its *own* [`BatchScheduler`],
//! so batching never mixes queries against different datasets: the
//! paper's page-read sharing only helps queries that read the *same*
//! pages. The [`CollectionRegistry`] maps wire names to collections and
//! implements the `CreateCollection` / `DropCollection` /
//! `ListCollections` opcodes.
//!
//! All collections share one [`Recorder`]. The scheduler's unlabeled
//! instruments (`mq_server_queries_total`, …) are get-or-fetch in
//! mq-obs, so every collection's scheduler feeds the same aggregate
//! series — the loadgen report's server window keeps meaning "the whole
//! server". Per-collection traffic is visible separately through the
//! labeled `mq_front_collection_queries_total{collection=…}` counter.

use crate::backend::{build_backend_with_recorder, QueryBackend};
use crate::config::{ServerConfig, StoreChoice};
use crate::protocol::{refusal, CollectionInfo, ServiceMetrics, DEFAULT_COLLECTION};
use crate::scheduler::BatchScheduler;
use mq_core::{Answer, ExecutionStats, QueryType};
use mq_index::LinearScan;
use mq_metric::{Metric, Vector, VectorMetric};
use mq_obs::{Counter, Recorder};
use mq_storage::{PagedDatabase, VectorCodec};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A backend with no objects: every query answers with an empty list.
/// Wire-created collections start here until they are created from a
/// source file (the engine stack needs at least one page, so an actually
/// empty `PagedDatabase` cannot be packed).
struct EmptyBackend {
    dims: usize,
}

impl QueryBackend for EmptyBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        (vec![Vec::new(); queries.len()], ExecutionStats::default())
    }

    fn dimensions(&self) -> usize {
        self.dims
    }

    fn describe(&self) -> String {
        format!("empty collection ({} dims)", self.dims)
    }
}

/// One named dataset being served: scheduler, static description, and the
/// store directories to checkpoint at drain time (durable collections).
pub struct Collection {
    name: String,
    scheduler: BatchScheduler,
    metric: &'static str,
    objects: u64,
    store_dirs: Vec<PathBuf>,
    /// Labeled per-collection admitted-query counter (None with a
    /// disabled recorder).
    queries: Option<Arc<Counter>>,
}

impl Collection {
    fn start(
        name: &str,
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> Self {
        let objects = backend.object_count();
        let store_dirs = backend.store_dirs();
        let queries = recorder.counter(
            "mq_front_collection_queries_total",
            "Queries admitted and scheduled, per collection.",
            &[("collection", name)],
        );
        Self {
            name: name.to_string(),
            scheduler: BatchScheduler::start_with_recorder(backend, config, recorder),
            metric: metric_static_name(config.metric),
            objects,
            store_dirs,
            queries,
        }
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The collection's scheduler — queries are submitted here.
    pub fn scheduler(&self) -> &BatchScheduler {
        &self.scheduler
    }

    /// Dimensionality queries must match (0 = unknown/empty).
    pub fn dimensions(&self) -> usize {
        self.scheduler.dimensions()
    }

    /// Counts one admitted query on the per-collection series.
    pub fn count_admitted(&self) {
        if let Some(c) = &self.queries {
            c.inc();
        }
    }

    /// The wire description of this collection.
    pub fn info(&self) -> CollectionInfo {
        CollectionInfo {
            name: self.name.clone(),
            dim: self.dimensions() as u32,
            metric: self.metric.to_string(),
            objects: self.objects,
            in_flight: self.scheduler.in_flight(),
        }
    }
}

fn metric_static_name(metric: VectorMetric) -> &'static str {
    match metric {
        VectorMetric::Euclidean => "euclidean",
        VectorMetric::Manhattan => "manhattan",
        VectorMetric::Cosine => "cosine",
        VectorMetric::Dot => "dot",
    }
}

/// Collection names are path components (file-backed collections live
/// under `<root>/collections/<name>`), so the accepted alphabet is
/// deliberately narrow.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("collection name must not be empty".into());
    }
    if name.len() > 64 {
        return Err(format!("collection name longer than 64 bytes: {name:?}"));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err(format!(
            "collection name {name:?} has characters outside [A-Za-z0-9._-]"
        ));
    }
    if name.bytes().all(|b| b == b'.') {
        return Err(format!("collection name {name:?} is a path component"));
    }
    Ok(())
}

/// The server's named collections, keyed by wire name. The empty wire
/// name resolves to [`DEFAULT_COLLECTION`].
pub struct CollectionRegistry {
    collections: RwLock<HashMap<String, Arc<Collection>>>,
    /// Template config for wire-created collections (batching knobs,
    /// store root); metric/approx are overridden per collection.
    template: ServerConfig,
    recorder: Recorder,
}

impl CollectionRegistry {
    /// Builds a registry serving `default_backend` as the
    /// [`DEFAULT_COLLECTION`].
    pub fn new(
        default_backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> Self {
        let default = Collection::start(DEFAULT_COLLECTION, default_backend, config, recorder);
        let mut collections = HashMap::new();
        collections.insert(DEFAULT_COLLECTION.to_string(), Arc::new(default));
        Self {
            collections: RwLock::new(collections),
            template: config.clone(),
            recorder: recorder.clone(),
        }
    }

    /// Resolves a wire collection name ("" = the default collection).
    pub fn get(&self, name: &str) -> Option<Arc<Collection>> {
        let name = if name.is_empty() {
            DEFAULT_COLLECTION
        } else {
            name
        };
        self.collections.read().get(name).cloned()
    }

    /// Installs an already-built backend as a named collection — the
    /// in-process path tests use to stand up multi-metric servers without
    /// files. Same refusals as the wire path for name clashes.
    pub fn install(
        &self,
        name: &str,
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
    ) -> Result<(), (u16, String)> {
        validate_name(name).map_err(|detail| (refusal::BAD_COLLECTION_SPEC, detail))?;
        let collection = Arc::new(Collection::start(name, backend, config, &self.recorder));
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err((
                refusal::COLLECTION_EXISTS,
                format!("collection {name:?} already exists"),
            ));
        }
        map.insert(name.to_string(), collection);
        Ok(())
    }

    /// Creates a collection from a wire `CreateCollection` request:
    /// either empty with a declared dimensionality (`source == ""`), or
    /// loaded read-only from a server-side database directory (see
    /// [`mq_store::load`]). File-backed servers give the new collection
    /// its own durable store under `<root>/collections/<name>`.
    ///
    /// # Errors
    /// A `(refusal code, detail)` pair, ready to send as `Refused`.
    pub fn create(
        &self,
        name: &str,
        dim: u32,
        metric: &str,
        source: &str,
    ) -> Result<String, (u16, String)> {
        validate_name(name).map_err(|detail| (refusal::BAD_COLLECTION_SPEC, detail))?;
        if self.collections.read().contains_key(name) {
            return Err((
                refusal::COLLECTION_EXISTS,
                format!("collection {name:?} already exists"),
            ));
        }
        if self.template.servers > 1 {
            // A wire-created collection would need its own declustering
            // and per-partition stores; refuse rather than half-support.
            return Err((
                refusal::UNSUPPORTED,
                "collection management is not supported with more than one server".into(),
            ));
        }
        let metric = if metric.is_empty() {
            VectorMetric::default()
        } else {
            VectorMetric::parse(metric).ok_or_else(|| {
                (
                    refusal::BAD_COLLECTION_SPEC,
                    format!(
                        "unknown metric {metric:?} (expected one of {})",
                        VectorMetric::NAMES.join(", ")
                    ),
                )
            })?
        };
        // Wire-created collections always serve exact answers through a
        // scan; an approx tier stays a boot-time choice of the default
        // collection.
        let mut config = self.template.clone();
        config.metric = metric;
        config.approx = None;

        let collection = if source.is_empty() {
            if dim == 0 {
                return Err((
                    refusal::BAD_COLLECTION_SPEC,
                    "an empty collection needs a nonzero dimensionality".into(),
                ));
            }
            config.store = StoreChoice::Sim; // nothing durable to store yet
            Collection::start(
                name,
                Box::new(EmptyBackend { dims: dim as usize }),
                &config,
                &self.recorder,
            )
        } else {
            let db: PagedDatabase<Vector> = mq_store::load(source, &VectorCodec).map_err(|e| {
                (
                    refusal::BAD_COLLECTION_SPEC,
                    format!("cannot load dataset {source:?}: {e}"),
                )
            })?;
            if let StoreChoice::File(root) = &self.template.store {
                config.store = StoreChoice::File(root.join("collections").join(name));
            }
            let backend = build_backend_with_recorder(&db, &config, 0.10, &self.recorder, |ds| {
                let db = PagedDatabase::pack(ds, Default::default());
                let index: Box<dyn mq_index::SimilarityIndex<Vector>> =
                    Box::new(LinearScan::new(db.page_count()));
                (index, db)
            })
            .map_err(|e| {
                (
                    refusal::BAD_COLLECTION_SPEC,
                    format!("cannot build collection from {source:?}: {e}"),
                )
            })?;
            if dim != 0 && backend.dimensions() != 0 && backend.dimensions() != dim as usize {
                return Err((
                    refusal::BAD_COLLECTION_SPEC,
                    format!(
                        "declared dim {dim} does not match dataset dim {}",
                        backend.dimensions()
                    ),
                ));
            }
            Collection::start(name, backend, &config, &self.recorder)
        };
        let detail = format!(
            "collection {name:?} created ({} objects, {} dims, metric {})",
            collection.objects,
            collection.dimensions(),
            metric.name(),
        );
        let mut map = self.collections.write();
        if map.contains_key(name) {
            // Lost a create/create race while building; the other one won.
            return Err((
                refusal::COLLECTION_EXISTS,
                format!("collection {name:?} already exists"),
            ));
        }
        map.insert(name.to_string(), Arc::new(collection));
        Ok(detail)
    }

    /// Drops a collection: refuses while queries are in flight (a client
    /// never gets a partial answer from a drop racing its query), refuses
    /// to drop the default collection, and otherwise detaches it. A
    /// file-backed collection's store directory stays on disk — drop
    /// stops serving, it does not destroy data.
    pub fn drop_collection(&self, name: &str) -> Result<String, (u16, String)> {
        if name.is_empty() || name == DEFAULT_COLLECTION {
            return Err((
                refusal::BAD_COLLECTION_SPEC,
                "the default collection cannot be dropped".into(),
            ));
        }
        let mut map = self.collections.write();
        let Some(collection) = map.get(name) else {
            return Err((
                refusal::UNKNOWN_COLLECTION,
                format!("no collection named {name:?}"),
            ));
        };
        // The write lock is held, so no new query can resolve this
        // collection while we look; anything already admitted keeps its
        // Arc and finishes normally, we just refuse to detach until then.
        let busy = collection.scheduler.in_flight();
        if busy > 0 {
            return Err((
                refusal::COLLECTION_BUSY,
                format!("collection {name:?} has {busy} queries in flight"),
            ));
        }
        map.remove(name);
        Ok(format!("collection {name:?} dropped"))
    }

    /// Every collection's wire description, sorted by name (the default
    /// collection first) so the listing is deterministic.
    pub fn list(&self) -> Vec<CollectionInfo> {
        let mut infos: Vec<CollectionInfo> =
            self.collections.read().values().map(|c| c.info()).collect();
        infos.sort_by(|a, b| {
            (a.name != DEFAULT_COLLECTION, &a.name).cmp(&(b.name != DEFAULT_COLLECTION, &b.name))
        });
        infos
    }

    /// The default collection (always present).
    pub fn default_collection(&self) -> Arc<Collection> {
        self.get(DEFAULT_COLLECTION)
            .expect("default collection always present")
    }

    /// Aggregate service counters of the default collection — what the
    /// wire `Stats` opcode with an empty collection name reports, and
    /// what single-collection deployments always saw.
    pub fn default_metrics(&self) -> ServiceMetrics {
        self.default_collection().scheduler().metrics()
    }

    /// Queries in flight across every collection.
    pub fn total_in_flight(&self) -> u64 {
        self.collections
            .read()
            .values()
            .map(|c| c.scheduler.in_flight())
            .sum()
    }

    /// Waits until no collection has in-flight work, polling up to
    /// `timeout`; returns whether everything drained in time.
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.total_in_flight() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }

    /// Store directories of every file-backed collection — the set a
    /// graceful shutdown checkpoints after the registry is dropped.
    pub fn store_dirs(&self) -> Vec<PathBuf> {
        let mut dirs: Vec<PathBuf> = self
            .collections
            .read()
            .values()
            .flat_map(|c| c.store_dirs.clone())
            .collect();
        dirs.sort();
        dirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> CollectionRegistry {
        let config = ServerConfig::default();
        CollectionRegistry::new(
            Box::new(EmptyBackend { dims: 3 }),
            &config,
            &Recorder::disabled(),
        )
    }

    #[test]
    fn default_collection_resolves_by_empty_name() {
        let r = registry();
        assert_eq!(r.get("").unwrap().name(), DEFAULT_COLLECTION);
        assert_eq!(
            r.get(DEFAULT_COLLECTION).unwrap().name(),
            DEFAULT_COLLECTION
        );
        assert!(r.get("nope").is_none());
        assert_eq!(r.list().len(), 1);
        assert_eq!(r.list()[0].dim, 3);
    }

    #[test]
    fn create_empty_then_drop() {
        let r = registry();
        r.create("emb", 8, "cosine", "").expect("create");
        let info = r.get("emb").unwrap().info();
        assert_eq!(info.dim, 8);
        assert_eq!(info.metric, "cosine");
        assert_eq!(info.objects, 0);
        // Listing is default-first, then lexicographic.
        let names: Vec<String> = r.list().into_iter().map(|i| i.name).collect();
        assert_eq!(
            names,
            vec![DEFAULT_COLLECTION.to_string(), "emb".to_string()]
        );
        r.drop_collection("emb").expect("drop");
        assert!(r.get("emb").is_none());
    }

    #[test]
    fn create_refusals_are_typed() {
        let r = registry();
        assert_eq!(
            r.create("bad/name", 4, "", "").unwrap_err().0,
            refusal::BAD_COLLECTION_SPEC
        );
        assert_eq!(
            r.create("x", 0, "", "").unwrap_err().0,
            refusal::BAD_COLLECTION_SPEC,
            "empty collection needs a dim"
        );
        assert_eq!(
            r.create("x", 4, "chebyshev", "").unwrap_err().0,
            refusal::BAD_COLLECTION_SPEC
        );
        r.create("x", 4, "", "").unwrap();
        assert_eq!(
            r.create("x", 4, "", "").unwrap_err().0,
            refusal::COLLECTION_EXISTS
        );
        assert_eq!(
            r.create("y", 4, "", "/no/such/dir").unwrap_err().0,
            refusal::BAD_COLLECTION_SPEC
        );
        // A source with deleted ids cannot be re-laid-out on the simulated
        // disk: `to_dataset` refuses it, and so does the registry.
        let dir = std::env::temp_dir().join(format!("mq-registry-holes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = mq_storage::Dataset::new((0..8).map(|i| Vector::new(vec![i as f32])).collect());
        let db = PagedDatabase::pack(&ds, mq_storage::PageLayout::new(64, 16));
        let mut store = mq_store::FilePageStore::create(&dir, db, VectorCodec, 1).unwrap();
        store.delete(mq_metric::ObjectId(3)).unwrap();
        drop(store);
        let (code, detail) = r.create("z", 0, "", dir.to_str().unwrap()).unwrap_err();
        assert_eq!(code, refusal::BAD_COLLECTION_SPEC);
        assert!(detail.contains("deleted"), "{detail}");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            r.drop_collection(DEFAULT_COLLECTION).unwrap_err().0,
            refusal::BAD_COLLECTION_SPEC
        );
        assert_eq!(
            r.drop_collection("ghost").unwrap_err().0,
            refusal::UNKNOWN_COLLECTION
        );
    }

    #[test]
    fn cluster_mode_refuses_collection_management() {
        let config = ServerConfig::default().with_servers(2);
        let r = CollectionRegistry::new(
            Box::new(EmptyBackend { dims: 3 }),
            &config,
            &Recorder::disabled(),
        );
        assert_eq!(
            r.create("x", 4, "", "").unwrap_err().0,
            refusal::UNSUPPORTED
        );
    }

    #[test]
    fn empty_backend_answers_empty() {
        let r = registry();
        r.create("e", 2, "", "").unwrap();
        let c = r.get("e").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        c.scheduler().submit_with(
            Vector::new(vec![1.0, 2.0]),
            QueryType::knn(5),
            move |reply| {
                let _ = tx.send(reply);
            },
        );
        let reply = rx.recv().expect("sink fired").expect("reply");
        assert!(reply.answers.is_empty());
    }
}
