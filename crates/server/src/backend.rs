//! Batch execution backends: what a flushed batch runs on.
//!
//! A [`QueryBackend`] evaluates one batch as a multiple similarity query.
//! [`SingleEngineBackend`] is one engine over one page store (§5.1–5.2),
//! [`ClusterBackend`] a shared-nothing cluster (§5.3); [`build_backend`]
//! picks and wires one from a [`ServerConfig`], opening or creating the
//! durable stores in file mode. Every engine option arrives as the one
//! [`ServerConfig::engine`] block.

use crate::config::{ExecutionMode, ServerConfig, StoreChoice};
use mq_approx::ApproxTier;
use mq_core::{
    Answer, CandidatePrescreen, EngineObs, EngineOptions, ExecutionStats, QueryEngine, QueryType,
    StatsProbe,
};
use mq_index::{LinearScan, SimilarityIndex};
use mq_metric::{CountingMetric, Metric, ObjectId, Vector, VectorMetric};
use mq_obs::Recorder;
use mq_parallel::{Declustering, Server, SharedNothingCluster};
use mq_storage::{Dataset, PageStore, PagedDatabase, SimulatedDisk, VectorCodec};
use mq_store::{
    FilePageStore, PartitionManifest, SegmentMeta, StoreError, SEGMENT_FILE, SEGMENT_HEADER_LEN,
};
use std::path::Path;
use std::sync::Arc;

/// Executes one flushed batch. Implementations own their storage and
/// index; the scheduler's worker threads are their only callers, and with
/// more than one worker `execute` runs concurrently — hence `Sync`.
pub trait QueryBackend: Send + Sync + 'static {
    /// Evaluates the whole batch, returning per-query answer lists in
    /// input order plus the batch's execution statistics.
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats);

    /// Dimensionality of the stored vectors, or 0 when unknown (empty
    /// database). The frontend rejects mismatched queries up front so a
    /// single bad request cannot reach — let alone poison — a batch that
    /// carries other clients' queries.
    fn dimensions(&self) -> usize;

    /// Number of live objects served (0 when unknown) — what the
    /// `ListCollections` opcode reports per collection.
    fn object_count(&self) -> u64 {
        0
    }

    /// One-line description for logs.
    fn describe(&self) -> String;
}

/// Single-engine backend: one page store (simulated or file-backed), one
/// access method, §5.1–5.2 batched execution.
pub struct SingleEngineBackend {
    disk: Box<dyn PageStore<Vector>>,
    index: Box<dyn SimilarityIndex<Vector>>,
    metric: CountingMetric<VectorMetric>,
    options: EngineOptions,
    dims: usize,
    /// Engine instruments shared by the short-lived engine of every batch.
    obs: Option<Arc<EngineObs>>,
    /// Optional approximate candidate tier restricting every batch's
    /// sessions before the exact re-rank.
    prescreen: Option<Arc<dyn CandidatePrescreen<Vector>>>,
}

impl SingleEngineBackend {
    /// Wraps a database and its index. `buffer_fraction` sizes the page
    /// buffer as in [`SimulatedDisk::new`]; `options` configures the
    /// engine of every batch.
    pub fn new(
        db: PagedDatabase<Vector>,
        index: Box<dyn SimilarityIndex<Vector>>,
        buffer_fraction: f64,
        options: EngineOptions,
    ) -> Self {
        let disk = Box::new(SimulatedDisk::new(db, buffer_fraction));
        Self::from_store(disk, index, options)
    }

    /// Wraps an already-built page store (any backend) and its index. This
    /// is how the durable `mq-store` backend joins the scheduler: the
    /// caller opens or creates the [`FilePageStore`] and hands it over
    /// boxed.
    pub fn from_store(
        disk: Box<dyn PageStore<Vector>>,
        index: Box<dyn SimilarityIndex<Vector>>,
        options: EngineOptions,
    ) -> Self {
        let dims = dims_of(disk.database());
        Self {
            disk,
            index,
            metric: CountingMetric::new(VectorMetric::default()),
            options,
            dims,
            obs: None,
            prescreen: None,
        }
    }

    /// Attaches an observability [`Recorder`]: engine counters and stage
    /// spans and the disk's buffer/prefetch/fault counters.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.obs = EngineObs::new(recorder);
        self.disk.attach_recorder(recorder);
        self
    }

    /// Selects the distance function. Non-Euclidean metrics must be paired
    /// with a sequential-scan index (see [`ServerConfig::metric`]).
    pub fn with_metric(mut self, metric: VectorMetric) -> Self {
        self.metric = CountingMetric::new(metric);
        self
    }

    /// Installs an approximate candidate tier: every batch's session is
    /// restricted to the tier's per-query candidates before the exact
    /// re-rank (see [`mq_core::CandidatePrescreen`]).
    pub fn with_prescreen(mut self, prescreen: Arc<dyn CandidatePrescreen<Vector>>) -> Self {
        self.prescreen = Some(prescreen);
        self
    }

    /// The backend's page store (fault-plan installation in tests).
    pub fn disk(&self) -> &dyn PageStore<Vector> {
        &*self.disk
    }
}

/// Dimensionality of the first live vector, or 0 when the database holds
/// none (empty, or every id tombstoned).
fn dims_of(db: &PagedDatabase<Vector>) -> usize {
    (0..db.object_count() as u32)
        .find_map(|i| db.try_object(ObjectId(i)))
        .map_or(0, |v| v.dim())
}

impl QueryBackend for SingleEngineBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let mut engine = QueryEngine::new(&*self.disk, &*self.index, self.metric.clone())
            .with_options(self.options)
            .with_obs(self.obs.clone());
        if let Some(prescreen) = &self.prescreen {
            engine = engine.with_prescreen(&**prescreen);
        }
        let probe = StatsProbe::start(&*self.disk, self.metric.counter(), Default::default());
        let mut session = engine.new_session(queries);
        engine.run_to_completion(&mut session);
        let stats = probe.finish(&*self.disk, session.avoidance_stats());
        (session.into_answers(), stats)
    }

    fn dimensions(&self) -> usize {
        self.dims
    }

    fn object_count(&self) -> u64 {
        self.disk.database().object_count() as u64
    }

    fn describe(&self) -> String {
        format!(
            "single engine, {} pages, avoidance {}, approx {}",
            self.disk.database().page_count(),
            if self.options.avoidance { "on" } else { "off" },
            self.prescreen.as_deref().map_or("off", |p| p.name()),
        )
    }
}

/// Cluster backend: a §5.3 shared-nothing cluster evaluates every batch in
/// parallel across its servers.
pub struct ClusterBackend {
    cluster: SharedNothingCluster<Vector, CountingMetric<VectorMetric>>,
    dims: usize,
}

impl ClusterBackend {
    /// Declusters `objects` round-robin over `servers` local engines,
    /// building each server's index with `build_index`, evaluating
    /// `metric` and running `options` on every server.
    pub fn build<F>(
        objects: &[Vector],
        servers: usize,
        buffer_fraction: f64,
        options: EngineOptions,
        metric: VectorMetric,
        build_index: F,
    ) -> Self
    where
        F: Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>),
    {
        let cluster = SharedNothingCluster::build(
            objects,
            servers,
            Declustering::RoundRobin,
            CountingMetric::new(metric),
            buffer_fraction,
            options,
            build_index,
        );
        Self {
            cluster,
            dims: objects.first().map_or(0, |v| v.dim()),
        }
    }

    /// Assembles the backend from already-built servers (any page-store
    /// backend). This is how durable per-partition `mq-store` stores join
    /// the cluster path.
    pub fn from_servers(
        servers: Vec<Server<Vector, CountingMetric<VectorMetric>>>,
        options: EngineOptions,
    ) -> Self {
        let dims = servers
            .iter()
            .map(|s| dims_of(s.disk().database()))
            .find(|&d| d > 0)
            .unwrap_or(0);
        Self {
            cluster: SharedNothingCluster::from_servers(servers, options),
            dims,
        }
    }

    /// Attaches an observability [`Recorder`] to the whole cluster —
    /// per-partition counters and every server disk.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.cluster = self.cluster.with_recorder(recorder);
        self
    }

    /// Installs the approximate candidate tier on every partition: one
    /// prescreen per server, built over that server's partition-local id
    /// space. With `sidecar_root` set (file-store clusters), each
    /// partition's binary sketch is loaded from — or rebuilt into —
    /// `<root>/part-<i>/sketch.mqbq`.
    pub fn with_approx(mut self, tier: ApproxTier, sidecar_root: Option<&Path>) -> Self {
        let prescreens: Vec<Arc<dyn CandidatePrescreen<Vector>>> = self
            .cluster
            .servers()
            .iter()
            .enumerate()
            .map(|(p, s)| {
                let sidecar = sidecar_root.map(|root| root.join(format!("part-{p}")));
                tier.prescreen(s.disk().database(), sidecar.as_deref())
            })
            .collect();
        self.cluster = self.cluster.with_prescreens(prescreens);
        self
    }

    /// The underlying cluster (fault-plan installation in tests).
    pub fn cluster(&self) -> &SharedNothingCluster<Vector, CountingMetric<VectorMetric>> {
        &self.cluster
    }
}

impl QueryBackend for ClusterBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let (answers, cluster_stats) = self.cluster.multiple_query(&queries);
        // Sum of per-server work; elapsed is the parallel wall-clock, not
        // the sum — that is the whole point of the cluster path.
        let mut stats = cluster_stats.total();
        stats.elapsed = cluster_stats.elapsed;
        (answers, stats)
    }

    fn dimensions(&self) -> usize {
        self.dims
    }

    fn object_count(&self) -> u64 {
        self.cluster
            .servers()
            .iter()
            .map(|s| s.disk().database().object_count() as u64)
            .sum()
    }

    fn describe(&self) -> String {
        format!(
            "shared-nothing cluster of {} servers, avoidance {}, approx {}",
            self.cluster.server_count(),
            if self.cluster.options().avoidance {
                "on"
            } else {
                "off"
            },
            self.cluster
                .prescreen_names()
                .first()
                .copied()
                .unwrap_or("off"),
        )
    }
}

/// Builds the backend selected by `config.mode` and `config.store` from a
/// database and an index-builder callback (invoked once per cluster
/// server, or once for the single-engine path; ignored by the file-backed
/// store, which always serves its recovered layout through a sequential
/// scan).
///
/// # Errors
/// Fails when a file store's directory cannot be created, opened, or
/// recovered, and when `db` has deleted ids but a layout must be built
/// from it (see [`PagedDatabase::to_dataset`]).
pub fn build_backend<F>(
    db: &PagedDatabase<Vector>,
    config: &ServerConfig,
    buffer_fraction: f64,
    build_index: F,
) -> Result<Box<dyn QueryBackend>, StoreError>
where
    F: Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>),
{
    build_backend_with_recorder(
        db,
        config,
        buffer_fraction,
        &Recorder::disabled(),
        build_index,
    )
}

/// [`build_backend`] with an observability [`Recorder`] threaded through
/// the backend (engine counters, disk counters, store durability
/// counters, and — in cluster mode — per-partition counters).
///
/// # Errors
/// Fails when a file store's directory cannot be created, opened, or
/// recovered, and when `db` has deleted ids but a layout must be built
/// from it (see [`PagedDatabase::to_dataset`]).
pub fn build_backend_with_recorder<F>(
    db: &PagedDatabase<Vector>,
    config: &ServerConfig,
    buffer_fraction: f64,
    recorder: &Recorder,
    build_index: F,
) -> Result<Box<dyn QueryBackend>, StoreError>
where
    F: Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>),
{
    // The approximate tier ranks candidates by Euclidean proximity
    // (Hamming over quantile planes); pairing it with another metric
    // would silently mis-rank, so refuse up front.
    if config.approx.is_some() && config.metric != VectorMetric::Euclidean {
        return Err(StoreError::Format(format!(
            "--approx requires the euclidean metric; the candidate tier ranks by \
             Euclidean proximity and would mis-screen under '{}'",
            config.metric.name()
        )));
    }
    // File stores keep the binary sketch beside their page files.
    let sidecar = match &config.store {
        StoreChoice::Sim => None,
        StoreChoice::File(dir) => Some(dir.as_path()),
    };
    match config.mode {
        ExecutionMode::Single => {
            let (disk, index): (Box<dyn PageStore<Vector>>, _) = match sidecar {
                None => {
                    let (index, db) = build_index(&db.to_dataset()?);
                    (Box::new(SimulatedDisk::new(db, buffer_fraction)), index)
                }
                Some(dir) => {
                    // A partition of a clustered store must not be served
                    // alone: its answers would carry partition-local ids.
                    if let Some(manifest) = PartitionManifest::load(dir)? {
                        return Err(StoreError::Format(format!(
                            "{} is partition {} of a {}-way cluster store; serve its parent \
                             directory with --cluster {} instead",
                            dir.display(),
                            manifest.partition,
                            manifest.parts,
                            manifest.parts
                        )));
                    }
                    // Served as recovered, by a scan: a tree would repack.
                    let store = open_or_create_store(dir, db, buffer_fraction)?;
                    let scan = LinearScan::new(store.database().page_count());
                    (Box::new(store), Box::new(scan))
                }
            };
            let prescreen = config
                .approx
                .map(|tier| tier.prescreen(disk.database(), sidecar));
            let mut backend = SingleEngineBackend::from_store(disk, index, config.engine)
                .with_metric(config.metric)
                .with_recorder(recorder);
            if let Some(p) = prescreen {
                backend = backend.with_prescreen(p);
            }
            Ok(Box::new(backend))
        }
        ExecutionMode::Cluster { servers } => {
            let servers = servers.max(1);
            let backend = match sidecar {
                None => ClusterBackend::build(
                    db.to_dataset()?.objects(),
                    servers,
                    buffer_fraction,
                    config.engine,
                    config.metric,
                    build_index,
                ),
                Some(dir) => ClusterBackend::from_servers(
                    open_or_create_partition_stores(
                        dir,
                        db,
                        servers,
                        buffer_fraction,
                        config.metric,
                    )?,
                    config.engine,
                ),
            };
            let mut backend = backend.with_recorder(recorder);
            if let Some(tier) = config.approx {
                backend = backend.with_approx(tier, sidecar);
            }
            Ok(Box::new(backend))
        }
    }
}

/// Buffer capacity matching [`SimulatedDisk::new`]'s fraction sizing.
fn buffer_pages(page_count: usize, fraction: f64) -> usize {
    ((page_count as f64 * fraction).ceil() as usize).max(1)
}

/// Opens the durable store in `dir` if a segment exists there, otherwise
/// creates one seeded with `db`'s pages (layout preserved as packed —
/// never repacked, so the segment stays valid for any later access).
fn open_or_create_store(
    dir: &Path,
    db: &PagedDatabase<Vector>,
    buffer_fraction: f64,
) -> Result<FilePageStore<Vector, VectorCodec>, StoreError> {
    let seg = dir.join(SEGMENT_FILE);
    if seg.exists() {
        // Only the header is needed for buffer sizing; open() reads the
        // frames itself, so a full std::fs::read here would double the
        // startup I/O of a large segment.
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        std::io::Read::read_exact(&mut std::fs::File::open(&seg)?, &mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Format("segment header truncated".into())
            } else {
                StoreError::Io(e)
            }
        })?;
        let meta = SegmentMeta::decode_header(&header)?;
        let pages = buffer_pages(meta.page_count as usize, buffer_fraction);
        FilePageStore::open(dir, VectorCodec, pages)
    } else {
        let pages = buffer_pages(db.page_count(), buffer_fraction);
        FilePageStore::create(dir, db.clone(), VectorCodec, pages)
    }
}

/// Builds one durable store per cluster partition under
/// `dir/part-<i>/`.
///
/// When `dir/part-0/` already holds a segment, every existing partition is
/// reopened (their count wins over `servers` so a recovered cluster keeps
/// its declustering). Otherwise `db` is declustered round-robin — object
/// `i` to partition `i % servers` — exactly like
/// [`Declustering::RoundRobin`], so answers stay bit-identical to the
/// simulated cluster.
///
/// Each partition directory carries a [`PartitionManifest`] recording the
/// partition count, its index, and the **explicit** local→global id
/// mapping. Reopen reads the mapping back instead of deriving ids
/// positionally, and cross-checks it against the recovered store — a
/// partition mutated behind the cluster's back (offline `mq insert` on a
/// single `part-<i>/`), a missing manifest, or a duplicated global id is
/// a typed error rather than silently mis-addressed answers.
fn open_or_create_partition_stores(
    dir: &Path,
    db: &PagedDatabase<Vector>,
    servers: usize,
    buffer_fraction: f64,
    metric: VectorMetric,
) -> Result<Vec<Server<Vector, CountingMetric<VectorMetric>>>, StoreError> {
    let part_dir = |p: usize| dir.join(format!("part-{p}"));
    let mut out = Vec::new();
    if part_dir(0).join(SEGMENT_FILE).exists() {
        let mut parts = 0;
        while part_dir(parts).join(SEGMENT_FILE).exists() {
            parts += 1;
        }
        let mut seen_gids = std::collections::HashSet::new();
        for p in 0..parts {
            let pdir = part_dir(p);
            let manifest = PartitionManifest::load(&pdir)?.ok_or_else(|| {
                StoreError::Format(format!(
                    "{} has no partition manifest; cannot reconstruct its global ids",
                    pdir.display()
                ))
            })?;
            if manifest.parts as usize != parts || manifest.partition as usize != p {
                return Err(StoreError::Format(format!(
                    "{} declares itself partition {} of {}, but the directory holds \
                     partition {p} of {parts}",
                    pdir.display(),
                    manifest.partition,
                    manifest.parts
                )));
            }
            let store = open_or_create_store(&pdir, db, buffer_fraction)?;
            let local = store.database();
            if manifest.global_ids.len() != local.object_count() {
                return Err(StoreError::Format(format!(
                    "{} holds {} object ids but its manifest maps {} — the partition \
                     was mutated outside the cluster",
                    pdir.display(),
                    local.object_count(),
                    manifest.global_ids.len()
                )));
            }
            for gid in &manifest.global_ids {
                if !seen_gids.insert(*gid) {
                    return Err(StoreError::Format(format!(
                        "global id {gid} is mapped by two partitions"
                    )));
                }
            }
            let scan = LinearScan::new(local.page_count());
            out.push(Server::from_parts(
                Box::new(store),
                Box::new(scan),
                CountingMetric::new(metric),
                manifest.global_ids,
            ));
        }
    } else {
        let ds = db.to_dataset()?;
        for p in 0..servers {
            let local: Vec<Vector> = ds
                .objects()
                .iter()
                .skip(p)
                .step_by(servers)
                .cloned()
                .collect();
            let global_ids: Vec<ObjectId> = (0..local.len())
                .map(|j| ObjectId((j * servers + p) as u32))
                .collect();
            let part_db = PagedDatabase::pack(&Dataset::new(local), db.layout());
            let pages = buffer_pages(part_db.page_count(), buffer_fraction);
            let store = FilePageStore::create(part_dir(p), part_db, VectorCodec, pages)?;
            PartitionManifest {
                parts: servers as u32,
                partition: p as u32,
                global_ids: global_ids.clone(),
            }
            .save(&part_dir(p))?;
            let scan = LinearScan::new(store.database().page_count());
            out.push(Server::from_parts(
                Box::new(store),
                Box::new(scan),
                CountingMetric::new(metric),
                global_ids,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_backend;
    use mq_storage::PageLayout;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn line_db(n: usize) -> PagedDatabase<Vector> {
        let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32])).collect());
        PagedDatabase::pack(&ds, PageLayout::new(256, 16))
    }

    fn scan_backend(n: usize) -> Box<dyn QueryBackend> {
        let db = line_db(n);
        let scan = LinearScan::new(db.page_count());
        let options = EngineOptions::default();
        Box::new(SingleEngineBackend::new(db, Box::new(scan), 0.10, options))
    }

    #[test]
    fn pipelined_backend_agrees_with_sequential_across_batches() {
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 13.0 + 0.2]), QueryType::knn(3)))
            .collect();
        let plain = scan_backend(120).execute(queries.clone());
        let db = line_db(120);
        let scan = LinearScan::new(db.page_count());
        let options = EngineOptions {
            prefetch_depth: 2,
            ..EngineOptions::default()
        };
        let pipelined = SingleEngineBackend::new(db, Box::new(scan), 0.10, options);
        // Two batches through the same backend: the prefetch pins of one
        // batch are released before the next.
        for round in 0..2 {
            let (answers, _) = pipelined.execute(queries.clone());
            for (qi, (a, b)) in plain.0.iter().zip(&answers).enumerate() {
                let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
                let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
                assert_eq!(ia, ib, "round {round}, query {qi}");
            }
        }
    }

    #[test]
    fn cluster_backend_agrees_with_single() {
        let db = line_db(120);
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 17.0 + 0.4]), QueryType::knn(3)))
            .collect();
        let single = scan_backend(120).execute(queries.clone());
        let cluster = ClusterBackend::build(
            db.to_dataset().unwrap().objects(),
            3,
            0.10,
            EngineOptions::default(),
            VectorMetric::Euclidean,
            |ds| {
                let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
                (
                    Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                    db,
                )
            },
        );
        let clustered = cluster.execute(queries);
        for (a, b) in single.0.iter().zip(&clustered.0) {
            let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
            let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn file_store_backends_agree_with_sim_and_survive_restart() {
        use crate::config::StoreChoice;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mq-sched-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, db.layout());
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 19.0 + 0.3]), QueryType::knn(3)))
            .collect();
        let oracle = build_backend(&db, &ServerConfig::default(), 0.10, build)
            .expect("sim backend")
            .execute(queries.clone());

        for (mode, sub) in [
            (ExecutionMode::Single, "single"),
            (ExecutionMode::Cluster { servers: 3 }, "cluster"),
        ] {
            let config = ServerConfig::default()
                .with_mode(mode)
                .with_store(StoreChoice::File(dir.join(sub)));
            // First build creates the store, second reopens it from disk.
            for round in ["create", "reopen"] {
                let backend =
                    build_backend(&db, &config, 0.10, build).expect("file backend builds");
                let (answers, _) = backend.execute(queries.clone());
                for (qi, (a, b)) in oracle.0.iter().zip(&answers).enumerate() {
                    let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
                    let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
                    assert_eq!(ia, ib, "{sub} {round}, query {qi}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_reopen_validates_partition_manifests() {
        use crate::config::StoreChoice;
        use mq_store::PARTITION_MANIFEST_FILE;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "mq-sched-manifest-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, db.layout());
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let cluster_config = |dir: &std::path::Path| {
            ServerConfig::default()
                .with_mode(ExecutionMode::Cluster { servers: 3 })
                .with_store(StoreChoice::File(dir.to_path_buf()))
        };

        // An offline insert against a single partition desynchronizes the
        // persisted global-id mapping; reopen must refuse rather than
        // silently mis-address answers.
        let dir = root.join("mutated");
        let config = cluster_config(&dir);
        drop(build_backend(&db, &config, 0.10, build).expect("create cluster"));
        {
            let mut part: FilePageStore<Vector, VectorCodec> =
                FilePageStore::open(dir.join("part-1"), VectorCodec, 1).expect("open partition");
            part.insert(Vector::new(vec![500.0]))
                .expect("offline insert");
        }
        match build_backend(&db, &config, 0.10, build) {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("mutated outside the cluster"), "{msg}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("reopen of a desynchronized partition must fail"),
        }

        // A missing manifest leaves the global ids unknowable.
        let dir = root.join("missing");
        let config = cluster_config(&dir);
        drop(build_backend(&db, &config, 0.10, build).expect("create cluster"));
        std::fs::remove_file(dir.join("part-2").join(PARTITION_MANIFEST_FILE)).unwrap();
        match build_backend(&db, &config, 0.10, build) {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("no partition manifest"), "{msg}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("reopen without a manifest must fail"),
        }

        // Serving one partition standalone would answer with local ids.
        let dir = root.join("single");
        let config = cluster_config(&dir);
        drop(build_backend(&db, &config, 0.10, build).expect("create cluster"));
        let single = ServerConfig::default().with_store(StoreChoice::File(dir.join("part-0")));
        match build_backend(&db, &single, 0.10, build) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("--cluster 3"), "{msg}"),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("single-mode serve of a partition must fail"),
        }

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn configured_metric_reaches_the_engine() {
        // Under the dot-product ranking the best match for q=[5] in the
        // 0..60 line is the *largest* vector, not the nearest one — so a
        // Euclidean engine would answer id 5 and give the game away.
        let db = line_db(60);
        let config = ServerConfig::default().with_metric(VectorMetric::Dot);
        let backend = build_backend(&db, &config, 0.10, |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        })
        .expect("sim backend");
        let (answers, _) = backend.execute(vec![(Vector::new(vec![5.0]), QueryType::knn(1))]);
        assert_eq!(answers[0][0].id.0, 59);
        assert_eq!(answers[0][0].distance, -(5.0 * 59.0));
    }

    #[test]
    fn approx_tier_with_full_budget_agrees_with_exact_in_every_mode() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mq-sched-approx-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let db = line_db(120);
        let build = |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        };
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 17.0 + 0.4]), QueryType::knn(3)))
            .collect();
        let exact = build_backend(&db, &ServerConfig::default(), 0.10, build)
            .expect("exact backend")
            .execute(queries.clone());

        // A budget covering the whole collection must reproduce the exact
        // answers bit-for-bit in every mode × store combination.
        let tier = ApproxTier::Bq { budget: 120 };
        for (mode, store, label) in [
            (ExecutionMode::Single, StoreChoice::Sim, "single/sim"),
            (
                ExecutionMode::Cluster { servers: 3 },
                StoreChoice::Sim,
                "cluster/sim",
            ),
            (
                ExecutionMode::Single,
                StoreChoice::File(dir.join(format!("single-{tier}"))),
                "single/file",
            ),
            (
                ExecutionMode::Cluster { servers: 3 },
                StoreChoice::File(dir.join(format!("cluster-{tier}"))),
                "cluster/file",
            ),
        ] {
            let config = ServerConfig::default()
                .with_mode(mode)
                .with_store(store)
                .with_approx(Some(tier));
            let backend = build_backend(&db, &config, 0.10, build).expect("approx backend builds");
            assert!(
                backend.describe().contains("approx"),
                "{}",
                backend.describe()
            );
            let (answers, _) = backend.execute(queries.clone());
            for (qi, (a, b)) in exact.0.iter().zip(&answers).enumerate() {
                let ia: Vec<(u32, f64)> = a.iter().map(|x| (x.id.0, x.distance)).collect();
                let ib: Vec<(u32, f64)> = b.iter().map(|x| (x.id.0, x.distance)).collect();
                assert_eq!(ia, ib, "{label} {tier}, query {qi}");
            }
        }
        // The file-backed bq runs persisted their sketches next to the
        // page files (single at the root, cluster per partition).
        assert!(dir
            .join("single-bq:120")
            .join(mq_approx::SKETCH_FILE)
            .exists());
        assert!(dir
            .join("cluster-bq:120")
            .join("part-0")
            .join(mq_approx::SKETCH_FILE)
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn narrow_budget_restricts_the_scan() {
        // budget 1 admits ~1 candidate per query; the answers must be
        // drawn from that candidate set and the distances stay exact.
        let db = line_db(120);
        let config = ServerConfig::default().with_approx(Some(ApproxTier::Bq { budget: 1 }));
        let backend = build_backend(&db, &config, 0.10, |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        })
        .expect("approx backend");
        let (answers, _) = backend.execute(vec![(Vector::new(vec![60.0]), QueryType::knn(5))]);
        assert!(
            answers[0].len() <= 1,
            "budget 1 cannot yield {} answers",
            answers[0].len()
        );
        for a in &answers[0] {
            // Exact re-rank: the reported distance is the true metric
            // distance, not a Hamming proxy.
            assert_eq!(a.distance, (a.id.0 as f64 - 60.0).abs());
        }
    }

    #[test]
    fn approx_refuses_non_euclidean_metrics() {
        let db = line_db(30);
        let config = ServerConfig::default()
            .with_metric(VectorMetric::Cosine)
            .with_approx(Some(ApproxTier::Bq { budget: 10 }));
        match build_backend(&db, &config, 0.10, |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        }) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("euclidean"), "{msg}"),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("approx + cosine must be refused"),
        }
    }
}
