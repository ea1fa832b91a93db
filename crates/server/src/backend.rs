//! Batch execution: what a flushed batch runs on.
//!
//! A [`QueryBackend`] evaluates one batch as a multiple similarity query.
//! [`EngineBackend`] is the one product implementation: a §5.3
//! shared-nothing cluster of `s` engines whose answers are merged, where
//! `s = 1` (the default) is the single engine of §5.1–5.2.
//! [`build_backend`] wires one from a [`ServerConfig`], opening or
//! creating the durable stores in file mode. Every engine option arrives
//! as the one [`ServerConfig::engine`] block.

use crate::config::{ServerConfig, StoreChoice};
use mq_core::{Answer, CandidatePrescreen, ExecutionStats, QueryType};
use mq_index::{LinearScan, SimilarityIndex};
use mq_metric::{Metric, ObjectId, Vector, VectorMetric};
use mq_obs::Recorder;
use mq_parallel::{round_robin, Server, SharedNothingCluster};
use mq_storage::{Dataset, PageStore, PagedDatabase, VectorCodec};
use mq_store::{
    FilePageStore, PartitionManifest, SegmentMeta, StoreError, SEGMENT_FILE, SEGMENT_HEADER_LEN,
};
use std::path::{Path, PathBuf};
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

    /// The durable store directories this backend serves, one per
    /// partition — what a graceful shutdown checkpoints. Empty for
    /// in-memory backends.
    fn store_dirs(&self) -> Vec<PathBuf> {
        Vec::new()
    }

    /// One-line description for logs.
    fn describe(&self) -> String;
}

/// The query backend: a §5.3 shared-nothing cluster of engines, each over
/// its own page store (simulated or file-backed) and access method. Every
/// batch runs on all servers and their answers are merged; one server —
/// the default — is the single engine of §5.1–5.2, evaluated on the
/// calling thread.
pub struct EngineBackend {
    cluster: SharedNothingCluster<Vector, VectorMetric>,
    dims: usize,
    /// Each server's store directory, in server order (file stores only).
    store_dirs: Vec<PathBuf>,
}

/// Dimensionality of the first live vector, or 0 when the database holds
/// none (empty, or every id tombstoned).
fn dims_of(db: &PagedDatabase<Vector>) -> usize {
    (0..db.object_count() as u32)
        .find_map(|i| db.try_object(ObjectId(i)))
        .map_or(0, |v| v.dim())
}

impl QueryBackend for EngineBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let (answers, cluster_stats) = self.cluster.multiple_query(&queries);
        // Sum of per-server work; elapsed is the parallel wall-clock, not
        // the sum.
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

    fn store_dirs(&self) -> Vec<PathBuf> {
        self.store_dirs.clone()
    }

    fn describe(&self) -> String {
        let pages: usize = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.disk().database().page_count())
            .sum();
        format!(
            "{} engine(s), {pages} pages, avoidance {}, approx {}",
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

/// Builds the backend for `config` from a database and an index-builder
/// callback (invoked once per server of the simulated store; ignored by
/// the file-backed store, which always serves its recovered layout
/// through a sequential scan).
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
/// counters, and per-partition counters).
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
    let (cluster, store_dirs) = match &config.store {
        StoreChoice::Sim => (
            SharedNothingCluster::build(
                db.to_dataset()?.into_objects(),
                config.servers,
                config.metric,
                buffer_fraction,
                config.engine,
                build_index,
            ),
            Vec::new(),
        ),
        StoreChoice::File(dir) => {
            let (servers, dirs) =
                open_or_create_stores(dir, db, config.servers, buffer_fraction, config.metric)?;
            (
                SharedNothingCluster::from_servers(servers, config.engine),
                dirs,
            )
        }
    };
    let mut cluster = cluster.with_recorder(recorder);
    if let Some(tier) = config.approx {
        // One prescreen per server, over its partition-local id space; a
        // file store's binary sketch lives beside its page files.
        let prescreens: Vec<Arc<dyn CandidatePrescreen<Vector>>> = cluster
            .servers()
            .iter()
            .enumerate()
            .map(|(p, s)| {
                tier.prescreen(s.disk().database(), store_dirs.get(p).map(PathBuf::as_path))
            })
            .collect();
        cluster = cluster.with_prescreens(prescreens);
    }
    let dims = cluster
        .servers()
        .iter()
        .map(|s| dims_of(s.disk().database()))
        .find(|&d| d > 0)
        .unwrap_or(0);
    Ok(Box::new(EngineBackend {
        cluster,
        dims,
        store_dirs,
    }))
}

/// Buffer capacity matching [`mq_storage::SimulatedDisk::new`]'s fraction
/// sizing.
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

/// One server of the backend's cluster.
type VectorServer = Server<Vector, VectorMetric>;

/// One server over a durable store, served as recovered by a scan (a tree
/// would repack the pages).
fn file_server(
    store: FilePageStore<Vector, VectorCodec>,
    metric: VectorMetric,
    global_ids: Vec<ObjectId>,
) -> VectorServer {
    let scan = LinearScan::new(store.database().page_count());
    Server::from_parts(Box::new(store), Box::new(scan), metric, global_ids)
}

/// Opens or creates the durable stores under `dir`, returning one server
/// per store and the store directories, in server order.
///
/// The layout on disk wins over `servers`, so a recovered store keeps its
/// declustering:
/// - `dir` holding a segment is one server over `dir` itself, with
///   identity global ids. A `part-<i>` directory of a clustered store is
///   refused here: its answers would carry partition-local ids.
/// - `dir/part-0/` holding a segment reopens every `part-<i>`.
/// - Otherwise the store is created from `db`: in `dir` itself for one
///   server, else declustered by [`round_robin`] into `dir/part-<i>/`, so
///   answers stay bit-identical to the simulated cluster.
///
/// Each partition directory carries a [`PartitionManifest`] recording the
/// partition count, its index, and the **explicit** local→global id
/// mapping. Reopen reads the mapping back instead of deriving ids
/// positionally, and cross-checks it against the recovered store — a
/// partition mutated behind the cluster's back (offline `mq insert` on a
/// single `part-<i>/`), a missing manifest, or a duplicated global id is
/// a typed error rather than silently mis-addressed answers.
fn open_or_create_stores(
    dir: &Path,
    db: &PagedDatabase<Vector>,
    servers: usize,
    buffer_fraction: f64,
    metric: VectorMetric,
) -> Result<(Vec<VectorServer>, Vec<PathBuf>), StoreError> {
    let part_dir = |p: usize| dir.join(format!("part-{p}"));
    let partitioned = part_dir(0).join(SEGMENT_FILE).exists();
    if dir.join(SEGMENT_FILE).exists() || (servers == 1 && !partitioned) {
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
        let store = open_or_create_store(dir, db, buffer_fraction)?;
        let ids = (0..store.database().object_count() as u32)
            .map(ObjectId)
            .collect();
        return Ok((
            vec![file_server(store, metric, ids)],
            vec![dir.to_path_buf()],
        ));
    }
    let mut out = Vec::new();
    let mut dirs = Vec::new();
    if partitioned {
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
            out.push(file_server(store, metric, manifest.global_ids));
            dirs.push(pdir);
        }
    } else {
        let objects = db.to_dataset()?.into_objects();
        let ids = round_robin((0..objects.len() as u32).map(ObjectId).collect(), servers);
        let parts = round_robin(objects, servers).into_iter().zip(ids);
        for (p, (local, global_ids)) in parts.enumerate() {
            let part_db = PagedDatabase::pack(&Dataset::new(local), db.layout());
            let pages = buffer_pages(part_db.page_count(), buffer_fraction);
            let store = FilePageStore::create(part_dir(p), part_db, VectorCodec, pages)?;
            PartitionManifest {
                parts: servers as u32,
                partition: p as u32,
                global_ids: global_ids.clone(),
            }
            .save(&part_dir(p))?;
            out.push(file_server(store, metric, global_ids));
            dirs.push(part_dir(p));
        }
    }
    Ok((out, dirs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_approx::ApproxTier;
    use mq_core::{EngineOptions, QueryEngine, StatsProbe};
    use mq_index::PagePlan;
    use mq_metric::CountingMetric;
    use mq_storage::{PageId, PageLayout, SimulatedDisk};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn line_db(n: usize) -> PagedDatabase<Vector> {
        let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32])).collect());
        PagedDatabase::pack(&ds, PageLayout::new(256, 16))
    }

    fn scan_index(
        ds: &Dataset<Vector>,
    ) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>) {
        let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
        (Box::new(LinearScan::new(db.page_count())), db)
    }

    fn scan_backend(n: usize, config: &ServerConfig) -> Box<dyn QueryBackend> {
        build_backend(&line_db(n), config, 0.10, scan_index).expect("sim backend")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "mq-backend-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn pipelined_backend_agrees_with_sequential_across_batches() {
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 13.0 + 0.2]), QueryType::knn(3)))
            .collect();
        let plain = scan_backend(120, &ServerConfig::default()).execute(queries.clone());
        let config = ServerConfig::default().with_engine(EngineOptions {
            prefetch_depth: 2,
            ..EngineOptions::default()
        });
        let pipelined = scan_backend(120, &config);
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
    fn three_servers_agree_with_one() {
        let queries: Vec<(Vector, QueryType)> = (0..6)
            .map(|i| (Vector::new(vec![i as f32 * 17.0 + 0.4]), QueryType::knn(3)))
            .collect();
        let single = scan_backend(120, &ServerConfig::default()).execute(queries.clone());
        let clustered =
            scan_backend(120, &ServerConfig::default().with_servers(3)).execute(queries);
        for (a, b) in single.0.iter().zip(&clustered.0) {
            let ia: Vec<u32> = a.iter().map(|x| x.id.0).collect();
            let ib: Vec<u32> = b.iter().map(|x| x.id.0).collect();
            assert_eq!(ia, ib);
        }
    }

    /// One server evaluates on the calling thread: an index wrapper
    /// records the thread of every `plan`.
    #[test]
    fn one_server_evaluates_on_the_calling_thread() {
        struct Recording {
            scan: LinearScan,
            threads: Arc<Mutex<Vec<ThreadId>>>,
        }
        impl SimilarityIndex<Vector> for Recording {
            fn plan<'a>(&'a self, query: &'a Vector) -> Box<dyn PagePlan + 'a> {
                self.threads
                    .lock()
                    .unwrap()
                    .push(std::thread::current().id());
                self.scan.plan(query)
            }
            fn page_mindist(&self, query: &Vector, page: PageId) -> f64 {
                self.scan.page_mindist(query, page)
            }
            fn page_count(&self) -> usize {
                SimilarityIndex::<Vector>::page_count(&self.scan)
            }
            fn name(&self) -> &str {
                "recording-scan"
            }
        }
        let threads = Arc::new(Mutex::new(Vec::new()));
        let backend = build_backend(&line_db(120), &ServerConfig::default(), 0.10, |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            let index = Recording {
                scan: LinearScan::new(db.page_count()),
                threads: Arc::clone(&threads),
            };
            (Box::new(index) as Box<dyn SimilarityIndex<Vector>>, db)
        })
        .expect("sim backend");
        let queries = (0..4)
            .map(|i| (Vector::new(vec![i as f32 * 11.0]), QueryType::knn(2)))
            .collect();
        backend.execute(queries);
        let seen = threads.lock().unwrap().clone();
        assert!(!seen.is_empty(), "the engine never planned");
        assert!(
            seen.iter().all(|&t| t == std::thread::current().id()),
            "a one-server backend must not leave the calling thread"
        );
    }

    /// One server is the plain engine: its answers and every counter but
    /// the wall-clock equal a serial `QueryEngine` run over the same
    /// pages, on the simulated disk and on the file store.
    #[test]
    fn one_server_equals_a_serial_engine_over_sim_and_file_stores() {
        let db = line_db(300);
        let queries: Vec<(Vector, QueryType)> = (0..8)
            .map(|i| {
                let q = Vector::new(vec![i as f32 * 37.0 + 0.3]);
                let t = if i % 2 == 0 {
                    QueryType::knn(4)
                } else {
                    QueryType::range(6.0)
                };
                (q, t)
            })
            .collect();
        let serial = |disk: &dyn PageStore<Vector>| {
            let scan = LinearScan::new(disk.database().page_count());
            let metric = CountingMetric::new(VectorMetric::Euclidean);
            let engine = QueryEngine::new(disk, &scan, metric.clone())
                .with_options(ServerConfig::default().engine);
            let probe = StatsProbe::start(disk, metric.counter(), Default::default());
            let mut session = engine.new_session(queries.clone());
            engine.run_to_completion(&mut session);
            let stats = probe.finish(disk, session.avoidance_stats());
            (session.into_answers(), stats)
        };
        let dir = temp_dir("serial");
        let serial_file = FilePageStore::create(
            dir.join("serial"),
            db.clone(),
            VectorCodec,
            buffer_pages(db.page_count(), 0.10),
        )
        .expect("serial file store");
        let file_config = ServerConfig::default().with_store(StoreChoice::File(dir.join("served")));
        for (label, config, want) in [
            (
                "sim",
                ServerConfig::default(),
                serial(&SimulatedDisk::new(db.clone(), 0.10)),
            ),
            ("file", file_config, serial(&serial_file)),
        ] {
            let backend = build_backend(&db, &config, 0.10, scan_index).expect("backend");
            let (answers, stats) = backend.execute(queries.clone());
            assert_eq!(answers, want.0, "{label}: answers");
            assert_eq!(stats.io, want.1.io, "{label}: io");
            assert_eq!(stats.avoidance, want.1.avoidance, "{label}: avoidance");
            assert_eq!(stats.dist_calcs, want.1.dist_calcs, "{label}: dist_calcs");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_reports_the_store_directories_it_serves() {
        let dir = temp_dir("dirs");
        let db = line_db(120);
        let build = |servers: usize, sub: &str| {
            let config = ServerConfig::default()
                .with_servers(servers)
                .with_store(StoreChoice::File(dir.join(sub)));
            build_backend(&db, &config, 0.10, scan_index).expect("file backend")
        };
        assert!(scan_backend(120, &ServerConfig::default())
            .store_dirs()
            .is_empty());
        // One server is the directory itself.
        assert_eq!(build(1, "one").store_dirs(), vec![dir.join("one")]);
        // A created cluster is one part-<i> per server …
        let parts: Vec<PathBuf> = (0..3)
            .map(|p| dir.join("three").join(format!("part-{p}")))
            .collect();
        assert_eq!(build(3, "three").store_dirs(), parts);
        // … and the layout on disk wins over the configured count.
        assert_eq!(build(2, "three").store_dirs(), parts);
        assert_eq!(build(1, "three").store_dirs(), parts);
        assert_eq!(build(4, "one").store_dirs(), vec![dir.join("one")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_backends_agree_with_sim_and_survive_restart() {
        let dir = temp_dir("store");
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

        for (servers, sub) in [(1, "single"), (3, "cluster")] {
            let config = ServerConfig::default()
                .with_servers(servers)
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
        use mq_store::PARTITION_MANIFEST_FILE;
        let root = temp_dir("manifest");
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
                .with_servers(3)
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
    fn approx_tier_with_full_budget_agrees_with_exact_for_every_server_count() {
        let dir = temp_dir("approx");
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
        // answers bit-for-bit for every server count × store combination.
        let tier = ApproxTier::Bq { budget: 120 };
        for (servers, store, label) in [
            (1, StoreChoice::Sim, "single/sim"),
            (3, StoreChoice::Sim, "cluster/sim"),
            (
                1,
                StoreChoice::File(dir.join(format!("single-{tier}"))),
                "single/file",
            ),
            (
                3,
                StoreChoice::File(dir.join(format!("cluster-{tier}"))),
                "cluster/file",
            ),
        ] {
            let config = ServerConfig::default()
                .with_servers(servers)
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
