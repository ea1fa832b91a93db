//! Persist-then-serve observability test: save a database to disk as a
//! store directory, load and serve it over loopback with a wired recorder,
//! push a batch of client queries through, then scrape the metrics
//! endpoint and check that the exposition parses and carries the series
//! every layer was supposed to register.

use mq_core::QueryType;
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_metric::{ObjectId, Vector};
use mq_obs::{Recorder, Registry};
use mq_server::{build_backend_with_recorder, Client, ExecutionMode, ServerConfig, StoreChoice};
use mq_storage::{PageLayout, PagedDatabase, VectorCodec};
use mq_store::FilePageStore;
use std::sync::Arc;

mod common;
use common::{wait_until, Gate, GatedBackend};

/// Saves a fresh database as a store directory under a unique temp path
/// and loads it back — the `mq generate` → `mq serve` workflow without
/// the CLI.
fn persisted_db(tag: &str, n: usize) -> PagedDatabase<Vector> {
    let dir =
        std::env::temp_dir().join(format!("mq-stats-endpoint-{}-{tag}-db", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = common::dataset(n, 0x9e37_79b9_7f4a_7c15);
    let db = PagedDatabase::pack(&ds, PageLayout::new(512, 16));
    drop(FilePageStore::create(&dir, db, VectorCodec, 1).expect("save database"));
    let loaded = mq_store::load(&dir, &VectorCodec).expect("load database");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(loaded.object_count(), n);
    loaded
}

/// Every non-comment line of a Prometheus exposition is `series value`
/// with a parseable finite f64 value.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in line: {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in line: {line}"));
        assert!(value.is_finite(), "non-finite value in line: {line}");
        samples.push((series.to_string(), value));
    }
    samples
}

fn value(samples: &[(String, f64)], series: &str) -> f64 {
    samples
        .iter()
        .find(|(s, _)| s == series)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("series {series} missing from scrape"))
}

fn sum_with_prefix(samples: &[(String, f64)], prefix: &str) -> f64 {
    samples
        .iter()
        .filter(|(s, _)| s.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Fires `n` concurrent single-query clients and holds them behind the
/// first batch until all are queued, so the scheduler actually forms
/// multi-query batches (the waiting clients are what the paper's m-block
/// batches online).
fn run_queries(server: &FrontServer, gate: &Gate, db: &PagedDatabase<Vector>, n: usize) {
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for i in 0..n {
            let q = db
                .object(ObjectId((i * 37 % db.object_count()) as u32))
                .clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client
                    .query(&q, &QueryType::knn(5))
                    .expect("query over loopback");
                assert_eq!(reply.answers.len(), 5);
            });
        }
        wait_until("every client is queued", || server.in_flight() == n as u64);
        gate.open();
    });
}

#[test]
fn persisted_database_serves_scrapeable_metrics() {
    let db = persisted_db("single", 600);
    let mut config = ServerConfig::default().with_max_batch(4);
    config.engine.prefetch_depth = 2;
    let registry = Arc::new(Registry::new());
    let recorder = Recorder::new(Arc::clone(&registry));
    let layout = db.layout();
    let backend = build_backend_with_recorder(&db, &config, 0.10, &recorder, move |ds| {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())) as _, db)
    })
    .expect("backend");
    let (backend, gate) = GatedBackend::new(backend);
    let mut server = FrontServer::bind_with_recorder("127.0.0.1:0", backend, &config, &recorder)
        .expect("bind loopback");

    run_queries(&server, &gate, &db, 12);

    let text = Client::connect(server.local_addr())
        .expect("connect for scrape")
        .metrics()
        .expect("metrics scrape");
    let samples = parse_exposition(&text);

    // Distance calculations: performed vs. avoided, plus avoidance tries.
    let performed = value(
        &samples,
        "mq_core_distance_calculations_total{outcome=\"performed\"}",
    );
    assert!(performed > 0.0, "no distance calculations recorded");
    let avoided = value(
        &samples,
        "mq_core_distance_calculations_total{outcome=\"avoided\"}",
    );
    assert!(avoided > 0.0, "batched kNN should avoid some calculations");
    assert!(value(&samples, "mq_core_avoidance_tries_total") >= avoided);
    assert_eq!(value(&samples, "mq_core_queries_completed_total"), 12.0);

    // Buffer hit ratio: the derived gauge and its raw counters agree.
    let hits = value(
        &samples,
        "mq_storage_buffer_reads_total{outcome=\"hit\",policy=\"lru\"}",
    );
    let misses = value(
        &samples,
        "mq_storage_buffer_reads_total{outcome=\"miss\",policy=\"lru\"}",
    );
    assert!(hits + misses > 0.0);
    let ratio = value(&samples, "mq_storage_buffer_hit_ratio{policy=\"lru\"}");
    assert!((ratio - hits / (hits + misses)).abs() < 1e-9);

    // Prefetch hit ratio exists (depth 2 was configured).
    let prefetched = value(&samples, "mq_storage_prefetch_reads_total{policy=\"lru\"}");
    assert!(prefetched > 0.0, "prefetch depth 2 must stage pages");
    assert!(value(&samples, "mq_storage_prefetch_hit_ratio{policy=\"lru\"}") >= 0.0);

    // Scheduler batch-size histogram: its count equals the flush count
    // and the recorded queries match what the clients sent.
    let batch_count = value(&samples, "mq_server_batch_size_count");
    assert!(batch_count > 0.0);
    let flushes = sum_with_prefix(&samples, "mq_server_batches_total");
    assert_eq!(batch_count, flushes);
    assert_eq!(value(&samples, "mq_server_queries_total"), 12.0);
    assert!(value(&samples, "mq_server_queue_wait_seconds_count") == 12.0);

    // Stage spans fired.
    for stage in ["step", "page_fetch", "kernel_eval", "merge"] {
        let count = value(
            &samples,
            &format!("mq_core_stage_seconds_count{{stage=\"{stage}\"}}"),
        );
        assert!(count > 0.0, "stage {stage} never recorded");
    }

    // The in-process render agrees with the wire scrape modulo counters
    // still moving (it is taken after, so every counter is >=).
    assert!(!server.render_metrics().is_empty());
    server.shutdown();
}

#[test]
fn cluster_mode_scrape_reports_per_partition_counts() {
    let db = persisted_db("cluster", 600);
    let config = ServerConfig::default()
        .with_max_batch(4)
        .with_mode(ExecutionMode::Cluster { servers: 3 });
    let registry = Arc::new(Registry::new());
    let recorder = Recorder::new(Arc::clone(&registry));
    let layout = db.layout();
    let backend = build_backend_with_recorder(&db, &config, 0.10, &recorder, move |ds| {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())) as _, db)
    })
    .expect("backend");
    let (backend, gate) = GatedBackend::new(backend);
    let mut server = FrontServer::bind_with_recorder("127.0.0.1:0", backend, &config, &recorder)
        .expect("bind loopback");

    run_queries(&server, &gate, &db, 9);

    let text = Client::connect(server.local_addr())
        .expect("connect for scrape")
        .metrics()
        .expect("metrics scrape");
    let samples = parse_exposition(&text);

    // Every query reached every reachable partition.
    for partition in 0..3 {
        let q = value(
            &samples,
            &format!("mq_cluster_partition_queries_total{{partition=\"{partition}\"}}"),
        );
        assert_eq!(q, 9.0, "partition {partition}");
        assert!(
            value(
                &samples,
                &format!(
                    "mq_cluster_partition_distance_calculations_total{{partition=\"{partition}\"}}"
                ),
            ) > 0.0
        );
    }
    server.shutdown();
}

#[test]
fn file_store_scrape_reports_store_series() {
    let db = persisted_db("filestore", 400);
    let dir = std::env::temp_dir().join(format!("mq-stats-endpoint-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::default()
        .with_max_batch(2)
        .with_store(StoreChoice::File(dir.clone()));
    let registry = Arc::new(Registry::new());
    let recorder = Recorder::new(Arc::clone(&registry));
    let layout = db.layout();
    let backend = build_backend_with_recorder(&db, &config, 0.10, &recorder, move |ds| {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())) as _, db)
    })
    .expect("backend");
    let (backend, gate) = GatedBackend::new(backend);
    let mut server = FrontServer::bind_with_recorder("127.0.0.1:0", backend, &config, &recorder)
        .expect("bind loopback");

    run_queries(&server, &gate, &db, 4);

    let text = Client::connect(server.local_addr())
        .expect("connect for scrape")
        .metrics()
        .expect("metrics scrape");
    let samples = parse_exposition(&text);

    // A fresh store was just created: the segment write fsync'd, and no
    // WAL record has ever been appended, replayed, or checkpointed away.
    assert!(value(&samples, "mq_store_fsyncs_total") >= 1.0);
    assert_eq!(value(&samples, "mq_store_wal_appends_total"), 0.0);
    assert_eq!(
        value(&samples, "mq_store_recovery_replayed_records_total"),
        0.0
    );
    assert_eq!(value(&samples, "mq_store_checkpoints_total"), 0.0);
    assert_eq!(value(&samples, "mq_store_page_rewrites_total"), 0.0);

    // The query path over the file store registers the same engine and
    // buffer series the simulated backend does.
    assert!(
        value(
            &samples,
            "mq_core_distance_calculations_total{outcome=\"performed\"}",
        ) > 0.0
    );
    assert!(
        sum_with_prefix(&samples, "mq_storage_buffer_reads_total") > 0.0,
        "file-backed reads must hit the same buffer accounting"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_without_recorder_returns_empty_exposition() {
    let db = persisted_db("plain", 200);
    let config = ServerConfig::default().with_max_batch(2);
    let layout = db.layout();
    let backend = mq_server::build_backend(&db, &config, 0.10, move |ds| {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())) as _, db)
    })
    .expect("backend");
    let (backend, gate) = GatedBackend::new(backend);
    let mut server = FrontServer::bind("127.0.0.1:0", backend, &config).expect("bind loopback");
    run_queries(&server, &gate, &db, 2);
    let text = Client::connect(server.local_addr())
        .expect("connect")
        .metrics()
        .expect("metrics");
    assert!(text.is_empty(), "no recorder, no series: {text:?}");
    server.shutdown();
}
