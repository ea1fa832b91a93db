//! Ablations of the design choices called out in DESIGN.md:
//!
//! * **buffer size** — the paper fixes the LRU buffer at 10 % of the
//!   pages; sweep the fraction to show its effect on a dependent workload;
//! * **incremental vs. batch-complete evaluation** — §5.1 argues the
//!   incremental scheme wins when query objects arrive dynamically
//!   (ExploreNeighborhoods); compare DBSCAN under both;
//! * **declustering strategy** — round-robin vs. chunk partitioning for
//!   the parallel engine (the §7 future-work knob);
//! * **avoidance** — one block of k-NN queries with the §5.2 triangle
//!   inequality avoidance on and off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mq_core::{EngineOptions, QueryEngine, QueryType};
use mq_datagen::{classification_query_ids, image_histograms_config};
use mq_index::{LinearScan, SimilarityIndex, XTree, XTreeConfig};
use mq_metric::{Euclidean, Vector};
use mq_mining::Dbscan;
use mq_parallel::SharedNothingCluster;
use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
use std::hint::black_box;

fn clustered(n: usize) -> Dataset<Vector> {
    Dataset::new(image_histograms_config(n, 64, 40, 0.004, 11))
}

fn bench_buffer_fraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-buffer-fraction");
    group.sample_size(10);
    let ds = clustered(4_000);
    let queries: Vec<(Vector, QueryType)> = (0..48)
        .map(|i| {
            (
                ds.object(mq_metric::ObjectId(i * 53)).clone(),
                QueryType::knn(20),
            )
        })
        .collect();
    for &fraction in &[0.01f64, 0.10, 0.50] {
        let (tree, db) = XTree::bulk_load(&ds, XTreeConfig::default());
        let disk = SimulatedDisk::new(db, fraction);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}%", fraction * 100.0)),
            &fraction,
            |b, _| {
                b.iter(|| {
                    for (q, t) in &queries {
                        black_box(engine.similarity_query(q, t));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_incremental_vs_single_dbscan(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-dbscan-mode");
    group.sample_size(10);
    let ds = clustered(1_500);
    let db = PagedDatabase::pack(&ds, Default::default());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    let dbscan = Dbscan::new(0.05, 4);
    group.bench_function("single-queries", |b| {
        b.iter(|| black_box(dbscan.run_single(&engine)))
    });
    group.bench_function("multiple-incremental", |b| {
        b.iter(|| black_box(dbscan.run_multiple(&engine, 64)))
    });
    group.finish();
}

/// The same batch on `s` round-robin servers: `s = 1` is the single
/// engine, larger `s` splits the data and runs the servers concurrently.
fn bench_cluster_servers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-cluster-servers");
    group.sample_size(10);
    let ds = clustered(4_000);
    let objects = ds.objects().to_vec();
    let queries: Vec<(Vector, QueryType)> = (0..64)
        .map(|i| (objects[i * 31].clone(), QueryType::knn(20)))
        .collect();
    for s in [1usize, 2, 4] {
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            s,
            Euclidean,
            0.1,
            EngineOptions::default(),
            |ds: &Dataset<Vector>| {
                let db = PagedDatabase::pack(ds, Default::default());
                let scan = LinearScan::new(db.page_count());
                (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| black_box(cluster.multiple_query(&queries)))
        });
    }
    group.finish();
}

fn bench_avoidance_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("avoidance-ablation");
    group.sample_size(10);
    // Clustered 64-d data: the avoidance sweet spot (§6.2).
    let ds = Dataset::new(image_histograms_config(6_000, 64, 80, 0.004, 3));
    let db = PagedDatabase::pack(&ds, Default::default());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let queries: Vec<(Vector, QueryType)> = classification_query_ids(ds.len(), 64, 7)
        .into_iter()
        .map(|id| (ds.object(id).clone(), QueryType::knn(20)))
        .collect();
    group.throughput(Throughput::Elements(64));
    group.bench_function("with-avoidance", |b| {
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        b.iter(|| black_box(engine.multiple_similarity_query(queries.clone())))
    });
    group.bench_function("without-avoidance", |b| {
        let engine = QueryEngine::new(&disk, &scan, Euclidean).with_options(EngineOptions {
            avoidance: false,
            ..EngineOptions::default()
        });
        b.iter(|| black_box(engine.multiple_similarity_query(queries.clone())))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_avoidance_ablation,
    bench_buffer_fraction,
    bench_incremental_vs_single_dbscan,
    bench_cluster_servers
);
criterion_main!(benches);
