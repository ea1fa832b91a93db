//! Degraded-cluster semantics: a killed server becomes an explicitly
//! marked missing partition — never a panic, never a hang, never a
//! silently complete answer set.

use mq_core::{EngineOptions, FaultPolicy, QueryEngine, QueryType};
use mq_datagen::uniform_vectors;
use mq_index::{LinearScan, PagePlan, SimilarityIndex};
use mq_metric::{Euclidean, ObjectId, Vector};
use mq_parallel::{round_robin, SharedNothingCluster};
use mq_storage::{Dataset, PageId, PageLayout, PagedDatabase, SimulatedDisk};
use mq_testkit::scenario;
use std::sync::atomic::{AtomicUsize, Ordering};

const SERVERS: usize = 3;

fn layout() -> PageLayout {
    PageLayout::new(256, 16)
}

/// The default engine block with the given transient-fault retry budget.
fn retrying(retry_budget: u32) -> EngineOptions {
    EngineOptions {
        fault_policy: FaultPolicy::new(retry_budget),
        ..EngineOptions::default()
    }
}

fn build_cluster(
    objects: &[Vector],
    options: EngineOptions,
) -> SharedNothingCluster<Vector, Euclidean> {
    SharedNothingCluster::build(
        objects.to_vec(),
        SERVERS,
        Euclidean,
        0.1,
        options,
        |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, layout());
            let scan = LinearScan::new(db.page_count());
            (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
        },
    )
}

fn workload(seed: u64) -> (Vec<Vector>, Vec<(Vector, QueryType)>) {
    let objects = uniform_vectors(360, 4, seed);
    let queries = objects
        .iter()
        .step_by(47)
        .take(7)
        .enumerate()
        .map(|(i, v)| {
            let qtype = if i % 2 == 0 {
                QueryType::knn(5)
            } else {
                QueryType::range(0.25)
            };
            (v.clone(), qtype)
        })
        .collect();
    (objects, queries)
}

/// Reference: answers over the union of the *surviving* partitions,
/// computed by one plain engine over that union. Merging the reachable
/// servers must equal this exactly.
fn surviving_reference(
    objects: &[Vector],
    dead_server: usize,
    queries: &[(Vector, QueryType)],
) -> Vec<Vec<(ObjectId, f64)>> {
    let parts = round_robin((0..objects.len() as u32).map(ObjectId).collect(), SERVERS);
    let mut global_ids: Vec<ObjectId> = Vec::new();
    for (si, part) in parts.iter().enumerate() {
        if si != dead_server {
            global_ids.extend(part.iter().copied());
        }
    }
    let survivors: Vec<Vector> = global_ids
        .iter()
        .map(|id| objects[id.0 as usize].clone())
        .collect();
    let ds = Dataset::new(survivors);
    let db = PagedDatabase::pack(&ds, layout());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 4);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    queries
        .iter()
        .map(|(q, t)| {
            engine
                .similarity_query(q, t)
                .as_slice()
                .iter()
                .map(|a| (global_ids[a.id.0 as usize], a.distance))
                .collect()
        })
        .collect()
}

#[test]
fn one_dead_server_is_marked_and_survivors_answer_exactly() {
    for seed in [1u64, 9, 17] {
        let (objects, queries) = workload(seed);
        let cluster = build_cluster(&objects, retrying(2));
        let dead = (seed as usize) % SERVERS;
        cluster.servers()[dead]
            .disk()
            .set_fault_plan(Some(scenario::loss_plan(seed, 0)));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert!(!degraded.is_complete(), "seed {seed}");
        assert_eq!(degraded.missing_partitions, vec![dead], "seed {seed}");
        assert!(
            degraded.failure_reasons[0].contains("unavailable"),
            "seed {seed}: {}",
            degraded.failure_reasons[0]
        );
        let reference = surviving_reference(&objects, dead, &queries);
        for (qi, (got, want)) in degraded.answers.iter().zip(&reference).enumerate() {
            let got_pairs: Vec<(ObjectId, f64)> = got.iter().map(|a| (a.id, a.distance)).collect();
            assert_eq!(
                &got_pairs, want,
                "seed {seed}, query {qi}: degraded merge must equal a plain engine over the survivors"
            );
        }
    }
}

#[test]
fn transient_faults_with_budget_keep_the_cluster_complete() {
    let (objects, queries) = workload(5);
    let cluster = build_cluster(&objects, retrying(4));
    let healthy = cluster.multiple_query_degraded(&queries);
    assert!(healthy.is_complete());
    for server in cluster.servers() {
        server.disk().set_fault_plan(Some(scenario::disk_plan(5)));
    }
    let faulty = cluster.multiple_query_degraded(&queries);
    assert!(faulty.is_complete(), "{:?}", faulty.failure_reasons);
    assert_eq!(faulty.answers, healthy.answers, "retries must be invisible");
}

#[test]
fn every_server_dead_yields_all_partitions_missing_not_a_hang() {
    let (objects, queries) = workload(3);
    let cluster = build_cluster(&objects, retrying(2));
    for (si, server) in cluster.servers().iter().enumerate() {
        server
            .disk()
            .set_fault_plan(Some(scenario::loss_plan(si as u64, 0)));
    }
    let degraded = cluster.multiple_query_degraded(&queries);
    assert_eq!(degraded.missing_partitions, vec![0, 1, 2]);
    assert_eq!(degraded.failure_reasons.len(), SERVERS);
    // With nothing reachable every query's merged answer list is empty.
    assert!(degraded.answers.iter().all(|a| a.is_empty()));
}

#[test]
fn degraded_mode_holds_across_engine_configs() {
    let (objects, queries) = workload(13);
    for depth in [0usize, 2] {
        let cluster = build_cluster(
            &objects,
            EngineOptions {
                prefetch_depth: depth,
                ..retrying(2)
            },
        );
        cluster.servers()[1]
            .disk()
            .set_fault_plan(Some(scenario::loss_plan(13, 0)));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert_eq!(degraded.missing_partitions, vec![1], "depth {depth}");
        let reference = surviving_reference(&objects, 1, &queries);
        for (got, want) in degraded.answers.iter().zip(&reference) {
            let got_pairs: Vec<(ObjectId, f64)> = got.iter().map(|a| (a.id, a.distance)).collect();
            assert_eq!(&got_pairs, want, "depth {depth}");
        }
    }
}

/// A linear scan that panics when asked to plan: stands in for any bug
/// that unwinds inside one partition's engine.
struct PanickingScan(LinearScan);

impl SimilarityIndex<Vector> for PanickingScan {
    fn plan<'a>(&'a self, _query: &'a Vector) -> Box<dyn PagePlan + 'a> {
        panic!("injected partition bug");
    }

    fn page_mindist(&self, query: &Vector, page: PageId) -> f64 {
        self.0.page_mindist(query, page)
    }

    fn page_count(&self) -> usize {
        SimilarityIndex::<Vector>::page_count(&self.0)
    }

    fn name(&self) -> &str {
        "panicking-scan"
    }
}

#[test]
fn dead_inline_partition_is_marked_and_survivors_answer_exactly() {
    // Partition 0 runs on the calling thread; losing its disk must be
    // reported exactly like losing a spawned partition.
    let (objects, queries) = workload(23);
    let cluster = build_cluster(&objects, retrying(2));
    cluster.servers()[0]
        .disk()
        .set_fault_plan(Some(scenario::loss_plan(23, 0)));
    let degraded = cluster.multiple_query_degraded(&queries);
    assert_eq!(degraded.missing_partitions, vec![0]);
    assert!(
        degraded.failure_reasons[0].contains("unavailable"),
        "{}",
        degraded.failure_reasons[0]
    );
    let reference = surviving_reference(&objects, 0, &queries);
    for (got, want) in degraded.answers.iter().zip(&reference) {
        let got_pairs: Vec<(ObjectId, f64)> = got.iter().map(|a| (a.id, a.distance)).collect();
        assert_eq!(&got_pairs, want);
    }
}

#[test]
fn panicking_inline_partition_is_a_missing_partition_not_a_crash() {
    let (objects, queries) = workload(29);
    let built = AtomicUsize::new(0);
    let cluster = SharedNothingCluster::build(
        objects.clone(),
        SERVERS,
        Euclidean,
        0.1,
        retrying(2),
        |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, layout());
            let scan = LinearScan::new(db.page_count());
            // The first server built is partition 0, the inline one.
            let index: Box<dyn SimilarityIndex<Vector>> =
                if built.fetch_add(1, Ordering::Relaxed) == 0 {
                    Box::new(PanickingScan(scan))
                } else {
                    Box::new(scan)
                };
            (index, db)
        },
    );
    let degraded = cluster.multiple_query_degraded(&queries);
    assert_eq!(degraded.missing_partitions, vec![0]);
    assert!(
        degraded.failure_reasons[0].contains("panicked"),
        "{}",
        degraded.failure_reasons[0]
    );
    let reference = surviving_reference(&objects, 0, &queries);
    for (got, want) in degraded.answers.iter().zip(&reference) {
        let got_pairs: Vec<(ObjectId, f64)> = got.iter().map(|a| (a.id, a.distance)).collect();
        assert_eq!(&got_pairs, want);
    }
}
