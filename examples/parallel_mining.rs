//! Multiple similarity queries on a shared-nothing cluster (paper §5.3 /
//! §6.4): decluster the database over `s` servers, scale the batch to
//! `m × s`, and compare against the sequential engine.
//!
//! ```sh
//! cargo run --release --example parallel_mining
//! ```

use mquery::core::{CostModel, StatsProbe};
use mquery::datagen::{classification_query_ids, tycho_like};
use mquery::parallel::{Declustering, SharedNothingCluster};
use mquery::prelude::*;

const N: usize = 40_000;
const BASE_M: usize = 64;

fn main() {
    let objects = tycho_like(N, 11);
    println!("astronomy database: {N} objects, 20-d; base batch m = {BASE_M}\n");
    let model = CostModel::paper_1999(20);

    // Sequential baseline on a single node.
    let dataset = Dataset::new(objects.clone());
    let (xtree, db) = XTree::bulk_load(&dataset, XTreeConfig::default());
    let disk = SimulatedDisk::new(db, 0.10);
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(&disk, &xtree, metric.clone());

    let max_s = 8usize;
    let all_ids = classification_query_ids(N, BASE_M * max_s, 5);
    let base_queries: Vec<(Vector, QueryType)> = all_ids[..BASE_M]
        .iter()
        .map(|id| (objects[id.index()].clone(), QueryType::knn(10)))
        .collect();

    disk.cold_restart();
    metric.counter().reset();
    let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
    let seq_answers = engine.multiple_similarity_query(base_queries.clone());
    let seq_stats = probe.finish(&disk, Default::default());
    let seq_per_query = model.total_seconds(&seq_stats) / BASE_M as f64;
    println!(
        "sequential multiple query (1 server, m = {BASE_M}): modeled {:.4} s/query",
        seq_per_query
    );

    // Parallel runs with proportionally scaled batches (§6.4).
    for s in [2usize, 4, 8] {
        let m = BASE_M * s;
        let queries: Vec<(Vector, QueryType)> = all_ids[..m]
            .iter()
            .map(|id| (objects[id.index()].clone(), QueryType::knn(10)))
            .collect();
        let cluster = SharedNothingCluster::build(
            &objects,
            s,
            Declustering::RoundRobin,
            Euclidean,
            0.10,
            EngineOptions::default(),
            |ds: &Dataset<Vector>| {
                let (tree, db) = XTree::bulk_load(ds, XTreeConfig::default());
                (Box::new(tree) as Box<dyn SimilarityIndex<Vector>>, db)
            },
        );
        let (answers, stats) = cluster.multiple_query(&queries);
        // Sanity: the first BASE_M answers match the sequential run.
        for (i, seq) in seq_answers.iter().enumerate() {
            let par_ids: Vec<ObjectId> = answers[i].iter().map(|a| a.id).collect();
            let seq_ids: Vec<ObjectId> = seq.iter().map(|a| a.id).collect();
            assert_eq!(par_ids, seq_ids, "parallel answers must match sequential");
        }
        let max_server = stats.max_modeled_seconds(|st| model.total_seconds(st));
        let per_query = max_server / m as f64;
        println!(
            "parallel ({s} servers, m = {m:>4}): modeled {per_query:.4} s/query, \
             speed-up {:.2}x, wall-clock {:.2} s",
            seq_per_query / per_query,
            stats.elapsed.as_secs_f64()
        );
    }
    println!("\nanswers verified identical on every cluster size.");
}
