//! The shared experiment drivers behind the figure binaries.
//!
//! Figures 7–10 all stem from one *m*-sweep (per database, per access
//! method, per block size); Figures 11–12 stem from one *s*-sweep on the
//! shared-nothing cluster. Each binary formats a different projection of
//! these sweeps.

use crate::run::{run_blocked, run_singles};
use crate::setup::{BenchDb, BenchEnv, Method};
use mq_core::{CostModel, ExecutionStats, QueryType};
use mq_datagen::{classification_query_ids, ExplorationConfig};
use mq_index::{LinearScan, SimilarityIndex, XTree, XTreeConfig};
use mq_metric::Vector;
use mq_mining::exploration_trace;
use mq_parallel::SharedNothingCluster;
use mq_storage::{Dataset, PageLayout, PagedDatabase};

/// The block sizes of the paper's m-sweep figures.
pub const PAPER_MS: [usize; 6] = [1, 10, 20, 40, 50, 100];

/// The server counts of the paper's parallel figures.
pub const PAPER_SS: [usize; 4] = [1, 4, 8, 16];

/// Queries per server block in the parallel experiments (paper: 100).
pub const PARALLEL_BASE_M: usize = 100;

/// One measured point of the m-sweep.
pub struct SweepPoint {
    /// Database name.
    pub db: &'static str,
    /// Database dimensionality.
    pub dim: usize,
    /// Access method.
    pub method: Method,
    /// Block size (m = 1 means true single queries via Fig. 1).
    pub m: usize,
    /// Number of queries in the workload.
    pub queries: usize,
    /// Aggregate counters.
    pub stats: ExecutionStats,
}

impl SweepPoint {
    /// The cost model matching this point's dimensionality.
    pub fn model(&self) -> CostModel {
        CostModel::paper_1999(self.dim)
    }

    /// Modeled I/O seconds per query.
    pub fn io_per_query(&self) -> f64 {
        self.model().io_seconds(&self.stats) / self.queries as f64
    }

    /// Modeled CPU seconds per query.
    pub fn cpu_per_query(&self) -> f64 {
        self.model().cpu_seconds(&self.stats) / self.queries as f64
    }

    /// Modeled total seconds per query.
    pub fn total_per_query(&self) -> f64 {
        self.io_per_query() + self.cpu_per_query()
    }

    /// Physical page reads per query.
    pub fn reads_per_query(&self) -> f64 {
        self.stats.io.physical_reads as f64 / self.queries as f64
    }

    /// Distance calculations per query.
    pub fn dists_per_query(&self) -> f64 {
        self.stats.dist_calcs as f64 / self.queries as f64
    }

    /// Measured wall-clock seconds per query.
    pub fn measured_per_query(&self) -> f64 {
        self.stats.elapsed.as_secs_f64() / self.queries as f64
    }
}

/// The §6 workload of one database: independent classification queries on
/// the astronomy data, one dependent c-user exploration round on the image
/// data (m = c × k = 100 queries per round).
pub fn workload(db: &BenchDb, total: usize, seed: u64) -> Vec<(Vector, QueryType)> {
    let k = db.paper_k();
    if db.name == "astronomy" {
        let ids = classification_query_ids(db.objects.len(), total.min(db.objects.len()), seed);
        db.knn_queries(&ids, k)
    } else {
        // Manual exploration: c = 5 users, k = 20 ⇒ 100 dependent queries
        // per round; as many rounds as needed for `total`.
        // Round 1 only queries the c start objects; later rounds issue
        // c × k = 100 queries each, so overshoot by one round.
        let per_round = 100;
        let rounds = total.div_ceil(per_round) + 1;
        let cfg = ExplorationConfig {
            users: 5,
            k,
            rounds,
            seed,
        };
        let engine = db.scan.engine();
        let trace = exploration_trace(&engine, &cfg);
        let mut ids: Vec<mq_metric::ObjectId> = Vec::with_capacity(total);
        // Skip round 0 (the c start objects); rounds 1.. are the dependent
        // prefetch batches the paper measures.
        for round in trace.iter().skip(1) {
            ids.extend(round.iter().copied());
            if ids.len() >= total {
                break;
            }
        }
        ids.truncate(total);
        db.knn_queries(&ids, k)
    }
}

/// Runs the m-sweep on both databases and both access methods.
pub fn m_sweep(env: &BenchEnv, ms: &[usize], total: usize) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for db in env.dbs() {
        let queries = workload(db, total, env.seed);
        for rig in db.rigs() {
            for &m in ms {
                let run = if m == 1 {
                    run_singles(rig, &queries)
                } else {
                    run_blocked(rig, &queries, m, true)
                };
                out.push(SweepPoint {
                    db: db.name,
                    dim: db.dim,
                    method: rig.method,
                    m,
                    queries: run.queries,
                    stats: run.stats,
                });
            }
        }
    }
    out
}

/// One measured point of the parallel s-sweep.
pub struct ParallelPoint {
    /// Database name.
    pub db: &'static str,
    /// Database dimensionality.
    pub dim: usize,
    /// Access method.
    pub method: Method,
    /// Number of servers.
    pub s: usize,
    /// Queries in the block (`100·s`).
    pub queries: usize,
    /// Modeled seconds of the dominant server (simulated parallel
    /// wall-clock).
    pub max_server_seconds: f64,
    /// Measured wall-clock of the parallel run.
    pub measured_seconds: f64,
    /// Per-query modeled cost of the **sequential multiple** baseline
    /// (m = 100, one server) — the Fig. 11 denominator.
    pub seq_multiple_per_query: f64,
    /// Per-query modeled cost of the **sequential single** baseline —
    /// the Fig. 12 denominator.
    pub seq_single_per_query: f64,
}

impl ParallelPoint {
    /// Modeled parallel cost per query.
    pub fn parallel_per_query(&self) -> f64 {
        self.max_server_seconds / self.queries as f64
    }

    /// Fig. 11: speed-up of parallel multiple vs. sequential multiple.
    pub fn parallel_speedup(&self) -> f64 {
        self.seq_multiple_per_query / self.parallel_per_query()
    }

    /// Fig. 12: overall speed-up vs. sequential single queries.
    pub fn overall_speedup(&self) -> f64 {
        self.seq_single_per_query / self.parallel_per_query()
    }
}

fn index_builder(
    method: Method,
) -> impl Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>) {
    move |ds: &Dataset<Vector>| match method {
        Method::Scan => {
            let db = PagedDatabase::pack(ds, PageLayout::PAPER);
            (
                Box::new(LinearScan::new(db.page_count())) as Box<dyn SimilarityIndex<Vector>>,
                db,
            )
        }
        Method::XTree => {
            let (tree, db) = XTree::bulk_load(ds, XTreeConfig::default());
            (Box::new(tree) as Box<dyn SimilarityIndex<Vector>>, db)
        }
    }
}

/// Runs the parallel s-sweep on both databases and both access methods,
/// scaling the block to `100·s` queries as in §6.4.
pub fn parallel_sweep(env: &BenchEnv, ss: &[usize]) -> Vec<ParallelPoint> {
    let max_s = ss.iter().copied().max().unwrap_or(1);
    let mut out = Vec::new();
    for db in env.dbs() {
        let model = db.cost_model();
        let all_queries = workload(db, PARALLEL_BASE_M * max_s, env.seed);
        let base: Vec<_> = all_queries.iter().take(PARALLEL_BASE_M).cloned().collect();
        for rig in db.rigs() {
            // Sequential baselines on the single-node rig.
            let seq_multiple = run_blocked(rig, &base, PARALLEL_BASE_M, true);
            let seq_multiple_per_query =
                model.total_seconds(&seq_multiple.stats) / seq_multiple.queries as f64;
            let seq_single = run_singles(rig, &base);
            let seq_single_per_query =
                model.total_seconds(&seq_single.stats) / seq_single.queries as f64;

            for &s in ss {
                let m = PARALLEL_BASE_M * s;
                let block: Vec<_> = all_queries.iter().take(m).cloned().collect();
                let cluster = SharedNothingCluster::build(
                    db.objects.clone(),
                    s,
                    mq_metric::Euclidean,
                    0.10,
                    mq_core::EngineOptions::default(),
                    index_builder(rig.method),
                );
                let (_, stats) = cluster.multiple_query(&block);
                let max_server_seconds = stats.max_modeled_seconds(|st| model.total_seconds(st));
                out.push(ParallelPoint {
                    db: db.name,
                    dim: db.dim,
                    method: rig.method,
                    s,
                    queries: m,
                    max_server_seconds,
                    measured_seconds: stats.elapsed.as_secs_f64(),
                    seq_multiple_per_query,
                    seq_single_per_query,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_sweep_small_env() {
        let env = BenchEnv::build(400, 300, 11);
        let points = m_sweep(&env, &[1, 4], 8);
        // 2 dbs × 2 methods × 2 ms.
        assert_eq!(points.len(), 8);
        for p in &points {
            assert_eq!(p.queries, 8);
            assert!(p.total_per_query() > 0.0);
            assert!(p.io_per_query() >= 0.0);
        }
        // Multiple queries never cost more I/O than singles on the scan.
        let scan_points: Vec<&SweepPoint> = points
            .iter()
            .filter(|p| p.method == Method::Scan && p.db == "astronomy")
            .collect();
        let single = scan_points.iter().find(|p| p.m == 1).unwrap();
        let multi = scan_points.iter().find(|p| p.m == 4).unwrap();
        assert!(multi.reads_per_query() <= single.reads_per_query());
    }

    #[test]
    fn parallel_sweep_small_env() {
        let env = BenchEnv::build(400, 300, 13);
        let points = parallel_sweep(&env, &[1, 2]);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.parallel_per_query() > 0.0);
            assert!(p.parallel_speedup() > 0.0);
            assert!(p.overall_speedup() > 0.0);
        }
    }

    #[test]
    fn workload_shapes() {
        let env = BenchEnv::build(300, 250, 17);
        let astro = workload(&env.astro, 20, 1);
        assert_eq!(astro.len(), 20);
        assert!(astro.iter().all(|(_, t)| t.cardinality == 10));
        let image = workload(&env.image, 120, 1);
        assert_eq!(image.len(), 120);
        assert!(image.iter().all(|(_, t)| t.cardinality == 20));
    }
}
