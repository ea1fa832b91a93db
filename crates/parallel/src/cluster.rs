//! The shared-nothing cluster: parallel execution of multiple similarity
//! queries (§5.3).

use crate::merge::merge_answers;
use crate::partition::round_robin;
use crate::server::Server;
use mq_core::{
    Answer, EngineError, EngineObs, EngineOptions, ExecutionStats, QueryEngine, QueryType,
    StatsProbe,
};
use mq_index::SimilarityIndex;
use mq_metric::{Metric, ObjectId};
use mq_obs::{Counter, Recorder};
use mq_storage::{Dataset, PagedDatabase, StorageObject};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One server's outcome: its per-query answers and stats, or the reason
/// the partition is unreachable.
type ServerRun = Result<(Vec<Vec<Answer>>, ExecutionStats), String>;

/// Statistics of one parallel multiple-query run.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Per-server execution statistics (I/O, distance calculations,
    /// triangle-inequality counters), in server order.
    pub per_server: Vec<ExecutionStats>,
    /// Measured wall-clock of the whole parallel run.
    pub elapsed: std::time::Duration,
}

/// The result of a fault-tolerant cluster run: global answers merged from
/// every *reachable* server, plus an explicit record of the partitions
/// that failed. A degraded result is never silently complete — callers
/// must check [`is_complete`](Self::is_complete) (or `missing_partitions`)
/// before treating the answers as the full Definition 4 result.
#[derive(Clone, Debug)]
pub struct DegradedAnswers {
    /// Global answers per query, merged over the servers that responded —
    /// the best answers computable from the reachable part of the
    /// database. With missing partitions, a range query returns a subset
    /// of the full result; a k-NN query returns the k nearest *reachable*
    /// objects (never nearer than the full result at any rank).
    pub answers: Vec<Vec<Answer>>,
    /// Statistics of the run; failed servers report
    /// [`ExecutionStats::default`] in their slot of `per_server`.
    pub stats: ClusterStats,
    /// Indices (server order) of the partitions that failed, ascending.
    /// Empty means the result is complete.
    pub missing_partitions: Vec<usize>,
    /// Human-readable reason per missing partition, parallel to
    /// `missing_partitions` (engine error display or panic note).
    pub failure_reasons: Vec<String>,
}

impl DegradedAnswers {
    /// Whether every partition contributed — i.e. the answers are the
    /// complete multiple-query result, not a degraded subset.
    pub fn is_complete(&self) -> bool {
        self.missing_partitions.is_empty()
    }
}

impl ClusterStats {
    /// Sum over servers — the work a single machine would have done.
    pub fn total(&self) -> ExecutionStats {
        self.per_server
            .iter()
            .fold(ExecutionStats::default(), |acc, s| acc + *s)
    }

    /// The dominant server under a cost function — the simulated
    /// wall-clock of the parallel run (§5.3: servers run concurrently, so
    /// the cluster finishes with its slowest server).
    pub fn max_modeled_seconds(&self, cost: impl Fn(&ExecutionStats) -> f64) -> f64 {
        self.per_server.iter().map(cost).fold(0.0, f64::max)
    }
}

/// Pre-registered per-partition instruments: one series per server under
/// a `partition` label, so a scrape shows how evenly the declustering
/// spread the work (§5.3 skew) and which partitions have been failing.
struct ClusterObs {
    /// Queries routed to each partition (every query goes to every
    /// reachable partition in a shared-nothing scan).
    queries: Vec<Arc<Counter>>,
    /// Distance calculations each partition performed.
    dist_calcs: Vec<Arc<Counter>>,
    /// Logical page reads each partition performed.
    logical_reads: Vec<Arc<Counter>>,
    /// Runs in which the partition was reported missing.
    failures: Vec<Arc<Counter>>,
}

impl ClusterObs {
    fn new(recorder: &Recorder, servers: usize) -> Option<Self> {
        if !recorder.is_enabled() {
            return None;
        }
        let labels: Vec<String> = (0..servers).map(|i| i.to_string()).collect();
        let series = |name: &str, help: &str| -> Vec<Arc<Counter>> {
            labels
                .iter()
                .filter_map(|l| recorder.counter(name, help, &[("partition", l.as_str())]))
                .collect()
        };
        let obs = Self {
            queries: series(
                "mq_cluster_partition_queries_total",
                "Queries evaluated on each shared-nothing partition.",
            ),
            dist_calcs: series(
                "mq_cluster_partition_distance_calculations_total",
                "Distance calculations performed by each partition.",
            ),
            logical_reads: series(
                "mq_cluster_partition_logical_reads_total",
                "Logical page reads performed by each partition.",
            ),
            failures: series(
                "mq_cluster_partition_failures_total",
                "Cluster runs in which the partition was missing (degraded).",
            ),
        };
        (obs.queries.len() == servers).then_some(obs)
    }
}

/// A cluster of `s` shared-nothing servers over one logical database.
/// With `s = 1` it is the single engine of §5.1–5.2: one server, run on
/// the calling thread.
pub struct SharedNothingCluster<O, M> {
    servers: Vec<Server<O, M>>,
    /// The option block of every server's engine.
    options: EngineOptions,
    /// Engine instruments shared by every server's per-batch engine;
    /// present iff an enabled recorder is attached.
    engine_obs: Option<Arc<EngineObs>>,
    /// Per-partition instruments, present iff an enabled recorder is
    /// attached.
    obs: Option<ClusterObs>,
}

impl<O, M> SharedNothingCluster<O, M>
where
    O: StorageObject,
    M: Metric<O> + Clone + 'static,
{
    /// Declusters `objects` round-robin over `s` servers and builds each
    /// server's local index with `build_index` (invoked once per server).
    /// Every server's engine runs `options`; answers and counters are
    /// identical for every prefetch depth.
    pub fn build<F>(
        objects: Vec<O>,
        s: usize,
        metric: M,
        buffer_fraction: f64,
        options: EngineOptions,
        build_index: F,
    ) -> Self
    where
        F: Fn(&Dataset<O>) -> (Box<dyn SimilarityIndex<O>>, PagedDatabase<O>),
    {
        let ids = round_robin((0..objects.len() as u32).map(ObjectId).collect(), s);
        let servers = round_robin(objects, s)
            .into_iter()
            .zip(ids)
            .map(|(local, global_ids)| {
                Server::build(
                    local,
                    global_ids,
                    metric.clone(),
                    buffer_fraction,
                    &build_index,
                )
            })
            .collect();
        Self::from_servers(servers, options)
    }

    /// Assembles a cluster from pre-built servers (any [`mq_storage::PageStore`]
    /// backend per partition — this is how `mq serve --store file:` brings
    /// up a durable cluster, one store directory per server).
    pub fn from_servers(servers: Vec<Server<O, M>>, options: EngineOptions) -> Self {
        Self {
            servers,
            options,
            engine_obs: None,
            obs: None,
        }
    }

    /// Attaches an observability [`Recorder`] to the whole cluster: one
    /// engine instrument bundle shared by every server's engine,
    /// per-partition query/distance/read/failure counters, and every
    /// server disk's buffer and fault counters. A disabled recorder
    /// detaches everything.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.engine_obs = EngineObs::new(recorder);
        self.obs = ClusterObs::new(recorder, self.servers.len());
        for server in &self.servers {
            server.disk().attach_recorder(recorder);
        }
        self
    }

    /// The option block of every server's engine.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The servers (for inspection in tests and reports).
    pub fn servers(&self) -> &[Server<O, M>] {
        &self.servers
    }

    /// Runs one multiple similarity query on every server in parallel and
    /// merges the per-server answers into global answers, in query order.
    ///
    /// # Panics
    /// Panics if any partition fails (a server thread panics or its engine
    /// surfaces an unrecoverable fault) — this entry point never returns a
    /// silently partial result. Fault-tolerant callers use
    /// [`multiple_query_degraded`](Self::multiple_query_degraded).
    pub fn multiple_query(&self, queries: &[(O, QueryType)]) -> (Vec<Vec<Answer>>, ClusterStats) {
        let degraded = self.multiple_query_degraded(queries);
        assert!(
            degraded.is_complete(),
            "cluster partitions failed: {:?} ({:?})",
            degraded.missing_partitions,
            degraded.failure_reasons
        );
        (degraded.answers, degraded.stats)
    }

    /// Fault-tolerant [`multiple_query`](Self::multiple_query): every server
    /// runs in parallel — server 0 on the calling thread, the others on
    /// scoped threads, so a one-server cluster spawns nothing. A server
    /// whose engine errors (past the cluster's fault policy) or panics
    /// becomes an explicitly recorded *missing partition* instead of
    /// poisoning the whole run. Answers are merged over the reachable
    /// servers only.
    pub fn multiple_query_degraded(&self, queries: &[(O, QueryType)]) -> DegradedAnswers {
        let started = Instant::now();
        let run =
            |si: usize| run_on_server(&self.servers[si], queries, self.options, &self.engine_obs);
        let per_server: Vec<ServerRun> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..self.servers.len())
                .map(|si| scope.spawn(move || run(si)))
                .collect();
            let inline =
                (!self.servers.is_empty()).then(|| catch_unwind(AssertUnwindSafe(|| run(0))));
            inline
                .into_iter()
                .chain(spawned.into_iter().map(|h| h.join()))
                .map(|outcome| match outcome {
                    Ok(Ok(result)) => Ok(result),
                    Ok(Err(e)) => Err(format!("engine error: {e}")),
                    Err(_) => Err("server panicked".to_string()),
                })
                .collect()
        });

        let mut missing_partitions = Vec::new();
        let mut failure_reasons = Vec::new();
        for (si, r) in per_server.iter().enumerate() {
            if let Err(reason) = r {
                missing_partitions.push(si);
                failure_reasons.push(reason.clone());
            }
        }

        // Mirror the per-partition outcome into the registry (write-only:
        // nothing below reads these counters back).
        if let Some(obs) = &self.obs {
            for (si, r) in per_server.iter().enumerate() {
                match r {
                    Ok((_, stats)) => {
                        obs.queries[si].add(queries.len() as u64);
                        obs.dist_calcs[si].add(stats.dist_calcs);
                        obs.logical_reads[si].add(stats.io.logical_reads);
                    }
                    Err(_) => obs.failures[si].inc(),
                }
            }
        }

        let stats = ClusterStats {
            per_server: per_server
                .iter()
                .map(|r| r.as_ref().map(|(_, s)| *s).unwrap_or_default())
                .collect(),
            elapsed: started.elapsed(),
        };

        // Merge per query across the servers that responded.
        let mut reachable: Vec<_> = per_server
            .into_iter()
            .filter_map(|r| r.ok())
            .map(|(a, _)| a.into_iter())
            .collect();
        let answers = queries
            .iter()
            .map(|(_, qtype)| {
                let lists = reachable.iter_mut().filter_map(Iterator::next).collect();
                merge_answers(qtype, lists)
            })
            .collect();
        DegradedAnswers {
            answers,
            stats,
            missing_partitions,
            failure_reasons,
        }
    }
}

/// Executes the full batch on one server and translates answers to global
/// object ids. Surfaces the engine's typed error when a read faults past
/// the retry budget.
fn run_on_server<O, M>(
    server: &Server<O, M>,
    queries: &[(O, QueryType)],
    options: EngineOptions,
    obs: &Option<Arc<EngineObs>>,
) -> Result<(Vec<Vec<Answer>>, ExecutionStats), EngineError>
where
    O: StorageObject,
    M: Metric<O> + Clone,
{
    let engine = QueryEngine::new(server.disk(), server.index(), server.metric().clone())
        .with_options(options)
        .with_obs(obs.clone());
    let probe = StatsProbe::start(server.disk(), server.counter(), Default::default());
    let mut session = engine.new_session(
        queries
            .iter()
            .map(|(o, t)| (o.clone(), *t))
            .collect::<Vec<_>>(),
    );
    engine.try_run_to_completion(&mut session)?;
    let avoidance_stats = session.avoidance_stats();
    let stats = probe.finish(server.disk(), avoidance_stats);
    let answers = session
        .into_answers()
        .into_iter()
        .map(|list| {
            list.into_iter()
                .map(|a| Answer {
                    id: server.global_id(a.id),
                    distance: a.distance,
                })
                .collect()
        })
        .collect();
    Ok((answers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::{LinearScan, XTree, XTreeConfig};
    use mq_metric::{Euclidean, ObjectId, Vector};
    use mq_storage::{PageLayout, SimulatedDisk};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                Vector::new(
                    (0..dim)
                        .map(|_| (next() * 100.0) as f32)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn layout() -> PageLayout {
        PageLayout::new(256, 16)
    }

    fn scan_builder(
    ) -> impl Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>)
    {
        |ds: &Dataset<Vector>| {
            let db = PagedDatabase::pack(ds, layout());
            let scan = LinearScan::new(db.page_count());
            (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
        }
    }

    fn xtree_builder(
    ) -> impl Fn(&Dataset<Vector>) -> (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>)
    {
        |ds: &Dataset<Vector>| {
            let cfg = XTreeConfig {
                layout: layout(),
                ..Default::default()
            };
            let (tree, db) = XTree::bulk_load(ds, cfg);
            (Box::new(tree) as Box<dyn SimilarityIndex<Vector>>, db)
        }
    }

    /// Sequential reference on a single node.
    fn sequential_answers(
        objects: &[Vector],
        queries: &[(Vector, QueryType)],
    ) -> Vec<Vec<ObjectId>> {
        let ds = Dataset::new(objects.to_vec());
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        queries
            .iter()
            .map(|(q, t)| engine.similarity_query(q, t).ids().collect())
            .collect()
    }

    #[test]
    fn parallel_knn_matches_sequential() {
        let objects = random_points(400, 4, 201);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(41)
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        for s in [1, 2, 4, 7] {
            let cluster = SharedNothingCluster::build(
                objects.clone(),
                s,
                Euclidean,
                0.1,
                EngineOptions::default(),
                scan_builder(),
            );
            let (answers, stats) = cluster.multiple_query(&queries);
            assert_eq!(stats.per_server.len(), s);
            for (got, want) in answers.iter().zip(&reference) {
                let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
                assert_eq!(&ids, want, "s = {s}");
            }
        }
    }

    #[test]
    fn parallel_range_matches_sequential_on_xtree() {
        let objects = random_points(500, 4, 203);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(67)
            .take(6)
            .map(|v| (v.clone(), QueryType::range(12.0)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            4,
            Euclidean,
            0.1,
            EngineOptions::default(),
            xtree_builder(),
        );
        let (answers, _) = cluster.multiple_query(&queries);
        for (got, want) in answers.iter().zip(&reference) {
            let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
            assert_eq!(&ids, want);
        }
    }

    #[test]
    fn per_server_io_shrinks_with_more_servers() {
        let objects = random_points(600, 4, 207);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .take(10)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let run = |s: usize| {
            let cluster = SharedNothingCluster::build(
                objects.clone(),
                s,
                Euclidean,
                0.1,
                EngineOptions::default(),
                scan_builder(),
            );
            let (_, stats) = cluster.multiple_query(&queries);
            stats
                .per_server
                .iter()
                .map(|st| st.io.logical_reads)
                .max()
                .unwrap_or(0)
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 3 <= one,
            "per-server I/O should shrink ~4x: 1 server {one}, 4 servers {four}"
        );
    }

    #[test]
    fn stats_total_and_max() {
        let objects = random_points(200, 3, 213);
        let queries: Vec<(Vector, QueryType)> = vec![(objects[0].clone(), QueryType::knn(3))];
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            2,
            Euclidean,
            0.1,
            EngineOptions::default(),
            scan_builder(),
        );
        let (_, stats) = cluster.multiple_query(&queries);
        let total = stats.total();
        assert_eq!(
            total.io.logical_reads,
            stats
                .per_server
                .iter()
                .map(|s| s.io.logical_reads)
                .sum::<u64>()
        );
        let max = stats.max_modeled_seconds(|s| s.dist_calcs as f64);
        assert!(max <= total.dist_calcs as f64);
        assert!(
            max * 2.0 >= total.dist_calcs as f64 * 0.9,
            "roughly balanced"
        );
    }

    #[test]
    fn prefetch_does_not_change_results_across_batches() {
        let objects = random_points(500, 4, 223);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(61)
            .take(7)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let reference = sequential_answers(&objects, &queries);
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            3,
            Euclidean,
            0.1,
            EngineOptions {
                prefetch_depth: 2,
                ..EngineOptions::default()
            },
            xtree_builder(),
        );
        // Two batches through the same cluster: every server's prefetch
        // pins are released between batches.
        for round in 0..2 {
            let (answers, _) = cluster.multiple_query(&queries);
            for (got, want) in answers.iter().zip(&reference) {
                let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
                assert_eq!(&ids, want, "round {round}");
            }
        }
    }

    #[test]
    fn killed_server_yields_explicit_missing_partition() {
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 229);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(37)
            .take(6)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            3,
            Euclidean,
            0.1,
            EngineOptions::default(),
            scan_builder(),
        );
        // Healthy reference first.
        let healthy = cluster.multiple_query_degraded(&queries);
        assert!(healthy.is_complete());
        // Kill server 1's disk outright: every read is Unavailable.
        cluster.servers()[1]
            .disk()
            .set_fault_plan(Some(FaultPlan::new(42).with_kill_after(0)));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert!(!degraded.is_complete());
        assert_eq!(degraded.missing_partitions, vec![1]);
        assert_eq!(degraded.failure_reasons.len(), 1);
        assert!(
            degraded.failure_reasons[0].contains("unavailable"),
            "{}",
            degraded.failure_reasons[0]
        );
        // The failed slot reports empty stats; the others worked.
        assert_eq!(degraded.stats.per_server[1], ExecutionStats::default());
        assert!(degraded.stats.per_server[0].io.logical_reads > 0);
        // No degraded answer comes from the dead partition, and at every
        // rank the degraded neighbor is no nearer than the full one.
        let ids = (0..objects.len() as u32).map(ObjectId).collect();
        let dead: Vec<ObjectId> = round_robin(ids, 3).swap_remove(1);
        for (got, full) in degraded.answers.iter().zip(&healthy.answers) {
            for a in got {
                assert!(!dead.contains(&a.id), "answer from a dead partition");
            }
            for (g, f) in got.iter().zip(full) {
                assert!(g.distance >= f.distance - 1e-12);
            }
        }
    }

    #[test]
    fn multiple_query_panics_on_missing_partition() {
        use mq_storage::FaultPlan;
        let objects = random_points(120, 3, 231);
        let queries: Vec<(Vector, QueryType)> = vec![(objects[0].clone(), QueryType::knn(3))];
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            2,
            Euclidean,
            0.1,
            EngineOptions::default(),
            scan_builder(),
        );
        cluster.servers()[0]
            .disk()
            .set_fault_plan(Some(FaultPlan::new(7).with_kill_after(0)));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.multiple_query(&queries)
        }));
        assert!(r.is_err(), "strict entry point must refuse partial results");
    }

    #[test]
    fn retry_budget_recovers_transient_cluster_faults() {
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 233);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(43)
            .take(5)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            2,
            Euclidean,
            0.1,
            EngineOptions {
                fault_policy: mq_core::FaultPolicy::new(3),
                ..EngineOptions::default()
            },
            scan_builder(),
        );
        let healthy = cluster.multiple_query_degraded(&queries);
        for server in cluster.servers() {
            server
                .disk()
                .set_fault_plan(Some(FaultPlan::new(99).with_transient(0.3)));
        }
        let faulty = cluster.multiple_query_degraded(&queries);
        assert!(faulty.is_complete(), "{:?}", faulty.failure_reasons);
        for (got, want) in faulty.answers.iter().zip(&healthy.answers) {
            assert_eq!(got, want, "answers must be bit-identical after retries");
        }
        assert!(
            cluster
                .servers()
                .iter()
                .any(|s| s.disk().fault_stats().transient_errors > 0),
            "the plan should actually have fired"
        );
    }

    #[test]
    fn recorder_tracks_partition_skew_and_failures() {
        use mq_obs::Registry;
        use mq_storage::FaultPlan;
        let objects = random_points(300, 3, 241);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(37)
            .take(6)
            .map(|v| (v.clone(), QueryType::knn(4)))
            .collect();
        let registry = Arc::new(Registry::new());
        let recorder = Recorder::new(Arc::clone(&registry));
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            3,
            Euclidean,
            0.1,
            EngineOptions::default(),
            scan_builder(),
        )
        .with_recorder(&recorder);
        let healthy = cluster.multiple_query_degraded(&queries);
        assert!(healthy.is_complete());
        let snap = registry.snapshot();
        for si in 0..3 {
            let q = snap.value(&format!(
                "mq_cluster_partition_queries_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(q, queries.len() as f64, "partition {si}");
            let reads = snap.value(&format!(
                "mq_cluster_partition_logical_reads_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(reads, healthy.stats.per_server[si].io.logical_reads as f64);
            let dists = snap.value(&format!(
                "mq_cluster_partition_distance_calculations_total{{partition=\"{si}\"}}"
            ));
            assert_eq!(dists, healthy.stats.per_server[si].dist_calcs as f64);
        }
        // The engine-level recorder fires too: distance calculations from
        // all three partitions land in the shared core counter.
        let performed = snap.value("mq_core_distance_calculations_total{outcome=\"performed\"}");
        assert!(performed > 0.0);
        // Kill one partition and check the failure counter.
        cluster.servers()[2]
            .disk()
            .set_fault_plan(Some(FaultPlan::new(11).with_kill_after(0)));
        let degraded = cluster.multiple_query_degraded(&queries);
        assert_eq!(degraded.missing_partitions, vec![2]);
        let snap = registry.snapshot();
        assert_eq!(
            snap.value("mq_cluster_partition_failures_total{partition=\"2\"}"),
            1.0
        );
        // The dead partition's query counter did not advance.
        assert_eq!(
            snap.value("mq_cluster_partition_queries_total{partition=\"2\"}"),
            queries.len() as f64
        );
    }

    #[test]
    fn recorder_does_not_change_cluster_answers() {
        use mq_obs::Registry;
        let objects = random_points(400, 4, 251);
        let queries: Vec<(Vector, QueryType)> = objects
            .iter()
            .step_by(47)
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let build = || {
            SharedNothingCluster::build(
                objects.clone(),
                3,
                Euclidean,
                0.1,
                EngineOptions::default(),
                scan_builder(),
            )
        };
        let plain = build().multiple_query(&queries);
        let recorder = Recorder::new(Arc::new(Registry::new()));
        let observed = build().with_recorder(&recorder).multiple_query(&queries);
        assert_eq!(plain.0, observed.0, "answers must be bit-identical");
        for (a, b) in plain.1.per_server.iter().zip(&observed.1.per_server) {
            assert_eq!(a.io, b.io);
            assert_eq!(a.dist_calcs, b.dist_calcs);
            assert_eq!(a.avoidance, b.avoidance);
        }
    }

    #[test]
    fn empty_query_batch() {
        let objects = random_points(50, 3, 217);
        let cluster = SharedNothingCluster::build(
            objects.clone(),
            2,
            Euclidean,
            0.1,
            EngineOptions::default(),
            scan_builder(),
        );
        let (answers, stats) = cluster.multiple_query(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.per_server.len(), 2);
    }
}
