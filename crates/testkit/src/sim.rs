//! The [`Sim`] runner: one seed-determined workload, an optional fault
//! plan, and a fault-free oracle to compare against.
//!
//! A `Sim` owns nothing but numbers; every [`run`](Sim::run) rebuilds the
//! dataset, disk and engine from the seed, so runs are independent and a
//! faulty run and its oracle see byte-identical inputs.

use mq_core::{Answer, AvoidanceStats, EngineOptions, FaultPolicy, QueryEngine, QueryType};
use mq_datagen::sessions::{web_sessions, SessionConfig};
use mq_index::LinearScan;
use mq_metric::{EditDistance, Symbols};
use mq_storage::{
    Dataset, FaultPlan, FaultStats, IoStats, PageLayout, PageStore, PagedDatabase, SimulatedDisk,
    SymbolsCodec,
};
use mq_store::{FilePageStore, SEGMENT_FILE};
use std::path::Path;

/// The engine configurations the acceptance criteria quantify over:
/// prefetch depths {0, 2}, each retrying transient faults up to
/// `retry_budget` times, everything else at its default.
pub fn config_matrix(retry_budget: u32) -> Vec<EngineOptions> {
    [0, 2]
        .into_iter()
        .map(|prefetch_depth| EngineOptions {
            prefetch_depth,
            fault_policy: FaultPolicy::new(retry_budget),
            ..EngineOptions::default()
        })
        .collect()
}

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The seed that determined workload and faults — print this to
    /// reproduce the run exactly.
    pub seed: u64,
    /// Per-query answers. Complete when `gave_up` is `None`; otherwise
    /// the buffered partial answers the failed session preserved
    /// (Definition 4's incremental contract).
    pub answers: Vec<Vec<Answer>>,
    /// Which queries completed before the run ended.
    pub completed: Vec<bool>,
    /// §5.2 avoidance counters of the run.
    pub avoidance: AvoidanceStats,
    /// Disk counters of the run (fault-free attempts only).
    pub io: IoStats,
    /// Injected-fault counters of the run.
    pub fault_stats: FaultStats,
    /// `Some(error)` when the engine surfaced a fault past its retry
    /// budget; the session's partial state is still in `answers`.
    pub gave_up: Option<String>,
}

/// A deterministic simulation: seed-derived workload and optional fault
/// plan. The engine's retry budget arrives with the [`EngineOptions`] of
/// each run.
#[derive(Clone, Copy, Debug)]
pub struct Sim {
    seed: u64,
    objects: usize,
    queries: usize,
    plan: Option<FaultPlan>,
}

impl Sim {
    /// A simulation of `seed` with the default workload size (160
    /// sessions, 8 queries) and no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            objects: 160,
            queries: 8,
            plan: None,
        }
    }

    /// Installs a fault plan (see [`crate::scenario`] for presets).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Sets the number of stored session objects.
    pub fn with_objects(mut self, objects: usize) -> Self {
        self.objects = objects;
        self
    }

    /// Sets the number of queries in the batch.
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// The seed of this simulation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed-derived workload: the stored sessions and a mixed
    /// k-NN/range query batch drawn from them.
    pub fn workload(&self) -> (Vec<Symbols>, Vec<(Symbols, QueryType)>) {
        let (sessions, _trails) = web_sessions(self.objects, SessionConfig::default(), self.seed);
        let stride = (self.objects / self.queries.max(1)).max(1);
        let queries = sessions
            .iter()
            .step_by(stride)
            .take(self.queries)
            .enumerate()
            .map(|(i, s)| {
                // Alternate query types so every run exercises both the
                // adapting k-NN distance and the fixed range predicate.
                let qtype = if i % 2 == 0 {
                    QueryType::knn(5)
                } else {
                    QueryType::range(6.0)
                };
                (s.clone(), qtype)
            })
            .collect();
        (sessions, queries)
    }

    /// The seed-derived stored database, paged exactly as every run pages
    /// it.
    pub fn database(&self) -> PagedDatabase<Symbols> {
        let (sessions, _) = self.workload();
        PagedDatabase::pack(&Dataset::new(sessions), PageLayout::new(256, 8))
    }

    /// Runs the simulation under `options` on the in-memory backend,
    /// faults included.
    pub fn run(&self, options: EngineOptions) -> SimReport {
        let disk = SimulatedDisk::with_buffer_pages(self.database(), 4);
        self.run_on(options, &disk)
    }

    /// [`run`](Self::run) against the durable file backend: a
    /// [`FilePageStore`] in `dir`, created from the workload on first use
    /// and recovered from segment + WAL afterwards. The report must be
    /// bit-identical to the in-memory backend's
    /// ([`assert_backend_equivalence`](Self::assert_backend_equivalence)).
    pub fn run_file(&self, options: EngineOptions, dir: &Path) -> SimReport {
        self.run_on(options, &self.open_or_create_store(dir))
    }

    /// Opens the durable store in `dir`, creating it from the workload
    /// database when no segment exists yet. The buffer holds 4 pages,
    /// like the in-memory backend's.
    pub fn open_or_create_store(&self, dir: &Path) -> FilePageStore<Symbols, SymbolsCodec> {
        if dir.join(SEGMENT_FILE).exists() {
            FilePageStore::open(dir, SymbolsCodec, 4).expect("reopen durable store")
        } else {
            FilePageStore::create(dir, self.database(), SymbolsCodec, 4)
                .expect("create durable store")
        }
    }

    /// Runs the workload's query batch against an already-built backend.
    fn run_on(&self, options: EngineOptions, disk: &dyn PageStore<Symbols>) -> SimReport {
        let (_, queries) = self.workload();
        let scan = LinearScan::new(disk.database().page_count());
        disk.set_fault_plan(self.plan);
        let engine = QueryEngine::new(disk, &scan, EditDistance).with_options(options);
        let mut session = engine.new_session(queries);
        let gave_up = engine
            .try_run_to_completion(&mut session)
            .err()
            .map(|e| e.to_string());
        let completed = (0..session.query_count())
            .map(|i| session.is_complete(i))
            .collect();
        let avoidance = session.avoidance_stats();
        SimReport {
            seed: self.seed,
            completed,
            avoidance,
            io: disk.stats(),
            fault_stats: disk.fault_stats(),
            gave_up,
            answers: session.into_answers(),
        }
    }

    /// Runs the fault-free oracle of this simulation under `options`.
    pub fn oracle(&self, options: EngineOptions) -> SimReport {
        Sim {
            plan: None,
            ..*self
        }
        .run(options)
    }

    /// Asserts the testkit's central invariant over the whole
    /// [`config_matrix`] of `retry_budget`: whenever the faulty run
    /// succeeds, its answers and avoidance counters are bit-identical to
    /// the oracle's. Without prefetch the full I/O counters must match too
    /// (failed attempts leave no trace); with prefetch only
    /// `logical_reads` is required to match, because an absorbed prefetch
    /// fault legitimately turns a prefetched hit into a demand read.
    ///
    /// Panics name the seed and configuration, which reproduce the run.
    pub fn assert_oracle_equivalence(&self, retry_budget: u32) {
        for config in config_matrix(retry_budget) {
            let run = self.run(config);
            let oracle = self.oracle(config);
            assert!(
                oracle.gave_up.is_none(),
                "seed {}: oracle must never fail, got {:?}",
                self.seed,
                oracle.gave_up
            );
            if let Some(reason) = &run.gave_up {
                // The policy reported failure — that is a legitimate
                // outcome; equivalence is only promised on success.
                assert!(
                    run.fault_stats.total_failures() > 0,
                    "seed {}, {config:?}: gave up ({reason}) without any injected fault",
                    self.seed
                );
                continue;
            }
            assert_eq!(
                run.answers, oracle.answers,
                "seed {}, {config:?}: answers diverged from the oracle",
                self.seed
            );
            assert_eq!(
                run.avoidance, oracle.avoidance,
                "seed {}, {config:?}: avoidance counters diverged from the oracle",
                self.seed
            );
            assert_eq!(
                run.io.logical_reads, oracle.io.logical_reads,
                "seed {}, {config:?}: logical reads diverged from the oracle",
                self.seed
            );
            if config.prefetch_depth == 0 {
                assert_eq!(
                    run.io, oracle.io,
                    "seed {}, {config:?}: I/O counters diverged without prefetch",
                    self.seed
                );
            }
        }
    }

    /// Asserts the durable backend's half of the central invariant over
    /// the whole [`config_matrix`] of `retry_budget`: the file-backed
    /// store in `dir` must produce a **fully** bit-identical [`SimReport`]
    /// — answers, avoidance counters, every I/O counter, every fault
    /// counter — for every configuration, faults included. (Unlike faulty-vs-oracle
    /// comparisons, the two backends see the same fault plan, so nothing
    /// is exempted.)
    pub fn assert_backend_equivalence(&self, dir: &Path, retry_budget: u32) {
        for config in config_matrix(retry_budget) {
            let mem = self.run(config);
            let file = self.run_file(config, dir);
            assert_eq!(
                mem.answers, file.answers,
                "seed {}, {config:?}: file-backend answers diverged",
                self.seed
            );
            assert_eq!(
                mem.completed, file.completed,
                "seed {}, {config:?}: file-backend completion flags diverged",
                self.seed
            );
            assert_eq!(
                mem.avoidance, file.avoidance,
                "seed {}, {config:?}: file-backend avoidance counters diverged",
                self.seed
            );
            assert_eq!(
                mem.io, file.io,
                "seed {}, {config:?}: file-backend I/O counters diverged",
                self.seed
            );
            assert_eq!(
                mem.fault_stats, file.fault_stats,
                "seed {}, {config:?}: file-backend fault counters diverged",
                self.seed
            );
            assert_eq!(
                mem.gave_up, file.gave_up,
                "seed {}, {config:?}: file-backend failure outcome diverged",
                self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_seed_sensitive() {
        let (a_obj, a_q) = Sim::new(3).workload();
        let (b_obj, b_q) = Sim::new(3).workload();
        assert_eq!(a_obj, b_obj);
        assert_eq!(a_q.len(), b_q.len());
        let (c_obj, _) = Sim::new(4).workload();
        assert_ne!(a_obj, c_obj);
    }

    #[test]
    fn matrix_covers_both_prefetch_depths_with_the_budget() {
        let m = config_matrix(3);
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|c| c.prefetch_depth == 0));
        assert!(m.iter().any(|c| c.prefetch_depth == 2));
        assert!(m.iter().all(|c| c.fault_policy.retry_budget == 3));
    }

    #[test]
    fn fault_free_run_completes_every_query() {
        let report = Sim::new(11).run(EngineOptions::default());
        assert!(report.gave_up.is_none());
        assert!(report.completed.iter().all(|&c| c));
        assert_eq!(report.answers.len(), 8);
        assert_eq!(report.fault_stats, FaultStats::default());
    }
}
