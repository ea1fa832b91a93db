//! Server configuration: batching knobs, server count, storage, and
//! admission limits.

use mq_approx::ApproxTier;
use mq_core::{EngineOptions, FaultPolicy};
use mq_metric::{Metric, VectorMetric};
use std::path::PathBuf;
use std::time::Duration;

/// Per-tenant token-bucket quota: `rate` tokens per second refill, up to
/// `burst` held. Every admitted query spends one token; a tenant that
/// exhausts its bucket gets typed `Overloaded` replies until it refills.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaConfig {
    /// Sustained queries per second per tenant.
    pub rate: f64,
    /// Largest burst a tenant can spend at once.
    pub burst: f64,
}

/// Which page-store backend serves the database.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum StoreChoice {
    /// The in-memory simulated disk (the paper's metered model).
    #[default]
    Sim,
    /// The durable `mq-store` file backend rooted at this directory: the
    /// directory itself for one server, one `part-<i>` subdirectory per
    /// server otherwise. If the directory already holds a store it is
    /// opened (running crash recovery) with the partition count found on
    /// disk; otherwise it is created from the loaded database.
    File(PathBuf),
}

/// The server's knobs: batching, execution, storage and admission.
///
/// An idle scheduler worker takes whatever requests are queued, up to
/// `max_batch`, and executes them at once as one
/// `multiple_similarity_query` batch; requests that arrive meanwhile form
/// the next batch. Nothing waits on a timer: a lone request runs alone,
/// and traffic batches exactly as much as it queues. A larger `max_batch`
/// shares more page reads per batch (the paper's m).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Most requests one batch carries (the paper's m).
    pub max_batch: usize,
    /// Shared-nothing servers the database is declustered over (§5.3's
    /// s). Every batch runs on all of them and their answers are merged;
    /// 1 (the default) is the single engine of §5.1–5.2.
    pub servers: usize,
    /// The option block of every engine the server builds (avoidance,
    /// prefetch depth, fault policy) — declared once, in
    /// [`EngineOptions`]. The server default
    /// differs from the engine's in one value: a retry budget of 2 extra
    /// read attempts on a *transient* disk fault before a batch fails.
    pub engine: EngineOptions,
    /// Scheduler worker threads, each taking and executing batches from
    /// the one queue. With 1 worker (the default) batches execute strictly
    /// one after another; more workers execute several batches at once,
    /// at the cost of smaller batches competing for cores.
    pub workers: usize,
    /// Idle timeout applied to every client connection: one that stays
    /// silent for longer with no reply owed is closed. `None` (the
    /// default) keeps idle connections open indefinitely.
    pub read_timeout: Option<Duration>,
    /// Page-store backend: in-memory simulation (the default) or the
    /// durable file store. A file store's pages are served exactly as
    /// crash recovery left them, by a sequential scan — the tree
    /// bulk-loaders would repack them.
    pub store: StoreChoice,
    /// Distance function the engines evaluate (see
    /// [`VectorMetric`] for the names). Non-Euclidean metrics must be
    /// served through a sequential-scan index: tree page bounds are
    /// Euclidean geometry and would prune wrongly.
    pub metric: VectorMetric,
    /// Optional approximate candidate tier in front of the exact engine
    /// (`bq:<budget>`; see [`ApproxTier`]). `None` — the
    /// default — serves exact answers; a tier trades recall for speed
    /// while keeping every reported distance exact. Only supported with
    /// the Euclidean metric.
    pub approx: Option<ApproxTier>,
    /// Bound on each collection's scheduler queue depth. A query arriving
    /// while the target collection already has this many in flight gets a
    /// typed `Overloaded` reply instead of queueing — backpressure, not
    /// buffering. `0` (the default) means unbounded.
    pub max_queue: usize,
    /// Per-tenant token-bucket quota; `None` (the default) admits every
    /// tenant without rate limits.
    pub quota: Option<QuotaConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            servers: 1,
            engine: EngineOptions {
                fault_policy: FaultPolicy::new(2),
                ..EngineOptions::default()
            },
            workers: 1,
            read_timeout: None,
            store: StoreChoice::Sim,
            metric: VectorMetric::default(),
            approx: None,
            max_queue: 0,
            quota: None,
        }
    }
}

impl ServerConfig {
    /// Sets the most requests one batch carries.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Sets the number of shared-nothing servers.
    ///
    /// # Panics
    /// Panics if `servers` is zero.
    pub fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers > 0, "servers must be positive");
        self.servers = servers;
        self
    }

    /// Replaces the engines' option block. Start from
    /// `ServerConfig::default().engine` to keep the server's retry budget.
    pub fn with_engine(mut self, engine: EngineOptions) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the scheduler worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-connection idle timeout (`None` never closes).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Selects the page-store backend.
    pub fn with_store(mut self, store: StoreChoice) -> Self {
        self.store = store;
        self
    }

    /// Selects the distance function the engines evaluate.
    pub fn with_metric(mut self, metric: VectorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Installs (or clears) the approximate candidate tier.
    pub fn with_approx(mut self, approx: Option<ApproxTier>) -> Self {
        self.approx = approx;
        self
    }

    /// Bounds each collection's scheduler queue depth (0 = unbounded).
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Installs (or clears) the per-tenant token-bucket quota.
    ///
    /// # Panics
    /// Panics if the quota's rate or burst is not positive and finite.
    pub fn with_quota(mut self, quota: Option<QuotaConfig>) -> Self {
        if let Some(q) = &quota {
            assert!(
                q.rate > 0.0 && q.rate.is_finite(),
                "quota rate must be positive and finite"
            );
            assert!(
                q.burst > 0.0 && q.burst.is_finite(),
                "quota burst must be positive and finite"
            );
        }
        self.quota = quota;
        self
    }

    /// One-line summary of every resolved knob, for startup logs.
    pub fn describe(&self) -> String {
        let read_timeout = match self.read_timeout {
            Some(t) => format!("{:.1}s", t.as_secs_f64()),
            None => "none".to_string(),
        };
        let store = match &self.store {
            StoreChoice::Sim => "sim".to_string(),
            StoreChoice::File(dir) => format!("file:{}", dir.display()),
        };
        let approx = match &self.approx {
            Some(tier) => tier.to_string(),
            None => "off".to_string(),
        };
        let max_queue = if self.max_queue == 0 {
            "unbounded".to_string()
        } else {
            self.max_queue.to_string()
        };
        let quota = match &self.quota {
            Some(q) => format!("{}:{}", q.rate, q.burst),
            None => "off".to_string(),
        };
        format!(
            "servers={} store={store} metric={} approx={approx} max_batch={} \
             workers={} prefetch_depth={} avoidance={} retry_budget={} \
             read_timeout={read_timeout} max_queue={max_queue} quota={quota}",
            self.servers,
            self.metric.name(),
            self.max_batch,
            self.workers,
            self.engine.prefetch_depth,
            self.engine.avoidance,
            self.engine.fault_policy.retry_budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = ServerConfig::default()
            .with_max_batch(4)
            .with_servers(3)
            .with_engine(EngineOptions {
                avoidance: false,
                ..EngineOptions::default()
            })
            .with_workers(2)
            .with_read_timeout(Some(Duration::from_secs(3)))
            .with_store(StoreChoice::File(PathBuf::from("/tmp/mq-store")))
            .with_metric(VectorMetric::Cosine)
            .with_approx(Some(ApproxTier::Bq { budget: 500 }))
            .with_max_queue(64)
            .with_quota(Some(QuotaConfig {
                rate: 100.0,
                burst: 10.0,
            }));
        assert_eq!(c.max_batch, 4);
        assert_eq!(c.servers, 3);
        assert!(!c.engine.avoidance);
        assert_eq!(c.workers, 2);
        assert_eq!(c.read_timeout, Some(Duration::from_secs(3)));
        assert_eq!(c.store, StoreChoice::File(PathBuf::from("/tmp/mq-store")));
        assert_eq!(c.metric, VectorMetric::Cosine);
        assert_eq!(c.approx, Some(ApproxTier::Bq { budget: 500 }));
        assert_eq!(c.max_queue, 64);
        assert_eq!(
            c.quota,
            Some(QuotaConfig {
                rate: 100.0,
                burst: 10.0
            })
        );
    }

    #[test]
    fn defaults_describe_the_measured_server() {
        // Exhaustive on purpose: an eleventh field stops this compiling.
        let ServerConfig {
            max_batch,
            servers,
            engine,
            workers,
            read_timeout,
            store,
            metric,
            approx,
            max_queue,
            quota,
        } = ServerConfig::default();
        assert_eq!(max_batch, 16);
        assert_eq!(servers, 1);
        // The engine block is the paper's configuration plus the server's
        // retry budget — nothing else differs from `EngineOptions::default()`.
        assert_eq!(
            engine,
            EngineOptions {
                avoidance: true,
                prefetch_depth: 0,
                fault_policy: FaultPolicy::new(2),
            }
        );
        assert_eq!(workers, 1);
        assert_eq!(read_timeout, None);
        assert_eq!(store, StoreChoice::Sim);
        assert_eq!(metric, VectorMetric::Euclidean);
        assert_eq!(approx, None);
        assert_eq!(max_queue, 0);
        assert_eq!(quota, None);
    }

    #[test]
    #[should_panic(expected = "servers must be positive")]
    fn zero_servers_rejected() {
        let _ = ServerConfig::default().with_servers(0);
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        assert_eq!(ServerConfig::default().with_workers(0).workers, 1);
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        let _ = ServerConfig::default().with_max_batch(0);
    }

    #[test]
    #[should_panic(expected = "quota rate must be positive")]
    fn non_positive_quota_rejected() {
        let _ = ServerConfig::default().with_quota(Some(QuotaConfig {
            rate: 0.0,
            burst: 4.0,
        }));
    }

    #[test]
    fn describe_names_every_knob() {
        let line = ServerConfig::default()
            .with_servers(3)
            .with_engine(EngineOptions {
                prefetch_depth: 2,
                fault_policy: FaultPolicy::new(5),
                ..EngineOptions::default()
            })
            .with_workers(2)
            .describe();
        assert!(!line.contains('\n'));
        for needle in [
            "servers=3",
            "store=sim",
            "metric=euclidean",
            "approx=off",
            "max_batch=16",
            "workers=2",
            "prefetch_depth=2",
            "avoidance=true",
            "retry_budget=5",
            "read_timeout=none",
            "max_queue=unbounded",
            "quota=off",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        // The engine block is exactly its three fields, each named once;
        // the retired intra-page knobs are gone from the line.
        for option in ["prefetch_depth=", "avoidance=", "retry_budget="] {
            assert_eq!(line.matches(option).count(), 1, "{option} in {line}");
        }
        for retired in ["threads=", "leader=", "max_wait=", "mode="] {
            assert!(!line.contains(retired), "{retired} in {line}");
        }
        let admission_line = ServerConfig::default()
            .with_max_queue(32)
            .with_quota(Some(QuotaConfig {
                rate: 200.0,
                burst: 16.0,
            }))
            .describe();
        assert!(admission_line.contains("max_queue=32"), "{admission_line}");
        assert!(admission_line.contains("quota=200:16"), "{admission_line}");
        let file_line = ServerConfig::default()
            .with_store(StoreChoice::File(PathBuf::from("/data/mq")))
            .describe();
        // A file store has no access-method choice to report: the metric
        // follows the directory directly.
        assert!(
            file_line.contains("store=file:/data/mq metric=euclidean"),
            "{file_line}"
        );
        let approx_line = ServerConfig::default()
            .with_approx(Some(ApproxTier::Bq { budget: 64 }))
            .describe();
        assert!(approx_line.contains("approx=bq:64"), "{approx_line}");
    }
}
