//! The batching scheduler: turns a stream of independent requests into
//! multiple similarity queries.
//!
//! Requests from any number of connections flow into one queue. A pool of
//! [`ServerConfig::workers`] worker threads (default 1) turns it into
//! `multiple_similarity_query` batches executed by a [`QueryBackend`].
//! The workers are work-conserving: an idle worker blocks only while the
//! queue is empty, then takes whatever is queued, up to
//! [`ServerConfig::max_batch`] (the paper's m), and executes it at once.
//! Requests that arrive while a batch executes form the next one, as in
//! group commit, so concurrent traffic shares one pass and a lone request
//! waits for no one. With one worker, batches execute strictly
//! sequentially; with more, several execute at once.

use crate::backend::QueryBackend;
use crate::config::ServerConfig;
use crate::protocol::ServiceMetrics;
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use mq_core::{Answer, ExecutionStats, QueryType};
use mq_metric::Vector;
use mq_obs::{Counter, Histogram, Recorder, DURATION_BOUNDS, SIZE_BOUNDS};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The answers of one request plus its batch's shared statistics.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Identifier of the batch that carried this query (1-based).
    pub batch_id: u64,
    /// Queries in that batch.
    pub batch_size: u32,
    /// Execution statistics of the whole batch.
    pub stats: ExecutionStats,
    /// The answers, ascending by distance.
    pub answers: Vec<Answer>,
}

/// Where a job's reply goes: the sink the frontend handed in (it enqueues
/// the encoded reply on the connection's outbox and wakes the poll
/// thread). Invoked exactly once — with `Some` when the batch executed,
/// `None` when it died first (backend panic or queue closed), so the
/// frontend can always send *something*.
type ReplySink = Box<dyn FnOnce(Option<QueryReply>) + Send>;

struct Job {
    object: Vector,
    qtype: QueryType,
    sink: Option<ReplySink>,
    /// When the job entered the queue (queue-wait observability).
    submitted: Instant,
    /// The scheduler's in-flight count; decremented on drop, so every
    /// exit path — reply delivered, batch panicked, queue drained on
    /// shutdown — retires the job exactly once.
    pending: Arc<AtomicU64>,
}

impl Job {
    fn deliver(&mut self, reply: QueryReply) {
        if let Some(sink) = self.sink.take() {
            sink(Some(reply));
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // A sink still present here means the job is being retired without
        // a reply (batch panic, queue closed at shutdown): deliver the
        // failure so the frontend answers with a typed error instead of
        // leaving the connection waiting forever.
        if let Some(sink) = self.sink.take() {
            sink(None);
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why a batch stopped collecting and flushed.
#[derive(Clone, Copy)]
enum FlushReason {
    /// The batch reached [`ServerConfig::max_batch`] jobs.
    Full,
    /// The queue emptied before the batch reached
    /// [`ServerConfig::max_batch`] jobs.
    Drained,
    /// The submission queue was closed (shutdown drain).
    Closed,
}

/// Pre-registered scheduler instruments: batch-size and queue-wait
/// distributions plus flush-reason counters.
struct SchedObs {
    batch_size: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    flush_full: Arc<Counter>,
    flush_drained: Arc<Counter>,
    flush_closed: Arc<Counter>,
    queries: Arc<Counter>,
}

impl SchedObs {
    fn new(recorder: &Recorder) -> Option<Arc<Self>> {
        let flush = |reason: &'static str| {
            recorder.counter(
                "mq_server_batches_total",
                "Batches flushed by the scheduler, by flush reason.",
                &[("reason", reason)],
            )
        };
        Some(Arc::new(Self {
            batch_size: recorder.histogram(
                "mq_server_batch_size",
                "Queries per flushed batch.",
                &[],
                &SIZE_BOUNDS,
            )?,
            queue_wait: recorder.histogram(
                "mq_server_queue_wait_seconds",
                "Time each query waited in the submission queue before its \
                 batch flushed.",
                &[],
                &DURATION_BOUNDS,
            )?,
            flush_full: flush("full")?,
            flush_drained: flush("drained")?,
            flush_closed: flush("closed")?,
            queries: recorder.counter(
                "mq_server_queries_total",
                "Queries accepted into flushed batches.",
                &[],
            )?,
        }))
    }

    fn record_flush(&self, jobs: &[Job], reason: FlushReason) {
        self.batch_size.observe(jobs.len() as f64);
        self.queries.add(jobs.len() as u64);
        let now = Instant::now();
        for job in jobs {
            self.queue_wait
                .observe(now.saturating_duration_since(job.submitted).as_secs_f64());
        }
        match reason {
            FlushReason::Full => self.flush_full.inc(),
            FlushReason::Drained => self.flush_drained.inc(),
            FlushReason::Closed => self.flush_closed.inc(),
        }
    }
}

/// The batching scheduler: one submission queue, a pool of worker threads
/// (usually just one), one shared backend.
pub struct BatchScheduler {
    tx: Sender<Job>,
    metrics: Arc<Mutex<ServiceMetrics>>,
    dims: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Jobs accepted but not yet retired (queued or executing).
    in_flight: Arc<AtomicU64>,
    /// Scheduler instruments (None when the recorder is disabled); kept
    /// here so admission control can read the live queue-wait p99.
    obs: Option<Arc<SchedObs>>,
}

impl BatchScheduler {
    /// Starts [`ServerConfig::workers`] worker threads over `backend` with
    /// the given batching knobs. The workers share the submission queue
    /// (each job is delivered to exactly one) and draw batch ids from one
    /// shared counter.
    pub fn start(backend: Box<dyn QueryBackend>, config: &ServerConfig) -> Self {
        Self::start_with_recorder(backend, config, &Recorder::disabled())
    }

    /// [`start`](Self::start) with scheduler observability: batch-size and
    /// queue-wait histograms plus flush-reason counters registered on
    /// `recorder`. A disabled recorder makes this identical to `start`.
    pub fn start_with_recorder(
        backend: Box<dyn QueryBackend>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> Self {
        let (tx, rx) = channel::unbounded::<Job>();
        let metrics = Arc::new(Mutex::new(ServiceMetrics::default()));
        let max_batch = config.max_batch.max(1);
        let dims = backend.dimensions();
        let backend: Arc<dyn QueryBackend> = Arc::from(backend);
        let batch_ids = Arc::new(AtomicU64::new(0));
        let obs = SchedObs::new(recorder);
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let rx = rx.clone();
                let backend = Arc::clone(&backend);
                let metrics = Arc::clone(&metrics);
                let batch_ids = Arc::clone(&batch_ids);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("mq-scheduler-{w}"))
                    .spawn(move || worker_loop(rx, backend, max_batch, metrics, batch_ids, obs))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            tx,
            metrics,
            dims,
            workers,
            in_flight: Arc::new(AtomicU64::new(0)),
            obs,
        }
    }

    /// Dimensionality the backend expects of query vectors (0 = unknown).
    pub fn dimensions(&self) -> usize {
        self.dims
    }

    /// Submits one query whose reply is delivered by invoking `sink` from
    /// the worker thread: `Some(reply)` once the batch executed, `None` if
    /// the job was dropped unanswered (backend panic, queue closed). No
    /// thread parks per in-flight query.
    pub fn submit_with<F>(&self, object: Vector, qtype: QueryType, sink: F)
    where
        F: FnOnce(Option<QueryReply>) + Send + 'static,
    {
        // Count the job before it enters the queue, so `in_flight` never
        // under-reports; the job's drop guard retires it on every path.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        // If the queue already closed the job is dropped right here and
        // its drop guard fires the sink with `None`.
        let _ = self.tx.send(Job {
            object,
            qtype,
            sink: Some(Box::new(sink)),
            submitted: Instant::now(),
            pending: Arc::clone(&self.in_flight),
        });
    }

    /// p99 of the queue-wait distribution since startup, when scheduler
    /// observability is on and at least one query has been recorded.
    /// Admission control uses this as the `retry_after_ms` hint on
    /// `Overloaded` replies — a saturated queue advertises its own delay.
    pub fn queue_wait_p99(&self) -> Option<f64> {
        self.obs.as_ref()?.queue_wait.quantile(0.99)
    }

    /// Jobs accepted but not yet retired: still queued, collecting into a
    /// batch, or executing. Zero means every submitted query has either
    /// been answered or dropped — the signal
    /// [`CollectionRegistry::drain`](crate::CollectionRegistry::drain)
    /// polls so a load run can end with no work left behind in the
    /// scheduler.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// A snapshot of the aggregate counters.
    pub fn metrics(&self) -> ServiceMetrics {
        *self.metrics.lock()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        // Closing the queue lets the workers drain pending jobs and exit.
        let (closed_tx, _) = channel::bounded(1);
        let _ = std::mem::replace(&mut self.tx, closed_tx);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    rx: Receiver<Job>,
    backend: Arc<dyn QueryBackend>,
    max_batch: usize,
    metrics: Arc<Mutex<ServiceMetrics>>,
    batch_ids: Arc<AtomicU64>,
    obs: Option<Arc<SchedObs>>,
) {
    loop {
        // Block only while the queue is empty; an idle worker costs nothing.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // Take whatever else is queued right now, up to m, and go: no
        // request waits for companions that have not arrived yet.
        let mut jobs = vec![first];
        let mut reason = FlushReason::Full;
        while jobs.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(TryRecvError::Empty) => {
                    reason = FlushReason::Drained;
                    break;
                }
                Err(TryRecvError::Disconnected) => {
                    reason = FlushReason::Closed;
                    break;
                }
            }
        }
        if let Some(obs) = &obs {
            obs.record_flush(&jobs, reason);
        }

        let batch_id = batch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let batch_size = jobs.len() as u32;
        let queries: Vec<(Vector, QueryType)> =
            jobs.iter().map(|j| (j.object.clone(), j.qtype)).collect();
        // The frontend validates queries, but the worker must survive a
        // backend panic regardless — one poisoned batch must not take the
        // service down for every later client.
        let executed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.execute(queries)));
        let (answers, stats) = match executed {
            Ok(result) => result,
            Err(_) => {
                eprintln!(
                    "mq-scheduler: batch #{batch_id} ({batch_size} queries) panicked; \
                     its clients get an error reply"
                );
                // Dropping the jobs fires their sinks with `None`, which
                // the frontend reports as a server error.
                continue;
            }
        };
        debug_assert_eq!(answers.len(), jobs.len());

        {
            let mut m = metrics.lock();
            m.queries += batch_size as u64;
            m.batches += 1;
            m.max_batch_size = m.max_batch_size.max(batch_size);
            m.totals += stats;
        }

        for (mut job, answers) in jobs.into_iter().zip(answers) {
            job.deliver(QueryReply {
                batch_id,
                batch_size,
                stats,
                answers,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::build_backend;
    use mq_index::{LinearScan, SimilarityIndex};
    use mq_storage::{Dataset, PageLayout, PagedDatabase};
    use std::sync::{mpsc, Condvar};
    use std::time::Duration;

    fn scan_backend(n: usize) -> Box<dyn QueryBackend> {
        let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32])).collect());
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        build_backend(&db, &ServerConfig::default(), 0.10, |ds| {
            let db = PagedDatabase::pack(ds, PageLayout::new(256, 16));
            let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
            (scan, db)
        })
        .expect("sim backend")
    }

    /// Holds every `execute` until the test opens it, so a test decides
    /// which queries queue behind a held batch. Once open it stays open.
    #[derive(Default)]
    struct Gate {
        /// (open, `execute` calls entered so far)
        state: std::sync::Mutex<(bool, usize)>,
        changed: Condvar,
    }

    impl Gate {
        fn open(&self) {
            self.state.lock().unwrap().0 = true;
            self.changed.notify_all();
        }

        /// Blocks until `n` batches have entered `execute`.
        fn wait_entered(&self, n: usize) {
            let state = self.state.lock().unwrap();
            let (_state, waited) = self
                .changed
                .wait_timeout_while(state, Duration::from_secs(10), |s| s.1 < n)
                .unwrap();
            assert!(!waited.timed_out(), "batch {n} never reached the backend");
        }

        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.changed.notify_all();
            drop(self.changed.wait_while(state, |s| !s.0).unwrap());
        }
    }

    /// A real backend behind a [`Gate`].
    struct GatedBackend {
        inner: Box<dyn QueryBackend>,
        gate: Arc<Gate>,
    }

    impl QueryBackend for GatedBackend {
        fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
            self.gate.pass();
            self.inner.execute(queries)
        }

        fn dimensions(&self) -> usize {
            self.inner.dimensions()
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    /// A scheduler over a gated scan backend, with its recorder.
    fn gated(n: usize, config: &ServerConfig) -> (BatchScheduler, Arc<Gate>, Recorder) {
        let gate = Arc::new(Gate::default());
        let backend = Box::new(GatedBackend {
            inner: scan_backend(n),
            gate: Arc::clone(&gate),
        });
        let recorder = Recorder::enabled();
        let scheduler = BatchScheduler::start_with_recorder(backend, config, &recorder);
        (scheduler, gate, recorder)
    }

    fn flushes(recorder: &Recorder, reason: &str) -> f64 {
        recorder
            .snapshot()
            .value(&format!("mq_server_batches_total{{reason=\"{reason}\"}}"))
    }

    /// Submits one query with a sink that forwards the outcome.
    fn submit(
        scheduler: &BatchScheduler,
        object: Vector,
        qtype: QueryType,
    ) -> mpsc::Receiver<Option<QueryReply>> {
        let (tx, rx) = mpsc::channel();
        scheduler.submit_with(object, qtype, move |reply| {
            let _ = tx.send(reply);
        });
        rx
    }

    /// The sink's outcome: `Some` reply, or `None` when the batch died.
    fn reply(rx: mpsc::Receiver<Option<QueryReply>>) -> Option<QueryReply> {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("every sink fires exactly once")
    }

    #[test]
    fn replies_match_submissions() {
        let config = ServerConfig::default().with_max_batch(4);
        let scheduler = BatchScheduler::start(scan_backend(100), &config);
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                submit(
                    &scheduler,
                    Vector::new(vec![i as f32 * 10.0]),
                    QueryType::knn(1),
                )
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = reply(rx).expect("reply");
            assert_eq!(reply.answers.len(), 1);
            assert_eq!(reply.answers[0].id.0, i as u32 * 10);
            assert!(reply.batch_size >= 1);
        }
        let m = scheduler.metrics();
        assert_eq!(m.queries, 8);
        assert!(m.batches >= 2, "max_batch 4 forces at least two batches");
        assert!(m.max_batch_size <= 4);
    }

    #[test]
    fn in_flight_counts_down_to_zero() {
        let config = ServerConfig::default().with_max_batch(4);
        let scheduler = BatchScheduler::start(scan_backend(100), &config);
        assert_eq!(scheduler.in_flight(), 0);
        let rxs: Vec<_> = (0..6)
            .map(|i| submit(&scheduler, Vector::new(vec![i as f32]), QueryType::knn(1)))
            .collect();
        for rx in rxs {
            reply(rx).expect("reply");
        }
        // Replies are sent before the jobs retire; give the worker a
        // bounded moment to drop the batch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while scheduler.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(scheduler.in_flight(), 0, "all jobs must retire");
    }

    #[test]
    fn idle_worker_takes_a_lone_query_at_once() {
        let config = ServerConfig::default().with_max_batch(1000);
        let recorder = Recorder::enabled();
        let scheduler = BatchScheduler::start_with_recorder(scan_backend(50), &config, &recorder);
        let rx = submit(&scheduler, Vector::new(vec![7.0]), QueryType::knn(2));
        let reply = reply(rx).expect("a lone query runs without companions");
        assert_eq!(reply.batch_size, 1);
        assert_eq!(reply.answers[0].id.0, 7);
        assert_eq!(flushes(&recorder, "drained"), 1.0);
        assert_eq!(flushes(&recorder, "full"), 0.0);
    }

    #[test]
    fn full_batch_flushes_at_max_batch() {
        let config = ServerConfig::default().with_max_batch(3);
        let (scheduler, gate, recorder) = gated(50, &config);
        let held = submit(&scheduler, Vector::new(vec![9.0]), QueryType::knn(1));
        gate.wait_entered(1);
        // Four jobs queue behind the held batch; m = 3 splits them 3 + 1.
        let rxs: Vec<_> = (0..4)
            .map(|i| submit(&scheduler, Vector::new(vec![i as f32]), QueryType::knn(1)))
            .collect();
        gate.open();
        assert_eq!(reply(held).expect("held batch").batch_size, 1);
        let sizes: Vec<(u64, u32)> = rxs
            .into_iter()
            .map(|rx| {
                let reply = reply(rx).expect("queued batch");
                (reply.batch_id, reply.batch_size)
            })
            .collect();
        assert_eq!(sizes, vec![(2, 3), (2, 3), (2, 3), (3, 1)]);
        assert_eq!(flushes(&recorder, "full"), 1.0);
        assert_eq!(flushes(&recorder, "drained"), 2.0);
    }

    #[test]
    fn arrivals_during_execution_form_the_next_batch() {
        let config = ServerConfig::default();
        let (scheduler, gate, recorder) = gated(50, &config);
        let first = submit(&scheduler, Vector::new(vec![1.0]), QueryType::knn(1));
        gate.wait_entered(1);
        let rest: Vec<_> = (2..7)
            .map(|i| submit(&scheduler, Vector::new(vec![i as f32]), QueryType::knn(1)))
            .collect();
        gate.open();
        let first = reply(first).expect("first batch");
        assert_eq!((first.batch_id, first.batch_size), (1, 1));
        assert_eq!(first.answers[0].id.0, 1);
        for (i, rx) in rest.into_iter().enumerate() {
            let reply = reply(rx).expect("second batch");
            assert_eq!((reply.batch_id, reply.batch_size), (2, 5));
            assert_eq!(reply.answers[0].id.0, i as u32 + 2);
        }
        // Both batches left because the queue was empty, not on a timer.
        assert_eq!(flushes(&recorder, "drained"), 2.0);
    }

    #[test]
    fn worker_pool_serves_every_client() {
        let config = ServerConfig::default().with_max_batch(1).with_workers(3);
        let scheduler = BatchScheduler::start(scan_backend(100), &config);
        let rxs: Vec<_> = (0..12)
            .map(|i| {
                submit(
                    &scheduler,
                    Vector::new(vec![i as f32 * 5.0]),
                    QueryType::knn(1),
                )
            })
            .collect();
        let mut batch_ids = Vec::new();
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = reply(rx).expect("reply");
            assert_eq!(reply.answers[0].id.0, i as u32 * 5);
            batch_ids.push(reply.batch_id);
        }
        // One job per batch: ids are unique even across concurrent workers.
        batch_ids.sort_unstable();
        batch_ids.dedup();
        assert_eq!(batch_ids.len(), 12, "duplicate batch ids across workers");
        let m = scheduler.metrics();
        assert_eq!(m.queries, 12);
        assert_eq!(m.batches, 12);
    }

    /// Stands in for any backend bug: panics when a query with the wrong
    /// dimensionality slips through.
    struct FussyBackend {
        inner: Box<dyn QueryBackend>,
    }

    impl QueryBackend for FussyBackend {
        fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
            if queries.iter().any(|(v, _)| v.dim() != 1) {
                panic!("unexpected dimensionality reached the backend");
            }
            self.inner.execute(queries)
        }

        fn dimensions(&self) -> usize {
            1
        }

        fn describe(&self) -> String {
            "fussy test backend".into()
        }
    }

    #[test]
    fn worker_survives_backend_panic() {
        let config = ServerConfig::default().with_max_batch(1);
        let backend = Box::new(FussyBackend {
            inner: scan_backend(30),
        });
        let scheduler = BatchScheduler::start(backend, &config);
        let bad = submit(&scheduler, Vector::new(vec![1.0, 2.0]), QueryType::knn(1));
        assert!(
            reply(bad).is_none(),
            "a panicked batch must fire its sinks with None"
        );
        let good = submit(&scheduler, Vector::new(vec![7.0]), QueryType::knn(1));
        let reply = reply(good).expect("worker must keep serving after a backend panic");
        assert_eq!(reply.answers[0].id.0, 7);
    }

    #[test]
    fn shutdown_answers_the_queued_jobs() {
        let config = ServerConfig::default().with_max_batch(2);
        let (scheduler, gate, _recorder) = gated(20, &config);
        let held = submit(&scheduler, Vector::new(vec![4.0]), QueryType::knn(1));
        gate.wait_entered(1);
        let queued = submit(&scheduler, Vector::new(vec![3.0]), QueryType::knn(1));
        // Dropping closes the queue and joins the worker, which is held in
        // `execute`: drop on another thread, then let the worker go.
        let dropper = std::thread::spawn(move || drop(scheduler));
        gate.open();
        dropper.join().expect("scheduler drop");
        assert_eq!(reply(held).expect("held batch").answers[0].id.0, 4);
        let reply = reply(queued).expect("a queued job is answered, not lost, at shutdown");
        assert_eq!(reply.answers[0].id.0, 3);
    }
}
