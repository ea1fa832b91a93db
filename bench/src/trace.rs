//! The outside-in layer trace: decorators around the program's public seams.
//!
//! Nothing here reaches into a crate. [`TimedMetric`] wraps a
//! [`Metric`], [`TimedIndex`] a [`SimilarityIndex`] and the [`PagePlan`]s it
//! returns, [`TimedStore`] a [`PageStore`], [`TimedBackend`] a
//! [`QueryBackend`]. The three leaf layers (metric, index, storage) never
//! call each other, so their busy times are disjoint and an engine call's
//! self time is its duration minus what they accumulated meanwhile.
//!
//! Seams crossed once per object or per (query, page) pair — `distance`,
//! `distance_le`, `page_mindist` — are counted on every call and timed one
//! call in [`SAMPLE_EVERY`], scaled by that factor; reading the clock twice
//! costs more than the call itself. Every other seam is timed on every call.
//! Each timed interval has the clock's own cost (calibrated at start-up)
//! subtracted.

use mq_core::{Answer, ExecutionStats, QueryEngine, QueryType};
use mq_index::{PagePlan, SimilarityIndex};
use mq_metric::{Metric, Vector};
use mq_obs::Recorder;
use mq_server::QueryBackend;
use mq_storage::{
    DiskError, FaultPlan, FaultStats, IoStats, Page, PageId, PageStore, PagedDatabase,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-object seams are timed one call in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// The instant all span times and cross-thread timestamps are measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What one start/stop pair of the clock costs with nothing in between:
/// the median of 10 001 back-to-back pairs.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(t).elapsed().as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// Busy time and work counts of the leaf layers, shared by the decorators of
/// one traced engine. Statistics only: `Relaxed` everywhere.
#[derive(Debug, Default)]
pub struct LayerClock {
    metric_ns: AtomicU64,
    distances: AtomicU64,
    metric_pair_calls: AtomicU64,
    index_ns: AtomicU64,
    pages_planned: AtomicU64,
    mindist_calls: AtomicU64,
    storage_ns: AtomicU64,
    storage_calls: AtomicU64,
}

/// A reading of a [`LayerClock`]; subtract two for an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerReading {
    /// Nanoseconds inside the metric (sampled calls scaled up).
    pub metric_ns: u64,
    /// Object distances evaluated (exact).
    pub distances: u64,
    /// Nanoseconds inside the index.
    pub index_ns: u64,
    /// Pages the index's plans handed to the engine (exact).
    pub pages_planned: u64,
    /// Nanoseconds inside the page store's read calls.
    pub storage_ns: u64,
    /// Read, pinned-read and prefetch calls (exact).
    pub storage_calls: u64,
}

impl std::ops::Sub for LayerReading {
    type Output = LayerReading;
    fn sub(self, r: LayerReading) -> LayerReading {
        LayerReading {
            metric_ns: self.metric_ns - r.metric_ns,
            distances: self.distances - r.distances,
            index_ns: self.index_ns - r.index_ns,
            pages_planned: self.pages_planned - r.pages_planned,
            storage_ns: self.storage_ns - r.storage_ns,
            storage_calls: self.storage_calls - r.storage_calls,
        }
    }
}

impl std::ops::AddAssign for LayerReading {
    fn add_assign(&mut self, r: LayerReading) {
        self.metric_ns += r.metric_ns;
        self.distances += r.distances;
        self.index_ns += r.index_ns;
        self.pages_planned += r.pages_planned;
        self.storage_ns += r.storage_ns;
        self.storage_calls += r.storage_calls;
    }
}

impl LayerReading {
    /// Nanoseconds inside all three leaf layers.
    pub fn leaf_ns(&self) -> u64 {
        self.metric_ns + self.index_ns + self.storage_ns
    }
}

impl LayerClock {
    /// The current totals.
    pub fn read(&self) -> LayerReading {
        LayerReading {
            metric_ns: self.metric_ns.load(Relaxed),
            distances: self.distances.load(Relaxed),
            index_ns: self.index_ns.load(Relaxed),
            pages_planned: self.pages_planned.load(Relaxed),
            storage_ns: self.storage_ns.load(Relaxed),
            storage_calls: self.storage_calls.load(Relaxed),
        }
    }

    /// Runs `f`, adding its duration (less the clock's cost) times `scale`
    /// to `sink`.
    fn timed<R>(sink: &AtomicU64, scale: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(clock_cost_ns());
        sink.fetch_add(ns * scale, Relaxed);
        r
    }

    /// Runs `f`, timing it only when `calls` hits a multiple of
    /// [`SAMPLE_EVERY`].
    fn sampled<R>(sink: &AtomicU64, calls: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if calls.fetch_add(1, Relaxed).is_multiple_of(SAMPLE_EVERY) {
            Self::timed(sink, SAMPLE_EVERY, f)
        } else {
            f()
        }
    }
}

/// A [`Metric`] that counts every distance and accumulates the time spent
/// computing them in a [`LayerClock`].
#[derive(Clone, Debug)]
pub struct TimedMetric<M> {
    inner: M,
    clock: Arc<LayerClock>,
}

impl<M> TimedMetric<M> {
    /// Wraps `inner`.
    pub fn new(inner: M, clock: Arc<LayerClock>) -> Self {
        clock_cost_ns();
        Self { inner, clock }
    }
}

impl<M: Metric<Vector>> Metric<Vector> for TimedMetric<M> {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        let c = &*self.clock;
        c.distances.fetch_add(1, Relaxed);
        LayerClock::sampled(&c.metric_ns, &c.metric_pair_calls, || {
            self.inner.distance(a, b)
        })
    }

    fn distance_batch(&self, query: &Vector, objects: &[&Vector], out: &mut [f64]) {
        let c = &*self.clock;
        c.distances.fetch_add(objects.len() as u64, Relaxed);
        LayerClock::timed(&c.metric_ns, 1, || {
            self.inner.distance_batch(query, objects, out)
        })
    }

    fn distance_le(&self, a: &Vector, b: &Vector, bound: f64) -> Option<f64> {
        let c = &*self.clock;
        c.distances.fetch_add(1, Relaxed);
        LayerClock::sampled(&c.metric_ns, &c.metric_pair_calls, || {
            self.inner.distance_le(a, b, bound)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports_triangle_avoidance(&self) -> bool {
        self.inner.supports_triangle_avoidance()
    }

    fn nonnegative(&self) -> bool {
        self.inner.nonnegative()
    }
}

/// A [`SimilarityIndex`] that times `plan`, every `PagePlan::next` and
/// (sampled) every `page_mindist`, and counts the pages its plans return.
pub struct TimedIndex<'a> {
    inner: &'a dyn SimilarityIndex<Vector>,
    clock: Arc<LayerClock>,
}

impl<'a> TimedIndex<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn SimilarityIndex<Vector>, clock: Arc<LayerClock>) -> Self {
        clock_cost_ns();
        Self { inner, clock }
    }
}

struct TimedPlan<'a> {
    inner: Box<dyn PagePlan + 'a>,
    clock: &'a LayerClock,
}

impl PagePlan for TimedPlan<'_> {
    fn next(&mut self, query_dist: f64) -> Option<(PageId, f64)> {
        let page = LayerClock::timed(&self.clock.index_ns, 1, || self.inner.next(query_dist));
        if page.is_some() {
            self.clock.pages_planned.fetch_add(1, Relaxed);
        }
        page
    }
}

impl SimilarityIndex<Vector> for TimedIndex<'_> {
    fn plan<'a>(&'a self, query: &'a Vector) -> Box<dyn PagePlan + 'a> {
        let inner = LayerClock::timed(&self.clock.index_ns, 1, || self.inner.plan(query));
        Box::new(TimedPlan {
            inner,
            clock: &self.clock,
        })
    }

    fn page_mindist(&self, query: &Vector, page: PageId) -> f64 {
        let c = &*self.clock;
        LayerClock::sampled(&c.index_ns, &c.mindist_calls, || {
            self.inner.page_mindist(query, page)
        })
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`PageStore`] that times and counts its three read calls; everything
/// else is forwarded untouched.
#[derive(Debug)]
pub struct TimedStore<'a> {
    inner: &'a dyn PageStore<Vector>,
    clock: Arc<LayerClock>,
}

impl<'a> TimedStore<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn PageStore<Vector>, clock: Arc<LayerClock>) -> Self {
        clock_cost_ns();
        Self { inner, clock }
    }

    fn read<R>(&self, f: impl FnOnce() -> R) -> R {
        self.clock.storage_calls.fetch_add(1, Relaxed);
        LayerClock::timed(&self.clock.storage_ns, 1, f)
    }
}

impl PageStore<Vector> for TimedStore<'_> {
    fn database(&self) -> &PagedDatabase<Vector> {
        self.inner.database()
    }
    fn try_read_page(&self, id: PageId) -> Result<&Page<Vector>, DiskError> {
        self.read(|| self.inner.try_read_page(id))
    }
    fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<Vector>, DiskError> {
        self.read(|| self.inner.try_read_page_pinned(id))
    }
    fn try_prefetch(&self, id: PageId) -> Result<(), DiskError> {
        self.read(|| self.inner.try_prefetch(id))
    }
    fn unpin_page(&self, id: PageId) {
        self.inner.unpin_page(id)
    }
    fn drop_prefetch_pins(&self) {
        self.inner.drop_prefetch_pins()
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn cold_restart(&self) {
        self.inner.cold_restart()
    }
    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.attach_recorder(recorder)
    }
    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan)
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn is_killed(&self) -> bool {
        self.inner.is_killed()
    }
    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }
    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }
    fn pinned_pages(&self) -> usize {
        self.inner.pinned_pages()
    }
    fn checksum(&self, id: PageId) -> u64 {
        self.inner.checksum(id)
    }
}

/// One set of decorators' shared state: the clock they accumulate into and
/// the recorder the engine behind them reports its avoidance counters to.
#[derive(Debug)]
pub struct Decorators {
    /// Busy time and counts of metric, index and storage.
    pub clock: Arc<LayerClock>,
    /// Carries the engine's `mq_core_*` counters.
    pub recorder: Recorder,
}

impl Default for Decorators {
    fn default() -> Self {
        Self {
            clock: Arc::default(),
            recorder: Recorder::enabled(),
        }
    }
}

impl Decorators {
    /// Calls `f` with an engine over `store`, `index` and `metric`, each
    /// behind its decorator.
    pub fn with_engine<M: Metric<Vector>, R>(
        &self,
        store: &dyn PageStore<Vector>,
        index: &dyn SimilarityIndex<Vector>,
        metric: M,
        f: impl FnOnce(&QueryEngine<'_, Vector, TimedMetric<M>>) -> R,
    ) -> R {
        let store = TimedStore::new(store, self.clock.clone());
        let index = TimedIndex::new(index, self.clock.clone());
        let metric = TimedMetric::new(metric, self.clock.clone());
        f(&QueryEngine::new(&store, &index, metric).with_recorder(&self.recorder))
    }
}

/// One `execute` call seen by a [`TimedBackend`].
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// The scheduler's `batch_id` of this call.
    pub id: u64,
    /// When `execute` was entered, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// Queries in the batch.
    pub size: usize,
    /// The batch itself, for the replay through a traced engine; empty
    /// unless the log was keeping queries.
    pub queries: Vec<(Vector, QueryType)>,
}

impl BatchRecord {
    /// Time inside `execute`, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a [`TimedBackend`] has seen; shared with the benchmark's client.
#[derive(Debug, Default)]
pub struct BackendLog {
    calls: AtomicU64,
    keep_queries: AtomicBool,
    batches: Mutex<Vec<BatchRecord>>,
}

impl BackendLog {
    /// Whether records keep a copy of their batch (the traced phases) or
    /// only its two timestamps and size.
    pub fn keep_queries(&self, on: bool) {
        self.keep_queries.store(on, Relaxed);
    }

    /// Takes every batch recorded so far, in execution order.
    pub fn take(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.batches.lock().expect("no panic holds the batch log"))
    }
}

/// A [`QueryBackend`] that records when each batch started and ended — the
/// on-CPU part of every request in it — and, on demand, what it contained.
/// The scheduler's `batch_id` counts `execute` calls from 1 and its single
/// worker makes them in order, so counting calls here reproduces the id
/// every reply of the batch carries.
pub struct TimedBackend {
    inner: Box<dyn QueryBackend>,
    log: Arc<BackendLog>,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn QueryBackend>, log: Arc<BackendLog>) -> Self {
        Self { inner, log }
    }
}

impl QueryBackend for TimedBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        let id = self.log.calls.fetch_add(1, Relaxed) + 1;
        let size = queries.len();
        let kept = if self.log.keep_queries.load(Relaxed) {
            queries.clone()
        } else {
            Vec::new()
        };
        let start_ns = now_ns();
        let out = self.inner.execute(queries);
        let end_ns = now_ns();
        self.log
            .batches
            .lock()
            .expect("no panic holds the batch log")
            .push(BatchRecord {
                id,
                start_ns,
                end_ns,
                size,
                queries: kept,
            });
        out
    }

    fn dimensions(&self) -> usize {
        self.inner.dimensions()
    }

    fn object_count(&self) -> u64 {
        self.inner.object_count()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// One span of the trace. A layer span covers its operation's interval and
/// carries the layer's busy time and call count inside it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or stage name.
    pub name: &'static str,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Time the layer was busy inside the interval.
    pub busy_ns: u64,
    /// Calls into the layer (distances, pages planned, reads).
    pub calls: u64,
}

/// The in-memory span buffer of a traced run, written out at exit.
#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Appends a span and returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.0.push(span);
        self.0.len() - 1
    }

    /// Records one operation `[start_ns, end_ns]` of layer `root` that spent
    /// `leaf` in the leaf layers: a root span whose busy time is its self
    /// time, and one child per leaf layer.
    pub fn push_op(
        &mut self,
        root: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        leaf: LayerReading,
    ) {
        let busy_ns = (end_ns - start_ns).saturating_sub(leaf.leaf_ns());
        let parent = Some(self.push(Span {
            name: root,
            op,
            parent: None,
            start_ns,
            end_ns,
            busy_ns,
            calls: 1,
        }));
        for (name, busy_ns, calls) in [
            ("metric", leaf.metric_ns, leaf.distances),
            ("index", leaf.index_ns, leaf.pages_planned),
            ("storage", leaf.storage_ns, leaf.storage_calls),
        ] {
            self.push(Span {
                name,
                op,
                parent,
                start_ns,
                end_ns,
                busy_ns,
                calls,
            });
        }
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.0.len() * 120 + 4);
        out.push_str("[\n");
        for (i, s) in self.0.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.busy_ns, s.calls
            );
            out.push_str(if i + 1 == self.0.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_core::QueryEngine;
    use mq_datagen::tycho_like;
    use mq_index::{XTree, XTreeConfig};
    use mq_metric::Euclidean;
    use mq_storage::{Dataset, SimulatedDisk};

    /// Answers and exact counts of one traced block.
    fn traced_block(seed: u64) -> (Vec<Vec<Answer>>, LayerReading) {
        let objects = tycho_like(1_500, seed);
        let (tree, db) = XTree::bulk_load(&Dataset::new(objects.clone()), XTreeConfig::default());
        let disk = SimulatedDisk::new(db, 0.10);
        let decorators = Decorators::default();
        let block = (0..16)
            .map(|i| (objects[i * 7].clone(), QueryType::knn(5)))
            .collect();
        let answers = decorators.with_engine(&disk, &tree, Euclidean, |engine| {
            engine.multiple_similarity_query(block)
        });
        (answers, decorators.clock.read())
    }

    #[test]
    fn decorators_change_no_answer_and_counts_repeat() {
        let (answers, counts) = traced_block(11);
        let (again, counts_again) = traced_block(11);
        assert_eq!(answers, again);
        assert_eq!(counts.distances, counts_again.distances);
        assert_eq!(counts.pages_planned, counts_again.pages_planned);
        assert_eq!(counts.storage_calls, counts_again.storage_calls);
        assert!(counts.distances > 0 && counts.pages_planned > 0 && counts.storage_calls > 0);

        let objects = tycho_like(1_500, 11);
        let (tree, db) = XTree::bulk_load(&Dataset::new(objects.clone()), XTreeConfig::default());
        let disk = SimulatedDisk::new(db, 0.10);
        let plain = QueryEngine::new(&disk, &tree, Euclidean);
        let block = (0..16)
            .map(|i| (objects[i * 7].clone(), QueryType::knn(5)))
            .collect();
        assert_eq!(answers, plain.multiple_similarity_query(block));
    }

    #[test]
    fn op_spans_nest_and_serialize() {
        let mut spans = Spans::default();
        let leaf = LayerReading {
            metric_ns: 30,
            distances: 9,
            index_ns: 20,
            pages_planned: 2,
            storage_ns: 10,
            storage_calls: 2,
        };
        spans.push_op("core", 7, 100, 200, leaf);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.0[0].busy_ns, 40);
        assert!(spans.0[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.op == 7));
        let json = spans.to_json();
        assert!(json.contains("\"name\":\"metric\",\"op\":7,\"parent\":0"));
        assert!(json.starts_with("[\n{\"id\":0,\"name\":\"core\""));
        assert!(json.ends_with("}\n]\n"));
    }
}
