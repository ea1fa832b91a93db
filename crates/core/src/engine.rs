//! The query engine: the paper's `DB` class with both query operations.

use crate::answers::{Answer, AnswerList};
use crate::fault::{EngineError, FaultPolicy};
use crate::multiple::{self, MultiQuerySession};
use crate::obs::EngineObs;
use crate::query::QueryType;
use crate::single;
use mq_index::SimilarityIndex;
use mq_metric::{Metric, ObjectId};
use mq_obs::Recorder;
use mq_storage::{PageStore, StorageObject};
use std::sync::Arc;

/// Tuning knobs of the [`QueryEngine`].
///
/// The defaults reproduce the paper's configuration: §5.2 avoidance on
/// and no prefetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Whether §5.2 triangle-inequality avoidance is enabled.
    pub avoidance: bool,
    /// Pages staged ahead of the one being evaluated (0 = no prefetch).
    /// Answers, counters, `logical_reads`, and per-query page sets are
    /// identical for every depth; see [`crate::multiple`] for why.
    pub prefetch_depth: usize,
    /// How disk faults are retried before a step surfaces an
    /// [`EngineError`]; see [`FaultPolicy`]. Irrelevant (and free) when the
    /// disk has no fault plan installed — the default budget of 0 then
    /// never costs a branch on the hot path.
    pub fault_policy: FaultPolicy,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            avoidance: true,
            prefetch_depth: 0,
            fault_policy: FaultPolicy::default(),
        }
    }
}

/// A query engine over one page store (simulated or file-backed), one
/// access method and one metric.
///
/// This is the paper's database class `DB`: it offers the classic
/// `similarity_query(Q, T)` (Fig. 1) and the new
/// `multiple_similarity_query(Queries, SimTypes)` (Fig. 4), the latter in
/// its full incremental form via sessions.
///
/// `metric` is typically a [`mq_metric::CountingMetric`], making every
/// distance calculation — query evaluation, `QObjDists` initialization, and
/// (for the M-tree) routing — observable as CPU cost.
///
/// ```
/// use mq_core::{QueryEngine, QueryType};
/// use mq_index::LinearScan;
/// use mq_metric::{Euclidean, Vector};
/// use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
///
/// let ds = Dataset::new((0..100).map(|i| Vector::new(vec![i as f32])).collect());
/// let db = PagedDatabase::pack(&ds, Default::default());
/// let scan = LinearScan::new(db.page_count());
/// let disk = SimulatedDisk::new(db, 0.10);
/// let engine = QueryEngine::new(&disk, &scan, Euclidean);
///
/// // Fig. 1: a single 3-NN query.
/// let q = Vector::new(vec![41.4]);
/// let answers = engine.similarity_query(&q, &QueryType::knn(3));
/// let ids: Vec<u32> = answers.ids().map(|id| id.0).collect();
/// assert_eq!(ids, vec![41, 42, 40]);
///
/// // Fig. 4: a multiple similarity query — same answers per query.
/// let batch = vec![(q.clone(), QueryType::knn(3)), (Vector::new(vec![7.0]), QueryType::range(1.0))];
/// let all = engine.multiple_similarity_query(batch);
/// assert_eq!(all[0].iter().map(|a| a.id.0).collect::<Vec<_>>(), vec![41, 42, 40]);
/// assert_eq!(all[1].len(), 3); // 6.0, 7.0, 8.0
/// ```
pub struct QueryEngine<'a, O, M> {
    disk: &'a dyn PageStore<O>,
    index: &'a dyn SimilarityIndex<O>,
    metric: M,
    options: EngineOptions,
    /// Engine instruments, pre-registered by
    /// [`with_recorder`](Self::with_recorder) (`None` = observability off;
    /// the step loop then pays one discriminant check).
    obs: Option<Arc<EngineObs>>,
}

impl<'a, O: StorageObject, M: Metric<O>> QueryEngine<'a, O, M> {
    /// Creates an engine with triangle-inequality avoidance enabled (the
    /// paper's configuration).
    pub fn new(disk: &'a dyn PageStore<O>, index: &'a dyn SimilarityIndex<O>, metric: M) -> Self {
        Self {
            disk,
            index,
            metric,
            options: EngineOptions::default(),
            obs: None,
        }
    }

    /// Wires an observability [`Recorder`] through the engine: step,
    /// distance-calculation and completion-latency instruments are
    /// registered now. A disabled recorder (the default) keeps the hot path
    /// at a single branch. The disk is **not** implicitly attached — call
    /// [`PageStore::attach_recorder`] for buffer metrics, so that
    /// engines sharing a disk don't fight over its recorder.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.obs = EngineObs::new(recorder);
        self
    }

    /// Shares a pre-built instrument bundle (e.g. one per server backend,
    /// reused across per-batch engines) instead of registering a fresh one.
    pub fn with_obs(mut self, obs: Option<Arc<EngineObs>>) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the whole option block — the one setter for
    /// [`EngineOptions`].
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The access method in use.
    pub fn index(&self) -> &dyn SimilarityIndex<O> {
        self.index
    }

    /// The page store in use.
    pub fn disk(&self) -> &'a dyn PageStore<O> {
        self.disk
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The current option block.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Answers one similarity query (Fig. 1).
    ///
    /// # Panics
    /// Panics if the disk faults past the retry budget; fault-aware callers
    /// use [`try_similarity_query`](Self::try_similarity_query).
    pub fn similarity_query(&self, query: &O, qtype: &QueryType) -> AnswerList {
        self.try_similarity_query(query, qtype)
            .unwrap_or_else(|e| panic!("unrecoverable engine error: {e}"))
    }

    /// Fallible [`similarity_query`](Self::similarity_query): disk faults
    /// are retried per the engine's [`FaultPolicy`], then surfaced.
    pub fn try_similarity_query(
        &self,
        query: &O,
        qtype: &QueryType,
    ) -> Result<AnswerList, EngineError> {
        single::try_similarity_query(
            self.disk,
            self.index,
            &self.metric,
            query,
            qtype,
            self.options.fault_policy,
        )
    }

    /// Opens a multiple-query session over the given queries (the answer
    /// buffer of Fig. 4). Queries are admitted in order; admitting each
    /// costs its row of the `QObjDists` matrix.
    pub fn new_session(
        &self,
        queries: impl IntoIterator<Item = (O, QueryType)>,
    ) -> MultiQuerySession<O> {
        let mut session = MultiQuerySession::with_page_count(self.disk.database().page_count());
        for (object, qtype) in queries {
            multiple::admit(&mut session, &self.metric, object, None, qtype);
        }
        session
    }

    /// Admits one more query object into an existing session — the dynamic
    /// case of §5.1, where an `ExploreNeighborhoods` algorithm turns answers
    /// of earlier queries into new query objects. Returns the new query's
    /// index.
    pub fn push_query(
        &self,
        session: &mut MultiQuerySession<O>,
        object: O,
        qtype: QueryType,
    ) -> usize {
        multiple::admit(session, &self.metric, object, None, qtype)
    }

    /// [`push_query`](Self::push_query) for an object stored in the
    /// database, admitted by its id: the engine fetches the object itself,
    /// and every page that holds its record takes that record's distance to
    /// each active query from `QObjDists` instead of computing it. Answers
    /// are bit-identical to admitting the object by value. Returns the new
    /// query's index.
    ///
    /// # Panics
    /// Panics if `id` is deleted or out of range.
    pub fn push_stored_query(
        &self,
        session: &mut MultiQuerySession<O>,
        id: ObjectId,
        qtype: QueryType,
    ) -> usize {
        let object = self.disk.database().object(id).clone();
        multiple::admit(session, &self.metric, object, Some(id), qtype)
    }

    /// One call of the paper's `multiple_similarity_query` (Fig. 4):
    /// completes the first pending query of the session (its answers are
    /// then exactly `similarity_query(Q, T)`), advancing all trailing
    /// pending queries opportunistically. Returns the completed query's
    /// index, or `None` if no query is pending.
    ///
    /// # Panics
    /// Panics if the disk faults past the retry budget; fault-aware callers
    /// use [`try_multiple_query_step`](Self::try_multiple_query_step).
    pub fn multiple_query_step(&self, session: &mut MultiQuerySession<O>) -> Option<usize> {
        self.try_multiple_query_step(session)
            .unwrap_or_else(|e| panic!("unrecoverable engine error: {e}"))
    }

    /// Fallible [`multiple_query_step`](Self::multiple_query_step): disk
    /// faults are retried per the engine's [`FaultPolicy`], then surfaced
    /// as `Err` **with the session intact** — partial answers and
    /// processed-page sets keep Definition 4's subset guarantee, and
    /// calling the step again resumes where the error struck without
    /// re-evaluating any merged page.
    pub fn try_multiple_query_step(
        &self,
        session: &mut MultiQuerySession<O>,
    ) -> Result<Option<usize>, EngineError> {
        multiple::step(
            session,
            self.disk,
            self.index,
            &self.metric,
            self.options,
            self.obs.as_deref(),
        )
    }

    /// Runs steps until every admitted query is complete.
    ///
    /// # Panics
    /// Panics if the disk faults past the retry budget; fault-aware callers
    /// use [`try_run_to_completion`](Self::try_run_to_completion).
    pub fn run_to_completion(&self, session: &mut MultiQuerySession<O>) {
        while self.multiple_query_step(session).is_some() {}
    }

    /// Fallible [`run_to_completion`](Self::run_to_completion). On `Err`
    /// the session keeps every already-completed query and all partial
    /// answers; the caller may retry (transient faults re-roll per attempt)
    /// or surface the error.
    pub fn try_run_to_completion(
        &self,
        session: &mut MultiQuerySession<O>,
    ) -> Result<(), EngineError> {
        while self.try_multiple_query_step(session)?.is_some() {}
        Ok(())
    }

    /// Runs steps until query `i` is complete — the paper's incremental
    /// contract made explicit: the demanded query (typically the
    /// first-admitted pending one) is answered completely when the caller
    /// needs it. Returns `true` once complete (`false` only if `i` is out
    /// of range).
    ///
    /// # Panics
    /// Panics if the disk faults past the retry budget.
    pub fn complete_query(&self, session: &mut MultiQuerySession<O>, i: usize) -> bool {
        if i >= session.query_count() {
            return false;
        }
        while !session.is_complete(i) {
            if self.multiple_query_step(session).is_none() {
                break;
            }
        }
        session.is_complete(i)
    }

    /// Reconciles an in-flight session with an object newly inserted into
    /// the underlying store (the online-insert path of `mq-store`).
    ///
    /// The session's page universe grows to the store's current
    /// `page_count`. Queries that already processed the affected page —
    /// and queries that are already complete — would otherwise never see
    /// the new object, so it is evaluated against them immediately (one
    /// counted distance computation each, §5.2 bounds still applied via
    /// [`Metric::distance_le`]); every other query picks it up through
    /// normal page processing. This preserves Definition 4's incremental
    /// contract: partial answers stay subsets of the post-insert full
    /// answers at every step. Returns how many queries were evaluated
    /// eagerly.
    ///
    /// The engine must have been (re)built over the post-insert store and
    /// index before calling this.
    ///
    /// # Panics
    /// Panics if `new_id` is not present in the store's database.
    pub fn notify_insert(&self, session: &mut MultiQuerySession<O>, new_id: ObjectId) -> usize {
        let db = self.disk.database();
        let (page, _slot) = db.locate(new_id);
        let object = db.object(new_id).clone();
        multiple::notify_insert(
            session,
            &self.metric,
            new_id,
            &object,
            page,
            db.page_count(),
        )
    }

    /// Reconciles an in-flight session with an object deleted from the
    /// underlying store. Queries whose answer lists contain the deleted
    /// object are reset (answers, processed pages, completion) and will
    /// re-scan: a k-NN list that loses a member may need to re-admit an
    /// object it pruned earlier, so incremental repair is unsound there.
    /// Queries unaffected by the deletion keep all progress. Returns how
    /// many queries were invalidated.
    pub fn notify_delete(&self, session: &mut MultiQuerySession<O>, id: ObjectId) -> usize {
        multiple::notify_delete(session, id)
    }

    /// Convenience: evaluates a whole batch of queries through one session
    /// and returns the complete answer lists in input order.
    pub fn multiple_similarity_query(&self, queries: Vec<(O, QueryType)>) -> Vec<Vec<Answer>> {
        let mut session = self.new_session(queries);
        self.run_to_completion(&mut session);
        session.into_answers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::{LinearScan, SimilarityIndex, XTree, XTreeConfig};
    use mq_metric::{CountingMetric, Euclidean, ObjectId, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

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

    #[test]
    fn multiple_head_answers_equal_single_answers() {
        let ds = Dataset::new(random_points(400, 4, 101));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        let queries: Vec<(Vector, QueryType)> = ds
            .objects()
            .iter()
            .take(8)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        let multi = engine.multiple_similarity_query(queries.clone());
        for (q, t) in &queries {
            let single = engine.similarity_query(q, t);
            let idx = queries.iter().position(|(o, _)| o == q).unwrap();
            let multi_ids: Vec<ObjectId> = multi[idx].iter().map(|a| a.id).collect();
            let single_ids: Vec<ObjectId> = single.ids().collect();
            assert_eq!(multi_ids, single_ids, "query {idx} differs");
        }
    }

    #[test]
    fn definition4_partial_answers_are_subsets() {
        let ds = Dataset::new(random_points(300, 4, 103));
        let cfg = XTreeConfig { layout: layout() };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);

        let queries: Vec<(Vector, QueryType)> = ds
            .objects()
            .iter()
            .take(6)
            .map(|v| (v.clone(), QueryType::range(20.0)))
            .collect();
        let mut session = engine.new_session(queries.clone());
        // One step: head complete, trailing partial.
        let head = engine.multiple_query_step(&mut session).expect("one step");
        assert_eq!(head, 0);
        assert!(session.is_complete(0));
        for (i, (q, t)) in queries.iter().enumerate().skip(1) {
            let full = engine.similarity_query(q, t);
            let full_ids: std::collections::HashSet<ObjectId> = full.ids().collect();
            for a in session.answers(i).as_slice() {
                assert!(
                    full_ids.contains(&a.id),
                    "partial answer not in full answer set"
                );
            }
        }
    }

    #[test]
    fn avoidance_does_not_change_results() {
        let ds = Dataset::new(random_points(400, 4, 107));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);

        let queries: Vec<(Vector, QueryType)> = ds
            .objects()
            .iter()
            .step_by(37)
            .take(10)
            .map(|v| (v.clone(), QueryType::range(15.0)))
            .collect();

        let with =
            QueryEngine::new(&disk, &scan, Euclidean).multiple_similarity_query(queries.clone());
        let without = QueryEngine::new(&disk, &scan, Euclidean)
            .with_options(EngineOptions {
                avoidance: false,
                ..Default::default()
            })
            .multiple_similarity_query(queries.clone());
        for (a, b) in with.iter().zip(&without) {
            let ia: Vec<ObjectId> = a.iter().map(|x| x.id).collect();
            let ib: Vec<ObjectId> = b.iter().map(|x| x.id).collect();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn avoidance_reduces_distance_calculations() {
        let ds = Dataset::new(random_points(600, 4, 109));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        // Clustered query objects (all near each other) with tight ranges:
        // prime avoidance territory.
        let queries: Vec<(Vector, QueryType)> = ds
            .objects()
            .iter()
            .take(10)
            .map(|v| (v.clone(), QueryType::range(5.0)))
            .collect();

        let counting = CountingMetric::new(Euclidean);
        let counter = counting.counter().clone();
        let engine = QueryEngine::new(&disk, &scan, counting);
        counter.reset();
        let mut session = engine.new_session(queries.clone());
        engine.run_to_completion(&mut session);
        let with_avoidance = counter.get();
        let stats = session.avoidance_stats();
        assert!(stats.avoided > 0, "no distance calculation avoided");

        let counting = CountingMetric::new(Euclidean);
        let counter = counting.counter().clone();
        let engine = QueryEngine::new(&disk, &scan, counting).with_options(EngineOptions {
            avoidance: false,
            ..Default::default()
        });
        counter.reset();
        let mut session = engine.new_session(queries);
        engine.run_to_completion(&mut session);
        let without_avoidance = counter.get();

        assert!(
            with_avoidance < without_avoidance,
            "avoidance did not reduce calculations: {with_avoidance} vs {without_avoidance}"
        );
    }

    #[test]
    fn multiple_on_scan_reads_database_once() {
        let ds = Dataset::new(random_points(500, 4, 113));
        let db = PagedDatabase::pack(&ds, layout());
        let pages = db.page_count();
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let queries: Vec<(Vector, QueryType)> = ds
            .objects()
            .iter()
            .step_by(29)
            .take(12)
            .map(|v| (v.clone(), QueryType::knn(5)))
            .collect();
        disk.reset_stats();
        let _ = engine.multiple_similarity_query(queries);
        let io = disk.stats();
        // §5.1: for the scan, relevant_pages(Q1) = … = relevant_pages(Qm),
        // so C_io^m = C_io^1 — one pass over the database for all queries.
        assert_eq!(
            io.logical_reads, pages as u64,
            "expected exactly one full scan"
        );
    }

    #[test]
    fn multiple_on_xtree_shares_pages() {
        let ds = Dataset::new(random_points(800, 4, 127));
        let cfg = XTreeConfig { layout: layout() };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);

        // Nearby query objects → overlapping relevant-page sets.
        let base = ds.object(mq_metric::ObjectId(0)).clone();
        let queries: Vec<(Vector, QueryType)> = (0..8)
            .map(|i| {
                let v: Vec<f32> = base
                    .components()
                    .iter()
                    .map(|c| c + i as f32 * 0.5)
                    .collect();
                (Vector::new(v), QueryType::knn(10))
            })
            .collect();

        // Multiple query: union of relevant pages.
        disk.cold_restart();
        let _ = engine.multiple_similarity_query(queries.clone());
        let multi_reads = disk.stats().logical_reads;

        // Single queries: sum of relevant pages.
        disk.cold_restart();
        for (q, t) in &queries {
            let _ = engine.similarity_query(q, t);
        }
        let single_reads = disk.stats().logical_reads;

        assert!(
            multi_reads < single_reads,
            "page sharing failed: {multi_reads} vs {single_reads}"
        );
    }

    #[test]
    fn dynamic_push_query_is_answered() {
        let ds = Dataset::new(random_points(300, 4, 131));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        let q0 = ds.object(ObjectId(0)).clone();
        let mut session = engine.new_session(vec![(q0, QueryType::knn(3))]);
        let _ = engine.multiple_query_step(&mut session);
        // Push the head's nearest neighbor as a new query (ExploreNeighborhoods).
        let nn = session.answers(0).as_slice()[1].id;
        let nn_obj = disk.database().object(nn).clone();
        let idx = engine.push_query(&mut session, nn_obj.clone(), QueryType::knn(3));
        assert_eq!(idx, 1);
        engine.run_to_completion(&mut session);
        assert!(session.is_complete(1));
        let expected = engine.similarity_query(&nn_obj, &QueryType::knn(3));
        let got: Vec<ObjectId> = session.answers(1).ids().collect();
        let want: Vec<ObjectId> = expected.ids().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stored_queries_answer_like_objects_even_when_repeated() {
        let ds = Dataset::new(random_points(300, 4, 151));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        // Id 7 twice, and a radius every record is inside: each query
        // answers with record 7 once, not once per admission.
        let ids = [7, 8, 7, 120].map(ObjectId);
        let qtype = QueryType::range(1000.0);
        let mut by_id = engine.new_session(Vec::new());
        for id in ids {
            engine.push_stored_query(&mut by_id, id, qtype);
        }
        engine.run_to_completion(&mut by_id);
        assert!(by_id.avoidance_stats().reused > 0);
        let by_value =
            engine.multiple_similarity_query(ids.map(|id| (ds.object(id).clone(), qtype)).to_vec());
        assert_eq!(by_id.into_answers(), by_value);
    }

    #[test]
    fn step_returns_none_when_all_complete() {
        let ds = Dataset::new(random_points(100, 4, 137));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut session =
            engine.new_session(vec![(ds.object(ObjectId(5)).clone(), QueryType::knn(2))]);
        assert_eq!(engine.multiple_query_step(&mut session), Some(0));
        assert_eq!(engine.multiple_query_step(&mut session), None);
    }

    #[test]
    fn empty_session() {
        let ds = Dataset::new(random_points(50, 4, 139));
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 4);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut session = engine.new_session(Vec::new());
        assert_eq!(engine.multiple_query_step(&mut session), None);
        assert!(session.into_answers().is_empty());
    }

    #[test]
    fn empty_database_answers_nothing_and_reads_no_page() {
        let ds = Dataset::new(Vec::<Vector>::new());
        let (tree, tree_db) = XTree::bulk_load(&ds, XTreeConfig { layout: layout() });
        let scan_db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(scan_db.page_count());
        let tree_disk = SimulatedDisk::new(tree_db, 0.2);
        let scan_disk = SimulatedDisk::new(scan_db, 0.2);
        let indexes: [(&SimulatedDisk<Vector>, &dyn SimilarityIndex<Vector>); 2] =
            [(&tree_disk, &tree), (&scan_disk, &scan)];
        let q = Vector::new(vec![0.0, 0.0]);
        for (disk, index) in indexes {
            let engine = QueryEngine::new(disk, index, Euclidean);
            for qtype in [QueryType::knn(3), QueryType::range(1000.0)] {
                assert!(engine.similarity_query(&q, &qtype).is_empty());
                let answers = engine.multiple_similarity_query(vec![(q.clone(), qtype); 2]);
                assert!(answers.iter().all(Vec::is_empty), "{answers:?}");
            }
            assert_eq!(disk.stats().logical_reads, 0);
        }
    }
}
