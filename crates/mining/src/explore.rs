//! The ExploreNeighborhoods scheme (Fig. 2) and its multiple-query
//! transformation (Fig. 3).
//!
//! ```text
//! ExploreNeighborhoods(DB, StartObjects, SimType, …)
//!   ControlList := StartObjects;
//!   while condition_check(ControlList, …) do
//!     Object  := ControlList.choose();
//!     proc_1(Object, …);
//!     Answers := DB.similarity_query(Object, SimType);
//!     proc_2(Answers, …);
//!     ControlList := (ControlList ∪ filter(Answers, …)) − {Object};
//! ```
//!
//! The multiple-query form differs only in selecting a *set* of objects: it
//! admits them by id into one multiple-query session
//! ([`QueryEngine::push_stored_query`]) and completes the first with
//! [`QueryEngine::complete_query`]; per loop iteration it still processes
//! only the first object and its (complete) answers. Both drivers here
//! therefore observe **identical** `proc_1`/`proc_2`/`filter` call
//! sequences — property-tested in the integration suite.
//!
//! Termination: the drivers never re-enqueue an object that was ever on the
//! control list (the minimal `filter` guarantee the paper requires); the
//! task's [`NeighborhoodTask::filter`] can restrict further.
//!
//! [`query_blocks`] is the degenerate scheme whose `filter` returns nothing:
//! the start objects are the only query objects, so their queries are
//! independent and run in blocks of `m`.

use mq_core::{Answer, QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;
use std::collections::{HashMap, HashSet, VecDeque};

/// The task-specific hooks of the scheme. The driver owns the control-list
/// mechanics; implementations own the mining semantics.
pub trait NeighborhoodTask {
    /// `condition_check(ControlList, …)` — whether to keep exploring.
    /// The default explores until the control list is empty.
    fn should_continue(&mut self, control: &VecDeque<ObjectId>, steps_done: usize) -> bool {
        let _ = steps_done;
        !control.is_empty()
    }

    /// `SimType` for a given query object (may vary per object, but must
    /// depend on the object alone: the multiple-query driver asks at
    /// admission, before that object's `proc_1` and possibly before earlier
    /// objects' `proc_2`).
    fn sim_type(&mut self, object: ObjectId) -> QueryType;

    /// `proc_1(Object, …)` — processing before the query.
    fn proc_1(&mut self, object: ObjectId) {
        let _ = object;
    }

    /// `proc_2(Answers, …)` — processing of the complete answers.
    fn proc_2(&mut self, object: ObjectId, answers: &[Answer]);

    /// `filter(Answers, …)` — which answers become new query objects. The
    /// driver additionally drops everything that was ever enqueued.
    fn filter(&mut self, object: ObjectId, answers: &[Answer]) -> Vec<ObjectId>;
}

/// Runs the scheme with **single** similarity queries (Fig. 2).
/// Returns the number of loop iterations (= similarity queries issued).
pub fn explore_neighborhoods<O, M, T>(
    engine: &QueryEngine<'_, O, M>,
    start_objects: &[ObjectId],
    task: &mut T,
) -> usize
where
    O: StorageObject,
    M: Metric<O>,
    T: NeighborhoodTask,
{
    let mut control: VecDeque<ObjectId> = VecDeque::new();
    let mut enqueued: HashSet<ObjectId> = HashSet::new();
    for &id in start_objects {
        if enqueued.insert(id) {
            control.push_back(id);
        }
    }
    let mut steps = 0usize;
    while task.should_continue(&control, steps) {
        let Some(object) = control.pop_front() else {
            break;
        };
        task.proc_1(object);
        let qtype = task.sim_type(object);
        let query_obj = engine.disk().database().object(object).clone();
        let answers = engine.similarity_query(&query_obj, &qtype);
        task.proc_2(object, answers.as_slice());
        for id in task.filter(object, answers.as_slice()) {
            if enqueued.insert(id) {
                control.push_back(id);
            }
        }
        steps += 1;
    }
    steps
}

/// Runs the scheme with **multiple** similarity queries (Fig. 3):
/// `ControlList.choose_multiple()` selects up to `batch_size` objects, the
/// engine completes the first and prefetches the rest; only the first
/// object's answers are processed per iteration.
///
/// `max_session` bounds the answer-buffer size (the paper's memory limit on
/// `m`): when the session outgrows it, a fresh session is started and
/// buffered partial answers are dropped.
///
/// Returns the number of loop iterations.
pub fn explore_neighborhoods_multiple<O, M, T>(
    engine: &QueryEngine<'_, O, M>,
    start_objects: &[ObjectId],
    task: &mut T,
    batch_size: usize,
    max_session: usize,
) -> usize
where
    O: StorageObject,
    M: Metric<O>,
    T: NeighborhoodTask,
{
    assert!(batch_size > 0, "batch size must be positive");
    assert!(max_session >= batch_size, "session bound below batch size");
    let mut control: VecDeque<ObjectId> = VecDeque::new();
    let mut enqueued: HashSet<ObjectId> = HashSet::new();
    for &id in start_objects {
        if enqueued.insert(id) {
            control.push_back(id);
        }
    }

    let mut session = engine.new_session(Vec::new());
    // ObjectId → index of its query in the current session.
    let mut admitted: HashMap<ObjectId, usize> = HashMap::new();

    let mut steps = 0usize;
    while task.should_continue(&control, steps) {
        let Some(&head) = control.front() else { break };
        task.proc_1(head);

        // choose_multiple(): the head plus up to batch_size − 1 lookahead
        // objects, admitted to the session so the engine can prefetch them.
        if session.query_count() >= max_session {
            session = engine.new_session(Vec::new());
            admitted.clear();
        }
        for &id in control.iter().take(batch_size) {
            admitted
                .entry(id)
                .or_insert_with(|| engine.push_stored_query(&mut session, id, task.sim_type(id)));
        }

        // Complete the head query (trailing queries advance as a side
        // effect of the shared page reads).
        // Pending queries admitted before the head complete first; their
        // completed answers stay buffered for their own turn.
        let head_idx = admitted[&head];
        engine.complete_query(&mut session, head_idx);
        control.pop_front();

        let answers = session.answers(head_idx).as_slice();
        task.proc_2(head, answers);
        for id in task.filter(head, answers) {
            if enqueued.insert(id) {
                control.push_back(id);
            }
        }
        steps += 1;
    }
    steps
}

/// Answers one `qtype` query for each database object in `ids` and hands
/// `each(id, answers)` the complete answers, in `ids` order. `None` issues
/// single similarity queries (Fig. 1, the baseline); `Some(m)` issues one
/// multiple similarity query per block of `m` ids, admitted by id, so a
/// record that is itself a query of the block takes its distances from
/// `QObjDists`. Answers are identical either way.
///
/// # Panics
/// Panics if `batch` is `Some(0)`.
pub fn query_blocks<O, M>(
    engine: &QueryEngine<'_, O, M>,
    ids: &[ObjectId],
    qtype: QueryType,
    batch: Option<usize>,
    mut each: impl FnMut(ObjectId, &[Answer]),
) where
    O: StorageObject,
    M: Metric<O>,
{
    let Some(m) = batch else {
        for &id in ids {
            let object = engine.disk().database().object(id).clone();
            each(id, engine.similarity_query(&object, &qtype).as_slice());
        }
        return;
    };
    assert!(m > 0, "batch size must be positive");
    for block in ids.chunks(m) {
        let mut session = engine.new_session(Vec::new());
        for &id in block {
            engine.push_stored_query(&mut session, id, qtype);
        }
        engine.run_to_completion(&mut session);
        for (&id, answers) in block.iter().zip(session.into_answers()) {
            each(id, &answers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    /// A task recording its observation sequence: visits objects up to a
    /// range and collects every visited object.
    struct Crawl {
        eps: f64,
        visited: Vec<ObjectId>,
        proc2_log: Vec<(ObjectId, Vec<ObjectId>)>,
    }

    impl NeighborhoodTask for Crawl {
        fn sim_type(&mut self, _object: ObjectId) -> QueryType {
            QueryType::range(self.eps)
        }

        fn proc_2(&mut self, object: ObjectId, answers: &[Answer]) {
            self.visited.push(object);
            self.proc2_log
                .push((object, answers.iter().map(|a| a.id).collect()));
        }

        fn filter(&mut self, _object: ObjectId, answers: &[Answer]) -> Vec<ObjectId> {
            answers.iter().map(|a| a.id).collect()
        }
    }

    fn line_db() -> (Dataset<Vector>, PagedDatabase<Vector>) {
        // Two chains of points, 1 apart within a chain, 100 apart between.
        let mut pts: Vec<Vector> = (0..20).map(|i| Vector::new(vec![i as f32])).collect();
        pts.extend((0..20).map(|i| Vector::new(vec![1000.0 + i as f32])));
        let ds = Dataset::new(pts);
        let db = PagedDatabase::pack(&ds, PageLayout::new(64, 16));
        (ds, db)
    }

    #[test]
    fn single_driver_crawls_connected_component_only() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut task = Crawl {
            eps: 1.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        let steps = explore_neighborhoods(&engine, &[ObjectId(0)], &mut task);
        assert_eq!(steps, 20, "only the first chain is reachable");
        let mut visited = task.visited.clone();
        visited.sort_unstable();
        assert_eq!(visited, (0..20u32).map(ObjectId).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_driver_observes_identical_sequence() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        let mut single = Crawl {
            eps: 1.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        explore_neighborhoods(&engine, &[ObjectId(0)], &mut single);

        for batch in [1usize, 3, 8] {
            let mut multi = Crawl {
                eps: 1.5,
                visited: Vec::new(),
                proc2_log: Vec::new(),
            };
            explore_neighborhoods_multiple(&engine, &[ObjectId(0)], &mut multi, batch, 64);
            assert_eq!(
                multi.visited, single.visited,
                "batch {batch}: visit order differs"
            );
            assert_eq!(
                multi.proc2_log, single.proc2_log,
                "batch {batch}: answers differ"
            );
        }
    }

    #[test]
    fn multiple_driver_session_reset_preserves_results() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut single = Crawl {
            eps: 1.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        explore_neighborhoods(&engine, &[ObjectId(0)], &mut single);
        // Tiny session bound forces several resets mid-exploration.
        let mut multi = Crawl {
            eps: 1.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        explore_neighborhoods_multiple(&engine, &[ObjectId(0)], &mut multi, 3, 4);
        assert_eq!(multi.proc2_log, single.proc2_log);
    }

    /// Depth-limited exploration via `should_continue`.
    struct DepthLimited {
        inner: Crawl,
        max_steps: usize,
    }

    impl NeighborhoodTask for DepthLimited {
        fn should_continue(&mut self, control: &VecDeque<ObjectId>, steps: usize) -> bool {
            !control.is_empty() && steps < self.max_steps
        }
        fn sim_type(&mut self, o: ObjectId) -> QueryType {
            self.inner.sim_type(o)
        }
        fn proc_2(&mut self, o: ObjectId, a: &[Answer]) {
            self.inner.proc_2(o, a);
        }
        fn filter(&mut self, o: ObjectId, a: &[Answer]) -> Vec<ObjectId> {
            self.inner.filter(o, a)
        }
    }

    #[test]
    fn depth_limit_stops_early() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut task = DepthLimited {
            inner: Crawl {
                eps: 1.5,
                visited: Vec::new(),
                proc2_log: Vec::new(),
            },
            max_steps: 5,
        };
        let steps = explore_neighborhoods(&engine, &[ObjectId(0)], &mut task);
        assert_eq!(steps, 5);
        assert_eq!(task.inner.visited.len(), 5);
    }

    #[test]
    fn duplicate_start_objects_are_deduplicated() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut task = Crawl {
            eps: 0.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        let steps =
            explore_neighborhoods(&engine, &[ObjectId(5), ObjectId(5), ObjectId(5)], &mut task);
        assert_eq!(steps, 1);
    }

    #[test]
    fn empty_start_set_is_a_noop() {
        let (_ds, db) = line_db();
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let mut task = Crawl {
            eps: 1.5,
            visited: Vec::new(),
            proc2_log: Vec::new(),
        };
        assert_eq!(explore_neighborhoods(&engine, &[], &mut task), 0);
        assert_eq!(
            explore_neighborhoods_multiple(&engine, &[], &mut task, 4, 16),
            0
        );
    }
}
