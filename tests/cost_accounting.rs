//! Integration tests of the §5 cost equations: the counters the benchmark
//! harness reports must obey the paper's formulas exactly.

use mq_store::FilePageStore;
use mquery::core::StatsProbe;
use mquery::mining::query_blocks;
use mquery::prelude::*;
use mquery::storage::{PageStore, VectorCodec};

fn points(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut x = seed.max(1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| (next() * 50.0) as f32).collect::<Vec<_>>()))
        .collect()
}

/// §5.1, scan case: `C_io^m = C_io^1` — the multiple query reads the whole
/// database exactly once, independent of m.
#[test]
fn scan_io_is_independent_of_m() {
    let data = points(800, 4, 1);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let pages = db.page_count() as u64;
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);

    for m in [2usize, 5, 17] {
        let queries: Vec<(Vector, QueryType)> = (0..m)
            .map(|i| (data[i * 37].clone(), QueryType::knn(5)))
            .collect();
        disk.reset_stats();
        let _ = engine.multiple_similarity_query(queries);
        assert_eq!(disk.stats().logical_reads, pages, "m = {m}");
    }
}

/// §5.1, index case: the multiple query's logical reads equal the size of
/// the union of the per-query processed-page sets, never more than the sum.
#[test]
fn xtree_io_equals_union_of_relevant_pages() {
    let data = points(900, 4, 3);
    let ds = Dataset::new(data.clone());
    let cfg = XTreeConfig {
        layout: PageLayout::new(256, 16),
    };
    let (tree, db) = XTree::bulk_load(&ds, cfg);
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);

    let queries: Vec<(Vector, QueryType)> = (0..8)
        .map(|i| (data[i * 3].clone(), QueryType::knn(8)))
        .collect();

    disk.reset_stats();
    let mut session = engine.new_session(queries.clone());
    engine.run_to_completion(&mut session);
    let multi_reads = disk.stats().logical_reads;

    // The union bound: every page was read at most once across the session
    // (logical reads = distinct pages evaluated for at least one query).
    let max_union: usize = (0..queries.len()).map(|i| session.pages_processed(i)).sum();
    assert!(
        multi_reads as usize <= max_union,
        "{multi_reads} > sum of processed sets"
    );

    disk.reset_stats();
    for (q, t) in &queries {
        let _ = engine.similarity_query(q, t);
    }
    let single_reads = disk.stats().logical_reads;
    assert!(
        multi_reads <= single_reads,
        "sharing never hurts: {multi_reads} vs {single_reads}"
    );
}

/// Every answer's id and distance bits, per query.
fn bits(answers: &[Vec<Answer>]) -> Vec<Vec<(ObjectId, u64)>> {
    answers
        .iter()
        .map(|list| list.iter().map(|a| (a.id, a.distance.to_bits())).collect())
        .collect()
}

/// §5.2 CPU formula: the total distance calculations of a session equal
/// the `m(m−1)/2` matrix initialization plus the `not_avoided` object
/// distances; candidate pairs split exactly into avoided + computed, plus
/// the distances reused from `QObjDists` when the queries are admitted by id.
#[test]
fn cpu_counters_obey_the_formula() {
    let data = points(700, 4, 5);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let metric = CountingMetric::new(Euclidean);
    let counter = metric.counter().clone();
    let engine = QueryEngine::new(&disk, &scan, &metric);

    let m = 9usize;
    let ids: Vec<ObjectId> = (0..m).map(|i| ObjectId(i as u32 * 11)).collect();
    let queries: Vec<(Vector, QueryType)> = ids
        .iter()
        .map(|&id| (data[id.index()].clone(), QueryType::range(5.0)))
        .collect();

    counter.reset();
    let mut session = engine.new_session(queries);
    let after_init = counter.get();
    assert_eq!(
        after_init as usize,
        m * (m - 1) / 2,
        "QObjDists initialization"
    );

    engine.run_to_completion(&mut session);
    let stats = session.avoidance_stats();
    let total_calcs = counter.get();
    assert_eq!(
        total_calcs,
        after_init + stats.computed,
        "every post-init calculation is an object distance"
    );
    // On the scan, every (object, query) pair is a candidate.
    let n = disk.database().object_count() as u64;
    assert_eq!(
        stats.avoided + stats.computed,
        n * m as u64,
        "candidates = n x m on the scan"
    );
    assert!(stats.avoided > 0, "tight ranges must avoid something");
    // Each try is at most two comparisons per known pivot; tries only
    // happen when a finite query distance exists.
    assert!(stats.tries > 0);
    assert_eq!(stats.reused, 0, "objects admitted by value have no record");
    let by_object = bits(&session.into_answers());

    // The same queries admitted by id: on the scan every page is evaluated
    // for every query, so each query takes its distance to the other m − 1
    // query records from `QObjDists` — at every prefetch depth alike.
    let mut runs = Vec::new();
    for prefetch_depth in [0, 2] {
        let engine = QueryEngine::new(&disk, &scan, &metric).with_options(EngineOptions {
            prefetch_depth,
            ..Default::default()
        });
        counter.reset();
        let mut session = engine.new_session(Vec::new());
        for &id in &ids {
            engine.push_stored_query(&mut session, id, QueryType::range(5.0));
        }
        engine.run_to_completion(&mut session);
        let stats = session.avoidance_stats();
        assert_eq!(stats.reused, (m * (m - 1)) as u64, "depth {prefetch_depth}");
        assert_eq!(
            stats.avoided + stats.computed + stats.reused,
            n * m as u64,
            "candidates = n x m on the scan"
        );
        assert_eq!(counter.get(), after_init + stats.computed);
        let answers = bits(&session.into_answers());
        assert_eq!(answers, by_object, "depth {prefetch_depth}");
        runs.push(stats);
    }
    assert_eq!(
        runs[0], runs[1],
        "counters do not depend on the prefetch depth"
    );
}

/// The block driver admits its ids by database id. On the same blocks it
/// answers bit for bit like `multiple_similarity_query` on the cloned
/// objects and like single queries, and it computes strictly fewer
/// distances than the by-value blocks: each block's query records take
/// their distances to the block's other queries from `QObjDists`.
#[test]
fn query_blocks_reuse_the_records_of_their_queries() {
    let data = points(700, 4, 7);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let metric = CountingMetric::new(Euclidean);
    let counter = metric.counter().clone();
    let engine = QueryEngine::new(&disk, &scan, &metric);

    let ids: Vec<ObjectId> = (0..40).map(|i| ObjectId(i * 17)).collect();
    let qtype = QueryType::range(5.0);
    let m = 8;
    let run = |batch| {
        let mut order = Vec::new();
        let mut answers = Vec::new();
        query_blocks(&engine, &ids, qtype, batch, |id, list| {
            order.push(id);
            answers.push(list.to_vec());
        });
        assert_eq!(order, ids, "answers arrive in id order");
        bits(&answers)
    };

    counter.reset();
    let blocks = run(Some(m));
    let block_calcs = counter.get();
    counter.reset();
    let by_value: Vec<Vec<Answer>> = ids
        .chunks(m)
        .flat_map(|block| {
            engine.multiple_similarity_query(
                block
                    .iter()
                    .map(|id| (data[id.index()].clone(), qtype))
                    .collect(),
            )
        })
        .collect();
    let by_value_calcs = counter.get();

    assert_eq!(blocks, bits(&by_value), "blocks by id vs by value");
    assert_eq!(run(None), blocks, "single queries vs blocks");
    assert!(
        block_calcs < by_value_calcs,
        "{block_calcs} distances by id vs {by_value_calcs} by value"
    );
}

/// A fresh, empty directory for one store.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mquery-cost-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six range queries over [`grid_store`], the same objects admitted by id
/// and by value: `(ids, session by id, session by value)`. Neighbouring
/// queries' records lie within each other's radius, some on one page.
fn twin_sessions(
    engine: &QueryEngine<'_, Vector, Euclidean>,
) -> (
    Vec<ObjectId>,
    MultiQuerySession<Vector>,
    MultiQuerySession<Vector>,
) {
    let ids: Vec<ObjectId> = [40, 41, 42, 43, 150, 151].map(ObjectId).to_vec();
    let qtype = QueryType::range(2.5);
    let mut by_id = engine.new_session(Vec::new());
    for &id in &ids {
        engine.push_stored_query(&mut by_id, id, qtype);
    }
    let db = engine.disk().database();
    let by_value = engine.new_session(ids.iter().map(|&id| (db.object(id).clone(), qtype)));
    (ids, by_id, by_value)
}

/// 300 points of a 20 × 15 grid, 5 to a page, in a fresh file store.
fn grid_store(tag: &str) -> FilePageStore<Vector, VectorCodec> {
    let grid: Vec<Vector> = (0..300)
        .map(|i| Vector::new(vec![(i % 20) as f32, (i / 20) as f32]))
        .collect();
    let db = PagedDatabase::pack(&Dataset::new(grid), PageLayout::new(128, 16));
    FilePageStore::create(temp_dir(tag), db, VectorCodec, 4).expect("create")
}

/// Finishes both sessions and checks they answer alike, bit for bit, and
/// that the one admitted by id reused distances.
fn finish_alike<S: PageStore<Vector>>(
    store: &S,
    mut by_id: MultiQuerySession<Vector>,
    mut by_value: MultiQuerySession<Vector>,
) -> Vec<Vec<Answer>> {
    let scan = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(store, &scan, Euclidean);
    engine.run_to_completion(&mut by_id);
    engine.run_to_completion(&mut by_value);
    assert!(by_id.avoidance_stats().reused > 0);
    let answers = by_id.into_answers();
    assert_eq!(bits(&answers), bits(&by_value.into_answers()));
    answers
}

/// A query admitted by id whose record is deleted mid-session: its own
/// record and every later slot of its page move, and both sessions still
/// answer alike.
#[test]
fn id_admission_survives_a_deleted_query_record() {
    let mut store = grid_store("delete");
    let scan = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &scan, Euclidean);
    let (ids, mut by_id, mut by_value) = twin_sessions(&engine);
    engine.complete_query(&mut by_id, 0);
    engine.complete_query(&mut by_value, 0);
    drop(engine);

    let victim = ids[1];
    store.delete(victim).expect("delete");
    let scan = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &scan, Euclidean);
    assert_eq!(
        engine.notify_delete(&mut by_id, victim),
        engine.notify_delete(&mut by_value, victim)
    );
    drop(engine);
    let answers = finish_alike(&store, by_id, by_value);
    assert!(answers.iter().flatten().all(|a| a.id != victim));
    std::fs::remove_dir_all(store.dir()).ok();
}

/// An online insert mid-session, then the inserted object admitted by id
/// into the same sessions: both answer alike.
#[test]
fn id_admission_survives_an_online_insert() {
    let mut store = grid_store("insert");
    let scan = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &scan, Euclidean);
    let (_, mut by_id, mut by_value) = twin_sessions(&engine);
    engine.complete_query(&mut by_id, 0);
    engine.complete_query(&mut by_value, 0);
    drop(engine);

    let new_id = store.insert(Vector::new(vec![19.5, 14.5])).expect("insert");
    let scan = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &scan, Euclidean);
    engine.notify_insert(&mut by_id, new_id);
    engine.notify_insert(&mut by_value, new_id);
    let qtype = QueryType::range(2.5);
    engine.push_stored_query(&mut by_id, new_id, qtype);
    let object = store.database().object(new_id).clone();
    engine.push_query(&mut by_value, object, qtype);
    drop(engine);
    let answers = finish_alike(&store, by_id, by_value);
    assert!(answers[6]
        .iter()
        .any(|a| a.id == new_id && a.distance == 0.0));
    std::fs::remove_dir_all(store.dir()).ok();
}

/// The probe's deltas are exact: two identical runs yield identical
/// counters, and disjoint probes add up.
#[test]
fn probes_are_exact_deltas() {
    let data = points(500, 4, 7);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let metric = CountingMetric::new(Euclidean);
    let counter = metric.counter().clone();
    let engine = QueryEngine::new(&disk, &scan, metric);
    let q = data[123].clone();
    let t = QueryType::knn(5);

    let probe = StatsProbe::start(&disk, &counter, Default::default());
    let _ = engine.similarity_query(&q, &t);
    let first = probe.finish(&disk, Default::default());

    let probe = StatsProbe::start(&disk, &counter, Default::default());
    let _ = engine.similarity_query(&q, &t);
    let second = probe.finish(&disk, Default::default());

    assert_eq!(first.dist_calcs, second.dist_calcs);
    assert_eq!(first.io.logical_reads, second.io.logical_reads);
    assert_eq!(first.dist_calcs, disk.database().object_count() as u64);
}

/// Modeled costs are monotone in the counters.
#[test]
fn cost_model_is_monotone() {
    let model = CostModel::paper_1999(20);
    let a = ExecutionStats {
        dist_calcs: 100,
        ..Default::default()
    };
    let b = ExecutionStats {
        dist_calcs: 200,
        ..a
    };
    assert!(model.total_seconds(&a) < model.total_seconds(&b));
    let mut c = a;
    c.io.random_reads = 10;
    c.io.physical_reads = 10;
    assert!(model.total_seconds(&c) > model.total_seconds(&a));
}

/// Edit distance priced at `∞`: a session over it consults every pivot
/// rank, as Fig. 5 does.
struct Unpriced;

impl Metric<Symbols> for Unpriced {
    fn distance(&self, a: &Symbols, b: &Symbols) -> f64 {
        EditDistance.distance(a, b)
    }

    fn distance_price(&self, _payload_bytes: usize) -> f64 {
        f64::INFINITY
    }
}

/// One 40-query k-NN session over `web_sessions`' edit distances and
/// M-tree: its answers, object distances and logical page reads.
fn edit_session<M: Metric<Symbols>>(
    disk: &SimulatedDisk<Symbols>,
    tree: &MTree<Symbols, EditDistance>,
    queries: &[(Symbols, QueryType)],
    metric: M,
) -> (Vec<Vec<Answer>>, u64, u64) {
    disk.cold_restart();
    let engine = QueryEngine::new(disk, tree, metric);
    let mut session = engine.new_session(queries.to_vec());
    engine.run_to_completion(&mut session);
    let computed = session.avoidance_stats().computed;
    (session.into_answers(), computed, disk.stats().logical_reads)
}

/// Cost-aware avoidance keeps a dear metric's pivots: over edit distances
/// on an M-tree (the `web_sessions` example's shape) the gated session
/// computes at most 5 % more distances than the same session priced at `∞`,
/// with the same answers and page reads.
#[test]
fn dear_metrics_keep_their_avoidance() {
    use mquery::datagen::sessions::{web_sessions, SessionConfig};
    let cfg = SessionConfig {
        num_trails: 12,
        ..Default::default()
    };
    let (sessions, _) = web_sessions(4_000, cfg, 21);
    let (tree, db) = MTree::insert_load(
        &Dataset::new(sessions.clone()),
        EditDistance,
        MTreeConfig::default(),
    );
    let disk = SimulatedDisk::new(db, 0.10);
    let queries: Vec<(Symbols, QueryType)> = (0..40)
        .map(|i| (sessions[i * 97].clone(), QueryType::knn(6)))
        .collect();

    let (gated_answers, gated, gated_reads) = edit_session(&disk, &tree, &queries, EditDistance);
    let (answers, ungated, reads) = edit_session(&disk, &tree, &queries, Unpriced);
    assert_eq!(gated_answers, answers);
    assert_eq!(gated_reads, reads);
    assert!(gated >= ungated, "the gate only removes avoidance");
    assert!(
        gated * 100 <= ungated * 105,
        "gated {gated} vs ungated {ungated} edit distances"
    );
}
