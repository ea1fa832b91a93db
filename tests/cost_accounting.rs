//! Integration tests of the §5 cost equations: the counters the benchmark
//! harness reports must obey the paper's formulas exactly.

use mquery::core::StatsProbe;
use mquery::prelude::*;

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
        ..Default::default()
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

/// §5.2 CPU formula: the total distance calculations of a session equal
/// the `m(m−1)/2` matrix initialization plus the `not_avoided` object
/// distances; candidate pairs split exactly into avoided + computed.
#[test]
fn cpu_counters_obey_the_formula() {
    let data = points(700, 4, 5);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::with_buffer_pages(db, 1);
    let metric = CountingMetric::new(Euclidean);
    let counter = metric.counter().clone();
    let engine = QueryEngine::new(&disk, &scan, metric);

    let m = 9usize;
    let queries: Vec<(Vector, QueryType)> = (0..m)
        .map(|i| (data[i * 11].clone(), QueryType::range(5.0)))
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
