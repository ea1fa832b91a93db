//! Session-lifecycle tests: the incremental multiple query under the
//! interleavings a real mining algorithm produces (push → step → push …),
//! which exercise the answer buffer's restore path (§5.1).

use mquery::prelude::*;

fn grid(n_side: usize) -> Vec<Vector> {
    let mut pts = Vec::new();
    for x in 0..n_side {
        for y in 0..n_side {
            pts.push(Vector::new(vec![x as f32, y as f32]));
        }
    }
    pts
}

fn setup(data: &[Vector]) -> (PagedDatabase<Vector>, XTree) {
    let ds = Dataset::new(data.to_vec());
    let (tree, db) = XTree::bulk_load(
        &ds,
        XTreeConfig {
            layout: PageLayout::new(512, 16),
        },
    );
    (db, tree)
}

#[test]
fn interleaved_push_and_step_matches_single_queries() {
    let data = grid(20);
    let (db, tree) = setup(&data);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);

    // Wave 1: two queries; complete one; push two more; complete all.
    let mut session = engine.new_session(vec![
        (data[0].clone(), QueryType::knn(4)),
        (data[210].clone(), QueryType::range(2.0)),
    ]);
    assert_eq!(engine.multiple_query_step(&mut session), Some(0));
    let i2 = engine.push_query(&mut session, data[399].clone(), QueryType::knn(6));
    let i3 = engine.push_query(
        &mut session,
        data[5].clone(),
        QueryType::bounded_knn(3, 4.0),
    );
    engine.run_to_completion(&mut session);
    assert!(session.is_complete(i2) && session.is_complete(i3));

    // Every answer equals its single-query counterpart.
    let expectations: Vec<(usize, Vector, QueryType)> = vec![
        (0, data[0].clone(), QueryType::knn(4)),
        (1, data[210].clone(), QueryType::range(2.0)),
        (i2, data[399].clone(), QueryType::knn(6)),
        (i3, data[5].clone(), QueryType::bounded_knn(3, 4.0)),
    ];
    for (idx, q, t) in expectations {
        let single: Vec<ObjectId> = engine.similarity_query(&q, &t).ids().collect();
        let got: Vec<ObjectId> = session.answers(idx).ids().collect();
        assert_eq!(got, single, "query {idx}");
    }
}

#[test]
fn avoidance_counters_are_monotone_across_steps() {
    let data = grid(18);
    let (db, tree) = setup(&data);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let queries: Vec<(Vector, QueryType)> = (0..10)
        .map(|i| (data[i * 31].clone(), QueryType::range(3.0)))
        .collect();
    let mut session = engine.new_session(queries);
    let mut last = session.avoidance_stats();
    while engine.multiple_query_step(&mut session).is_some() {
        let now = session.avoidance_stats();
        assert!(now.tries >= last.tries);
        assert!(now.avoided >= last.avoided);
        assert!(now.computed >= last.computed);
        last = now;
    }
    // Tight same-grid ranges: the triangle inequality must have fired.
    assert!(last.avoided > 0, "no avoidance on a clustered batch");
}

#[test]
fn pending_and_pages_processed_reporting() {
    let data = grid(16);
    let (db, tree) = setup(&data);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let mut session = engine.new_session(vec![
        (data[10].clone(), QueryType::knn(5)),
        (data[12].clone(), QueryType::knn(5)),
        (data[200].clone(), QueryType::knn(5)),
    ]);
    assert_eq!(session.pending(), vec![0, 1, 2]);
    assert_eq!(session.next_pending(), Some(0));
    engine.multiple_query_step(&mut session);
    assert_eq!(session.pending(), vec![1, 2]);
    // The neighbor query (object 12 is adjacent to 10) was advanced
    // opportunistically: some of its pages are already processed.
    assert!(
        session.pages_processed(1) > 0,
        "trailing neighbor query saw no shared pages"
    );
    assert_eq!(session.query_type(1).cardinality, 5);
    assert_eq!(session.query_object(2).components(), data[200].components());
}

#[test]
fn completed_head_costs_nothing_when_fully_buffered() {
    // On the scan, step 1 evaluates every page for every query; steps 2..m
    // must then complete without touching the disk or the metric.
    let data = grid(15);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(512, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let metric = CountingMetric::new(Euclidean);
    let counter = metric.counter().clone();
    let engine = QueryEngine::new(&disk, &scan, metric);
    let queries: Vec<(Vector, QueryType)> = (0..6)
        .map(|i| (data[i * 37].clone(), QueryType::knn(4)))
        .collect();
    let mut session = engine.new_session(queries);
    engine.multiple_query_step(&mut session);
    let io_after_first = disk.stats().logical_reads;
    let cpu_after_first = counter.get();
    engine.run_to_completion(&mut session);
    assert_eq!(
        disk.stats().logical_reads,
        io_after_first,
        "buffered steps re-read pages"
    );
    assert_eq!(
        counter.get(),
        cpu_after_first,
        "buffered steps recomputed distances"
    );
}
