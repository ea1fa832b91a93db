//! Integration tests for Definition 4 — the contract of the multiple
//! similarity query — across all three access methods and all query types.

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

fn layout() -> PageLayout {
    PageLayout::new(512, 16)
}

/// Runs the checks against one engine.
fn check_definition4(engine: &QueryEngine<'_, Vector, Euclidean>, queries: &[(Vector, QueryType)]) {
    // (1) Exactly one query completes per step, in order; its answers
    // equal the single-query answers.
    let mut session = engine.new_session(queries.to_vec());
    for expected_head in 0..queries.len() {
        // Before the step, partial answers of *range* queries must be
        // subsets of the full answer sets (Definition 4, condition 2).
        // k-NN partials are the k best of the pages seen so far, which may
        // still contain objects the final answer evicts, so the subset
        // property is only meaningful for range queries.
        for (i, (object, qtype)) in queries.iter().enumerate().skip(expected_head) {
            if qtype.kind != QueryKind::Range {
                continue;
            }
            let full: std::collections::HashSet<ObjectId> =
                engine.similarity_query(object, qtype).ids().collect();
            for a in session.answers(i).as_slice() {
                assert!(
                    full.contains(&a.id),
                    "partial answer of Q{i} not in full set"
                );
            }
        }
        let head = engine
            .multiple_query_step(&mut session)
            .expect("a pending query");
        assert_eq!(head, expected_head);
        // Condition 1: the head is now answered completely.
        let full: Vec<ObjectId> = engine
            .similarity_query(&queries[head].0, &queries[head].1)
            .ids()
            .collect();
        let got: Vec<ObjectId> = session.answers(head).ids().collect();
        assert_eq!(got, full, "head query {head} incomplete or wrong");
    }
    assert!(engine.multiple_query_step(&mut session).is_none());
}

#[test]
fn definition4_holds_on_scan() {
    let data = points(600, 4, 1);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, layout());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    let queries: Vec<(Vector, QueryType)> = vec![
        (data[0].clone(), QueryType::knn(7)),
        (data[100].clone(), QueryType::range(8.0)),
        (data[200].clone(), QueryType::bounded_knn(5, 10.0)),
        (data[300].clone(), QueryType::knn(1)),
        (data[0].clone(), QueryType::range(0.0)),
    ];
    check_definition4(&engine, &queries);
}

#[test]
fn definition4_holds_on_xtree() {
    let data = points(700, 4, 3);
    let ds = Dataset::new(data.clone());
    let cfg = XTreeConfig { layout: layout() };
    let (tree, db) = XTree::bulk_load(&ds, cfg);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let queries: Vec<(Vector, QueryType)> = (0..6)
        .map(|i| (data[i * 111].clone(), QueryType::knn(4 + i)))
        .collect();
    check_definition4(&engine, &queries);
}

#[test]
fn definition4_holds_on_mtree() {
    let data = points(500, 3, 7);
    let ds = Dataset::new(data.clone());
    let cfg = MTreeConfig {
        layout: layout(),
        ..Default::default()
    };
    let (tree, db) = MTree::insert_load(&ds, Euclidean, cfg);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let queries: Vec<(Vector, QueryType)> = (0..5)
        .map(|i| (data[i * 97].clone(), QueryType::knn(6)))
        .collect();
    check_definition4(&engine, &queries);
}

#[test]
fn definition4_holds_on_mtree_with_edit_distance() {
    let words: Vec<Symbols> = [
        "similarity",
        "similar",
        "simile",
        "smile",
        "mile",
        "tile",
        "title",
        "little",
        "brittle",
        "bottle",
        "battle",
        "cattle",
        "rattle",
        "settle",
        "metal",
        "medal",
        "model",
        "modem",
        "mode",
        "code",
        "node",
        "note",
        "vote",
        "rote",
        "rate",
        "gate",
        "late",
        "fate",
        "face",
        "fact",
        "fast",
        "feast",
        "beast",
        "best",
        "rest",
        "test",
    ]
    .iter()
    .map(|w| Symbols::from(*w))
    .collect();
    let ds = Dataset::new(words.clone());
    let cfg = MTreeConfig {
        layout: PageLayout::new(160, 16),
        ..Default::default()
    };
    let (tree, db) = MTree::insert_load(&ds, EditDistance, cfg);
    let disk = SimulatedDisk::new(db, 0.2);
    let engine = QueryEngine::new(&disk, &tree, EditDistance);

    let queries: Vec<(Symbols, QueryType)> = vec![
        (Symbols::from("title"), QueryType::knn(4)),
        (Symbols::from("paste"), QueryType::range(2.0)),
        (Symbols::from("model"), QueryType::bounded_knn(3, 2.0)),
    ];
    let multi = engine.multiple_similarity_query(queries.clone());
    for (i, (q, t)) in queries.iter().enumerate() {
        let single: Vec<ObjectId> = engine.similarity_query(q, t).ids().collect();
        let got: Vec<ObjectId> = multi[i].iter().map(|a| a.id).collect();
        assert_eq!(got, single, "query {i}");
    }
}

#[test]
fn duplicate_query_objects_in_one_batch() {
    let data = points(300, 3, 11);
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, layout());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    // The same object three times, with different types.
    let queries: Vec<(Vector, QueryType)> = vec![
        (data[5].clone(), QueryType::knn(3)),
        (data[5].clone(), QueryType::knn(3)),
        (data[5].clone(), QueryType::range(4.0)),
    ];
    let multi = engine.multiple_similarity_query(queries.clone());
    assert_eq!(multi[0], multi[1]);
    let range_ids: Vec<ObjectId> = multi[2].iter().map(|a| a.id).collect();
    let expected: Vec<ObjectId> = engine
        .similarity_query(&data[5], &QueryType::range(4.0))
        .ids()
        .collect();
    assert_eq!(range_ids, expected);
}

#[test]
fn mixed_query_types_share_pages_correctly() {
    let data = points(500, 4, 13);
    let ds = Dataset::new(data.clone());
    let cfg = XTreeConfig { layout: layout() };
    let (tree, db) = XTree::bulk_load(&ds, cfg);
    let disk = SimulatedDisk::new(db, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    let queries: Vec<(Vector, QueryType)> = vec![
        (data[10].clone(), QueryType::range(5.0)),
        (data[11].clone(), QueryType::knn(9)),
        (data[12].clone(), QueryType::bounded_knn(4, 7.0)),
        (data[13].clone(), QueryType::range(1.0)),
    ];
    let multi = engine.multiple_similarity_query(queries.clone());
    for (i, (q, t)) in queries.iter().enumerate() {
        let single: Vec<ObjectId> = engine.similarity_query(q, t).ids().collect();
        let got: Vec<ObjectId> = multi[i].iter().map(|a| a.id).collect();
        assert_eq!(got, single, "query {i} ({t})");
    }
}

/// Regression test for the boundary-case fix of §5.2's lemmas: an answer
/// at distance exactly `QueryDist` must never be avoided. With the paper's
/// non-strict `≥` premises, querying for an object that is also a pivot's
/// exact mirror gets falsely pruned.
#[test]
fn exact_boundary_answers_are_never_avoided() {
    // Collinear points: O at 2.0 is at distance exactly 1.0 from Q2 = 1.0,
    // and the pivot Q1 = 0.0 sees dist(O, Q1) = 2.0 = dist(Q2, Q1) + eps.
    let data = vec![
        Vector::new(vec![0.0]),
        Vector::new(vec![1.0]),
        Vector::new(vec![2.0]),
    ];
    let ds = Dataset::new(data.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(512, 16));
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.5);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    let queries = vec![
        (data[0].clone(), QueryType::range(1.0)),
        (data[1].clone(), QueryType::range(1.0)),
    ];
    let answers = engine.multiple_similarity_query(queries);
    // Q2's neighborhood of radius 1.0 contains all three points, including
    // O2 at distance exactly 1.0.
    let ids: Vec<u32> = answers[1].iter().map(|a| a.id.0).collect();
    assert_eq!(ids.len(), 3, "boundary answer was avoided: {ids:?}");
}
