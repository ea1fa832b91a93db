//! Property-based tests: query answers of every access method, in both
//! execution modes, always match a brute-force reference.

use mquery::prelude::*;
use proptest::prelude::*;

/// Brute-force reference for any query type (mirrors Fig. 1 semantics with
/// deterministic tie-breaking by object id).
fn brute_force(data: &[Vector], q: &Vector, t: &QueryType) -> Vec<ObjectId> {
    let mut all: Vec<(f64, u32)> = data
        .iter()
        .enumerate()
        .map(|(i, o)| (Euclidean.distance(o, q), i as u32))
        .filter(|(d, _)| *d <= t.range)
        .collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(t.cardinality.min(all.len()));
    all.into_iter().map(|(_, i)| ObjectId(i)).collect()
}

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vector>> {
    prop::collection::vec(
        prop::collection::vec(-100.0f32..100.0, dim).prop_map(Vector::new),
        1..max_n,
    )
}

fn arb_qtype() -> impl Strategy<Value = QueryType> {
    prop_oneof![
        (0.0f64..60.0).prop_map(QueryType::range),
        (1usize..12).prop_map(QueryType::knn),
        ((1usize..8), (0.0f64..40.0)).prop_map(|(k, e)| QueryType::bounded_knn(k, e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_queries_match_brute_force_on_all_methods(
        data in arb_points(120, 3),
        qx in -100.0f32..100.0,
        qy in -100.0f32..100.0,
        qz in -100.0f32..100.0,
        qtype in arb_qtype(),
    ) {
        let q = Vector::new(vec![qx, qy, qz]);
        let expected = brute_force(&data, &q, &qtype);
        let ds = Dataset::new(data.clone());
        let layout = PageLayout::new(128, 16);

        // Scan.
        let db = PagedDatabase::pack(&ds, layout);
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let got: Vec<ObjectId> = engine.similarity_query(&q, &qtype).ids().collect();
        prop_assert_eq!(&got, &expected, "scan");

        // X-tree (bulk).
        let cfg = XTreeConfig { layout };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);
        let got: Vec<ObjectId> = engine.similarity_query(&q, &qtype).ids().collect();
        prop_assert_eq!(&got, &expected, "x-tree bulk");

        // M-tree.
        let mcfg = MTreeConfig { layout, ..Default::default() };
        let (mtree, db) = MTree::insert_load(&ds, Euclidean, mcfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &mtree, Euclidean);
        let got: Vec<ObjectId> = engine.similarity_query(&q, &qtype).ids().collect();
        prop_assert_eq!(&got, &expected, "m-tree");
    }

    #[test]
    fn multiple_queries_match_singles_on_random_batches(
        data in arb_points(150, 3),
        picks in prop::collection::vec((0usize..1000, arb_qtype()), 1..10),
    ) {
        let ds = Dataset::new(data.clone());
        let layout = PageLayout::new(128, 16);
        let cfg = XTreeConfig { layout };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);

        let queries: Vec<(Vector, QueryType)> = picks
            .iter()
            .map(|(p, t)| (data[p % data.len()].clone(), *t))
            .collect();
        let multi = engine.multiple_similarity_query(queries.clone());
        for (i, (q, t)) in queries.iter().enumerate() {
            let single: Vec<ObjectId> = engine.similarity_query(q, t).ids().collect();
            let got: Vec<ObjectId> = multi[i].iter().map(|a| a.id).collect();
            prop_assert_eq!(got, single, "query {}", i);
        }
    }

    #[test]
    fn avoidance_never_changes_answers(
        data in arb_points(150, 3),
        picks in prop::collection::vec((0usize..1000, arb_qtype()), 2..8),
    ) {
        let ds = Dataset::new(data.clone());
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let queries: Vec<(Vector, QueryType)> = picks
            .iter()
            .map(|(p, t)| (data[p % data.len()].clone(), *t))
            .collect();

        let with = QueryEngine::new(&disk, &scan, Euclidean)
            .multiple_similarity_query(queries.clone());
        let without = QueryEngine::new(&disk, &scan, Euclidean)
            .with_options(EngineOptions {
                avoidance: false,
                ..EngineOptions::default()
            })
            .multiple_similarity_query(queries);
        prop_assert_eq!(with, without);
    }
}
