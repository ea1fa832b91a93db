//! Property-based tests: the shared-nothing cluster produces exactly the
//! sequential answers for any server count and query mix.

use mquery::parallel::SharedNothingCluster;
use mquery::prelude::*;
use proptest::prelude::*;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vector>> {
    prop::collection::vec(
        prop::collection::vec(-50.0f32..50.0, dim).prop_map(Vector::new),
        8..max_n,
    )
}

fn arb_qtype() -> impl Strategy<Value = QueryType> {
    prop_oneof![
        (0.0f64..30.0).prop_map(QueryType::range),
        (1usize..8).prop_map(QueryType::knn),
        ((1usize..6), (0.0f64..25.0)).prop_map(|(k, e)| QueryType::bounded_knn(k, e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_answers_equal_sequential_answers(
        data in arb_points(140, 3),
        s in 1usize..6,
        picks in prop::collection::vec((0usize..1000, arb_qtype()), 1..7),
        avoidance in any::<bool>(),
    ) {
        let queries: Vec<(Vector, QueryType)> = picks
            .iter()
            .map(|(p, t)| (data[p % data.len()].clone(), *t))
            .collect();

        // Sequential reference.
        let ds = Dataset::new(data.clone());
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let reference: Vec<Vec<ObjectId>> = queries
            .iter()
            .map(|(q, t)| engine.similarity_query(q, t).ids().collect())
            .collect();

        // Parallel cluster over the scan.
        let cluster = SharedNothingCluster::build(
            data.clone(),
            s,
            Euclidean,
            0.2,
            EngineOptions {
                avoidance,
                ..EngineOptions::default()
            },
            |ds: &Dataset<Vector>| {
                let db = PagedDatabase::pack(ds, PageLayout::new(128, 16));
                let scan = LinearScan::new(db.page_count());
                (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
            },
        );
        let (answers, stats) = cluster.multiple_query(&queries);
        prop_assert_eq!(stats.per_server.len(), s);
        for (got, want) in answers.iter().zip(&reference) {
            let ids: Vec<ObjectId> = got.iter().map(|a| a.id).collect();
            prop_assert_eq!(&ids, want);
        }
        // Distances are correct too, not just ids.
        for (qi, (q, _)) in queries.iter().enumerate() {
            for a in &answers[qi] {
                let true_d = Euclidean.distance(q, &data[a.id.index()]);
                prop_assert!((a.distance - true_d).abs() < 1e-9);
            }
        }
    }

    /// Per-server work partitions the whole database: summed distance
    /// calculations with avoidance off equal n × m (scan case) plus the
    /// per-server QObjDists initializations.
    #[test]
    fn parallel_work_conservation(
        data in arb_points(100, 3),
        s in 1usize..5,
        m in 1usize..6,
    ) {
        let queries: Vec<(Vector, QueryType)> = (0..m)
            .map(|i| (data[i % data.len()].clone(), QueryType::knn(3)))
            .collect();
        let cluster = SharedNothingCluster::build(
            data.clone(),
            s,
            Euclidean,
            0.2,
            EngineOptions {
                avoidance: false,
                ..EngineOptions::default()
            },
            |ds: &Dataset<Vector>| {
                let db = PagedDatabase::pack(ds, PageLayout::new(128, 16));
                let scan = LinearScan::new(db.page_count());
                (Box::new(scan) as Box<dyn SimilarityIndex<Vector>>, db)
            },
        );
        let (_, stats) = cluster.multiple_query(&queries);
        let total: u64 = stats.per_server.iter().map(|st| st.dist_calcs).sum();
        let init = s as u64 * (m * (m - 1) / 2) as u64;
        prop_assert_eq!(total, data.len() as u64 * m as u64 + init);
    }
}
