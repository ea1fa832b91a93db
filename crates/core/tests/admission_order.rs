//! The order queries are admitted in must be invisible in the answers.
//!
//! Admission order changes *when* each pending query gets answered (the
//! first-admitted pending query leads each step, Fig. 4), never *what* its
//! answer is: for any admission order, every query's final answer list
//! must equal the baseline order's bit for bit. For range queries the
//! processed-page set is also order-invariant (the set of pages within a
//! constant radius does not depend on visit order).

use mq_core::{Answer, QueryEngine, QueryKind, QueryType};
use mq_index::{XTree, XTreeConfig};
use mq_metric::{CountingMetric, Euclidean, Vector};
use mq_storage::{Dataset, PageId, PageLayout, SimulatedDisk};
use proptest::prelude::*;

struct RunOutcome {
    answers: Vec<Vec<Answer>>,
    pages: Vec<Vec<PageId>>,
}

fn run_batch(
    ds: &Dataset<Vector>,
    layout: PageLayout,
    buffer_pages: usize,
    queries: &[(Vector, QueryType)],
) -> RunOutcome {
    let cfg = XTreeConfig { layout };
    let (tree, db) = XTree::bulk_load(ds, cfg);
    let disk = SimulatedDisk::with_buffer_pages(db, buffer_pages);
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(&disk, &tree, metric);
    let mut session = engine.new_session(queries.to_vec());
    engine.run_to_completion(&mut session);
    RunOutcome {
        pages: (0..queries.len())
            .map(|i| session.processed_pages(i))
            .collect(),
        answers: session.into_answers(),
    }
}

/// Deterministic Fisher–Yates permutation of `0..n` from an xorshift seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32 * 100.0
    };
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| next()).collect::<Vec<_>>()))
        .collect()
}

fn query_type_strategy() -> impl Strategy<Value = QueryType> {
    prop_oneof![
        (1.0f64..25.0).prop_map(QueryType::range),
        (1usize..10).prop_map(QueryType::knn),
        ((1usize..10), (1.0f64..25.0)).prop_map(|(k, r)| QueryType::bounded_knn(k, r)),
    ]
}

fn assert_answers_eq(a: &[Answer], b: &[Answer], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: answer count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: answer id");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{what}: answer distance bits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any admission order, every query's final answer equals the
    /// baseline order's answer for the same query object; range queries
    /// additionally keep their processed-page set.
    #[test]
    fn answers_are_schedule_invariant_for_any_admission_order(
        n in 40usize..180,
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        queries in prop::collection::vec(
            ((0.0f32..100.0), (0.0f32..100.0), query_type_strategy()),
            2..6,
        ),
    ) {
        let dim = 3;
        let points = cloud(n, dim, seed);
        let ds = Dataset::new(points);
        let layout = PageLayout::new(1024, 20);
        let queries: Vec<(Vector, QueryType)> = queries
            .into_iter()
            .map(|(a, b, t)| {
                let coords: Vec<f32> =
                    (0..dim).map(|d| if d % 2 == 0 { a } else { b }).collect();
                (Vector::new(coords), t)
            })
            .collect();

        // The reference: the original admission order.
        let baseline = run_batch(&ds, layout, 4, &queries);

        let perm = permutation(queries.len(), order_seed);
        let reordered: Vec<(Vector, QueryType)> =
            perm.iter().map(|&i| queries[i].clone()).collect();
        let got = run_batch(&ds, layout, 4, &reordered);
        for (pos, &orig) in perm.iter().enumerate() {
            let what = format!("perm position {pos} (query {orig})");
            assert_answers_eq(&baseline.answers[orig], &got.answers[pos], &what);
            if queries[orig].1.kind == QueryKind::Range {
                // A constant-radius query processes exactly the pages
                // within its radius, whatever the visit order.
                assert_eq!(
                    baseline.pages[orig], got.pages[pos],
                    "{what}: processed-page set"
                );
            }
        }
    }
}
