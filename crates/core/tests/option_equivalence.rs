//! Equivalence of every [`EngineOptions`] combination with the default
//! engine.
//!
//! The multiple-query engine promises *bit-identical* results for every
//! prefetch depth, with avoidance on or off, observed or not (see the
//! module docs of `mq_core::multiple`): the same answers (ids and
//! `f64::to_bits` of every distance), the same avoidance counters, the same
//! distance-calculation totals, the same per-query processed-page sets, and
//! the same demanded (logical) page I/O. These tests enforce that promise
//! over randomized databases and query mixes.
//!
//! What may legitimately vary: `physical_reads` at `prefetch_depth > 0` — a
//! staged page the leader never demands still paid its physical read at
//! schedule time.

use mq_core::{Answer, EngineOptions, QueryEngine, QueryType};
use mq_index::{LinearScan, SimilarityIndex, XTree, XTreeConfig};
use mq_metric::{CountingMetric, Euclidean, Vector};
use mq_storage::{Dataset, IoStats, PageId, PageLayout, PagedDatabase, SimulatedDisk};
use proptest::prelude::*;

/// Everything observable about one batched run.
struct RunOutcome {
    answers: Vec<Vec<Answer>>,
    avoidance: mq_core::AvoidanceStats,
    distance_calcs: u64,
    io: IoStats,
    /// Ascending processed-page set of each query.
    pages: Vec<Vec<PageId>>,
}

/// Runs the whole batch through a fresh disk/engine with the given options.
fn run_batch(
    ds: &Dataset<Vector>,
    layout: PageLayout,
    use_xtree: bool,
    queries: &[(Vector, QueryType)],
    options: EngineOptions,
) -> RunOutcome {
    let (index, db): (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>) = if use_xtree {
        let cfg = XTreeConfig {
            layout,
            ..Default::default()
        };
        let (tree, db) = XTree::bulk_load(ds, cfg);
        (Box::new(tree), db)
    } else {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())), db)
    };
    let disk = SimulatedDisk::with_buffer_pages(db, 4);
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(&disk, index.as_ref(), metric).with_options(options);
    let mut session = engine.new_session(queries.to_vec());
    engine.run_to_completion(&mut session);
    RunOutcome {
        avoidance: session.avoidance_stats(),
        distance_calcs: engine.metric().counter().get(),
        io: disk.stats(),
        pages: (0..queries.len())
            .map(|i| session.processed_pages(i))
            .collect(),
        answers: session.into_answers(),
    }
}

/// Asserts two outcomes are bit-identical up to prefetch staging: answers,
/// avoidance counters, distance calculations, processed-page sets, and the
/// *demanded* page I/O must all match. `physical_reads` (and the prefetch
/// counters) may differ, because a deeper pipeline may stage pages the
/// leader never ends up demanding.
fn assert_outcomes_equivalent(base: &RunOutcome, other: &RunOutcome, what: &str) {
    assert_eq!(
        base.answers.len(),
        other.answers.len(),
        "{what}: query count"
    );
    for (qi, (a, b)) in base.answers.iter().zip(&other.answers).enumerate() {
        assert_eq!(a.len(), b.len(), "{what}: answer count of query {qi}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{what}: answer id of query {qi}");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "{what}: answer distance bits of query {qi}"
            );
        }
    }
    assert_eq!(base.avoidance, other.avoidance, "{what}: avoidance stats");
    assert_eq!(
        base.distance_calcs, other.distance_calcs,
        "{what}: distance calculations"
    );
    assert_eq!(base.pages, other.pages, "{what}: processed-page sets");
    assert_eq!(
        base.io.logical_reads, other.io.logical_reads,
        "{what}: demanded page reads"
    );
}

/// Asserts two outcomes are bit-identical, labelling failures with `what`.
fn assert_outcomes_identical(base: &RunOutcome, other: &RunOutcome, what: &str) {
    assert_outcomes_equivalent(base, other, what);
    assert_eq!(base.io, other.io, "{what}: page I/O");
}

/// A deterministic pseudo-random point cloud (xorshift-based, no `rand`
/// needed at this granularity — proptest drives the seed).
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
        (0.5f64..30.0).prop_map(QueryType::range),
        (1usize..12).prop_map(QueryType::knn),
        ((1usize..12), (0.5f64..30.0)).prop_map(|(k, r)| QueryType::bounded_knn(k, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random database + query mix, avoidance on or off, both access
    /// methods: prefetch depths 1 and 2 must be equivalent to the depth-0
    /// run of the same avoidance setting, and avoidance must not change any
    /// answer.
    #[test]
    fn avoidance_and_prefetch_matrix_is_equivalent(
        n in 30usize..220,
        dim in 1usize..6,
        seed in any::<u64>(),
        use_xtree in any::<bool>(),
        queries in prop::collection::vec(
            ((0.0f32..100.0), (0.0f32..100.0), query_type_strategy()),
            1..7,
        ),
    ) {
        let ds = Dataset::new(cloud(n, dim, seed));
        let layout = PageLayout::new(1024, 24);
        let queries: Vec<(Vector, QueryType)> = queries
            .into_iter()
            .map(|(a, b, t)| {
                // Project the 2-d proptest coordinates into `dim` space by
                // cycling them, keeping queries inside the data range.
                let coords: Vec<f32> =
                    (0..dim).map(|d| if d % 2 == 0 { a } else { b }).collect();
                (Vector::new(coords), t)
            })
            .collect();

        let mut bases: Vec<RunOutcome> = Vec::new();
        for avoidance in [true, false] {
            let base = run_batch(
                &ds,
                layout,
                use_xtree,
                &queries,
                EngineOptions {
                    avoidance,
                    ..EngineOptions::default()
                },
            );
            for prefetch_depth in 1..=2usize {
                let got = run_batch(
                    &ds,
                    layout,
                    use_xtree,
                    &queries,
                    EngineOptions {
                        avoidance,
                        prefetch_depth,
                        ..EngineOptions::default()
                    },
                );
                assert_outcomes_equivalent(
                    &base,
                    &got,
                    &format!("avoidance={avoidance} depth={prefetch_depth}"),
                );
            }
            bases.push(base);
        }
        // §5.2 trades calculations for comparisons, never answers or pages.
        prop_assert_eq!(&bases[0].answers, &bases[1].answers);
        prop_assert_eq!(&bases[0].pages, &bases[1].pages);
        prop_assert_eq!(bases[0].io, bases[1].io);
    }
}

/// A fixed regression case for the pipelined path: prefetch depth 2 must
/// match the depth-0 run on everything the determinism contract covers,
/// and staging must actually happen.
#[test]
fn xtree_prefetch_depth_2_matches_depth_0() {
    let points = cloud(500, 4, 0xDECADE);
    let ds = Dataset::new(points);
    let layout = PageLayout::new(1024, 24);
    let queries: Vec<(Vector, QueryType)> = vec![
        (
            Vector::new(vec![30.0, 60.0, 20.0, 80.0]),
            QueryType::knn(10),
        ),
        (
            Vector::new(vec![70.0, 15.0, 45.0, 35.0]),
            QueryType::range(20.0),
        ),
        (Vector::new(vec![55.0, 55.0, 25.0, 25.0]), QueryType::knn(5)),
    ];
    let base = run_batch(&ds, layout, true, &queries, EngineOptions::default());
    let got = run_batch(
        &ds,
        layout,
        true,
        &queries,
        EngineOptions {
            prefetch_depth: 2,
            ..EngineOptions::default()
        },
    );
    assert_outcomes_equivalent(&base, &got, "prefetch depth=2");
    assert!(
        got.io.prefetch_reads > 0 || got.io.prefetched_hits > 0,
        "depth=2 should actually stage pages"
    );
}

/// Runs the batch with an *enabled* recorder wired through the engine and
/// disk, like `run_batch` but observed.
fn run_batch_observed(
    ds: &Dataset<Vector>,
    layout: PageLayout,
    use_xtree: bool,
    queries: &[(Vector, QueryType)],
    options: EngineOptions,
) -> (RunOutcome, mq_obs::Snapshot) {
    let (index, db): (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>) = if use_xtree {
        let cfg = XTreeConfig {
            layout,
            ..Default::default()
        };
        let (tree, db) = XTree::bulk_load(ds, cfg);
        (Box::new(tree), db)
    } else {
        let db = PagedDatabase::pack(ds, layout);
        (Box::new(LinearScan::new(db.page_count())), db)
    };
    let registry = std::sync::Arc::new(mq_obs::Registry::new());
    let recorder = mq_obs::Recorder::new(std::sync::Arc::clone(&registry));
    let disk = SimulatedDisk::with_buffer_pages(db, 4);
    disk.attach_recorder(&recorder);
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(&disk, index.as_ref(), metric)
        .with_options(options)
        .with_recorder(&recorder);
    let mut session = engine.new_session(queries.to_vec());
    engine.run_to_completion(&mut session);
    let outcome = RunOutcome {
        avoidance: session.avoidance_stats(),
        distance_calcs: engine.metric().counter().get(),
        io: disk.stats(),
        pages: (0..queries.len())
            .map(|i| session.processed_pages(i))
            .collect(),
        answers: session.into_answers(),
    };
    (outcome, registry.snapshot())
}

/// Observability must be pure mirroring: a run with an enabled recorder
/// is bit-identical — answers, avoidance counters, distance calculations,
/// processed-page sets, and the full I/O block — to the unobserved run,
/// and the mirrored counters agree with the authoritative stats.
#[test]
fn enabled_recorder_keeps_runs_bit_identical() {
    let points = cloud(450, 4, 0x0B5E);
    let ds = Dataset::new(points);
    let layout = PageLayout::new(1024, 24);
    let queries: Vec<(Vector, QueryType)> = vec![
        (Vector::new(vec![20.0, 40.0, 60.0, 80.0]), QueryType::knn(7)),
        (
            Vector::new(vec![75.0, 25.0, 35.0, 65.0]),
            QueryType::range(19.0),
        ),
        (
            Vector::new(vec![45.0, 55.0, 15.0, 85.0]),
            QueryType::bounded_knn(4, 25.0),
        ),
    ];
    for (what, options) in [
        ("default", EngineOptions::default()),
        (
            "prefetch=2",
            EngineOptions {
                prefetch_depth: 2,
                ..EngineOptions::default()
            },
        ),
    ] {
        let plain = run_batch(&ds, layout, true, &queries, options);
        let (observed, snapshot) = run_batch_observed(&ds, layout, true, &queries, options);
        assert_outcomes_identical(&plain, &observed, what);
        // The mirror agrees with the authoritative counters.
        assert_eq!(
            snapshot.value("mq_core_distance_calculations_total{outcome=\"avoided\"}"),
            observed.avoidance.avoided as f64,
            "{what}: avoided mirror"
        );
        assert_eq!(
            snapshot.value("mq_core_queries_completed_total"),
            queries.len() as f64,
            "{what}: completion mirror"
        );
        let hits = snapshot.value("mq_storage_buffer_reads_total{outcome=\"hit\",policy=\"lru\"}");
        assert_eq!(hits, observed.io.buffer_hits as f64, "{what}: hit mirror");
    }
}
