//! The exactness boundary of the real vector tier, quantified over the
//! engine configuration matrix.
//!
//! `mq_core::prescreen` promises: a [`BqPrescreen`] whose budget covers
//! the whole collection admits every object, so the candidate restriction
//! never skips a page or a record and the engine must be bit-identical to
//! running with no tier at all — answers, `AvoidanceStats`, **and**
//! `IoStats` — for every prefetch depth. This is the test that lets
//! `--approx` ship
//! inside the exact engine: the approximation is entirely in candidate
//! *selection*, never in evaluation.

use mq_approx::{BinarySketch, BqPrescreen};
use mq_core::{AvoidanceStats, EngineOptions, QueryEngine, QueryType};
use mq_datagen::embeddings;
use mq_index::LinearScan;
use mq_metric::{Euclidean, Vector};
use mq_storage::{Dataset, IoStats, PageLayout, PagedDatabase, SimulatedDisk};
use std::sync::Arc;

const N: usize = 600;

fn database(seed: u64) -> PagedDatabase<Vector> {
    let vectors = embeddings(N, seed);
    PagedDatabase::pack(&Dataset::new(vectors), PageLayout::new(4096, 24))
}

fn queries(db: &PagedDatabase<Vector>) -> Vec<(Vector, QueryType)> {
    // A mixed k-NN / range batch drawn from stored objects, like the CLI's
    // batch driver: stride through the collection so queries land in
    // different topic clusters.
    let stored: Vec<Vector> = db
        .page_ids()
        .flat_map(|pid| db.page(pid).records().iter().map(|(_, v)| v.clone()))
        .collect();
    stored
        .iter()
        .step_by(N / 8)
        .take(8)
        .enumerate()
        .map(|(i, v)| {
            let qtype = if i % 2 == 0 {
                QueryType::knn(10)
            } else {
                QueryType::range(0.5)
            };
            (v.clone(), qtype)
        })
        .collect()
}

/// One run: fresh disk, fresh engine, optional prescreen.
fn run(
    db: &PagedDatabase<Vector>,
    prescreen: Option<&dyn mq_core::CandidatePrescreen<Vector>>,
    prefetch_depth: usize,
) -> (Vec<Vec<mq_core::Answer>>, AvoidanceStats, IoStats) {
    let disk = SimulatedDisk::with_buffer_pages(db.clone(), 4);
    let scan = LinearScan::new(db.page_count());
    let mut engine = QueryEngine::new(&disk, &scan, Euclidean).with_options(EngineOptions {
        prefetch_depth,
        ..EngineOptions::default()
    });
    if let Some(p) = prescreen {
        engine = engine.with_prescreen(p);
    }
    let mut session = engine.new_session(queries(db));
    engine.run_to_completion(&mut session);
    let avoidance = session.avoidance_stats();
    (session.into_answers(), avoidance, disk.stats())
}

#[test]
fn full_budget_bq_is_bit_identical_across_the_matrix() {
    let db = database(7);
    let sketch = Arc::new(BinarySketch::build(&db, 4));
    let prescreen = BqPrescreen::new(sketch, N);
    for depth in [0usize, 2] {
        let (ea, eav, eio) = run(&db, None, depth);
        let (ta, tav, tio) = run(&db, Some(&prescreen), depth);
        assert_eq!(ea, ta, "depth {depth}: bq budget=N answers diverged");
        assert_eq!(
            eav, tav,
            "depth {depth}: bq budget=N avoidance counters diverged"
        );
        assert_eq!(eio, tio, "depth {depth}: bq budget=N I/O counters diverged");
    }
}

#[test]
fn narrow_budget_reduces_io_and_distance_work() {
    // Vacuity guard: a 5% budget must skip pages and distance
    // calculations, and range answers stay a subset with exact distances.
    let db = database(7);
    let sketch = Arc::new(BinarySketch::build(&db, 4));
    let prescreen = BqPrescreen::new(sketch, N / 20);
    let (ea, eav, eio) = run(&db, None, 0);
    let (ta, tav, tio) = run(&db, Some(&prescreen), 0);
    assert!(
        tav.computed < eav.computed,
        "budget N/20 did not reduce distance work ({} vs {})",
        tav.computed,
        eav.computed
    );
    assert!(
        tio.logical_reads <= eio.logical_reads,
        "candidate restriction must never read more pages"
    );
    for (qi, answers) in ta.iter().enumerate().skip(1).step_by(2) {
        for a in answers {
            assert!(
                ea[qi]
                    .iter()
                    .any(|x| x.id == a.id && x.distance == a.distance),
                "range query {qi}: tier reported {:?} @ {} beyond the exact run",
                a.id,
                a.distance
            );
        }
    }
}
