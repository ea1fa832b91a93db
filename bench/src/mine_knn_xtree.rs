//! `mine_knn_xtree` — the paper's §6 simultaneous classification: blocks of
//! `m = 64` k-NN(10) queries through `multiple_similarity_query` on an X-tree
//! over nearly uniform 20-d data, in-process, one thread. Index and core do
//! most of the work; front, server and store do none.

use crate::harness::{median_setup, Outcome, RunConfig, Window};
use crate::mining::{single_window, traced_windows, TreeWorld};
use crate::speed::Probe;
use crate::stats::Fnv;
use mq_core::{Answer, QueryEngine, QueryType};
use mq_datagen::{classification_query_ids, tycho_like};
use mq_index::LinearScan;
use mq_metric::{Euclidean, Metric, ObjectId, Vector};
use std::hint::black_box;
use std::time::Instant;

const OBJECTS: usize = 60_000;
const BLOCK: usize = 64;
const K: usize = 10;
/// Untimed blocks before any window, and the traced prefix whose counts
/// must repeat exactly for one seed.
const WARMUP_BLOCKS: usize = 8;
const FIXED_BLOCKS: usize = 16;
/// Blocks whose ids are drawn up front; a run that outlasts them starts over.
const DRAWN_BLOCKS: usize = 1024;
/// Every this-many-th block of the window is checked against the oracle.
const CHECK_EVERY: usize = 24;

pub fn run(cfg: &RunConfig) -> Outcome {
    let probe = Probe::default();
    let (world, setup_s) = median_setup(&probe, || TreeWorld::build(tycho_like(OBJECTS, cfg.seed)));
    let db = world.disk.database();
    let blocks: Vec<Vec<ObjectId>> = (0..DRAWN_BLOCKS as u64)
        .map(|b| {
            // The generator shuffles all ids and truncates; keep only the block.
            let mut ids =
                classification_query_ids(OBJECTS, BLOCK, cfg.seed.wrapping_mul(0x9E37) + b);
            ids.shrink_to_fit();
            ids
        })
        .collect();
    let block = |i: usize| -> Vec<(Vector, QueryType)> {
        blocks[i % DRAWN_BLOCKS]
            .iter()
            .map(|id| (db.object(*id).clone(), QueryType::knn(K)))
            .collect()
    };

    let mut fingerprint = Fnv::default();
    fingerprint.vectors(
        db.page_ids()
            .flat_map(|p| db.page(p).iter().map(|(_, v)| v)),
    );
    for id in blocks.iter().flatten() {
        fingerprint.u64(u64::from(id.0));
    }

    let mut out = Outcome {
        fingerprint: fingerprint.finish(),
        setup_s,
        ..Outcome::default()
    };
    let engine = world.engine();
    for i in 0..WARMUP_BLOCKS {
        black_box(engine.multiple_similarity_query(block(DRAWN_BLOCKS - 1 - i)));
    }

    let mut traced_rate = 0.0;
    if cfg.trace {
        traced_rate = traced_windows(
            cfg,
            &probe,
            &world,
            FIXED_BLOCKS,
            BLOCK as f64,
            &mut out,
            |traced, i, _| {
                black_box(traced.multiple_similarity_query(block(i)));
            },
        );
        out.layers.insert(
            "metric.isolated_ns_per_distance",
            isolated_ns_per_distance(&block(0), &world),
        );
    }

    // The untraced window: every run has one, and the end-to-end metrics
    // come from it alone.
    let (seconds, min_units) = cfg.plain_window();
    let mut kept: Vec<(usize, Vec<Vec<Answer>>)> = Vec::new();
    let window = Window::run(seconds, min_units, &probe, |i| {
        let answers = engine.multiple_similarity_query(block(i));
        if i % CHECK_EVERY == 0 {
            kept.push((i, answers));
        } else {
            black_box(answers);
        }
    });
    out.record_window(&window, BLOCK as f64, window.rate(BLOCK as f64));
    out.latency_ms = window.latencies_ms();
    out.raw_latency_ms = window.raw_latencies_ms();

    if cfg.trace {
        single_window(cfg, &probe, BLOCK as f64, traced_rate, &mut out, |i, _| {
            for (q, t) in block(i) {
                black_box(engine.similarity_query(&q, &t));
            }
        });
    }

    // Sampled blocks against a one-query-at-a-time linear scan, bit for bit.
    let scan = LinearScan::new(db.page_count());
    let oracle = QueryEngine::new(&world.disk, &scan, Euclidean);
    for (i, answers) in &kept {
        for ((q, t), got) in block(*i).iter().zip(answers) {
            if oracle.similarity_query(q, t).into_vec() != *got {
                out.failed += 1;
            }
        }
    }
    out.notes.push(format!(
        "{OBJECTS} tycho_like 20-d objects, X-tree bulk load, {} pages, buffer 10 %; op = one \
         k-NN({K}) query, latency sample = one block of {BLOCK}; {} blocks timed, {} checked \
         against a linear-scan single-query oracle",
        db.page_count(),
        window.units.len(),
        kept.len(),
    ));
    out
}

/// Nanoseconds per distance when the block's query vectors meet whole pages
/// through `distance_batch` with no engine around them.
fn isolated_ns_per_distance(block: &[(Vector, QueryType)], world: &TreeWorld) -> f64 {
    let db = world.disk.database();
    let pages: Vec<Vec<&Vector>> = db
        .page_ids()
        .take(48)
        .map(|p| db.page(p).iter().map(|(_, v)| v).collect())
        .collect();
    let mut out = vec![0.0; pages.iter().map(Vec::len).max().unwrap_or(0)];
    let mut distances = 0;
    let start = Instant::now();
    for (q, _) in block {
        for page in &pages {
            Euclidean.distance_batch(q, page, &mut out[..page.len()]);
            distances += page.len();
        }
        black_box(&out);
    }
    start.elapsed().as_nanos() as f64 / distances as f64
}
