//! `mine_dbscan` — `Dbscan::run_multiple(64)` over clustered 64-d histograms
//! on an X-tree, in-process, one thread, pass after identical pass. The same
//! core, index and storage layers as `mine_knn_xtree`, used differently:
//! dynamic admission and Definition 4 incremental sessions, not one-shot
//! blocks — a gain bought for blocks that costs incremental sessions shows.

use crate::harness::{histogram_sample, median_setup, Outcome, RunConfig, Window};
use crate::mining::{single_window, traced_windows, TreeWorld};
use crate::speed::Probe;
use crate::stats::Fnv;
use mq_mining::{Dbscan, DbscanResult};

const OBJECTS: usize = 2_400;
const EPS: f64 = 0.05;
const MIN_PTS: usize = 5;
const LOOKAHEAD: usize = 64;
const WARMUP_PASSES: usize = 4;
/// The traced prefix whose counts must repeat exactly for one seed.
const FIXED_PASSES: usize = 8;

pub fn run(cfg: &RunConfig) -> Outcome {
    let probe = Probe::default();
    let (world, setup_s) = median_setup(&probe, || {
        TreeWorld::build(histogram_sample(OBJECTS, cfg.seed))
    });
    let db = world.disk.database();
    let mut fingerprint = Fnv::default();
    fingerprint.vectors(
        db.page_ids()
            .flat_map(|p| db.page(p).iter().map(|(_, v)| v)),
    );

    let mut out = Outcome {
        fingerprint: fingerprint.finish(),
        setup_s,
        ..Outcome::default()
    };
    let dbscan = Dbscan::new(EPS, MIN_PTS);
    let engine = world.engine();
    // The reference every pass must reproduce: one range query at a time.
    let reference = dbscan.run_single(&engine);
    let check = |pass: DbscanResult, failed: &mut u64| {
        if pass.labels != reference.labels || pass.queries != reference.queries {
            *failed += pass.queries as u64;
        }
    };
    for _ in 0..WARMUP_PASSES {
        check(dbscan.run_multiple(&engine, LOOKAHEAD), &mut out.failed);
    }
    let ops_per_pass = reference.queries as f64;

    let mut traced_rate = 0.0;
    if cfg.trace {
        traced_rate = traced_windows(
            cfg,
            &probe,
            &world,
            FIXED_PASSES,
            ops_per_pass,
            &mut out,
            |traced, _, failed| check(dbscan.run_multiple(traced, LOOKAHEAD), failed),
        );
        out.layers.insert("mining.queries_per_pass", ops_per_pass);
        out.layers
            .insert("mining.clusters", f64::from(reference.clusters));
    }

    // The untraced window: every run has one, and the end-to-end metrics
    // come from it alone.
    let (seconds, min_units) = cfg.plain_window();
    let window = Window::run(seconds, min_units, &probe, |_| {
        check(dbscan.run_multiple(&engine, LOOKAHEAD), &mut out.failed)
    });
    out.record_window(&window, ops_per_pass, window.rate(ops_per_pass));
    out.latency_ms = window.latencies_ms();
    out.raw_latency_ms = window.raw_latencies_ms();

    if cfg.trace {
        single_window(
            cfg,
            &probe,
            ops_per_pass,
            traced_rate,
            &mut out,
            |_, failed| check(dbscan.run_single(&engine), failed),
        );
    }
    out.notes.push(format!(
        "{OBJECTS} image-histogram 64-d objects, X-tree bulk load, {} pages, buffer 10 %; \
         DBSCAN(eps {EPS}, min_pts {MIN_PTS}) with lookahead {LOOKAHEAD}: {} clusters, {} noise; \
         op = one range query ({} per pass), latency sample = one pass; {} passes timed, each \
         checked against the labels of a run_single pass",
        db.page_count(),
        reference.clusters,
        reference.noise_count(),
        reference.queries,
        window.units.len(),
    ));
    out
}
