//! Recall@k-vs-speedup curves for the approximate candidate tier.
//!
//! Workload: seeded clustered unit-norm embeddings
//! (`mq_datagen::embeddings_config`), m = 32 held-out queries answered as
//! **one** multiple-query batch over a linear scan — the end-to-end path
//! `mq serve`/`mq batch --approx` exercise. The exact batch is the
//! baseline; each curve point attaches one prescreen (a binary-quantized
//! Hamming budget) in front of the *same* engine and measures:
//!
//! * **recall@10** — fraction of the exact k-NN ids the lossy run kept
//!   (reported distances are exact either way; only candidate selection
//!   is approximate);
//! * **speedup** — exact-batch cost over approx-batch cost under the
//!   repo's standard cost model (`CostModel::paper_1999`: modeled seek +
//!   transfer I/O plus per-distance CPU), with the prescreen's own
//!   measured wall time *added* to the approx side so the tier pays for
//!   its Hamming scan;
//! * **wall_speedup** — the same ratio in raw wall-clock on this host,
//!   alongside for honesty (on tiny smoke runs it is mostly timer noise).
//!
//! A full-budget row runs first and must be bit-identical to the exact
//! baseline — the exactness boundary the equivalence suites pin.
//!
//! Results go to `BENCH_ann.json` with the host's `cores` and
//! `simd_dispatch` recorded (thread-scaling numbers from a 1-core
//! container are meaningless; recall numbers are not).
//!
//! Flags/env: `--smoke` shrinks the database for CI; `--assert-recall`
//! exits non-zero unless recall@10 ≥ 0.9 at the default budget (N/20);
//! `--assert-speedup` exits non-zero unless some Hamming-budget row
//! reaches ≥ 3× modeled speedup at recall@10 ≥ 0.95 — and refuses to run
//! on a 1-core host, where comparative timing proves nothing; `MQ_BENCH_N`
//! overrides the object count, `MQ_SEED` the seed.

use mq_approx::{BinarySketch, BqPrescreen, DEFAULT_PLANES};
use mq_bench::setup::{env_u64, env_usize};
use mq_core::{Answer, CandidatePrescreen, CostModel, QueryEngine, QueryType, StatsProbe};
use mq_datagen::embeddings_config;
use mq_index::LinearScan;
use mq_metric::{kernel, CountingMetric, Euclidean, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
use std::sync::Arc;
use std::time::Instant;

const M: usize = 32;
const K: usize = 10;

struct Row {
    tier: String,
    recall: f64,
    wall_secs: f64,
    modeled_secs: f64,
    prescreen_secs: f64,
    dist_calcs: u64,
    logical_reads: u64,
    candidates_emitted: u64,
    pages_skipped: u64,
    objects_skipped: u64,
    rerank_survivors: u64,
    answers: Vec<Vec<Answer>>,
}

/// Runs the m-query batch with an optional prescreen attached: wall time
/// is the best of `reps` cold-buffer repetitions, counters come from the
/// (deterministic) last repetition, and the prescreen's own candidate
/// generation is timed separately so the modeled speedup charges it.
#[allow(clippy::too_many_arguments)]
fn measure(
    tier: String,
    disk: &SimulatedDisk<Vector>,
    index: &LinearScan,
    metric: &CountingMetric<Euclidean>,
    prescreen: Option<&dyn CandidatePrescreen<Vector>>,
    queries: &[(Vector, QueryType)],
    reps: usize,
    model: &CostModel,
) -> Row {
    let mut engine = QueryEngine::new(disk, index, metric.clone());
    if let Some(p) = prescreen {
        engine = engine.with_prescreen(p);
    }
    let mut wall = f64::INFINITY;
    let mut stats = None;
    let mut approx = mq_core::ApproxStats::default();
    let mut answers = Vec::new();
    for _ in 0..reps {
        disk.cold_restart();
        metric.counter().reset();
        let probe = StatsProbe::start(disk, metric.counter(), Default::default());
        let start = Instant::now();
        let mut session = engine.new_session(queries.to_vec());
        engine.run_to_completion(&mut session);
        wall = wall.min(start.elapsed().as_secs_f64());
        stats = Some(probe.finish(disk, session.avoidance_stats()));
        approx = session.approx_stats();
        answers = session.into_answers();
    }
    let stats = stats.expect("at least one repetition");
    // The prescreen runs inside new_session (and so inside `wall`); time
    // it standalone too, because the paper-constant cost model only sees
    // page reads and exact distance calculations — the Hamming scan /
    // graph walk would otherwise ride for free.
    let prescreen_secs = prescreen.map_or(0.0, |p| {
        let start = Instant::now();
        for (q, _) in queries {
            std::hint::black_box(p.candidates(q));
        }
        start.elapsed().as_secs_f64()
    });
    Row {
        tier,
        recall: 0.0, // filled against the exact baseline by the caller
        wall_secs: wall,
        modeled_secs: model.total_seconds(&stats) + prescreen_secs,
        prescreen_secs,
        dist_calcs: stats.dist_calcs,
        logical_reads: stats.io.logical_reads,
        candidates_emitted: approx.candidates_emitted,
        pages_skipped: approx.pages_skipped,
        objects_skipped: approx.objects_skipped,
        rerank_survivors: approx.rerank_survivors,
        answers,
    }
}

/// Mean fraction of the exact top-k ids the lossy run kept.
fn recall_at_k(exact: &[Vec<Answer>], approx: &[Vec<Answer>]) -> f64 {
    let mut total = 0.0;
    for (e, a) in exact.iter().zip(approx) {
        let kept = e
            .iter()
            .take(K)
            .filter(|x| a.iter().any(|y| y.id == x.id))
            .count();
        total += kept as f64 / e.len().clamp(1, K) as f64;
    }
    total / exact.len() as f64
}

fn json_row(r: &Row, exact: &Row) -> String {
    format!(
        "    {{ \"tier\": \"{}\", \"recall_at_10\": {:.4}, \
         \"speedup\": {:.3}, \"wall_speedup\": {:.3}, \
         \"modeled_secs\": {:.6}, \"wall_secs\": {:.6}, \"prescreen_secs\": {:.6}, \
         \"dist_calcs\": {}, \"logical_reads\": {}, \
         \"candidates_emitted\": {}, \"pages_skipped\": {}, \
         \"objects_skipped\": {}, \"rerank_survivors\": {} }}",
        r.tier,
        r.recall,
        exact.modeled_secs / r.modeled_secs,
        exact.wall_secs / r.wall_secs,
        r.modeled_secs,
        r.wall_secs,
        r.prescreen_secs,
        r.dist_calcs,
        r.logical_reads,
        r.candidates_emitted,
        r.pages_skipped,
        r.objects_skipped,
        r.rerank_survivors,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let assert_speedup = std::env::args().any(|a| a == "--assert-speedup");
    let assert_recall = std::env::args().any(|a| a == "--assert-recall");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if assert_speedup && cores == 1 {
        eprintln!(
            "error: --assert-speedup requires a multi-core host; this container has 1 core, \
             where comparative timing measures scheduling noise, not the tier. \
             Run without --assert-speedup to still produce BENCH_ann.json \
             (recall numbers are core-count independent)."
        );
        std::process::exit(2);
    }

    let n = env_usize("MQ_BENCH_N", if smoke { 4_000 } else { 30_000 });
    let seed = env_u64("MQ_SEED", 20000203);
    let reps = if smoke { 2 } else { 3 };
    let dim = 64;
    // More bitplanes sharpen the Hamming ranking (smaller budget for the
    // same recall) at a few extra words per code; 8 is the bench default,
    // the server/CLI default stays DEFAULT_PLANES.
    let planes = env_usize("MQ_ANN_PLANES", 2 * DEFAULT_PLANES);

    // Hold the last M vectors out as queries: the tier must generalize,
    // not memorize.
    let (mut vectors, _topics) = embeddings_config(n + M, dim, 16, 0.15, seed);
    let queries: Vec<(Vector, QueryType)> = vectors
        .split_off(n)
        .into_iter()
        .map(|v| (v, QueryType::knn(K)))
        .collect();
    let db = PagedDatabase::pack(&Dataset::new(vectors), PageLayout::PAPER);
    let disk = SimulatedDisk::new(db, 0.10);
    let index = LinearScan::new(disk.database().page_count());
    let metric = CountingMetric::new(Euclidean);
    let model = CostModel::paper_1999(dim);

    let simd_level = kernel::active();
    let cpu_features = kernel::cpu_features();
    let default_budget = n / 20;
    println!(
        "bench_ann: {n} objects, {dim}-d embeddings, m={M} knn({K}), {reps} reps, {cores} cores"
    );
    println!(
        "  simd dispatch: {} (host: {cpu_features})",
        simd_level.name()
    );

    let build_start = Instant::now();
    let sketch = Arc::new(BinarySketch::build(disk.database(), planes));
    let sketch_build_secs = build_start.elapsed().as_secs_f64();
    println!("  tier build: sketch {sketch_build_secs:.3} s ({planes} planes)");

    let exact = measure(
        "exact".into(),
        &disk,
        &index,
        &metric,
        None,
        &queries,
        reps,
        &model,
    );
    println!(
        "  exact    : modeled {:.4} s, wall {:.4} s, {} dists, {} page reads",
        exact.modeled_secs, exact.wall_secs, exact.dist_calcs, exact.logical_reads
    );

    // Exactness boundary first: a budget covering the whole collection
    // must reproduce the exact batch bit for bit.
    {
        let full = BqPrescreen::new(Arc::clone(&sketch), n);
        let row = measure(
            format!("bq:{n}"),
            &disk,
            &index,
            &metric,
            Some(&full),
            &queries,
            1,
            &model,
        );
        assert_eq!(
            exact.answers, row.answers,
            "budget=N must be bit-identical to the exact engine"
        );
    }

    let budgets: Vec<usize> = [n / 200, n / 100, n / 50, n / 20, n / 10]
        .into_iter()
        .filter(|&b| b >= K)
        .collect();

    let mut bq_rows = Vec::new();
    for &budget in &budgets {
        let prescreen = BqPrescreen::new(Arc::clone(&sketch), budget);
        let mut row = measure(
            format!("bq:{budget}"),
            &disk,
            &index,
            &metric,
            Some(&prescreen),
            &queries,
            reps,
            &model,
        );
        row.recall = recall_at_k(&exact.answers, &row.answers);
        println!(
            "  bq:{budget:<6}: recall@{K} {:.3}, speedup {:.2}x (wall {:.2}x), \
             {} dists, {} page reads",
            row.recall,
            exact.modeled_secs / row.modeled_secs,
            exact.wall_secs / row.wall_secs,
            row.dist_calcs,
            row.logical_reads
        );
        bq_rows.push(row);
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"ann_recall_vs_speedup\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"db\": \"embeddings\", \"objects\": {n}, \"dim\": {dim}, \
         \"m\": {M}, \"k\": {K}, \"planes\": {planes}, \"index\": \"scan\", \
         \"page_layout\": \"PAPER\", \"seed\": {seed}, \"reps\": {reps}, \
         \"smoke\": {smoke}, \"cores\": {cores}, \"simd_dispatch\": \"{}\", \
         \"cpu_features\": \"{cpu_features}\", \"default_budget\": {default_budget}, \
         \"cost_model\": \"paper_1999 + measured prescreen secs\" }},\n",
        simd_level.name(),
    ));
    json.push_str(&format!(
        "  \"tier_build_secs\": {{ \"sketch\": {sketch_build_secs:.6} }},\n"
    ));
    json.push_str(&format!(
        "  \"exact\": {{ \"modeled_secs\": {:.6}, \"wall_secs\": {:.6}, \
         \"dist_calcs\": {}, \"logical_reads\": {} }},\n",
        exact.modeled_secs, exact.wall_secs, exact.dist_calcs, exact.logical_reads
    ));
    json.push_str("  \"curves\": {\n    \"bq\": [\n");
    for (i, r) in bq_rows.iter().enumerate() {
        json.push_str(&json_row(r, &exact));
        json.push_str(if i + 1 < bq_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_ann.json", &json).expect("write BENCH_ann.json");
    println!("wrote BENCH_ann.json");

    if assert_recall {
        let row = bq_rows
            .iter()
            .find(|r| r.tier == format!("bq:{default_budget}"))
            .expect("default budget row present");
        assert!(
            row.recall >= 0.9,
            "recall@{K} {:.3} at the default budget bq:{default_budget} is below 0.9",
            row.recall
        );
        println!(
            "recall assertion passed: {:.3} >= 0.9 at bq:{default_budget}",
            row.recall
        );
    }
    if assert_speedup {
        let ok = bq_rows
            .iter()
            .find(|r| r.recall >= 0.95 && exact.modeled_secs / r.modeled_secs >= 3.0);
        match ok {
            Some(r) => println!(
                "speedup assertion passed: {} reaches {:.2}x at recall {:.3}",
                r.tier,
                exact.modeled_secs / r.modeled_secs,
                r.recall
            ),
            None => {
                eprintln!(
                    "error: no Hamming-budget row reached 3x modeled speedup at recall@{K} >= 0.95"
                );
                std::process::exit(1);
            }
        }
    }
}
