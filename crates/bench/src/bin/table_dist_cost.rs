//! §6.2 in-text table: cost of a distance calculation vs. a
//! triangle-inequality comparison.
//!
//! Paper (Pentium II 300 MHz): 20-d Euclidean distance 4.3 µs vs. 0.082 µs
//! per comparison (ratio 52); 64-d: 12.7 µs (ratio 155). We measure the
//! same two operations on the current machine and print both the measured
//! ratios and the paper's constants used by the modeled costs.

use mq_bench::report::{fmt, header, Table};
use mq_core::{AvoidanceStats, QueryDistanceMatrix};
use mq_datagen::uniform_vectors;
use mq_metric::{CpuCostModel, Euclidean, Metric};
use std::hint::black_box;
use std::time::Instant;

fn measure_distance_ns(dim: usize) -> f64 {
    let data = uniform_vectors(2_000, dim, 1);
    let q = &data[0];
    let iters = 2_000_000usize;
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..iters {
        acc += Euclidean.distance(black_box(&data[i % data.len()]), black_box(q));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn measure_comparison_ns() -> f64 {
    // One triangle-inequality evaluation = try_avoid with a single pivot
    // that never fires (worst case: both lemmas evaluated).
    let qs = uniform_vectors(2, 4, 2);
    let mut qq = QueryDistanceMatrix::new();
    qq.admit(&Euclidean, &[], &qs[0]);
    qq.admit(&Euclidean, &qs[..1], &qs[1]);
    let known = [(0usize, 0.3f64)];
    let mut stats = AvoidanceStats::default();
    let iters = 20_000_000usize;
    let start = Instant::now();
    let mut fired = 0u64;
    for _ in 0..iters {
        if qq.try_avoid(1, black_box(&known), black_box(10.0), &mut stats) {
            fired += 1;
        }
    }
    black_box((fired, stats.tries));
    // `tries` counts individual lemma evaluations; normalize per lemma.
    start.elapsed().as_nanos() as f64 / stats.tries as f64
}

fn main() {
    header("§6.2 table — distance calculation vs. triangle-inequality comparison");
    let model = CpuCostModel::paper_1999();

    let cmp_ns = measure_comparison_ns();
    let mut table = Table::new(&[
        "operation",
        "paper (µs)",
        "paper ratio",
        "measured (ns)",
        "measured ratio",
    ]);
    for dim in [20usize, 64] {
        let dist_ns = measure_distance_ns(dim);
        table.row(vec![
            format!("euclidean {dim}-d"),
            fmt(model.distance_us(dim)),
            fmt(model.dist_to_comparison_ratio(dim)),
            fmt(dist_ns),
            fmt(dist_ns / cmp_ns),
        ]);
    }
    table.row(vec![
        "comparison".into(),
        fmt(model.comparison_us),
        "1".into(),
        fmt(cmp_ns),
        "1".into(),
    ]);
    table.print();
    println!(
        "\nThe modeled costs in all figure binaries use the paper's constants, and\n\
         their engines price a distance at the paper ratio when choosing which\n\
         avoidance pivots pay, so crossovers and speed-up shapes are comparable\n\
         with the 1999 evaluation."
    );
}
