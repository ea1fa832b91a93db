//! Fixtures shared by the live-server suites. Each suite is its own test
//! binary and uses a subset.
#![allow(dead_code)]

use mq_index::LinearScan;
use mq_metric::Vector;
use mq_server::{ServerConfig, SingleEngineBackend};
use mq_storage::{Dataset, PageLayout, PagedDatabase};

/// Deterministic scattered 3-d points (xorshift from `seed`), no external
/// RNG.
pub fn dataset(n: usize, seed: u64) -> Dataset<Vector> {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    Dataset::new(
        (0..n)
            .map(|_| Vector::new((0..3).map(|_| (next() * 100.0) as f32).collect::<Vec<_>>()))
            .collect(),
    )
}

pub fn layout() -> PageLayout {
    PageLayout::new(512, 16)
}

/// A linear-scan single-engine backend over `ds` with the server's default
/// engine options.
pub fn backend(ds: &Dataset<Vector>) -> Box<SingleEngineBackend> {
    let db = PagedDatabase::pack(ds, layout());
    let scan = LinearScan::new(db.page_count());
    Box::new(SingleEngineBackend::new(
        db,
        Box::new(scan),
        0.05,
        ServerConfig::default().engine,
    ))
}

/// `(id, distance_bits)` — bit-exact comparison, not approximate.
pub fn answer_bits(answers: &[mq_core::Answer]) -> Vec<(u32, u64)> {
    answers
        .iter()
        .map(|a| (a.id.0, a.distance.to_bits()))
        .collect()
}
