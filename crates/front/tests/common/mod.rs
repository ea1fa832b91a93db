//! Fixtures shared by the live-server suites. Each suite is its own test
//! binary and uses a subset.
#![allow(dead_code)]

use mq_core::{Answer, ExecutionStats, QueryType};
use mq_index::LinearScan;
use mq_metric::Vector;
use mq_server::{QueryBackend, ServerConfig, SingleEngineBackend};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Holds every `execute` of a [`GatedBackend`] until the test opens it, so
/// a test decides which queries queue behind a held batch. Once open it
/// stays open.
#[derive(Default)]
pub struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let open = self.open.lock().unwrap();
        drop(self.opened.wait_while(open, |open| !*open).unwrap());
    }
}

/// A real backend whose `execute` waits at a [`Gate`] first.
pub struct GatedBackend {
    inner: Box<dyn QueryBackend>,
    gate: Arc<Gate>,
}

impl GatedBackend {
    /// Wraps `inner` behind a fresh, closed gate.
    pub fn new(inner: Box<dyn QueryBackend>) -> (Box<Self>, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let backend = Box::new(Self {
            inner,
            gate: Arc::clone(&gate),
        });
        (backend, gate)
    }
}

impl QueryBackend for GatedBackend {
    fn execute(&self, queries: Vec<(Vector, QueryType)>) -> (Vec<Vec<Answer>>, ExecutionStats) {
        self.gate.pass();
        self.inner.execute(queries)
    }

    fn dimensions(&self) -> usize {
        self.inner.dimensions()
    }

    fn object_count(&self) -> u64 {
        self.inner.object_count()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Polls `ready` until it holds; panics after ten seconds.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// `(id, distance_bits)` — bit-exact comparison, not approximate.
pub fn answer_bits(answers: &[mq_core::Answer]) -> Vec<(u32, u64)> {
    answers
        .iter()
        .map(|a| (a.id.0, a.distance.to_bits()))
        .collect()
}
