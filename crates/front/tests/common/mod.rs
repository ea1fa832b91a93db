//! Fixtures shared by the live-server suites. Each suite is its own test
//! binary and uses a subset.
#![allow(dead_code)]

use mq_core::{Answer, ExecutionStats, QueryType};
use mq_index::{LinearScan, SimilarityIndex};
use mq_metric::Vector;
use mq_server::{build_backend, QueryBackend, ServerConfig};
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

/// A linear-scan backend over `ds` with the server's default config and
/// a page buffer of `buffer_fraction` of the pages.
pub fn scan_backend(ds: &Dataset<Vector>, buffer_fraction: f64) -> Box<dyn QueryBackend> {
    let db = PagedDatabase::pack(ds, layout());
    build_backend(&db, &ServerConfig::default(), buffer_fraction, |part| {
        let db = PagedDatabase::pack(part, layout());
        let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
        (scan, db)
    })
    .expect("the simulated store cannot fail to build")
}

/// [`scan_backend`] with a 5% buffer.
pub fn backend(ds: &Dataset<Vector>) -> Box<dyn QueryBackend> {
    scan_backend(ds, 0.05)
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
