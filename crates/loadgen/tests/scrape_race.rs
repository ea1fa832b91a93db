//! Stats scrapes racing in-flight load: while a closed-loop run hammers
//! an in-process server, the main thread scrapes the metrics endpoint
//! repeatedly. Every mid-load exposition must parse, counter-style
//! series must be monotonically non-decreasing across scrapes, and after
//! a drain the scheduler's query counter must equal the number of
//! requests the plan issued.

use mq_core::QueryType;
use mq_datagen::uniform_vectors;
use mq_front::FrontServer;
use mq_index::{LinearScan, SimilarityIndex};
use mq_loadgen::{run, Mode, RequestPlan, RunOptions, WorkloadSpec};
use mq_metric::Vector;
use mq_obs::{Recorder, Snapshot};
use mq_server::{build_backend, Client, ServerConfig};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use std::time::Duration;

const REQUESTS: usize = 240;

/// Counter-style exposition series (`_total`, `_count`, `_sum`,
/// `_bucket`) may only grow; gauges may move either way.
fn is_counterish(series: &str) -> bool {
    let name = series.split('{').next().unwrap_or(series);
    name.ends_with("_total")
        || name.ends_with("_count")
        || name.ends_with("_sum")
        || name.ends_with("_bucket")
}

#[test]
fn concurrent_scrapes_parse_and_counters_stay_monotonic() {
    let vectors = uniform_vectors(400, 3, 0xC0FFEE);
    let ds = Dataset::new(vectors.clone());
    let db = PagedDatabase::pack(&ds, PageLayout::new(512, 16));
    let recorder = Recorder::enabled();
    // Small batches: many flushes, so the scraped counters actually move
    // while the run is in flight.
    let config = ServerConfig::default().with_max_batch(4);
    let backend = build_backend(&db, &config, 0.0, |part| {
        let db = PagedDatabase::pack(part, PageLayout::new(512, 16));
        let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
        (scan, db)
    })
    .expect("sim backend");
    let server = FrontServer::bind_with_recorder("127.0.0.1:0", backend, &config, &recorder)
        .expect("bind loopback server");
    let addr = server.local_addr().to_string();

    let spec = WorkloadSpec {
        mode: Mode::Closed {
            sessions: 4,
            think: Duration::ZERO,
        },
        requests: REQUESTS,
        qtype: QueryType::knn(5),
        pool: vectors[..16].to_vec(),
        skew: 0.9,
        seed: 0x0D15_EA5E,
    };
    let plan = RequestPlan::materialize(&spec);

    let (report, mut scrapes) = std::thread::scope(|scope| {
        let load = scope.spawn(|| run(&plan, &addr, &RunOptions::default()));
        // Race scrapes against the in-flight load from this thread: each
        // one must be a complete, parseable exposition even though the
        // scheduler is mutating every series underneath it.
        let mut scrapes = Vec::new();
        while !load.is_finished() {
            let mut scraper = Client::connect(addr.as_str()).expect("connect scraper");
            let text = scraper.metrics().expect("scrape mid-load");
            scrapes.push(Snapshot::from_exposition(&text).expect("parse mid-load exposition"));
            std::thread::sleep(Duration::from_millis(1));
        }
        (load.join().expect("load thread"), scrapes)
    });

    assert_eq!(report.ok as usize, REQUESTS, "every request must succeed");
    assert_eq!(report.errors, 0);
    assert_eq!(report.timeouts, 0);
    assert_eq!(
        report.fingerprint,
        plan.fingerprint(),
        "the report must carry the plan's stream fingerprint"
    );

    // The run has returned every reply, so nothing is in flight; the
    // drain hook must confirm that promptly.
    assert!(
        server.drain(Duration::from_secs(5)),
        "server still reports in-flight work after all replies arrived"
    );

    // One more scrape after the drain: the scheduler has now counted
    // every query the plan issued.
    let mut scraper = Client::connect(addr.as_str()).expect("connect final scraper");
    let text = scraper.metrics().expect("final scrape");
    let last = Snapshot::from_exposition(&text).expect("parse final exposition");
    assert_eq!(
        last.value("mq_server_queries_total"),
        REQUESTS as f64,
        "queries_total must equal the requests issued"
    );
    scrapes.push(last);

    // Monotonicity: no counter-style series may ever decrease between
    // consecutive scrapes, and no series may vanish.
    for pair in scrapes.windows(2) {
        for (series, value) in pair[0].iter() {
            let after = pair[1]
                .get(series)
                .unwrap_or_else(|| panic!("series {series} vanished between scrapes"));
            if is_counterish(series) {
                assert!(
                    after >= value,
                    "counter {series} went backwards: {value} -> {after}"
                );
            }
        }
    }
}
