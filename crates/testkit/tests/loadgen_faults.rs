//! Sustained load through the [`FlakyProxy`]: a closed-loop `mq-loadgen`
//! run crosses a proxy that cuts a connection mid-reply and stalls the
//! retry's first reply. The retrying client must keep every answer
//! oracle-correct (identical to a direct run against the same server),
//! the retry counter must be nonzero, the injected spike must show up in
//! the measured maximum latency, and the tail must stay bounded.

use mq_core::QueryType;
use mq_datagen::uniform_vectors;
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_loadgen::{run, Mode, RequestPlan, RunOptions, WorkloadSpec};
use mq_server::{ServerConfig, SingleEngineBackend};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use mq_testkit::{ConnFault, FlakyProxy};
use std::time::Duration;

const REQUESTS: usize = 48;
const SPIKE: Duration = Duration::from_millis(150);

fn serve() -> FrontServer {
    let ds = Dataset::new(uniform_vectors(500, 3, 0xFAB));
    let db = PagedDatabase::pack(&ds, PageLayout::new(512, 16));
    let scan = LinearScan::new(db.page_count());
    let config = ServerConfig::default().with_max_batch(4);
    let backend = SingleEngineBackend::new(db, Box::new(scan), 0.0, config.engine);
    FrontServer::bind("127.0.0.1:0", Box::new(backend), &config).expect("bind server")
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        // One session keeps the proxy's accept order deterministic:
        // before-scrape, the session's client, its reconnects, the
        // after-scrape — so the fault schedule lands where intended.
        mode: Mode::Closed {
            sessions: 1,
            think: Duration::ZERO,
        },
        requests: REQUESTS,
        qtype: QueryType::knn(5),
        pool: uniform_vectors(12, 3, 0xFAB),
        skew: 0.8,
        seed: 0xBAD_CAB1E,
    }
}

#[test]
fn load_through_flaky_proxy_stays_oracle_correct() {
    let server = serve();
    let plan = RequestPlan::materialize(&spec());
    let opts = RunOptions {
        capture_answers: true,
        ..RunOptions::default()
    };

    // Oracle: the same plan straight at the server.
    let direct = run(&plan, &server.local_addr().to_string(), &opts);
    assert_eq!(direct.ok as usize, REQUESTS, "direct run must be clean");
    assert_eq!(direct.errors, 0);

    // Fault schedule by accepted connection: #0 is the driver's
    // before-run scrape (clean), #1 is the session's first connection —
    // cut 40 reply bytes in, mid-frame — and #2 is the reconnect, whose
    // first reply stalls for the spike. Everything later is clean.
    let proxy = FlakyProxy::start_with_faults(
        server.local_addr(),
        vec![
            ConnFault::CLEAN,
            ConnFault::cut_after(40),
            ConnFault::spike(SPIKE),
        ],
    )
    .expect("start proxy");

    let proxied = run(&plan, &proxy.local_addr().to_string(), &opts);

    // The retrying client absorbed the faults: every request succeeded,
    // and at least one transport retry happened.
    assert_eq!(
        proxied.ok as usize, REQUESTS,
        "retries must recover every request ({} errors, {} timeouts)",
        proxied.errors, proxied.timeouts
    );
    assert_eq!(proxied.errors, 0);
    assert!(
        proxied.retries > 0,
        "the mid-reply cut must force at least one retry"
    );

    // Oracle correctness: answers are bit-identical to the direct run.
    let want = direct.answers.as_ref().expect("direct answers captured");
    let got = proxied.answers.as_ref().expect("proxied answers captured");
    assert_eq!(got, want, "proxied answers differ from the direct oracle");

    // The injected stall is visible in the tail: the stalled request's
    // latency is at least the spike, and the tail stays bounded (the
    // spike plus generous scheduling slack, not a timeout blowout).
    assert!(
        proxied.max_latency >= SPIKE.as_secs_f64(),
        "max latency {:.3}s misses the {:.3}s spike",
        proxied.max_latency,
        SPIKE.as_secs_f64()
    );
    assert!(
        proxied.p99 <= 5.0,
        "p99 {:.3}s blew past the bounded-tail ceiling",
        proxied.p99
    );
    // Fingerprints prove both runs offered the identical stream.
    assert_eq!(direct.fingerprint, proxied.fingerprint);
}
