//! Admission-control determinism: the same seed and the same offered
//! plan must produce the same admitted/rejected split at the quota
//! boundary, and a rejected request must never reach the engine — its
//! fingerprints (distance calculations, query counters) stay exactly
//! where they were.

use mq_core::QueryType;
use mq_front::FrontServer;
use mq_metric::{ObjectId, Vector};
use mq_obs::Recorder;
use mq_server::{AdmissionController, Client, ClientError, QuotaConfig, ServerConfig};
use mq_storage::Dataset;
use std::time::Duration;

mod common;
use common::{backend, wait_until, GatedBackend};

fn dataset(n: usize) -> Dataset<Vector> {
    common::dataset(n, 0x51ed_270b_a2fc_e1f5)
}

/// A deterministic offered plan: (tenant, logical arrival time).
fn offered_plan(seed: u64, n: usize) -> Vec<(String, Duration)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = Duration::ZERO;
    (0..n)
        .map(|_| {
            let tenant = format!("tenant-{}", next() % 3);
            t += Duration::from_micros(500 + next() % 4_000);
            (tenant, t)
        })
        .collect()
}

/// Replays `plan` against a fresh controller, returning the admit/reject
/// outcome per request.
fn replay(plan: &[(String, Duration)], quota: QuotaConfig) -> Vec<bool> {
    let controller = AdmissionController::new(0, Some(quota));
    plan.iter()
        .map(|(tenant, at)| controller.admit(tenant, 0, *at, None).is_ok())
        .collect()
}

#[test]
fn same_seed_and_plan_give_identical_admission_split() {
    // The plan offers ~400 qps split over 3 tenants (~133 qps each); a
    // 50 qps per-tenant quota forces a genuine mix of outcomes.
    let quota = QuotaConfig {
        rate: 50.0,
        burst: 4.0,
    };
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        let plan = offered_plan(seed, 300);
        let first = replay(&plan, quota);
        let second = replay(&plan, quota);
        assert_eq!(first, second, "seed {seed}: split not reproducible");

        let admitted = first.iter().filter(|&&a| a).count();
        assert!(
            admitted > 0 && admitted < plan.len(),
            "seed {seed}: plan must straddle the quota boundary \
             (admitted {admitted}/{})",
            plan.len()
        );
    }

    // Different seeds produce different offered plans, hence (almost
    // surely) different splits — guards against a controller that
    // ignores its inputs.
    let a = replay(&offered_plan(1, 300), quota);
    let b = replay(&offered_plan(2, 300), quota);
    assert_ne!(a, b, "independent plans gave identical splits");
}

#[test]
fn rejected_requests_never_touch_the_engine() {
    let ds = dataset(400);
    let recorder = Recorder::enabled();
    // burst 2, negligible refill: exactly two queries from one tenant get
    // through, the rest are rejected before scheduling.
    let config = ServerConfig::default()
        .with_max_batch(2)
        .with_quota(Some(QuotaConfig {
            rate: 0.0001,
            burst: 2.0,
        }));
    let mut server =
        FrontServer::bind_with_recorder("127.0.0.1:0", backend(&ds), &config, &recorder)
            .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let q = ds.object(ObjectId(5)).clone();
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..10 {
        match client.query_in("", "metered", &q, &QueryType::knn(3)) {
            Ok(reply) => {
                admitted += 1;
                assert_eq!(reply.answers.len(), 3);
            }
            Err(ClientError::Overloaded { retry_after_ms }) => {
                rejected += 1;
                assert!(retry_after_ms >= 1, "retry hint must be positive");
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(admitted, 2, "burst of 2 admits exactly 2");
    assert_eq!(rejected, 8);

    // The engine only ever saw the admitted queries: the scheduler's
    // query counter and the admission counters agree, and no distance
    // work was billed for rejected requests.
    let metrics = server.metrics();
    assert_eq!(metrics.queries, admitted);
    assert!(
        metrics.totals.dist_calcs > 0,
        "admitted queries did real distance work"
    );

    let exposition = recorder.render();
    let series = |name: &str| -> u64 {
        exposition
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<f64>().ok())
            .map(|v| v as u64)
            .unwrap_or_else(|| panic!("series {name} missing from exposition"))
    };
    assert_eq!(series("mq_front_admitted_total"), admitted);
    assert_eq!(series("mq_front_rejected_total"), rejected);
    assert_eq!(series("mq_server_queries_total"), admitted);

    // Per-query distance-calc average stays what two admitted queries
    // cost; had rejected queries leaked into batches the counter would
    // be ~5x higher.
    let dist_per_query = metrics.totals.dist_calcs / admitted;
    assert!(
        metrics.totals.dist_calcs <= dist_per_query * admitted,
        "distance work exceeds the admitted-query budget"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn queue_depth_bound_rejects_with_retry_hint_over_the_wire() {
    let ds = dataset(300);
    // max_queue 1 and a backend held at a gate: the first query parks in
    // its batch, the second hits the depth bound.
    let config = ServerConfig::default().with_max_batch(8).with_max_queue(1);
    let (gated, gate) = GatedBackend::new(backend(&ds));
    let mut server = FrontServer::bind("127.0.0.1:0", gated, &config).expect("bind");
    let addr = server.local_addr();

    let q = ds.object(ObjectId(2)).clone();
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let mut c = Client::connect(addr).expect("connect");
            c.query(&q, &QueryType::knn(2)).expect("parked query")
        });

        // Wait until the parked query observably occupies the queue slot,
        // then the very next query must be rejected with a bounded hint.
        wait_until("the parked query is in flight", || server.in_flight() == 1);

        let mut c = Client::connect(addr).expect("connect");
        match c.query(&q, &QueryType::knn(2)) {
            Err(ClientError::Overloaded { retry_after_ms }) => {
                assert!((1..=1000).contains(&retry_after_ms));
            }
            other => panic!("expected Overloaded at the depth bound, got {other:?}"),
        }
        gate.open();
        let parked = parked.join().expect("parked thread");
        assert_eq!(
            parked.answers.len(),
            2,
            "the parked query gets its full answer"
        );
    });

    server.shutdown();
}
