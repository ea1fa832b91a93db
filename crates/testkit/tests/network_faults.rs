//! Network-fault tests: the retrying client against a server reached
//! through the byte-budgeted [`FlakyProxy`].
//!
//! The failure pattern is a data value (the budget schedule), so every
//! run replays identically; the client's backoff jitter is seeded the
//! same way.

use mq_core::QueryType;
use mq_datagen::uniform_vectors;
use mq_front::FrontServer;
use mq_index::{LinearScan, SimilarityIndex};
use mq_metric::Vector;
use mq_server::{
    build_backend, Client, ClientError, ProtocolError, RetryConfig, RetryingClient, ServerConfig,
};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use mq_testkit::FlakyProxy;
use std::time::{Duration, Instant};

fn start_server() -> FrontServer {
    let objects = uniform_vectors(200, 3, 77);
    let ds = Dataset::new(objects);
    let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
    let config = ServerConfig::default().with_max_batch(4);
    let backend = build_backend(&db, &config, 0.10, |part| {
        let db = PagedDatabase::pack(part, PageLayout::new(256, 16));
        let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
        (scan, db)
    })
    .expect("sim backend");
    FrontServer::bind("127.0.0.1:0", backend, &config).expect("bind server")
}

fn retry_config() -> RetryConfig {
    RetryConfig::default()
        .with_max_retries(3)
        .with_connect_timeout(Duration::from_millis(500))
        .with_read_timeout(Some(Duration::from_secs(2)))
        .with_backoff(Duration::from_millis(2), Duration::from_millis(10))
        .with_jitter_seed(7)
}

#[test]
fn client_recovers_from_a_connection_cut_mid_reply() {
    let server = start_server();
    // First connection dies after 10 reply bytes (mid-frame: the header
    // alone is 10 bytes); the reconnection is unrestricted.
    let proxy = FlakyProxy::start(server.local_addr(), vec![Some(10)]).expect("proxy");
    let query = Vector::new(vec![0.5, 0.5, 0.5]);

    let mut direct = Client::connect(server.local_addr()).expect("direct client");
    let want = direct.query(&query, &QueryType::knn(3)).expect("direct");

    let mut retrying = RetryingClient::new(proxy.local_addr().to_string(), retry_config());
    let got = retrying
        .query(&query, &QueryType::knn(3))
        .expect("the retry must transparently resubmit");
    assert!(
        retrying.retries_performed() >= 1,
        "the first connection was cut, a retry must have happened"
    );
    assert_eq!(got.answers, want.answers, "resubmitted answers must match");
}

#[test]
fn repeated_cuts_exhaust_the_budget_with_a_typed_error() {
    let server = start_server();
    // Every connection the client will ever make is cut mid-reply.
    let proxy = FlakyProxy::start(
        server.local_addr(),
        vec![Some(10), Some(10), Some(10), Some(10), Some(10)],
    )
    .expect("proxy");
    let mut retrying = RetryingClient::new(proxy.local_addr().to_string(), retry_config());
    let err = retrying.query(&Vector::new(vec![0.1, 0.2, 0.3]), &QueryType::knn(2));
    assert!(
        matches!(err, Err(ClientError::Protocol(ProtocolError::Io(_)))),
        "exhausted retries must surface the transport error: {err:?}"
    );
    assert_eq!(
        retrying.retries_performed(),
        3,
        "budget bounds the attempts"
    );
}

#[test]
fn read_timeout_bounds_a_stalled_server() {
    // An accept-only listener: connections open but no byte ever returns.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Keep accepted sockets alive so the client sees a stall, not a
        // reset; exit when the listener is closed by test end.
        let mut held = Vec::new();
        for stream in listener.incoming().take(3).flatten() {
            held.push(stream);
        }
    });
    let config = RetryConfig::default()
        .with_max_retries(1)
        .with_connect_timeout(Duration::from_millis(500))
        .with_read_timeout(Some(Duration::from_millis(150)))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(2));
    let mut client = RetryingClient::new(addr.to_string(), config);
    let started = Instant::now();
    let err = client.query(&Vector::new(vec![1.0]), &QueryType::knn(1));
    let elapsed = started.elapsed();
    assert!(
        matches!(err, Err(ClientError::Protocol(ProtocolError::Io(_)))),
        "a stalled server must surface as a timeout I/O error: {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "timeouts must bound the stall, took {elapsed:?}"
    );
    drop(client);
    drop(hold); // detached; the held connections die with the process
}

#[test]
fn stats_calls_retry_too() {
    let server = start_server();
    let proxy = FlakyProxy::start(server.local_addr(), vec![Some(5)]).expect("proxy");
    let mut retrying = RetryingClient::new(proxy.local_addr().to_string(), retry_config());
    let metrics = retrying.stats().expect("stats after reconnect");
    assert_eq!(metrics.queries, 0, "fresh server served nothing yet");
    assert!(retrying.retries_performed() >= 1);
}
