//! Multi-collection loopback suite: admin opcodes racing live query
//! traffic. Creating and dropping collections must never perturb the
//! answers of in-flight batches on *other* collections (bit-identical
//! to a single-collection oracle), and dropping a busy collection must
//! fail with a typed error — never a partial answer.

use mq_core::{QueryEngine, QueryType};
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_metric::{Euclidean, ObjectId, Vector};
use mq_server::{refusal, Client, ClientError, ServerConfig};
use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

mod common;
use common::{answer_bits as bits, backend, layout, wait_until, GatedBackend};

fn dataset(n: usize, salt: u64) -> Dataset<Vector> {
    common::dataset(n, 0x9e37_79b9_7f4a_7c15 ^ salt)
}

#[test]
fn create_drop_churn_never_perturbs_in_flight_batches() {
    let ds = dataset(500, 1);
    let config = ServerConfig::default().with_max_batch(4);
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");
    let addr = server.local_addr();

    // Single-collection oracle computed up front.
    let queries: Vec<(Vector, QueryType)> = (0..40)
        .map(|i| {
            let q = ds.object(ObjectId((i * 11) as u32)).clone();
            let t = if i % 2 == 0 {
                QueryType::knn(5)
            } else {
                QueryType::range(15.0)
            };
            (q, t)
        })
        .collect();
    let oracle: Vec<Vec<(u32, u64)>> = {
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.05);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        queries
            .iter()
            .map(|(q, t)| {
                engine
                    .similarity_query(q, t)
                    .as_slice()
                    .iter()
                    .map(|a| (a.id.0, a.distance.to_bits()))
                    .collect()
            })
            .collect()
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Churn thread: create/drop scratch collections as fast as the
        // server will take them, racing the query batches below.
        let churn = scope.spawn(|| {
            let mut admin = Client::connect(addr).expect("connect admin");
            let mut cycles = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("scratch-{}", cycles % 4);
                let _ = admin.create_collection(&name, 8, "euclidean", "");
                let _ = admin.drop_collection(&name);
                cycles += 1;
            }
            cycles
        });

        // Query threads on the default collection, compared to the oracle.
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let queries = &queries;
                let oracle = &oracle;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect worker");
                    for (i, (q, t)) in queries.iter().enumerate().skip(w).step_by(4) {
                        let reply = client.query(q, t).expect("query");
                        assert_eq!(
                            bits(&reply.answers),
                            oracle[i],
                            "answer {i} perturbed by collection churn"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
        let cycles = churn.join().expect("churn");
        assert!(cycles > 0, "churn thread never ran");
    });

    server.shutdown();
}

#[test]
fn dropping_a_busy_collection_is_a_typed_refusal_not_a_partial_answer() {
    let ds = dataset(300, 2);
    let config = ServerConfig::default();
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");
    let addr = server.local_addr();

    // Queries against the *default* collection are what hold it busy;
    // default is additionally protected as undropable, so use a second
    // collection for the busy-drop race. Its backend holds every batch at
    // a gate, so a query stays in flight until the test lets it go.
    let (gated, gate) = GatedBackend::new(backend(&ds));
    server
        .registry()
        .install("busy", gated, &config)
        .expect("install gated collection");
    let mut admin = Client::connect(addr).expect("connect admin");

    std::thread::scope(|scope| {
        let q = ds.object(ObjectId(17)).clone();
        let querier = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect querier");
            client.query_in("busy", "", &q, &QueryType::knn(1))
        });

        // Wait until the query is observably in flight, so the drop
        // below is guaranteed to hit a busy collection.
        wait_until("the query is in flight", || {
            let listed = admin.list_collections().expect("list");
            listed.iter().any(|c| c.name == "busy" && c.in_flight > 0)
        });

        // Dropping a busy collection must be a typed BUSY refusal.
        let err = admin
            .drop_collection("busy")
            .expect_err("drop of a busy collection must be refused");
        match err {
            ClientError::Refused { code, .. } => assert_eq!(code, refusal::COLLECTION_BUSY),
            other => panic!("expected Refused(BUSY), got {other:?}"),
        }

        // The in-flight query must complete with a full answer — never a
        // partial one, never a hang.
        gate.open();
        let reply = querier.join().expect("querier thread");
        let reply = reply.expect("in-flight query must survive the refused drop");
        assert_eq!(bits(&reply.answers), vec![(17, 0f64.to_bits())]);

        // Once the traffic is gone the drop goes through.
        let mut dropped = false;
        for _ in 0..1000 {
            match admin.drop_collection("busy") {
                Ok(_) => {
                    dropped = true;
                    break;
                }
                Err(ClientError::Refused { code, .. }) if code == refusal::COLLECTION_BUSY => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(other) => panic!("unexpected drop error: {other:?}"),
            }
        }
        assert!(dropped, "idle collection never became dropable");
    });

    // Dropping the default collection is always refused.
    let err = admin
        .drop_collection("default")
        .expect_err("default is undropable");
    match err {
        ClientError::Refused { code, .. } => assert_eq!(code, refusal::BAD_COLLECTION_SPEC),
        other => panic!("expected Refused, got {other:?}"),
    }

    drop(admin);
    server.shutdown();
}

#[test]
fn collections_are_isolated_per_scheduler() {
    // Two collections with different datasets on one server: batches must
    // never mix them, so each stays bit-identical to its own oracle.
    let ds_a = dataset(300, 7);
    let ds_b = dataset(300, 8);
    let config = ServerConfig::default().with_max_batch(4);
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds_a), &config).expect("bind");
    server
        .registry()
        .install("b", backend(&ds_b), &config)
        .expect("install second collection");
    let addr = server.local_addr();

    let oracle = |ds: &Dataset<Vector>, q: &Vector, t: &QueryType| -> Vec<(u32, u64)> {
        let db = PagedDatabase::pack(ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.05);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        engine
            .similarity_query(q, t)
            .as_slice()
            .iter()
            .map(|a| (a.id.0, a.distance.to_bits()))
            .collect()
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..6u32 {
            let (ds, name) = if i % 2 == 0 {
                (&ds_a, "")
            } else {
                (&ds_b, "b")
            };
            let q = ds.object(ObjectId(i * 17)).clone();
            let t = QueryType::knn(4);
            let want = oracle(ds, &q, &t);
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client.query_in(name, "", &q, &t).expect("query");
                assert_eq!(bits(&reply.answers), want, "collection {name:?} leaked");
            }));
        }
        for h in handles {
            h.join().expect("client");
        }
    });

    server.shutdown();
}
