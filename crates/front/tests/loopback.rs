//! End-to-end loopback test: an in-process server, N concurrent clients
//! queued behind a held batch, answers identical to serial
//! `QueryEngine::similarity_query`, at least one batch of size > 1, and
//! fewer total page reads than the per-query sum.

use mq_core::{QueryEngine, QueryType};
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_metric::{Euclidean, ObjectId, Vector};
use mq_server::{build_backend, Client, ServerConfig};
use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};

mod common;
use common::{layout, scan_backend, wait_until, GatedBackend};

const N_CLIENTS: usize = 6;

fn dataset(n: usize) -> Dataset<Vector> {
    common::dataset(n, 0x1234_5678_9abc_def0)
}

fn client_queries(ds: &Dataset<Vector>) -> Vec<(Vector, QueryType)> {
    (0..N_CLIENTS)
        .map(|i| {
            let q = ds.object(ObjectId((i * 53) as u32)).clone();
            let t = if i % 2 == 0 {
                QueryType::knn(5)
            } else {
                QueryType::range(12.0)
            };
            (q, t)
        })
        .collect()
}

#[test]
fn concurrent_clients_get_serial_answers_with_shared_reads() {
    let ds = dataset(600);
    let (backend, gate) = GatedBackend::new(scan_backend(&ds, 0.05));

    // All clients fire at once and queue behind the first, held batch;
    // released, the rest go out together (max_batch = N takes them all).
    let config = ServerConfig::default().with_max_batch(N_CLIENTS);
    let mut server = FrontServer::bind("127.0.0.1:0", backend, &config).expect("bind loopback");
    let addr = server.local_addr();

    let queries = client_queries(&ds);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|(q, t)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.query(q, t).expect("query")
                })
            })
            .collect();
        wait_until("every client is queued", || {
            server.in_flight() == N_CLIENTS as u64
        });
        gate.open();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Serial reference: same data, same index, fresh disk.
    let ref_db = PagedDatabase::pack(&ds, layout());
    let ref_scan = LinearScan::new(ref_db.page_count());
    let ref_disk = SimulatedDisk::new(ref_db, 0.05);
    let engine = QueryEngine::new(&ref_disk, &ref_scan, Euclidean);
    ref_disk.reset_stats();
    for ((q, t), reply) in queries.iter().zip(&replies) {
        let serial = engine.similarity_query(q, t);
        let want: Vec<(u32, f64)> = serial
            .as_slice()
            .iter()
            .map(|a| (a.id.0, a.distance))
            .collect();
        let got: Vec<(u32, f64)> = reply.answers.iter().map(|a| (a.id.0, a.distance)).collect();
        assert_eq!(got, want, "server answers differ from serial engine");
    }
    let serial_reads = ref_disk.stats().logical_reads;

    // At least one flushed batch carried more than one query.
    assert!(
        replies.iter().any(|r| r.batch_size > 1),
        "no batch formed: sizes {:?}",
        replies.iter().map(|r| r.batch_size).collect::<Vec<_>>()
    );

    // The batched server read fewer pages than the per-query sum (§5.1:
    // the scan shares one pass across the whole batch).
    let metrics = server.metrics();
    assert_eq!(metrics.queries, N_CLIENTS as u64);
    assert!(
        metrics.totals.io.logical_reads < serial_reads,
        "batching saved nothing: server {} vs serial {serial_reads}",
        metrics.totals.io.logical_reads
    );

    // The stats request reports the same counters over the wire.
    let mut stats_client = Client::connect(addr).expect("connect");
    let remote = stats_client.stats().expect("stats");
    assert_eq!(remote.queries, N_CLIENTS as u64);
    assert_eq!(remote.max_batch_size, metrics.max_batch_size);
    drop(stats_client);

    server.shutdown();
}

#[test]
fn cluster_mode_agrees_with_single_mode() {
    let ds = dataset(400);
    let db = PagedDatabase::pack(&ds, layout());
    let build_index = |ds: &Dataset<Vector>| {
        let db = PagedDatabase::pack(ds, layout());
        (
            Box::new(LinearScan::new(db.page_count()))
                as Box<dyn mq_index::SimilarityIndex<Vector>>,
            db,
        )
    };

    let single_cfg = ServerConfig::default().with_max_batch(4);
    let cluster_cfg = single_cfg.clone().with_servers(3);

    let single_backend = build_backend(&db, &single_cfg, 0.10, build_index).expect("backend");
    let cluster_backend = build_backend(&db, &cluster_cfg, 0.10, build_index).expect("backend");
    let mut single_server =
        FrontServer::bind("127.0.0.1:0", single_backend, &single_cfg).expect("bind");
    let mut cluster_server =
        FrontServer::bind("127.0.0.1:0", cluster_backend, &cluster_cfg).expect("bind");

    let queries = client_queries(&ds);
    let mut a = Client::connect(single_server.local_addr()).expect("connect");
    let mut b = Client::connect(cluster_server.local_addr()).expect("connect");
    for (q, t) in &queries {
        let ra = a.query(q, t).expect("single");
        let rb = b.query(q, t).expect("cluster");
        let ia: Vec<u32> = ra.answers.iter().map(|x| x.id.0).collect();
        let ib: Vec<u32> = rb.answers.iter().map(|x| x.id.0).collect();
        assert_eq!(ia, ib, "cluster answers diverge for {t}");
    }
    drop((a, b));
    single_server.shutdown();
    cluster_server.shutdown();
}

#[test]
fn client_dropped_mid_batch_leaks_no_slot_and_others_complete() {
    let ds = dataset(300);
    let (backend, gate) = GatedBackend::new(scan_backend(&ds, 0.10));
    // max_batch = 3: room for one doomed client plus two survivors.
    let config = ServerConfig::default().with_max_batch(3);
    let mut server = FrontServer::bind("127.0.0.1:0", backend, &config).expect("bind loopback");
    let addr = server.local_addr();

    // The doomed client: writes a complete, valid Query frame and then
    // drops the connection while its batch is held at the gate. Its reply
    // has nowhere to go; the server must shrug, not stall or leak the slot.
    {
        use std::io::Write;
        let doomed_query = mq_server::Message::Query {
            object: ds.object(ObjectId(7)).clone(),
            qtype: QueryType::knn(3),
            collection: String::new(),
            tenant: String::new(),
        };
        let mut raw = std::net::TcpStream::connect(addr).expect("connect doomed");
        raw.write_all(&doomed_query.encode()).expect("write frame");
        wait_until("the doomed query is in flight", || server.in_flight() == 1);
        // Dropped here — socket closes while the query sits in the batch.
    }

    // Two survivors queued behind the doomed query must both complete.
    let survivors: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let q = ds.object(ObjectId((i * 31 + 1) as u32)).clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect survivor");
                    client
                        .query(&q, &QueryType::knn(4))
                        .expect("survivor query")
                })
            })
            .collect();
        wait_until("both survivors are queued", || server.in_flight() == 3);
        gate.open();
        handles
            .into_iter()
            .map(|h| h.join().expect("survivor thread"))
            .collect()
    });
    for reply in &survivors {
        assert_eq!(reply.answers.len(), 4, "survivor got a full kNN answer");
    }

    // A later, unrelated query must still be served: if the dead client
    // leaked a batch slot the admission queue would wedge.
    let mut late = Client::connect(addr).expect("connect late");
    let reply = late
        .query(ds.object(ObjectId(9)), &QueryType::knn(1))
        .expect("service must survive the dropped client");
    assert_eq!(reply.answers[0].id.0, 9);
    drop(late);

    // The doomed query was still *executed* — only its reply was lost.
    assert_eq!(server.metrics().queries, 4, "all submitted queries ran");

    server.shutdown();
}

#[test]
fn dimension_mismatch_is_rejected_and_server_keeps_serving() {
    let ds = dataset(80);
    let backend = scan_backend(&ds, 0.10);
    let mut server =
        FrontServer::bind("127.0.0.1:0", backend, &ServerConfig::default()).expect("bind");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    // The database is 3-d; a 2-d query must be rejected without reaching
    // (and crashing) the backend.
    let err = client
        .query(&Vector::new(vec![1.0, 2.0]), &QueryType::knn(2))
        .expect_err("mismatched dimensionality must be rejected");
    match err {
        mq_server::ClientError::Server(msg) => {
            assert!(msg.contains("dimension mismatch"), "got: {msg}")
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // Same connection, corrected query: the service must still work.
    let good = ds.object(ObjectId(5)).clone();
    let reply = client.query(&good, &QueryType::knn(1)).expect("recovery");
    assert_eq!(reply.answers[0].id.0, 5);

    drop(client);
    server.shutdown();
}
