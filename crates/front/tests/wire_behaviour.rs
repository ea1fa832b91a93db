//! Wire behaviour of the frontend: answers bit-identical to the
//! in-process serial engine at every point of the batching config matrix,
//! under concurrent clients and pipelining, plus the error surfaces
//! (malformed frames, version mismatch, dimension mismatch) and the drain
//! protocol. These tests pin down that the event-driven I/O layer does
//! not perturb anything observable.

use mq_core::{QueryEngine, QueryType};
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_metric::{Euclidean, ObjectId, Vector};
use mq_server::protocol::VERSION;
use mq_server::{Client, ClientError, Message, ServerConfig, DEFAULT_COLLECTION};
use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;
use common::{answer_bits, backend, layout, wait_until, GatedBackend};

fn dataset(n: usize) -> Dataset<Vector> {
    common::dataset(n, 0x1234_5678_9abc_def0)
}

fn queries(ds: &Dataset<Vector>, n: usize) -> Vec<(Vector, QueryType)> {
    (0..n)
        .map(|i| {
            let q = ds.object(ObjectId((i * 53) as u32)).clone();
            let t = match i % 3 {
                0 => QueryType::knn(5),
                1 => QueryType::range(12.0),
                _ => QueryType::bounded_knn(4, 25.0),
            };
            (q, t)
        })
        .collect()
}

#[test]
fn answers_match_serial_oracle_across_config_matrix() {
    let ds = dataset(500);
    let qs = queries(&ds, 8);

    // The serial oracle every configuration must agree with.
    let oracle: Vec<Vec<(u32, u64)>> = {
        let db = PagedDatabase::pack(&ds, layout());
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.05);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        qs.iter()
            .map(|(q, t)| answer_bits(engine.similarity_query(q, t).as_slice()))
            .collect()
    };

    let matrix = [
        ServerConfig::default().with_max_batch(1),
        ServerConfig::default().with_max_batch(4),
        ServerConfig::default().with_max_batch(8),
    ];

    for config in &matrix {
        let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), config).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (i, (q, t)) in qs.iter().enumerate() {
            let reply = client.query(q, t).expect("query");
            assert_eq!(
                answer_bits(&reply.answers),
                oracle[i],
                "diverged from oracle ({})",
                config.describe()
            );
        }

        // The aggregate counters saw exactly this workload.
        assert_eq!(client.stats().expect("stats").queries, qs.len() as u64);

        // A dimension mismatch is a typed server error, not a dropped
        // connection.
        let bad = Vector::new(vec![1.0, 2.0]);
        match client
            .query(&bad, &QueryType::knn(1))
            .expect_err("mismatch")
        {
            ClientError::Server(text) => assert!(text.contains("dimension mismatch"), "{text}"),
            other => panic!("expected a Server error, got {other:?}"),
        }

        drop(client);
        server.shutdown();
    }
}

#[test]
fn concurrent_clients_on_event_frontend_match_serial_oracle() {
    let ds = dataset(600);
    let qs = queries(&ds, 6);
    let config = ServerConfig::default().with_max_batch(qs.len());
    let (gated, gate) = GatedBackend::new(backend(&ds));
    let mut server = FrontServer::bind("127.0.0.1:0", gated, &config).expect("bind");
    let addr = server.local_addr();

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = qs
            .iter()
            .map(|(q, t)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.query(q, t).expect("query")
                })
            })
            .collect();
        wait_until("every client is queued", || {
            server.in_flight() == qs.len() as u64
        });
        gate.open();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let db = PagedDatabase::pack(&ds, layout());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.05);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    for ((q, t), reply) in qs.iter().zip(&replies) {
        let serial = engine.similarity_query(q, t);
        let want: Vec<(u32, u64)> = serial
            .as_slice()
            .iter()
            .map(|a| (a.id.0, a.distance.to_bits()))
            .collect();
        assert_eq!(answer_bits(&reply.answers), want);
    }
    // All clients queued behind a held batch: batching must actually
    // happen on the event frontend too.
    assert!(
        replies.iter().any(|r| r.batch_size > 1),
        "no batch formed: sizes {:?}",
        replies.iter().map(|r| r.batch_size).collect::<Vec<_>>()
    );

    server.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let ds = dataset(400);
    let qs = queries(&ds, 5);
    let config = ServerConfig::default().with_max_batch(qs.len());
    let (gated, gate) = GatedBackend::new(backend(&ds));
    let mut server = FrontServer::bind("127.0.0.1:0", gated, &config).expect("bind");

    // Write every request before reading any reply, and hold them behind
    // the first batch: the slot FIFO must answer them in request order
    // even though they complete in batches.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for (q, t) in &qs {
        let frame = Message::Query {
            object: q.clone(),
            qtype: *t,
            collection: String::new(),
            tenant: String::new(),
        }
        .encode();
        raw.write_all(&frame).expect("write frame");
    }
    wait_until("every request is queued", || {
        server.in_flight() == qs.len() as u64
    });
    gate.open();

    let db = PagedDatabase::pack(&ds, layout());
    let scan = LinearScan::new(db.page_count());
    let disk = SimulatedDisk::new(db, 0.05);
    let engine = QueryEngine::new(&disk, &scan, Euclidean);

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut decoded = 0usize;
    while decoded < qs.len() {
        let n = raw.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed after {decoded} replies");
        buf.extend_from_slice(&chunk[..n]);
        loop {
            match Message::decode(&buf) {
                Ok((Message::Answers { answers, .. }, used)) => {
                    buf.drain(..used);
                    let (q, t) = &qs[decoded];
                    let serial = engine.similarity_query(q, t);
                    let want: Vec<(u32, u64)> = serial
                        .as_slice()
                        .iter()
                        .map(|a| (a.id.0, a.distance.to_bits()))
                        .collect();
                    assert_eq!(
                        answer_bits(&answers),
                        want,
                        "reply {decoded} out of order or wrong"
                    );
                    decoded += 1;
                }
                Ok((other, _)) => panic!("unexpected reply: {other:?}"),
                Err(_) => break, // incomplete frame: read more
            }
        }
    }

    drop(raw);
    server.shutdown();
}

#[test]
fn malformed_frame_gets_error_reply_and_close() {
    let ds = dataset(60);
    let mut server =
        FrontServer::bind("127.0.0.1:0", backend(&ds), &ServerConfig::default()).expect("bind");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("read to close");
    let (msg, _) = Message::decode(&response).expect("error frame");
    assert!(matches!(msg, Message::Error(_)), "got {msg:?}");

    server.shutdown();
}

#[test]
fn old_protocol_version_gets_typed_mismatch_reply() {
    let ds = dataset(60);
    let mut server =
        FrontServer::bind("127.0.0.1:0", backend(&ds), &ServerConfig::default()).expect("bind");

    // Forge a v2 frame: take a valid v3 frame and patch the version word.
    let mut frame = Message::ListCollections.encode().to_vec();
    frame[4..6].copy_from_slice(&2u16.to_le_bytes());

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&frame).expect("write");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("read to close");
    let (msg, _) = Message::decode(&response).expect("mismatch frame");
    match msg {
        Message::VersionMismatch { server: s, client } => {
            assert_eq!(s, VERSION);
            assert_eq!(client, 2);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn collection_lifecycle_over_event_frontend() {
    let ds = dataset(100);
    let config = ServerConfig::default();
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client
        .create_collection("scratch", 4, "cosine", "")
        .expect("create");
    let listed = client.list_collections().expect("list");
    let names: Vec<&str> = listed.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec![DEFAULT_COLLECTION, "scratch"]);

    // Empty collection answers with zero hits, not an error.
    let reply = client
        .query_in(
            "scratch",
            "t1",
            &Vector::new(vec![0.0; 4]),
            &QueryType::knn(3),
        )
        .expect("query empty collection");
    assert!(reply.answers.is_empty());

    // A job retires just after its reply goes out; until then a drop is
    // refused as busy.
    wait_until("the query has retired", || server.in_flight() == 0);
    client.drop_collection("scratch").expect("drop");
    let err = client
        .query_in(
            "scratch",
            "t1",
            &Vector::new(vec![0.0; 4]),
            &QueryType::knn(3),
        )
        .expect_err("dropped collection must refuse queries");
    match err {
        ClientError::Refused { code, .. } => {
            assert_eq!(code, mq_server::refusal::UNKNOWN_COLLECTION)
        }
        other => panic!("expected Refused, got {other:?}"),
    }

    drop(client);
    server.shutdown();
}

#[test]
fn quota_rejection_is_typed_overloaded_on_event_frontend() {
    let ds = dataset(100);
    // burst 1, essentially no refill: the second immediate query from the
    // same tenant must be rejected with a typed Overloaded reply.
    let config = ServerConfig::default().with_quota(Some(mq_server::QuotaConfig {
        rate: 0.0001,
        burst: 1.0,
    }));
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let q = ds.object(ObjectId(3)).clone();
    client
        .query_in("", "tenant-a", &q, &QueryType::knn(2))
        .expect("first query within burst");
    let err = client
        .query_in("", "tenant-a", &q, &QueryType::knn(2))
        .expect_err("second query must exceed the burst");
    match err {
        ClientError::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    drop(client);
    server.shutdown();
}

#[test]
fn begin_drain_serves_existing_connections_then_drains_clean() {
    let ds = dataset(200);
    let config = ServerConfig::default().with_max_batch(2);
    let mut server = FrontServer::bind("127.0.0.1:0", backend(&ds), &config).expect("bind");

    let mut established = Client::connect(server.local_addr()).expect("connect before drain");
    server.begin_drain();

    // The established connection keeps working through the drain window.
    let q = ds.object(ObjectId(11)).clone();
    let reply = established
        .query(&q, &QueryType::knn(1))
        .expect("existing connection must be served during drain");
    assert_eq!(reply.answers[0].id.0, 11);

    assert!(
        server.drain(Duration::from_secs(5)),
        "drain must reach zero in-flight"
    );
    assert_eq!(server.in_flight(), 0);

    drop(established);
    server.shutdown();
}
