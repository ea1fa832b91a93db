//! Tier-1 smoke test for the query service: serve a small database on
//! loopback, query it through the client library, and confirm the answers
//! match the local engine. (The thorough concurrency, protocol-property
//! and cluster tests live in `crates/front/tests/` and
//! `crates/server/tests/`.)

use mquery::prelude::*;

#[test]
fn served_answers_match_local_engine() {
    let dataset = Dataset::new(
        (0..300)
            .map(|i| Vector::new(vec![i as f32 % 19.0, (i / 19) as f32]))
            .collect(),
    );

    let db = PagedDatabase::pack(&dataset, PageLayout::new(512, 16));
    let config = ServerConfig::default();
    let backend = build_backend(&db, &config, 0.10, |part| {
        let db = PagedDatabase::pack(part, PageLayout::new(512, 16));
        let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
        (scan, db)
    })
    .expect("sim backend");
    let mut server = FrontServer::bind("127.0.0.1:0", backend, &config).expect("bind loopback");

    let local_db = PagedDatabase::pack(&dataset, PageLayout::new(512, 16));
    let local_scan = LinearScan::new(local_db.page_count());
    let local_disk = SimulatedDisk::new(local_db, 0.10);
    let engine = QueryEngine::new(&local_disk, &local_scan, Euclidean);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (q, t) in [
        (dataset.object(ObjectId(0)).clone(), QueryType::knn(4)),
        (dataset.object(ObjectId(123)).clone(), QueryType::range(2.5)),
        (
            dataset.object(ObjectId(7)).clone(),
            QueryType::bounded_knn(3, 5.0),
        ),
    ] {
        let remote = client.query(&q, &t).expect("remote query");
        let local = engine.similarity_query(&q, &t);
        let got: Vec<(u32, f64)> = remote
            .answers
            .iter()
            .map(|a| (a.id.0, a.distance))
            .collect();
        let want: Vec<(u32, f64)> = local
            .as_slice()
            .iter()
            .map(|a| (a.id.0, a.distance))
            .collect();
        assert_eq!(got, want, "{t} differs between server and local engine");
    }
    drop(client);
    server.shutdown();
}
