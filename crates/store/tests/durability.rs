//! Durability and oracle-equivalence tests for [`FilePageStore`]:
//! create/open round-trips, WAL-first crash recovery, checksum
//! verification on the read path, and session reconciliation after online
//! insert/delete.

use mq_core::{QueryEngine, QueryType};
use mq_index::LinearScan;
use mq_metric::{CountingMetric, Euclidean, ObjectId, Vector};
use mq_storage::{
    Dataset, PageId, PageLayout, PageStore, PagedDatabase, SimulatedDisk, VectorCodec,
};
use mq_store::{FilePageStore, SegmentMeta, StoreError, LOCK_FILE, SEGMENT_FILE, WAL_FILE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mq-store-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid(n: usize) -> Dataset<Vector> {
    Dataset::new(
        (0..n)
            .map(|i| Vector::new(vec![(i % 10) as f32, (i / 10) as f32]))
            .collect(),
    )
}

fn db(n: usize) -> PagedDatabase<Vector> {
    PagedDatabase::pack(&grid(n), PageLayout::new(128, 16))
}

fn answers_on(store: &dyn PageStore<Vector>) -> Vec<Vec<(ObjectId, u64)>> {
    let index = LinearScan::new(store.database().page_count());
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(store, &index, metric);
    let queries = vec![
        (Vector::new(vec![4.5, 4.5]), QueryType::knn(5)),
        (Vector::new(vec![0.0, 9.0]), QueryType::range(2.5)),
        (Vector::new(vec![7.0, 2.0]), QueryType::knn(3)),
    ];
    engine
        .multiple_similarity_query(queries)
        .into_iter()
        .map(|list| {
            list.into_iter()
                .map(|a| (a.id, a.distance.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn file_store_answers_match_the_simulated_oracle_bit_for_bit() {
    let dir = temp_dir("oracle");
    let store = FilePageStore::create(&dir, db(100), VectorCodec, 4).expect("create");
    let sim = SimulatedDisk::with_buffer_pages(db(100), 4);
    assert_eq!(answers_on(&store), answers_on(&sim));
    assert_eq!(store.stats(), sim.stats(), "IoStats must be bit-identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_restores_pages_and_directory_bit_for_bit() {
    let dir = temp_dir("reopen");
    let before = {
        let store = FilePageStore::create(&dir, db(60), VectorCodec, 4).expect("create");
        answers_on(&store)
    };
    let store = FilePageStore::open(&dir, VectorCodec, 4).expect("open");
    assert_eq!(store.store_stats().recovery_replayed_records, 0);
    assert_eq!(answers_on(&store), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn insert_and_delete_survive_reopen() {
    let dir = temp_dir("mutate");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    let new_id = store.insert(Vector::new(vec![50.0, 50.0])).expect("insert");
    assert_eq!(new_id, ObjectId(30));
    store.delete(ObjectId(7)).expect("delete");
    assert_eq!(store.store_stats().wal_appends, 2);
    assert_eq!(store.store_stats().page_rewrites, 2);
    let live_before = store.database().live_object_count();
    drop(store);

    let store = FilePageStore::open(&dir, VectorCodec, 4).expect("open");
    let db = store.database();
    assert_eq!(db.live_object_count(), live_before);
    assert_eq!(db.try_locate(ObjectId(7)), None, "tombstone persisted");
    assert_eq!(db.object(new_id).components(), &[50.0, 50.0]);
    // Recovery replayed both mutations, then checkpointed the segment.
    let stats = store.store_stats();
    assert_eq!(stats.recovery_replayed_records, 2);
    assert_eq!(stats.checkpoints, 1);
    assert_eq!(store.wal_bytes(), 8, "WAL truncated to its header");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_recovers_to_last_complete_record() {
    let dir = temp_dir("torn");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    store.insert(Vector::new(vec![20.0, 20.0])).expect("first");
    let wal_after_first = store.wal_bytes();
    store.insert(Vector::new(vec![21.0, 21.0])).expect("second");
    drop(store);

    // Simulated crash: the second append only partially reached the disk.
    let wal_path = dir.join(WAL_FILE);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.set_len(wal_after_first + 5).unwrap();
    drop(f);

    let store = FilePageStore::open(&dir, VectorCodec, 4).expect("recover");
    assert_eq!(store.store_stats().recovery_replayed_records, 1);
    let db = store.database();
    assert_eq!(db.object_count(), 31, "first insert survives");
    assert_eq!(db.object(ObjectId(30)).components(), &[20.0, 20.0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_checkpoint_rename_and_wal_truncate_recovers() {
    let dir = temp_dir("ckpt-window");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    store.insert(Vector::new(vec![20.0, 20.0])).expect("insert");
    store.delete(ObjectId(3)).expect("delete");
    let wal_image = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let before = answers_on(&store);
    store.checkpoint().expect("checkpoint");
    drop(store);

    // Simulated crash inside the checkpoint window: the fresh segment was
    // renamed into place, but the process died before the WAL truncation —
    // every record on disk is a stale duplicate of state the segment
    // already carries. Reopen must replay them idempotently, not fail.
    std::fs::write(dir.join(WAL_FILE), &wal_image).unwrap();

    let store = FilePageStore::open(&dir, VectorCodec, 4)
        .expect("reopen after a crash inside the checkpoint window");
    assert_eq!(store.store_stats().recovery_replayed_records, 2);
    assert_eq!(
        store.wal_bytes(),
        8,
        "checkpoint-on-open cleared the stale WAL"
    );
    let db = store.database();
    assert_eq!(db.try_locate(ObjectId(3)), None);
    assert_eq!(db.object(ObjectId(30)).components(), &[20.0, 20.0]);
    assert_eq!(answers_on(&store), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Creates a store of 30 objects, inserts one, then appends `record` to
/// its WAL as a CRC-valid record and reopens the store.
fn open_after_appending(
    tag: &str,
    record: mq_store::format::WalRecord<Vector>,
) -> Result<(), StoreError> {
    let dir = temp_dir(tag);
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    store.insert(Vector::new(vec![20.0, 20.0])).expect("insert");
    drop(store);
    let bytes = mq_store::format::encode_wal_record(&record, &VectorCodec);
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    std::io::Write::write_all(&mut wal, &bytes).unwrap();
    drop(wal);
    let opened = FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4).map(|_| ());
    std::fs::remove_dir_all(&dir).unwrap();
    opened
}

#[test]
fn tampered_wal_page_count_is_a_typed_error_not_an_allocation() {
    use mq_store::format::{WalRecord, OP_INSERT};
    // A CRC-valid record claiming a page far outside any segment one
    // append could have grown to: recovery must reject it (typed error)
    // instead of sizing the frame table to a million entries.
    let record = WalRecord {
        op: OP_INSERT,
        oid: ObjectId(31),
        page: PageId(1_000_000),
        page_count_after: 1_000_001,
        id_space_after: 32,
        records: vec![(ObjectId(31), Vector::new(vec![1.0, 1.0]))],
    };
    match open_after_appending("tampered-count", record) {
        Err(StoreError::Format(msg)) => assert!(msg.contains("page count"), "{msg}"),
        other => panic!("expected Format error, got {other:?}"),
    }
}

#[test]
fn tampered_wal_id_space_is_a_typed_error_not_an_allocation() {
    use mq_store::format::{WalRecord, OP_DELETE};
    // Each record adds at most one id, so a record claiming 4G ids must
    // not size the id directory.
    let record = WalRecord {
        op: OP_DELETE,
        oid: ObjectId(0),
        page: PageId(0),
        page_count_after: 1,
        id_space_after: u32::MAX,
        records: vec![],
    };
    match open_after_appending("tampered-ids", record) {
        Err(StoreError::Format(msg)) => assert!(msg.contains("id space"), "{msg}"),
        other => panic!("expected Format error, got {other:?}"),
    }
}

#[test]
fn segment_shorter_than_its_frame_count_is_a_typed_error_not_an_allocation() {
    let dir = temp_dir("short-segment");
    drop(FilePageStore::create(&dir, db(10), VectorCodec, 4).expect("create"));
    // A bare 36-byte header with a valid geometry claiming 4G frames: the
    // frame table must not be sized by the claim.
    let header = SegmentMeta {
        block_bytes: 128,
        record_header_bytes: 16,
        frame_bytes: 21,
        page_count: u32::MAX,
        id_space: 1,
        max_rec: 1,
        capacity: 1,
    }
    .encode_header();
    std::fs::write(dir.join(SEGMENT_FILE), header).unwrap();
    let loaded = mq_store::load::<Vector, _>(&dir, &VectorCodec).map(|_| ());
    let opened = FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4).map(|_| ());
    for result in [loaded, opened] {
        match result {
            Err(StoreError::Format(msg)) => assert!(msg.contains("claims"), "{msg}"),
            other => panic!("expected Format error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file in `dir` with its bytes.
fn snapshot(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn load_replays_the_wal_without_touching_the_directory() {
    let dir = temp_dir("load");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    let new_id = store.insert(Vector::new(vec![50.0, 50.0])).expect("insert");
    store.delete(ObjectId(7)).expect("delete");
    let want = answers_on(&store);
    // Loading needs no lock: a live writer does not stand in the way.
    let live = mq_store::load::<Vector, _>(&dir, &VectorCodec).expect("load beside a writer");
    assert_eq!(live.object_count(), 31);
    drop(store);

    let before = snapshot(&dir);
    let db: PagedDatabase<Vector> = mq_store::load(&dir, &VectorCodec).expect("load");
    assert_eq!(snapshot(&dir), before, "load wrote to the directory");
    assert!(!dir.join(LOCK_FILE).exists());
    assert_eq!(db.object(new_id).components(), &[50.0, 50.0]);
    assert_eq!(db.try_locate(ObjectId(7)), None);
    assert!(
        db.to_dataset().is_err(),
        "a deleted id has no dataset position"
    );
    assert_eq!(
        answers_on(&SimulatedDisk::with_buffer_pages(db, 4)),
        want,
        "the loaded database answers as the store did"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn load_beside_a_checkpointing_writer_sees_a_state_the_writer_had() {
    let dir = temp_dir("load-race");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let finished = done.load(Ordering::Relaxed);
            // This writer checkpoints after every insert, so a load may
            // meet a checkpoint on each of its reads and give up; any
            // other error is a load that mixed two states.
            let db: PagedDatabase<Vector> = match mq_store::load(&dir, &VectorCodec) {
                Ok(db) => db,
                Err(StoreError::Format(m)) if m.contains("was checkpointed during") => continue,
                Err(e) => panic!("load beside a writer: {e}"),
            };
            // Every state the writer passes through holds ids 0..n, and
            // inserted object i sits at (i, -1).
            assert_eq!(db.live_object_count(), db.object_count());
            for i in 30..db.object_count() as u32 {
                assert_eq!(db.object(ObjectId(i)).components(), &[i as f32, -1.0]);
            }
            if finished {
                break;
            }
        });
        for i in 30..230 {
            store
                .insert(Vector::new(vec![i as f32, -1.0]))
                .expect("insert");
            store.checkpoint().expect("checkpoint");
        }
        done.store(true, Ordering::Relaxed);
    });
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_opener_is_rejected_while_the_store_is_live() {
    let dir = temp_dir("locked");
    let store = FilePageStore::create(&dir, db(10), VectorCodec, 4).expect("create");
    match FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4) {
        Err(StoreError::Locked { holder, .. }) => assert_eq!(holder, std::process::id()),
        other => panic!("expected Locked, got {other:?}"),
    }
    drop(store);
    // The drop released the lock; the directory can be owned again.
    FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4).expect("reopen after release");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_lock_of_a_dead_process_is_stolen() {
    let dir = temp_dir("stale-lock");
    drop(FilePageStore::create(&dir, db(10), VectorCodec, 4).expect("create"));
    // A crashed owner leaves its lock file behind: a pid no live process
    // can hold (beyond any PID_MAX), and the garbage a crash mid-acquire
    // leaves. Both are stale and must be stolen, never fatal.
    for stale in ["4294967294", "not-a-pid", ""] {
        std::fs::write(dir.join(LOCK_FILE), stale).unwrap();
        let store = FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4)
            .unwrap_or_else(|e| panic!("stale lock '{stale}' must be stolen, got {e}"));
        drop(store);
        assert!(
            !dir.join(LOCK_FILE).exists(),
            "lock file must be removed on drop"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_frame_is_repaired_by_wal_post_image() {
    let dir = temp_dir("stale-frame");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    store.insert(Vector::new(vec![20.0, 20.0])).expect("insert");
    let (page, _) = store.database().locate(ObjectId(30));
    let offset = store.meta().frame_offset(page);
    let frame_bytes = store.meta().frame_bytes as usize;
    drop(store);

    // Simulated crash between the WAL fsync and the frame rewrite: smash
    // the frame the insert touched. The WAL post-image must repair it.
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(SEGMENT_FILE))
        .unwrap();
    use std::os::unix::fs::FileExt;
    f.write_all_at(&vec![0xAA; frame_bytes], offset).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let store = FilePageStore::open(&dir, VectorCodec, 4).expect("recover");
    assert_eq!(
        store.database().object(ObjectId(30)).components(),
        &[20.0, 20.0]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncovered_corrupt_frame_is_a_typed_error() {
    let dir = temp_dir("uncovered");
    let store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    let offset = store.meta().frame_offset(PageId(1));
    drop(store);

    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(SEGMENT_FILE))
        .unwrap();
    use std::os::unix::fs::FileExt;
    f.write_all_at(&[0xFF; 16], offset).unwrap();
    drop(f);

    match FilePageStore::<Vector, _>::open(&dir, VectorCodec, 4) {
        Err(StoreError::Corrupt { page: 1, .. }) => {}
        other => panic!("expected Corrupt {{ page: 1 }}, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_path_verifies_frames_against_online_rot() {
    let dir = temp_dir("rot");
    let store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    // Rot a frame behind the store's back.
    let offset = store.meta().frame_offset(PageId(2));
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(SEGMENT_FILE))
        .unwrap();
    use std::os::unix::fs::FileExt;
    f.write_all_at(&[0x55; 4], offset).unwrap();
    drop(f);

    match store.try_read_page(PageId(2)) {
        Err(mq_storage::DiskError::CorruptPage { page, .. }) => assert_eq!(page, PageId(2)),
        other => panic!("expected CorruptPage, got {other:?}"),
    }
    // Healthy pages still read, and the failed attempt cost no I/O counter.
    assert!(store.try_read_page(PageId(0)).is_ok());
    assert_eq!(store.stats().logical_reads, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_insert_is_rejected_before_any_write() {
    let dir = temp_dir("oversized");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    let wal = store.wal_bytes();
    let count = store.database().object_count();
    match store.insert(Vector::new(vec![1.0; 64])) {
        Err(StoreError::Oversized { .. }) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert_eq!(store.wal_bytes(), wal);
    assert_eq!(store.database().object_count(), count);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deleting_unknown_or_tombstoned_object_errors() {
    let dir = temp_dir("unknown");
    let mut store = FilePageStore::create(&dir, db(10), VectorCodec, 4).expect("create");
    assert!(matches!(
        store.delete(ObjectId(99)),
        Err(StoreError::UnknownObject(ObjectId(99)))
    ));
    store.delete(ObjectId(3)).expect("first delete");
    assert!(matches!(
        store.delete(ObjectId(3)),
        Err(StoreError::UnknownObject(ObjectId(3)))
    ));
    let dir = store.dir().to_path_buf();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_checkpoint_compacts_the_wal() {
    let dir = temp_dir("checkpoint");
    let mut store = FilePageStore::create(&dir, db(30), VectorCodec, 4).expect("create");
    for i in 0..5 {
        store
            .insert(Vector::new(vec![30.0 + i as f32, 0.0]))
            .unwrap();
    }
    assert!(store.wal_bytes() > 8);
    store.checkpoint().expect("checkpoint");
    assert_eq!(store.wal_bytes(), 8);
    assert_eq!(store.store_stats().checkpoints, 1);
    drop(store);
    // A post-checkpoint reopen replays nothing and keeps every insert.
    let store = FilePageStore::open(&dir, VectorCodec, 4).expect("open");
    assert_eq!(store.store_stats().recovery_replayed_records, 0);
    assert_eq!(store.database().object_count(), 35);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn insert_notifies_an_in_flight_session_without_restarting_it() {
    let dir = temp_dir("notify-insert");
    let mut store = FilePageStore::create(&dir, db(100), VectorCodec, 4).expect("create");
    let metric = CountingMetric::new(Euclidean);
    let query = Vector::new(vec![4.5, 4.5]);

    // Start a batch and complete the first query, leaving others pending.
    let index = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &index, metric.clone());
    let mut session = engine.new_session(vec![
        (query.clone(), QueryType::knn(4)),
        (Vector::new(vec![9.0, 0.0]), QueryType::knn(4)),
    ]);
    engine.complete_query(&mut session, 0);
    drop(engine);

    // Online insert of an exact duplicate of the first query point — it
    // must enter the already-completed query's answers via notification.
    let new_id = store.insert(Vector::new(vec![4.5, 4.5])).expect("insert");
    let index = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &index, metric.clone());
    let evaluated = engine.notify_insert(&mut session, new_id);
    assert!(evaluated >= 1);
    assert!(
        session.answers(0).ids().any(|id| id == new_id),
        "completed query must see the inserted exact match"
    );
    engine.run_to_completion(&mut session);

    // Oracle: a fresh run over the post-insert store agrees exactly.
    let oracle_engine = QueryEngine::new(&store, &index, metric);
    let oracle = oracle_engine.multiple_similarity_query(vec![
        (query, QueryType::knn(4)),
        (Vector::new(vec![9.0, 0.0]), QueryType::knn(4)),
    ]);
    let got: Vec<Vec<ObjectId>> = (0..2).map(|i| session.answers(i).ids().collect()).collect();
    let want: Vec<Vec<ObjectId>> = oracle
        .iter()
        .map(|l| l.iter().map(|a| a.id).collect())
        .collect();
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delete_invalidates_only_queries_holding_the_victim() {
    let dir = temp_dir("notify-delete");
    let mut store = FilePageStore::create(&dir, db(100), VectorCodec, 4).expect("create");
    let metric = CountingMetric::new(Euclidean);

    let index = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &index, metric.clone());
    // Query 0 sits at (0,0); query 1 far away at (9,9).
    let mut session = engine.new_session(vec![
        (Vector::new(vec![0.0, 0.0]), QueryType::knn(3)),
        (Vector::new(vec![9.0, 9.0]), QueryType::knn(3)),
    ]);
    engine.run_to_completion(&mut session);
    let victim = session.answers(0).ids().next().expect("nearest neighbor");
    assert!(!session.answers(1).ids().any(|id| id == victim));
    drop(engine);

    store.delete(victim).expect("delete");
    let index = LinearScan::new(store.database().page_count());
    let engine = QueryEngine::new(&store, &index, metric.clone());
    let invalidated = engine.notify_delete(&mut session, victim);
    assert_eq!(invalidated, 1, "only the query holding the victim resets");
    assert!(
        session.is_complete(1),
        "unaffected query keeps its progress"
    );
    engine.run_to_completion(&mut session);
    assert!(!session.answers(0).ids().any(|id| id == victim));

    // Oracle agreement on the post-delete store.
    let oracle = QueryEngine::new(&store, &index, metric).multiple_similarity_query(vec![
        (Vector::new(vec![0.0, 0.0]), QueryType::knn(3)),
        (Vector::new(vec![9.0, 9.0]), QueryType::knn(3)),
    ]);
    for (i, answers) in oracle.iter().enumerate() {
        let got: Vec<ObjectId> = session.answers(i).ids().collect();
        let want: Vec<ObjectId> = answers.iter().map(|a| a.id).collect();
        assert_eq!(got, want, "query {i}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_plans_inject_identically_through_the_file_backend() {
    let dir = temp_dir("faults");
    let store = FilePageStore::create(&dir, db(40), VectorCodec, 4).expect("create");
    let sim = SimulatedDisk::with_buffer_pages(db(40), 4);
    let plan = mq_storage::FaultPlan::new(77)
        .with_transient(0.5)
        .with_max_faults_per_page(1);
    store.set_fault_plan(Some(plan));
    sim.set_fault_plan(Some(plan));
    for i in 0..store.database().page_count() as u32 {
        let a = store.try_read_page(PageId(i)).is_ok();
        let b = sim.try_read_page(PageId(i)).is_ok();
        assert_eq!(a, b, "page {i}");
    }
    assert_eq!(store.fault_stats(), sim.fault_stats());
    assert_eq!(store.stats(), sim.stats());
    std::fs::remove_dir_all(&dir).unwrap();
}
