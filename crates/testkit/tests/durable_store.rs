//! Fault-matrix extension to the durable file backend.
//!
//! Three claims, all seed-reproducible:
//!
//! 1. the file-backed store is **report-identical** to the in-memory
//!    backend across the whole engine-configuration matrix — answers,
//!    avoidance counters, every I/O counter — with and without injected
//!    faults;
//! 2. a WAL torn mid-record recovers to the last complete record;
//! 3. a crash after *any* number of WAL appends (kill-after-N) recovers
//!    to exactly the state a clean store reaches by applying the same
//!    first N operations — verified object-by-object and answer-by-answer.

use mq_metric::{ObjectId, Symbols};
use mq_storage::PageStore;
use mq_store::{FilePageStore, SEGMENT_FILE, WAL_FILE};
use mq_testkit::{config_matrix, scenario, Sim};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh per-test scratch directory.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mq-testkit-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn file_backend_is_report_identical_without_faults() {
    let dir = temp_dir("clean");
    Sim::new(21).assert_backend_equivalence(&dir, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_injects_disk_faults_identically() {
    let dir = temp_dir("faulty");
    Sim::new(22)
        .with_plan(scenario::disk_plan(22))
        .assert_backend_equivalence(&dir, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_injects_latency_faults_identically() {
    let dir = temp_dir("latency");
    Sim::new(23)
        .with_plan(scenario::latency_plan(23))
        .assert_backend_equivalence(&dir, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The mutation sequence of the recovery sweeps: duplicate-inserts and
/// deletes interleaved, all guaranteed to fit the store's geometry
/// (duplicates reuse stored records, deletes only touch live ids).
fn apply_ops(
    store: &mut FilePageStore<Symbols, mq_storage::SymbolsCodec>,
    sessions: &[Symbols],
    count: usize,
) -> Vec<u64> {
    let mut wal_offsets = vec![store.wal_bytes()];
    for (i, session) in sessions.iter().enumerate().take(count) {
        if i % 2 == 0 {
            store.insert(session.clone()).expect("insert duplicate");
        } else {
            store.delete(ObjectId(i as u32)).expect("delete live id");
        }
        wal_offsets.push(store.wal_bytes());
    }
    wal_offsets
}

/// Asserts two stores hold the same logical database, id by id.
fn assert_same_database(
    a: &FilePageStore<Symbols, mq_storage::SymbolsCodec>,
    b: &FilePageStore<Symbols, mq_storage::SymbolsCodec>,
    context: &str,
) {
    let (da, db) = (a.database(), b.database());
    assert_eq!(da.object_count(), db.object_count(), "{context}: id space");
    assert_eq!(
        da.live_object_count(),
        db.live_object_count(),
        "{context}: live objects"
    );
    for id in 0..da.object_count() as u32 {
        assert_eq!(
            da.try_object(ObjectId(id)),
            db.try_object(ObjectId(id)),
            "{context}: object {id}"
        );
    }
}

/// Builds a crashed store directory: the first `n` operations applied
/// fully, then `tail` extra bytes appended to the WAL *without* their
/// frame rewrite — the state a kill -9 leaves when it lands between the
/// WAL `fsync` and the segment `pwrite` (full record appended) or during
/// the append itself (partial record). The durable-WAL write ordering
/// makes these the only reachable crash states beyond a clean prefix.
fn crashed_dir(sim: &Sim, sessions: &[Symbols], n: usize, tail: &[u8]) -> PathBuf {
    use std::io::Write;
    let dir = temp_dir("crash");
    let mut store = sim.open_or_create_store(&dir);
    apply_ops(&mut store, sessions, n);
    drop(store);
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .expect("open WAL for crash tail");
    wal.write_all(tail).expect("append crash tail");
    drop(wal);
    dir
}

#[test]
fn kill_after_n_appends_recovers_to_the_clean_twin() {
    let sim = Sim::new(33);
    let (sessions, _) = sim.workload();
    const OPS: usize = 6;

    // Probe run: WAL offsets after every append, plus the full WAL bytes
    // (deterministic — asserted below), so any record's exact on-disk
    // encoding can be replayed into a crash scenario.
    let probe_dir = temp_dir("wal-offsets");
    let (offsets, wal_image) = {
        let mut store = sim.open_or_create_store(&probe_dir);
        let offsets = apply_ops(&mut store, &sessions, OPS);
        drop(store);
        let image = std::fs::read(probe_dir.join(WAL_FILE)).expect("read probe WAL");
        (offsets, image)
    };
    {
        let verify_dir = temp_dir("wal-determinism");
        let mut store = sim.open_or_create_store(&verify_dir);
        assert_eq!(
            apply_ops(&mut store, &sessions, OPS),
            offsets,
            "WAL layout must be deterministic"
        );
        std::fs::remove_dir_all(&verify_dir).ok();
    }

    let config = config_matrix(0)[0];
    for n in 0..OPS {
        let record = &wal_image[offsets[n] as usize..offsets[n + 1] as usize];
        // Two reachable crash states at the append boundary: record n+1
        // fully fsync'd but its frame write lost (replays n+1), and
        // record n+1 torn mid-append (replays n).
        for (case, tail, survives) in [
            ("frame write lost", record, n + 1),
            ("torn tail", &record[..record.len() / 2], n),
        ] {
            let crash_dir = crashed_dir(&sim, &sessions, n, tail);
            let clean_dir = temp_dir("clean-twin");
            let mut clean = sim.open_or_create_store(&clean_dir);
            apply_ops(&mut clean, &sessions, survives);
            drop(clean);

            let recovered = sim.open_or_create_store(&crash_dir);
            assert_eq!(
                recovered.store_stats().recovery_replayed_records,
                survives as u64,
                "kill after {n} appends ({case}) must replay {survives} records"
            );
            let clean = sim.open_or_create_store(&clean_dir);
            assert_same_database(
                &recovered,
                &clean,
                &format!("kill after {n} appends ({case})"),
            );
            drop((recovered, clean));

            // The recovered store must answer queries exactly like the
            // twin that never crashed.
            let crashed_report = sim.run_file(config, &crash_dir);
            let clean_report = sim.run_file(config, &clean_dir);
            assert_eq!(
                crashed_report.answers, clean_report.answers,
                "kill after {n} appends ({case}): answers diverged from the clean twin"
            );
            assert_eq!(
                crashed_report.io, clean_report.io,
                "kill after {n} appends ({case}): I/O counters diverged from the clean twin"
            );

            for dir in [&crash_dir, &clean_dir] {
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }
    std::fs::remove_dir_all(&probe_dir).ok();
}

#[test]
fn crash_inside_the_checkpoint_window_reopens_with_the_stale_wal() {
    let sim = Sim::new(55);
    let (sessions, _) = sim.workload();
    const OPS: usize = 4;

    let crash_dir = temp_dir("ckpt-window");
    let mut store = sim.open_or_create_store(&crash_dir);
    apply_ops(&mut store, &sessions, OPS);
    let wal_image = std::fs::read(crash_dir.join(WAL_FILE)).expect("pre-checkpoint WAL");
    store.checkpoint().expect("checkpoint");
    drop(store);
    // Kill between the checkpoint's segment rename and its WAL
    // truncation: the fresh segment sits alongside the full
    // pre-checkpoint WAL, whose records are stale duplicates of state
    // the segment already carries.
    std::fs::write(crash_dir.join(WAL_FILE), &wal_image).expect("restore stale WAL");

    let clean_dir = temp_dir("ckpt-clean");
    let mut clean = sim.open_or_create_store(&clean_dir);
    apply_ops(&mut clean, &sessions, OPS);
    drop(clean);

    let recovered = sim.open_or_create_store(&crash_dir);
    assert_eq!(
        recovered.store_stats().recovery_replayed_records,
        OPS as u64,
        "every stale record replays idempotently"
    );
    assert_eq!(
        recovered.wal_bytes(),
        8,
        "checkpoint-on-open empties the WAL"
    );
    let clean = sim.open_or_create_store(&clean_dir);
    assert_same_database(&recovered, &clean, "checkpoint-window crash");
    drop((recovered, clean));

    let config = config_matrix(0)[0];
    assert_eq!(
        sim.run_file(config, &crash_dir).answers,
        sim.run_file(config, &clean_dir).answers,
        "checkpoint-window crash: answers diverged from the clean twin"
    );
    for dir in [&crash_dir, &clean_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn torn_wal_tail_is_discarded_and_checkpointed_away() {
    let sim = Sim::new(44);
    let (sessions, _) = sim.workload();
    const OPS: usize = 4;

    let probe_dir = temp_dir("torn-probe");
    let (offsets, wal_image) = {
        let mut store = sim.open_or_create_store(&probe_dir);
        let offsets = apply_ops(&mut store, &sessions, OPS);
        drop(store);
        let image = std::fs::read(probe_dir.join(WAL_FILE)).expect("read probe WAL");
        (offsets, image)
    };

    for n in 0..OPS {
        let record = &wal_image[offsets[n] as usize..offsets[n + 1] as usize];
        // Tear at every interesting point of record n+1: inside the
        // length prefix, inside the checksum, and inside the payload.
        for cut in [1usize, 6, record.len() - 1] {
            let crash_dir = crashed_dir(&sim, &sessions, n, &record[..cut.min(record.len())]);
            let recovered = sim.open_or_create_store(&crash_dir);
            assert_eq!(
                recovered.store_stats().recovery_replayed_records,
                n as u64,
                "record {} torn at byte {cut}: must replay only the {n} complete records",
                n + 1
            );
            // Recovery checkpointed: the torn tail is gone for good and
            // the segment alone carries the state.
            assert_eq!(recovered.wal_bytes(), 8, "checkpoint must empty the WAL");
            assert!(crash_dir.join(SEGMENT_FILE).exists());
            assert_eq!(
                recovered.database().live_object_count(),
                sim.database().object_count() + n.div_ceil(2) - n / 2,
                "record {} torn at byte {cut}: live count must match the {n}-op prefix",
                n + 1
            );
            drop(recovered);
            std::fs::remove_dir_all(&crash_dir).ok();
        }
    }
    std::fs::remove_dir_all(&probe_dir).ok();
}
