//! `store_mixed` — writes beside reads on `mq_store::FilePageStore`, the
//! only layer that touches a real file: round after round of one `insert`,
//! one `delete` (each a WAL append + fsync + frame rewrite) and one block of
//! four k-NN queries through a `QueryEngine` over the store, whose buffer
//! holds 10 % of the pages so every scan misses into checksummed read-backs;
//! `checkpoint()` every 1 000 mutations; then drop, `open`, and replay the
//! WAL tail. The flush policy is the store's own: fsync per mutation. The
//! sandbox's fsync is not a device's; latencies here are the sandbox's.

use crate::harness::{
    histogram_split, insert_counts, median_setup, Avoidance, Outcome, RunConfig, Timed, Window,
    PLAIN_SHARE,
};
use crate::speed::{Probe, SpeedLog};
use crate::stats::{median, Fnv};
use crate::trace::{Decorators, LayerReading, Span};
use mq_core::{Answer, QueryEngine, QueryType};
use mq_index::LinearScan;
use mq_metric::{Euclidean, Metric, ObjectId, Vector};
use mq_storage::{Dataset, PageLayout, PageStore, PagedDatabase, VectorCodec};
use mq_store::{FilePageStore, SEGMENT_FILE, WAL_FILE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;

const OBJECTS: usize = 20_000;
const READ_BLOCK: usize = 4;
const K: usize = 10;
const QUERY_POOL: usize = 256;
const CHECKPOINT_EVERY: u64 = 1_000;
/// Rounds (of two mutations) from one checkpoint to the next: the slice
/// `ops_per_s` is cut along, so that every slice pays for one checkpoint and
/// a slower checkpoint lowers the median slice rate.
const ROUNDS_PER_CHECKPOINT: usize = CHECKPOINT_EVERY as usize / 2;
const WARMUP_ROUNDS: usize = 100;
/// Untimed rounds between the final checkpoint and the reopen.
const TAIL_ROUNDS: usize = 100;
/// The traced prefix whose counts must repeat exactly: 1 000 mutations, so
/// it ends on its one checkpoint.
const FIXED_ROUNDS: usize = 500;

type Store = FilePageStore<Vector, VectorCodec>;

fn buffer_pages(pages: usize) -> usize {
    (pages / 10).max(1)
}

/// The bench's own record of what the store must contain.
struct Ledger {
    /// Originals in the seeded order they will be deleted in.
    victims: Vec<ObjectId>,
    next_victim: usize,
    /// Inserted and not deleted: id → index into the insert material.
    kept: BTreeMap<ObjectId, usize>,
    deleted: Vec<ObjectId>,
    rounds: usize,
    mutations: u64,
    since_checkpoint: u64,
    wal_bytes: u64,
}

/// Every piece of work of a window, timed, by kind.
#[derive(Default)]
struct Times {
    inserts: Vec<Timed>,
    deletes: Vec<Timed>,
    reads: Vec<Timed>,
    checkpoints: Vec<Timed>,
    leaf: LayerReading,
}

fn wall_ns(pieces: &[Timed]) -> u64 {
    pieces.iter().map(Timed::wall_ns).sum()
}

fn wall_ms(pieces: &[Timed]) -> Vec<f64> {
    pieces.iter().map(|t| t.wall_ns() as f64 / 1e6).collect()
}

fn corrected_ms(pieces: &[Timed], speed: &SpeedLog) -> Vec<f64> {
    pieces.iter().map(|t| t.corrected_ns(speed) / 1e6).collect()
}

/// One round: insert, delete, read block, maybe checkpoint. Errors and wrong
/// reads count as failed operations.
fn round(
    store: &mut Store,
    ledger: &mut Ledger,
    material: &[Vector],
    queries: &[Vector],
    times: &mut Times,
    traced: Option<&Decorators>,
    out: &mut Outcome,
) {
    let r = ledger.rounds;
    ledger.rounds += 1;
    let wal_before = store.wal_bytes();

    let piece = r % material.len();
    let (inserted, insert) = Timed::of(|| store.insert(material[piece].clone()));
    // Even rounds delete an original, odd rounds the previous round's insert.
    let previous = ledger.kept.keys().next_back().copied();
    let victim = match previous {
        Some(id) if r % 2 == 1 => id,
        _ if ledger.next_victim < ledger.victims.len() => {
            ledger.next_victim += 1;
            ledger.victims[ledger.next_victim - 1]
        }
        _ => previous.expect("an insert precedes every delete"),
    };
    let (deleted, delete) = Timed::of(|| store.delete(victim));

    match inserted {
        Ok(id) => {
            ledger.kept.insert(id, piece);
        }
        Err(_) => out.failed += 1,
    }
    match deleted {
        Ok(_) => {
            if ledger.kept.remove(&victim).is_none() {
                ledger.deleted.push(victim);
            }
        }
        Err(_) => out.failed += 1,
    }
    ledger.mutations += 2;
    ledger.since_checkpoint += 2;
    ledger.wal_bytes += store.wal_bytes() - wal_before;
    times.inserts.push(insert);
    times.deletes.push(delete);

    let block: Vec<(Vector, QueryType)> = (0..READ_BLOCK)
        .map(|i| {
            (
                queries[(r * READ_BLOCK + i) % queries.len()].clone(),
                QueryType::knn(K),
            )
        })
        .collect();
    let scan = LinearScan::new(store.database().page_count());
    let before = traced.map(|d| d.clock.read());
    let (answers, read) = Timed::of(|| match traced {
        None => QueryEngine::new(&*store, &scan, Euclidean).multiple_similarity_query(block),
        Some(d) => d.with_engine(&*store, &scan, Euclidean, |engine| {
            engine.multiple_similarity_query(block)
        }),
    });
    let spent = traced
        .zip(before)
        .map(|(d, before)| d.clock.read() - before);
    if answers.iter().any(|a| a.len() != K) {
        out.failed += 1;
    }
    black_box(answers);
    times.reads.push(read);

    let mut checkpoint = None;
    if ledger.since_checkpoint >= CHECKPOINT_EVERY {
        let (done, timed) = Timed::of(|| store.checkpoint());
        out.failed += u64::from(done.is_err());
        ledger.since_checkpoint = 0;
        times.checkpoints.push(timed);
        checkpoint = Some(timed);
    }

    if let Some(spent) = spent {
        times.leaf += spent;
        let op = r as u64;
        let pieces = [
            ("store.insert", Some(insert)),
            ("store.delete", Some(delete)),
            ("store.checkpoint", checkpoint),
        ];
        for (name, timed) in pieces {
            if let Some(t) = timed {
                out.spans.push(Span {
                    name,
                    op,
                    parent: None,
                    start_ns: t.start_ns,
                    end_ns: t.end_ns,
                    busy_ns: t.wall_ns(),
                    calls: 1,
                });
            }
        }
        out.spans
            .push_op("core", op, read.start_ns, read.end_ns, spent);
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let probe = Probe::default();
    let (originals, material) = histogram_split(OBJECTS, cfg.seed);
    let root = crate::bench_dir().join("out").join(format!(
        "store_mixed-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    let builds = Cell::new(0u32);
    let dir_of = |n: u32| -> PathBuf { root.join(n.to_string()) };
    let (mut store, setup_s) = median_setup(&probe, || {
        // The previous build's store is dropped by now; its files can go.
        let _ = std::fs::remove_dir_all(dir_of(builds.get()));
        builds.set(builds.get() + 1);
        let db = PagedDatabase::pack(&Dataset::new(originals.clone()), PageLayout::PAPER);
        let buffer = buffer_pages(db.page_count());
        Store::create(dir_of(builds.get()), db, VectorCodec, buffer)
            .expect("a fresh directory under bench/out accepts a store")
    });
    let dir = dir_of(builds.get());

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x570E);
    let mut victims: Vec<ObjectId> = (0..OBJECTS as u32).map(ObjectId).collect();
    victims.shuffle(&mut rng);
    let queries: Vec<Vector> = victims[OBJECTS - QUERY_POOL..]
        .iter()
        .map(|id| originals[id.index()].clone())
        .collect();

    let mut fingerprint = Fnv::default();
    fingerprint.vectors(originals.iter().chain(&material));
    for id in &victims {
        fingerprint.u64(u64::from(id.0));
    }
    drop(originals);

    let mut out = Outcome {
        fingerprint: fingerprint.finish(),
        setup_s,
        ..Outcome::default()
    };
    let mut ledger = Ledger {
        victims,
        next_victim: 0,
        kept: BTreeMap::new(),
        deleted: Vec::new(),
        rounds: 0,
        mutations: 0,
        since_checkpoint: 0,
        wal_bytes: 0,
    };
    for _ in 0..WARMUP_ROUNDS {
        let mut warm = Times::default();
        round(
            &mut store,
            &mut ledger,
            &material,
            &queries,
            &mut warm,
            None,
            &mut out,
        );
    }

    let mut traced_rate = 0.0;
    if cfg.trace {
        let decorators = Decorators::default();
        let ops = (2 * FIXED_ROUNDS) as f64;
        let io = store.stats();
        let stats = store.store_stats();
        let wal = ledger.wal_bytes;
        let avoidance = Avoidance::read(&decorators.recorder);
        let mut fixed = Times::default();
        Window::run(0.0, FIXED_ROUNDS, &probe, |_| {
            let traced = Some(&decorators);
            round(
                &mut store,
                &mut ledger,
                &material,
                &queries,
                &mut fixed,
                traced,
                &mut out,
            );
        });
        insert_counts(&mut out.layers, fixed.leaf, store.stats() - io, ops);
        Avoidance::read(&decorators.recorder).insert_since(&avoidance, ops, &mut out.layers);
        out.layers.insert(
            "store.fsyncs_per_mutation",
            (store.store_stats().fsyncs - stats.fsyncs) as f64 / ops,
        );
        out.layers.insert(
            "store.wal_bytes_per_mutation",
            (ledger.wal_bytes - wal) as f64 / ops,
        );
        // Right after the prefix's checkpoint: what is on disk per byte of
        // live vector payload.
        let on_disk: u64 = [SEGMENT_FILE, WAL_FILE]
            .iter()
            .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
            .map(|m| m.len())
            .sum();
        let user_bytes = store.database().live_object_count() * 64 * std::mem::size_of::<f32>();
        out.layers.insert(
            "store.disk_bytes_per_user_byte",
            on_disk as f64 / user_bytes as f64,
        );

        let mut times = Times::default();
        let window = Window::run(cfg.seconds * (1.0 - PLAIN_SHARE), 0, &probe, |_| {
            let traced = Some(&decorators);
            round(
                &mut store,
                &mut ledger,
                &material,
                &queries,
                &mut times,
                traced,
                &mut out,
            );
        });
        // Shares of the time inside the rounds, as measured.
        let wall = window.wall_ns() as f64;
        let share = |ns: u64| ns as f64 / wall;
        let reading = wall_ns(&times.reads);
        let mutating =
            wall_ns(&times.inserts) + wall_ns(&times.deletes) + wall_ns(&times.checkpoints);
        out.layers
            .insert("metric.busy_share", share(times.leaf.metric_ns));
        out.layers
            .insert("index.busy_share", share(times.leaf.index_ns));
        out.layers
            .insert("storage.busy_share", share(times.leaf.storage_ns));
        out.layers.insert(
            "core.self_share",
            share(reading.saturating_sub(times.leaf.leaf_ns())),
        );
        out.layers.insert("store.mutation_share", share(mutating));
        out.layers.insert(
            "metric.ns_per_distance",
            times.leaf.metric_ns as f64 / times.leaf.distances as f64,
        );
        for (name, pieces) in [
            ("store.insert_ms_p50", &times.inserts),
            ("store.delete_ms_p50", &times.deletes),
            ("store.read_block_ms_p50", &times.reads),
            ("store.checkpoint_ms_p50", &times.checkpoints),
        ] {
            out.layers
                .insert(name, median(&corrected_ms(pieces, &window.speed)));
        }
        traced_rate = window.rate_in_slices_of(ROUNDS_PER_CHECKPOINT, 2.0);
    }

    let (seconds, min_units) = cfg.plain_window();
    let mut times = Times::default();
    let window = Window::run(seconds, min_units, &probe, |_| {
        round(
            &mut store,
            &mut ledger,
            &material,
            &queries,
            &mut times,
            None,
            &mut out,
        );
    });
    let ops_per_s = window.rate_in_slices_of(ROUNDS_PER_CHECKPOINT, 2.0);
    out.record_window(&window, 2.0, ops_per_s);
    out.latency_ms = corrected_ms(&times.inserts, &window.speed);
    out.latency_ms
        .extend(corrected_ms(&times.deletes, &window.speed));
    out.raw_latency_ms = wall_ms(&times.inserts);
    out.raw_latency_ms.extend(wall_ms(&times.deletes));
    if cfg.trace {
        out.layers
            .insert("trace.overhead_share", 1.0 - traced_rate / out.ops_per_s);
    }

    // Crash-free restart: drop, open, replay the WAL tail, and compare the
    // recovered store with the ledger. How much WAL a run that stops on the
    // clock leaves behind is chance, and `open` holds all of it in memory;
    // a checkpoint and a fixed number of rounds make the tail — and with it
    // the peak RSS — the same every run.
    out.failed += u64::from(store.checkpoint().is_err());
    ledger.since_checkpoint = 0;
    for _ in 0..TAIL_ROUNDS {
        let mut tail = Times::default();
        round(
            &mut store,
            &mut ledger,
            &material,
            &queries,
            &mut tail,
            None,
            &mut out,
        );
    }
    let pages = store.database().page_count();
    drop(store);
    let (reopened, reopen) = Timed::of(|| Store::open(&dir, VectorCodec, buffer_pages(pages)));
    let reopen_s = reopen.wall_ns() as f64 / 1e9;
    match reopened {
        Ok(store) => {
            let replayed = store.store_stats().recovery_replayed_records;
            if cfg.trace {
                out.layers.insert("store.reopen_s", reopen_s);
                out.layers.insert("store.replayed_records", replayed as f64);
            }
            out.failed += verify(&store, &ledger, &material, &queries, replayed, cfg.seed);
        }
        Err(_) => out.failed += ledger.mutations,
    }
    let _ = std::fs::remove_dir_all(&root);

    out.notes.push(format!(
        "{OBJECTS} image-histogram 64-d objects in a FilePageStore ({pages} pages at the end, \
         buffer 10 %), fsync per mutation (the sandbox's, not a device's), checkpoint every \
         {CHECKPOINT_EVERY} mutations; round = insert + delete + block of {READ_BLOCK} k-NN({K}); \
         op = one acknowledged mutation, latency sample = one mutation; {} rounds timed, \
         {} mutations in all, reopen {reopen_s:.3} s",
        window.units.len(),
        ledger.mutations,
    ));
    out
}

/// Checks the reopened store against the ledger; returns failed checks.
fn verify(
    store: &Store,
    ledger: &Ledger,
    material: &[Vector],
    queries: &[Vector],
    replayed: u64,
    seed: u64,
) -> u64 {
    let db = store.database();
    let mut failed = u64::from(replayed != ledger.since_checkpoint);
    for (id, piece) in &ledger.kept {
        failed += u64::from(db.try_object(*id) != Some(&material[*piece]));
    }
    for id in &ledger.deleted {
        failed += u64::from(db.try_object(*id).is_some());
    }

    // The logical dataset, rebuilt from the seed and the ledger alone.
    let (originals, _) = histogram_split(OBJECTS, seed);
    let gone: std::collections::HashSet<ObjectId> = ledger.deleted.iter().copied().collect();
    let live: Vec<(ObjectId, &Vector)> = originals
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u32), v))
        .filter(|(id, _)| !gone.contains(id))
        .chain(
            ledger
                .kept
                .iter()
                .map(|(id, piece)| (*id, &material[*piece])),
        )
        .collect();
    let scan = LinearScan::new(db.page_count());
    let engine = QueryEngine::new(store, &scan, Euclidean);
    let block: Vec<(Vector, QueryType)> = queries[..READ_BLOCK]
        .iter()
        .map(|q| (q.clone(), QueryType::knn(K)))
        .collect();
    for ((q, _), got) in block
        .iter()
        .zip(engine.multiple_similarity_query(block.clone()))
    {
        let mut expected: Vec<Answer> = live
            .iter()
            .map(|(id, v)| Answer {
                id: *id,
                distance: Euclidean.distance(q, v),
            })
            .collect();
        expected.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        expected.truncate(K);
        failed += u64::from(got != expected);
    }
    failed
}
