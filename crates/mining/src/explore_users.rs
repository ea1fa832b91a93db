//! The §6 manual-data-exploration workload.
//!
//! *"We randomly selected a first query object for each of the users and
//! performed a k-nearest neighbor query for each of them obtaining a total
//! of c × k answers. Then we performed the following loop. While each of
//! the hypothetic users chose one from his k current answers, for each of
//! the current answers we prefetched their k-nearest neighbors. After
//! restricting the set of answers to the answers of the objects chosen by
//! the users, we continued the loop with these new query objects."*
//!
//! The workload is a *trace* of query batches: each round issues
//! `m = c × k` highly dependent k-NN queries. Because query answers do not
//! depend on the execution mode, the trace is generated once
//! ([`exploration_trace`]) and then replayed in single-query mode
//! ([`replay_single`]) or multiple-query mode ([`replay_multiple`]) for an
//! apples-to-apples cost comparison.

use crate::explore::query_blocks;
use mq_core::{QueryEngine, QueryType};
use mq_datagen::ExplorationConfig;
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates the exploration trace: one `Vec<ObjectId>` of query objects
/// per round (round 0 holds the `c` user start objects; later rounds hold
/// `m = c × k` prefetch queries each).
pub fn exploration_trace<O, M>(
    engine: &QueryEngine<'_, O, M>,
    cfg: &ExplorationConfig,
) -> Vec<Vec<ObjectId>>
where
    O: StorageObject,
    M: Metric<O>,
{
    assert!(
        cfg.users > 0 && cfg.k > 0,
        "need at least one user and one neighbor"
    );
    let n = engine.disk().database().object_count();
    assert!(n > 0, "empty database");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let qtype = QueryType::knn(cfg.k);

    // Round 0: one random start object per user.
    let mut current: Vec<Vec<ObjectId>> = (0..cfg.users)
        .map(|_| vec![ObjectId(rng.random_range(0..n as u32))])
        .collect();
    let mut trace = vec![current.iter().flatten().copied().collect::<Vec<_>>()];

    for _ in 0..cfg.rounds {
        // Prefetch the k-NN of every current answer of every user; each
        // user then picks one answer and continues with its neighbors.
        let mut next_current = Vec::with_capacity(cfg.users);
        let mut round_queries = Vec::new();
        for user_answers in &current {
            let chosen = user_answers[rng.random_range(0..user_answers.len())];
            let mut chosen_neighbors = Vec::new();
            query_blocks(engine, user_answers, qtype, None, |q, answers| {
                round_queries.push(q);
                if q == chosen {
                    chosen_neighbors = answers.iter().map(|a| a.id).collect();
                }
            });
            next_current.push(chosen_neighbors);
        }
        trace.push(round_queries);
        current = next_current;
    }
    trace
}

/// Replays a trace with single similarity queries; returns the number of
/// queries issued.
pub fn replay_single<O, M>(
    engine: &QueryEngine<'_, O, M>,
    trace: &[Vec<ObjectId>],
    k: usize,
) -> usize
where
    O: StorageObject,
    M: Metric<O>,
{
    let ids = trace.concat();
    query_blocks(engine, &ids, QueryType::knn(k), None, |_, _| {});
    ids.len()
}

/// Replays a trace with one multiple similarity query per round (each
/// round's `m = c × k` queries form one batch, as in §6); returns the
/// number of queries issued.
pub fn replay_multiple<O, M>(
    engine: &QueryEngine<'_, O, M>,
    trace: &[Vec<ObjectId>],
    k: usize,
) -> usize
where
    O: StorageObject,
    M: Metric<O>,
{
    for round in trace {
        query_blocks(
            engine,
            round,
            QueryType::knn(k),
            Some(round.len().max(1)),
            |_, _| {},
        );
    }
    trace.iter().map(Vec::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    fn clustered_db() -> Dataset<Vector> {
        let mut pts = Vec::new();
        for c in 0..5 {
            for i in 0..30 {
                pts.push(Vector::new(vec![
                    c as f32 * 100.0 + (i % 6) as f32,
                    (i / 6) as f32,
                ]));
            }
        }
        Dataset::new(pts)
    }

    #[test]
    fn trace_shape_matches_config() {
        let ds = clustered_db();
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let cfg = ExplorationConfig {
            users: 3,
            k: 4,
            rounds: 2,
            seed: 7,
        };
        let trace = exploration_trace(&engine, &cfg);
        assert_eq!(trace.len(), 3, "start round + 2 loop rounds");
        assert_eq!(trace[0].len(), 3, "one start object per user");
        assert_eq!(trace[1].len(), 3, "round 1 queries the 3 start objects");
        assert_eq!(trace[2].len(), 3 * 4, "round 2 issues m = c*k queries");
    }

    #[test]
    fn trace_is_reproducible() {
        let ds = clustered_db();
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let cfg = ExplorationConfig {
            users: 2,
            k: 3,
            rounds: 2,
            seed: 11,
        };
        assert_eq!(
            exploration_trace(&engine, &cfg),
            exploration_trace(&engine, &cfg)
        );
    }

    #[test]
    fn queries_are_spatially_dependent() {
        // All queries of one user in one round are k-NN answers of one
        // object, i.e. close together — the multiple-query sweet spot.
        let ds = clustered_db();
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let cfg = ExplorationConfig {
            users: 1,
            k: 5,
            rounds: 2,
            seed: 13,
        };
        let trace = exploration_trace(&engine, &cfg);
        let last = &trace[2];
        assert_eq!(last.len(), 5);
        // All five prefetch queries fall into one 100-wide cluster.
        let cluster = |id: ObjectId| (ds.object(id).components()[0] / 100.0).round() as i32;
        let c0 = cluster(last[0]);
        assert!(last.iter().all(|&id| cluster(id) == c0));
    }

    #[test]
    fn multiple_replay_reads_fewer_pages_than_single() {
        let ds = clustered_db();
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let cfg = ExplorationConfig {
            users: 3,
            k: 5,
            rounds: 2,
            seed: 17,
        };
        let trace = exploration_trace(&engine, &cfg);

        disk.reset_stats();
        let n_single = replay_single(&engine, &trace, cfg.k);
        let single_io = disk.stats().logical_reads;

        disk.reset_stats();
        let n_multi = replay_multiple(&engine, &trace, cfg.k);
        let multi_io = disk.stats().logical_reads;

        assert_eq!(n_single, n_multi);
        assert!(multi_io < single_io, "{multi_io} vs {single_io}");
    }
}
