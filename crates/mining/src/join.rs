//! Similarity self-join: all pairs within distance ε.
//!
//! The ε-self-join `{(a, b) : a < b, dist(a, b) ≤ ε}` is the batch
//! formulation of "run one range query per database object" — the extreme
//! instance of the paper's multiple similarity query where *every* object
//! is a query object. It underlies DBSCAN's density estimates, duplicate
//! detection, and the neighborhood counting of association-rule mining.
//!
//! With single queries, the join costs `n` scans; with multiple queries in
//! blocks of `m`, the paper's machinery collapses this to `n/m` scans (or
//! shared index-page reads) with triangle-inequality avoidance across the
//! block.

use crate::explore::query_blocks;
use mq_core::{QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;

/// One join result pair, normalized to `first < second`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinPair {
    /// The smaller object id.
    pub first: ObjectId,
    /// The larger object id.
    pub second: ObjectId,
    /// Their distance (≤ ε).
    pub distance: f64,
}

/// Computes the ε-self-join of the engine's database with multiple range
/// queries in blocks of `batch_size`. Pairs are reported once
/// (`first < second`), sorted by `(first, second)`.
pub fn similarity_self_join<O, M>(
    engine: &QueryEngine<'_, O, M>,
    eps: f64,
    batch_size: usize,
) -> Vec<JoinPair>
where
    O: StorageObject,
    M: Metric<O>,
{
    assert!(eps >= 0.0, "epsilon must be non-negative");
    let n = engine.disk().database().object_count();
    let qtype = QueryType::range(eps);
    let mut pairs = Vec::new();
    let ids: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
    query_blocks(engine, &ids, qtype, Some(batch_size), |qid, list| {
        pairs.extend(list.iter().filter(|a| a.id > qid).map(|a| JoinPair {
            first: qid,
            second: a.id,
            distance: a.distance,
        }));
    });
    pairs.sort_by(|x, y| x.first.cmp(&y.first).then(x.second.cmp(&y.second)));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::{LinearScan, XTree, XTreeConfig};
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    fn points(n: usize, seed: u64) -> Vec<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vector::new(vec![(next() * 30.0) as f32, (next() * 30.0) as f32]))
            .collect()
    }

    fn brute_join(data: &[Vector], eps: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                if Euclidean.distance(&data[i], &data[j]) <= eps {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn join_matches_brute_force() {
        let data = points(150, 3);
        let ds = Dataset::new(data.clone());
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let eps = 2.0;
        let pairs = similarity_self_join(&engine, eps, 16);
        let got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.first.0, p.second.0)).collect();
        assert_eq!(got, brute_join(&data, eps));
        // Distances are correct and within eps.
        for p in &pairs {
            let d = Euclidean.distance(&data[p.first.index()], &data[p.second.index()]);
            assert!((p.distance - d).abs() < 1e-9);
            assert!(p.distance <= eps);
        }
    }

    #[test]
    fn join_is_batch_size_invariant() {
        let data = points(120, 5);
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig {
            layout: PageLayout::new(256, 16),
            ..Default::default()
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.1);
        let engine = QueryEngine::new(&disk, &tree, Euclidean);
        let a = similarity_self_join(&engine, 1.5, 1);
        let b = similarity_self_join(&engine, 1.5, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn batching_reduces_join_io() {
        let data = points(300, 7);
        let ds = Dataset::new(data);
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);

        disk.cold_restart();
        let _ = similarity_self_join(&engine, 1.0, 1);
        let single_io = disk.stats().logical_reads;

        disk.cold_restart();
        let _ = similarity_self_join(&engine, 1.0, 60);
        let multi_io = disk.stats().logical_reads;
        assert!(multi_io * 50 <= single_io, "{multi_io} vs {single_io}");
    }

    #[test]
    fn zero_eps_joins_only_duplicates() {
        let mut data = points(50, 9);
        data.push(data[7].clone()); // a duplicate
        let ds = Dataset::new(data);
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let pairs = similarity_self_join(&engine, 0.0, 8);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].first.0, pairs[0].second.0), (7, 50));
        assert_eq!(pairs[0].distance, 0.0);
    }
}
