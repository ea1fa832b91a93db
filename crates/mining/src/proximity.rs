//! Proximity analysis (Knorr & Ng, TKDE'96; paper ref. \[17\]).
//!
//! *"The goal of proximity analysis is to explain the existence of some
//! cluster of objects by using the features of neighboring objects"*: first
//! find the top-k non-member objects closest to the cluster, then extract
//! the features most of them share. In the `ExploreNeighborhoods` scheme,
//! `StartObjects` is the cluster, `proc_2` aggregates neighbor features and
//! `filter` returns nothing (no new query objects).
//!
//! Aggregate proximity of an object to a cluster is its minimum distance to
//! any member; the top-k such objects are found with one multiple k-NN
//! query over all members.

use crate::explore::query_blocks;
use mq_core::{QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId, Vector};
use mq_storage::StorageObject;
use std::collections::HashMap;

/// A non-member object and its aggregate (minimum) distance to the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProximateObject {
    /// The neighboring object.
    pub id: ObjectId,
    /// `min over members of dist(member, object)`.
    pub distance: f64,
}

/// Finds the `k` non-member objects closest to the cluster, using one
/// multiple k-NN query over all cluster members (batched by `batch_size`).
///
/// Each member queries for `k + |cluster|` neighbors so that, even if all
/// members are mutual nearest neighbors, `k` non-members remain — this
/// guarantees exactness whenever the cluster's `k`-th closest outsider is
/// among some member's neighbors, which holds because aggregate distance is
/// a minimum over members.
pub fn top_k_proximate<O, M>(
    engine: &QueryEngine<'_, O, M>,
    cluster: &[ObjectId],
    k: usize,
    batch_size: usize,
) -> Vec<ProximateObject>
where
    O: StorageObject,
    M: Metric<O>,
{
    assert!(!cluster.is_empty(), "cluster must be non-empty");
    assert!(k > 0, "k must be positive");
    let member: std::collections::HashSet<ObjectId> = cluster.iter().copied().collect();
    let qtype = QueryType::knn(k + cluster.len());

    let mut best: HashMap<ObjectId, f64> = HashMap::new();
    query_blocks(engine, cluster, qtype, Some(batch_size), |_, answers| {
        for a in answers.iter().filter(|a| !member.contains(&a.id)) {
            let entry = best.entry(a.id).or_insert(f64::INFINITY);
            if a.distance < *entry {
                *entry = a.distance;
            }
        }
    });
    let mut out: Vec<ProximateObject> = best
        .into_iter()
        .map(|(id, distance)| ProximateObject { id, distance })
        .collect();
    out.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    out.truncate(k);
    out
}

/// A feature (dimension) most of the top-k neighbors agree on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommonFeature {
    /// The dimension index.
    pub dimension: usize,
    /// Mean value of the dimension over the neighbor set.
    pub mean: f64,
    /// Standard deviation over the neighbor set.
    pub std_dev: f64,
}

/// Extracts the `top` dimensions with the lowest relative spread among the
/// given objects — the "features that are common to most of them" of \[17\].
pub fn common_features(objects: &[&Vector], top: usize) -> Vec<CommonFeature> {
    assert!(!objects.is_empty(), "need at least one object");
    let dim = objects[0].dim();
    let n = objects.len() as f64;
    let mut features = Vec::with_capacity(dim);
    for d in 0..dim {
        let mean: f64 = objects
            .iter()
            .map(|o| o.components()[d] as f64)
            .sum::<f64>()
            / n;
        let var: f64 = objects
            .iter()
            .map(|o| {
                let x = o.components()[d] as f64 - mean;
                x * x
            })
            .sum::<f64>()
            / n;
        features.push(CommonFeature {
            dimension: d,
            mean,
            std_dev: var.sqrt(),
        });
    }
    features.sort_by(|a, b| {
        // Low spread relative to magnitude = most "common" feature.
        let ka = a.std_dev / (a.mean.abs() + 1e-9);
        let kb = b.std_dev / (b.mean.abs() + 1e-9);
        ka.partial_cmp(&kb)
            .unwrap()
            .then(a.dimension.cmp(&b.dimension))
    });
    features.truncate(top);
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::Euclidean;
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    /// Cluster at the origin; a ring of outsiders at increasing distances.
    fn setup() -> (Dataset<Vector>, Vec<ObjectId>) {
        let mut pts = Vec::new();
        for i in 0..6 {
            pts.push(Vector::new(vec![
                (i % 3) as f32 * 0.1,
                (i / 3) as f32 * 0.1,
            ]));
        }
        // Outsiders at x = 2, 3, 4, ... (ids 6..12).
        for i in 0..6 {
            pts.push(Vector::new(vec![2.0 + i as f32, 0.0]));
        }
        let cluster = (0..6u32).map(ObjectId).collect();
        (Dataset::new(pts), cluster)
    }

    #[test]
    fn finds_nearest_outsiders_in_order() {
        let (ds, cluster) = setup();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let top = top_k_proximate(&engine, &cluster, 3, 8);
        let ids: Vec<u32> = top.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![6, 7, 8]);
        assert!(top[0].distance < top[1].distance);
        assert!(top[1].distance < top[2].distance);
        // Aggregate distance is to the *nearest* member (0.2, 0).
        assert!((top[0].distance - 1.8).abs() < 1e-5, "{}", top[0].distance);
    }

    #[test]
    fn members_never_appear() {
        let (ds, cluster) = setup();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let top = top_k_proximate(&engine, &cluster, 6, 3);
        assert!(top.iter().all(|p| p.id.index() >= 6));
    }

    #[test]
    fn common_features_ranks_stable_dimension_first() {
        // Dimension 1 is constant (5.0); dimension 0 varies wildly.
        let vs: Vec<Vector> = (0..5)
            .map(|i| Vector::new(vec![i as f32 * 10.0, 5.0]))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let feats = common_features(&refs, 1);
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].dimension, 1);
        assert!((feats[0].mean - 5.0).abs() < 1e-9);
        assert!(feats[0].std_dev < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cluster must be non-empty")]
    fn empty_cluster_rejected() {
        let (ds, _) = setup();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let _ = top_k_proximate(&engine, &[], 3, 8);
    }
}
