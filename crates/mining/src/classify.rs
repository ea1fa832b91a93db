//! Simultaneous k-NN classification of a set of objects (§3.2, §6).
//!
//! The astronomy use case: all stars newly observed during the night are
//! classified the next day by issuing one k-NN query each and taking the
//! majority class of the neighbors — an `ExploreNeighborhoods` instance
//! with an empty `filter` (no new query objects are generated), i.e. the
//! *independent*-queries extreme of the paper's evaluation.

use crate::explore::query_blocks;
use mq_core::{Answer, QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;

/// Majority class among the neighbors, excluding the query object itself
/// (objects being classified already sit in the database in our setup, so
/// their self-match at distance 0 must not vote). Ties break toward the
/// smaller class id for determinism.
fn majority_class(query: ObjectId, answers: &[Answer], labels: &[usize], k: usize) -> usize {
    let mut votes: Vec<(usize, usize)> = Vec::new(); // (class, count)
    for a in answers.iter().filter(|a| a.id != query).take(k) {
        let class = labels[a.id.index()];
        match votes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, n)) => *n += 1,
            None => votes.push((class, 1)),
        }
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Classifies `query_ids` with single k-NN queries (the baseline).
pub fn classify_single<O, M>(
    engine: &QueryEngine<'_, O, M>,
    labels: &[usize],
    query_ids: &[ObjectId],
    k: usize,
) -> Vec<usize>
where
    O: StorageObject,
    M: Metric<O>,
{
    classify(engine, labels, query_ids, k, None)
}

/// Classifies `query_ids` with multiple k-NN queries in blocks of
/// `batch_size` — the paper's simultaneous classification.
pub fn classify_batch<O, M>(
    engine: &QueryEngine<'_, O, M>,
    labels: &[usize],
    query_ids: &[ObjectId],
    k: usize,
    batch_size: usize,
) -> Vec<usize>
where
    O: StorageObject,
    M: Metric<O>,
{
    classify(engine, labels, query_ids, k, Some(batch_size))
}

fn classify<O, M>(
    engine: &QueryEngine<'_, O, M>,
    labels: &[usize],
    query_ids: &[ObjectId],
    k: usize,
    batch: Option<usize>,
) -> Vec<usize>
where
    O: StorageObject,
    M: Metric<O>,
{
    // k + 1 neighbors so the self-match can be discarded.
    let qtype = QueryType::knn(k + 1);
    let mut out = Vec::with_capacity(query_ids.len());
    query_blocks(engine, query_ids, qtype, batch, |id, answers| {
        out.push(majority_class(id, answers, labels, k));
    });
    out
}

/// Fraction of predictions matching the ground-truth labels.
pub fn classification_accuracy(
    predicted: &[usize],
    query_ids: &[ObjectId],
    labels: &[usize],
) -> f64 {
    assert_eq!(
        predicted.len(),
        query_ids.len(),
        "prediction/query length mismatch"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(query_ids)
        .filter(|(p, id)| **p == labels[id.index()])
        .count();
    hits as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    /// Two well-separated class blobs.
    fn labeled_blobs() -> (Dataset<Vector>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            pts.push(Vector::new(vec![
                (i % 5) as f32 * 0.3,
                (i / 5) as f32 * 0.3,
            ]));
            labels.push(0);
        }
        for i in 0..20 {
            pts.push(Vector::new(vec![
                50.0 + (i % 5) as f32 * 0.3,
                (i / 5) as f32 * 0.3,
            ]));
            labels.push(1);
        }
        (Dataset::new(pts), labels)
    }

    fn make_engine(ds: &Dataset<Vector>) -> (PagedDatabase<Vector>, usize) {
        let db = PagedDatabase::pack(ds, PageLayout::new(160, 16));
        let pages = db.page_count();
        (db, pages)
    }

    #[test]
    fn perfect_accuracy_on_separated_blobs() {
        let (ds, labels) = labeled_blobs();
        let (db, pages) = make_engine(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let queries: Vec<ObjectId> = (0..40u32).step_by(3).map(ObjectId).collect();
        let predicted = classify_single(&engine, &labels, &queries, 5);
        assert!((classification_accuracy(&predicted, &queries, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_and_single_agree() {
        let (ds, labels) = labeled_blobs();
        let (db, pages) = make_engine(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let queries: Vec<ObjectId> = (0..40u32).map(ObjectId).collect();
        let single = classify_single(&engine, &labels, &queries, 3);
        for batch in [1, 7, 40] {
            let multi = classify_batch(&engine, &labels, &queries, 3, batch);
            assert_eq!(multi, single, "batch size {batch}");
        }
    }

    #[test]
    fn batching_reduces_io() {
        let (ds, labels) = labeled_blobs();
        let (db, pages) = make_engine(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let queries: Vec<ObjectId> = (0..40u32).map(ObjectId).collect();

        disk.reset_stats();
        let _ = classify_single(&engine, &labels, &queries, 3);
        let single_io = disk.stats().logical_reads;

        disk.reset_stats();
        let _ = classify_batch(&engine, &labels, &queries, 3, 40);
        let multi_io = disk.stats().logical_reads;

        assert_eq!(multi_io * 40, single_io, "one scan instead of 40");
    }

    #[test]
    fn self_match_does_not_vote() {
        // A single alien object inside a foreign blob must be out-voted by
        // its neighbors even though it is its own nearest neighbor.
        let mut pts: Vec<Vector> = (0..10).map(|i| Vector::new(vec![i as f32 * 0.1])).collect();
        let mut labels = vec![0usize; 10];
        pts.push(Vector::new(vec![0.45]));
        labels.push(1); // the alien
        let ds = Dataset::new(pts);
        let (db, pages) = make_engine(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let predicted = classify_single(&engine, &labels, &[ObjectId(10)], 5);
        assert_eq!(predicted, vec![0], "alien classified by its neighbors");
    }

    #[test]
    fn accuracy_helper_edge_cases() {
        assert_eq!(classification_accuracy(&[], &[], &[]), 0.0);
        let labels = vec![1usize, 0];
        let acc = classification_accuracy(&[1, 1], &[ObjectId(0), ObjectId(1)], &labels);
        assert!((acc - 0.5).abs() < 1e-12);
    }
}
