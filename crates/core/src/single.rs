//! The single-similarity-query algorithm of Fig. 1.
//!
//! One unified loop answers any query type over any access method:
//!
//! ```text
//! DB::similarity_query(object Q; type T)
//!   Answers := initialize_answer_list();
//!   determine_relevant_data_pages(Q, T);          // index.plan(Q)
//!   QueryDist := T.Range;
//!   while Self.unprocessed_pages() do             // plan.next(QueryDist)
//!     NextPage := read_next_page_from_disk();     // disk.read_page
//!     for each object O in NextPage do
//!       Distance := dist(O, Q);
//!       if Distance ≤ QueryDist then
//!         Answers.insert(O);                      // ascending by distance
//!         if Answers.cardinality() > T.Cardinality then
//!           Answers.remove_last_element();
//!         QueryDist := adapt_query_dist(...);     // answers.query_dist(T)
//!     Self.prune_pages(QueryDist);                // next(QueryDist) skips
//!   return Answers;
//! ```

use crate::answers::{Answer, AnswerList};
use crate::fault::{self, EngineError, FaultPolicy};
use crate::query::QueryType;
use mq_index::SimilarityIndex;
use mq_metric::Metric;
use mq_storage::{PageStore, StorageObject};

/// How many records ahead of the one it computes a bounded scan loop hints
/// a record's payload into cache ([`StorageObject::prefetch_payload`]).
///
/// A loop that touches each record once and cold — this module's page loop,
/// and a multiple-query page evaluation's bounded loop when the page has a
/// single active query — would otherwise start every distance with a cache
/// miss on a payload the hardware prefetcher cannot predict. The hint
/// changes no value, so answers and every counter are those of a loop
/// without it. Of 8, 16 and 32, measured on 64-d scans, none separated from
/// the others; 16 won its pairs against 32 (docs/performance.md,
/// "Prefetching cold records").
pub(crate) const LOOK_AHEAD: usize = 16;

/// Answers one similarity query (Fig. 1) using `index` to determine the
/// relevant data pages, `disk` to read them (metered), and `metric` for the
/// distance calculations (counted when `metric` is a
/// [`mq_metric::CountingMetric`]).
///
/// # Panics
/// Panics if the disk has a fault plan installed and a read faults;
/// fault-aware callers use [`try_similarity_query`].
pub fn similarity_query<O, M, I>(
    disk: &dyn PageStore<O>,
    index: &I,
    metric: &M,
    query: &O,
    qtype: &QueryType,
) -> AnswerList
where
    O: StorageObject,
    M: Metric<O>,
    I: SimilarityIndex<O> + ?Sized,
{
    try_similarity_query(disk, index, metric, query, qtype, FaultPolicy::default())
        .unwrap_or_else(|e| panic!("unrecoverable engine error: {e}"))
}

/// Fallible [`similarity_query`]: each page read retries transient disk
/// faults within `policy.retry_budget`, then surfaces an [`EngineError`].
/// A successful result is bit-identical to a fault-free run (failed
/// attempts touch no I/O counter and no buffer state).
pub fn try_similarity_query<O, M, I>(
    disk: &dyn PageStore<O>,
    index: &I,
    metric: &M,
    query: &O,
    qtype: &QueryType,
    policy: FaultPolicy,
) -> Result<AnswerList, EngineError>
where
    O: StorageObject,
    M: Metric<O>,
    I: SimilarityIndex<O> + ?Sized,
{
    let mut answers = AnswerList::new(qtype);
    let mut plan = index.plan(query);
    // Signed distances (e.g. dot product) make `0` useless as a page
    // lower bound: widen the planning bound to ∞ so no page is pruned
    // against a negative query distance. Answer filtering below still
    // uses the real bound.
    let nonneg = metric.nonnegative();
    loop {
        let query_dist = answers.query_dist(qtype);
        let plan_dist = if nonneg { query_dist } else { f64::INFINITY };
        let Some((page_id, _lower_bound)) = plan.next(plan_dist) else {
            break;
        };
        let page = fault::read_page_with_retry(disk, page_id, policy)?;
        // `query_dist` is snapshotted per page rather than refreshed per
        // object: a snapshot is never smaller than the refreshed value, so
        // at worst a few extra candidates are inserted — and the answer
        // list is an order-independent top-k with truncation, so the final
        // answers and the adapted query distance are unchanged. The bounded
        // kernel can then abandon far-away objects early.
        let records = page.records();
        for (k, (id, object)) in records.iter().enumerate() {
            if let Some((_, ahead)) = records.get(k + LOOK_AHEAD) {
                ahead.prefetch_payload();
            }
            if let Some(distance) = metric.distance_le(object, query, query_dist) {
                answers.insert(Answer { id: *id, distance });
            }
        }
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::{LinearScan, XTree, XTreeConfig};
    use mq_metric::{Euclidean, ObjectId, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    fn grid_dataset() -> Dataset<Vector> {
        // 10×10 grid of 2-d points at integer coordinates.
        Dataset::new(
            (0..100)
                .map(|i| Vector::new(vec![(i % 10) as f32, (i / 10) as f32]))
                .collect(),
        )
    }

    fn brute_force_range(ds: &Dataset<Vector>, q: &Vector, eps: f64) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = ds
            .iter()
            .filter(|(_, o)| Euclidean.distance(o, q) <= eps)
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn brute_force_knn(ds: &Dataset<Vector>, q: &Vector, k: usize) -> Vec<(ObjectId, f64)> {
        let mut all: Vec<(ObjectId, f64)> = ds
            .iter()
            .map(|(id, o)| (id, Euclidean.distance(o, q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn range_query_matches_brute_force_on_scan() {
        let ds = grid_dataset();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let q = Vector::new(vec![4.5, 4.5]);
        let t = QueryType::range(1.5);
        let answers = similarity_query(&disk, &scan, &Euclidean, &q, &t);
        let mut got: Vec<ObjectId> = answers.ids().collect();
        got.sort_unstable();
        assert_eq!(got, brute_force_range(&ds, &q, 1.5));
    }

    #[test]
    fn range_query_matches_brute_force_on_xtree() {
        let ds = grid_dataset();
        let cfg = XTreeConfig {
            layout: PageLayout::new(128, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let q = Vector::new(vec![2.0, 7.0]);
        let t = QueryType::range(2.0);
        let answers = similarity_query(&disk, &tree, &Euclidean, &q, &t);
        let mut got: Vec<ObjectId> = answers.ids().collect();
        got.sort_unstable();
        assert_eq!(got, brute_force_range(&ds, &q, 2.0));
    }

    #[test]
    fn knn_query_matches_brute_force_on_both_methods() {
        let ds = grid_dataset();
        let q = Vector::new(vec![3.3, 6.1]);
        let t = QueryType::knn(7);
        let expected = brute_force_knn(&ds, &q, 7);

        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let got = similarity_query(&disk, &scan, &Euclidean, &q, &t);
        assert_eq!(
            got.as_slice().iter().map(|a| a.id).collect::<Vec<_>>(),
            expected.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );

        let cfg = XTreeConfig {
            layout: PageLayout::new(128, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let got = similarity_query(&disk, &tree, &Euclidean, &q, &t);
        assert_eq!(
            got.as_slice().iter().map(|a| a.id).collect::<Vec<_>>(),
            expected.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn xtree_knn_reads_fewer_pages_than_scan() {
        let ds = grid_dataset();
        let q = Vector::new(vec![5.0, 5.0]);
        let t = QueryType::knn(3);

        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let scan_disk = SimulatedDisk::with_buffer_pages(db, 1);
        let _ = similarity_query(&scan_disk, &scan, &Euclidean, &q, &t);
        let scan_io = scan_disk.stats().physical_reads;

        let cfg = XTreeConfig {
            layout: PageLayout::new(128, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let tree_disk = SimulatedDisk::with_buffer_pages(db, 1);
        let _ = similarity_query(&tree_disk, &tree, &Euclidean, &q, &t);
        let tree_io = tree_disk.stats().physical_reads;

        assert!(
            tree_io < scan_io,
            "x-tree should be selective on low-d data: {tree_io} vs {scan_io}"
        );
    }

    #[test]
    fn bounded_knn_respects_both_conditions() {
        let ds = grid_dataset();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let q = Vector::new(vec![0.0, 0.0]);
        // Only 3 points within distance 1.1 of the corner: (0,0),(1,0),(0,1).
        let t = QueryType::bounded_knn(10, 1.1);
        let answers = similarity_query(&disk, &scan, &Euclidean, &q, &t);
        assert_eq!(answers.len(), 3);
        // And with k=2, the cardinality bound dominates.
        let t = QueryType::bounded_knn(2, 1.1);
        let answers = similarity_query(&disk, &scan, &Euclidean, &q, &t);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers.as_slice()[0].distance, 0.0);
    }

    #[test]
    fn knn_on_database_smaller_than_k_returns_everything() {
        let ds = Dataset::new(vec![
            Vector::new(vec![0.0, 0.0]),
            Vector::new(vec![1.0, 1.0]),
        ]);
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let q = Vector::new(vec![0.0, 0.0]);
        let answers = similarity_query(&disk, &scan, &Euclidean, &q, &QueryType::knn(10));
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn empty_range_returns_only_exact_matches() {
        let ds = grid_dataset();
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let q = Vector::new(vec![4.0, 4.0]);
        let answers = similarity_query(&disk, &scan, &Euclidean, &q, &QueryType::range(0.0));
        assert_eq!(answers.len(), 1);
        assert_eq!(answers.as_slice()[0].distance, 0.0);
    }
}
