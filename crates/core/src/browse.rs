//! Incremental nearest-neighbor browsing (Hjaltason–Samet, SSD'95 — the
//! paper's ref. \[13\]).
//!
//! Many exploration tasks do not know `k` in advance: *"retrieve the next
//! closest object until the analyst is satisfied"*. The
//! [`DistanceBrowser`] yields database objects strictly in ascending
//! distance order, reading data pages lazily in the proven I/O-optimal
//! best-first order — the same traversal that powers the engine's k-NN
//! queries, exposed as an iterator.

use crate::answers::Answer;
use mq_index::{PagePlan, SimilarityIndex};
use mq_metric::Metric;
use mq_storage::{SimulatedDisk, StorageObject};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Pending {
    answer: Answer,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.answer.distance == other.answer.distance && self.answer.id == other.answer.id
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap: smaller distance (then smaller id) first.
        other
            .answer
            .distance
            .partial_cmp(&self.answer.distance)
            .unwrap_or(Ordering::Equal)
            .then(other.answer.id.cmp(&self.answer.id))
    }
}

/// An iterator over database objects in ascending distance from a query
/// object, fetching data pages on demand.
///
/// ```
/// use mq_core::DistanceBrowser;
/// use mq_index::LinearScan;
/// use mq_metric::{Euclidean, Vector};
/// use mq_storage::{Dataset, PagedDatabase, SimulatedDisk};
///
/// let ds = Dataset::new((0..50).map(|i| Vector::new(vec![i as f32])).collect());
/// let db = PagedDatabase::pack(&ds, Default::default());
/// let scan = LinearScan::new(db.page_count());
/// let disk = SimulatedDisk::new(db, 0.10);
/// let q = Vector::new(vec![10.2]);
/// let first_three: Vec<u32> = DistanceBrowser::new(&disk, &scan, &Euclidean, &q)
///     .take(3)
///     .map(|a| a.id.0)
///     .collect();
/// assert_eq!(first_three, vec![10, 11, 9]);
/// ```
pub struct DistanceBrowser<'a, O, M> {
    disk: &'a SimulatedDisk<O>,
    metric: &'a M,
    query: &'a O,
    plan: Box<dyn PagePlan + 'a>,
    /// Objects whose distances are known but not yet emitted.
    frontier: BinaryHeap<Pending>,
    /// Lower bound of the next unread page (`None` once the plan is dry).
    next_page_bound: Option<f64>,
    exhausted_plan: bool,
}

impl<'a, O, M> DistanceBrowser<'a, O, M>
where
    O: StorageObject,
    M: Metric<O>,
{
    /// Starts browsing `disk`'s objects around `query` using `index` for
    /// the page order.
    pub fn new<I>(disk: &'a SimulatedDisk<O>, index: &'a I, metric: &'a M, query: &'a O) -> Self
    where
        I: SimilarityIndex<O> + ?Sized,
    {
        Self {
            disk,
            metric,
            query,
            plan: index.plan(query),
            frontier: BinaryHeap::new(),
            next_page_bound: None,
            exhausted_plan: false,
        }
    }

    /// Loads pages until the closest pending object provably precedes all
    /// unread pages.
    fn settle(&mut self) {
        loop {
            let best = self.frontier.peek().map(|p| p.answer.distance);
            // If the closest known object is at most the next page's lower
            // bound, it is globally next.
            if let (Some(b), Some(lb)) = (best, self.next_page_bound) {
                if b <= lb {
                    return;
                }
            }
            if self.exhausted_plan && self.next_page_bound.is_none() {
                return;
            }
            // Fetch the next page (or learn that none remains).
            match self.plan.next(f64::INFINITY) {
                Some((pid, lb)) => {
                    // The *following* page can only be farther; remember
                    // this page's bound until we read the next one.
                    self.next_page_bound = Some(lb);
                    let page = self.disk.read_page(pid);
                    for (id, object) in page.iter() {
                        let distance = self.metric.distance(object, self.query);
                        self.frontier.push(Pending {
                            answer: Answer { id, distance },
                        });
                    }
                    // Peek ahead: without knowing the next page's bound we
                    // cannot emit yet; loop continues and the next call to
                    // plan.next updates the bound (or exhausts the plan).
                    if let Some(b) = self.frontier.peek().map(|p| p.answer.distance) {
                        if b <= lb {
                            return;
                        }
                    }
                }
                None => {
                    self.exhausted_plan = true;
                    self.next_page_bound = None;
                    return;
                }
            }
        }
    }
}

impl<O, M> Iterator for DistanceBrowser<'_, O, M>
where
    O: StorageObject,
    M: Metric<O>,
{
    type Item = Answer;

    fn next(&mut self) -> Option<Answer> {
        self.settle();
        self.frontier.pop().map(|p| p.answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::{LinearScan, XTree, XTreeConfig};
    use mq_metric::{Euclidean, ObjectId, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase};

    fn points(n: usize, seed: u64) -> Vec<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vector::new(vec![(next() * 100.0) as f32, (next() * 100.0) as f32]))
            .collect()
    }

    fn sorted_reference(data: &[Vector], q: &Vector) -> Vec<(ObjectId, f64)> {
        let mut all: Vec<(ObjectId, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), Euclidean.distance(o, q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all
    }

    #[test]
    fn browses_in_exact_distance_order_on_xtree() {
        let data = points(300, 1);
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig {
            layout: PageLayout::new(256, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let q = Vector::new(vec![40.0, 60.0]);
        let browser = DistanceBrowser::new(&disk, &tree, &Euclidean, &q);
        let got: Vec<(ObjectId, f64)> = browser.map(|a| (a.id, a.distance)).collect();
        let expected = sorted_reference(&data, &q);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.0, e.0);
            assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    #[test]
    fn browses_in_order_on_scan() {
        let data = points(200, 3);
        let ds = Dataset::new(data.clone());
        let db = PagedDatabase::pack(&ds, PageLayout::new(256, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::new(db, 0.2);
        let q = Vector::new(vec![10.0, 10.0]);
        let browser = DistanceBrowser::new(&disk, &scan, &Euclidean, &q);
        let got: Vec<ObjectId> = browser.map(|a| a.id).collect();
        let expected: Vec<ObjectId> = sorted_reference(&data, &q)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn early_termination_reads_few_pages_on_xtree() {
        let data = points(2000, 5);
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig {
            layout: PageLayout::new(256, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let pages = db.page_count() as u64;
        let disk = SimulatedDisk::new(db, 0.2);
        let q = ds.object(ObjectId(123)).clone();
        let mut browser = DistanceBrowser::new(&disk, &tree, &Euclidean, &q);
        // Take only the 5 closest.
        let first: Vec<Answer> = browser.by_ref().take(5).collect();
        assert_eq!(first.len(), 5);
        assert_eq!(first[0].id, ObjectId(123), "self is closest");
        let read = disk.stats().logical_reads;
        assert!(
            read * 4 < pages,
            "browsing 5 objects read {read} of {pages} pages"
        );
    }

    #[test]
    fn matches_knn_query_prefix() {
        let data = points(500, 7);
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig {
            layout: PageLayout::new(256, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let q = Vector::new(vec![55.0, 45.0]);
        let engine = crate::QueryEngine::new(&disk, &tree, Euclidean);
        let knn: Vec<ObjectId> = engine
            .similarity_query(&q, &crate::QueryType::knn(12))
            .ids()
            .collect();
        let browsed: Vec<ObjectId> = DistanceBrowser::new(&disk, &tree, &Euclidean, &q)
            .take(12)
            .map(|a| a.id)
            .collect();
        assert_eq!(browsed, knn);
    }

    #[test]
    fn empty_database_browses_nothing() {
        let ds = Dataset::new(Vec::<Vector>::new());
        let cfg = XTreeConfig {
            layout: PageLayout::new(256, 16),
        };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let disk = SimulatedDisk::new(db, 0.2);
        let q = Vector::new(vec![0.0, 0.0]);
        let mut browser = DistanceBrowser::new(&disk, &tree, &Euclidean, &q);
        assert!(browser.next().is_none());
    }
}
