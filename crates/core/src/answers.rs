//! Sorted, cardinality-bounded answer lists (Fig. 1's `Answers`).

use crate::query::QueryType;
use mq_metric::ObjectId;

/// One answer: a database object and its distance to the query object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// The answering database object.
    pub id: ObjectId,
    /// `dist(object, query)`.
    pub distance: f64,
}

/// The answer list of Fig. 1: kept in ascending distance order (ties broken
/// by object id for determinism), truncated to `T.cardinality`.
#[derive(Clone, Debug)]
pub struct AnswerList {
    entries: Vec<Answer>,
    cardinality: usize,
}

impl AnswerList {
    /// An empty list for a query of type `t`.
    pub fn new(t: &QueryType) -> Self {
        Self {
            // One slot beyond the bound: an insert into a full list holds
            // `cardinality + 1` entries until the farthest is popped.
            entries: Vec::with_capacity(t.cardinality.min(64) + 1),
            cardinality: t.cardinality,
        }
    }

    /// Inserts an answer in ascending order of distance; if the list then
    /// exceeds its cardinality, the farthest element is removed (Fig. 1's
    /// `remove_last_element`).
    pub fn insert(&mut self, answer: Answer) {
        // A full list drops whatever sorts at or after its last entry — the
        // candidate itself, or an equal (distance, id) it would displace.
        // Page-level query-distance snapshots make such candidates routine.
        let dropped = |last| !Self::precedes(&answer, last);
        if self.is_full() && self.entries.last().is_some_and(dropped) {
            return;
        }
        let pos = self.entries.partition_point(|a| Self::precedes(a, &answer));
        self.entries.insert(pos, answer);
        if self.entries.len() > self.cardinality {
            self.entries.pop();
        }
    }

    /// The list order: ascending distance, ties by ascending id.
    #[inline]
    fn precedes(a: &Answer, b: &Answer) -> bool {
        a.distance < b.distance || (a.distance == b.distance && a.id < b.id)
    }

    /// Whether the list has reached its cardinality bound.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cardinality
    }

    /// Number of answers currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The answers, ascending by distance.
    pub fn as_slice(&self) -> &[Answer] {
        &self.entries
    }

    /// The largest distance in the list (`None` when empty).
    pub fn max_distance(&self) -> Option<f64> {
        self.entries.last().map(|a| a.distance)
    }

    /// Fig. 1's `adapt_query_dist`: the current query distance for type `t`
    /// given this list. For a range query this is always `ε`; for a k-NN
    /// query it becomes the k-th best distance once `k` answers are known
    /// (an upper bound that only ever shrinks); for a bounded k-NN query it
    /// is the minimum of both.
    pub fn query_dist(&self, t: &QueryType) -> f64 {
        if t.has_cardinality_bound() && self.is_full() {
            let kth = self.max_distance().expect("full list is non-empty");
            kth.min(t.range)
        } else {
            t.range
        }
    }

    /// Consumes the list into its sorted answers.
    pub fn into_vec(self) -> Vec<Answer> {
        self.entries
    }

    /// The answer ids, ascending by distance.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.entries.iter().map(|a| a.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(id: u32, d: f64) -> Answer {
        Answer {
            id: ObjectId(id),
            distance: d,
        }
    }

    #[test]
    fn keeps_ascending_order() {
        let t = QueryType::range(10.0);
        let mut list = AnswerList::new(&t);
        for answer in [a(1, 3.0), a(2, 1.0), a(3, 2.0)] {
            list.insert(answer);
        }
        let d: Vec<f64> = list.as_slice().iter().map(|x| x.distance).collect();
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn truncates_to_cardinality() {
        let t = QueryType::knn(2);
        let mut list = AnswerList::new(&t);
        for answer in [a(1, 3.0), a(2, 1.0), a(3, 2.0), a(4, 0.5)] {
            list.insert(answer);
        }
        assert_eq!(list.len(), 2);
        let ids: Vec<u32> = list.ids().map(|i| i.0).collect();
        assert_eq!(ids, vec![4, 2]);
        assert!(list.is_full());
    }

    #[test]
    fn ties_broken_by_id() {
        let t = QueryType::knn(2);
        let mut list = AnswerList::new(&t);
        for answer in [a(9, 1.0), a(3, 1.0), a(7, 1.0)] {
            list.insert(answer);
        }
        let ids: Vec<u32> = list.ids().map(|i| i.0).collect();
        assert_eq!(ids, vec![3, 7], "deterministic tie-break by id");
    }

    #[test]
    fn full_list_fast_path_matches_insert_then_pop() {
        // Fig. 1 verbatim: insert in order, then remove the last element.
        fn insert_then_pop(entries: &mut Vec<Answer>, k: usize, answer: Answer) {
            let pos = entries.partition_point(|e| AnswerList::precedes(e, &answer));
            entries.insert(pos, answer);
            if entries.len() > k {
                entries.pop();
            }
        }
        let t = QueryType::knn(3);
        let mut list = AnswerList::new(&t);
        let capacity = list.entries.capacity();
        let mut model = Vec::new();
        // Ties at the k-th distance on both sides of the last id, an exact
        // duplicate of the last entry, and candidates beyond it.
        for answer in [
            a(5, 1.0),
            a(9, 2.0),
            a(4, 2.0),
            a(7, 2.0),
            a(7, 2.0),
            a(8, 2.0),
            a(6, 3.0),
            a(3, 2.0),
            a(4, 2.0),
            a(1, 0.5),
        ] {
            list.insert(answer);
            insert_then_pop(&mut model, 3, answer);
            assert_eq!(list.as_slice(), model.as_slice(), "after {answer:?}");
        }
        assert_eq!(list.entries.capacity(), capacity, "overflow reallocated");
    }

    #[test]
    fn query_dist_for_range_is_constant() {
        let t = QueryType::range(5.0);
        let mut list = AnswerList::new(&t);
        assert_eq!(list.query_dist(&t), 5.0);
        list.insert(a(1, 1.0));
        assert_eq!(list.query_dist(&t), 5.0);
    }

    #[test]
    fn query_dist_for_knn_shrinks_when_full() {
        let t = QueryType::knn(2);
        let mut list = AnswerList::new(&t);
        assert!(list.query_dist(&t).is_infinite());
        list.insert(a(1, 4.0));
        assert!(list.query_dist(&t).is_infinite(), "not full yet");
        list.insert(a(2, 2.0));
        assert_eq!(list.query_dist(&t), 4.0);
        list.insert(a(3, 1.0));
        assert_eq!(list.query_dist(&t), 2.0, "k-th best shrank");
    }

    #[test]
    fn query_dist_for_bounded_knn_respects_both() {
        let t = QueryType::bounded_knn(2, 3.0);
        let mut list = AnswerList::new(&t);
        assert_eq!(list.query_dist(&t), 3.0);
        list.insert(a(1, 1.0));
        list.insert(a(2, 2.5));
        assert_eq!(list.query_dist(&t), 2.5);
    }

    #[test]
    fn into_vec_and_accessors() {
        let t = QueryType::knn(3);
        let mut list = AnswerList::new(&t);
        assert!(list.is_empty());
        assert_eq!(list.max_distance(), None);
        list.insert(a(5, 2.0));
        assert_eq!(list.max_distance(), Some(2.0));
        let v = list.into_vec();
        assert_eq!(v, vec![a(5, 2.0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model-based: AnswerList equals "sort all, truncate to k" for any
        /// insertion order.
        #[test]
        fn matches_sort_then_truncate_model(
            entries in prop::collection::vec((0u32..500, 0.0f64..100.0), 0..60),
            k in 1usize..20,
        ) {
            let t = QueryType::knn(k);
            let mut list = AnswerList::new(&t);
            for &(id, d) in &entries {
                list.insert(Answer { id: ObjectId(id), distance: d });
            }
            let mut model = entries.clone();
            model.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            model.truncate(k);
            let got: Vec<(u32, f64)> =
                list.as_slice().iter().map(|a| (a.id.0, a.distance)).collect();
            prop_assert_eq!(got, model);
        }

        /// The k-NN query distance is always the k-th model distance once
        /// full, and the paper's invariant holds: it never increases.
        #[test]
        fn query_dist_is_monotonically_non_increasing(
            entries in prop::collection::vec((0u32..500, 0.0f64..100.0), 1..60),
            k in 1usize..10,
        ) {
            let t = QueryType::knn(k);
            let mut list = AnswerList::new(&t);
            let mut last = f64::INFINITY;
            for &(id, d) in &entries {
                // Fig. 1 only inserts answers within the current bound.
                if d <= list.query_dist(&t) {
                    list.insert(Answer { id: ObjectId(id), distance: d });
                }
                let now = list.query_dist(&t);
                prop_assert!(now <= last + 1e-12, "query distance grew: {} -> {}", last, now);
                last = now;
            }
        }
    }
}
