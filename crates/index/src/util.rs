//! Internal helpers: a min-heap keyed by a non-NaN `f64` priority.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A totally ordered, finite-or-infinite `f64` priority.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Priority(pub f64);

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan(), "NaN priority");
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Min-heap of `(priority, item)` pairs — the frontier of a best-first
/// (Hjaltason–Samet) traversal.
#[derive(Debug)]
pub(crate) struct MinHeap<T> {
    heap: BinaryHeap<Entry<T>>,
}

#[derive(Debug)]
struct Entry<T> {
    prio: Priority,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the minimum first.
        other.prio.cmp(&self.prio)
    }
}

impl<T> MinHeap<T> {
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    pub(crate) fn push(&mut self, prio: f64, item: T) {
        self.heap.push(Entry {
            prio: Priority(prio),
            item,
        });
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.prio.0, e.item))
    }

    pub(crate) fn peek_prio(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.prio.0)
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ascending_priority_order() {
        let mut h = MinHeap::new();
        for (p, v) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b'), (0.5, 'z')] {
            h.push(p, v);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = h.pop() {
            out.push(v);
        }
        assert_eq!(out, vec!['z', 'a', 'b', 'c']);
    }

    #[test]
    fn peek_and_clear() {
        let mut h = MinHeap::new();
        assert!(h.is_empty());
        h.push(2.0, 1);
        h.push(1.0, 2);
        assert_eq!(h.peek_prio(), Some(1.0));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn infinite_priorities_sort_last() {
        let mut h = MinHeap::new();
        h.push(f64::INFINITY, 'i');
        h.push(1.0, 'a');
        assert_eq!(h.pop().map(|(_, v)| v), Some('a'));
        assert_eq!(h.pop().map(|(_, v)| v), Some('i'));
    }
}
