//! An LRU page buffer.
//!
//! The paper's setup (§6): "the buffer size was set to 10 % of the X-tree
//! size". This is a classic O(1) LRU: a hash map into an intrusive
//! doubly-linked list backed by a slab of nodes.

use crate::page::PageId;
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of page ids.
///
/// Pages can be **pinned** (see [`pin`](Self::pin)): a pinned page is never
/// chosen as an eviction victim. If every resident page is pinned, an
/// insertion is allowed to exceed `capacity` temporarily; the excess is
/// reclaimed as soon as a pin is released ([`unpin`](Self::unpin)) or a
/// later insertion finds an unpinned victim.
#[derive(Clone, Debug)]
pub struct LruBuffer {
    capacity: usize,
    map: HashMap<PageId, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    pins: HashMap<PageId, u32>,
}

impl LruBuffer {
    /// Creates a buffer holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a bufferless disk should be modeled
    /// with `SimulatedDisk::with_buffer_pages(db, 0)` semantics at the disk
    /// level, not with a zero-capacity LRU.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            pins: HashMap::new(),
        }
    }

    /// Maximum number of buffered pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `page` is currently buffered (does not touch recency).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Accesses `page`: returns `true` on a buffer hit (and marks the page
    /// most-recently-used), `false` on a miss (and inserts the page,
    /// evicting the least-recently-used page if the buffer is full).
    pub fn access(&mut self, page: PageId) -> bool {
        if let Some(&idx) = self.map.get(&page) {
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        while self.map.len() >= self.capacity {
            // Walk from the LRU end, skipping pinned pages. If every
            // resident page is pinned, overflow: insert without evicting.
            let mut victim = self.tail;
            while victim != NIL && self.pins.contains_key(&self.nodes[victim as usize].page) {
                victim = self.nodes[victim as usize].prev;
            }
            if victim == NIL {
                break;
            }
            let victim_page = self.nodes[victim as usize].page;
            self.unlink(victim);
            self.map.remove(&victim_page);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    page,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.push_front(idx);
        self.map.insert(page, idx);
        false
    }

    /// Pins `page` against eviction. Pins nest: each `pin` must be matched
    /// by an [`unpin`](Self::unpin). Pinning a page that is not resident is
    /// a no-op (there is nothing to protect).
    pub fn pin(&mut self, page: PageId) {
        if self.map.contains_key(&page) {
            *self.pins.entry(page).or_insert(0) += 1;
        }
    }

    /// Releases one pin on `page`. When the last pin drops and the buffer
    /// is over capacity (pins forced an overflow earlier), the page is
    /// evicted immediately to restore the capacity bound.
    pub fn unpin(&mut self, page: PageId) {
        if let Some(count) = self.pins.get_mut(&page) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&page);
                if self.map.len() > self.capacity {
                    if let Some(&idx) = self.map.get(&page) {
                        self.unlink(idx);
                        self.map.remove(&page);
                        self.free.push(idx);
                    }
                }
            }
        }
    }

    /// Number of distinct pinned pages (diagnostic).
    pub fn pinned_len(&self) -> usize {
        self.pins.len()
    }

    /// Drops all buffered pages (cold restart).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.pins.clear();
    }

    /// Buffered pages from most- to least-recently used (diagnostic).
    pub fn pages_mru_to_lru(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur as usize].page);
            cur = self.nodes[cur as usize].next;
        }
        out
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn miss_then_hit() {
        let mut b = LruBuffer::new(2);
        assert!(!b.access(p(1)));
        assert!(b.access(p(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.access(p(1));
        b.access(p(2));
        b.access(p(1)); // 1 becomes MRU; LRU is 2
        b.access(p(3)); // evicts 2
        assert!(b.contains(p(1)));
        assert!(!b.contains(p(2)));
        assert!(b.contains(p(3)));
        assert_eq!(b.pages_mru_to_lru(), vec![p(3), p(1)]);
    }

    #[test]
    fn capacity_one() {
        let mut b = LruBuffer::new(1);
        assert!(!b.access(p(1)));
        assert!(!b.access(p(2)));
        assert!(!b.access(p(1)));
        assert!(b.access(p(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut b = LruBuffer::new(3);
        b.access(p(1));
        b.access(p(2));
        b.clear();
        assert!(b.is_empty());
        assert!(!b.access(p(1)));
    }

    #[test]
    fn reuses_freed_slots() {
        let mut b = LruBuffer::new(2);
        for i in 0..100 {
            b.access(p(i));
        }
        // Slab never grows beyond capacity.
        assert!(b.nodes.len() <= 2);
        assert_eq!(b.len(), 2);
        assert!(b.contains(p(99)));
        assert!(b.contains(p(98)));
    }

    #[test]
    fn lru_order_is_exact_under_interleaving() {
        let mut b = LruBuffer::new(3);
        b.access(p(1));
        b.access(p(2));
        b.access(p(3));
        b.access(p(2));
        assert_eq!(b.pages_mru_to_lru(), vec![p(2), p(3), p(1)]);
        b.access(p(4)); // evict 1
        assert_eq!(b.pages_mru_to_lru(), vec![p(4), p(2), p(3)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruBuffer::new(0);
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let mut b = LruBuffer::new(2);
        b.access(p(1));
        b.pin(p(1));
        b.access(p(2));
        b.access(p(3)); // would evict 1 (LRU), but it is pinned -> evicts 2
        assert!(b.contains(p(1)));
        assert!(!b.contains(p(2)));
        assert!(b.contains(p(3)));
        b.unpin(p(1));
        b.access(p(4)); // 1 unpinned and LRU again -> evicted
        assert!(!b.contains(p(1)));
    }

    #[test]
    fn all_pinned_overflows_then_reclaims_on_unpin() {
        let mut b = LruBuffer::new(2);
        b.access(p(1));
        b.pin(p(1));
        b.access(p(2));
        b.pin(p(2));
        b.access(p(3)); // no unpinned victim: overflow to 3 pages
        assert_eq!(b.len(), 3);
        assert!(b.contains(p(1)) && b.contains(p(2)) && b.contains(p(3)));
        b.unpin(p(1)); // over capacity -> reclaimed immediately
        assert_eq!(b.len(), 2);
        assert!(!b.contains(p(1)));
        b.unpin(p(2)); // back at capacity -> stays resident
        assert_eq!(b.len(), 2);
        assert!(b.contains(p(2)));
    }

    #[test]
    fn pins_nest() {
        let mut b = LruBuffer::new(1);
        b.access(p(1));
        b.pin(p(1));
        b.pin(p(1));
        b.unpin(p(1));
        b.access(p(2)); // still pinned once -> overflow
        assert!(b.contains(p(1)));
        assert_eq!(b.len(), 2);
        b.unpin(p(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.pinned_len(), 0);
    }

    #[test]
    fn pinning_non_resident_page_is_noop() {
        let mut b = LruBuffer::new(1);
        b.pin(p(7));
        assert_eq!(b.pinned_len(), 0);
        b.unpin(p(7)); // must not underflow or panic
        b.access(p(1));
        b.access(p(2));
        assert!(!b.contains(p(1)));
    }

    /// A straightforward list-based model of the documented semantics,
    /// pins included.
    struct NaiveLru {
        cap: usize,
        order: Vec<PageId>, // MRU first
        pins: HashMap<PageId, u32>,
    }

    impl NaiveLru {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                order: Vec::new(),
                pins: HashMap::new(),
            }
        }

        fn access(&mut self, page: PageId) -> bool {
            if let Some(pos) = self.order.iter().position(|&q| q == page) {
                self.order.remove(pos);
                self.order.insert(0, page);
                return true;
            }
            while self.order.len() >= self.cap {
                // Evict the least-recently-used unpinned page; if
                // everything is pinned, overflow.
                match self.order.iter().rposition(|q| !self.pins.contains_key(q)) {
                    Some(pos) => self.order.remove(pos),
                    None => break,
                };
            }
            self.order.insert(0, page);
            false
        }

        fn pin(&mut self, page: PageId) {
            if self.order.contains(&page) {
                *self.pins.entry(page).or_insert(0) += 1;
            }
        }

        fn unpin(&mut self, page: PageId) {
            if let Some(c) = self.pins.get_mut(&page) {
                *c -= 1;
                if *c == 0 {
                    self.pins.remove(&page);
                    if self.order.len() > self.cap {
                        self.order.retain(|&q| q != page);
                    }
                }
            }
        }
    }

    /// Deterministic LCG driving the model-based checks.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// Model-based check against the naive reference implementation.
    #[test]
    fn matches_naive_reference() {
        let mut lru = LruBuffer::new(4);
        let mut naive = NaiveLru::new(4);
        let mut x: u64 = 42;
        for _ in 0..2000 {
            let page = p(lcg(&mut x) as u32 % 10);
            assert_eq!(lru.access(page), naive.access(page));
            assert_eq!(lru.pages_mru_to_lru(), naive.order);
        }
    }

    /// The same check on a long pseudo-random access/pin/unpin workload.
    #[test]
    fn matches_naive_reference_with_pins() {
        let mut lru = LruBuffer::new(4);
        let mut naive = NaiveLru::new(4);
        let mut pinned: Vec<PageId> = Vec::new();
        let mut x: u64 = 1234;
        for _ in 0..4000 {
            let r = lcg(&mut x);
            let page = p((r % 10) as u32);
            match (r / 16) % 4 {
                0 if pinned.len() < 3 => {
                    lru.pin(page);
                    naive.pin(page);
                    if naive.pins.contains_key(&page) {
                        pinned.push(page);
                    }
                }
                1 if !pinned.is_empty() => {
                    let victim = pinned.remove((r as usize / 64) % pinned.len());
                    lru.unpin(victim);
                    naive.unpin(victim);
                }
                _ => {
                    assert_eq!(lru.access(page), naive.access(page));
                }
            }
            assert_eq!(lru.pages_mru_to_lru(), naive.order, "LRU order diverged");
        }
    }

    /// The prefetch corner case the disk can produce: every resident page
    /// is pinned by staged prefetches when a demand read for an unstaged
    /// page arrives. The insertion must overflow capacity, the overflow
    /// must be reclaimed exactly when the responsible pin drops, and the
    /// whole trajectory — hit/miss results and resident count at every
    /// step — must match the naive model.
    #[test]
    fn fully_pinned_by_prefetch_demand_read_matches_model() {
        enum Op {
            Access(u32, bool), // page, expected hit
            Pin(u32),
            Unpin(u32),
            Len(usize),
        }
        use Op::*;
        // Capacity 2 throughout. Pages 1,2 are staged (accessed and
        // pinned) by the prefetcher; page 3 is the demand read.
        let script = [
            Access(1, false),
            Pin(1),
            Access(2, false),
            Pin(2),
            Len(2),
            // Demand read of unstaged page 3 with everything pinned: no
            // victim exists, so the insertion overflows.
            Access(3, false),
            Len(3),
            Pin(3), // the demand read pins its page too
            Len(3),
            // Prefetch pin on 1 handed over/dropped: buffer is over
            // capacity, so 1 is reclaimed immediately.
            Unpin(1),
            Len(2),
            // Re-demand 1: reclaimed above, so a miss; 2 and 3 are both
            // pinned, so it overflows again.
            Access(1, false),
            Len(3),
            // Demand pin on 3 released while over capacity: 3 itself is
            // the reclaimed page.
            Unpin(3),
            Len(2),
            // Last prefetch pin released at capacity: nothing reclaimed.
            Unpin(2),
            Len(2),
            Access(2, true),
            Access(1, true),
        ];
        let mut real = LruBuffer::new(2);
        let mut naive = NaiveLru::new(2);
        for (i, op) in script.iter().enumerate() {
            match *op {
                Access(page, expect_hit) => {
                    let (rh, nh) = (real.access(p(page)), naive.access(p(page)));
                    assert_eq!(rh, nh, "step {i}: hit/miss diverged");
                    assert_eq!(rh, expect_hit, "step {i}: unexpected outcome");
                }
                Pin(page) => {
                    real.pin(p(page));
                    naive.pin(p(page));
                }
                Unpin(page) => {
                    real.unpin(p(page));
                    naive.unpin(p(page));
                }
                Len(expect) => assert_eq!(real.len(), expect, "step {i}: real len"),
            }
            assert_eq!(real.len(), naive.order.len(), "step {i}: len diverged");
        }
    }
}
