//! A warm session evaluates pages without allocating.
//!
//! The session owns the buffers a page evaluation works in and reuses
//! them from page to page and from step to step. So once one step has
//! sized them, a step allocates as often when it evaluates 40 pages as
//! when it evaluates 4 pages of the same shape: whatever it allocates, it
//! allocates per step, never per page.
//!
//! The allocator below counts the allocations of the calling thread only,
//! so tests running beside each other do not disturb the counts.

use mq_core::{MultiQuerySession, QueryEngine, QueryType};
use mq_index::LinearScan;
use mq_metric::{Euclidean, ObjectId, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation made
/// by the calling thread.
struct Counting;

fn counted() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Records per page.
const PER_PAGE: u32 = 12;

/// `pages` pages of `PER_PAGE` 2-d records each. Page `p` lies on its own
/// stretch of the first axis, `[1000 p, 1000 p + PER_PAGE)`, so every
/// query below finds its answers on one page whatever the page count.
fn database(pages: u32) -> SimulatedDisk<Vector> {
    let points: Vec<Vector> = (0..pages * PER_PAGE)
        .map(|i| {
            let (page, slot) = (i / PER_PAGE, i % PER_PAGE);
            Vector::new(vec![(1000 * page + slot) as f32, (slot % 3) as f32])
        })
        .collect();
    // A 2-d record is 8 payload bytes plus an 8-byte header.
    let layout = PageLayout::new(16 * PER_PAGE as usize, 8);
    let db = PagedDatabase::pack(&Dataset::new(points), layout);
    assert_eq!(db.page_count(), pages as usize);
    SimulatedDisk::new(db, 0.1)
}

/// Admits three queries of `qtype`: by id when `stored` (records on pages
/// 0 and 2, so they are residents of those pages), else by value near
/// those records. `shift` picks a different trio of the same shape.
fn admit(
    engine: &QueryEngine<'_, Vector, Euclidean>,
    session: &mut MultiQuerySession<Vector>,
    qtype: QueryType,
    stored: bool,
    shift: u32,
) {
    for id in [1 + shift, 6 + shift, 2 * PER_PAGE + 3 + shift] {
        if stored {
            engine.push_stored_query(session, ObjectId(id), qtype);
        } else {
            let object = engine.disk().database().object(ObjectId(id)).clone();
            let value = Vector::new(
                object
                    .components()
                    .iter()
                    .map(|x| x + 0.25)
                    .collect::<Vec<_>>(),
            );
            engine.push_query(session, value, qtype);
        }
    }
}

/// The allocations of one step over `pages` pages, taken after a
/// warm-up session of the same shape has run to completion.
fn step_allocations(pages: u32, qtype: QueryType, stored: bool) -> u64 {
    let disk = database(pages);
    let scan = LinearScan::new(disk.database().page_count());
    let engine = QueryEngine::new(&disk, &scan, Euclidean);
    let mut session = engine.new_session(Vec::new());
    admit(&engine, &mut session, qtype, stored, 0);
    engine.run_to_completion(&mut session);
    admit(&engine, &mut session, qtype, stored, 2);

    let before = ALLOCATIONS.with(Cell::get);
    let head = engine.multiple_query_step(&mut session);
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(head, Some(3), "the first query of the second trio leads");
    for i in 3..6 {
        assert_eq!(session.pages_processed(i), pages as usize, "query {i}");
    }
    assert!(
        (3..6).all(|i| !session.answers(i).is_empty()),
        "every query found answers"
    );
    allocations
}

fn assert_per_step(qtype: QueryType, stored: bool) {
    let few = step_allocations(4, qtype, stored);
    let many = step_allocations(40, qtype, stored);
    assert_eq!(
        few, many,
        "{qtype:?}, stored = {stored}: a step over 4 pages allocated {few} times, over 40 pages {many}"
    );
}

#[test]
fn knn_steps_allocate_per_step_not_per_page() {
    assert_per_step(QueryType::knn(4), false);
}

#[test]
fn knn_steps_with_resident_queries_allocate_per_step_not_per_page() {
    assert_per_step(QueryType::knn(4), true);
}

#[test]
fn range_steps_allocate_per_step_not_per_page() {
    assert_per_step(QueryType::range(3.5), false);
}

#[test]
fn range_steps_with_resident_queries_allocate_per_step_not_per_page() {
    assert_per_step(QueryType::range(3.5), true);
}
