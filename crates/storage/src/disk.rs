//! The simulated disk: metered page reads through an LRU buffer.

use crate::buffer::LruBuffer;
use crate::database::{PagedDatabase, StorageObject};
use crate::fault::{page_checksum, DiskError, FaultDecision, FaultPlan, FaultStats};
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use mq_obs::{Counter, Recorder};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The paper's buffer sizing: 10 % of the data pages (§6).
pub const PAPER_BUFFER_FRACTION: f64 = 0.10;

/// `num / den` as a ratio gauge, `0.0` when nothing was observed yet.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Forward window within which a read still counts as sequential: skipping
/// a few pages forward costs only rotational delay, not a head seek, so
/// `last + 1 ..= last + SEQUENTIAL_SKIP_WINDOW` is classified sequential.
/// Index traversals over physically clustered leaves (DFS page numbering)
/// produce exactly such short forward skips.
pub const SEQUENTIAL_SKIP_WINDOW: u32 = 4;

/// Live observability counters, duplicated from the [`IoStats`] /
/// [`FaultStats`] bookkeeping into a shared [`Registry`] so `mq stats` can
/// watch them while the disk serves traffic. Strictly write-only from the
/// disk's perspective: attaching (or not attaching) a recorder never
/// changes what [`IoStats`] reports or which pages the buffer holds.
///
/// [`Registry`]: mq_obs::Registry
#[derive(Debug)]
struct DiskObs {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    prefetch_reads: Arc<Counter>,
    prefetched_hits: Arc<Counter>,
    fault_transient: Arc<Counter>,
    fault_corrupt: Arc<Counter>,
    fault_unavailable: Arc<Counter>,
}

#[derive(Debug)]
struct DiskState {
    buffer: LruBuffer,
    stats: IoStats,
    /// `Some` once a [`Recorder`] is attached; `None` costs one branch.
    obs: Option<DiskObs>,
    last_physical: Option<PageId>,
    /// Pages staged by [`SimulatedDisk::try_prefetch`] whose pin is still held
    /// by the disk (released by the demand read or by
    /// [`SimulatedDisk::drop_prefetch_pins`]). A `BTreeSet` so leftover
    /// pins are released in deterministic (ascending page id) order.
    prefetched: BTreeSet<PageId>,
    /// Active fault schedule (`None` = the disk never fails).
    fault_plan: Option<FaultPlan>,
    /// Injected-fault counters — deliberately separate from [`IoStats`]:
    /// failed attempts leave every I/O counter untouched, so a run whose
    /// reads all eventually succeed is bit-identical to a fault-free run.
    fault_stats: FaultStats,
    /// Injected faults suffered so far, per page (the plan's `attempt` axis).
    fault_attempts: HashMap<PageId, u32>,
    /// Successful physical reads, for the plan's `kill_after` trigger.
    successful_physical: u64,
    /// Once `true`, every read fails with [`DiskError::Unavailable`].
    killed: bool,
}

/// A simulated disk serving the pages of one [`PagedDatabase`].
///
/// Every [`read_page`](Self::read_page) is metered: it first consults the
/// LRU buffer; on a miss it counts a physical read, classified as
/// *sequential* if the requested page immediately follows the last
/// physically read page, else *random*. The page data itself is returned by
/// reference (the database is immutable).
///
/// The disk is `Sync`: concurrent readers contend on one internal lock,
/// which is correct for the paper's setting (each shared-nothing server owns
/// its own disk; within a server, query processing is sequential).
#[derive(Debug)]
pub struct SimulatedDisk<O> {
    db: PagedDatabase<O>,
    /// Per-page checksums (indexed by page id), precomputed at construction.
    /// Both the "platter" and the "wire" side of a simulated transfer hash
    /// to the same value, so only an injected corruption (which XORs noise
    /// into the transferred checksum) can make them disagree — the page
    /// data itself is never damaged in memory.
    checksums: Vec<u64>,
    state: Mutex<DiskState>,
}

impl<O: StorageObject> SimulatedDisk<O> {
    /// Creates a disk with a buffer of `fraction` of the database's pages
    /// (at least one page). Use [`PAPER_BUFFER_FRACTION`] for the paper's
    /// 10 % setting.
    pub fn new(db: PagedDatabase<O>, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "buffer fraction must be in [0, 1]"
        );
        let pages = ((db.page_count() as f64 * fraction).ceil() as usize).max(1);
        Self::with_buffer_pages(db, pages)
    }

    /// Creates a disk with an explicit buffer capacity in pages (minimum 1).
    pub fn with_buffer_pages(db: PagedDatabase<O>, buffer_pages: usize) -> Self {
        let checksums = db
            .page_ids()
            .map(|pid| {
                page_checksum(
                    pid,
                    db.page(pid).records().iter().map(|r| r.0.index() as u32),
                )
            })
            .collect();
        Self {
            db,
            checksums,
            state: Mutex::new(DiskState {
                buffer: LruBuffer::new(buffer_pages.max(1)),
                stats: IoStats::default(),
                obs: None,
                last_physical: None,
                prefetched: BTreeSet::new(),
                fault_plan: None,
                fault_stats: FaultStats::default(),
                fault_attempts: HashMap::new(),
                successful_physical: 0,
                killed: false,
            }),
        }
    }

    /// The disk state, locked. Its critical sections only do counter and
    /// buffer bookkeeping, so a holder that panicked leaves at worst one
    /// miscounted read behind, and the next caller takes the lock over.
    fn state(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches an observability [`Recorder`]: buffer hits/misses (labelled
    /// `policy="lru"`, the paper's §6 replacement policy), prefetch traffic,
    /// and injected fault retries are mirrored into the recorder's registry
    /// from now on, alongside — never instead of — the exact [`IoStats`]
    /// accounting. A disabled recorder detaches. Derived gauges
    /// `mq_storage_buffer_hit_ratio` and `mq_storage_prefetch_hit_ratio`
    /// are computed from the mirrored counters at scrape time.
    pub fn attach_recorder(&self, recorder: &Recorder) {
        let mut st = self.state();
        let Some(registry) = recorder.registry() else {
            st.obs = None;
            return;
        };
        // Kept as a label so existing dashboards' series names hold.
        let policy = "lru";
        let labels = [("policy", policy)];
        let hits = registry.counter(
            "mq_storage_buffer_reads_total",
            "Buffer lookups by outcome, per replacement policy",
            &[("policy", policy), ("outcome", "hit")],
        );
        let misses = registry.counter(
            "mq_storage_buffer_reads_total",
            "Buffer lookups by outcome, per replacement policy",
            &[("policy", policy), ("outcome", "miss")],
        );
        let prefetch_reads = registry.counter(
            "mq_storage_prefetch_reads_total",
            "Physical reads issued by the prefetcher at schedule time",
            &labels,
        );
        let prefetched_hits = registry.counter(
            "mq_storage_prefetched_hits_total",
            "Demand reads served from a previously staged prefetch",
            &labels,
        );
        let (h, m) = (Arc::clone(&hits), Arc::clone(&misses));
        registry.derived_gauge(
            "mq_storage_buffer_hit_ratio",
            "hits / (hits + misses) since the recorder was attached",
            &labels,
            move || ratio(h.get(), h.get() + m.get()),
        );
        let (pr, ph) = (Arc::clone(&prefetch_reads), Arc::clone(&prefetched_hits));
        registry.derived_gauge(
            "mq_storage_prefetch_hit_ratio",
            "prefetched demand hits / prefetch reads since the recorder was attached",
            &labels,
            move || ratio(ph.get(), pr.get()),
        );
        let fault = |kind: &str| {
            registry.counter(
                "mq_storage_fault_retries_total",
                "Injected disk faults surfaced to callers, by kind",
                &[("kind", kind)],
            )
        };
        st.obs = Some(DiskObs {
            hits,
            misses,
            prefetch_reads,
            prefetched_hits,
            fault_transient: fault("transient"),
            fault_corrupt: fault("corrupt"),
            fault_unavailable: fault("unavailable"),
        });
    }

    /// Installs (or, with `None`, removes) a fault schedule. Resets all
    /// fault bookkeeping — attempt counters, the kill switch, and
    /// [`FaultStats`] — so a freshly installed plan always replays the same
    /// schedule for the same access sequence.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut st = self.state();
        st.fault_plan = plan;
        st.fault_stats = FaultStats::default();
        st.fault_attempts.clear();
        st.successful_physical = 0;
        st.killed = false;
    }

    /// The active fault schedule, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.state().fault_plan
    }

    /// Snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.state().fault_stats
    }

    /// Whether the simulated device has died (`kill_after` fired).
    pub fn is_killed(&self) -> bool {
        self.state().killed
    }

    /// The precomputed checksum of a page (diagnostic; testkit use).
    pub fn checksum(&self, id: PageId) -> u64 {
        self.checksums[id.0 as usize]
    }

    /// Number of currently resident buffer pages (diagnostic).
    pub fn buffer_len(&self) -> usize {
        self.state().buffer.len()
    }

    /// Number of distinct currently pinned pages (diagnostic). Zero
    /// whenever no read is in flight — a nonzero value between steps is a
    /// pin leak.
    pub fn pinned_pages(&self) -> usize {
        self.state().buffer.pinned_len()
    }

    /// The underlying database.
    pub fn database(&self) -> &PagedDatabase<O> {
        &self.db
    }

    /// Mutable access to the underlying database, for the file store's
    /// insert/delete page rewrites. Callers that change page contents must
    /// follow up with [`refresh_checksums`](Self::refresh_checksums).
    pub fn database_mut(&mut self) -> &mut PagedDatabase<O> {
        &mut self.db
    }

    /// Recomputes the per-page checksums from the current page contents —
    /// the in-memory half of a page rewrite (the file store stamps the same
    /// value into the on-disk frame).
    pub fn refresh_checksums(&mut self) {
        self.checksums = self
            .db
            .page_ids()
            .map(|pid| {
                page_checksum(
                    pid,
                    self.db
                        .page(pid)
                        .records()
                        .iter()
                        .map(|r| r.0.index() as u32),
                )
            })
            .collect();
    }

    /// Whether a page is currently resident in the buffer. A pure lookup:
    /// no counter moves, no LRU state changes — the file store uses it to
    /// decide when a demand read will actually touch the platter (and so
    /// when to verify the on-disk frame's checksum).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.state().buffer.contains(id)
    }

    /// Buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.state().buffer.capacity()
    }

    /// Reads a page, updating buffer state and I/O counters.
    ///
    /// # Panics
    /// Panics if a [`FaultPlan`] is installed and this read attempt faults.
    /// Fault-aware callers use [`try_read_page`](Self::try_read_page).
    pub fn read_page(&self, id: PageId) -> &Page<O> {
        self.try_read_page(id)
            .unwrap_or_else(|e| panic!("unhandled disk fault: {e}"))
    }

    /// Fallible [`read_page`](Self::read_page): under an installed
    /// [`FaultPlan`], a buffer miss may fail instead of performing the
    /// physical read. A failed attempt touches **only** [`FaultStats`] —
    /// no I/O counter moves, the buffer is untouched — so a successful
    /// retry is indistinguishable from a read that never faulted. Buffer
    /// hits never fault (the data is already in memory), except on a dead
    /// disk, which refuses everything.
    pub fn try_read_page(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        self.try_read_page_impl(id, false)
    }

    /// Reads a page like [`try_read_page`](Self::try_read_page) and
    /// additionally **pins** it in the buffer so it cannot be evicted while
    /// in use. The caller must release the pin with
    /// [`unpin_page`](Self::unpin_page). Faults as `try_read_page` does.
    ///
    /// If the page was staged by a [`try_prefetch`](Self::try_prefetch),
    /// the demand read counts a `prefetched_hit` and the prefetch pin is
    /// handed over (released) before the caller's pin is taken.
    pub fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        self.try_read_page_impl(id, true)
    }

    fn try_read_page_impl(&self, id: PageId, pin: bool) -> Result<&Page<O>, DiskError> {
        {
            let mut st = self.state();
            if st.killed {
                st.fault_stats.unavailable_reads += 1;
                if let Some(obs) = &st.obs {
                    obs.fault_unavailable.inc();
                }
                return Err(DiskError::Unavailable { page: id });
            }
            // Fault check strictly before any accounting or buffer
            // mutation: only a would-be miss touches the platter, and a
            // failed attempt must leave the disk exactly as it found it.
            if !st.buffer.contains(id) {
                self.check_fault(&mut st, id)?;
            }
            st.stats.logical_reads += 1;
            if st.buffer.access(id) {
                st.stats.buffer_hits += 1;
                let staged = st.prefetched.remove(&id);
                if staged {
                    st.stats.prefetched_hits += 1;
                    st.buffer.unpin(id);
                }
                if let Some(obs) = &st.obs {
                    obs.hits.inc();
                    if staged {
                        obs.prefetched_hits.inc();
                    }
                }
            } else {
                // A staged page is pinned and so cannot miss; this branch
                // only de-stages defensively if the buffer ignored the pin.
                if st.prefetched.remove(&id) {
                    st.buffer.unpin(id);
                }
                Self::count_physical(&mut st, id);
                if let Some(obs) = &st.obs {
                    obs.misses.inc();
                }
            }
            if pin {
                st.buffer.pin(id);
            }
        }
        Ok(self.db.page(id))
    }

    /// Stages a page ahead of demand: on a buffer miss the physical read is
    /// performed (and accounted — `physical_reads` plus `prefetch_reads`,
    /// classified sequential/random) **now**, at schedule time, which keeps
    /// I/O counters deterministic regardless of when evaluation catches up.
    /// The page is pinned until its demand read or until
    /// [`drop_prefetch_pins`](Self::drop_prefetch_pins). A prefetch is
    /// *not* a logical read: issuing it never changes `logical_reads`.
    ///
    /// Prefetching an already-staged page is a no-op. Faults as
    /// [`try_read_page`](Self::try_read_page) does; on failure the page is
    /// simply not staged — a later demand read performs (and re-rolls) its
    /// own physical read.
    pub fn try_prefetch(&self, id: PageId) -> Result<(), DiskError> {
        let mut st = self.state();
        if st.killed {
            st.fault_stats.unavailable_reads += 1;
            if let Some(obs) = &st.obs {
                obs.fault_unavailable.inc();
            }
            return Err(DiskError::Unavailable { page: id });
        }
        if st.prefetched.contains(&id) {
            return Ok(());
        }
        if !st.buffer.contains(id) {
            self.check_fault(&mut st, id)?;
        }
        if !st.buffer.access(id) {
            st.stats.prefetch_reads += 1;
            Self::count_physical(&mut st, id);
            if let Some(obs) = &st.obs {
                obs.prefetch_reads.inc();
            }
        }
        st.buffer.pin(id);
        st.prefetched.insert(id);
        Ok(())
    }

    /// Rolls the fault plan for one physical read attempt of `id`. Called
    /// only for would-be buffer misses, with no accounting done yet.
    fn check_fault(&self, st: &mut DiskState, id: PageId) -> Result<(), DiskError> {
        let Some(plan) = st.fault_plan else {
            return Ok(());
        };
        let attempt = st.fault_attempts.get(&id).copied().unwrap_or(0);
        match plan.decide(id, attempt) {
            FaultDecision::Success { latency_spike } => {
                if latency_spike {
                    st.fault_stats.latency_spikes += 1;
                }
                st.successful_physical += 1;
                if let Some(k) = plan.kill_after {
                    if st.successful_physical >= k {
                        st.killed = true;
                    }
                }
                Ok(())
            }
            FaultDecision::Transient => {
                st.fault_stats.transient_errors += 1;
                *st.fault_attempts.entry(id).or_insert(0) += 1;
                if let Some(obs) = &st.obs {
                    obs.fault_transient.inc();
                }
                Err(DiskError::TransientRead { page: id, attempt })
            }
            FaultDecision::Corrupt => {
                st.fault_stats.corrupt_reads += 1;
                *st.fault_attempts.entry(id).or_insert(0) += 1;
                if let Some(obs) = &st.obs {
                    obs.fault_corrupt.inc();
                }
                let expected = self.checksums[id.0 as usize];
                Err(DiskError::CorruptPage {
                    page: id,
                    attempt,
                    expected,
                    actual: expected ^ plan.corruption_noise(id, attempt),
                })
            }
        }
    }

    /// Releases one pin taken by
    /// [`try_read_page_pinned`](Self::try_read_page_pinned).
    pub fn unpin_page(&self, id: PageId) {
        self.state().buffer.unpin(id);
    }

    /// Releases the pins of all staged pages that were never demanded
    /// (e.g. lookahead beyond the point where a query plan terminated).
    /// Their physical reads remain accounted — the prefetcher did issue
    /// them — but no logical read is ever recorded for them.
    pub fn drop_prefetch_pins(&self) {
        let mut st = self.state();
        let staged: Vec<PageId> = st.prefetched.iter().copied().collect();
        st.prefetched.clear();
        for id in staged {
            st.buffer.unpin(id);
        }
    }

    fn count_physical(st: &mut DiskState, id: PageId) {
        st.stats.physical_reads += 1;
        let sequential = match st.last_physical {
            Some(prev) => id.0 > prev.0 && id.0 - prev.0 <= SEQUENTIAL_SKIP_WINDOW,
            None => false,
        };
        if sequential {
            st.stats.sequential_reads += 1;
        } else {
            st.stats.random_reads += 1;
        }
        st.last_physical = Some(id);
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        self.state().stats
    }

    /// Resets the I/O and fault counters (keeps the buffer contents and the
    /// fault plan's attempt/kill state — counters are a view, not a device).
    pub fn reset_stats(&self) {
        let mut st = self.state();
        st.stats = IoStats::default();
        st.fault_stats = FaultStats::default();
        st.last_physical = None;
    }

    /// Empties the buffer (cold restart), resets counters, and revives the
    /// device: fault attempt counters and the kill switch start over (the
    /// installed fault plan, if any, stays).
    pub fn cold_restart(&self) {
        let mut st = self.state();
        st.buffer.clear();
        st.stats = IoStats::default();
        st.fault_stats = FaultStats::default();
        st.last_physical = None;
        st.prefetched.clear();
        st.fault_attempts.clear();
        st.successful_physical = 0;
        st.killed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Dataset;
    use crate::page::PageLayout;
    use mq_metric::Vector;

    fn disk(n_objects: usize, buffer_pages: usize) -> SimulatedDisk<Vector> {
        let ds = Dataset::new(
            (0..n_objects)
                .map(|i| Vector::new(vec![i as f32, 0.0]))
                .collect(),
        );
        // 3 records per page (8-byte payload + 16 header = 24; 72/24 = 3).
        let db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        SimulatedDisk::with_buffer_pages(db, buffer_pages)
    }

    #[test]
    fn sequential_scan_classification() {
        let d = disk(30, 1); // 10 pages, 1-page buffer
        for pid in d.database().page_ids().collect::<Vec<_>>() {
            d.read_page(pid);
        }
        let s = d.stats();
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.physical_reads, 10);
        // First page is a seek, the rest are sequential.
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, 9);
    }

    #[test]
    fn buffer_absorbs_rereads() {
        let d = disk(30, 10);
        for pid in d.database().page_ids().collect::<Vec<_>>() {
            d.read_page(pid);
        }
        for pid in d.database().page_ids().collect::<Vec<_>>() {
            d.read_page(pid);
        }
        let s = d.stats();
        assert_eq!(s.logical_reads, 20);
        assert_eq!(s.physical_reads, 10);
        assert_eq!(s.buffer_hits, 10);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn small_buffer_thrashes() {
        let d = disk(30, 2);
        for _ in 0..2 {
            for pid in d.database().page_ids().collect::<Vec<_>>() {
                d.read_page(pid);
            }
        }
        let s = d.stats();
        assert_eq!(
            s.buffer_hits, 0,
            "2-page LRU cannot serve a 10-page cyclic scan"
        );
        assert_eq!(s.physical_reads, 20);
    }

    #[test]
    fn random_access_pattern_counts_seeks() {
        let d = disk(30, 1);
        for &i in &[0u32, 5, 2, 8, 3] {
            d.read_page(PageId(i));
        }
        let s = d.stats();
        assert_eq!(s.random_reads, 5);
        assert_eq!(s.sequential_reads, 0);
    }

    #[test]
    fn reset_and_cold_restart() {
        let d = disk(30, 10);
        d.read_page(PageId(0));
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
        // Buffer still warm after reset_stats.
        d.read_page(PageId(0));
        assert_eq!(d.stats().buffer_hits, 1);
        d.cold_restart();
        d.read_page(PageId(0));
        assert_eq!(d.stats().buffer_hits, 0);
        assert_eq!(d.stats().physical_reads, 1);
    }

    #[test]
    fn fraction_sizing() {
        let ds = Dataset::new((0..300).map(|i| Vector::new(vec![i as f32, 0.0])).collect());
        let db = PagedDatabase::pack(&ds, PageLayout::new(72, 16)); // 100 pages
        let d = SimulatedDisk::new(db, PAPER_BUFFER_FRACTION);
        assert_eq!(d.buffer_capacity(), 10);
    }

    #[test]
    fn skip_window_counts_short_forward_jumps_as_sequential() {
        let d = disk(90, 1); // 30 pages
                             // Forward jumps within the window are sequential; larger jumps and
                             // any backward movement are seeks.
        for &i in &[0u32, 2, 4, 8, 13, 12, 20] {
            d.read_page(PageId(i));
        }
        let s = d.stats();
        // 0: random (first); 2,4,8: sequential (skips of 2,2,4);
        // 13: random (skip 5 > window); 12: random (backward);
        // 20: random (skip 8).
        assert_eq!(s.sequential_reads, 3);
        assert_eq!(s.random_reads, 4);
    }

    #[test]
    fn prefetch_accounts_io_at_schedule_time() {
        let d = disk(30, 4); // 10 pages
        d.try_prefetch(PageId(3)).unwrap();
        let s = d.stats();
        assert_eq!(s.logical_reads, 0, "a prefetch is not a logical read");
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.prefetch_reads, 1);
        assert_eq!(s.random_reads, 1);
        // The demand read is a pure buffer hit credited to the prefetcher.
        d.try_read_page_pinned(PageId(3)).unwrap();
        let s = d.stats();
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.prefetched_hits, 1);
        assert_eq!(s.physical_reads, 1, "no second physical read");
        d.unpin_page(PageId(3));
    }

    #[test]
    fn prefetch_sequential_classification_at_schedule_time() {
        let d = disk(30, 4);
        d.read_page(PageId(0));
        d.try_prefetch(PageId(1)).unwrap(); // adjacent to the last physical read
        let s = d.stats();
        assert_eq!(s.sequential_reads, 1);
        assert_eq!(s.prefetch_reads, 1);
    }

    #[test]
    fn prefetched_page_survives_eviction_until_demanded() {
        let d = disk(30, 1); // 1-page buffer: everything thrashes
        d.try_prefetch(PageId(5)).unwrap();
        // These demand reads would normally evict page 5 from a 1-page
        // buffer; the prefetch pin forces a temporary overflow instead.
        d.read_page(PageId(0));
        d.read_page(PageId(1));
        d.try_read_page_pinned(PageId(5)).unwrap();
        assert_eq!(d.stats().prefetched_hits, 1);
        d.unpin_page(PageId(5));
    }

    #[test]
    fn undemanded_prefetch_pins_are_dropped() {
        let d = disk(30, 1);
        d.try_prefetch(PageId(5)).unwrap();
        d.try_prefetch(PageId(5)).unwrap(); // idempotent: no second physical read
        assert_eq!(d.stats().prefetch_reads, 1);
        d.drop_prefetch_pins();
        // Page 5 is evictable again: a cold page replaces it, and a later
        // demand read of 5 misses.
        d.read_page(PageId(0));
        d.read_page(PageId(5));
        let s = d.stats();
        assert_eq!(s.prefetched_hits, 0);
        assert_eq!(s.physical_reads, 3);
    }

    #[test]
    fn read_page_pinned_counts_like_read_page() {
        let a = disk(30, 4);
        let b = disk(30, 4);
        for &i in &[0u32, 3, 1, 3, 9] {
            a.read_page(PageId(i));
            b.try_read_page_pinned(PageId(i)).unwrap();
            b.unpin_page(PageId(i));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn page_contents_served_correctly() {
        let d = disk(9, 2);
        let page = d.read_page(PageId(2));
        let (id, v) = (page.records()[0].0, &page.records()[0].1);
        assert_eq!(id.index(), 6);
        assert_eq!(v.components()[0], 6.0);
    }

    #[test]
    fn failed_attempts_leave_io_stats_untouched() {
        let d = disk(30, 4);
        d.set_fault_plan(Some(
            crate::FaultPlan::new(11)
                .with_transient(1.0)
                .with_max_faults_per_page(2),
        ));
        // Two injected failures, then success.
        assert!(d.try_read_page(PageId(0)).is_err());
        assert_eq!(
            d.stats(),
            IoStats::default(),
            "failure must not move I/O counters"
        );
        assert_eq!(d.buffer_len(), 0, "failure must not install the page");
        assert!(d.try_read_page(PageId(0)).is_err());
        assert!(d.try_read_page(PageId(0)).is_ok());
        let s = d.stats();
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(d.fault_stats().transient_errors, 2);
    }

    #[test]
    fn retried_run_matches_fault_free_stats() {
        let faulty = disk(30, 4);
        let clean = disk(30, 4);
        faulty.set_fault_plan(Some(
            crate::FaultPlan::new(77)
                .with_transient(0.4)
                .with_corrupt(0.2)
                .with_max_faults_per_page(3),
        ));
        for &i in &[0u32, 3, 1, 3, 9, 2, 1, 0, 5, 9] {
            // Retry until the per-page fault cap lets the read through.
            loop {
                if faulty.try_read_page(PageId(i)).is_ok() {
                    break;
                }
            }
            clean.read_page(PageId(i));
        }
        assert_eq!(faulty.stats(), clean.stats());
    }

    #[test]
    fn buffer_hits_never_fault() {
        let d = disk(30, 4);
        d.read_page(PageId(0)); // now resident
        d.set_fault_plan(Some(crate::FaultPlan::new(5).with_transient(1.0)));
        assert!(d.try_read_page(PageId(0)).is_ok(), "hits read from memory");
        assert!(
            d.try_read_page(PageId(1)).is_err(),
            "misses hit the platter"
        );
    }

    #[test]
    fn corrupt_page_reports_checksum_mismatch() {
        let d = disk(30, 4);
        d.set_fault_plan(Some(
            crate::FaultPlan::new(5)
                .with_corrupt(1.0)
                .with_max_faults_per_page(1),
        ));
        match d.try_read_page(PageId(2)) {
            Err(crate::DiskError::CorruptPage {
                page,
                expected,
                actual,
                ..
            }) => {
                assert_eq!(page, PageId(2));
                assert_eq!(expected, d.checksum(PageId(2)));
                assert_ne!(expected, actual);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        assert_eq!(d.fault_stats().corrupt_reads, 1);
        // The cap lets the retry through, and the page served is intact.
        let page = d.try_read_page(PageId(2)).expect("capped retry succeeds");
        assert_eq!(page.records()[0].0.index(), 6);
    }

    #[test]
    fn killed_disk_refuses_everything_including_hits() {
        let d = disk(30, 4);
        d.set_fault_plan(Some(crate::FaultPlan::new(1).with_kill_after(2)));
        d.read_page(PageId(0));
        d.read_page(PageId(1)); // second successful physical read: disk dies
        let err = d.try_read_page(PageId(0)).unwrap_err();
        assert_eq!(err, crate::DiskError::Unavailable { page: PageId(0) });
        assert!(!err.is_transient());
        assert!(d.is_killed());
        assert!(d.try_prefetch(PageId(3)).is_err());
        assert!(d.fault_stats().unavailable_reads >= 2);
        // cold_restart revives the device.
        d.cold_restart();
        assert!(!d.is_killed());
        assert!(d.try_read_page(PageId(0)).is_ok());
    }

    #[test]
    fn failed_prefetch_leaves_page_unstaged() {
        let d = disk(30, 4);
        d.set_fault_plan(Some(
            crate::FaultPlan::new(11)
                .with_transient(1.0)
                .with_max_faults_per_page(1),
        ));
        assert!(d.try_prefetch(PageId(4)).is_err());
        let s = d.stats();
        assert_eq!(s.prefetch_reads, 0);
        assert_eq!(s.physical_reads, 0);
        assert_eq!(d.pinned_pages(), 0, "failed prefetch must not pin");
        // The demand read re-rolls with the next attempt number (capped
        // at 1 fault, so it succeeds) and pays its own physical read.
        assert!(d.try_read_page(PageId(4)).is_ok());
        assert_eq!(d.stats().physical_reads, 1);
    }

    #[test]
    fn attached_recorder_mirrors_io_without_perturbing_it() {
        use mq_obs::Recorder;
        let observed = disk(30, 4);
        let plain = disk(30, 4);
        let recorder = Recorder::enabled();
        observed.attach_recorder(&recorder);
        let pattern = [0u32, 3, 1, 3, 9, 2, 1, 0];
        for &i in &pattern {
            observed.read_page(PageId(i));
            plain.read_page(PageId(i));
        }
        observed.try_prefetch(PageId(5)).unwrap();
        plain.try_prefetch(PageId(5)).unwrap();
        observed.try_read_page_pinned(PageId(5)).unwrap();
        plain.try_read_page_pinned(PageId(5)).unwrap();
        observed.unpin_page(PageId(5));
        plain.unpin_page(PageId(5));
        assert_eq!(
            observed.stats(),
            plain.stats(),
            "observability must never change I/O accounting"
        );
        let snap = recorder.snapshot();
        let s = observed.stats();
        assert_eq!(
            snap.value("mq_storage_buffer_reads_total{outcome=\"hit\",policy=\"lru\"}"),
            s.buffer_hits as f64
        );
        assert_eq!(
            snap.value("mq_storage_buffer_reads_total{outcome=\"miss\",policy=\"lru\"}"),
            (s.logical_reads - s.buffer_hits) as f64
        );
        assert_eq!(
            snap.value("mq_storage_prefetch_reads_total{policy=\"lru\"}"),
            s.prefetch_reads as f64
        );
        assert_eq!(
            snap.value("mq_storage_prefetched_hits_total{policy=\"lru\"}"),
            s.prefetched_hits as f64
        );
        let expected_ratio = s.buffer_hits as f64 / s.logical_reads as f64;
        assert!(
            (snap.value("mq_storage_buffer_hit_ratio{policy=\"lru\"}") - expected_ratio).abs()
                < 1e-12
        );
        assert_eq!(
            snap.value("mq_storage_prefetch_hit_ratio{policy=\"lru\"}"),
            1.0,
            "the one staged page was demanded"
        );
    }

    #[test]
    fn recorder_counts_fault_retries() {
        use mq_obs::Recorder;
        let d = disk(30, 4);
        let recorder = Recorder::enabled();
        d.attach_recorder(&recorder);
        d.set_fault_plan(Some(
            crate::FaultPlan::new(11)
                .with_transient(1.0)
                .with_max_faults_per_page(2),
        ));
        assert!(d.try_read_page(PageId(0)).is_err());
        assert!(d.try_read_page(PageId(0)).is_err());
        assert!(d.try_read_page(PageId(0)).is_ok());
        let snap = recorder.snapshot();
        assert_eq!(
            snap.value("mq_storage_fault_retries_total{kind=\"transient\"}"),
            2.0
        );
        // Detaching stops the mirroring.
        d.set_fault_plan(None);
        d.attach_recorder(&Recorder::disabled());
        d.read_page(PageId(1));
        assert_eq!(
            recorder
                .snapshot()
                .value("mq_storage_buffer_reads_total{outcome=\"miss\",policy=\"lru\"}"),
            1.0,
            "only the faulted page's eventual miss was recorded while attached"
        );
    }

    #[test]
    fn set_fault_plan_resets_bookkeeping() {
        let d = disk(30, 4);
        let plan = crate::FaultPlan::new(3)
            .with_transient(1.0)
            .with_max_faults_per_page(1);
        d.set_fault_plan(Some(plan));
        assert!(d.try_read_page(PageId(0)).is_err());
        assert_eq!(d.fault_stats().transient_errors, 1);
        // Reinstalling the same plan replays the same schedule.
        d.cold_restart();
        d.set_fault_plan(Some(plan));
        assert_eq!(d.fault_stats(), crate::FaultStats::default());
        assert!(d.try_read_page(PageId(0)).is_err(), "schedule replays");
        d.set_fault_plan(None);
        assert!(d.try_read_page(PageId(0)).is_ok());
    }

    #[test]
    fn a_panic_under_the_state_lock_leaves_the_disk_serving() {
        let d = disk(30, 2);
        d.read_page(PageId(0));
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = d.state.lock();
                panic!("disk state holder panics");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(d.state.is_poisoned());
        assert_eq!(d.stats().logical_reads, 1);
        d.read_page(PageId(0));
        let s = d.stats();
        assert_eq!((s.logical_reads, s.buffer_hits), (2, 1));
    }
}
