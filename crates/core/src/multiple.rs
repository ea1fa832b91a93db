//! The multiple-similarity-query session and its incremental step
//! (Definition 4 / Fig. 4 / §5.1).
//!
//! A [`MultiQuerySession`] is the paper's "internal buffer of the DBMS": it
//! holds, for every admitted query, the partial answer list, the set of
//! data pages already evaluated for it, and (implicitly, via the answer
//! list) its current query distance. One
//! [`QueryEngine::multiple_query_step`](crate::QueryEngine::multiple_query_step)
//! call is one invocation of the paper's `multiple_similarity_query`:
//! it answers the first pending query **completely** and advances all
//! trailing queries **opportunistically** on every page it loads.
//!
//! # Page evaluation: kernels and snapshots
//!
//! Each loaded page is evaluated once, on the calling thread, by
//! `evaluate_page`, which processes the page query-major: per active query
//! it first filters the page's objects through §5.2 avoidance, then
//! computes the surviving distances with the metric's batch kernel
//! ([`Metric::distance_batch`]) — or, for the last active query, whose
//! distances are never needed as pivots, with the early-exit bounded kernel
//! ([`Metric::distance_le`]). When that query is the page's only one, its
//! loop hints each survivor's payload into cache `LOOK_AHEAD` survivors
//! ahead.
//!
//! The page's computed distances — the pivots of the queries that follow —
//! are stored column-major: `dists[qi * n + oi]`, one contiguous column of
//! `n` records per active query, `NaN` where the distance was avoided and
//! is therefore unknown. The filter (`avoidance_sweep`) is pivot-major: for
//! each earlier active query, in active order, it loads `dist(Qi, Qp)` and
//! `dist(Qi, Qp) + QueryDist(Qi)` once and sweeps the records still alive,
//! dropping those either lemma excludes, without a data-dependent branch.
//!
//! # Records that are queries
//!
//! A query admitted by database id
//! ([`QueryEngine::push_stored_query`](crate::QueryEngine::push_stored_query))
//! is also a record on some page. At each page read, `step` looks up which
//! admitted ids live on the page (`PagedDatabase::try_locate`, so online
//! inserts, deletes and checkpoints cannot make it stale). Those records
//! skip the sweep and the kernel for every active query: their distance to
//! query `i` is `qq.get(i, j)`, counted as [`AvoidanceStats::reused`]. It
//! has the kernel's bits because [`Metric`] requires bitwise symmetry. A
//! query's own record is the exception: the matrix has no diagonal, so it
//! is evaluated like any record.
//!
//! # Cost-aware avoidance: which pivots pay
//!
//! §5.2 trades a distance calculation for comparisons because §6.2 priced a
//! comparison 52–155× below a distance. On current hardware one sweep
//! *visit* (a record tested against one pivot) costs about a sixth of a
//! 20-d distance, and on near-uniform data most pivots remove too little to
//! pay for their pass. So the sweep consults a pivot *rank* — the pivot's
//! position in the page's active order — only while, by the session's own
//! record, that rank pays:
//!
//! * **Ledger.** Each session keeps, per rank, the survivors the sweep
//!   visited and the records it removed (`RankLedger`), weighted by
//!   recency: each evaluated page ages what it holds by 15/16 and adds the
//!   page's counts. It is a pure function of the session's page sequence —
//!   as deterministic, and as independent of the prefetch depth, as the
//!   page sequence itself.
//! * **Price.** [`Metric::distance_price`] prices one distance in visits,
//!   for the query's payload; it is taken once per query at admission.
//! * **Rule.** On a page of `n` records, query `i` consults rank `r` iff
//!   `removed_r × price_i ≥ visited_r`: the rank removed at least one
//!   record per `price_i` visits. A rank with less than one page of history
//!   — fewer visits than the page's `n` distances cost, `n × price_i` — is
//!   always consulted. So a rank that was cut comes back: its visits age
//!   while it is not consulted, until it has less than a page of history
//!   again, and its fresh counts then outweigh the old. Verdicts rest on
//!   the last ~16 pages because k-NN bounds tighten over a session, and
//!   with them what a pivot removes.
//!
//! History is counted in the price's currency because visits on one page
//! are not independent samples: on clustered data a pivot removes nothing
//! on most pages and a great deal on a few. With history counted in records
//! instead, a 40-query edit-distance session on an M-tree (17 pages) cut
//! ranks on their first page and computed 25 % more distances than with
//! every rank; counted in distances it computes 2 % more.
//!
//! The gate only ever *skips* a pivot, so a record it keeps is one more
//! distance calculation and nothing else: answers, the demanded page
//! sequence and [`IoStats`](mq_storage::IoStats) are those of the ungated
//! sweep. On the ranks it consults, the sweep makes exactly Fig. 5's
//! comparisons ([`QueryDistanceMatrix::try_avoid`], kept as the reference)
//! in Fig. 5's order, and every record it removes Fig. 5 removes too; a
//! metric priced at `f64::INFINITY` never cuts a rank and reproduces Fig. 5's
//! verdicts and [`AvoidanceStats`] exactly.
//!
//! Two facts about the evaluation that callers and tests rely on:
//!
//! * **Query distances are snapshotted per page**, not refreshed per
//!   object. A snapshot distance is never smaller than the refreshed one,
//!   so at worst a few extra candidates are inserted — and an [`AnswerList`]
//!   is an order-independent top-k by `(distance, id)` with truncation, so
//!   the final answers, the adapted query distance, and therefore the page
//!   sequence and I/O counts are unchanged. (This also hoists the repeated
//!   `query_dist` match out of the inner loop.)
//! * **Answers are inserted in place, in the same order.** Right after a
//!   query's sweep and kernel on a page, its candidates go into its answer
//!   list: the evaluated records in record order, then the reused ones in
//!   slot order. Inserting them only after the whole page would give the
//!   same bits, because no bound of any query on the page is read from an
//!   answer list: each comes from the page's snapshot.
//!
//! # Pipelined prefetch
//!
//! With `EngineOptions::prefetch_depth = d > 0`, the step keeps a window
//! of up to `d` pages staged ahead of the one being evaluated
//! ([`PageStore::try_prefetch`]); staged pages are pinned so buffer
//! pressure cannot evict them before their demand read. Determinism
//! argument: the page plan is best-first (non-decreasing lower bounds)
//! and `plan.next(qd)` prunes exactly the entries with `lb > qd`, so the
//! *demanded* page sequence is depth-invariant — a window entry whose
//! recorded lower bound exceeds the current query distance terminates the
//! loop exactly where a depth-0 `plan.next` would have returned `None`
//! (every later entry has a lower bound at least as large). Prefetch I/O
//! is accounted at *schedule* time, so `IoStats` are reproducible for any
//! interleaving of evaluation and staging; `logical_reads`, per-query
//! answers, counters, and processed-page sets are depth-invariant, while
//! `physical_reads` may include window entries that were staged but never
//! demanded.
//!
//! # Admission order
//!
//! The first-admitted pending query leads each call (Fig. 4). Per-query
//! final answers do not depend on the order queries were admitted in: each
//! query's answer list is a pure function of its own evaluated pages, and
//! every query is eventually evaluated against every page its final query
//! distance cannot prune.

use crate::answers::{Answer, AnswerList};
use crate::avoidance::{AvoidanceStats, QueryDistanceMatrix};
use crate::engine::EngineOptions;
use crate::fault::{self, EngineError};
use crate::obs::EngineObs;
use crate::query::QueryType;
use crate::single::LOOK_AHEAD;
use mq_index::SimilarityIndex;
use mq_metric::{Metric, ObjectId};
use mq_storage::{PageId, PageStore, StorageObject};
use std::collections::VecDeque;

/// A compact bitset over page ids — the per-query `processed pages` set.
#[derive(Clone, Debug)]
pub struct PageSet {
    words: Vec<u64>,
    len: usize,
}

impl PageSet {
    /// An empty set over a universe of `page_count` pages.
    pub fn new(page_count: usize) -> Self {
        Self {
            words: vec![0; page_count.div_ceil(64)],
            len: 0,
        }
    }

    /// Whether `page` is in the set.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        let i = page.index();
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts `page`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, page: PageId) -> bool {
        let i = page.index();
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the universe to `page_count` pages (no-op when not larger) —
    /// an online insert can append a fresh page to the stored database
    /// while sessions are in flight.
    pub fn grow(&mut self, page_count: usize) {
        let words = page_count.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// The pages of the set in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64u32)
                .filter(move |b| (bits >> b) & 1 == 1)
                .map(move |b| PageId(w as u32 * 64 + b))
        })
    }
}

pub(crate) struct QueryState {
    pub(crate) qtype: QueryType,
    pub(crate) answers: AnswerList,
    pub(crate) processed: PageSet,
    pub(crate) completed: bool,
}

/// The state of one multiple similarity query across incremental calls —
/// partial answers, processed-page sets, the inter-query distance matrix,
/// and the avoidance counters.
///
/// Sessions are created by
/// [`QueryEngine::new_session`](crate::QueryEngine::new_session); new query
/// objects can be admitted at any time with
/// [`QueryEngine::push_query`](crate::QueryEngine::push_query), or by
/// database id with
/// [`QueryEngine::push_stored_query`](crate::QueryEngine::push_stored_query)
/// (the dynamic behaviour of `ExploreNeighborhoodsMultiple`, §5.1).
pub struct MultiQuerySession<O> {
    /// Query objects, indexed like `states`. Kept apart from the mutable
    /// per-query state so that page evaluation can borrow the objects (and
    /// `qq`) immutably while it inserts into answer lists.
    pub(crate) objects: Vec<O>,
    /// The database id of each query object admitted by id, indexed like
    /// `objects` (`None` for an object admitted by value).
    pub(crate) ids: Vec<Option<ObjectId>>,
    /// [`Metric::distance_price`] of each query object, indexed like
    /// `objects`.
    pub(crate) prices: Vec<f64>,
    pub(crate) states: Vec<QueryState>,
    pub(crate) qq: QueryDistanceMatrix,
    pub(crate) avoidance_stats: AvoidanceStats,
    /// What each pivot rank has removed so far: the avoidance gate.
    pub(crate) ledger: RankLedger,
    pub(crate) page_count: usize,
    scratch: PageScratch,
}

impl<O> MultiQuerySession<O> {
    pub(crate) fn with_page_count(page_count: usize) -> Self {
        Self {
            objects: Vec::new(),
            ids: Vec::new(),
            prices: Vec::new(),
            states: Vec::new(),
            qq: QueryDistanceMatrix::new(),
            avoidance_stats: AvoidanceStats::default(),
            ledger: RankLedger::default(),
            page_count,
            scratch: PageScratch::default(),
        }
    }

    /// Number of admitted queries.
    pub fn query_count(&self) -> usize {
        self.states.len()
    }

    /// The (possibly partial) answers of query `i` — Definition 4
    /// guarantees `answers(i) ⊆ similarity_query(Qi, Ti)` at all times, and
    /// equality once [`is_complete`](Self::is_complete)`(i)`.
    pub fn answers(&self, i: usize) -> &AnswerList {
        &self.states[i].answers
    }

    /// Whether query `i` has been answered completely.
    pub fn is_complete(&self, i: usize) -> bool {
        self.states[i].completed
    }

    /// The query object of query `i`.
    pub fn query_object(&self, i: usize) -> &O {
        &self.objects[i]
    }

    /// The query type of query `i`.
    pub fn query_type(&self, i: usize) -> &QueryType {
        &self.states[i].qtype
    }

    /// Index of the next pending (not yet completed) query, if any.
    pub fn next_pending(&self) -> Option<usize> {
        self.states.iter().position(|s| !s.completed)
    }

    /// Indices of all pending queries.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| !self.states[i].completed)
            .collect()
    }

    /// Number of data pages evaluated for query `i` so far.
    pub fn pages_processed(&self, i: usize) -> usize {
        self.states[i].processed.len()
    }

    /// The data pages evaluated for query `i` so far, in ascending page
    /// order. For a completed query this set is an invariant of the query
    /// (the prefetch depth does not change it).
    pub fn processed_pages(&self, i: usize) -> Vec<PageId> {
        self.states[i].processed.iter().collect()
    }

    /// The accumulated triangle-inequality counters (§5.2).
    pub fn avoidance_stats(&self) -> AvoidanceStats {
        self.avoidance_stats
    }

    /// Consumes the session into the final answer lists, one per query, in
    /// admission order.
    pub fn into_answers(self) -> Vec<Vec<Answer>> {
        self.states
            .into_iter()
            .map(|s| s.answers.into_vec())
            .collect()
    }

    /// Grows the session's page universe (after an online insert appended
    /// a fresh page). No-op when `page_count` is not larger.
    pub(crate) fn grow(&mut self, page_count: usize) {
        if page_count > self.page_count {
            self.page_count = page_count;
            for st in &mut self.states {
                st.processed.grow(page_count);
            }
        }
    }
}

/// Folds one newly inserted object into an in-flight session, preserving
/// Definition 4's subset guarantee without rescanning anything.
///
/// Only the queries whose view of the affected page is already fixed need
/// the new object evaluated now: completed queries (their answers claim to
/// equal the full answer set, which now includes the newcomer) and pending
/// queries that have `page` in their processed set (the normal step loop
/// will never revisit it). Every other pending query picks the object up
/// when its own processing reaches the page. The distance goes through
/// `metric`, so it is counted like any other calculation.
///
/// Returns how many queries evaluated the new object.
pub(crate) fn notify_insert<O, M>(
    session: &mut MultiQuerySession<O>,
    metric: &M,
    new_id: ObjectId,
    object: &O,
    page: PageId,
    page_count: usize,
) -> usize
where
    O: StorageObject,
    M: Metric<O>,
{
    session.grow(page_count);
    let MultiQuerySession {
        objects, states, ..
    } = &mut *session;
    let mut evaluated = 0;
    for (i, st) in states.iter_mut().enumerate() {
        if !(st.completed || st.processed.contains(page)) {
            continue;
        }
        evaluated += 1;
        let bound = st.answers.query_dist(&st.qtype);
        if let Some(distance) = metric.distance_le(object, &objects[i], bound) {
            st.answers.insert(Answer {
                id: new_id,
                distance,
            });
        }
    }
    evaluated
}

/// Invalidates the per-query state impacted by a deletion: only queries
/// whose answer list contains the deleted id are reset to pending (a k-NN
/// answer set that loses a member must re-admit objects its old, tighter
/// query distance had pruned — so answers *and* processed pages restart).
/// Queries that never answered with the object keep their state: their
/// partial answers remain valid subsets of the new full answer sets.
///
/// Returns how many queries were invalidated.
pub(crate) fn notify_delete<O: StorageObject>(
    session: &mut MultiQuerySession<O>,
    id: ObjectId,
) -> usize {
    let page_count = session.page_count;
    let mut invalidated = 0;
    for st in &mut session.states {
        if st.answers.as_slice().iter().any(|a| a.id == id) {
            st.answers = AnswerList::new(&st.qtype);
            st.processed = PageSet::new(page_count);
            st.completed = false;
            invalidated += 1;
        }
    }
    invalidated
}

/// Admits one more query into the session: allocates its state, prices its
/// distances, and extends the `QObjDists` matrix (costing `current_m`
/// distance calculations — §5.2's initialization overhead, charged through
/// `metric`). `id` is the object's database id when it was admitted by id.
pub(crate) fn admit<O: StorageObject, M: Metric<O>>(
    session: &mut MultiQuerySession<O>,
    metric: &M,
    object: O,
    id: Option<ObjectId>,
    qtype: QueryType,
) -> usize {
    session.qq.admit(metric, session.objects.iter(), &object);
    let answers = AnswerList::new(&qtype);
    session
        .prices
        .push(metric.distance_price(object.payload_bytes()));
    session.objects.push(object);
    session.ids.push(id);
    session.states.push(QueryState {
        qtype,
        answers,
        processed: PageSet::new(session.page_count),
        completed: false,
    });
    session.states.len() - 1
}

/// The buffers of page evaluation, owned by the session and reused from
/// page to page and step to step: a warm session evaluates pages without
/// allocating. (Record indices are `u32`: a page holds far fewer than 2³²
/// records, and the sweep moves half the bytes.)
#[derive(Default)]
struct PageScratch {
    /// The page's active queries, the head first, and the snapshot of their
    /// query distances (see the module docs for why it changes nothing).
    active: Vec<usize>,
    qd: Vec<f64>,
    /// The pending trailing queries of a page with their query distances,
    /// and their lower bounds to the page.
    trailing: Vec<(usize, f64)>,
    trailing_lbs: Vec<f64>,
    /// The page's `(slot, query)` pairs of admitted queries stored on it.
    residents: Vec<(u32, usize)>,
    /// The page's per-rank tally, added to the session's ledger after it.
    ranks: RankLedger,
    /// The lookahead window over the head's page plan: the page to demand
    /// next, then the pages staged (and pinned) behind it, each with the
    /// lower bound the plan reported (see "Pipelined prefetch" above).
    window: VecDeque<(PageId, f64)>,
    /// The records every active query starts from: all of the page's less
    /// the residents.
    eligible: Vec<u32>,
    /// The page's pivot columns (see `evaluate_page`).
    dists: Vec<f64>,
    /// One query's records left by the sweep, and its batch kernel's output.
    survivors: Vec<u32>,
    out: Vec<f64>,
}

/// Per pivot rank — a pivot's position in a page's active order — the
/// survivors the avoidance sweep visited and the records it removed. A
/// page's evaluation tallies its own counts in one; a session's ledger holds
/// them weighted by recency and decides which ranks the sweep consults (see
/// the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RankLedger {
    visited: Vec<f64>,
    removed: Vec<f64>,
}

impl RankLedger {
    /// How much of what the ledger held survives each further page: its
    /// counts weigh the last ~16 pages. k-NN bounds tighten over a session,
    /// and with them what a pivot removes, so old evidence must fade; and a
    /// rank that was cut loses its history and is consulted again.
    const KEEP: f64 = 15.0 / 16.0;

    /// Zeroes the counts and sizes them for `ranks` ranks: a page's tally,
    /// reused from page to page.
    fn reset(&mut self, ranks: usize) {
        self.visited.clear();
        self.visited.resize(ranks, 0.0);
        self.removed.clear();
        self.removed.resize(ranks, 0.0);
    }

    /// Whether a query priced `price` consults `rank` on the session's next
    /// page, of `n` records: iff `removed × price ≥ visited` — the rank pays
    /// — or `n × price ≥ visited` — the rank has spent less than one page of
    /// distances on visits, too little history to judge it by. A rank the
    /// ledger has no entry for is always consulted.
    fn consults(&self, rank: usize, n: usize, price: f64) -> bool {
        match self.visited.get(rank) {
            Some(&visited) => self.removed[rank].max(n.max(1) as f64) * price >= visited,
            None => true,
        }
    }

    /// Ages the ledger by one page and adds that page's counts.
    fn add(&mut self, page: &RankLedger) {
        if page.visited.len() > self.visited.len() {
            self.visited.resize(page.visited.len(), 0.0);
            self.removed.resize(page.removed.len(), 0.0);
        }
        for count in self.visited.iter_mut().chain(&mut self.removed) {
            *count *= Self::KEEP;
        }
        for (r, (&v, &x)) in page.visited.iter().zip(&page.removed).enumerate() {
            self.visited[r] += v;
            self.removed[r] += x;
        }
    }
}

/// The avoidance sweep: §5.2's Lemma 1 / Lemma 2 filter for one query
/// against a whole page, pivot-major, over the pivot ranks `consult`
/// accepts.
///
/// `survivors` holds page-local record indices; on return it holds those
/// whose distance to query `i` could not be proven larger than `bound`, in
/// their original order. `pivots` are the earlier active queries in active
/// order and `columns[pj * n + oi]` is the distance of record `oi` to
/// `pivots[pj]` (`NaN` = never computed, so that pivot is unknown for that
/// record). Each consulted rank's visits and removals are added to `ranks`.
///
/// Per surviving record this evaluates exactly the two comparisons of
/// [`QueryDistanceMatrix::try_avoid`] for each consulted pivot, in pivot
/// order, and a record leaves the list at the first comparison that fires —
/// so verdicts and [`AvoidanceStats`] equal Fig. 5's early-exit loop over
/// the consulted pivots, and equal Fig. 5 itself when every rank is
/// consulted. The inner loop has no data-dependent branch: a `NaN` distance
/// fails both comparisons and counts no try.
#[allow(clippy::too_many_arguments)]
fn avoidance_sweep(
    qq: &QueryDistanceMatrix,
    i: usize,
    pivots: &[usize],
    columns: &[f64],
    n: usize,
    bound: f64,
    consult: impl Fn(usize) -> bool,
    survivors: &mut Vec<u32>,
    stats: &mut AvoidanceStats,
    ranks: &mut RankLedger,
) {
    // An infinite query distance (k-NN before k answers) can never be
    // exceeded: no lemma can fire and, as in `try_avoid`, none is tried.
    if bound.is_infinite() {
        return;
    }
    for (pj, &p) in pivots.iter().enumerate() {
        if survivors.is_empty() {
            break;
        }
        if !consult(pj) {
            continue;
        }
        let column = &columns[pj * n..(pj + 1) * n];
        let d_ij = qq.get(i, p);
        let lemma1_limit = d_ij + bound;
        let mut tries = 0u64;
        let mut kept = 0;
        for k in 0..survivors.len() {
            let oi = survivors[k];
            let d = column[oi as usize];
            let known = !d.is_nan();
            // Lemma 1 (strict): dist(O,Qp) > dist(Qi,Qp) + QueryDist(Qi).
            let lemma1 = d > lemma1_limit;
            // Lemma 2 (strict): dist(Qi,Qp) > dist(O,Qp) + QueryDist(Qi).
            let lemma2 = d_ij > d + bound;
            tries += u64::from(known) + u64::from(known & !lemma1);
            survivors[kept] = oi;
            kept += usize::from(!(lemma1 | lemma2));
        }
        let removed = (survivors.len() - kept) as u64;
        stats.tries += tries;
        stats.avoided += removed;
        ranks.visited[pj] += survivors.len() as f64;
        ranks.removed[pj] += removed as f64;
        survivors.truncate(kept);
    }
}

impl PageScratch {
    /// Evaluates one page's records against the active queries and inserts
    /// each query's candidates into its answer list.
    ///
    /// Query-major: for each active query the page's records are first
    /// filtered by [`avoidance_sweep`] (using pivot distances of *earlier*
    /// active queries, recorded in a page-local column-major matrix, over
    /// the ranks the session's `ledger` says pay at the query's price), then
    /// the surviving distances are computed with the batch kernel and land
    /// in the query's own column. The last active query skips pivot
    /// recording and uses the early-exit bounded kernel, since no later
    /// query will consult its distances.
    ///
    /// `residents` are the `(slot, query)` pairs of admitted queries whose
    /// records lie on the page, sorted (so two queries admitted with the
    /// same id share one record, reused once). No query
    /// sweeps or computes such a record: its distance to every active query
    /// but its own is `qq`'s, taken as the kernel would have returned it
    /// (metrics are bitwise symmetric) and counted as `reused`. Its own query
    /// evaluates it like any other record, because `qq` has no diagonal (a
    /// signed score such as `DotProduct` is not `0` at distance zero).
    #[allow(clippy::too_many_arguments)]
    fn evaluate_page<'r, O, M>(
        &mut self,
        records: &'r [(ObjectId, O)],
        batch: &mut Vec<&'r O>,
        queries: &[O],
        prices: &[f64],
        qq: &QueryDistanceMatrix,
        ledger: &RankLedger,
        states: &mut [QueryState],
        stats: &mut AvoidanceStats,
        metric: &M,
        avoidance: bool,
    ) where
        O: StorageObject,
        M: Metric<O>,
    {
        let n = records.len();
        let m = self.active.len();
        self.ranks.reset(m - 1);
        let residents = &self.residents;
        let resident = |oi: &u32| residents.binary_search_by_key(oi, |&(s, _)| s).is_ok();
        self.eligible.clear();
        self.eligible
            .extend((0..n as u32).filter(|oi| !resident(oi)));
        // dists[qi * n + oi] = distance of records[oi] to query active[qi];
        // NaN = avoided / not computed. This is the paper's per-object
        // `AvoidingDists` for the whole page, one contiguous column per pivot.
        // The last active query is nobody's pivot and has no column.
        self.dists.clear();
        self.dists.resize(n * (m - 1), f64::NAN);
        // No query keeps more than the page's records.
        batch.reserve(n);

        for (qi, (&i, &bound)) in self.active.iter().zip(&self.qd).enumerate() {
            let answers = &mut states[i].answers;
            let survivors = &mut self.survivors;
            survivors.clear();
            survivors.extend_from_slice(&self.eligible);
            let own = residents
                .iter()
                .find(|&&(_, j)| j == i)
                .map(|&(slot, _)| slot);
            if let Some(slot) = own {
                survivors.insert(survivors.partition_point(|&oi| oi < slot), slot);
            }
            if avoidance {
                // A record that leaves the list has dist(Qi, O) >
                // QueryDist(Qi) proven — it cannot answer Qi now or later
                // (the query distance only shrinks).
                let price = prices[i];
                avoidance_sweep(
                    qq,
                    i,
                    &self.active[..qi],
                    &self.dists,
                    n,
                    bound,
                    |rank| ledger.consults(rank, n, price),
                    survivors,
                    stats,
                    &mut self.ranks,
                );
            }
            stats.computed += survivors.len() as u64;
            if qi + 1 == m {
                // The payloads are cold only when this query is the page's
                // first (m = 1, the open-loop serving case): any earlier
                // query has no pivots, so its batch kernel read every
                // eligible record and a hint would only cost instructions.
                let cold = m == 1;
                for (k, &oi) in survivors.iter().enumerate() {
                    if let Some(&ahead) = survivors.get(k + LOOK_AHEAD).filter(|_| cold) {
                        records[ahead as usize].1.prefetch_payload();
                    }
                    let (id, object) = &records[oi as usize];
                    if let Some(distance) = metric.distance_le(object, &queries[i], bound) {
                        answers.insert(Answer { id: *id, distance });
                    }
                }
            } else {
                batch.clear();
                batch.extend(survivors.iter().map(|&oi| &records[oi as usize].1));
                self.out.clear();
                self.out.resize(survivors.len(), 0.0);
                metric.distance_batch(&queries[i], batch, &mut self.out);
                let column = &mut self.dists[qi * n..(qi + 1) * n];
                for (&oi, &distance) in survivors.iter().zip(&self.out) {
                    column[oi as usize] = distance;
                    if distance <= bound {
                        let id = records[oi as usize].0;
                        answers.insert(Answer { id, distance });
                    }
                }
            }
            for (k, &(slot, j)) in residents.iter().enumerate() {
                if Some(slot) == own || (k > 0 && residents[k - 1].0 == slot) {
                    continue;
                }
                stats.reused += 1;
                let distance = qq.get(i, j);
                if distance <= bound {
                    let id = records[slot as usize].0;
                    answers.insert(Answer { id, distance });
                }
            }
        }
    }
}

/// Releases one demand-read pin when dropped — including during an unwind
/// (a panicking metric must not leak the pin and leave the page
/// permanently unevictable).
struct PinGuard<'a, O: StorageObject> {
    disk: &'a dyn PageStore<O>,
    page: PageId,
}

impl<O: StorageObject> Drop for PinGuard<'_, O> {
    fn drop(&mut self) {
        self.disk.unpin_page(self.page);
    }
}

/// Releases all outstanding prefetch pins when dropped — on normal step
/// completion, on an error return, and during an unwind alike. Window
/// entries staged beyond the termination point keep their accounted
/// physical reads but must release their frames.
struct PrefetchPinsGuard<'a, O: StorageObject> {
    disk: &'a dyn PageStore<O>,
}

impl<O: StorageObject> Drop for PrefetchPinsGuard<'_, O> {
    fn drop(&mut self) {
        self.disk.drop_prefetch_pins();
    }
}

/// One incremental multiple-query call (Fig. 4): completes the first
/// pending query, opportunistically advancing every other pending query on
/// each loaded page that is relevant for it. Returns the index of the
/// completed query, or `None` when every admitted query is already
/// complete.
///
/// A disk fault that outlives `options.fault_policy`'s retry budget
/// surfaces as [`EngineError`] with the session intact: pages evaluated
/// before the error are recorded as processed, the erroring page is not,
/// so partial answers stay valid and a retried step resumes without
/// re-evaluating (or double-inserting from) any completed page. A metric
/// that panics mid-page leaves that page's answers half inserted: drop
/// such a session.
pub(crate) fn step<O, M, I>(
    session: &mut MultiQuerySession<O>,
    disk: &dyn PageStore<O>,
    index: &I,
    metric: &M,
    options: EngineOptions,
    obs: Option<&EngineObs>,
) -> Result<Option<usize>, EngineError>
where
    O: StorageObject,
    M: Metric<O>,
    I: SimilarityIndex<O> + ?Sized,
{
    let Some(head) = session.next_pending() else {
        return Ok(None);
    };

    // Capability-gated execution: a distance function without the
    // triangle inequality (e.g. dot product) makes §5.2 avoidance
    // unsound, so mask it off here — every evaluation site below receives
    // this masked copy. Signed distances additionally make `0` useless as
    // a page lower bound: `plan_bound` widens the planning/pruning bound
    // to ∞ so no page (or trailing query) is wrongly pruned against a
    // negative query distance, while answer insertion and `distance_le`
    // still use the real (possibly negative) bounds.
    let mut options = options;
    options.avoidance &= metric.supports_triangle_avoidance();
    let nonneg = metric.nonnegative();
    let plan_bound = move |qd: f64| if nonneg { qd } else { f64::INFINITY };

    // Observability is strictly read-only over the step: it duplicates
    // counter deltas and wall-clock spans into the recorder's registry and
    // never feeds anything back, so answers, AvoidanceStats and IoStats
    // are bit-identical with `obs` present or absent. The step span guard
    // records on every exit — success, fault error, or unwind.
    let step_span = obs.map(|o| o.step_seconds.start_timer());
    let avoidance_before = session.avoidance_stats;

    // Split the session so page evaluation can hold `objects`, `prices` and
    // `qq` immutably while it mutates `states` / `avoidance_stats` and its
    // `scratch`.
    let MultiQuerySession {
        objects,
        ids,
        prices,
        states,
        qq,
        avoidance_stats,
        ledger,
        scratch,
        ..
    } = &mut *session;

    let head_object = objects[head].clone();
    let mut plan = index.plan(&head_object);

    // The references a page gathers live for the step, not in the scratch:
    // the trailing queries' objects and the records of a kernel batch.
    let mut trailing_objects: Vec<&O> = Vec::new();
    let mut batch: Vec<&O> = Vec::new();
    // A step that ended before its plan did leaves staged entries behind.
    scratch.window.clear();

    // Dropped on every exit path — return, error, or unwind.
    let _prefetch_pins = PrefetchPinsGuard { disk };

    loop {
        let head_state = &states[head];
        let head_dist = head_state.answers.query_dist(&head_state.qtype);
        while scratch.window.len() < options.prefetch_depth + 1 {
            let Some((page_id, lb)) = plan.next(plan_bound(head_dist)) else {
                break;
            };
            if states[head].processed.contains(page_id) {
                // Already evaluated for the head while it was a trailing
                // query of an earlier call — that page is free now.
                continue;
            }
            if !scratch.window.is_empty() {
                // A prefetch that faults past the budget is absorbed: the
                // page enters the window unstaged and the demand read below
                // performs (and re-rolls) the physical read itself.
                fault::prefetch_absorbing(disk, page_id, options.fault_policy);
            }
            scratch.window.push_back((page_id, lb));
        }
        let Some((page_id, lb)) = scratch.window.pop_front() else {
            break;
        };
        if lb > plan_bound(head_dist) {
            // The query distance shrank below this staged page's lower
            // bound: a fresh plan would prune it, and every remaining
            // window entry has an even larger bound. Terminate exactly
            // where the unpipelined loop would.
            break;
        }

        // Which pending queries is this page relevant for? (§5.1: "we
        // also collect answers for the Qi if the pages loaded for Q1
        // are also relevant for Qi".)
        scratch.trailing.clear();
        scratch.trailing.extend(
            states
                .iter()
                .enumerate()
                .filter(|&(i, st)| i != head && !st.completed && !st.processed.contains(page_id))
                .map(|(i, st)| (i, st.answers.query_dist(&st.qtype))),
        );
        trailing_objects.clear();
        trailing_objects.extend(scratch.trailing.iter().map(|&(i, _)| &objects[i]));
        scratch.trailing_lbs.resize(scratch.trailing.len(), 0.0);
        index.page_mindists(&trailing_objects, page_id, &mut scratch.trailing_lbs);
        scratch.active.clear();
        scratch.qd.clear();
        scratch.active.push(head);
        scratch.qd.push(head_dist);
        for (&(i, qd), &lb) in scratch.trailing.iter().zip(&scratch.trailing_lbs) {
            if lb <= plan_bound(qd) {
                scratch.active.push(i);
                scratch.qd.push(qd);
            }
        }
        // Which admitted queries are stored on this page? Looked up at every
        // read, so no online insert, delete or checkpoint can make it stale.
        let db = disk.database();
        scratch.residents.clear();
        scratch
            .residents
            .extend(ids.iter().enumerate().filter_map(|(j, &id)| {
                let (page, slot) = db.try_locate(id?)?;
                (page == page_id).then_some((slot, j))
            }));
        scratch.residents.sort_unstable();

        let fetch_span = obs.map(|o| o.fetch_seconds.start_timer());
        let records =
            fault::read_page_pinned_with_retry(disk, page_id, options.fault_policy)?.records();
        drop(fetch_span);
        // Pin released at the end of this iteration — or during an unwind,
        // if evaluation panics.
        let _pin = PinGuard {
            disk,
            page: page_id,
        };
        let eval_span = obs.map(|o| o.eval_seconds.start_timer());
        scratch.evaluate_page(
            records,
            &mut batch,
            objects,
            prices,
            qq,
            ledger,
            states,
            avoidance_stats,
            metric,
            options.avoidance,
        );
        drop(eval_span);
        let merge_span = obs.map(|o| o.merge_seconds.start_timer());
        ledger.add(&scratch.ranks);
        for &i in &scratch.active {
            states[i].processed.insert(page_id);
        }
        drop(merge_span);
    }

    session.states[head].completed = true;
    if let Some(o) = obs {
        o.steps.inc();
        o.queries_completed.inc();
        let after = session.avoidance_stats;
        o.avoid_tries.add(after.tries - avoidance_before.tries);
        o.dist_avoided.add(after.avoided - avoidance_before.avoided);
        o.dist_performed
            .add(after.computed - avoidance_before.computed);
        o.dist_reused.add(after.reused - avoidance_before.reused);
        if let Some(span) = &step_span {
            o.completion_seconds.observe(span.elapsed_secs());
        }
    }
    Ok(Some(head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryEngine;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageId, PageLayout, PagedDatabase, SimulatedDisk};

    #[test]
    fn pageset_basics() {
        let mut s = PageSet::new(200);
        assert!(s.is_empty());
        assert!(!s.contains(PageId(63)));
        assert!(s.insert(PageId(63)));
        assert!(!s.insert(PageId(63)), "double insert reports false");
        assert!(s.insert(PageId(64)));
        assert!(s.insert(PageId(199)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(PageId(64)));
        assert!(!s.contains(PageId(0)));
    }

    #[test]
    fn pageset_word_boundaries() {
        let mut s = PageSet::new(128);
        for i in [0u32, 1, 62, 63, 64, 65, 126, 127] {
            assert!(s.insert(PageId(i)));
        }
        for i in [0u32, 1, 62, 63, 64, 65, 126, 127] {
            assert!(s.contains(PageId(i)));
        }
        for i in [2u32, 61, 66, 125] {
            assert!(!s.contains(PageId(i)));
        }
    }

    #[test]
    fn consults_follows_the_rule() {
        let mut ledger = RankLedger {
            // Rank 0 removed a quarter of 800 visits, rank 1 nothing of 800,
            // rank 2 nothing of 10; rank 3 has no entry.
            visited: vec![800.0, 800.0, 10.0],
            removed: vec![200.0, 0.0, 0.0],
        };
        // On a page of 20 records: rank 0 pays at a price of 4, rank 1's
        // history is one page of distances at a price of 40, rank 2's at
        // half a visit; rank 3 is always consulted.
        let lowest = |ledger: &RankLedger, rank: usize| {
            [0.0, 0.5, 4.0, 19.0, 40.0, f64::INFINITY]
                .into_iter()
                .find(|&price| ledger.consults(rank, 20, price))
        };
        let prices: Vec<_> = (0..4).map(|r| lowest(&ledger, r)).collect();
        assert_eq!(prices, [Some(4.0), Some(40.0), Some(0.5), Some(0.0)]);
        // Pages that do not consult rank 1 age it: its history halves in
        // about 11 pages, after which a price of 20 consults it again.
        let mut page = RankLedger::default();
        page.reset(2);
        page.visited[0] = 100.0;
        for _ in 0..11 {
            ledger.add(&page);
        }
        assert_eq!(ledger.visited.len(), 3);
        assert!(ledger.consults(1, 20, 20.0));
        assert!(!ledger.consults(0, 20, 4.0), "rank 0 stopped removing");
    }

    /// Euclidean at a price of its own.
    struct Priced(f64);

    impl Metric<Vector> for Priced {
        fn distance(&self, a: &Vector, b: &Vector) -> f64 {
            Euclidean.distance(a, b)
        }

        fn distance_batch(&self, query: &Vector, objects: &[&Vector], out: &mut [f64]) {
            Euclidean.distance_batch(query, objects, out)
        }

        fn distance_le(&self, a: &Vector, b: &Vector, bound: f64) -> Option<f64> {
            Euclidean.distance_le(a, b, bound)
        }

        fn distance_price(&self, _payload_bytes: usize) -> f64 {
            self.0
        }
    }

    /// 2 000 points on `[0, 1000)`, 20 records to a page (100 pages), and
    /// five range queries at the same spot: for the later four, rank 0
    /// removes the 60 % of each page outside the radius, and ranks 1–3 —
    /// whose known distances are exactly the records rank 0 kept — remove
    /// nothing.
    fn rank_one_is_useless() -> (SimulatedDisk<Vector>, LinearScan, Vec<(Vector, QueryType)>) {
        let points: Vec<Vector> = (0..2000)
            .map(|i| Vector::new(vec![(i * 7919 % 2000) as f32 / 2.0]))
            .collect();
        let db = PagedDatabase::pack(&Dataset::new(points), PageLayout::new(400, 16));
        let scan = LinearScan::new(db.page_count());
        let queries = vec![(Vector::new(vec![500.0]), QueryType::range(200.0)); 5];
        (SimulatedDisk::new(db, 0.1), scan, queries)
    }

    /// Fig. 5 on a scan of range queries, object by object: every query is
    /// active on every page, in admission order, and a query's distance to
    /// a record is a later query's pivot iff it was computed.
    fn fig5(disk: &SimulatedDisk<Vector>, queries: &[(Vector, QueryType)]) -> AvoidanceStats {
        let mut qq = QueryDistanceMatrix::new();
        for (j, (q, _)) in queries.iter().enumerate() {
            qq.admit(&Euclidean, queries[..j].iter().map(|(q, _)| q), q);
        }
        let mut stats = AvoidanceStats::default();
        let db = disk.database();
        for page in db.page_ids() {
            for (_, object) in db.page(page).iter() {
                let mut known = Vec::new();
                for (i, (q, t)) in queries.iter().enumerate() {
                    if qq.try_avoid(i, &known, t.range, &mut stats) {
                        continue;
                    }
                    stats.computed += 1;
                    known.push((i, Euclidean.distance(object, q)));
                }
            }
        }
        stats
    }

    fn run(metric: Priced) -> (AvoidanceStats, Vec<Vec<Answer>>) {
        let (disk, scan, queries) = rank_one_is_useless();
        let engine = QueryEngine::new(&disk, &scan, metric);
        let mut session = engine.new_session(queries);
        engine.run_to_completion(&mut session);
        (session.avoidance_stats(), session.into_answers())
    }

    #[test]
    fn infinite_price_is_fig5_bit_for_bit() {
        let (disk, _, queries) = rank_one_is_useless();
        assert_eq!(run(Priced(f64::INFINITY)).0, fig5(&disk, &queries));
    }

    #[test]
    fn a_rank_that_removes_nothing_is_skipped() {
        let (disk, _, queries) = rank_one_is_useless();
        let reference = fig5(&disk, &queries);
        let (gated, answers) = run(Priced(Euclidean.distance_price(4)));
        // Ranks 1–3 removed nothing, so cutting them computes no extra
        // distance and loses no avoidance; it only saves their comparisons.
        assert_eq!(gated.avoided, reference.avoided);
        assert_eq!(gated.computed, reference.computed);
        assert!(
            gated.tries < reference.tries,
            "gated {gated:?} vs Fig. 5 {reference:?}"
        );
        assert_eq!(answers, run(Priced(f64::INFINITY)).1);
    }

    /// Every answer of `qtype` for `query`, by brute force, in list order.
    fn oracle(points: &[Vector], query: &Vector, qtype: &QueryType) -> Vec<(ObjectId, u64)> {
        let mut all: Vec<(f64, ObjectId)> = (0..points.len() as u32)
            .map(|i| (Euclidean.distance(&points[i as usize], query), ObjectId(i)))
            .filter(|&(d, _)| d <= qtype.range)
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(qtype.cardinality);
        all.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
    }

    fn bits(answers: &[Answer]) -> Vec<(ObjectId, u64)> {
        answers
            .iter()
            .map(|a| (a.id, a.distance.to_bits()))
            .collect()
    }

    /// Pages of 1, `LOOK_AHEAD` and `LOOK_AHEAD + 1` records: a look-ahead
    /// that never reaches a record of its page, and one that reaches only
    /// the last from the first. The single-query loop and the last active
    /// query's loop of 1- and 2-query sessions answer like a brute-force
    /// scan, bit for bit.
    #[test]
    fn look_ahead_tails_answer_like_brute_force() {
        let points: Vec<Vector> = (0..100u32)
            .map(|i| Vector::new(vec![(i * 37 % 100) as f32 / 3.0, (i % 7) as f32]))
            .collect();
        let queries = [Vector::new(vec![10.0, 3.0]), Vector::new(vec![25.5, 1.0])];
        for per_page in [1, LOOK_AHEAD, LOOK_AHEAD + 1] {
            // A 2-d record is 8 payload bytes plus an 8-byte header.
            let layout = PageLayout::new(16 * per_page, 8);
            let db = PagedDatabase::pack(&Dataset::new(points.clone()), layout);
            assert_eq!(db.page(PageId(0)).len(), per_page);
            let scan = LinearScan::new(db.page_count());
            let disk = SimulatedDisk::new(db, 0.1);
            let engine = QueryEngine::new(&disk, &scan, Euclidean);
            for qtype in [QueryType::knn(7), QueryType::range(6.0)] {
                let expected: Vec<_> = queries.iter().map(|q| oracle(&points, q, &qtype)).collect();
                let single = engine.similarity_query(&queries[0], &qtype);
                assert_eq!(bits(single.as_slice()), expected[0], "{per_page}/page");
                for m in [1, 2] {
                    let block = queries[..m].iter().map(|q| (q.clone(), qtype));
                    let mut session = engine.new_session(block);
                    engine.run_to_completion(&mut session);
                    let got: Vec<_> = session.into_answers().iter().map(|a| bits(a)).collect();
                    assert_eq!(got, expected[..m], "{per_page}/page, m = {m}");
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mq_metric::{Euclidean, Vector};
    use proptest::prelude::*;

    /// Fig. 5's loop, one object at a time, over the pivot ranks `consult`
    /// accepts: gather the object's known distances to those pivots in
    /// pivot order and ask [`QueryDistanceMatrix::try_avoid`].
    #[allow(clippy::too_many_arguments)]
    fn object_major(
        qq: &QueryDistanceMatrix,
        i: usize,
        pivots: &[usize],
        columns: &[f64],
        n: usize,
        bound: f64,
        consult: impl Fn(usize) -> bool,
        stats: &mut AvoidanceStats,
    ) -> Vec<u32> {
        let mut survivors = Vec::new();
        let mut known = Vec::new();
        for oi in 0..n {
            known.clear();
            for (pj, &p) in pivots.iter().enumerate() {
                let d = columns[pj * n + oi];
                if consult(pj) && !d.is_nan() {
                    known.push((p, d));
                }
            }
            if !qq.try_avoid(i, &known, bound, stats) {
                survivors.push(oi as u32);
            }
        }
        survivors
    }

    /// Halves in `0..=8`, so that sums are exact and `d == d_ij + bound`
    /// happens by construction rather than by luck.
    fn halves() -> impl Strategy<Value = f64> {
        (0u32..=16).prop_map(|h| f64::from(h) / 2.0)
    }

    /// A ledger a session could hold: up to 8 ranks, each with fewer or
    /// more visits than a page of up to 24 records, and removals no more
    /// than visits.
    fn ledgers() -> impl Strategy<Value = RankLedger> {
        prop::collection::vec((0u32..64, 0u32..=100), 0..=8).prop_map(|ranks| RankLedger {
            visited: ranks.iter().map(|&(v, _)| f64::from(v)).collect(),
            removed: ranks
                .iter()
                .map(|&(v, pct)| f64::from(v) * f64::from(pct) / 100.0)
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The gated sweep, for every later query of a page — over pivot
        /// columns with holes, bounds that include `0`, `∞` and exact ties,
        /// under any ledger and price:
        /// on the ranks it consulted it is Fig. 5 restricted to exactly those
        /// pivots; everything it removes Fig. 5 over all pivots removes too;
        /// and at an infinite price it consults every rank, so it is Fig. 5.
        #[test]
        fn gated_sweep_is_fig5_on_the_ranks_it_consults(
            m in 1usize..=9,
            positions in prop::collection::vec(halves(), 9),
            order in prop::collection::vec(any::<u64>(), 9),
            bounds in prop::collection::vec(
                prop_oneof![Just(0.0), Just(f64::INFINITY), halves()], 9),
            cells in prop::collection::vec(
                prop_oneof![Just(f64::NAN), halves(), halves(), halves()], 8 * 24),
            n in 0usize..=24,
            ledger in ledgers(),
            price in prop_oneof![
                Just(f64::INFINITY), Just(0.0), (1u32..=32).prop_map(f64::from)],
        ) {
            let price: f64 = price;
            let positions = &positions[..m];
            // The active order is any order: the leader comes first whatever
            // its admission index.
            let mut active: Vec<usize> = (0..m).collect();
            active.sort_by_key(|&i| order[i]);
            // 1-d queries at half-integers: `dist(Qi, Qj)` is exact.
            let queries: Vec<Vector> =
                positions.iter().map(|&x| Vector::new(vec![x as f32])).collect();
            let mut qq = QueryDistanceMatrix::new();
            for (j, q) in queries.iter().enumerate() {
                qq.admit(&Euclidean, &queries[..j], q);
            }
            let columns = &cells[..n * (m - 1)];
            let consult = |rank: usize| ledger.consults(rank, n, price);
            if price.is_infinite() {
                prop_assert!((0..m - 1).all(consult), "an infinite price cut a rank");
            }

            for (qi, &i) in active.iter().enumerate() {
                let pivots = &active[..qi];
                let eligible: Vec<u32> = (0..n as u32).collect();
                let mut survivors = eligible.clone();
                let mut stats = AvoidanceStats::default();
                let mut ranks = RankLedger::default();
                ranks.reset(m - 1);
                avoidance_sweep(
                    &qq, i, pivots, columns, n, bounds[qi], consult,
                    &mut survivors, &mut stats, &mut ranks,
                );

                let mut expected_stats = AvoidanceStats::default();
                let expected = object_major(
                    &qq, i, pivots, columns, n, bounds[qi], consult, &mut expected_stats,
                );
                prop_assert_eq!(&survivors, &expected, "survivors of active[{}]", qi);
                prop_assert_eq!(stats, expected_stats, "stats of active[{}]", qi);
                prop_assert_eq!(ranks.removed.iter().sum::<f64>(), stats.avoided as f64);
                for (r, (&removed, &visited)) in ranks.removed.iter().zip(&ranks.visited).enumerate() {
                    prop_assert!(removed <= visited);
                    prop_assert!(visited == 0.0 || (r < qi && consult(r)), "rank {} visited", r);
                }

                let mut all_stats = AvoidanceStats::default();
                let kept_by_all = object_major(
                    &qq, i, pivots, columns, n, bounds[qi], |_| true, &mut all_stats,
                );
                for oi in eligible.iter().filter(|oi| !survivors.contains(oi)) {
                    prop_assert!(!kept_by_all.contains(oi), "record {} removed unsoundly", oi);
                }
                if price.is_infinite() {
                    prop_assert_eq!(&survivors, &kept_by_all);
                    prop_assert_eq!(stats, all_stats);
                }
            }
        }
    }
}
