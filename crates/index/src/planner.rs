//! The access-method interface used by the query engine.
//!
//! [`SimilarityIndex::plan`] is the paper's `determine_relevant_data_pages`
//! (Fig. 1): it produces the sequence of data pages that may contain answers
//! for one query object, best-first by a lower-bound distance. The engine's
//! `prune_pages(QueryDist)` is realized by passing the *current* query
//! distance into [`PagePlan::next`], which skips (and permanently discards)
//! pages whose lower bound exceeds it — exactly the Hjaltason–Samet
//! traversal that \[3\] proved reads the minimal number of pages for k-NN
//! queries.

use mq_storage::PageId;

/// A lazily evaluated, best-first sequence of candidate data pages for one
/// query object.
pub trait PagePlan {
    /// Returns the next candidate page whose lower-bound distance does not
    /// exceed `query_dist`, together with that lower bound, or `None` when
    /// no further page can contain an answer.
    ///
    /// `query_dist` must be non-increasing across calls on the same plan
    /// (the query distance of Fig. 1 only ever shrinks); implementations may
    /// rely on this to discard pruned subtrees permanently.
    fn next(&mut self, query_dist: f64) -> Option<(PageId, f64)>;
}

/// An access method over one paged database: the linear scan, the X-tree,
/// or the M-tree.
///
/// The lower bounds returned by [`page_mindist`](Self::page_mindist) and by
/// plans must never exceed the true distance from the query to any object
/// on the page — otherwise qualifying answers would be pruned. (They may be
/// arbitrarily loose; looser bounds only cost extra page reads.)
pub trait SimilarityIndex<O>: Send + Sync {
    /// Starts the relevant-page traversal for one query object.
    fn plan<'a>(&'a self, query: &'a O) -> Box<dyn PagePlan + 'a>;

    /// A lower bound on `dist(query, o)` over all objects `o` stored on
    /// `page`. Used by the multiple-query engine (§5.1) to decide whether a
    /// page loaded for the head query is also *relevant* for a trailing
    /// query.
    fn page_mindist(&self, query: &O, page: PageId) -> f64;

    /// [`page_mindist`](Self::page_mindist) of a batch of queries against
    /// one page: writes `page_mindist(queries[k], page)` into `out[k]`, bit
    /// for bit. The default loops `page_mindist`; an index that can share
    /// work across the queries overrides it.
    ///
    /// # Panics
    /// Panics if `queries.len() != out.len()`.
    fn page_mindists(&self, queries: &[&O], page: PageId, out: &mut [f64]) {
        assert_eq!(queries.len(), out.len(), "one lower bound per query");
        for (query, lb) in queries.iter().zip(out) {
            *lb = self.page_mindist(query, page);
        }
    }

    /// Number of data pages the index covers.
    fn page_count(&self) -> usize;

    /// Short name for reports ("scan", "x-tree", "m-tree").
    fn name(&self) -> &str;
}

impl<O, I: SimilarityIndex<O> + ?Sized> SimilarityIndex<O> for &I {
    fn plan<'a>(&'a self, query: &'a O) -> Box<dyn PagePlan + 'a> {
        (**self).plan(query)
    }

    fn page_mindist(&self, query: &O, page: PageId) -> f64 {
        (**self).page_mindist(query, page)
    }

    fn page_mindists(&self, queries: &[&O], page: PageId, out: &mut [f64]) {
        (**self).page_mindists(queries, page, out)
    }

    fn page_count(&self) -> usize {
        (**self).page_count()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}
