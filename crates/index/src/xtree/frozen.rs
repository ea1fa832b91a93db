//! The frozen (query-time) X-tree and its Hjaltason–Samet page plan.

use super::{bulk, XTreeConfig};
use crate::bbox::Mbr;
use crate::planner::{PagePlan, SimilarityIndex};
use crate::util::MinHeap;
use mq_metric::kernel::{self, SimdLevel, LANES};
use mq_metric::{ObjectId, Vector};
use mq_storage::{Dataset, PageId, PagedDatabase};

/// Where a directory entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Target {
    /// An inner directory node (index into the frozen node arena).
    Dir(u32),
    /// A data page (X-tree leaf).
    Page(PageId),
}

/// Queries per call of the leaf lower-bound kernel
/// ([`kernel::row_mindists_at`]); its rows live in a stack array.
const ROWS: usize = 8;

/// A frozen directory node: its children's targets, and their MBRs stored
/// column-major so that one kernel call ([`kernel::box_mindists_at`])
/// computes every child's MINDIST.
#[derive(Debug)]
struct DirNode {
    targets: Vec<Target>,
    /// Children rounded up to a multiple of the kernels' [`LANES`], so every
    /// box is in a full vector.
    stride: usize,
    /// `lo[d * stride + k]` and `hi[d * stride + k]` bound child `k` in
    /// dimension `d`; the padding children are the point `0`.
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl DirNode {
    fn new(children: Vec<(Mbr, Target)>) -> Self {
        let dim = children.first().map_or(0, |(mbr, _)| mbr.dim());
        let stride = children.len().next_multiple_of(LANES);
        let mut lo = vec![0.0; dim * stride];
        let mut hi = vec![0.0; dim * stride];
        for (k, (mbr, _)) in children.iter().enumerate() {
            for d in 0..dim {
                lo[d * stride + k] = mbr.lo()[d];
                hi[d * stride + k] = mbr.hi()[d];
            }
        }
        Self {
            targets: children.into_iter().map(|(_, target)| target).collect(),
            stride,
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Every child's MINDIST to `query`, bit for bit [`Mbr::mindist`]'s, in
    /// child order followed by the padding's: writes `out[..stride]` and
    /// returns the children's part.
    fn mindists<'o>(&self, level: SimdLevel, query: &[f32], out: &'o mut [f64]) -> &'o [f64] {
        let out = &mut out[..self.stride];
        kernel::box_mindists_at(level, query, &self.lo, &self.hi, out);
        &out[..self.targets.len()]
    }
}

/// Arena of frozen directory nodes.
#[derive(Debug, Default)]
pub(super) struct FrozenNodes {
    dirs: Vec<DirNode>,
}

impl FrozenNodes {
    pub(super) fn push_dir(&mut self, children: Vec<(Mbr, Target)>) -> u32 {
        self.dirs.push(DirNode::new(children));
        (self.dirs.len() - 1) as u32
    }

    pub(super) fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// The widest directory node's padded child count: the one buffer size
    /// a plan's bounds need.
    fn max_stride(&self) -> usize {
        self.dirs.iter().map(|dir| dir.stride).max().unwrap_or(0)
    }
}

/// Construction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XTreeStats {
    /// Tree height including the leaf level (a single-leaf tree has height 1).
    pub height: usize,
    /// Number of directory nodes, each one block.
    pub dir_nodes: usize,
    /// Number of data pages (leaves).
    pub data_pages: usize,
}

/// The frozen X-tree: an in-memory directory over the data pages of one
/// [`PagedDatabase`].
///
/// ```
/// use mq_index::{SimilarityIndex, XTree, XTreeConfig};
/// use mq_metric::Vector;
/// use mq_storage::Dataset;
///
/// let ds = Dataset::new(
///     (0..1000).map(|i| Vector::new(vec![(i % 37) as f32, (i % 61) as f32])).collect(),
/// );
/// let (tree, db) = XTree::bulk_load(&ds, XTreeConfig::default());
/// assert_eq!(tree.page_count(), db.page_count());
///
/// // The plan yields candidate pages best-first by MINDIST.
/// let q = Vector::new(vec![5.0, 5.0]);
/// let mut plan = tree.plan(&q);
/// let (first_page, lower_bound) = plan.next(f64::INFINITY).unwrap();
/// assert!(lower_bound <= tree.page_mindist(&q, first_page) + 1e-12);
/// ```
#[derive(Debug)]
pub struct XTree {
    dim: usize,
    /// [`FrozenNodes::max_stride`], kept so a plan sizes its buffers once.
    max_stride: usize,
    nodes: FrozenNodes,
    root: Option<Target>,
    leaf_mbrs: Vec<Mbr>,
    stats: XTreeStats,
}

impl XTree {
    pub(super) fn from_parts(
        dim: usize,
        nodes: FrozenNodes,
        root: Option<Target>,
        leaf_mbrs: Vec<Mbr>,
        stats: XTreeStats,
    ) -> Self {
        Self {
            dim,
            max_stride: nodes.max_stride(),
            nodes,
            root,
            leaf_mbrs,
            stats,
        }
    }

    /// Builds an X-tree by VAMSplit bulk loading and lays the leaves out as
    /// the data pages of the returned database.
    ///
    /// # Panics
    /// Panics if the dataset's vectors do not share one dimensionality.
    pub fn bulk_load(dataset: &Dataset<Vector>, cfg: XTreeConfig) -> (Self, PagedDatabase<Vector>) {
        let dim = check_dim(dataset);
        let objects: Vec<(ObjectId, Vector)> =
            dataset.iter().map(|(id, v)| (id, v.clone())).collect();
        let (tree, groups) = bulk::bulk_load(&cfg, dim, objects);
        let db = PagedDatabase::from_groups(groups, cfg.layout);
        (tree, db)
    }

    /// Construction statistics.
    pub fn stats(&self) -> XTreeStats {
        self.stats
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The MBR of a data page (leaf).
    pub fn leaf_mbr(&self, page: PageId) -> &Mbr {
        &self.leaf_mbrs[page.index()]
    }

    /// Refuses a query of another dimensionality, before any kernel sees
    /// its components.
    fn check_query(&self, query: &Vector) {
        assert!(
            query.dim() == self.dim,
            "query dimensionality mismatch: {} vs index {}",
            query.dim(),
            self.dim
        );
    }
}

fn check_dim(dataset: &Dataset<Vector>) -> usize {
    let dim = dataset.objects().first().map(|v| v.dim()).unwrap_or(1);
    assert!(
        dataset.objects().iter().all(|v| v.dim() == dim),
        "all vectors must share one dimensionality"
    );
    dim
}

/// Best-first traversal state for one query (Hjaltason–Samet).
struct XTreePlan<'a> {
    tree: &'a XTree,
    query: &'a Vector,
    /// The kernel tier, read once per plan.
    level: SimdLevel,
    frontier: MinHeap<Target>,
    /// The children's lower bounds of the node being expanded, sized for
    /// the widest node.
    bounds: Box<[f64]>,
}

impl PagePlan for XTreePlan<'_> {
    fn next(&mut self, query_dist: f64) -> Option<(PageId, f64)> {
        while let Some(top) = self.frontier.peek_prio() {
            // The frontier minimum is a lower bound on every remaining
            // page's distance; once it exceeds the (non-increasing) query
            // distance nothing can qualify anymore.
            if top > query_dist {
                self.frontier.clear();
                return None;
            }
            let (lb, target) = self.frontier.pop().expect("frontier is non-empty");
            match target {
                Target::Page(page) => return Some((page, lb)),
                Target::Dir(idx) => {
                    let node = &self.tree.nodes.dirs[idx as usize];
                    let bounds =
                        node.mindists(self.level, self.query.components(), &mut self.bounds);
                    for (&child_lb, &child) in bounds.iter().zip(&node.targets) {
                        if child_lb <= query_dist {
                            self.frontier.push(child_lb, child);
                        }
                    }
                }
            }
        }
        None
    }
}

impl SimilarityIndex<Vector> for XTree {
    fn plan<'a>(&'a self, query: &'a Vector) -> Box<dyn PagePlan + 'a> {
        if self.root.is_some() {
            self.check_query(query);
        }
        // One descent pushes at most a node's children per level: reserved
        // once, the frontier rarely grows after.
        let mut frontier = MinHeap::with_capacity(self.max_stride * self.stats.height);
        match self.root {
            Some(Target::Page(page)) => {
                frontier.push(
                    self.leaf_mbrs[page.index()].mindist(query),
                    Target::Page(page),
                );
            }
            Some(Target::Dir(idx)) => frontier.push(0.0, Target::Dir(idx)),
            None => {}
        }
        Box::new(XTreePlan {
            tree: self,
            query,
            level: kernel::active(),
            frontier,
            bounds: vec![0.0; self.max_stride].into(),
        })
    }

    fn page_mindist(&self, query: &Vector, page: PageId) -> f64 {
        self.leaf_mbrs[page.index()].mindist(query)
    }

    /// Eight queries (`ROWS`) per kernel call against the leaf MBR, each
    /// summed in dimension order: the bits of `page_mindist`.
    ///
    /// # Panics
    /// Panics if `queries` and `out` differ in length, or if a query's
    /// dimensionality is not the index's.
    fn page_mindists(&self, queries: &[&Vector], page: PageId, out: &mut [f64]) {
        assert_eq!(queries.len(), out.len(), "one lower bound per query");
        for query in queries {
            self.check_query(query);
        }
        let mbr = &self.leaf_mbrs[page.index()];
        let level = kernel::active();
        for (batch, lbs) in queries.chunks(ROWS).zip(out.chunks_mut(ROWS)) {
            let rows: [&[f32]; ROWS] =
                std::array::from_fn(|l| batch.get(l).map_or(&[][..], |q| q.components()));
            kernel::row_mindists_at(level, &rows[..batch.len()], mbr.lo(), mbr.hi(), lbs);
        }
    }

    fn page_count(&self) -> usize {
        self.leaf_mbrs.len()
    }

    fn name(&self) -> &str {
        "x-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_metric::{Euclidean, Metric};
    use mq_storage::PageLayout;

    /// Deterministic pseudo-random points in `[0, 100)^dim`.
    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                Vector::new(
                    (0..dim)
                        .map(|_| (next() * 100.0) as f32)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn tiny_cfg() -> XTreeConfig {
        // Small pages so even small datasets produce multi-level trees:
        // 4-d f32 point = 16 bytes payload + 16 header = 32; 160/32 = 5/leaf.
        XTreeConfig {
            layout: PageLayout::new(160, 16),
        }
    }

    fn drain_all(tree: &XTree, q: &Vector) -> Vec<PageId> {
        let mut plan = tree.plan(q);
        let mut out = Vec::new();
        while let Some((pid, _)) = plan.next(f64::INFINITY) {
            out.push(pid);
        }
        out
    }

    #[test]
    fn bulk_load_covers_all_objects() {
        let pts = random_points(500, 4, 7);
        let ds = Dataset::new(pts);
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        assert_eq!(db.object_count(), 500);
        assert_eq!(tree.page_count(), db.page_count());
        assert!(tree.stats().height >= 2);
        // Every object is on the page its directory entry says.
        for (id, v) in ds.iter() {
            let (pid, slot) = db.locate(id);
            let (oid, obj) = &db.page(pid).records()[slot as usize];
            assert_eq!(*oid, id);
            assert_eq!(obj.components(), v.components());
        }
    }

    #[test]
    fn leaf_mbrs_contain_their_points() {
        let ds = Dataset::new(random_points(400, 3, 29));
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        for pid in db.page_ids() {
            let mbr = tree.leaf_mbr(pid);
            for (_, v) in db.page(pid).records() {
                assert!(
                    mbr.contains_point(v),
                    "{} not in leaf MBR of {pid}",
                    v.components()[0]
                );
            }
        }
    }

    #[test]
    fn plan_yields_pages_in_mindist_order() {
        let ds = Dataset::new(random_points(400, 4, 3));
        let (tree, _db) = XTree::bulk_load(&ds, tiny_cfg());
        let q = Vector::new(vec![10.0, 90.0, 40.0, 60.0]);
        let mut plan = tree.plan(&q);
        let mut last = 0.0f64;
        let mut count = 0;
        while let Some((pid, lb)) = plan.next(f64::INFINITY) {
            assert!(lb >= last - 1e-12, "mindist order violated");
            assert_eq!(tree.page_mindist(&q, pid).to_bits(), lb.to_bits());
            last = lb;
            count += 1;
        }
        assert_eq!(count, tree.page_count());
    }

    #[test]
    fn plan_prunes_beyond_query_dist() {
        let ds = Dataset::new(random_points(400, 4, 5));
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        let q = Vector::new(vec![0.0, 0.0, 0.0, 0.0]);
        let eps = 30.0;
        let mut plan = tree.plan(&q);
        let mut visited = Vec::new();
        while let Some((pid, lb)) = plan.next(eps) {
            assert!(lb <= eps);
            visited.push(pid);
        }
        // Soundness: every object within eps lives on a visited page.
        let visited_set: std::collections::HashSet<PageId> = visited.iter().copied().collect();
        for pid in db.page_ids() {
            for (oid, v) in db.page(pid).records() {
                if Euclidean.distance(&q, v) <= eps {
                    assert!(
                        visited_set.contains(&pid),
                        "page {pid} with answer {oid} pruned"
                    );
                }
            }
        }
    }

    #[test]
    fn shrinking_query_dist_stops_traversal() {
        let ds = Dataset::new(random_points(400, 4, 11));
        let (tree, _db) = XTree::bulk_load(&ds, tiny_cfg());
        let q = Vector::new(vec![50.0; 4]);
        let mut plan = tree.plan(&q);
        // First page at distance ~0; then shrink the radius to zero.
        let first = plan.next(f64::INFINITY);
        assert!(first.is_some());
        let visited_after: Vec<_> = std::iter::from_fn(|| plan.next(0.0)).collect();
        // Only pages whose MBR contains q (mindist 0) may still come.
        for (_, lb) in &visited_after {
            assert_eq!(*lb, 0.0);
        }
    }

    #[test]
    fn a_query_of_another_dimensionality_is_refused() {
        // `assert!`, not `debug_assert!`: this holds in release builds too.
        let ds = Dataset::new(random_points(300, 4, 23));
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        let fit = Vector::new(vec![1.0; 4]);
        let page = db.page_ids().next().expect("a page");
        for dim in [1, 3, 5, 9] {
            let query = Vector::new(vec![1.0; dim]);
            let attempts: [&dyn Fn(); 4] = [
                &|| drop(tree.plan(&query)),
                &|| {
                    let _ = tree.page_mindist(&query, page);
                },
                &|| tree.page_mindists(&[&query], page, &mut [0.0]),
                // A bad query among good ones, past the first kernel call.
                &|| {
                    let queries: Vec<&Vector> = (0..10)
                        .map(|k| if k == 9 { &query } else { &fit })
                        .collect();
                    tree.page_mindists(&queries, page, &mut [0.0; 10])
                },
            ];
            for attempt in attempts {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt))
                    .expect_err("refused");
                let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    text.contains("query dimensionality mismatch"),
                    "dim {dim}: {text}"
                );
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(Vec::<Vector>::new());
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        assert_eq!(db.page_count(), 0);
        assert_eq!(tree.page_count(), 0);
        let q = Vector::new(vec![0.0; 4]);
        assert!(tree.plan(&q).next(f64::INFINITY).is_none());
    }

    #[test]
    fn single_object_dataset() {
        let ds = Dataset::new(vec![Vector::new(vec![1.0, 2.0, 3.0, 4.0])]);
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        assert_eq!(db.page_count(), 1);
        let q = Vector::new(vec![0.0; 4]);
        let mut plan = tree.plan(&q);
        let (pid, lb) = plan.next(f64::INFINITY).expect("one page");
        assert_eq!(pid, PageId(0));
        assert!(lb > 0.0);
        assert!(plan.next(f64::INFINITY).is_none());
    }

    #[test]
    fn clustered_data_produces_selective_pages() {
        // Two far-apart clusters: a query in one cluster must not visit the
        // other cluster's pages within a small radius.
        let mut pts = random_points(200, 4, 17);
        for p in random_points(200, 4, 19) {
            let shifted: Vec<f32> = p.components().iter().map(|c| c + 10_000.0).collect();
            pts.push(Vector::new(shifted));
        }
        let ds = Dataset::new(pts);
        let (tree, _db) = XTree::bulk_load(&ds, tiny_cfg());
        let q = Vector::new(vec![50.0; 4]);
        let mut plan = tree.plan(&q);
        let mut visited = 0;
        while plan.next(500.0).is_some() {
            visited += 1;
        }
        assert!(
            visited <= tree.page_count() / 2,
            "visited {visited} of {} pages",
            tree.page_count()
        );
    }

    #[test]
    fn identical_points_build_a_valid_tree() {
        // No dimension has any spread: every split is an arbitrary cut
        // through one point, and every page's MBR is that point.
        let ds = Dataset::new(vec![Vector::new(vec![1.0, 1.0, 1.0, 1.0]); 40]);
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        assert_eq!(db.object_count(), 40);
        assert!(tree.stats().height >= 2);
        let q = Vector::new(vec![1.0; 4]);
        let mut plan = tree.plan(&q);
        let mut count = 0;
        while let Some((_, lb)) = plan.next(0.0) {
            assert_eq!(lb, 0.0);
            count += 1;
        }
        assert_eq!(count, db.page_count(), "all pages contain exact matches");
    }

    #[test]
    fn a_constant_dimension_is_never_split() {
        // Dimension 2 is constant: its extent is zero in every leaf, and the
        // other three still separate the pages.
        let pts: Vec<Vector> = random_points(300, 4, 37)
            .into_iter()
            .map(|p| {
                let mut c = p.components().to_vec();
                c[2] = 7.0;
                Vector::new(c)
            })
            .collect();
        let ds = Dataset::new(pts);
        let (tree, db) = XTree::bulk_load(&ds, tiny_cfg());
        assert_eq!(db.object_count(), 300);
        for pid in db.page_ids() {
            let mbr = tree.leaf_mbr(pid);
            assert_eq!((mbr.lo()[2], mbr.hi()[2]), (7.0, 7.0));
            for (_, v) in db.page(pid).records() {
                assert!(mbr.contains_point(v));
            }
        }
        let q = Vector::new(vec![50.0, 50.0, 7.0, 50.0]);
        let mut pages = drain_all(&tree, &q);
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), db.page_count(), "every page reachable once");
    }
}
