//! Property-based structural invariants of the access methods.

use mquery::index::{LinearScan, MTree, MTreeConfig, SimilarityIndex, XTree, XTreeConfig};
use mquery::metric::{Euclidean, Metric, Vector};
use mquery::storage::{Dataset, PageLayout};
use proptest::prelude::*;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vector>> {
    prop::collection::vec(
        prop::collection::vec(-50.0f32..50.0, dim).prop_map(Vector::new),
        1..max_n,
    )
}

fn layout() -> PageLayout {
    PageLayout::new(128, 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every object ends up on exactly one page, the page's MBR contains
    /// it, and the plan enumerates every page exactly once.
    #[test]
    fn xtree_structure_invariants(data in arb_points(200, 3)) {
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig { layout: layout() };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        prop_assert_eq!(db.object_count(), data.len());
        prop_assert_eq!(tree.page_count(), db.page_count());

        // Leaf MBRs contain their objects.
        for pid in db.page_ids() {
            let mbr = tree.leaf_mbr(pid);
            for (_, v) in db.page(pid).records() {
                prop_assert!(mbr.contains_point(v));
            }
        }

        // The full plan enumerates every page once, in non-decreasing
        // lower-bound order, each with `page_mindist`'s bits.
        let q = data[0].clone();
        let mut plan = tree.plan(&q);
        let mut seen = std::collections::HashSet::new();
        let mut last = 0.0f64;
        while let Some((pid, lb)) = plan.next(f64::INFINITY) {
            prop_assert!(lb >= last - 1e-9, "plan order violated");
            prop_assert_eq!(lb.to_bits(), tree.page_mindist(&q, pid).to_bits());
            last = lb;
            prop_assert!(seen.insert(pid), "page yielded twice");
        }
        prop_assert_eq!(seen.len(), tree.page_count());
    }

    /// The X-tree's batched `page_mindists` and its plans' lower bounds have
    /// `page_mindist`'s bits, for every batch size around its 8-query passes
    /// and for dimensions below, within and above one block of 8. Half the
    /// queries are stored points, which sit on their leaf's faces.
    #[test]
    fn batched_lower_bounds_equal_page_mindist_bitwise(
        dim_pick in 0usize..5,
        seed in any::<u64>(),
    ) {
        let dim = [1, 7, 20, 64, 65][dim_pick];
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32 * 100.0 - 50.0
        };
        let data: Vec<Vector> = (0..300)
            .map(|_| Vector::new((0..dim).map(|_| next()).collect::<Vec<_>>()))
            .collect();
        let queries: Vec<Vector> = (0..17)
            .map(|k| if k % 2 == 0 {
                data[k * 13].clone()
            } else {
                Vector::new((0..dim).map(|_| 1.5 * next()).collect::<Vec<_>>())
            })
            .collect();
        let ds = Dataset::new(data);
        let cfg = XTreeConfig { layout: PageLayout::new(512, 16) };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let refs: Vec<&Vector> = queries.iter().collect();
        for pid in db.page_ids() {
            let want: Vec<u64> = queries.iter().map(|q| tree.page_mindist(q, pid).to_bits()).collect();
            for count in 0..=17 {
                let mut out = vec![f64::NAN; count];
                tree.page_mindists(&refs[..count], pid, &mut out);
                let got: Vec<u64> = out.iter().map(|lb| lb.to_bits()).collect();
                prop_assert_eq!(&got[..], &want[..count], "dim {}, {} queries", dim, count);
            }
        }
        for q in &queries {
            let mut plan = tree.plan(q);
            while let Some((pid, lb)) = plan.next(f64::INFINITY) {
                prop_assert_eq!(lb.to_bits(), tree.page_mindist(q, pid).to_bits(), "dim {}", dim);
            }
        }
    }

    /// M-tree covering radii are sound and page lower bounds never exceed
    /// true object distances.
    #[test]
    fn mtree_structure_invariants(data in arb_points(160, 3)) {
        let ds = Dataset::new(data.clone());
        let cfg = MTreeConfig { layout: layout(), ..Default::default() };
        let (tree, db) = MTree::insert_load(&ds, Euclidean, cfg);
        prop_assert_eq!(db.object_count(), data.len());

        for pid in db.page_ids() {
            let (router, radius) = tree.leaf_router(pid);
            for (_, obj) in db.page(pid).records() {
                prop_assert!(Euclidean.distance(router, obj) <= radius + 1e-9);
            }
        }

        let q = data[data.len() / 2].clone();
        let mut plan = tree.plan(&q);
        while let Some((pid, lb)) = plan.next(f64::INFINITY) {
            for (_, obj) in db.page(pid).records() {
                prop_assert!(lb <= Euclidean.distance(&q, obj) + 1e-9);
            }
        }
    }

    /// The pruned traversal of every index visits a superset of the pages
    /// holding true range answers.
    #[test]
    fn pruned_plans_are_sound(
        data in arb_points(150, 3),
        eps in 0.0f64..40.0,
        pick in 0usize..1000,
    ) {
        let q = data[pick % data.len()].clone();
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig { layout: layout() };
        let (tree, db) = XTree::bulk_load(&ds, cfg);

        let mut visited = std::collections::HashSet::new();
        let mut plan = tree.plan(&q);
        while let Some((pid, _)) = plan.next(eps) {
            visited.insert(pid);
        }
        for pid in db.page_ids() {
            for (oid, obj) in db.page(pid).records() {
                if Euclidean.distance(&q, obj) <= eps {
                    prop_assert!(visited.contains(&pid), "answer {} on pruned page", oid);
                }
            }
        }

        // The scan trivially satisfies the same property.
        let scan = LinearScan::new(db.page_count());
        let mut count = 0;
        let mut plan = SimilarityIndex::<Vector>::plan(&scan, &q);
        while plan.next(eps).is_some() {
            count += 1;
        }
        prop_assert_eq!(count, db.page_count());
    }

    /// `page_mindist` is a true lower bound for every index (the property
    /// the multiple-query page-relevance check depends on).
    #[test]
    fn page_mindist_is_lower_bound(
        data in arb_points(120, 3),
        pick in 0usize..1000,
    ) {
        let q = data[pick % data.len()].clone();
        let ds = Dataset::new(data.clone());
        let cfg = XTreeConfig { layout: layout() };
        let (tree, db) = XTree::bulk_load(&ds, cfg);
        let mcfg = MTreeConfig { layout: layout(), ..Default::default() };
        let (mtree, mdb) = MTree::insert_load(&ds, Euclidean, mcfg);

        for pid in db.page_ids() {
            let lb = tree.page_mindist(&q, pid);
            for (_, obj) in db.page(pid).records() {
                prop_assert!(lb <= Euclidean.distance(&q, obj) + 1e-9, "x-tree bound");
            }
        }
        for pid in mdb.page_ids() {
            let lb = mtree.page_mindist(&q, pid);
            for (_, obj) in mdb.page(pid).records() {
                prop_assert!(lb <= Euclidean.distance(&q, obj) + 1e-9, "m-tree bound");
            }
        }
    }
}
