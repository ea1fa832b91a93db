//! VAMSplit-style bulk loading.
//!
//! Recursively partitions the point set at the median of the dimension with
//! maximum spread until partitions fit into one data page. The recursion
//! order yields spatially coherent leaves, so assigning page ids in that
//! order gives nearby leaves adjacent physical addresses — rewarding the
//! disk simulator's sequential-read classification just like a clustering
//! bulk load on a real disk would.

use super::frozen::{FrozenNodes, Target, XTree, XTreeStats};
use super::XTreeConfig;
use crate::bbox::Mbr;
use mq_metric::{ObjectId, Vector};
use mq_storage::PageId;

pub(super) fn bulk_load(
    cfg: &XTreeConfig,
    dim: usize,
    mut objects: Vec<(ObjectId, Vector)>,
) -> (XTree, Vec<Vec<(ObjectId, Vector)>>) {
    assert!(dim > 0, "dimensionality must be positive");
    let leaf_cap = cfg.leaf_capacity(dim);
    let dir_cap = cfg.dir_capacity(dim);

    let mut groups: Vec<Vec<(ObjectId, Vector)>> = Vec::new();
    partition(&mut objects, leaf_cap, dim, &mut groups);

    let leaf_mbrs: Vec<Mbr> = groups
        .iter()
        .map(|g| Mbr::from_points(g.iter().map(|(_, p)| p)))
        .collect();

    // Build the directory bottom-up over consecutive runs of children.
    let mut frozen = FrozenNodes::default();
    let mut level: Vec<(Mbr, Target)> = leaf_mbrs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, m)| (m, Target::Page(PageId(i as u32))))
        .collect();
    let mut height = if level.is_empty() { 0 } else { 1 };
    while level.len() > 1 {
        height += 1;
        let mut next = Vec::with_capacity(level.len().div_ceil(dir_cap));
        for chunk in level.chunks(dir_cap) {
            let mut mbr = chunk[0].0.clone();
            for (m, _) in &chunk[1..] {
                mbr.expand_mbr(m);
            }
            let idx = frozen.push_dir(chunk.to_vec());
            next.push((mbr, Target::Dir(idx)));
        }
        level = next;
    }
    let root = level.pop().map(|(_, t)| t);

    let stats = XTreeStats {
        height,
        dir_nodes: frozen.dir_count(),
        data_pages: groups.len(),
    };
    (
        XTree::from_parts(dim, frozen, root, leaf_mbrs, stats),
        groups,
    )
}

/// Recursive max-spread median partitioning.
fn partition(
    objects: &mut [(ObjectId, Vector)],
    leaf_cap: usize,
    dim: usize,
    out: &mut Vec<Vec<(ObjectId, Vector)>>,
) {
    if objects.is_empty() {
        return;
    }
    if objects.len() <= leaf_cap {
        out.push(objects.to_vec());
        return;
    }
    // Dimension with maximum spread.
    let mut best_dim = 0usize;
    let mut best_spread = -1.0f32;
    for d in 0..dim {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for (_, p) in objects.iter() {
            let c = p[d];
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if hi - lo > best_spread {
            best_spread = hi - lo;
            best_dim = d;
        }
    }
    // Split at a page-aligned position near the median so that the left
    // half packs full pages (VAMSplit's fill optimization).
    let half_pages = objects.len().div_ceil(leaf_cap) / 2;
    let mid = (half_pages * leaf_cap).clamp(1, objects.len() - 1);
    objects.select_nth_unstable_by(mid, |a, b| {
        a.1[best_dim]
            .partial_cmp(&b.1[best_dim])
            .expect("finite coordinates")
    });
    let (left, right) = objects.split_at_mut(mid);
    partition(left, leaf_cap, dim, out);
    partition(right, leaf_cap, dim, out);
}
