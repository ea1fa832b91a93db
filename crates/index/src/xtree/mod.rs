//! The X-tree (Berchtold, Keim, Kriegel — VLDB'96; paper ref. \[2\]),
//! built by VAMSplit bulk loading.
//!
//! [`XTree::bulk_load`] partitions the points recursively at a page-aligned
//! median of the dimension with maximum spread until each part fits one data
//! page, then packs the directory bottom-up over consecutive runs of
//! children. The leaves do not overlap, so no directory split ever has to
//! choose between overlap and a supernode: the tree is the X-tree's
//! overlap-free case, an R-tree directory of one-block nodes. On the
//! benchmark databases R\* insertion with supernodes builds a tree that reads
//! more pages per query (docs/performance.md).
//!
//! After construction the tree is *frozen*: leaves become the data pages of
//! a [`mq_storage::PagedDatabase`] (leaf = page, numbered in DFS order
//! so that spatially close pages get adjacent physical addresses), and the
//! directory is retained in memory — matching the paper's I/O accounting,
//! which counts data-page reads.

mod bulk;
mod frozen;

pub use frozen::{XTree, XTreeStats};

use mq_storage::PageLayout;

/// X-tree construction parameters. The default lays pages out as
/// [`PageLayout::PAPER`].
#[derive(Clone, Copy, Debug, Default)]
pub struct XTreeConfig {
    /// Page layout shared with the storage layer (block size, record header).
    pub layout: PageLayout,
}

impl XTreeConfig {
    /// Data-page (leaf) capacity for `dim`-dimensional `f32` points —
    /// identical to the storage layer's page capacity, since leaf = page.
    pub fn leaf_capacity(&self, dim: usize) -> usize {
        self.layout
            .capacity_for(dim * std::mem::size_of::<f32>())
            .max(2)
    }

    /// Directory-node capacity per block: each entry stores a `dim`-d MBR
    /// (two `f32` bounds per dimension on disk) plus a child pointer.
    pub fn dir_capacity(&self, dim: usize) -> usize {
        let entry = 2 * dim * std::mem::size_of::<f32>() + 8;
        (self.layout.block_bytes / entry).max(2)
    }
}
