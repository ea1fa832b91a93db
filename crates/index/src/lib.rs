#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-index — access methods for similarity queries
//!
//! The paper evaluates its multiple-similarity-query technique on top of two
//! access methods (§5.1, §6): the **linear scan** and the **X-tree**
//! (Berchtold/Keim/Kriegel, VLDB'96 — an R\*-tree variant for
//! high-dimensional data). It further motivates metric indexes via the
//! **M-tree** (Ciaccia/Patella/Zezula, VLDB'97) for databases that are
//! metric but not vector spaces. This crate implements all three from
//! scratch:
//!
//! * [`scan::LinearScan`] — every data page is relevant; pages are served in
//!   physical order (maximizing sequential I/O).
//! * [`xtree::XTree`] — built by VAMSplit bulk loading into overlap-free
//!   leaves, so it has no supernodes; k-NN page ordering follows
//!   Hjaltason–Samet \[13\], which is proven I/O-optimal for
//!   nearest-neighbor search \[3\].
//! * [`mtree::MTree`] — a dynamic metric tree with routing objects and
//!   covering radii; search prunes with the triangle inequality and the
//!   classic parent-distance optimization.
//!
//! All access methods implement [`SimilarityIndex`], whose
//! [`plan`](SimilarityIndex::plan) method is the paper's
//! `determine_relevant_data_pages` (Fig. 1): it yields candidate data pages
//! *best-first* under a dynamically shrinking query distance, and the
//! engine's `prune_pages` is realized by passing the current query distance
//! to [`PagePlan::next`].
//!
//! ## I/O accounting convention
//!
//! Directory nodes are assumed memory-resident (the paper's 10 % buffer
//! easily holds the directory); only **data-page** reads are metered, which
//! is what the paper's Fig. 7 reports.

pub mod bbox;
pub mod mtree;
pub mod planner;
pub mod scan;
pub(crate) mod util;
pub mod xtree;

pub use bbox::Mbr;
pub use mtree::{MTree, MTreeConfig};
pub use planner::{PagePlan, SimilarityIndex};
pub use scan::LinearScan;
pub use xtree::{XTree, XTreeConfig};
