#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-mining — iterative neighborhood exploration (§3)
//!
//! Many data mining algorithms *"start from a set of specified database
//! objects and iteratively consider the neighborhood of the visited
//! objects"*. The paper captures them in the **ExploreNeighborhoods**
//! scheme (Fig. 2) and shows a purely syntactic transformation into
//! **ExploreNeighborhoodsMultiple** (Fig. 3) that replaces single
//! similarity queries by multiple similarity queries — same results, less
//! I/O and CPU.
//!
//! * [`explore`] — the generic scheme: the two incremental drivers
//!   ([`explore::explore_neighborhoods`], Fig. 2, the single-query oracle;
//!   [`explore::explore_neighborhoods_multiple`], Fig. 3) parameterized by a
//!   [`explore::NeighborhoodTask`] (the paper's `condition_check`,
//!   `choose`, `proc_1`, `proc_2`, `filter` hooks), and the block driver
//!   [`explore::query_blocks`] for schemes whose `filter` returns nothing.
//!
//! Each algorithm runs on one of them:
//!
//! * [`dbscan`] — density-based clustering (paper ref. \[7\]): a task on
//!   the incremental drivers, Fig. 2 in single-query mode and Fig. 3 in
//!   multiple-query mode, producing identical clusterings.
//! * [`classify`] — simultaneous k-NN classification of a set of objects
//!   (the §6 astronomy workload): the block driver.
//! * [`join`] — the ε-self-join: the block driver.
//! * [`explore_users`] — the §6 manual-data-exploration workload: `c`
//!   concurrent users, `m = c × k` dependent queries per round, replayed
//!   on the block driver one round per block.
//! * [`proximity`] — top-k aggregate proximity to a cluster plus
//!   common-feature extraction (paper ref. \[17\]): the block driver.
//! * [`assoc`] — neighborhood-based association rules between object types
//!   (paper ref. \[15\]): the block driver.
//! * [`trend`] — spatial trend detection along neighborhood paths via
//!   linear regression (paper ref. \[6\]): one dependent query per step,
//!   on the engine's session API directly.

pub mod assoc;
pub mod classify;
pub mod dbscan;
pub mod explore;
pub mod explore_users;
pub mod join;
pub mod proximity;
pub mod trend;

pub use classify::{classification_accuracy, classify_batch, classify_single};
pub use dbscan::{Dbscan, DbscanResult, Label};
pub use explore::{
    explore_neighborhoods, explore_neighborhoods_multiple, query_blocks, NeighborhoodTask,
};
pub use explore_users::{exploration_trace, replay_multiple, replay_single};
pub use join::{similarity_self_join, JoinPair};
