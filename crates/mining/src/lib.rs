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
//! * [`explore`] — the generic scheme, both drivers
//!   ([`explore::explore_neighborhoods`] /
//!   [`explore::explore_neighborhoods_multiple`]), parameterized by a
//!   [`explore::NeighborhoodTask`] (the paper's `condition_check`,
//!   `choose`, `proc_1`, `proc_2`, `filter` hooks).
//! * [`dbscan`] — density-based clustering (paper ref. \[7\]) in single- and
//!   multiple-query mode, producing identical clusterings.
//! * [`classify`] — simultaneous k-NN classification of a set of objects
//!   (the §6 astronomy workload).
//! * [`explore_users`] — the §6 manual-data-exploration workload: `c`
//!   concurrent users, `m = c × k` dependent queries per round.
//! * [`proximity`] — top-k aggregate proximity to a cluster plus
//!   common-feature extraction (paper ref. \[17\]).
//! * [`trend`] — spatial trend detection along neighborhood paths via
//!   linear regression (paper ref. \[6\]).
//! * [`assoc`] — neighborhood-based association rules between object types
//!   (paper ref. \[15\]).

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
pub use explore::{explore_neighborhoods, explore_neighborhoods_multiple, NeighborhoodTask};
pub use explore_users::{exploration_trace, replay_multiple, replay_single};
pub use join::{similarity_self_join, JoinPair};
