#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-parallel — multiple similarity queries on a shared-nothing cluster
//!
//! §5.3 of the paper: the data is *declustered* among `s` servers; the same
//! multiple similarity query runs on every server against its local part
//! (which is `s` times smaller), and the per-server answers are merged.
//! Communication overhead is negligible, so the expected speed-up is of
//! order `s` — and because `s` servers also have `s×` the aggregate buffer
//! memory, the paper increases the batch size to `m × s` queries per
//! block, which can push the speed-up *beyond* `s` (super-linear) when the
//! per-query work shrinks with larger batches.
//!
//! * [`partition`] — round-robin declustering;
//! * [`server`] — one server: its partition, disk, index and id mapping;
//! * [`cluster`] — [`cluster::SharedNothingCluster`]: execution of one
//!   multiple query on all servers (the first on the calling thread, the
//!   rest on scoped threads, so `s = 1` is the plain single engine of
//!   §5.1–5.2), answer merging, and
//!   per-server statistics (the simulated wall-clock cost of a parallel
//!   run is the **maximum** over the servers' costs).

pub mod cluster;
pub mod merge;
pub mod partition;
pub mod server;

pub use cluster::{ClusterStats, DegradedAnswers, SharedNothingCluster};
pub use partition::round_robin;
pub use server::Server;
