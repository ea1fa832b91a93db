#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-store — the durable file-backed page store
//!
//! The paper's evaluation runs against a simulated disk; this crate makes
//! the same query machinery durable, and its directory is the repo's one
//! on-disk database format: `mq generate` writes a checkpointed store, and
//! every reader opens it with [`load`]. [`FilePageStore`] implements the
//! [`mq_storage::PageStore`] trait over two real files:
//!
//! * a **segment file** of fixed-size page frames, each carrying the same
//!   per-page checksum the simulated disk precomputes, verified on every
//!   would-be physical read;
//! * a **write-ahead log** of `fsync`'d page post-images, replayed to the
//!   last complete record on reopen, with checkpoint/compaction folding
//!   the log back into the segment atomically (tmp file + rename).
//!
//! Because the store delegates all read accounting to an inner
//! [`mq_storage::SimulatedDisk`] over the recovered image, answers,
//! [`IoStats`](mq_storage::IoStats), and §5.2 avoidance counters are
//! bit-identical across backends — the property the testkit's
//! oracle-equivalence matrix enforces.
//!
//! The first mutation path lives here too: [`FilePageStore::insert`] and
//! [`FilePageStore::delete`] append a WAL record, rewrite the affected
//! frame in place, and leave in-flight multiple-query sessions repairable
//! via `QueryEngine::notify_insert` / `notify_delete`, preserving
//! Definition 4's incremental guarantees.

pub mod error;
pub mod file;
pub mod format;
pub mod obs;
pub mod partition;

pub use error::StoreError;
pub use file::{load, FilePageStore, LOCK_FILE, SEGMENT_FILE, WAL_FILE};
pub use format::{SegmentMeta, SEGMENT_HEADER_LEN};
pub use obs::{StoreCounters, StoreObs, StoreStats};
pub use partition::{PartitionManifest, PARTITION_MANIFEST_FILE};
