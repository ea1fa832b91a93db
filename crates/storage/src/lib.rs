#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-storage — the paged-storage substrate
//!
//! The paper's evaluation (§6) measures I/O cost in *data-page accesses*
//! against a disk with 32 KB blocks and an LRU buffer sized at 10 % of the
//! index. This crate reproduces that substrate in simulation:
//!
//! * [`Page`] / [`PageId`] — fixed-capacity data pages holding database
//!   objects; page capacity is derived from a [`PageLayout`] (block size and
//!   per-record header), exactly like a slotted page.
//! * [`PagedDatabase`] — an immutable collection of pages plus an
//!   object-id → (page, slot) directory. Databases are built either by
//!   *packing* objects sequentially (the linear-scan layout of §5.1) or from
//!   explicit page *groups* (the leaf-level clustering an index produces).
//! * [`SimulatedDisk`] — serves page reads through an [`LruBuffer`] and
//!   keeps [`IoStats`]: logical reads, buffer hits, physical reads, and the
//!   random/sequential split (the paper orders relevant pages by physical
//!   address "such that the number of disk seeks is minimized", §2).
//! * [`IoCostModel`] — converts the counters into modeled seconds with
//!   1999-class disk constants, so harness output is comparable in *shape*
//!   to the paper's figures.
//! * [`PageStore`] — the backend-neutral read/pin/prefetch trait extracted
//!   from the simulated disk's surface; the durable file-backed
//!   implementation lives in the `mq-store` crate.
//! * [`ObjectCodec`] — per-type payload encoding ([`VectorCodec`],
//!   [`SymbolsCodec`]) for `mq-store`'s page frames, the one on-disk
//!   format.
//!
//! The simulated disk is the **only** sanctioned way for query processing to
//! reach object data; [`PagedDatabase::object`] exists for bookkeeping
//! (inspecting objects that a query already returned) and is not counted as
//! I/O, mirroring the paper's assumption that returned answers live in the
//! DBMS answer buffer.

pub mod buffer;
pub mod codec;
pub mod database;
pub mod disk;
pub mod fault;
pub mod page;
pub mod stats;
pub mod store;

pub use buffer::LruBuffer;
pub use codec::{ObjectCodec, ReadLe, SymbolsCodec, Truncated, VectorCodec};
pub use database::{Dataset, DeletedIds, PagedDatabase, StorageObject};
pub use disk::SimulatedDisk;
pub use fault::{page_checksum, DiskError, FaultPlan, FaultStats};
pub use page::{Page, PageId, PageLayout};
pub use stats::{IoCostModel, IoStats};
pub use store::PageStore;
