#![forbid(unsafe_code)]
//! mq-server: an online similarity-query service that turns concurrent
//! client traffic into multiple similarity queries.
//!
//! The paper batches m queries that arrive *together* (classification, data
//! mining, prefetching — §3). This crate supplies the missing online half:
//! a TCP server whose clients each send ordinary single queries, and whose
//! [`BatchScheduler`] merges whatever queued while the last batch ran into
//! one `multiple_similarity_query` batch. Concurrent traffic then enjoys
//! the paper's §5.1 page-read sharing and §5.2 distance-calculation
//! avoidance without any client-side coordination.
//!
//! Layers:
//!
//! - [`protocol`] — length-prefixed binary frames (requests, answers,
//!   service counters) in the same little-endian codec style as
//!   `mq_store`'s segment frames.
//! - [`scheduler`] — the batching scheduler: one queue, a worker pool; an
//!   idle worker takes whatever is queued, up to `max_batch`.
//! - [`backend`] — what a flushed batch runs on: a shared-nothing cluster
//!   of `s` engines (§5.3), one by default (the single engine of
//!   §5.1–5.2), over the simulated disk or the durable file store.
//! - [`registry`] — named collections, each owning its own scheduler,
//!   metric, index and (optionally durable) store.
//! - [`admission`] — bounded queue depth and per-tenant token buckets
//!   between decode and scheduling; overload becomes a typed reply.
//! - [`dispatch`] — the request logic between decode and scheduling.
//!   The TCP frontend itself is `mq-front`'s event loop
//!   (`mq_front::FrontServer`).
//! - [`client`] — a small blocking client library.
//! - [`config`] — the tuning knobs.
//!
//! ```
//! use mq_server::{build_backend, BatchScheduler, ServerConfig};
//! use mq_core::QueryType;
//! use mq_index::{LinearScan, SimilarityIndex};
//! use mq_metric::Vector;
//! use mq_storage::{Dataset, PagedDatabase};
//!
//! let ds = Dataset::new((0..1000).map(|i| Vector::new(vec![i as f32])).collect());
//! let db = PagedDatabase::pack(&ds, Default::default());
//! // One server by default; `with_servers(s)` declusters over s (§5.3).
//! let config = ServerConfig::default();
//! let backend = build_backend(&db, &config, 0.10, |part| {
//!     let db = PagedDatabase::pack(part, Default::default());
//!     let scan: Box<dyn SimilarityIndex<Vector>> = Box::new(LinearScan::new(db.page_count()));
//!     (scan, db)
//! })?;
//!
//! // `mq_front::FrontServer::bind(addr, backend, &config)` puts this
//! // scheduler behind a TCP listener; in process it is driven directly.
//! let scheduler = BatchScheduler::start(backend, &config);
//! let (tx, rx) = std::sync::mpsc::channel();
//! scheduler.submit_with(Vector::new(vec![42.0]), QueryType::knn(3), move |reply| {
//!     let _ = tx.send(reply);
//! });
//! assert_eq!(rx.recv()?.expect("batch executed").answers.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admission;
pub mod backend;
pub mod client;
pub mod config;
pub mod dispatch;
pub mod protocol;
pub mod registry;
pub mod scheduler;

pub use admission::AdmissionController;
pub use backend::{build_backend, build_backend_with_recorder, EngineBackend, QueryBackend};
pub use client::{Client, ClientError, RemoteAnswers, RetryConfig, RetryingClient};
pub use config::{QuotaConfig, ServerConfig, StoreChoice};
pub use dispatch::{AdmittedQuery, Dispatcher};
pub use protocol::{
    refusal, CollectionInfo, Message, ProtocolError, ServiceMetrics, DEFAULT_COLLECTION,
};
pub use registry::{Collection, CollectionRegistry};
pub use scheduler::{BatchScheduler, QueryReply};
