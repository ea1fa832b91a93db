#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mquery — multiple similarity queries for mining in metric databases
//!
//! A from-scratch Rust implementation of
//! Braunmüller, Ester, Kriegel, Sander:
//! *"Efficiently Supporting Multiple Similarity Queries for Mining in
//! Metric Databases"*, ICDE 2000 — including every substrate the paper
//! builds on (paged storage with a simulated disk, X-tree, M-tree, linear
//! scan) and every mining algorithm its evaluation exercises.
//!
//! ## Quick start
//!
//! ```
//! use mquery::prelude::*;
//!
//! // A small 4-d vector database.
//! let data: Vec<Vector> = (0..500)
//!     .map(|i| Vector::new(vec![i as f32 % 25.0, i as f32 % 7.0, 1.0, 0.5]))
//!     .collect();
//! let dataset = Dataset::new(data);
//!
//! // Build an X-tree; its leaves become the data pages of the database.
//! let (xtree, db) = XTree::bulk_load(&dataset, XTreeConfig::default());
//! let disk = SimulatedDisk::new(db, 0.10); // the paper's 10 % LRU buffer
//! let metric = CountingMetric::new(Euclidean);
//! let engine = QueryEngine::new(&disk, &xtree, metric.clone());
//!
//! // One similarity query (paper Fig. 1) ...
//! let query = dataset.object(ObjectId(42)).clone();
//! let single = engine.similarity_query(&query, &QueryType::knn(5));
//! assert_eq!(single.len(), 5);
//!
//! // ... versus a multiple similarity query (paper Fig. 4): same answers,
//! // shared page reads, triangle-inequality distance avoidance.
//! let batch: Vec<_> = (0..8)
//!     .map(|i| (dataset.object(ObjectId(i * 60)).clone(), QueryType::knn(5)))
//!     .collect();
//! let answers = engine.multiple_similarity_query(batch);
//! assert_eq!(answers.len(), 8);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`mq_metric`] | `Metric` trait, Euclidean / weighted / quadratic-form / edit distances, counting, axiom validation |
//! | [`mq_storage`] | pages, paged database, LRU buffer, simulated disk with I/O accounting |
//! | [`mq_index`] | linear scan, X-tree (VAMSplit bulk loading), M-tree, Hjaltason–Samet page planning |
//! | [`mq_core`] | query types, single + **multiple** similarity queries, avoidance, cost models |
//! | [`mq_mining`] | ExploreNeighborhoods scheme, DBSCAN, k-NN classification, exploration, proximity, trends, association rules |
//! | [`mq_parallel`] | shared-nothing cluster: declustering, per-server engines, answer merging |
//! | [`mq_datagen`] | seeded synthetic stand-ins for the paper's two evaluation databases + workloads |
//! | [`mq_vafile`] | VA-file filter-and-refine scan acceleration (paper ref. \[22\]) |
//! | [`mq_server`] | online query service: wire protocol, admission, batching scheduler turning concurrent clients into multiple similarity queries |
//! | [`mq_front`] | the service's TCP frontend: one readiness-polled event loop (`FrontServer`) |

pub use mq_core as core;
pub use mq_datagen as datagen;
pub use mq_front as front;
pub use mq_index as index;
pub use mq_metric as metric;
pub use mq_mining as mining;
pub use mq_parallel as parallel;
pub use mq_server as server;
pub use mq_storage as storage;
pub use mq_vafile as vafile;

/// The most common imports in one place.
pub mod prelude {
    pub use mq_core::{
        Answer, AnswerList, CostModel, EngineOptions, ExecutionStats, MultiQuerySession,
        QueryEngine, QueryKind, QueryType, StatsProbe,
    };
    pub use mq_front::FrontServer;
    pub use mq_index::{LinearScan, MTree, MTreeConfig, SimilarityIndex, XTree, XTreeConfig};
    pub use mq_metric::{
        CountingMetric, DistanceCounter, EditDistance, Euclidean, Metric, ObjectId, Symbols, Vector,
    };
    pub use mq_server::{build_backend, Client, ServerConfig};
    pub use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};
    pub use mq_vafile::{VaConfig, VaFile, VaStats};
}
