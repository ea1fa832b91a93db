#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-core — single and multiple similarity queries
//!
//! The heart of the reproduction: the paper's query algorithms.
//!
//! * [`QueryType`] — Definition 1's query-type triple `(range, cardinality,
//!   kind)`, with the classic specializations *range query* (Definition 2),
//!   *k-nearest-neighbor query* (Definition 3) and the bounded combination
//!   mentioned in §2 ("the k-nearest neighbors but only those within a
//!   specified range").
//! * [`single::similarity_query`] — the unified single-query algorithm of
//!   Fig. 1: one loop over the relevant data pages, maintaining a sorted
//!   answer list, adapting the query distance and pruning pages, for any
//!   query type and any access method.
//! * [`MultiQuerySession`] + [`QueryEngine::multiple_query_step`] — the
//!   **multiple similarity query** of Definition 4 / Fig. 4: per call, the
//!   first pending query is answered *completely* while answers for the
//!   remaining query objects are collected *opportunistically* from every
//!   loaded page that is relevant for them; partial answers, processed-page
//!   sets and current query distances live in the session (the paper's
//!   internal DBMS buffer) across calls.
//! * [`avoidance`] — the CPU-cost reduction of §5.2: the inter-query
//!   distance matrix (`QObjDists`) and the two triangle-inequality lemmas
//!   that replace distance *calculations* by distance *comparisons*.
//! * [`stats`] — execution statistics and the combined cost model
//!   (`C^m = C_io^m + C_cpu^m`, §5) used by the benchmark harness.

pub mod answers;
pub mod avoidance;
pub mod engine;
pub mod fault;
pub mod multiple;
pub mod obs;
pub mod query;
pub mod single;
pub mod stats;

pub use answers::{Answer, AnswerList};
pub use avoidance::{AvoidanceStats, QueryDistanceMatrix};
pub use engine::{EngineOptions, QueryEngine};
pub use fault::{EngineError, FaultPolicy};
pub use multiple::MultiQuerySession;
pub use obs::EngineObs;
pub use query::{QueryKind, QueryType};
pub use stats::{CostModel, ExecutionStats, StatsProbe};
