#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! # mq-metric — metric distance functions for similarity search
//!
//! This crate implements the metric layer of the ICDE 2000 paper
//! *"Efficiently Supporting Multiple Similarity Queries for Mining in Metric
//! Databases"* (Braunmüller, Ester, Kriegel, Sander).
//!
//! A *metric database* is a database where a metric distance function is
//! defined for pairs of database objects (paper §2). The distance function
//! `dist: Objects × Objects → ℝ⁺` must satisfy, for all objects `O1, O2, O3`:
//!
//! 1. `dist(O1, O2) = 0 ⇔ O1 = O2` (identity),
//! 2. `dist(O1, O2) = dist(O2, O1)` (symmetry),
//! 3. `dist(O1, O3) ≤ dist(O1, O2) + dist(O2, O3)` (triangle inequality).
//!
//! The triangle inequality is the property the paper's CPU-cost optimization
//! (§5.2, Lemmas 1 and 2) exploits, so this crate also ships a
//! [`validation`] module used by the test suite to check the axioms for
//! every distance implementation, and a [`counting`] wrapper that counts
//! distance evaluations — the paper's unit of CPU cost.
//!
//! ## Provided distances
//!
//! * [`Euclidean`] and [`WeightedEuclidean`] — the common vector-space case.
//! * [`Manhattan`] (L1) and [`Chebyshev`] (L∞).
//! * [`Cosine`] (angular) and [`DotProduct`] — embedding workloads.
//!   `DotProduct` is a ranking function, not a metric; it reports itself as
//!   such through [`Metric::supports_triangle_avoidance`] /
//!   [`Metric::nonnegative`] and the engine degrades gracefully.
//! * [`QuadraticForm`] — histogram similarity as used for image databases
//!   (paper §2 cites Seidl/Kriegel's adaptable similarity search).
//! * [`EditDistance`] — a non-vector metric over symbol sequences, covering
//!   the paper's "WWW access log sessions / URLs" motivation (§1).
//!
//! All vector distances operate on [`Vector`] (shared `Arc<[f32]>` payloads with
//! `f64` distance arithmetic). The vector kernels live in [`kernel`] and
//! dispatch at runtime between a blocked scalar tier and one SIMD tier per
//! architecture (AVX2/NEON) that produce bit-identical results;
//! `MQ_SIMD=off|avx2|neon|auto` overrides the choice. [`VectorMetric`] names
//! the subset of metrics the server and CLI can select at runtime.

pub mod cosine;
pub mod cost;
pub mod counting;
pub mod distance;
pub mod edit;
pub mod euclidean;
pub mod hamming;
pub mod kernel;
pub mod object;
pub mod quadratic;
pub mod registry;
pub mod sets;
pub mod validation;

pub use cosine::{Cosine, DotProduct};
pub use cost::CpuCostModel;
pub use counting::{CountingMetric, DistanceCounter};
pub use distance::Metric;
pub use edit::{EditDistance, Symbols};
pub use euclidean::{Chebyshev, Euclidean, Manhattan, Minkowski, WeightedEuclidean};
pub use hamming::Hamming;
pub use kernel::SimdLevel;
pub use object::{ObjectId, Vector};
pub use quadratic::QuadraticForm;
pub use registry::VectorMetric;
pub use sets::{Jaccard, SymbolSet};
