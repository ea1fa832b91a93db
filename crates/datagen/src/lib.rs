#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # mq-datagen — synthetic datasets and workloads for the evaluation
//!
//! The paper evaluates on two real databases we do not have:
//!
//! 1. the **Tycho catalogue** (ESA): 1,000,000 stars/galaxies as 20-d
//!    feature vectors, described as *"almost uniformly distributed"* (§6.2);
//! 2. a **TV-snapshot image database**: 112,000 images as 64-d color
//!    histograms, described as *"highly clustered"*.
//!
//! Per the substitution policy in `DESIGN.md`, this crate generates
//! distribution-faithful synthetic stand-ins:
//!
//! * [`tycho::tycho_like`] — near-uniform 20-d vectors with mild inter-band
//!   correlation (astronomical magnitudes are correlated across bands, which
//!   keeps the data *almost* — not perfectly — uniform);
//! * [`histogram::image_histograms`] — 64-d Gaussian-mixture vectors
//!   projected onto the probability simplex (non-negative, unit sum), with
//!   a configurable number of clusters.
//!
//! Beyond the paper's two databases, [`embeddings::embeddings`] generates
//! clustered unit-norm vectors shaped like learned retrieval embeddings,
//! the natural workload for the cosine and dot-product metrics.
//!
//! Both are fully seeded and reproducible. [`labels`] assigns class labels
//! for the classification experiment, [`workload`] generates the two §6
//! query workloads (independent classification queries; the parameters of
//! the dependent c-user exploration loop), and [`sessions`] generates
//! edit-distance web-session data for the non-vector metric case of §1.
//! [`arrivals`] adds the timing side: Poisson arrival schedules and
//! Zipf-skewed key popularity for the `mq-loadgen` latency harness.

pub mod arrivals;
pub mod clustered;
pub mod embeddings;
pub mod histogram;
pub mod labels;
pub mod sessions;
pub mod tycho;
pub mod uniform;
pub mod workload;

pub use arrivals::{poisson_arrival_offsets, zipf_indices};
pub use embeddings::{embeddings, embeddings_config};
pub use histogram::{image_histograms, image_histograms_config};
pub use labels::assign_labels;
pub use tycho::{tycho_like, tycho_like_dim};
pub use uniform::uniform_vectors;
pub use workload::{classification_query_ids, ExplorationConfig};
