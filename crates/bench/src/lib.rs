//! # mq-bench — the evaluation harness (§6)
//!
//! One binary per figure/table of the paper's evaluation; each prints the
//! same rows/series the paper reports, with both *modeled* costs (the
//! paper's 1999 CPU constants + documented 1999-class disk constants, so
//! shapes are comparable) and *measured* wall-clock on the current machine.
//!
//! | binary              | paper content |
//! |---------------------|------------------------------------------|
//! | `table_dist_cost`   | §6.2 distance-vs-comparison cost ratios |
//! | `fig7_io`           | avg I/O cost per query vs. m |
//! | `fig8_cpu`          | avg CPU cost per query vs. m |
//! | `fig9_total`        | avg total cost per query vs. m |
//! | `fig10_speedup`     | speed-up of m-multiple vs. single |
//! | `fig11_parallel`    | parallel vs. sequential multiple, s sweep |
//! | `fig12_overall`     | parallel multiple vs. sequential single |
//! | `table_k_robustness`| robustness of per-query cost to k |
//!
//! Scaling: the real datasets (1,000,000 / 112,000 objects) are replaced by
//! seeded synthetic stand-ins (see `mq-datagen`); sizes default to
//! 60,000 / 15,000 and scale via `MQ_ASTRO_N`, `MQ_IMAGE_N`, `MQ_SEED`.

pub mod baseline;
pub mod report;
pub mod run;
pub mod setup;
pub mod sweep;

pub use baseline::NaiveEuclidean;
pub use run::{run_blocked, run_singles, MeasuredRun};
pub use setup::{BenchDb, BenchEnv, Method, Rig};
