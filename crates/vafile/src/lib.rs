#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The VA-file: vector-approximation filtering for high-dimensional scans
//! (Weber, Schek, Blott — VLDB'98; paper ref. \[22\]).
//!
//! §2 of the paper: *"above a certain dimensionality no index structure can
//! process a nearest neighbor query efficiently. Thus, it is suggested to
//! use the sequential scan … In the VA-file, clever bit encodings of the
//! data are used to speed-up the scan."* This module implements that
//! refinement of the linear scan as a filter-and-refine query processor:
//!
//! 1. **Filter** — a sequential scan over a compact *approximation file*
//!    (each vector quantized to `bits` bits per dimension) computes, per
//!    object, a lower and an upper bound on its distance to the query;
//!    objects whose lower bound exceeds the current query distance are
//!    filtered without touching their full vector.
//! 2. **Refine** — surviving candidates are visited in ascending
//!    lower-bound order; only their data pages are read and only their
//!    true distances computed, stopping as soon as the next lower bound
//!    exceeds the query distance.
//!
//! The approximation file lives on its own simulated disk (its pages are a
//! few percent of the data pages), so the harness can report both I/O
//! components separately.
//!
//! The VA-file's execution model is filter-and-refine over *objects*, not
//! best-first over *pages*, so it intentionally does **not** implement
//! `SimilarityIndex`; it provides its own single- and
//! multiple-query entry points with the same answer semantics
//! (equality with Fig. 1 / Definition 4 is covered by the test suite).

mod query;

pub use query::VaStats;

use mq_metric::{ObjectId, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk, StorageObject};

/// A quantized vector: one cell index per dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Approximation {
    cells: Box<[u8]>,
}

impl Approximation {
    /// The per-dimension cell indices.
    pub fn cells(&self) -> &[u8] {
        &self.cells
    }
}

impl StorageObject for Approximation {
    fn payload_bytes(&self) -> usize {
        // The real VA-file packs `bits` per dimension; we model the packed
        // size (cells.len() × bits / 8) through the page layout at build
        // time, but store unpacked bytes in memory for speed. The page
        // capacity is computed from the packed size in `VaFile::build`.
        self.cells.len()
    }
}

/// VA-file construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct VaConfig {
    /// Bits per dimension (the VLDB'98 paper uses 4–8).
    pub bits: u8,
    /// Page layout of both the approximation and the data file.
    pub layout: PageLayout,
    /// Buffer fraction of the approximation disk.
    pub buffer_fraction: f64,
}

impl Default for VaConfig {
    fn default() -> Self {
        Self {
            bits: 6,
            layout: PageLayout::PAPER,
            buffer_fraction: 0.10,
        }
    }
}

/// The VA-file over one vector database.
///
/// ```
/// use mq_core::QueryType;
/// use mq_metric::{Euclidean, Vector};
/// use mq_storage::{Dataset, SimulatedDisk};
/// use mq_vafile::{VaConfig, VaFile};
///
/// let ds = Dataset::new((0..500).map(|i| {
///     Vector::new(vec![(i % 23) as f32, (i % 41) as f32, (i % 7) as f32])
/// }).collect());
/// let (va, data_db) = VaFile::build(&ds, VaConfig::default());
/// let disk = SimulatedDisk::new(data_db, 0.10);
/// let q = Vector::new(vec![3.0, 20.0, 4.0]);
/// let (answers, stats) = va.similarity_query(&disk, &Euclidean, &q, &QueryType::knn(5));
/// assert_eq!(answers.len(), 5);
/// // The filter computed one bound per object but refined far fewer.
/// assert_eq!(stats.bound_computations, 500);
/// assert!(stats.refined < 500);
/// ```
pub struct VaFile {
    /// Per dimension: `2^bits + 1` ascending cell boundaries.
    marks: Vec<Vec<f64>>,
    bits: u8,
    dim: usize,
    approx_disk: SimulatedDisk<Approximation>,
}

impl VaFile {
    /// Builds the VA-file for a dataset and packs the full vectors into a
    /// data-page database (scan layout). Cell boundaries are equi-depth
    /// (quantiles) per dimension, as recommended by \[22\] for non-uniform
    /// data.
    ///
    /// # Panics
    /// Panics if the dataset is empty, dimensionalities differ, or
    /// `bits` is 0 or > 8.
    pub fn build(dataset: &Dataset<Vector>, cfg: VaConfig) -> (Self, PagedDatabase<Vector>) {
        assert!(
            !dataset.is_empty(),
            "cannot build a VA-file over an empty dataset"
        );
        assert!(
            cfg.bits >= 1 && cfg.bits <= 8,
            "bits per dimension must be in 1..=8"
        );
        let dim = dataset.object(ObjectId(0)).dim();
        assert!(
            dataset.objects().iter().all(|v| v.dim() == dim),
            "all vectors must share one dimensionality"
        );
        let cells = 1usize << cfg.bits;

        // Equi-depth marks per dimension.
        let mut marks = Vec::with_capacity(dim);
        for d in 0..dim {
            let values: Vec<f64> = dataset
                .objects()
                .iter()
                .map(|v| v.components()[d] as f64)
                .collect();
            marks.push(dimension_marks(values, cells));
        }

        // Quantize all vectors.
        let approximations: Vec<Approximation> = dataset
            .objects()
            .iter()
            .map(|v| {
                let cells: Box<[u8]> = v
                    .components()
                    .iter()
                    .enumerate()
                    .map(|(d, &x)| quantize(&marks[d], x as f64))
                    .collect();
                Approximation { cells }
            })
            .collect();

        // The packed approximation record is dim × bits / 8 bytes.
        // Approximations are fixed-length records in scan order, so they
        // need no slot directory — a 4-byte header suffices.
        let packed_bytes = (dim * cfg.bits as usize).div_ceil(8);
        let approx_layout = PageLayout::new(cfg.layout.block_bytes, 4);
        let approx_capacity = approx_layout.capacity_for(packed_bytes);
        let groups: Vec<Vec<(ObjectId, Approximation)>> = approximations
            .chunks(approx_capacity)
            .enumerate()
            .map(|(chunk, group)| {
                group
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (ObjectId((chunk * approx_capacity + i) as u32), a.clone()))
                    .collect()
            })
            .collect();
        let approx_db = PagedDatabase::from_groups(groups, approx_layout);
        let approx_disk = SimulatedDisk::new(approx_db, cfg.buffer_fraction);

        let data_db = PagedDatabase::pack(dataset, cfg.layout);
        (
            Self {
                marks,
                bits: cfg.bits,
                dim,
                approx_disk,
            },
            data_db,
        )
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The approximation file's disk (for I/O accounting).
    pub fn approx_disk(&self) -> &SimulatedDisk<Approximation> {
        &self.approx_disk
    }

    /// Number of approximation pages (vs. `data_db.page_count()` data
    /// pages — the compression that makes the filter scan cheap).
    pub fn approx_page_count(&self) -> usize {
        self.approx_disk.database().page_count()
    }

    /// Lower and upper bounds on the Euclidean distance between `q` and
    /// any vector quantized as `approx`.
    pub fn bounds(&self, q: &Vector, approx: &Approximation) -> (f64, f64) {
        debug_assert_eq!(q.dim(), self.dim);
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (d, &cell) in approx.cells().iter().enumerate() {
            let qd = q.components()[d] as f64;
            let lo_mark = self.marks[d][cell as usize];
            let hi_mark = self.marks[d][cell as usize + 1];
            let dl = if qd < lo_mark {
                lo_mark - qd
            } else if qd > hi_mark {
                qd - hi_mark
            } else {
                0.0
            };
            let dh = (qd - lo_mark).abs().max((qd - hi_mark).abs());
            lo += dl * dl;
            hi += dh * dh;
        }
        (lo.sqrt(), hi.sqrt())
    }
}

/// Equi-depth (quantile) cell boundaries for one dimension's values:
/// `cells + 1` non-decreasing marks with the outermost pair widened so
/// every value falls into a cell even after f32 → f64 rounding.
pub(crate) fn dimension_marks(mut values: Vec<f64>, cells: usize) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite components"));
    let mut m = Vec::with_capacity(cells + 1);
    for c in 0..=cells {
        let idx = (c * (values.len() - 1)) / cells;
        m.push(values[idx]);
    }
    m[0] -= 1e-9;
    m[cells] += 1e-9;
    // Enforce non-decreasing marks (duplicated quantiles collapse).
    for c in 1..=cells {
        if m[c] < m[c - 1] {
            m[c] = m[c - 1];
        }
    }
    m
}

pub(crate) fn quantize(marks: &[f64], x: f64) -> u8 {
    // partition_point gives the first mark > x; the cell is one before.
    let cells = marks.len() - 1;
    let idx = marks.partition_point(|m| *m <= x);
    (idx.saturating_sub(1)).min(cells - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_metric::{Euclidean, Metric};

    fn dataset(n: usize, dim: usize, seed: u64) -> Dataset<Vector> {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        Dataset::new(
            (0..n)
                .map(|_| Vector::new((0..dim).map(|_| (next() * 10.0) as f32).collect::<Vec<_>>()))
                .collect(),
        )
    }

    #[test]
    fn bounds_bracket_true_distances() {
        let ds = dataset(300, 6, 1);
        let (va, db) = VaFile::build(&ds, VaConfig::default());
        let q = ds.object(ObjectId(7)).clone();
        for pid in db.page_ids() {
            for (oid, v) in db.page(pid).records() {
                let approx_page = va.approx_disk.database().locate(*oid).0;
                let approx = &va.approx_disk.database().page(approx_page).records()
                    [va.approx_disk.database().locate(*oid).1 as usize]
                    .1;
                let (lo, hi) = va.bounds(&q, approx);
                let true_d = Euclidean.distance(&q, v);
                assert!(lo <= true_d + 1e-6, "lower bound {lo} > true {true_d}");
                assert!(hi >= true_d - 1e-6, "upper bound {hi} < true {true_d}");
            }
        }
    }

    #[test]
    fn more_bits_tighten_bounds() {
        let ds = dataset(300, 4, 3);
        let q = ds.object(ObjectId(11)).clone();
        let gap = |bits: u8| {
            let (va, _) = VaFile::build(
                &ds,
                VaConfig {
                    bits,
                    ..Default::default()
                },
            );
            let mut total = 0.0;
            for (oid, _) in ds.iter() {
                let (pid, slot) = va.approx_disk.database().locate(oid);
                let approx = &va.approx_disk.database().page(pid).records()[slot as usize].1;
                let (lo, hi) = va.bounds(&q, approx);
                total += hi - lo;
            }
            total
        };
        assert!(gap(6) < gap(2), "6-bit bounds should be tighter than 2-bit");
    }

    #[test]
    fn approximation_file_is_smaller_than_data_file() {
        let ds = dataset(3000, 16, 5);
        let (va, db) = VaFile::build(&ds, VaConfig::default());
        assert!(
            va.approx_page_count() * 3 < db.page_count(),
            "approximation file should be much smaller: {} vs {}",
            va.approx_page_count(),
            db.page_count()
        );
    }

    #[test]
    fn quantize_boundaries() {
        let marks = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(
            quantize(&marks, -5.0),
            0,
            "below range clamps to first cell"
        );
        assert_eq!(quantize(&marks, 0.5), 0);
        assert_eq!(quantize(&marks, 1.0), 1, "boundary goes to upper cell");
        assert_eq!(quantize(&marks, 2.5), 2);
        assert_eq!(quantize(&marks, 99.0), 2, "above range clamps to last cell");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let ds = Dataset::new(Vec::<Vector>::new());
        let _ = VaFile::build(&ds, VaConfig::default());
    }

    #[test]
    #[should_panic(expected = "bits per dimension")]
    fn invalid_bits_rejected() {
        let ds = dataset(10, 2, 7);
        let _ = VaFile::build(
            &ds,
            VaConfig {
                bits: 0,
                ..Default::default()
            },
        );
    }
}
