//! Benchmark environment: the two databases in both access-method layouts.

use mq_core::{CostModel, QueryEngine, QueryType};
use mq_datagen::{image_histograms, tycho_like};
use mq_index::{LinearScan, SimilarityIndex, XTree, XTreeConfig};
use mq_metric::{CountingMetric, CpuCostModel, Euclidean, Metric, ObjectId, Vector};
use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

/// [`Euclidean`] priced for the avoidance sweep as on the paper's 1999
/// machine instead of this one. The figure binaries model that machine's
/// costs, so the engine should pick the pivots that pay there; distances are
/// `Euclidean`'s bit for bit.
///
/// The model charges per lemma evaluation (`tries`) while the sweep's price
/// is in visits. A visit evaluates zero, one or two lemmas — 1.18–1.26 on
/// average on the benchmark's mining workloads — so a visit is priced at one
/// comparison, and a distance at the model's distance-to-comparison ratio
/// (52 at 20-d, 155 at 64-d). Pricing a visit at two comparisons (every
/// lemma evaluated) cut pivots that the model says pay: Fig. 8's 20-d CPU
/// reductions at m = 100 fell from 6.10× to 5.81× (scan) and from 1.21× to
/// 1.12× (X-tree).
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperPriced;

impl Metric<Vector> for PaperPriced {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        Euclidean.distance(a, b)
    }

    fn distance_batch(&self, query: &Vector, objects: &[&Vector], out: &mut [f64]) {
        Euclidean.distance_batch(query, objects, out)
    }

    fn distance_le(&self, a: &Vector, b: &Vector, bound: f64) -> Option<f64> {
        Euclidean.distance_le(a, b, bound)
    }

    fn name(&self) -> &str {
        Euclidean.name()
    }

    fn distance_price(&self, payload_bytes: usize) -> f64 {
        CpuCostModel::paper_1999()
            .dist_to_comparison_ratio(payload_bytes / std::mem::size_of::<f32>())
    }
}

/// Reads a `usize` environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment variable with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The access method of a rig.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Linear scan (§5.1 scan case).
    Scan,
    /// X-tree (§5.1 index case).
    XTree,
}

impl Method {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Scan => "scan",
            Method::XTree => "x-tree",
        }
    }
}

/// One access-method rig over one database: disk + index + counted metric.
pub struct Rig {
    /// Which access method this rig uses.
    pub method: Method,
    /// The simulated disk serving this rig's page layout.
    pub disk: SimulatedDisk<Vector>,
    /// The access method.
    pub index: Box<dyn SimilarityIndex<Vector>>,
    /// Euclidean distance at the paper's price, with a shared calculation
    /// counter.
    pub metric: CountingMetric<PaperPriced>,
}

impl Rig {
    fn build(method: Method, dataset: &Dataset<Vector>, buffer_fraction: f64) -> Self {
        let layout = PageLayout::PAPER;
        let (index, db): (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>) = match method {
            Method::Scan => {
                let db = PagedDatabase::pack(dataset, layout);
                (Box::new(LinearScan::new(db.page_count())), db)
            }
            Method::XTree => {
                let cfg = XTreeConfig {
                    layout,
                    ..Default::default()
                };
                let (tree, db) = XTree::bulk_load(dataset, cfg);
                (Box::new(tree), db)
            }
        };
        let disk = SimulatedDisk::new(db, buffer_fraction);
        Self {
            method,
            disk,
            index,
            metric: CountingMetric::new(PaperPriced),
        }
    }

    /// A query engine over this rig (avoidance enabled).
    pub fn engine(&self) -> QueryEngine<'_, Vector, CountingMetric<PaperPriced>> {
        QueryEngine::new(&self.disk, &*self.index, self.metric.clone())
    }

    /// Resets disk statistics, buffer contents and the distance counter.
    pub fn cold_restart(&self) {
        self.disk.cold_restart();
        self.metric.counter().reset();
    }
}

/// One logical database with rigs for both access methods.
pub struct BenchDb {
    /// Short name ("astronomy" / "image").
    pub name: &'static str,
    /// Dimensionality (20 / 64).
    pub dim: usize,
    /// The raw objects (shared by both rigs and the parallel harness).
    pub objects: Vec<Vector>,
    /// Linear-scan rig.
    pub scan: Rig,
    /// X-tree rig.
    pub xtree: Rig,
}

impl BenchDb {
    fn build(name: &'static str, objects: Vec<Vector>, buffer_fraction: f64) -> Self {
        let dim = objects.first().map(|v| v.dim()).unwrap_or(1);
        let dataset = Dataset::new(objects.clone());
        let scan = Rig::build(Method::Scan, &dataset, buffer_fraction);
        let xtree = Rig::build(Method::XTree, &dataset, buffer_fraction);
        Self {
            name,
            dim,
            objects,
            scan,
            xtree,
        }
    }

    /// Both rigs, scan first.
    pub fn rigs(&self) -> [&Rig; 2] {
        [&self.scan, &self.xtree]
    }

    /// The cost model for this database's dimensionality.
    pub fn cost_model(&self) -> CostModel {
        CostModel::paper_1999(self.dim)
    }

    /// The paper's k for this database (10 on astronomy, 20 on image).
    pub fn paper_k(&self) -> usize {
        if self.dim >= 64 {
            20
        } else {
            10
        }
    }

    /// A k-NN query batch over the given object ids.
    pub fn knn_queries(&self, ids: &[ObjectId], k: usize) -> Vec<(Vector, QueryType)> {
        ids.iter()
            .map(|id| (self.objects[id.index()].clone(), QueryType::knn(k)))
            .collect()
    }
}

/// The full §6 environment: both databases.
pub struct BenchEnv {
    /// Tycho-like 20-d near-uniform data (default 60,000 objects;
    /// `MQ_ASTRO_N`).
    pub astro: BenchDb,
    /// Clustered 64-d histogram data (default 15,000 objects;
    /// `MQ_IMAGE_N`).
    pub image: BenchDb,
    /// The seed everything was generated from (`MQ_SEED`).
    pub seed: u64,
}

impl BenchEnv {
    /// Builds the environment from the `MQ_*` environment variables.
    pub fn from_env() -> Self {
        let seed = env_u64("MQ_SEED", 20000203); // ICDE 2000 ;-)
        let astro_n = env_usize("MQ_ASTRO_N", 60_000);
        let image_n = env_usize("MQ_IMAGE_N", 15_000);
        Self::build(astro_n, image_n, seed)
    }

    /// Builds an environment of explicit sizes (tests use small ones).
    pub fn build(astro_n: usize, image_n: usize, seed: u64) -> Self {
        let buffer_fraction = 0.10; // the paper's buffer: 10 % of the pages
        let astro = BenchDb::build("astronomy", tycho_like(astro_n, seed), buffer_fraction);
        let image = BenchDb::build(
            "image",
            image_histograms(image_n, seed ^ 0xA5A5),
            buffer_fraction,
        );
        Self { astro, image, seed }
    }

    /// Both databases.
    pub fn dbs(&self) -> [&BenchDb; 2] {
        [&self.astro, &self.image]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_env_builds_consistently() {
        let env = BenchEnv::build(300, 200, 7);
        assert_eq!(env.astro.dim, 20);
        assert_eq!(env.image.dim, 64);
        assert_eq!(env.astro.objects.len(), 300);
        assert_eq!(env.astro.scan.disk.database().object_count(), 300);
        assert_eq!(env.astro.xtree.disk.database().object_count(), 300);
        assert_eq!(env.image.paper_k(), 20);
        assert_eq!(env.astro.paper_k(), 10);
    }

    #[test]
    fn both_rigs_agree_on_answers() {
        let env = BenchEnv::build(400, 0, 9);
        let q = env.astro.objects[13].clone();
        let t = QueryType::knn(5);
        let scan_ids: Vec<ObjectId> = env
            .astro
            .scan
            .engine()
            .similarity_query(&q, &t)
            .ids()
            .collect();
        let tree_ids: Vec<ObjectId> = env
            .astro
            .xtree
            .engine()
            .similarity_query(&q, &t)
            .ids()
            .collect();
        assert_eq!(scan_ids, tree_ids);
    }

    #[test]
    fn paper_price_models_the_1999_machine() {
        let v = Vector::new(vec![0.5; 20]);
        assert_eq!(PaperPriced.distance(&v, &v), 0.0);
        assert!((PaperPriced.distance_price(v.payload_bytes()) - 52.4).abs() < 0.1);
        assert!(PaperPriced.distance_price(80) > 4.0 * Euclidean.distance_price(80));
    }

    #[test]
    fn env_parsers() {
        assert_eq!(env_usize("MQ_DOES_NOT_EXIST_XYZ", 7), 7);
        assert_eq!(env_u64("MQ_DOES_NOT_EXIST_XYZ", 9), 9);
    }
}
