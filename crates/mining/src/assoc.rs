//! Neighborhood association rules (Koperski & Han, SSD'95; paper ref. \[15\]).
//!
//! Spatial association rules describe associations between object types
//! based on neighborhood relations — e.g. *"80 % of the selected towns are
//! close to some water"*. In the `ExploreNeighborhoods` scheme,
//! `StartObjects` is the set of all objects of the antecedent type,
//! `SimType` is the neighborhood predicate (here: a range query), `proc_2`
//! counts type co-occurrences, and `filter` passes nothing on.
//!
//! A rule `A → near B` holds with
//! `support  = |{a : type(a)=A ∧ ∃ b∈N(a): type(b)=B}| / |DB|` and
//! `confidence = … / |{a : type(a)=A}|`.

use crate::explore::query_blocks;
use mq_core::{QueryEngine, QueryType};
use mq_metric::{Metric, ObjectId};
use mq_storage::StorageObject;

/// One discovered neighborhood association rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AssociationRule {
    /// Antecedent object type.
    pub antecedent: usize,
    /// Consequent object type found in the neighborhood.
    pub consequent: usize,
    /// Fraction of all database objects supporting the rule.
    pub support: f64,
    /// Fraction of antecedent objects supporting the rule.
    pub confidence: f64,
}

/// Mines all rules `A → near B` (`A ≠ B`) with at least the given support
/// and confidence, issuing the per-antecedent range queries as multiple
/// similarity queries in blocks of `batch_size`.
pub fn mine_neighborhood_rules<O, M>(
    engine: &QueryEngine<'_, O, M>,
    types: &[usize],
    eps: f64,
    min_support: f64,
    min_confidence: f64,
    batch_size: usize,
) -> Vec<AssociationRule>
where
    O: StorageObject,
    M: Metric<O>,
{
    let n = engine.disk().database().object_count();
    assert_eq!(types.len(), n, "one type per database object required");
    assert!(batch_size > 0, "batch size must be positive");
    if n == 0 {
        return Vec::new();
    }
    let num_types = types.iter().copied().max().unwrap_or(0) + 1;
    let qtype = QueryType::range(eps);

    // supported[a][b] = number of type-a objects with a type-b neighbor.
    let mut supported = vec![vec![0u64; num_types]; num_types];
    let mut type_count = vec![0u64; num_types];
    for &t in types {
        type_count[t] += 1;
    }

    let ids: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
    query_blocks(engine, &ids, qtype, Some(batch_size), |a_id, a_answers| {
        let a_type = types[a_id.index()];
        let mut seen = vec![false; num_types];
        for ans in a_answers.iter().filter(|ans| ans.id != a_id) {
            seen[types[ans.id.index()]] = true;
        }
        for (b_type, &present) in seen.iter().enumerate() {
            if present {
                supported[a_type][b_type] += 1;
            }
        }
    });

    let mut rules = Vec::new();
    for a in 0..num_types {
        if type_count[a] == 0 {
            continue;
        }
        for (b, &count) in supported[a].iter().enumerate() {
            if a == b {
                continue;
            }
            let sup = count as f64 / n as f64;
            let conf = count as f64 / type_count[a] as f64;
            if sup >= min_support && conf >= min_confidence {
                rules.push(AssociationRule {
                    antecedent: a,
                    consequent: b,
                    support: sup,
                    confidence: conf,
                });
            }
        }
    }
    rules.sort_by(|x, y| {
        y.confidence
            .partial_cmp(&x.confidence)
            .unwrap()
            .then(x.antecedent.cmp(&y.antecedent))
            .then(x.consequent.cmp(&y.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_index::LinearScan;
    use mq_metric::{Euclidean, Vector};
    use mq_storage::{Dataset, PageLayout, PagedDatabase, SimulatedDisk};

    /// Towns (type 0) each adjacent to water (type 1); factories (type 2)
    /// far from everything.
    fn town_db() -> (Dataset<Vector>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut types = Vec::new();
        for i in 0..8 {
            pts.push(Vector::new(vec![i as f32 * 10.0, 0.0]));
            types.push(0); // town
            pts.push(Vector::new(vec![i as f32 * 10.0, 0.5]));
            types.push(1); // water next to it
        }
        for i in 0..4 {
            pts.push(Vector::new(vec![i as f32 * 10.0, 500.0]));
            types.push(2); // factory, isolated
        }
        (Dataset::new(pts), types)
    }

    fn engine_for(ds: &Dataset<Vector>) -> (PagedDatabase<Vector>, usize) {
        let db = PagedDatabase::pack(ds, PageLayout::new(128, 16));
        let p = db.page_count();
        (db, p)
    }

    #[test]
    fn towns_near_water_rule_found() {
        let (ds, types) = town_db();
        let (db, pages) = engine_for(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let rules = mine_neighborhood_rules(&engine, &types, 1.0, 0.1, 0.8, 8);
        let town_water = rules
            .iter()
            .find(|r| r.antecedent == 0 && r.consequent == 1)
            .expect("town → near water");
        assert!(
            (town_water.confidence - 1.0).abs() < 1e-12,
            "every town has water"
        );
        assert!((town_water.support - 8.0 / 20.0).abs() < 1e-12);
        // No factory rules: factories are isolated.
        assert!(rules.iter().all(|r| r.antecedent != 2));
    }

    #[test]
    fn batch_size_does_not_change_rules() {
        let (ds, types) = town_db();
        let (db, pages) = engine_for(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let r1 = mine_neighborhood_rules(&engine, &types, 1.0, 0.0, 0.0, 1);
        let r20 = mine_neighborhood_rules(&engine, &types, 1.0, 0.0, 0.0, 20);
        assert_eq!(r1, r20);
    }

    #[test]
    fn thresholds_filter_rules() {
        let (ds, types) = town_db();
        let (db, pages) = engine_for(&ds);
        let scan = LinearScan::new(pages);
        let disk = SimulatedDisk::with_buffer_pages(db, 2);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        let all = mine_neighborhood_rules(&engine, &types, 1.0, 0.0, 0.0, 8);
        let strict = mine_neighborhood_rules(&engine, &types, 1.0, 0.0, 0.99, 8);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|r| r.confidence >= 0.99));
    }

    #[test]
    fn empty_database() {
        let ds = Dataset::new(Vec::<Vector>::new());
        let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
        let scan = LinearScan::new(db.page_count());
        let disk = SimulatedDisk::with_buffer_pages(db, 1);
        let engine = QueryEngine::new(&disk, &scan, Euclidean);
        assert!(mine_neighborhood_rules(&engine, &[], 1.0, 0.0, 0.0, 4).is_empty());
    }
}
