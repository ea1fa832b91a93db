//! End-to-end persistence flow: generate → save → load → rebuild index →
//! identical query answers (the CLI's code path as a library test). A
//! saved database is an `mq-store` directory, the repo's one on-disk
//! format.

use mq_store::FilePageStore;
use mquery::datagen::{image_histograms, tycho_like};
use mquery::prelude::*;
use mquery::storage::VectorCodec;
use std::path::PathBuf;

/// A fresh, empty temp directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mquery-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves `db` as a store directory (what `mq generate` writes) and loads
/// it back read-only (what every reading command does).
fn save_and_load(db: &PagedDatabase<Vector>, tag: &str) -> PagedDatabase<Vector> {
    let dir = temp_dir(tag);
    drop(FilePageStore::create(&dir, db.clone(), VectorCodec, 1).expect("save"));
    let restored = mq_store::load(&dir, &VectorCodec).expect("load");
    std::fs::remove_dir_all(&dir).ok();
    restored
}

fn answers_on(db: &PagedDatabase<Vector>, queries: &[(Vector, QueryType)]) -> Vec<Vec<ObjectId>> {
    let ds = db.to_dataset().expect("no deleted ids");
    let (tree, fresh) = XTree::bulk_load(
        &ds,
        XTreeConfig {
            layout: db.layout(),
            ..Default::default()
        },
    );
    let disk = SimulatedDisk::new(fresh, 0.1);
    let engine = QueryEngine::new(&disk, &tree, Euclidean);
    queries
        .iter()
        .map(|(q, t)| engine.similarity_query(q, t).ids().collect())
        .collect()
}

#[test]
fn saved_and_loaded_databases_answer_identically() {
    let objects = tycho_like(2_000, 11);
    let queries: Vec<(Vector, QueryType)> = objects
        .iter()
        .step_by(251)
        .map(|v| (v.clone(), QueryType::knn(7)))
        .collect();
    let ds = Dataset::new(objects);
    let db = PagedDatabase::pack(&ds, PageLayout::PAPER);

    let restored = save_and_load(&db, "answers");

    assert_eq!(answers_on(&db, &queries), answers_on(&restored, &queries));
}

#[test]
fn index_layout_survives_persistence() {
    // Persist an *X-tree layout* database: the page grouping (and thus the
    // I/O behaviour) must be preserved, not just the objects.
    let ds = Dataset::new(image_histograms(1_500, 3));
    let (tree, db) = XTree::bulk_load(&ds, XTreeConfig::default());
    let restored = save_and_load(&db, "layout");
    assert_eq!(restored.page_count(), db.page_count());
    assert_eq!(restored.layout(), db.layout());
    for pid in db.page_ids() {
        let a: Vec<ObjectId> = db.page(pid).iter().map(|(id, _)| id).collect();
        let b: Vec<ObjectId> = restored.page(pid).iter().map(|(id, _)| id).collect();
        assert_eq!(a, b, "page {pid} grouping changed");
    }
    // The frozen tree still matches the restored database's pages: same
    // leaf MBR containment.
    for pid in restored.page_ids() {
        let mbr = tree.leaf_mbr(pid);
        for (_, v) in restored.page(pid).records() {
            assert!(mbr.contains_point(v));
        }
    }
}

#[test]
fn file_based_roundtrip_via_tempdir() {
    let ds = Dataset::new(tycho_like(300, 5));
    let db = PagedDatabase::pack(&ds, PageLayout::PAPER);
    // Saving creates missing parent directories.
    let root = temp_dir("flow");
    let dir = root.join("a").join("b");
    drop(FilePageStore::create(&dir, db, VectorCodec, 1).unwrap());
    let restored: PagedDatabase<Vector> = mq_store::load(&dir, &VectorCodec).unwrap();
    assert_eq!(restored.object_count(), 300);
    for i in [0u32, 150, 299] {
        assert_eq!(restored.object(ObjectId(i)), &ds.objects()[i as usize]);
    }
    std::fs::remove_dir_all(&root).ok();
}
