//! The paged database: immutable pages plus an object directory.

use crate::page::{Page, PageId, PageLayout};
use mq_metric::{ObjectId, SymbolSet, Symbols, Vector};

/// Objects that can be stored in pages: the storage layer needs to know the
/// payload size to derive page capacities. `Debug` so stores holding
/// objects can themselves be `Debug` trait objects.
pub trait StorageObject: Clone + Send + Sync + std::fmt::Debug + 'static {
    /// The object's payload size in bytes.
    fn payload_bytes(&self) -> usize;

    /// Hints the CPU to pull the object's out-of-line payload into cache.
    /// A scan calls it a few records ahead of the one it computes; it
    /// changes no value. The default does nothing.
    #[inline]
    fn prefetch_payload(&self) {}
}

impl StorageObject for Vector {
    fn payload_bytes(&self) -> usize {
        Vector::payload_bytes(self)
    }

    #[inline]
    fn prefetch_payload(&self) {
        mq_metric::kernel::prefetch_lines(self.components());
    }
}

impl StorageObject for Symbols {
    fn payload_bytes(&self) -> usize {
        Symbols::payload_bytes(self)
    }
}

impl StorageObject for SymbolSet {
    fn payload_bytes(&self) -> usize {
        SymbolSet::payload_bytes(self)
    }
}

/// An in-memory dataset: the object universe before it is laid out on pages.
/// Object ids are positions in the backing vector.
#[derive(Clone, Debug)]
pub struct Dataset<O> {
    objects: Vec<O>,
}

impl<O: StorageObject> Dataset<O> {
    /// Wraps a vector of objects; ids are assigned by position.
    pub fn new(objects: Vec<O>) -> Self {
        assert!(
            u32::try_from(objects.len()).is_ok(),
            "dataset exceeds u32 object-id space"
        );
        Self { objects }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The object with the given id.
    pub fn object(&self, id: ObjectId) -> &O {
        &self.objects[id.index()]
    }

    /// All objects in id order.
    pub fn objects(&self) -> &[O] {
        &self.objects
    }

    /// All objects in id order, by value.
    pub fn into_objects(self) -> Vec<O> {
        self.objects
    }

    /// Iterates `(ObjectId, &O)`.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &O)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), o))
    }

    /// Maximum payload size over all objects (used to size pages for
    /// variable-length objects such as symbol sequences).
    pub fn max_payload_bytes(&self) -> usize {
        self.objects
            .iter()
            .map(|o| o.payload_bytes())
            .max()
            .unwrap_or(0)
    }
}

/// Why [`PagedDatabase::to_dataset`] failed: objects were deleted from
/// the database (only the durable store deletes), and a dataset's ids are
/// positions `0..n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeletedIds {
    /// Deleted ids.
    pub deleted: usize,
    /// The id space, deleted ids included.
    pub id_space: usize,
}

impl std::fmt::Display for DeletedIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} object ids are deleted, and only the durable store serves deleted ids; \
             serve the directory with --store file:<DIR>",
            self.deleted, self.id_space
        )
    }
}

impl std::error::Error for DeletedIds {}

/// A paged database (paper's class `DB`).
///
/// Built once, then read through [`crate::SimulatedDisk`]. Keeps a
/// directory mapping every object id to its `(page, slot)` location. The
/// only mutations are the online [`insert_object`]/[`delete_object`] used
/// by the durable file store: object ids are never reused, so a deleted
/// id's directory slot becomes a tombstone (`None`).
///
/// [`insert_object`]: Self::insert_object
/// [`delete_object`]: Self::delete_object
#[derive(Clone, Debug)]
pub struct PagedDatabase<O> {
    pages: Vec<Page<O>>,
    /// `directory[object_id] = Some((page, slot))`, `None` once deleted.
    directory: Vec<Option<(PageId, u32)>>,
    layout: PageLayout,
}

impl<O: StorageObject> PagedDatabase<O> {
    /// Packs a dataset into consecutive full pages in id order — the layout
    /// used by the linear scan (§5.1: every page is relevant and pages are
    /// processed in physical order).
    pub fn pack(dataset: &Dataset<O>, layout: PageLayout) -> Self {
        let capacity = layout.capacity_for(dataset.max_payload_bytes());
        let groups: Vec<Vec<(ObjectId, O)>> = dataset
            .objects()
            .chunks(capacity)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (ObjectId((chunk_idx * capacity + i) as u32), o.clone()))
                    .collect()
            })
            .collect();
        Self::from_groups(groups, layout)
    }

    /// Builds a database from explicit page groups — the layout an index
    /// produces, where each group is the contents of one index leaf.
    ///
    /// # Panics
    /// Panics if a group is empty, if an object id appears twice, or if the
    /// ids are not dense `0..n`.
    pub fn from_groups(groups: Vec<Vec<(ObjectId, O)>>, layout: PageLayout) -> Self {
        let n: usize = groups.iter().map(Vec::len).sum();
        let mut directory = vec![None; n];
        let mut pages = Vec::with_capacity(groups.len());
        for (pid, group) in groups.into_iter().enumerate() {
            assert!(!group.is_empty(), "page group {pid} is empty");
            let page_id = PageId(pid as u32);
            for (slot, (oid, _)) in group.iter().enumerate() {
                let entry = directory
                    .get_mut(oid.index())
                    .unwrap_or_else(|| panic!("object id {oid} out of dense range 0..{n}"));
                assert!(entry.is_none(), "object id {oid} appears on two pages");
                *entry = Some((page_id, slot as u32));
            }
            pages.push(Page::new(page_id, group));
        }
        for (i, e) in directory.iter().enumerate() {
            assert!(e.is_some(), "object id O{i} missing from page groups");
        }
        Self {
            pages,
            directory,
            layout,
        }
    }

    /// Reassembles a database from recovered parts — the file store's
    /// recovery path, which reads pages back from a segment file and then
    /// rebuilds the directory (tombstones included) by scanning them.
    ///
    /// # Panics
    /// Panics if a directory entry points outside its page.
    pub fn from_parts(
        pages: Vec<Page<O>>,
        directory: Vec<Option<(PageId, u32)>>,
        layout: PageLayout,
    ) -> Self {
        for (i, entry) in directory.iter().enumerate() {
            if let Some((pid, slot)) = entry {
                let page = &pages[pid.index()];
                let (oid, _) = page.records()[*slot as usize];
                assert!(
                    oid.index() == i,
                    "directory entry O{i} points at {oid} on {pid}"
                );
            }
        }
        Self {
            pages,
            directory,
            layout,
        }
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Size of the object-id space (`0..n`), deleted ids included: ids are
    /// positions and are never reused, so this only grows.
    pub fn object_count(&self) -> usize {
        self.directory.len()
    }

    /// Number of live (non-deleted) objects.
    pub fn live_object_count(&self) -> usize {
        self.directory.iter().filter(|e| e.is_some()).count()
    }

    /// The page layout the database was built with.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Direct (un-metered) access to a page. Query processing must go
    /// through [`crate::SimulatedDisk::read_page`] instead; this accessor is
    /// for index construction and tests.
    pub fn page(&self, id: PageId) -> &Page<O> {
        &self.pages[id.index()]
    }

    /// All page ids in physical order.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.pages.len() as u32).map(PageId)
    }

    /// The `(page, slot)` location of an object.
    ///
    /// # Panics
    /// Panics if the id is out of range or was deleted; use
    /// [`try_locate`](Self::try_locate) when tombstones are expected.
    pub fn locate(&self, id: ObjectId) -> (PageId, u32) {
        self.try_locate(id)
            .unwrap_or_else(|| panic!("object {id} is deleted or out of range"))
    }

    /// The `(page, slot)` location of an object, or `None` if the id is out
    /// of range or was deleted.
    pub fn try_locate(&self, id: ObjectId) -> Option<(PageId, u32)> {
        self.directory.get(id.index()).copied().flatten()
    }

    /// Un-metered object lookup by id — bookkeeping only (e.g. fetching a
    /// query object that a previous query already returned; the paper keeps
    /// such objects in the DBMS answer buffer).
    ///
    /// # Panics
    /// Panics if the id is out of range or was deleted.
    pub fn object(&self, id: ObjectId) -> &O {
        let (pid, slot) = self.locate(id);
        &self.pages[pid.index()].records()[slot as usize].1
    }

    /// [`object`](Self::object) that returns `None` for deleted or
    /// out-of-range ids instead of panicking.
    pub fn try_object(&self, id: ObjectId) -> Option<&O> {
        let (pid, slot) = self.try_locate(id)?;
        Some(&self.pages[pid.index()].records()[slot as usize].1)
    }

    /// Appends a new object, assigning it the next id. The object goes on
    /// the last page if that page still has room under `capacity`, else on
    /// a fresh page; the capacity is the caller's because a durable store
    /// fixes it by its frame size, not by the current contents.
    ///
    /// Returns the new object's id; [`locate`](Self::locate) gives the
    /// affected page.
    pub fn insert_object(&mut self, object: O, capacity: usize) -> ObjectId {
        assert!(capacity > 0, "page capacity must be positive");
        assert!(
            u32::try_from(self.directory.len()).is_ok(),
            "object-id space exhausted"
        );
        let id = ObjectId(self.directory.len() as u32);
        let (pid, slot) = match self.pages.last_mut() {
            Some(page) if page.len() < capacity => {
                let slot = page.len() as u32;
                page.records_mut().push((id, object));
                (page.id(), slot)
            }
            _ => {
                let pid = PageId(self.pages.len() as u32);
                self.pages.push(Page::new(pid, vec![(id, object)]));
                (pid, 0)
            }
        };
        self.directory.push(Some((pid, slot)));
        id
    }

    /// Deletes an object, tombstoning its directory slot (ids are never
    /// reused). Later records on the same page shift one slot left, exactly
    /// as a slotted-page compaction would; a page left empty stays in place
    /// so page ids remain physical addresses.
    ///
    /// Returns the page that was rewritten, or `None` if the id was out of
    /// range or already deleted.
    pub fn delete_object(&mut self, id: ObjectId) -> Option<PageId> {
        let (pid, slot) = self.directory.get_mut(id.index())?.take()?;
        let page = &mut self.pages[pid.index()];
        page.records_mut().remove(slot as usize);
        for s in slot as usize..self.pages[pid.index()].len() {
            let (oid, _) = self.pages[pid.index()].records()[s];
            self.directory[oid.index()] = Some((pid, s as u32));
        }
        Some(pid)
    }

    /// Reconstructs the dataset (objects in id order) — e.g. to rebuild an
    /// index over a database loaded from disk.
    ///
    /// # Errors
    /// [`DeletedIds`] if any object was deleted: a dataset's ids are
    /// positions, so a tombstoned id space cannot round-trip through it.
    pub fn to_dataset(&self) -> Result<Dataset<O>, DeletedIds> {
        let objects: Option<Vec<O>> = (0..self.object_count() as u32)
            .map(|i| self.try_object(ObjectId(i)).cloned())
            .collect();
        objects.map(Dataset::new).ok_or_else(|| DeletedIds {
            deleted: self.object_count() - self.live_object_count(),
            id_space: self.object_count(),
        })
    }

    /// Average page fill (records per page relative to capacity for the
    /// largest record) — diagnostic for index layouts.
    pub fn avg_fill(&self) -> f64 {
        if self.pages.is_empty() {
            return 0.0;
        }
        let cap: usize = self
            .pages
            .iter()
            .flat_map(|p| p.records().iter())
            .map(|(_, o)| o.payload_bytes())
            .max()
            .map(|payload| self.layout.capacity_for(payload))
            .unwrap_or(1);
        let avg_len =
            self.pages.iter().map(Page::len).sum::<usize>() as f64 / self.pages.len() as f64;
        avg_len / cap as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, dim: usize) -> Dataset<Vector> {
        Dataset::new(
            (0..n)
                .map(|i| Vector::new((0..dim).map(|j| (i * dim + j) as f32).collect::<Vec<_>>()))
                .collect(),
        )
    }

    #[test]
    fn pack_fills_pages_in_order() {
        let ds = vecs(10, 2);
        // 2-d vector: 8 bytes + 16 header = 24 bytes; tiny block of 72 bytes
        // holds exactly 3 records.
        let layout = PageLayout::new(72, 16);
        let db = PagedDatabase::pack(&ds, layout);
        assert_eq!(db.page_count(), 4); // 3+3+3+1
        assert_eq!(db.object_count(), 10);
        assert_eq!(db.page(PageId(0)).len(), 3);
        assert_eq!(db.page(PageId(3)).len(), 1);
        // Directory is consistent.
        for (id, o) in ds.iter() {
            assert_eq!(db.object(id).components(), o.components());
        }
    }

    #[test]
    fn from_groups_preserves_grouping() {
        let ds = vecs(5, 1);
        let groups = vec![
            vec![
                (ObjectId(3), ds.object(ObjectId(3)).clone()),
                (ObjectId(0), ds.object(ObjectId(0)).clone()),
            ],
            vec![(ObjectId(4), ds.object(ObjectId(4)).clone())],
            vec![
                (ObjectId(1), ds.object(ObjectId(1)).clone()),
                (ObjectId(2), ds.object(ObjectId(2)).clone()),
            ],
        ];
        let db = PagedDatabase::from_groups(groups, PageLayout::PAPER);
        assert_eq!(db.page_count(), 3);
        assert_eq!(db.locate(ObjectId(3)), (PageId(0), 0));
        assert_eq!(db.locate(ObjectId(2)), (PageId(2), 1));
    }

    #[test]
    #[should_panic(expected = "appears on two pages")]
    fn duplicate_object_id_rejected() {
        let v = Vector::new(vec![0.0]);
        let groups = vec![
            vec![(ObjectId(0), v.clone()), (ObjectId(1), v.clone())],
            vec![(ObjectId(0), v.clone())],
        ];
        // Note: ids are not dense either, but the duplicate fires first.
        let _ = PagedDatabase::from_groups(groups, PageLayout::PAPER);
    }

    #[test]
    #[should_panic(expected = "out of dense range")]
    fn non_dense_object_ids_rejected() {
        let v = Vector::new(vec![0.0]);
        let groups = vec![
            vec![(ObjectId(0), v.clone()), (ObjectId(2), v.clone())],
            vec![(ObjectId(3), v)],
        ];
        let _ = PagedDatabase::from_groups(groups, PageLayout::PAPER);
    }

    #[test]
    fn dataset_accessors() {
        let ds = vecs(4, 3);
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
        assert_eq!(ds.max_payload_bytes(), 12);
        assert_eq!(ds.iter().count(), 4);
    }

    #[test]
    fn insert_appends_to_last_page_then_opens_a_new_one() {
        let ds = vecs(5, 2);
        let layout = PageLayout::new(72, 16); // 3 records per page
        let mut db = PagedDatabase::pack(&ds, layout); // pages: 3 + 2
        let cap = layout.capacity_for(ds.max_payload_bytes());
        let a = db.insert_object(Vector::new(vec![100.0, 0.0]), cap);
        assert_eq!(a, ObjectId(5));
        assert_eq!(db.page_count(), 2, "filled the last page's free slot");
        assert_eq!(db.locate(a), (PageId(1), 2));
        let b = db.insert_object(Vector::new(vec![101.0, 0.0]), cap);
        assert_eq!(db.locate(b), (PageId(2), 0), "page 1 full → new page");
        assert_eq!(db.page_count(), 3);
        assert_eq!(db.object_count(), 7);
        assert_eq!(db.object(b).components()[0], 101.0);
    }

    #[test]
    fn delete_tombstones_and_compacts_the_page() {
        let ds = vecs(6, 2);
        let mut db = PagedDatabase::pack(&ds, PageLayout::new(72, 16)); // 3+3
        let gone = db.delete_object(ObjectId(0));
        assert_eq!(gone, Some(PageId(0)));
        assert_eq!(db.try_locate(ObjectId(0)), None);
        assert_eq!(db.try_object(ObjectId(0)), None);
        // Objects 1 and 2 shifted one slot left; the directory follows.
        assert_eq!(db.locate(ObjectId(1)), (PageId(0), 0));
        assert_eq!(db.locate(ObjectId(2)), (PageId(0), 1));
        assert_eq!(db.object(ObjectId(2)).components()[0], 4.0);
        // Id space keeps its size; live count shrinks.
        assert_eq!(db.object_count(), 6);
        assert_eq!(db.live_object_count(), 5);
        // Double delete and out-of-range are clean no-ops.
        assert_eq!(db.delete_object(ObjectId(0)), None);
        assert_eq!(db.delete_object(ObjectId(99)), None);
    }

    #[test]
    fn delete_can_empty_a_page_without_renumbering() {
        let ds = vecs(4, 2);
        let mut db = PagedDatabase::pack(&ds, PageLayout::new(72, 16)); // 3+1
        db.delete_object(ObjectId(3));
        assert_eq!(db.page_count(), 2, "empty page keeps its physical slot");
        assert!(db.page(PageId(1)).is_empty());
        assert_eq!(db.locate(ObjectId(2)), (PageId(0), 2));
    }

    #[test]
    fn from_parts_roundtrips_a_mutated_database() {
        let ds = vecs(6, 2);
        let mut db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        db.delete_object(ObjectId(1));
        let pages: Vec<_> = db.page_ids().map(|p| db.page(p).clone()).collect();
        let directory = (0..db.object_count() as u32)
            .map(|i| db.try_locate(ObjectId(i)))
            .collect();
        let back = PagedDatabase::from_parts(pages, directory, db.layout());
        assert_eq!(back.object_count(), db.object_count());
        assert_eq!(back.live_object_count(), db.live_object_count());
        for i in 0..db.object_count() as u32 {
            assert_eq!(back.try_locate(ObjectId(i)), db.try_locate(ObjectId(i)));
        }
    }

    #[test]
    fn to_dataset_refuses_deleted_ids() {
        let ds = vecs(6, 2);
        let mut db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        assert_eq!(db.to_dataset().expect("dense").objects(), ds.objects());
        db.delete_object(ObjectId(5));
        let err = db.to_dataset().expect_err("O5 is deleted");
        assert_eq!(
            err,
            DeletedIds {
                deleted: 1,
                id_space: 6
            }
        );
        assert!(err.to_string().contains("--store file:"), "{err}");
    }

    #[test]
    #[should_panic(expected = "deleted or out of range")]
    fn locate_panics_on_tombstone() {
        let ds = vecs(3, 2);
        let mut db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        db.delete_object(ObjectId(1));
        let _ = db.locate(ObjectId(1));
    }

    #[test]
    fn avg_fill_of_packed_db_is_high() {
        let ds = vecs(100, 2);
        let db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        assert!(db.avg_fill() > 0.8, "fill = {}", db.avg_fill());
    }
}
