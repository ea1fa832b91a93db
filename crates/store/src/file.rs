//! [`FilePageStore`] — the durable backend behind the [`PageStore`] trait.
//!
//! The store keeps the whole database resident (exactly like
//! [`SimulatedDisk`], whose accounting it reuses verbatim) and mirrors it
//! onto two real files in its directory:
//!
//! * `segment.mqsg` — fixed-size page frames (see [`crate::format`]);
//! * `wal.mqwl` — the write-ahead log of page post-images.
//!
//! **Write path.** A mutation appends one WAL record and `fsync`s it
//! *before* the affected frame is rewritten in place. A crash between the
//! two leaves a stale frame that the WAL post-image repairs on reopen; a
//! crash mid-append leaves a torn WAL tail that reopen discards. Either
//! way, reopen recovers checksum-valid state equal to the last checkpoint
//! plus every completely-appended record.
//!
//! **Read path.** All metering — buffer hits, physical reads, the
//! random/sequential split, prefetch accounting, fault injection — is
//! delegated to an inner [`SimulatedDisk`] over the recovered database, so
//! the testkit's oracle-equivalence matrix holds bit-identically across
//! backends by construction. On every read that misses the buffer the
//! store additionally reads the page's frame back from the segment file
//! and verifies its embedded checksum (the same
//! [`mq_storage::page_checksum`] the simulated disk precomputes), so
//! on-disk rot surfaces as [`DiskError::CorruptPage`] at the first
//! would-be physical read.
//!
//! **Read-only load.** [`load`] runs the same recovery into a plain
//! [`PagedDatabase`] without owning the directory: this is the one format
//! every command reads.

use crate::error::StoreError;
use crate::format::{
    decode_frame, decode_wal, encode_frame, encode_wal_record, SegmentMeta, WalRecord,
    FRAME_PREFIX_LEN, OP_DELETE, OP_INSERT, VERSION, WAL_HEADER_LEN, WAL_MAGIC,
};
use crate::obs::{StoreCounters, StoreObs, StoreStats};
use mq_metric::ObjectId;
use mq_obs::Recorder;
use mq_storage::{
    DiskError, FaultPlan, FaultStats, IoStats, ObjectCodec, Page, PageId, PageLayout, PageStore,
    PagedDatabase, ReadLe, SimulatedDisk, StorageObject,
};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Segment file name inside the store directory.
pub const SEGMENT_FILE: &str = "segment.mqsg";
/// WAL file name inside the store directory.
pub const WAL_FILE: &str = "wal.mqwl";
/// Lock file name inside the store directory.
pub const LOCK_FILE: &str = "lock.mqlk";

/// Exclusive advisory ownership of a store directory, backed by a lock
/// file holding the owner's pid.
///
/// The store is single-writer: a second opener could checkpoint away the
/// first's un-checkpointed WAL or interleave frame writes, so
/// [`FilePageStore::create`]/[`open`](FilePageStore::open) acquire this
/// first and fail fast with [`StoreError::Locked`] when the directory is
/// already owned. The file is removed on drop; after a crash (`kill -9`)
/// the pid it names is dead, which the next opener detects (on Linux, via
/// `/proc/<pid>`) and steals — so a crashed store never needs manual
/// unlocking.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    fn acquire(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(LOCK_FILE);
        // Two rounds: the second retries after removing a stale lock.
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(std::process::id().to_string().as_bytes())?;
                    file.sync_all()?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if process_alive(pid) => {
                            return Err(StoreError::Locked {
                                dir: dir.to_path_buf(),
                                holder: pid,
                            })
                        }
                        // Dead owner, or garbage left by a crash mid-acquire:
                        // the lock is stale either way.
                        _ => {
                            std::fs::remove_file(&path).ok();
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Lost the post-steal race to another opener.
        let holder = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
            .unwrap_or(0);
        Err(StoreError::Locked {
            dir: dir.to_path_buf(),
            holder,
        })
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Whether `pid` names a live process. Without `libc` in the dependency
/// tree there is no `flock`/`kill(0)`; `/proc` answers the same question
/// on Linux. A zombie (killed but not yet reaped — state `Z` in its stat
/// line) still has a `/proc` entry but can't own anything, so it counts
/// as dead. Elsewhere liveness is unknowable from here, so a held lock
/// is conservatively assumed live (never stolen).
fn process_alive(pid: u32) -> bool {
    if !cfg!(target_os = "linux") {
        return true;
    }
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // "pid (comm) STATE ..." — comm may contain anything, so the
        // state is the first field after the *last* ')'.
        Ok(stat) => {
            let state = stat
                .rfind(')')
                .and_then(|i| stat[i + 1..].trim_start().chars().next());
            state != Some('Z')
        }
        Err(_) => false,
    }
}

/// A durable page store: one directory holding a segment file and a WAL.
///
/// Reads go through the same buffer/accounting machinery as
/// [`SimulatedDisk`]; mutations ([`insert`](Self::insert) /
/// [`delete`](Self::delete)) are WAL-first and crash-safe. The store is a
/// **single-writer** structure: mutations take `&mut self`, and exactly
/// one store may own a directory at a time — enforced by a pid lock file
/// ([`LOCK_FILE`]) acquired in [`create`](Self::create)/[`open`](Self::open),
/// released on drop, and stolen automatically when its owner is dead
/// (crash recovery never needs manual unlocking).
pub struct FilePageStore<O: StorageObject, C> {
    dir: PathBuf,
    /// Exclusive directory ownership; released (file removed) on drop.
    _lock: StoreLock,
    segment: File,
    wal: File,
    /// Next WAL append offset (header + complete records).
    wal_len: u64,
    codec: C,
    /// Geometry as of the last checkpoint; `page_count`/`id_space` of the
    /// *live* database are read off `inner.database()`.
    meta: SegmentMeta,
    inner: SimulatedDisk<O>,
    counters: StoreCounters,
    obs: Mutex<Option<StoreObs>>,
}

impl<O: StorageObject, C> std::fmt::Debug for FilePageStore<O, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilePageStore")
            .field("dir", &self.dir)
            .field("meta", &self.meta)
            .field("wal_len", &self.wal_len)
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl<O, C> FilePageStore<O, C>
where
    O: StorageObject,
    C: ObjectCodec<O> + Send + Sync + std::fmt::Debug,
{
    /// Creates a fresh store in `dir` (created if missing) from an
    /// in-memory database, preserving its page grouping byte-for-byte.
    ///
    /// The record slot size is fixed at creation to the largest encoded
    /// payload in `db` and the frame capacity to the fullest page, so
    /// later [`insert`](Self::insert)s of larger objects are rejected
    /// with [`StoreError::Oversized`] rather than silently re-laid-out.
    pub fn create(
        dir: impl AsRef<Path>,
        db: PagedDatabase<O>,
        codec: C,
        buffer_pages: usize,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = StoreLock::acquire(&dir)?;
        let mut max_rec = 1u32;
        let mut capacity = 1u32;
        for pid in db.page_ids() {
            let page = db.page(pid);
            capacity = capacity.max(page.len() as u32);
            for (_, object) in page.records() {
                let mut body = Vec::new();
                codec.encode(object, &mut body);
                max_rec = max_rec.max(body.len() as u32);
            }
        }
        let frame_bytes = SegmentMeta::frame_bytes_for(capacity, max_rec).ok_or_else(|| {
            StoreError::Format(format!(
                "{capacity} records of {max_rec} B per page overflow a u32 frame"
            ))
        })?;
        let meta = SegmentMeta {
            block_bytes: db.layout().block_bytes as u32,
            record_header_bytes: db.layout().record_header_bytes as u32,
            frame_bytes,
            page_count: db.page_count() as u32,
            id_space: db.object_count() as u32,
            max_rec,
            capacity,
        };
        let counters = StoreCounters::default();
        let segment = write_segment(&dir.join(SEGMENT_FILE), &meta, &db, &codec, &counters)?;
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&[0, 0]);
        (&wal).write_all(&header)?;
        wal.sync_all()?;
        counters.count_fsync();
        sync_dir(&dir, &counters)?;
        Ok(Self {
            dir,
            _lock: lock,
            segment,
            wal,
            wal_len: WAL_HEADER_LEN,
            codec,
            meta,
            inner: SimulatedDisk::with_buffer_pages(db, buffer_pages),
            counters,
            obs: Mutex::new(None),
        })
    }

    /// Opens an existing store, running crash recovery (see [`load`]):
    /// segment frames are checksum-verified, the WAL is replayed up to its
    /// last complete record (a torn tail is discarded), and a frame that
    /// fails its checksum is accepted only if a replayed post-image
    /// rewrites it. If anything was replayed, the store checkpoints
    /// immediately so the segment is clean again.
    pub fn open(dir: impl AsRef<Path>, codec: C, buffer_pages: usize) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let lock = StoreLock::acquire(&dir)?;
        let segment = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(SEGMENT_FILE))?;
        let Recovered {
            meta,
            db,
            wal_len,
            replayed,
        } = recover(&segment, &dir, &codec)?;
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(WAL_FILE))?;
        let counters = StoreCounters::default();
        counters.count_replayed(replayed);
        let mut store = Self {
            dir,
            _lock: lock,
            segment,
            wal,
            wal_len,
            codec,
            meta,
            inner: SimulatedDisk::with_buffer_pages(db, buffer_pages),
            counters,
            obs: Mutex::new(None),
        };
        if replayed > 0 || store.wal_len > WAL_HEADER_LEN {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Inserts one object: WAL append + `fsync`, then an in-place rewrite
    /// of the (possibly new) tail frame. Returns the new object's id.
    ///
    /// In-flight multiple-query sessions are reconciled afterwards with
    /// `QueryEngine::notify_insert`, which keeps Definition 4's partial
    /// answers valid without restarting the batch.
    pub fn insert(&mut self, object: O) -> Result<ObjectId, StoreError> {
        let mut body = Vec::new();
        self.codec.encode(&object, &mut body);
        if body.len() > self.meta.max_rec as usize {
            return Err(StoreError::Oversized {
                bytes: body.len(),
                max: self.meta.max_rec as usize,
            });
        }
        let capacity = self.meta.capacity as usize;
        let db = self.inner.database_mut();
        let id = db.insert_object(object, capacity);
        let (page, _slot) = db.locate(id);
        self.log_and_rewrite(OP_INSERT, id, page)?;
        Ok(id)
    }

    /// Deletes one object (tombstoning its id): WAL append + `fsync`, then
    /// an in-place rewrite of its compacted page. Returns the page.
    ///
    /// In-flight sessions are reconciled afterwards with
    /// `QueryEngine::notify_delete`, which invalidates exactly the queries
    /// whose answer lists contain the deleted object.
    pub fn delete(&mut self, id: ObjectId) -> Result<PageId, StoreError> {
        let db = self.inner.database_mut();
        if db.try_locate(id).is_none() {
            return Err(StoreError::UnknownObject(id));
        }
        let page = db.delete_object(id).expect("located object must delete");
        self.log_and_rewrite(OP_DELETE, id, page)?;
        Ok(page)
    }

    /// WAL-first tail of both mutations: append the post-image record,
    /// `fsync` the WAL, rewrite the frame in place, refresh the in-memory
    /// checksum table.
    fn log_and_rewrite(&mut self, op: u8, oid: ObjectId, page: PageId) -> Result<(), StoreError> {
        let db = self.inner.database();
        let record = WalRecord {
            op,
            oid,
            page,
            page_count_after: db.page_count() as u32,
            id_space_after: db.object_count() as u32,
            records: db.page(page).records().to_vec(),
        };
        let bytes = encode_wal_record(&record, &self.codec);
        self.wal.write_all_at(&bytes, self.wal_len)?;
        self.wal.sync_data()?;
        self.counters.count_fsync();
        self.wal_len += bytes.len() as u64;
        self.counters.count_wal_append();

        let frame = encode_frame(&self.meta, page, &record.records, &self.codec)?;
        self.segment
            .write_all_at(&frame, self.meta.frame_offset(page))?;
        self.counters.count_page_rewrite();
        self.inner.refresh_checksums();
        self.sync_obs();
        Ok(())
    }

    /// Rewrites the segment from the live database (tmp file + `fsync` +
    /// atomic rename + directory `fsync`), then truncates the WAL. After a
    /// checkpoint the WAL is empty and reopen replays nothing.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let db = self.inner.database();
        self.meta.page_count = db.page_count() as u32;
        self.meta.id_space = db.object_count() as u32;
        let tmp = self.dir.join("segment.mqsg.tmp");
        write_segment(&tmp, &self.meta, db, &self.codec, &self.counters)?;
        std::fs::rename(&tmp, self.dir.join(SEGMENT_FILE))?;
        sync_dir(&self.dir, &self.counters)?;
        // The pre-rename handle points at the replaced inode; reopen.
        self.segment = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.dir.join(SEGMENT_FILE))?;
        self.wal.set_len(WAL_HEADER_LEN)?;
        self.wal.sync_all()?;
        self.counters.count_fsync();
        self.wal_len = WAL_HEADER_LEN;
        self.counters.count_checkpoint();
        self.sync_obs();
        Ok(())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fixed segment geometry (checkpoint-time page/id counts).
    pub fn meta(&self) -> SegmentMeta {
        self.meta
    }

    /// Bytes currently in the WAL, header included.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// Snapshot of the durability counters.
    pub fn store_stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// The inner metered disk (diagnostics; reads should go through
    /// [`PageStore`]).
    pub fn inner(&self) -> &SimulatedDisk<O> {
        &self.inner
    }

    /// Reads frame `id` back from the segment file and verifies its
    /// embedded checksum against both a recomputation and the in-memory
    /// expectation. Called on every would-be buffer miss.
    fn verify_frame(&self, id: PageId) -> Result<(), DiskError> {
        let expected = self.inner.checksum(id);
        let corrupt = |actual| DiskError::CorruptPage {
            page: id,
            attempt: 0,
            expected,
            actual,
        };
        let mut frame = vec![0u8; self.meta.frame_bytes as usize];
        if self
            .segment
            .read_exact_at(&mut frame, self.meta.frame_offset(id))
            .is_err()
        {
            return Err(corrupt(0));
        }
        let mut buf = frame.as_slice();
        let (Ok(rec_count), Ok(stored)) = (buf.read_u32(), buf.read_u64()) else {
            return Err(corrupt(0));
        };
        let rec_count = rec_count as usize;
        let mut ids = Vec::with_capacity(rec_count.min(self.meta.capacity as usize));
        let mut intact = rec_count <= self.meta.capacity as usize;
        if intact {
            for _ in 0..rec_count {
                let (Ok(oid), Ok(len)) = (buf.read_u32(), buf.read_u32()) else {
                    intact = false;
                    break;
                };
                if buf.read_bytes(len as usize).is_err() {
                    intact = false;
                    break;
                }
                ids.push(oid);
            }
        }
        let actual = if intact {
            mq_storage::page_checksum(id, ids.into_iter())
        } else {
            !stored // parse failure: force a mismatch
        };
        if !intact || actual != stored || actual != expected {
            return Err(corrupt(actual));
        }
        Ok(())
    }

    /// The attached observability handles, locked. Critical sections only
    /// swap the handles or mirror counters into them, so a holder that
    /// panicked leaves a usable value and the next caller takes it over.
    fn obs(&self) -> MutexGuard<'_, Option<StoreObs>> {
        self.obs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirrors the atomic counters into the attached registry, if any.
    fn sync_obs(&self) {
        if let Some(obs) = self.obs().as_ref() {
            obs.sync(&self.counters);
        }
    }
}

/// Writes a complete segment file (header + every frame) and `fsync`s it.
///
/// Frames stream through a fixed-size buffer: the segment is never held in
/// memory whole, so a checkpoint's footprint does not grow with the page
/// count (or jump when the segment crosses a power of two).
fn write_segment<O: StorageObject, C: ObjectCodec<O>>(
    path: &Path,
    meta: &SegmentMeta,
    db: &PagedDatabase<O>,
    codec: &C,
    counters: &StoreCounters,
) -> Result<File, StoreError> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut out = BufWriter::with_capacity(1 << 16, file);
    out.write_all(&meta.encode_header())?;
    for pid in db.page_ids() {
        out.write_all(&encode_frame(meta, pid, db.page(pid).records(), codec)?)?;
    }
    let file = out.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    counters.count_fsync();
    Ok(file)
}

/// `fsync`s a directory so a rename/create inside it is durable.
fn sync_dir(dir: &Path, counters: &StoreCounters) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    counters.count_fsync();
    Ok(())
}

/// Reads a store directory into memory, read-only: the recovery
/// [`FilePageStore::open`] runs — frames checksum-verified, the WAL
/// replayed to its last complete record — without taking the lock,
/// writing, or checkpointing. The directory's bytes are left as they
/// were, and no lock file appears in it.
///
/// This is how every reader that does not mutate a database opens one:
/// `mq generate` writes a checkpointed store, and `mq info`, `query`,
/// `batch`, `dbscan` and `serve` load it.
///
/// A live writer may own the directory meanwhile. Its checkpoint renames
/// a new segment in and then empties the WAL, so a load that read the old
/// segment and then the emptied WAL would miss mutations. `load` notices
/// that the segment file was replaced while it read, and reads again; it
/// gives up with a typed error only if a checkpoint lands in each of
/// three reads.
pub fn load<O: StorageObject, C: ObjectCodec<O>>(
    dir: impl AsRef<Path>,
    codec: &C,
) -> Result<PagedDatabase<O>, StoreError> {
    let dir = dir.as_ref();
    let path = dir.join(SEGMENT_FILE);
    for _ in 0..LOAD_ATTEMPTS {
        // Open until the check below, so a later checkpoint's new segment
        // cannot be given this one's inode number.
        let segment = File::open(&path)?;
        let recovered = recover(&segment, dir, codec);
        if std::fs::metadata(&path)?.ino() == segment.metadata()?.ino() {
            return recovered.map(|r| r.db);
        }
    }
    Err(StoreError::Format(format!(
        "{} was checkpointed during each of {LOAD_ATTEMPTS} reads; load it again",
        dir.display()
    )))
}

/// Reads [`load`] makes before it gives up on a store that a live writer
/// keeps checkpointing.
const LOAD_ATTEMPTS: usize = 3;

/// What recovery rebuilds from a store directory.
struct Recovered<O> {
    meta: SegmentMeta,
    db: PagedDatabase<O>,
    /// Bytes in the WAL, header included.
    wal_len: u64,
    /// Complete WAL records replayed.
    replayed: u64,
}

/// Crash recovery, shared by [`FilePageStore::open`] and [`load`]: reads
/// `segment` (the directory's segment file, opened by the caller) and
/// then the WAL, and assembles the database they describe. Writes
/// nothing.
fn recover<O: StorageObject, C: ObjectCodec<O>>(
    segment: &File,
    dir: &Path,
    codec: &C,
) -> Result<Recovered<O>, StoreError> {
    let mut seg_bytes = Vec::new();
    (&*segment).read_to_end(&mut seg_bytes)?;
    let meta = SegmentMeta::decode_header(&seg_bytes)?;
    // A checkpoint writes every frame (tmp file + rename) and an insert
    // only writes at or past the last one, so a shorter segment was cut.
    // Checking first also bounds the frame table by the bytes at hand.
    let frames_end = meta.frame_offset(PageId(meta.page_count));
    if frames_end > seg_bytes.len() as u64 {
        return Err(StoreError::Format(format!(
            "segment holds {} B, but its header claims {} frames of {} B",
            seg_bytes.len(),
            meta.page_count,
            meta.frame_bytes
        )));
    }

    // Pass 1: the segment's frames. A damaged frame is tolerated here
    // (`None`) — it is fatal only if no WAL post-image covers it.
    let mut frames: Vec<Option<Vec<(ObjectId, O)>>> = (0..meta.page_count)
        .map(|i| {
            let start = meta.frame_offset(PageId(i)) as usize;
            let frame = &seg_bytes[start..start + meta.frame_bytes as usize];
            decode_frame(&meta, PageId(i), frame, codec).ok()
        })
        .collect();

    // Pass 2: WAL replay, latest write wins per page.
    let wal_bytes = std::fs::read(dir.join(WAL_FILE))?;
    if wal_bytes.len() < WAL_HEADER_LEN as usize
        || &wal_bytes[..4] != WAL_MAGIC
        || u16::from_le_bytes([wal_bytes[4], wal_bytes[5]]) != VERSION
    {
        return Err(StoreError::Format("bad or truncated WAL header".into()));
    }
    let replay = decode_wal::<O, _>(&wal_bytes[WAL_HEADER_LEN as usize..], codec)?;
    let replayed = replay.records.len() as u64;
    // Each insert grows the segment by at most one page and the id space
    // by one id, and a stale record (see below) never exceeds the
    // checkpointed counts — so no valid WAL can push either past these. A
    // tampered record must not size the frame table or the id directory.
    let max_pages = meta.page_count as usize + replay.records.len();
    let max_id_space = meta.id_space as usize + replay.records.len();
    let mut id_space = meta.id_space as usize;
    for record in replay.records {
        if record.records.len() > meta.capacity as usize {
            return Err(StoreError::Format(format!(
                "WAL post-image of {} records exceeds capacity {}",
                record.records.len(),
                meta.capacity
            )));
        }
        // A record may be *stale*: a crash between a checkpoint's segment
        // rename and its WAL truncation leaves the fresh segment alongside
        // records the checkpoint already folded in. Replaying a stale
        // post-image is idempotent, so the only per-record sanity
        // requirement is internal consistency — the rewritten page must
        // lie inside the page count the record itself declares.
        let idx = record.page.index();
        if idx >= record.page_count_after as usize || record.page_count_after as usize > max_pages {
            return Err(StoreError::Format(format!(
                "WAL record rewrites page {idx} with page count {} (segment holds {}, \
                 {replayed} records replayed)",
                record.page_count_after, meta.page_count,
            )));
        }
        if record.id_space_after as usize > max_id_space {
            return Err(StoreError::Format(format!(
                "WAL record claims id space {} (segment holds {}, {replayed} records replayed)",
                record.id_space_after, meta.id_space,
            )));
        }
        if idx >= frames.len() {
            frames.resize(idx + 1, None);
        }
        frames[idx] = Some(record.records);
        id_space = id_space.max(record.id_space_after as usize);
    }

    // Assemble: every frame must now be intact.
    let mut pages = Vec::with_capacity(frames.len());
    for (i, frame) in frames.into_iter().enumerate() {
        match frame {
            Some(records) => pages.push(Page::new(PageId(i as u32), records)),
            None => {
                return Err(StoreError::Corrupt {
                    page: i as u32,
                    detail: "frame failed its checksum and no WAL record covers it".into(),
                })
            }
        }
    }
    let mut directory: Vec<Option<(PageId, u32)>> = vec![None; id_space];
    for page in &pages {
        for (slot, (oid, _)) in page.records().iter().enumerate() {
            let entry = directory
                .get_mut(oid.index())
                .ok_or_else(|| StoreError::Format(format!("{oid} outside id space {id_space}")))?;
            if entry.is_some() {
                return Err(StoreError::Format(format!("{oid} appears on two pages")));
            }
            *entry = Some((page.id(), slot as u32));
        }
    }
    let layout = PageLayout::new(meta.block_bytes as usize, meta.record_header_bytes as usize);
    Ok(Recovered {
        meta,
        db: PagedDatabase::from_parts(pages, directory, layout),
        wal_len: wal_bytes.len() as u64,
        replayed,
    })
}

impl<O, C> PageStore<O> for FilePageStore<O, C>
where
    O: StorageObject,
    C: ObjectCodec<O> + Send + Sync + std::fmt::Debug,
{
    fn database(&self) -> &PagedDatabase<O> {
        self.inner.database()
    }

    fn try_read_page(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        if !self.inner.is_resident(id) {
            self.verify_frame(id)?;
        }
        self.inner.try_read_page(id)
    }

    fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        if !self.inner.is_resident(id) {
            self.verify_frame(id)?;
        }
        self.inner.try_read_page_pinned(id)
    }

    fn try_prefetch(&self, id: PageId) -> Result<(), DiskError> {
        if !self.inner.is_resident(id) {
            self.verify_frame(id)?;
        }
        self.inner.try_prefetch(id)
    }

    fn unpin_page(&self, id: PageId) {
        self.inner.unpin_page(id)
    }

    fn drop_prefetch_pins(&self) {
        self.inner.drop_prefetch_pins()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn cold_restart(&self) {
        self.inner.cold_restart()
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.attach_recorder(recorder);
        let mut obs = self.obs();
        match recorder.registry() {
            Some(registry) => {
                let store_obs = StoreObs::register(registry);
                store_obs.sync(&self.counters);
                *obs = Some(store_obs);
            }
            None => *obs = None,
        }
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan)
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn is_killed(&self) -> bool {
        self.inner.is_killed()
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn pinned_pages(&self) -> usize {
        self.inner.pinned_pages()
    }

    fn checksum(&self, id: PageId) -> u64 {
        self.inner.checksum(id)
    }
}

// Frame reads in `verify_frame` use the parse-only path (ids, not
// payloads), so they never allocate decoded objects; FRAME_PREFIX_LEN is
// implied by the two prefix reads.
const _: () = assert!(FRAME_PREFIX_LEN == 12);
