//! Hostile segment bytes through [`mq_store::load`], the reader of the one
//! on-disk database format: whatever `segment.mqsg` holds, loading returns
//! a database or a typed error. It never panics, and no header claim sizes
//! an allocation the file's bytes cannot back.

use mq_metric::Vector;
use mq_storage::{Dataset, PageLayout, PagedDatabase, VectorCodec};
use mq_store::{FilePageStore, SegmentMeta, StoreError, SEGMENT_FILE, SEGMENT_HEADER_LEN};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A checkpointed store of `n` 2-d vectors in a fresh directory, and its
/// segment bytes.
fn valid_store(tag: &str, n: usize) -> (PathBuf, Vec<u8>) {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mq-store-hostile-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32, -2.0])).collect());
    let db = PagedDatabase::pack(&ds, PageLayout::new(128, 16));
    drop(FilePageStore::create(&dir, db, VectorCodec, 1).expect("create"));
    let segment = std::fs::read(dir.join(SEGMENT_FILE)).expect("read segment");
    (dir, segment)
}

/// Replaces the directory's segment with `segment` and loads it.
fn load_with(dir: &Path, segment: &[u8]) -> Result<PagedDatabase<Vector>, StoreError> {
    std::fs::write(dir.join(SEGMENT_FILE), segment).expect("write segment");
    mq_store::load(dir, &VectorCodec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte blob as the segment is a clean error (or, for a crafted
    /// valid blob, a database), never a panic.
    #[test]
    fn any_blob_never_panics(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let (dir, _) = valid_store("blob", 3);
        let _ = load_with(&dir, &data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating a valid segment anywhere is a typed error: a checkpoint
    /// writes every frame, so a short segment was cut.
    #[test]
    fn truncated_segment_is_an_error(n in 1usize..40, cut in 1usize..4096) {
        let (dir, segment) = valid_store("cut", n);
        let cut = cut.min(segment.len());
        let result = load_with(&dir, &segment[..segment.len() - cut]);
        prop_assert!(result.is_err(), "cut {cut} of {} B loaded", segment.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping one bit either still loads (flips inside float payloads
    /// can stay finite, and the frame checksum covers ids, not payloads)
    /// or is a typed error — never a panic. A flip in the header, whose
    /// `id_space` sizes the id directory, is always an error.
    #[test]
    fn single_bit_flip_never_panics(n in 1usize..40, at in 0usize..4096, bit in 0u8..8) {
        let (dir, mut segment) = valid_store("flip", n);
        let at = at % segment.len();
        segment[at] ^= 1 << bit;
        let result = load_with(&dir, &segment);
        if at < SEGMENT_HEADER_LEN as usize {
            prop_assert!(
                matches!(result, Err(StoreError::Format(_))),
                "flip of bit {bit} in header byte {at}: {result:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Headers that claim absurd page counts or record geometries fail
    /// with a typed error before anything is sized by the claim.
    #[test]
    fn absurd_claims_fail_before_allocating(
        page_count in any::<u32>(),
        capacity in prop_oneof![1u32..64, any::<u32>()],
        max_rec in prop_oneof![1u32..64, any::<u32>()],
        frame_bytes in any::<u32>(),
        valid_geometry in any::<bool>(),
    ) {
        let (dir, _) = valid_store("claims", 1);
        let frame_bytes = match SegmentMeta::frame_bytes_for(capacity, max_rec) {
            Some(exact) if valid_geometry => exact,
            _ => frame_bytes,
        };
        let mut segment = SegmentMeta {
            block_bytes: 128,
            record_header_bytes: 16,
            frame_bytes,
            page_count,
            id_space: 1,
            max_rec,
            capacity,
        }
        .encode_header();
        segment.extend_from_slice(&[0u8; 64]);
        let result = load_with(&dir, &segment);
        if page_count > 0 {
            prop_assert!(
                matches!(result, Err(StoreError::Format(_)) | Err(StoreError::Corrupt { .. })),
                "{page_count} pages, capacity {capacity}, max_rec {max_rec}: {result:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
