//! Partition manifest — the sidecar that makes a clustered store's
//! global-id mapping explicit instead of positional.
//!
//! A shared-nothing cluster keeps one [`FilePageStore`] per partition
//! directory (`part-0/` … `part-S-1/`). Each partition's answers carry
//! *local* ids that the cluster maps back to global ids. Deriving that
//! mapping positionally on reopen (local `j` of partition `p` ↦
//! `j·S + p`) is only valid while every mutation preserved strict
//! round-robin declustering — an offline `mq insert` against a single
//! partition directory silently breaks it, and answers then name the
//! wrong objects.
//!
//! The manifest removes the guesswork: at creation every partition
//! directory gets a [`PartitionManifest`] recording the partition count,
//! its own index, and the **explicit** local→global id mapping. Reopen
//! reads the mapping back and validates it against the recovered store
//! (length, cross-partition uniqueness); any drift is a typed error, not
//! a silent remap.
//!
//! ```text
//! partition.mqpt:
//!   "MQPT" | version:u16 | pad:u16 | parts:u32 | partition:u32
//!   | count:u32 | count × gid:u32 | fnv1a64(all previous bytes):u64
//! ```
//!
//! [`FilePageStore`]: crate::FilePageStore

use crate::error::StoreError;
use crate::format::{fnv1a64, VERSION};
use mq_metric::ObjectId;
use mq_storage::ReadLe;
use std::io::Write;
use std::path::Path;

/// Manifest file name inside a partition's store directory.
pub const PARTITION_MANIFEST_FILE: &str = "partition.mqpt";
/// Partition-manifest magic.
pub const PARTITION_MAGIC: &[u8; 4] = b"MQPT";

/// One partition's place in a clustered store: which partition it is, how
/// many exist, and the explicit local→global id mapping (entry `j` is the
/// global id of local id `j`, tombstoned slots included).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionManifest {
    /// Total partitions in the cluster.
    pub parts: u32,
    /// This partition's index in `0..parts`.
    pub partition: u32,
    /// Global id of every local id, in local-id order.
    pub global_ids: Vec<ObjectId>,
}

impl PartitionManifest {
    /// Serializes the manifest, trailing checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20 + self.global_ids.len() * 4 + 8);
        buf.extend_from_slice(PARTITION_MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&self.parts.to_le_bytes());
        buf.extend_from_slice(&self.partition.to_le_bytes());
        buf.extend_from_slice(&(self.global_ids.len() as u32).to_le_bytes());
        for gid in &self.global_ids {
            buf.extend_from_slice(&(gid.index() as u32).to_le_bytes());
        }
        let crc = fnv1a64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a manifest (magic, version, length, checksum,
    /// partition index within range).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 28 {
            return Err(StoreError::Format("partition manifest truncated".into()));
        }
        let (body, mut tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a64(body) != tail.read_u64()? {
            return Err(StoreError::Format(
                "partition manifest checksum mismatch".into(),
            ));
        }
        let mut buf = body;
        if &buf.read_chunk()? != PARTITION_MAGIC {
            return Err(StoreError::Format("not a partition manifest".into()));
        }
        let version = buf.read_u16()?;
        if version != VERSION {
            return Err(StoreError::Format(format!(
                "unsupported partition manifest version {version}"
            )));
        }
        let _pad = buf.read_u16()?;
        let parts = buf.read_u32()?;
        let partition = buf.read_u32()?;
        let count = buf.read_u32()? as usize;
        if partition >= parts {
            return Err(StoreError::Format(format!(
                "partition {partition} outside its own partition count {parts}"
            )));
        }
        if buf.len() != count * 4 {
            return Err(StoreError::Format(format!(
                "partition manifest declares {count} ids but carries {} bytes of them",
                buf.len()
            )));
        }
        let global_ids = std::iter::from_fn(|| buf.read_u32().ok())
            .map(ObjectId)
            .collect();
        Ok(Self {
            parts,
            partition,
            global_ids,
        })
    }

    /// Durably writes the manifest into `dir` (tmp file + `fsync` +
    /// atomic rename).
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join("partition.mqpt.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        std::fs::rename(&tmp, dir.join(PARTITION_MANIFEST_FILE))?;
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Reads the manifest from `dir`; `Ok(None)` when the directory holds
    /// none (a standalone, non-clustered store).
    pub fn load(dir: &Path) -> Result<Option<Self>, StoreError> {
        match std::fs::read(dir.join(PARTITION_MANIFEST_FILE)) {
            Ok(bytes) => Self::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> PartitionManifest {
        PartitionManifest {
            parts: 3,
            partition: 1,
            global_ids: vec![ObjectId(1), ObjectId(4), ObjectId(7), ObjectId(10)],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = manifest();
        assert_eq!(PartitionManifest::decode(&m.encode()).expect("decode"), m);
    }

    #[test]
    fn manifest_rejects_damage() {
        let m = manifest();
        let good = m.encode();
        // Truncation, bit flips anywhere, and a bad magic are all typed
        // format errors — the checksum guards the whole body.
        assert!(PartitionManifest::decode(&good[..10]).is_err());
        for i in [0usize, 5, 9, 14, 21, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert!(
                PartitionManifest::decode(&bad).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn manifest_rejects_partition_outside_parts() {
        let mut m = manifest();
        m.partition = 3;
        assert!(matches!(
            PartitionManifest::decode(&m.encode()),
            Err(StoreError::Format(_))
        ));
    }

    #[test]
    fn save_load_roundtrips_and_absence_is_none() {
        let dir = std::env::temp_dir().join(format!("mq-part-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(PartitionManifest::load(&dir).expect("load empty").is_none());
        let m = manifest();
        m.save(&dir).expect("save");
        assert_eq!(PartitionManifest::load(&dir).expect("load"), Some(m));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
