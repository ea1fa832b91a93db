//! On-disk formats of the durable store: the segment file and the WAL.
//!
//! **Segment file** (`segment.mqsg`) — fixed-size page frames at computed
//! offsets, so a page rewrite is a single positioned write:
//!
//! ```text
//! header (36 B):
//!   MQSG | version:u16 | header_crc:u16 | block:u32 | rec_header:u32
//!        | frame_bytes:u32 | page_count:u32 | id_space:u32
//!        | max_rec:u32 | capacity:u32
//! frame i at 36 + i·frame_bytes:
//!   rec_count:u32 | checksum:u64 | rec_count × (oid:u32, len:u32, payload)
//!   | zero padding to frame_bytes
//! ```
//!
//! `header_crc` is a CRC-16 over the other 34 header bytes. The frames
//! bound `page_count`, `capacity` and `max_rec`, but nothing else in the
//! directory bounds `id_space` (a deleted id leaves no bytes behind), and
//! it sizes the id directory: the CRC makes any damage of up to 16
//! consecutive bits a typed error instead of a gigabyte allocation.
//!
//! The frame checksum is [`mq_storage::page_checksum`] over the frame's
//! record ids — the *same* value the simulated disk precomputes per page,
//! so both backends agree on what "this page is intact" means.
//!
//! **Write-ahead log** (`wal.mqwl`) — an append-only run of length-prefixed,
//! CRC-guarded records, each carrying the full post-image of one rewritten
//! page (physiological logging; replay is idempotent, latest write wins):
//!
//! ```text
//! header (8 B): MQWL | version:u16 | pad:u16
//! record: len:u32 | fnv1a64(payload):u64 | payload
//! payload: op:u8 (1=insert, 2=delete) | oid:u32 | page:u32
//!        | page_count_after:u32 | id_space_after:u32
//!        | rec_count:u32 | rec_count × (oid:u32, len:u32, payload)
//! ```
//!
//! A torn tail (crash mid-append) is detected by a short length prefix, a
//! short payload, or a CRC mismatch — recovery stops at the last complete
//! record, exactly the paper-adjacent "replay to the last complete record"
//! contract.

use crate::error::StoreError;
use mq_metric::ObjectId;
use mq_storage::{page_checksum, ObjectCodec, PageId, ReadLe, StorageObject};

/// Segment magic.
pub const SEGMENT_MAGIC: &[u8; 4] = b"MQSG";
/// WAL magic.
pub const WAL_MAGIC: &[u8; 4] = b"MQWL";
/// Shared format version. Version 2 put the segment header's CRC where
/// version 1 had zero padding.
pub const VERSION: u16 = 2;
/// Segment header size in bytes.
pub const SEGMENT_HEADER_LEN: u64 = 36;
/// WAL header size in bytes.
pub const WAL_HEADER_LEN: u64 = 8;
/// Frame prefix: `rec_count:u32 | checksum:u64`.
pub const FRAME_PREFIX_LEN: usize = 12;
/// Per-record frame overhead: `oid:u32 | len:u32`.
pub const RECORD_HEADER_LEN: usize = 8;

/// The fixed geometry of one segment file, persisted in its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Logical block size the database was packed with.
    pub block_bytes: u32,
    /// Logical per-record header the database was packed with.
    pub record_header_bytes: u32,
    /// Physical bytes per frame.
    pub frame_bytes: u32,
    /// Frames in the segment at the last checkpoint.
    pub page_count: u32,
    /// Object-id space (live + tombstoned) at the last checkpoint.
    pub id_space: u32,
    /// Maximum encoded payload bytes per record.
    pub max_rec: u32,
    /// Maximum records per page.
    pub capacity: u32,
}

impl SegmentMeta {
    /// Physical frame size for a given record-slot geometry, or `None`
    /// when it does not fit the header's `u32`.
    pub fn frame_bytes_for(capacity: u32, max_rec: u32) -> Option<u32> {
        (RECORD_HEADER_LEN as u32)
            .checked_add(max_rec)?
            .checked_mul(capacity)?
            .checked_add(FRAME_PREFIX_LEN as u32)
    }

    /// Byte offset of frame `id` in the segment file.
    pub fn frame_offset(&self, id: PageId) -> u64 {
        SEGMENT_HEADER_LEN + id.index() as u64 * self.frame_bytes as u64
    }

    /// Serializes the 36-byte segment header.
    pub fn encode_header(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        buf.extend_from_slice(SEGMENT_MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // header_crc, filled in below
        buf.extend_from_slice(&self.block_bytes.to_le_bytes());
        buf.extend_from_slice(&self.record_header_bytes.to_le_bytes());
        buf.extend_from_slice(&self.frame_bytes.to_le_bytes());
        buf.extend_from_slice(&self.page_count.to_le_bytes());
        buf.extend_from_slice(&self.id_space.to_le_bytes());
        buf.extend_from_slice(&self.max_rec.to_le_bytes());
        buf.extend_from_slice(&self.capacity.to_le_bytes());
        debug_assert_eq!(buf.len() as u64, SEGMENT_HEADER_LEN);
        let crc = header_crc(&buf);
        buf[HEADER_CRC_AT].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates a segment header.
    pub fn decode_header(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < SEGMENT_HEADER_LEN as usize {
            return Err(StoreError::Format("segment header truncated".into()));
        }
        let header = &bytes[..SEGMENT_HEADER_LEN as usize];
        let mut buf = header;
        if &buf.read_chunk()? != SEGMENT_MAGIC {
            return Err(StoreError::Format("not an mq-store segment file".into()));
        }
        let version = buf.read_u16()?;
        if version != VERSION {
            return Err(StoreError::Format(format!(
                "unsupported segment version {version}"
            )));
        }
        let stored_crc = buf.read_u16()?;
        let computed_crc = header_crc(header);
        if stored_crc != computed_crc {
            return Err(StoreError::Format(format!(
                "segment header checksum mismatch: stored {stored_crc:#06x}, \
                 computed {computed_crc:#06x}"
            )));
        }
        let meta = SegmentMeta {
            block_bytes: buf.read_u32()?,
            record_header_bytes: buf.read_u32()?,
            frame_bytes: buf.read_u32()?,
            page_count: buf.read_u32()?,
            id_space: buf.read_u32()?,
            max_rec: buf.read_u32()?,
            capacity: buf.read_u32()?,
        };
        if meta.block_bytes == 0 {
            return Err(StoreError::Format("zero block size".into()));
        }
        if meta.capacity == 0
            || Some(meta.frame_bytes) != Self::frame_bytes_for(meta.capacity, meta.max_rec)
        {
            return Err(StoreError::Format(format!(
                "impossible segment geometry: frame_bytes={} capacity={} max_rec={}",
                meta.frame_bytes, meta.capacity, meta.max_rec
            )));
        }
        Ok(meta)
    }
}

/// Encodes one page's records into a fixed-size frame (zero-padded).
pub fn encode_frame<O: StorageObject, C: ObjectCodec<O>>(
    meta: &SegmentMeta,
    page: PageId,
    records: &[(ObjectId, O)],
    codec: &C,
) -> Result<Vec<u8>, StoreError> {
    assert!(
        records.len() <= meta.capacity as usize,
        "page {page:?} holds {} records, frame capacity is {}",
        records.len(),
        meta.capacity
    );
    let mut buf = Vec::with_capacity(meta.frame_bytes as usize);
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    let checksum = page_checksum(page, records.iter().map(|r| r.0.index() as u32));
    buf.extend_from_slice(&checksum.to_le_bytes());
    for (oid, object) in records {
        let mut payload = Vec::new();
        codec.encode(object, &mut payload);
        if payload.len() > meta.max_rec as usize {
            return Err(StoreError::Oversized {
                bytes: payload.len(),
                max: meta.max_rec as usize,
            });
        }
        buf.extend_from_slice(&(oid.index() as u32).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload.as_slice());
    }
    buf.resize(meta.frame_bytes as usize, 0);
    Ok(buf)
}

/// Decodes a frame back into records, verifying the embedded checksum.
/// Returns `Err` for any damage — the caller decides whether a WAL
/// post-image covers it.
pub fn decode_frame<O: StorageObject, C: ObjectCodec<O>>(
    meta: &SegmentMeta,
    page: PageId,
    frame: &[u8],
    codec: &C,
) -> Result<Vec<(ObjectId, O)>, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        page: page.0,
        detail,
    };
    let mut buf = frame;
    let (Ok(rec_count), Ok(stored)) = (buf.read_u32(), buf.read_u64()) else {
        return Err(corrupt("frame truncated".into()));
    };
    if rec_count > meta.capacity {
        return Err(corrupt(format!(
            "record count {rec_count} exceeds capacity {}",
            meta.capacity
        )));
    }
    let mut records = Vec::with_capacity(rec_count as usize);
    for _ in 0..rec_count {
        let (Ok(oid), Ok(len)) = (buf.read_u32(), buf.read_u32()) else {
            return Err(corrupt("record header truncated".into()));
        };
        let len = len as usize;
        let mut payload = match buf.read_bytes(len) {
            Ok(payload) if len <= meta.max_rec as usize => payload,
            _ => return Err(corrupt(format!("record payload of {len} B overruns frame"))),
        };
        let object = codec
            .decode(&mut payload)
            .map_err(|e| corrupt(format!("record decode failed: {e}")))?;
        records.push((ObjectId(oid), object));
    }
    let computed = page_checksum(page, records.iter().map(|r| r.0.index() as u32));
    if computed != stored {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    Ok(records)
}

/// Where the segment header keeps its CRC.
const HEADER_CRC_AT: std::ops::Range<usize> = 6..8;

/// [`crc16`] over a segment header, skipping the CRC field itself.
fn header_crc(header: &[u8]) -> u16 {
    crc16(
        header[..HEADER_CRC_AT.start]
            .iter()
            .chain(&header[HEADER_CRC_AT.end..SEGMENT_HEADER_LEN as usize]),
    )
}

/// CRC-16/CCITT-FALSE (polynomial 0x1021, initial value 0xFFFF). It
/// detects every error burst of up to 16 bits, so no single bit flip in
/// the segment header goes unnoticed.
fn crc16<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u16 {
    let mut crc = 0xFFFFu16;
    for &b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// FNV-1a 64-bit, guarding each WAL record's payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One logical WAL record: the full post-image of a rewritten page.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord<O> {
    /// 1 = insert, 2 = delete.
    pub op: u8,
    /// The object the mutation concerns.
    pub oid: ObjectId,
    /// The rewritten page.
    pub page: PageId,
    /// Total pages after the mutation (inserts may add a page).
    pub page_count_after: u32,
    /// Object-id space after the mutation.
    pub id_space_after: u32,
    /// The page's full record list after the mutation.
    pub records: Vec<(ObjectId, O)>,
}

/// Insert opcode.
pub const OP_INSERT: u8 = 1;
/// Delete opcode.
pub const OP_DELETE: u8 = 2;

/// Serializes one WAL record, length prefix and CRC included.
pub fn encode_wal_record<O: StorageObject, C: ObjectCodec<O>>(
    record: &WalRecord<O>,
    codec: &C,
) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(record.op);
    payload.extend_from_slice(&(record.oid.index() as u32).to_le_bytes());
    payload.extend_from_slice(&record.page.0.to_le_bytes());
    payload.extend_from_slice(&record.page_count_after.to_le_bytes());
    payload.extend_from_slice(&record.id_space_after.to_le_bytes());
    payload.extend_from_slice(&(record.records.len() as u32).to_le_bytes());
    for (oid, object) in &record.records {
        let mut body = Vec::new();
        codec.encode(object, &mut body);
        payload.extend_from_slice(&(oid.index() as u32).to_le_bytes());
        payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
        payload.extend_from_slice(body.as_slice());
    }
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses every *complete* record out of a WAL byte run (header excluded).
///
/// Returns the records and the number of bytes consumed by them; trailing
/// bytes past the last complete record — a torn append — are reported in
/// `torn_tail_bytes` and simply ignored, never an error.
pub struct WalReplay<O> {
    /// All complete records, in append order.
    pub records: Vec<WalRecord<O>>,
    /// Bytes of torn tail discarded after the last complete record.
    pub torn_tail_bytes: usize,
}

/// Decodes a WAL body (everything after the 8-byte header).
pub fn decode_wal<O: StorageObject, C: ObjectCodec<O>>(
    body: &[u8],
    codec: &C,
) -> Result<WalReplay<O>, StoreError> {
    let mut records = Vec::new();
    let mut rest = body;
    loop {
        let mut record = rest;
        let (Ok(len), Ok(crc)) = (record.read_u32(), record.read_u64()) else {
            break; // torn: the length prefix itself is short
        };
        let Ok(payload) = record.read_bytes(len as usize) else {
            break; // torn: length prefix outruns the file
        };
        if fnv1a64(payload) != crc {
            break; // torn: the append itself was interrupted
        }
        records.push(decode_wal_payload(payload, codec)?);
        rest = record;
    }
    Ok(WalReplay {
        records,
        torn_tail_bytes: rest.len(),
    })
}

fn decode_wal_payload<O: StorageObject, C: ObjectCodec<O>>(
    payload: &[u8],
    codec: &C,
) -> Result<WalRecord<O>, StoreError> {
    let mut buf = payload;
    if buf.len() < 21 {
        return Err(StoreError::Format("WAL record payload truncated".into()));
    }
    let op = buf.read_u8()?;
    if op != OP_INSERT && op != OP_DELETE {
        return Err(StoreError::Format(format!("unknown WAL opcode {op}")));
    }
    let oid = ObjectId(buf.read_u32()?);
    let page = PageId(buf.read_u32()?);
    let page_count_after = buf.read_u32()?;
    let id_space_after = buf.read_u32()?;
    let rec_count = buf.read_u32()? as usize;
    let mut records = Vec::with_capacity(rec_count.min(1024));
    for _ in 0..rec_count {
        let (Ok(roid), Ok(len)) = (buf.read_u32(), buf.read_u32()) else {
            return Err(StoreError::Format("WAL post-image truncated".into()));
        };
        let mut body = buf
            .read_bytes(len as usize)
            .map_err(|_| StoreError::Format("WAL post-image payload truncated".into()))?;
        let object = codec
            .decode(&mut body)
            .map_err(|e| StoreError::Format(format!("WAL record decode failed: {e}")))?;
        records.push((ObjectId(roid), object));
    }
    Ok(WalRecord {
        op,
        oid,
        page,
        page_count_after,
        id_space_after,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_metric::Vector;
    use mq_storage::VectorCodec;

    fn meta() -> SegmentMeta {
        SegmentMeta {
            block_bytes: 256,
            record_header_bytes: 16,
            frame_bytes: SegmentMeta::frame_bytes_for(4, 12).unwrap(),
            page_count: 2,
            id_space: 8,
            max_rec: 12,
            capacity: 4,
        }
    }

    fn v(x: f32) -> Vector {
        Vector::new(vec![x, x + 1.0])
    }

    #[test]
    fn segment_header_roundtrips() {
        let m = meta();
        let back = SegmentMeta::decode_header(&m.encode_header()).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn segment_header_rejects_damage() {
        let m = meta();
        let mut h = m.encode_header();
        h[0] = b'X';
        assert!(matches!(
            SegmentMeta::decode_header(&h),
            Err(StoreError::Format(_))
        ));
        let mut h = m.encode_header();
        h[4] = 0xFF; // version
        assert!(SegmentMeta::decode_header(&h).is_err());
        assert!(SegmentMeta::decode_header(&h[..10]).is_err());
        let mut h = m.encode_header();
        h[16] ^= 0x40; // frame_bytes no longer matches the geometry
        assert!(SegmentMeta::decode_header(&h).is_err());
        let zero_block = SegmentMeta {
            block_bytes: 0,
            ..m
        };
        assert!(SegmentMeta::decode_header(&zero_block.encode_header()).is_err());
    }

    #[test]
    fn every_single_bit_flip_of_the_header_is_refused() {
        let h = meta().encode_header();
        for byte in 0..h.len() {
            for bit in 0..8 {
                let mut flipped = h.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        SegmentMeta::decode_header(&flipped),
                        Err(StoreError::Format(_))
                    ),
                    "flip of bit {bit} in byte {byte} decoded"
                );
            }
        }
    }

    #[test]
    fn crc16_matches_its_reference_vector() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn overflowing_geometry_is_a_format_error_not_a_panic() {
        for (capacity, max_rec) in [(1, u32::MAX), (u32::MAX, 1), (1 << 16, 1 << 16)] {
            assert_eq!(SegmentMeta::frame_bytes_for(capacity, max_rec), None);
            let h = SegmentMeta {
                frame_bytes: 21,
                max_rec,
                capacity,
                ..meta()
            }
            .encode_header();
            match SegmentMeta::decode_header(&h) {
                Err(StoreError::Format(m)) => assert!(m.contains("geometry"), "{m}"),
                other => panic!("capacity {capacity}, max_rec {max_rec}: got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_roundtrips_and_is_fixed_size() {
        let m = meta();
        let records = vec![(ObjectId(0), v(1.0)), (ObjectId(5), v(2.0))];
        let frame = encode_frame(&m, PageId(1), &records, &VectorCodec).expect("encode");
        assert_eq!(frame.len(), m.frame_bytes as usize);
        let back = decode_frame(&m, PageId(1), &frame, &VectorCodec).expect("decode");
        assert_eq!(back, records);
    }

    #[test]
    fn empty_frame_is_valid() {
        let m = meta();
        let frame = encode_frame::<Vector, _>(&m, PageId(0), &[], &VectorCodec).expect("encode");
        let back = decode_frame::<Vector, _>(&m, PageId(0), &frame, &VectorCodec).expect("decode");
        assert!(back.is_empty());
    }

    #[test]
    fn frame_checksum_detects_bit_flips() {
        let m = meta();
        let records = vec![(ObjectId(0), v(1.0))];
        let mut frame = encode_frame(&m, PageId(0), &records, &VectorCodec).expect("encode");
        frame[0] ^= 0x01; // rec_count now disagrees with the checksum
        assert!(matches!(
            decode_frame::<Vector, _>(&m, PageId(0), &frame, &VectorCodec),
            Err(StoreError::Corrupt { page: 0, .. })
        ));
    }

    #[test]
    fn frame_checksum_binds_the_page_id() {
        let m = meta();
        let records = vec![(ObjectId(0), v(1.0))];
        let frame = encode_frame(&m, PageId(0), &records, &VectorCodec).expect("encode");
        // The same bytes presented as a different page must not verify.
        assert!(decode_frame::<Vector, _>(&m, PageId(1), &frame, &VectorCodec).is_err());
    }

    #[test]
    fn oversized_record_is_rejected_at_encode_time() {
        let m = meta(); // max_rec = 12 B; a 3-d vector needs 16 B
        let records = vec![(ObjectId(0), Vector::new(vec![1.0, 2.0, 3.0]))];
        assert!(matches!(
            encode_frame(&m, PageId(0), &records, &VectorCodec),
            Err(StoreError::Oversized { bytes: 16, max: 12 })
        ));
    }

    fn wal_record(op: u8) -> WalRecord<Vector> {
        WalRecord {
            op,
            oid: ObjectId(3),
            page: PageId(1),
            page_count_after: 2,
            id_space_after: 9,
            records: vec![(ObjectId(2), v(0.5)), (ObjectId(3), v(1.5))],
        }
    }

    #[test]
    fn wal_records_roundtrip() {
        let a = wal_record(OP_INSERT);
        let b = wal_record(OP_DELETE);
        let mut body = encode_wal_record(&a, &VectorCodec);
        body.extend(encode_wal_record(&b, &VectorCodec));
        let replay = decode_wal::<Vector, _>(&body, &VectorCodec).expect("decode");
        assert_eq!(replay.records, vec![a, b]);
        assert_eq!(replay.torn_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let a = wal_record(OP_INSERT);
        let full = encode_wal_record(&a, &VectorCodec);
        for cut in [1, 5, 12, full.len() - 1] {
            let mut body = full.clone();
            body.extend(full[..cut].iter()); // second append interrupted
            let replay = decode_wal::<Vector, _>(&body, &VectorCodec).expect("decode");
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.torn_tail_bytes, cut);
        }
    }

    #[test]
    fn crc_mismatch_ends_the_replay() {
        let a = wal_record(OP_INSERT);
        let mut body = encode_wal_record(&a, &VectorCodec);
        let n = body.len();
        body[n - 1] ^= 0x80; // damage inside the first record's payload
        let replay = decode_wal::<Vector, _>(&body, &VectorCodec).expect("decode");
        assert!(replay.records.is_empty());
        assert_eq!(replay.torn_tail_bytes, n);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
