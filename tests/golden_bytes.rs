//! Golden bytes of every persistent and wire format.
//!
//! The format modules' own tests are round trips, and a round trip still
//! passes when encoder and decoder drift the same way. These tests pin the
//! exact bytes — as hex, or as an `fnv1a64` fingerprint plus length for the
//! long fixed-width frames — and decode each pinned image back to the value
//! it came from, so a change to either side of a format fails here.

use mq_core::{Answer, AvoidanceStats, ExecutionStats, QueryType};
use mq_metric::{ObjectId, Symbols, Vector};
use mq_server::protocol::{CollectionInfo, Message, ServiceMetrics};
use mq_storage::{IoStats, ObjectCodec, PageId, SymbolsCodec, VectorCodec};
use mq_store::format::{
    decode_frame, decode_wal, encode_frame, encode_wal_record, fnv1a64, SegmentMeta, WalRecord,
    OP_DELETE, OP_INSERT,
};
use mq_store::PartitionManifest;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// Encodes one frame of `msg`, checks it against `golden` and decodes the
/// golden image back to `msg`.
fn assert_frame(msg: Message, golden: &str) {
    let frame = msg.encode().to_vec();
    assert_eq!(hex(&frame), golden, "{msg:?}");
    let (back, used) = Message::decode(&unhex(golden)).expect("golden frame decodes");
    assert_eq!(back, msg);
    assert_eq!(used, frame.len());
}

/// Like [`assert_frame`] for frames too long to read as hex.
fn assert_frame_fingerprint(msg: Message, len: usize, fingerprint: u64) {
    let frame = msg.encode().to_vec();
    assert_eq!(
        (frame.len(), fnv1a64(&frame)),
        (len, fingerprint),
        "{msg:?}: {}",
        hex(&frame)
    );
    let (back, used) = Message::decode(&frame).expect("frame decodes");
    assert_eq!(back, msg);
    assert_eq!(used, len);
}

fn stats() -> ExecutionStats {
    ExecutionStats {
        io: IoStats {
            logical_reads: 1,
            buffer_hits: 2,
            physical_reads: 3,
            random_reads: 4,
            sequential_reads: 5,
            prefetch_reads: 6,
            prefetched_hits: 7,
        },
        dist_calcs: 8,
        avoidance: AvoidanceStats {
            tries: 9,
            avoided: 10,
            computed: 11,
            reused: 0,
        },
        elapsed: Duration::from_nanos(12),
    }
}

#[test]
fn request_frames_are_pinned() {
    assert_frame(
        Message::Query {
            object: Vector::new(vec![1.5, -2.0]),
            qtype: QueryType::bounded_knn(3, 0.5),
            collection: "c".into(),
            tenant: "t".into(),
        },
        "4d514e5703002400000001020000000000c03f000000c002000000000000e03f0300000000000000010063010074",
    );
    assert_frame(
        Message::Query {
            object: Vector::new(vec![0.25]),
            qtype: QueryType::knn(7),
            collection: String::new(),
            tenant: String::new(),
        },
        "4d514e5703001e00000001010000000000803e01000000000000f07f070000000000000000000000",
    );
    assert_frame(
        Message::Stats {
            collection: "emb".into(),
        },
        "4d514e57030006000000020300656d62",
    );
    assert_frame(
        Message::MetricsRequest {
            collection: String::new(),
        },
        "4d514e57030003000000030000",
    );
    assert_frame(
        Message::CreateCollection {
            name: "e".into(),
            dim: 32,
            metric: "dot".into(),
            source: "/d".into(),
        },
        "4d514e5703001100000004010065200000000300646f7402002f64",
    );
    assert_frame(
        Message::DropCollection { name: "e".into() },
        "4d514e5703000400000005010065",
    );
    assert_frame(Message::ListCollections, "4d514e5703000100000006");
}

#[test]
fn reply_frames_are_pinned() {
    assert_frame_fingerprint(
        Message::Answers {
            batch_id: 9,
            batch_size: 4,
            stats: stats(),
            answers: vec![
                Answer {
                    id: ObjectId(3),
                    distance: 0.25,
                },
                Answer {
                    id: ObjectId(8),
                    distance: 1.5,
                },
            ],
        },
        147,
        0x4ec65bda845bac71,
    );
    assert_frame_fingerprint(
        Message::StatsReply(ServiceMetrics {
            queries: 100,
            batches: 20,
            max_batch_size: 16,
            totals: stats(),
        }),
        127,
        0x4028dc127c24a660,
    );
    assert_frame(
        Message::MetricsReply("x 1\n".into()),
        "4d514e5703000900000083040000007820310a",
    );
    assert_frame(
        Message::CollectionList(vec![CollectionInfo {
            name: "d".into(),
            dim: 5,
            metric: "l2".into(),
            objects: 1000,
            in_flight: 3,
        }]),
        "4d514e5703002000000084010000000100640500000002006c32e8030000000000000300000000000000",
    );
    assert_frame(Message::Ack("ok".into()), "4d514e570300050000008502006f6b");
    assert_frame(
        Message::Refused {
            code: 3,
            detail: "busy".into(),
        },
        "4d514e57030009000000860300040062757379",
    );
    assert_frame(
        Message::Overloaded { retry_after_ms: 25 },
        "4d514e57030009000000871900000000000000",
    );
    assert_frame(
        Message::VersionMismatch {
            server: 3,
            client: 2,
        },
        "4d514e57030005000000fe03000200",
    );
    assert_frame(
        Message::Error("boom".into()),
        "4d514e57030009000000ff04000000626f6f6d",
    );
}

#[test]
fn object_payloads_are_pinned() {
    let vector = Vector::new(vec![1.0, -0.5]);
    let mut buf = Default::default();
    VectorCodec.encode(&vector, &mut buf);
    assert_eq!(hex(&buf), "020000000000803f000000bf");

    let symbols = Symbols::new(vec![7, 0x0102_0304]);
    let mut buf = Default::default();
    SymbolsCodec.encode(&symbols, &mut buf);
    assert_eq!(hex(&buf), "020000000700000004030201");
}

fn meta() -> SegmentMeta {
    SegmentMeta {
        block_bytes: 256,
        record_header_bytes: 16,
        frame_bytes: SegmentMeta::frame_bytes_for(4, 12).expect("geometry fits"),
        page_count: 2,
        id_space: 8,
        max_rec: 12,
        capacity: 4,
    }
}

#[test]
fn segment_header_and_page_frame_are_pinned() {
    let m = meta();
    let header = m.encode_header();
    assert_eq!(
        hex(&header),
        "4d5153470200755900010000100000005c00000002000000080000000c00000004000000"
    );
    assert_eq!(SegmentMeta::decode_header(&header).expect("decodes"), m);

    let records = vec![
        (ObjectId(2), Vector::new(vec![1.0, 2.0])),
        (ObjectId(5), Vector::new(vec![-3.0, 0.5])),
    ];
    let frame = encode_frame(&m, PageId(1), &records, &VectorCodec).expect("fits");
    assert_eq!(hex(&frame), "02000000f6305bdd860491e2020000000c000000020000000000803f00000040050000000c00000002000000000040c00000003f00000000000000000000000000000000000000000000000000000000000000000000000000000000");
    assert_eq!(
        decode_frame(&m, PageId(1), &frame, &VectorCodec).expect("decodes"),
        records
    );
}

#[test]
fn wal_records_are_pinned() {
    let insert = WalRecord {
        op: OP_INSERT,
        oid: ObjectId(6),
        page: PageId(1),
        page_count_after: 2,
        id_space_after: 7,
        records: vec![(ObjectId(6), Vector::new(vec![4.0, 4.5]))],
    };
    let delete = WalRecord {
        op: OP_DELETE,
        oid: ObjectId(6),
        page: PageId(1),
        page_count_after: 2,
        id_space_after: 7,
        records: Vec::new(),
    };
    let insert_bytes = encode_wal_record(&insert, &VectorCodec);
    let delete_bytes = encode_wal_record(&delete, &VectorCodec);
    assert_eq!(hex(&insert_bytes), "2900000097959763e8b4e08b010600000001000000020000000700000001000000060000000c000000020000000000804000009040");
    assert_eq!(
        hex(&delete_bytes),
        "15000000f7c66f6e48b2a786020600000001000000020000000700000000000000"
    );
    let body = [insert_bytes, delete_bytes].concat();
    let replay = decode_wal(&body, &VectorCodec).expect("decodes");
    assert_eq!(replay.records, vec![insert, delete]);
    assert_eq!(replay.torn_tail_bytes, 0);
}

#[test]
fn partition_manifest_is_pinned() {
    let m = PartitionManifest {
        parts: 3,
        partition: 1,
        global_ids: vec![ObjectId(1), ObjectId(4), ObjectId(7)],
    };
    let bytes = m.encode();
    assert_eq!(
        hex(&bytes),
        "4d51505402000000030000000100000003000000010000000400000007000000cef97100e8399fde"
    );
    assert_eq!(PartitionManifest::decode(&bytes).expect("decodes"), m);
}
