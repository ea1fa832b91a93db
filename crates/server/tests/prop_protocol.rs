//! Property tests for the wire protocol: arbitrary messages survive an
//! encode→decode roundtrip, and the two canonical corruption modes —
//! truncated frames and bad magic — are always detected.

use mq_core::{Answer, AvoidanceStats, ExecutionStats, QueryType};
use mq_metric::{ObjectId, Vector};
use mq_server::protocol::{Message, ProtocolError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use mq_storage::IoStats;
use proptest::prelude::*;
use std::time::Duration;

fn arb_vector() -> impl Strategy<Value = Vector> {
    prop::collection::vec(-1000.0f32..1000.0, 1..12).prop_map(Vector::new)
}

fn arb_qtype() -> impl Strategy<Value = QueryType> {
    prop_oneof![
        // Negative ranges are legal on the wire: dot-product "score at
        // least s" thresholds arrive as ε = -s.
        (-100.0f64..100.0).prop_map(QueryType::range),
        (1usize..50).prop_map(QueryType::knn),
        (1usize..50, 0.0f64..100.0).prop_map(|(k, eps)| QueryType::bounded_knn(k, eps)),
    ]
}

fn arb_stats() -> impl Strategy<Value = ExecutionStats> {
    (
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000),
        0u64..1_000_000_000,
    )
        .prop_map(
            |((lr, bh, pr), (rr, sr, dc), (tr, av, co), (pf, ph), ns)| ExecutionStats {
                io: IoStats {
                    logical_reads: lr,
                    buffer_hits: bh,
                    physical_reads: pr,
                    random_reads: rr,
                    sequential_reads: sr,
                    prefetch_reads: pf,
                    prefetched_hits: ph,
                },
                dist_calcs: dc,
                avoidance: AvoidanceStats {
                    tries: tr,
                    avoided: av,
                    computed: co,
                    reused: 0,
                },
                elapsed: Duration::from_nanos(ns),
            },
        )
}

fn arb_answers() -> impl Strategy<Value = Vec<Answer>> {
    prop::collection::vec(
        (0u32..100_000, 0.0f64..1e6).prop_map(|(id, distance)| Answer {
            id: ObjectId(id),
            distance,
        }),
        0..40,
    )
}

/// Collection/tenant names as they appear on the wire: the protocol
/// itself accepts any UTF-8 up to 64 KiB (registry-level validation is a
/// separate layer), so the roundtrip property exercises unicode and
/// punctuation too.
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..6, 0..24).prop_map(|picks| {
        picks
            .iter()
            .map(|&c| match c {
                0 => 'a',
                1 => 'Z',
                2 => '7',
                3 => '-',
                4 => '.',
                _ => 'é',
            })
            .collect()
    })
}

fn arb_collection_info() -> impl Strategy<Value = mq_server::CollectionInfo> {
    (
        arb_name(),
        0u32..4096,
        arb_name(),
        0u64..1_000_000,
        0u64..512,
    )
        .prop_map(
            |(name, dim, metric, objects, in_flight)| mq_server::CollectionInfo {
                name,
                dim,
                metric,
                objects,
                in_flight,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_vector(), arb_qtype(), arb_name(), arb_name()).prop_map(
            |(object, qtype, collection, tenant)| Message::Query {
                object,
                qtype,
                collection,
                tenant,
            }
        ),
        arb_name().prop_map(|collection| Message::Stats { collection }),
        arb_name().prop_map(|collection| Message::MetricsRequest { collection }),
        // v3 admin opcodes.
        (arb_name(), 0u32..4096, arb_name(), arb_name()).prop_map(|(name, dim, metric, source)| {
            Message::CreateCollection {
                name,
                dim,
                metric,
                source,
            }
        }),
        arb_name().prop_map(|name| Message::DropCollection { name }),
        Just(Message::ListCollections),
        prop::collection::vec(arb_collection_info(), 0..8).prop_map(Message::CollectionList),
        arb_name().prop_map(Message::Ack),
        (0u16..8, arb_name()).prop_map(|(code, detail)| Message::Refused { code, detail }),
        (0u64..1_000_000).prop_map(|retry_after_ms| Message::Overloaded { retry_after_ms }),
        (any::<u16>(), any::<u16>())
            .prop_map(|(server, client)| Message::VersionMismatch { server, client }),
        // Exposition-shaped and arbitrary text alike must survive the
        // roundtrip and every corruption property below.
        prop_oneof![
            Just(Message::MetricsReply(String::new())),
            Just(Message::MetricsReply(
                "# HELP mq_core_steps_total Steps.\n# TYPE mq_core_steps_total counter\n\
                 mq_core_steps_total 42\n"
                    .to_string()
            )),
            prop::collection::vec((0u8..5, any::<bool>()), 0..120).prop_map(|picks| {
                let text: String = picks
                    .iter()
                    .map(|&(c, b)| match (c, b) {
                        (0, _) => 'x',
                        (1, _) => 'é',
                        (2, true) => '\n',
                        (2, false) => '"',
                        (3, true) => '{',
                        (3, false) => '}',
                        (4, true) => ' ',
                        _ => '9',
                    })
                    .collect();
                Message::MetricsReply(text)
            }),
        ],
        (0u64..1_000_000, 1u32..200, arb_stats(), arb_answers()).prop_map(
            |(batch_id, batch_size, stats, answers)| Message::Answers {
                batch_id,
                batch_size,
                stats,
                answers,
            }
        ),
        (0u64..1_000_000, 0u64..1_000_000, 0u32..500, arb_stats()).prop_map(
            |(queries, batches, max_batch_size, totals)| {
                Message::StatsReply(mq_server::ServiceMetrics {
                    queries,
                    batches,
                    max_batch_size,
                    totals,
                })
            }
        ),
        prop::collection::vec(any::<bool>(), 0..64).prop_map(|bits| {
            let text: String = bits.iter().map(|&b| if b { 'x' } else { 'é' }).collect();
            Message::Error(text)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(msg in arb_message()) {
        let frame = msg.encode();
        let (decoded, used) = Message::decode(&frame).expect("well-formed frame must decode");
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn every_truncation_is_detected(msg in arb_message(), cut_seed in 0usize..10_000) {
        let frame = msg.encode();
        // Any strict prefix must decode to Truncated — never to a wrong
        // message, never to a panic. (Prefixes shorter than the magic
        // can't be told apart from a foreign protocol and may also report
        // BadMagic; from the magic onward only Truncated is acceptable.)
        let cut = cut_seed % frame.len();
        match Message::decode(&frame[..cut]) {
            Err(ProtocolError::Truncated) => {}
            Err(ProtocolError::BadMagic(_)) => prop_assert!(cut < MAGIC.len()),
            other => prop_assert!(false, "prefix of {cut} bytes decoded to {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_detected(msg in arb_message(), pos in 0usize..4, bit in 0u8..8) {
        let mut frame = msg.encode().to_vec();
        frame[pos] ^= 1 << bit;
        prop_assert!(
            matches!(Message::decode(&frame), Err(ProtocolError::BadMagic(_))),
            "corrupted magic byte {pos} went undetected"
        );
    }

    #[test]
    fn payload_corruption_never_panics(msg in arb_message(), pos_seed in 0usize..10_000, byte in any::<u8>()) {
        let mut frame = msg.encode().to_vec();
        let header = 10;
        if frame.len() > header {
            let pos = header + pos_seed % (frame.len() - header);
            frame[pos] = byte;
            // Any outcome is fine — decoded (the flip may be benign or
            // produce another valid message) or a clean error — as long
            // as it does not panic or read out of bounds.
            let _ = Message::decode(&frame);
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation(
        extra in prop_oneof![Just(1u64), 1u64..1_000_000, Just(u32::MAX as u64 - MAX_PAYLOAD as u64)],
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A header that *claims* a payload beyond the limit must be
        // refused from the 10 header bytes alone — typed Malformed, no
        // attempt to read (or allocate) the declared gigabytes.
        let len = (MAX_PAYLOAD as u64 + extra) as u32;
        let mut frame = Vec::with_capacity(HEADER_LEN + tail.len());
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&tail);
        match Message::decode(&frame) {
            Err(ProtocolError::Malformed(reason)) => {
                prop_assert!(
                    reason.contains("exceeds"),
                    "oversized length must be named in the error: {reason}"
                );
            }
            other => prop_assert!(false, "declared {len} bytes decoded to {other:?}"),
        }
    }

    #[test]
    fn length_beyond_buffer_reads_as_truncated_never_over(
        declared in 1u32..10_000,
        provided_seed in 0usize..10_000,
    ) {
        // A well-formed header whose declared payload extends past the
        // buffer must report Truncated — decode may never read past the
        // bytes it was handed.
        let provided = provided_seed % declared as usize;
        let mut frame = Vec::with_capacity(HEADER_LEN + provided);
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&declared.to_le_bytes());
        frame.resize(HEADER_LEN + provided, 0xAB);
        prop_assert!(
            matches!(Message::decode(&frame), Err(ProtocolError::Truncated)),
            "declared {declared}, provided {provided}: must be Truncated"
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_over_read(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Fully random input: decode returns a typed error or a message,
        // and on success the consumed count stays within the input.
        if let Ok((_, used)) = Message::decode(&bytes) {
            prop_assert!(used <= bytes.len(), "consumed {used} of {} bytes", bytes.len());
        }
    }

    #[test]
    fn any_single_bit_flip_is_a_clean_outcome(
        msg in arb_message(),
        pos_seed in 0usize..100_000,
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere — magic, version, length, or payload.
        // The decoder must produce a typed error or a (possibly different)
        // valid message; it must never panic and never consume more bytes
        // than the frame holds.
        let mut frame = msg.encode().to_vec();
        let pos = pos_seed % frame.len();
        frame[pos] ^= 1 << bit;
        match Message::decode(&frame) {
            Ok((_, used)) => prop_assert!(used <= frame.len()),
            Err(
                ProtocolError::BadMagic(_)
                | ProtocolError::BadVersion(_)
                | ProtocolError::Truncated
                | ProtocolError::UnknownKind(_)
                | ProtocolError::Malformed(_),
            ) => {}
            Err(other) => prop_assert!(false, "bit flip at {pos} gave unexpected error {other:?}"),
        }
    }
}
