//! The wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! MQNW | version:u16 LE | payload_len:u32 LE | payload
//! ```
//!
//! The payload starts with a one-byte message kind followed by the
//! kind-specific fields, all little-endian (the same codec style as
//! `mq_store`'s segment frames):
//!
//! ```text
//! 0x01 Query        object(dim:u32, dim × f32), qtype(kind:u8, range:f64, cardinality:u64),
//!                   collection:str16, tenant:str16
//! 0x02 Stats        collection:str16 (empty = aggregate over all collections)
//! 0x03 Metrics      collection:str16 (empty = the whole registry)
//! 0x04 CreateCollection  name:str16, dim:u32, metric:str16, source:str16 (empty = start empty)
//! 0x05 DropCollection    name:str16
//! 0x06 ListCollections   (empty)
//! 0x81 Answers      batch_id:u64, batch_size:u32, stats(12 × u64), count:u32, count × (id:u32, distance:f64)
//! 0x82 StatsReply   queries:u64, batches:u64, max_batch_size:u32, totals(12 × u64)
//! 0x83 MetricsReply len:u32, len × utf-8 bytes (Prometheus text exposition)
//! 0x84 CollectionList    count:u32, count × (name:str16, dim:u32, metric:str16, objects:u64, in_flight:u64)
//! 0x85 Ack          str16 (human-readable confirmation)
//! 0x86 Refused      code:u16, detail:str16 (typed collection-level refusal)
//! 0x87 Overloaded   retry_after_ms:u64 (admission control shed this request)
//! 0xFE VersionMismatch   server:u16, client:u16
//! 0xFF Error        len:u32, len × utf-8 bytes
//! ```
//!
//! `str16` is `len:u16` + UTF-8 bytes. `ExecutionStats` is fixed-width:
//! the seven `IoStats` counters (including the prefetch pair added in
//! version 2), the distance-calculation count, the three avoidance
//! counters, and the elapsed time in nanoseconds — twelve `u64`s.

use mq_core::{Answer, AvoidanceStats, ExecutionStats, QueryKind, QueryType};
use mq_metric::{ObjectId, Vector};
use mq_storage::{IoStats, ReadLe, Truncated};
use std::io::{Read, Write};
use std::time::Duration;

/// Frame magic: "mquery network".
pub const MAGIC: &[u8; 4] = b"MQNW";
/// Protocol version carried in every frame. Version 2 widened the stats
/// block from ten to twelve `u64`s (prefetch counters); version 3 added
/// named collections, per-tenant addressing, admission-control replies
/// (`Overloaded`, `Refused`) and the typed `VersionMismatch` reply a
/// mismatched client receives instead of a silent disconnect.
pub const VERSION: u16 = 3;
/// The collection a query addresses when its collection field is empty.
pub const DEFAULT_COLLECTION: &str = "default";
/// Bytes of frame header preceding the payload.
pub const HEADER_LEN: usize = 10;
/// Upper bound on payload size; larger length prefixes are rejected as
/// malformed rather than allocated.
pub const MAX_PAYLOAD: usize = 64 << 20;

const KIND_QUERY: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_METRICS: u8 = 0x03;
const KIND_CREATE_COLLECTION: u8 = 0x04;
const KIND_DROP_COLLECTION: u8 = 0x05;
const KIND_LIST_COLLECTIONS: u8 = 0x06;
const KIND_ANSWERS: u8 = 0x81;
const KIND_STATS_REPLY: u8 = 0x82;
const KIND_METRICS_REPLY: u8 = 0x83;
const KIND_COLLECTION_LIST: u8 = 0x84;
const KIND_ACK: u8 = 0x85;
const KIND_REFUSED: u8 = 0x86;
const KIND_OVERLOADED: u8 = 0x87;
const KIND_VERSION_MISMATCH: u8 = 0xFE;
const KIND_ERROR: u8 = 0xFF;

/// Typed refusal codes carried by [`Message::Refused`].
pub mod refusal {
    /// The addressed collection does not exist.
    pub const UNKNOWN_COLLECTION: u16 = 1;
    /// A collection of that name already exists.
    pub const COLLECTION_EXISTS: u16 = 2;
    /// The collection has in-flight queries; dropping it now would lose
    /// replies. Retry once traffic stops.
    pub const COLLECTION_BUSY: u16 = 3;
    /// The collection specification is invalid (bad name, zero
    /// dimension, unknown metric, unreadable source).
    pub const BAD_COLLECTION_SPEC: u16 = 4;
    /// The server cannot honor the operation in its current mode (e.g.
    /// dynamic collections on a cluster backend).
    pub const UNSUPPORTED: u16 = 5;
}

/// Errors from encoding, decoding or transporting frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/stream failure (includes clean EOF between
    /// frames, surfaced as `UnexpectedEof`).
    Io(std::io::Error),
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's version differs from [`VERSION`].
    BadVersion(u16),
    /// The buffer ends before the advertised frame does.
    Truncated,
    /// The payload's message kind byte is unknown.
    UnknownKind(u8),
    /// The payload violates the message grammar.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtocolError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Aggregate service counters reported by a stats request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Queries answered since startup.
    pub queries: u64,
    /// Batches flushed since startup.
    pub batches: u64,
    /// Largest batch flushed so far.
    pub max_batch_size: u32,
    /// Summed execution statistics over all batches.
    pub totals: ExecutionStats,
}

/// One collection's directory entry in a [`Message::CollectionList`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionInfo {
    /// The collection's name.
    pub name: String,
    /// Dimensionality its queries must carry (0 = not yet known).
    pub dim: u32,
    /// Distance metric name (see `mq_metric::VectorMetric::NAMES`).
    pub metric: String,
    /// Objects currently served.
    pub objects: u64,
    /// Queries admitted but not yet answered.
    pub in_flight: u64,
}

/// Every message of the protocol — requests (client → server) and
/// responses (server → client) share one codec.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Submit one similarity query for batched execution.
    Query {
        /// The query object.
        object: Vector,
        /// The query type (Definitions 1–3).
        qtype: QueryType,
        /// Addressed collection (empty = [`DEFAULT_COLLECTION`]).
        collection: String,
        /// Tenant identity for quota accounting (empty = anonymous).
        tenant: String,
    },
    /// Ask for the service counters of one collection (empty name =
    /// aggregate over all collections).
    Stats {
        /// Collection filter (empty = aggregate).
        collection: String,
    },
    /// Ask for the metric registry in Prometheus text exposition (empty
    /// name = the whole registry; a collection name keeps only series
    /// labeled with it).
    MetricsRequest {
        /// Collection filter (empty = everything).
        collection: String,
    },
    /// Create a named collection.
    CreateCollection {
        /// New collection's name.
        name: String,
        /// Dimensionality its queries will carry (may be 0 with a
        /// `source`, which then supplies the dimension).
        dim: u32,
        /// Distance metric name.
        metric: String,
        /// Server-side database directory to load the initial objects
        /// from (empty = start empty).
        source: String,
    },
    /// Drop a named collection. Refused while it has in-flight queries.
    DropCollection {
        /// Collection to drop.
        name: String,
    },
    /// Ask for the collection directory.
    ListCollections,
    /// The answers of one query, with its batch's execution statistics.
    Answers {
        /// Identifier of the batch that carried this query.
        batch_id: u64,
        /// Queries in that batch.
        batch_size: u32,
        /// Execution statistics of the whole batch (shared by all its
        /// queries — the point of batching).
        stats: ExecutionStats,
        /// The answers, ascending by distance.
        answers: Vec<Answer>,
    },
    /// The aggregate service counters.
    StatsReply(ServiceMetrics),
    /// The metric registry rendered as Prometheus text exposition. Empty
    /// when the server runs without an attached recorder.
    MetricsReply(String),
    /// The collection directory.
    CollectionList(Vec<CollectionInfo>),
    /// A collection operation succeeded.
    Ack(String),
    /// A typed refusal of a collection operation (see [`refusal`]).
    Refused {
        /// One of the [`refusal`] codes.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Admission control shed this request instead of queueing it; the
    /// client should back off for `retry_after_ms` before resubmitting.
    Overloaded {
        /// Suggested backoff, derived from the server's observed
        /// queue-wait distribution or the tenant's token deficit.
        retry_after_ms: u64,
    },
    /// The peer speaks a different protocol version. Sent by the server
    /// when a frame arrives with a version other than [`VERSION`]; a
    /// version-2 client decoding this frame surfaces its own typed
    /// `BadVersion(3)` — either way the mismatch is explicit.
    VersionMismatch {
        /// The version the server speaks.
        server: u16,
        /// The version the client sent.
        client: u16,
    },
    /// The server could not process a request.
    Error(String),
}

impl From<Truncated> for ProtocolError {
    fn from(_: Truncated) -> Self {
        ProtocolError::Truncated
    }
}

fn put_str16(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "str16 field too long");
    let s = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s);
}

/// A UTF-8 field of `len` bytes.
fn get_utf8(buf: &mut &[u8], len: usize, what: &str) -> Result<String, ProtocolError> {
    std::str::from_utf8(buf.read_bytes(len)?)
        .map(str::to_owned)
        .map_err(|_| ProtocolError::Malformed(format!("non-utf8 {what}")))
}

fn get_str16(buf: &mut &[u8]) -> Result<String, ProtocolError> {
    let len = buf.read_u16()? as usize;
    get_utf8(buf, len, "string field")
}

fn put_qtype(buf: &mut Vec<u8>, t: &QueryType) {
    buf.push(match t.kind {
        QueryKind::Range => 0,
        QueryKind::KNearestNeighbor => 1,
        QueryKind::BoundedKNearestNeighbor => 2,
    });
    buf.extend_from_slice(&t.range.to_le_bytes());
    let cardinality = if t.cardinality == usize::MAX {
        u64::MAX
    } else {
        t.cardinality as u64
    };
    buf.extend_from_slice(&cardinality.to_le_bytes());
}

fn put_stats(buf: &mut Vec<u8>, s: &ExecutionStats) {
    let elapsed = s.elapsed.as_nanos().min(u64::MAX as u128) as u64;
    for v in [
        s.io.logical_reads,
        s.io.buffer_hits,
        s.io.physical_reads,
        s.io.random_reads,
        s.io.sequential_reads,
        s.io.prefetch_reads,
        s.io.prefetched_hits,
        s.dist_calcs,
        s.avoidance.tries,
        s.avoidance.avoided,
        s.avoidance.computed,
        elapsed,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_vector(buf: &mut &[u8]) -> Result<Vector, ProtocolError> {
    let dim = buf.read_u32()? as usize;
    if dim == 0 {
        return Err(ProtocolError::Malformed("zero-dimensional vector".into()));
    }
    let mut body = buf.read_bytes(dim * 4)?;
    let mut components = Vec::with_capacity(dim);
    while let Ok(c) = body.read_f32() {
        if !c.is_finite() {
            return Err(ProtocolError::Malformed("non-finite component".into()));
        }
        components.push(c);
    }
    Ok(Vector::new(components))
}

fn get_qtype(buf: &mut &[u8]) -> Result<QueryType, ProtocolError> {
    let kind = buf.read_u8()?;
    let range = buf.read_f64()?;
    let cardinality = buf.read_u64()?;
    let cardinality = if cardinality == u64::MAX {
        usize::MAX
    } else {
        usize::try_from(cardinality)
            .map_err(|_| ProtocolError::Malformed("cardinality overflows usize".into()))?
    };
    // Negative ranges are valid: under a signed ranking function (dot
    // product) a range query "score at least s" arrives as ε = -s. Only
    // NaN is meaningless (mirrors QueryType::range's own contract).
    if range.is_nan() {
        return Err(ProtocolError::Malformed("NaN range".into()));
    }
    let kind = match kind {
        0 => QueryKind::Range,
        1 => QueryKind::KNearestNeighbor,
        2 => QueryKind::BoundedKNearestNeighbor,
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown query kind {other}"
            )))
        }
    };
    if kind != QueryKind::Range && cardinality == 0 {
        return Err(ProtocolError::Malformed("zero cardinality".into()));
    }
    Ok(QueryType {
        range,
        cardinality,
        kind,
    })
}

fn get_stats(buf: &mut &[u8]) -> Result<ExecutionStats, ProtocolError> {
    Ok(ExecutionStats {
        io: IoStats {
            logical_reads: buf.read_u64()?,
            buffer_hits: buf.read_u64()?,
            physical_reads: buf.read_u64()?,
            random_reads: buf.read_u64()?,
            sequential_reads: buf.read_u64()?,
            prefetch_reads: buf.read_u64()?,
            prefetched_hits: buf.read_u64()?,
        },
        dist_calcs: buf.read_u64()?,
        avoidance: AvoidanceStats {
            tries: buf.read_u64()?,
            avoided: buf.read_u64()?,
            computed: buf.read_u64()?,
            // Served queries are admitted as objects, never by id, so
            // their sessions take no distance from `QObjDists`.
            reused: 0,
        },
        elapsed: Duration::from_nanos(buf.read_u64()?),
    })
}

/// Validates a frame header (magic, version, size limit) and returns the
/// length of the payload that follows it.
fn payload_len(mut header: &[u8]) -> Result<usize, ProtocolError> {
    let magic = header.read_chunk()?;
    if &magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let version = header.read_u16()?;
    if version != VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let len = header.read_u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Malformed(format!(
            "payload of {len} bytes exceeds limit"
        )));
    }
    Ok(len)
}

impl Message {
    /// Encodes this message as one complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&[0; 4]); // payload_len, filled in below
        match self {
            Message::Query {
                object,
                qtype,
                collection,
                tenant,
            } => {
                frame.push(KIND_QUERY);
                frame.extend_from_slice(&(object.dim() as u32).to_le_bytes());
                for &c in object.components() {
                    frame.extend_from_slice(&c.to_le_bytes());
                }
                put_qtype(&mut frame, qtype);
                put_str16(&mut frame, collection);
                put_str16(&mut frame, tenant);
            }
            Message::Stats { collection } => {
                frame.push(KIND_STATS);
                put_str16(&mut frame, collection);
            }
            Message::MetricsRequest { collection } => {
                frame.push(KIND_METRICS);
                put_str16(&mut frame, collection);
            }
            Message::CreateCollection {
                name,
                dim,
                metric,
                source,
            } => {
                frame.push(KIND_CREATE_COLLECTION);
                put_str16(&mut frame, name);
                frame.extend_from_slice(&dim.to_le_bytes());
                put_str16(&mut frame, metric);
                put_str16(&mut frame, source);
            }
            Message::DropCollection { name } => {
                frame.push(KIND_DROP_COLLECTION);
                put_str16(&mut frame, name);
            }
            Message::ListCollections => frame.push(KIND_LIST_COLLECTIONS),
            Message::CollectionList(infos) => {
                frame.push(KIND_COLLECTION_LIST);
                frame.extend_from_slice(&(infos.len() as u32).to_le_bytes());
                for info in infos {
                    put_str16(&mut frame, &info.name);
                    frame.extend_from_slice(&info.dim.to_le_bytes());
                    put_str16(&mut frame, &info.metric);
                    frame.extend_from_slice(&info.objects.to_le_bytes());
                    frame.extend_from_slice(&info.in_flight.to_le_bytes());
                }
            }
            Message::Ack(text) => {
                frame.push(KIND_ACK);
                put_str16(&mut frame, text);
            }
            Message::Refused { code, detail } => {
                frame.push(KIND_REFUSED);
                frame.extend_from_slice(&code.to_le_bytes());
                put_str16(&mut frame, detail);
            }
            Message::Overloaded { retry_after_ms } => {
                frame.push(KIND_OVERLOADED);
                frame.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Message::VersionMismatch { server, client } => {
                frame.push(KIND_VERSION_MISMATCH);
                frame.extend_from_slice(&server.to_le_bytes());
                frame.extend_from_slice(&client.to_le_bytes());
            }
            Message::MetricsReply(text) => {
                frame.push(KIND_METRICS_REPLY);
                frame.extend_from_slice(&(text.len() as u32).to_le_bytes());
                frame.extend_from_slice(text.as_bytes());
            }
            Message::Answers {
                batch_id,
                batch_size,
                stats,
                answers,
            } => {
                frame.push(KIND_ANSWERS);
                frame.extend_from_slice(&batch_id.to_le_bytes());
                frame.extend_from_slice(&batch_size.to_le_bytes());
                put_stats(&mut frame, stats);
                frame.extend_from_slice(&(answers.len() as u32).to_le_bytes());
                for a in answers {
                    frame.extend_from_slice(&a.id.0.to_le_bytes());
                    frame.extend_from_slice(&a.distance.to_le_bytes());
                }
            }
            Message::StatsReply(m) => {
                frame.push(KIND_STATS_REPLY);
                frame.extend_from_slice(&m.queries.to_le_bytes());
                frame.extend_from_slice(&m.batches.to_le_bytes());
                frame.extend_from_slice(&m.max_batch_size.to_le_bytes());
                put_stats(&mut frame, &m.totals);
            }
            Message::Error(msg) => {
                frame.push(KIND_ERROR);
                frame.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                frame.extend_from_slice(msg.as_bytes());
            }
        }
        let payload_len = (frame.len() - HEADER_LEN) as u32;
        frame[6..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        frame
    }

    /// Decodes one frame from the front of `bytes`; returns the message
    /// and the number of bytes the frame occupied.
    pub fn decode(bytes: &[u8]) -> Result<(Message, usize), ProtocolError> {
        if bytes.len() < HEADER_LEN {
            // Distinguish "wrong protocol" from "not enough bytes yet":
            // a bad magic is reported as soon as the first bytes disagree.
            let lim = bytes.len().min(MAGIC.len());
            if bytes[..lim] != MAGIC[..lim] {
                let mut m = [0u8; 4];
                m[..lim].copy_from_slice(&bytes[..lim]);
                return Err(ProtocolError::BadMagic(m));
            }
            return Err(ProtocolError::Truncated);
        }
        let len = payload_len(bytes)?;
        let mut payload = (&bytes[HEADER_LEN..]).read_bytes(len)?;
        let msg = Self::decode_payload(&mut payload)?;
        if !payload.is_empty() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after message",
                payload.len()
            )));
        }
        Ok((msg, HEADER_LEN + len))
    }

    fn decode_payload(buf: &mut &[u8]) -> Result<Message, ProtocolError> {
        match buf.read_u8()? {
            KIND_QUERY => {
                let object = get_vector(buf)?;
                let qtype = get_qtype(buf)?;
                let collection = get_str16(buf)?;
                let tenant = get_str16(buf)?;
                Ok(Message::Query {
                    object,
                    qtype,
                    collection,
                    tenant,
                })
            }
            KIND_STATS => Ok(Message::Stats {
                collection: get_str16(buf)?,
            }),
            KIND_METRICS => Ok(Message::MetricsRequest {
                collection: get_str16(buf)?,
            }),
            KIND_CREATE_COLLECTION => {
                let name = get_str16(buf)?;
                let dim = buf.read_u32()?;
                let metric = get_str16(buf)?;
                let source = get_str16(buf)?;
                Ok(Message::CreateCollection {
                    name,
                    dim,
                    metric,
                    source,
                })
            }
            KIND_DROP_COLLECTION => Ok(Message::DropCollection {
                name: get_str16(buf)?,
            }),
            KIND_LIST_COLLECTIONS => Ok(Message::ListCollections),
            KIND_COLLECTION_LIST => {
                let count = buf.read_u32()? as usize;
                // Each entry is at least 2+4+2+8+8 bytes; bound the
                // allocation by what the buffer can actually hold.
                if count > buf.len() / 24 {
                    return Err(ProtocolError::Truncated);
                }
                let mut infos = Vec::with_capacity(count);
                for _ in 0..count {
                    infos.push(CollectionInfo {
                        name: get_str16(buf)?,
                        dim: buf.read_u32()?,
                        metric: get_str16(buf)?,
                        objects: buf.read_u64()?,
                        in_flight: buf.read_u64()?,
                    });
                }
                Ok(Message::CollectionList(infos))
            }
            KIND_ACK => Ok(Message::Ack(get_str16(buf)?)),
            KIND_REFUSED => {
                let code = buf.read_u16()?;
                let detail = get_str16(buf)?;
                Ok(Message::Refused { code, detail })
            }
            KIND_OVERLOADED => Ok(Message::Overloaded {
                retry_after_ms: buf.read_u64()?,
            }),
            KIND_VERSION_MISMATCH => {
                let server = buf.read_u16()?;
                let client = buf.read_u16()?;
                Ok(Message::VersionMismatch { server, client })
            }
            KIND_METRICS_REPLY => {
                let len = buf.read_u32()? as usize;
                Ok(Message::MetricsReply(get_utf8(buf, len, "metrics text")?))
            }
            KIND_ANSWERS => {
                let batch_id = buf.read_u64()?;
                let batch_size = buf.read_u32()?;
                let stats = get_stats(buf)?;
                let count = buf.read_u32()? as usize;
                let mut body = buf.read_bytes(count * 12)?;
                let mut answers = Vec::with_capacity(count);
                for _ in 0..count {
                    answers.push(Answer {
                        id: ObjectId(body.read_u32()?),
                        distance: body.read_f64()?,
                    });
                }
                Ok(Message::Answers {
                    batch_id,
                    batch_size,
                    stats,
                    answers,
                })
            }
            KIND_STATS_REPLY => {
                let queries = buf.read_u64()?;
                let batches = buf.read_u64()?;
                let max_batch_size = buf.read_u32()?;
                let totals = get_stats(buf)?;
                Ok(Message::StatsReply(ServiceMetrics {
                    queries,
                    batches,
                    max_batch_size,
                    totals,
                }))
            }
            KIND_ERROR => {
                let len = buf.read_u32()? as usize;
                Ok(Message::Error(get_utf8(buf, len, "error text")?))
            }
            other => Err(ProtocolError::UnknownKind(other)),
        }
    }
}

/// Writes one message as a frame to `w`.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtocolError> {
    w.write_all(&msg.encode())?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame from `r` and decodes it. Blocks until a whole
/// frame arrived; a connection closed between frames surfaces as
/// `Io(UnexpectedEof)`.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtocolError> {
    let mut frame = vec![0u8; HEADER_LEN];
    r.read_exact(&mut frame)?;
    let len = payload_len(&frame)?;
    frame.resize(HEADER_LEN + len, 0);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    let (msg, used) = Message::decode(&frame)?;
    debug_assert_eq!(used, frame.len());
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let msg = Message::Query {
            object: Vector::new(vec![1.5, -2.25, 3.0]),
            qtype: QueryType::bounded_knn(7, 0.5),
            collection: "images".into(),
            tenant: "team-a".into(),
        };
        let frame = msg.encode();
        let (back, used) = Message::decode(&frame).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn collection_messages_roundtrip() {
        for msg in [
            Message::CreateCollection {
                name: "embeddings".into(),
                dim: 32,
                metric: "cosine".into(),
                source: "/data/emb".into(),
            },
            Message::DropCollection {
                name: "embeddings".into(),
            },
            Message::ListCollections,
            Message::CollectionList(vec![
                CollectionInfo {
                    name: DEFAULT_COLLECTION.into(),
                    dim: 5,
                    metric: "euclidean".into(),
                    objects: 10_000,
                    in_flight: 3,
                },
                CollectionInfo {
                    name: "emb".into(),
                    dim: 32,
                    metric: "dot".into(),
                    objects: 0,
                    in_flight: 0,
                },
            ]),
            Message::Ack("created".into()),
            Message::Refused {
                code: refusal::COLLECTION_BUSY,
                detail: "2 queries in flight".into(),
            },
            Message::Overloaded { retry_after_ms: 25 },
            Message::VersionMismatch {
                server: 3,
                client: 2,
            },
            Message::Stats {
                collection: "emb".into(),
            },
            Message::MetricsRequest {
                collection: String::new(),
            },
        ] {
            let frame = msg.encode();
            let (back, used) = Message::decode(&frame).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn knn_infinite_range_survives() {
        let msg = Message::Query {
            object: Vector::new(vec![0.0]),
            qtype: QueryType::knn(3),
            collection: String::new(),
            tenant: String::new(),
        };
        let (back, _) = Message::decode(&msg.encode()).expect("decode");
        match back {
            Message::Query { qtype, .. } => {
                assert!(qtype.range.is_infinite());
                assert_eq!(qtype.cardinality, 3);
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn answers_roundtrip() {
        let msg = Message::Answers {
            batch_id: 9,
            batch_size: 4,
            stats: ExecutionStats {
                dist_calcs: 11,
                elapsed: Duration::from_nanos(123_456),
                ..Default::default()
            },
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
        };
        let (back, _) = Message::decode(&msg.encode()).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn bad_magic_detected() {
        let mut frame = Message::Stats {
            collection: String::new(),
        }
        .encode()
        .to_vec();
        frame[0] = b'X';
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let frame = Message::Query {
            object: Vector::new(vec![1.0, 2.0]),
            qtype: QueryType::range(1.0),
            collection: "c".into(),
            tenant: "t".into(),
        }
        .encode();
        for cut in 4..frame.len() {
            assert!(
                matches!(
                    Message::decode(&frame[..cut]),
                    Err(ProtocolError::Truncated)
                ),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = Message::Stats {
            collection: String::new(),
        }
        .encode()
        .to_vec();
        frame[4] = 99;
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtocolError::BadVersion(99))
        ));
    }

    #[test]
    fn metrics_roundtrip() {
        let req = Message::MetricsRequest {
            collection: "emb".into(),
        };
        let (back, _) = Message::decode(&req.encode()).expect("decode");
        assert_eq!(back, req);
        let text = "# HELP x y\n# TYPE x counter\nx{a=\"b\"} 1\n".to_string();
        let msg = Message::MetricsReply(text);
        let frame = msg.encode();
        let (back, used) = Message::decode(&frame).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(used, frame.len());
        // Truncation anywhere inside the reply is detected, never panics.
        for cut in 4..frame.len() {
            assert!(matches!(
                Message::decode(&frame[..cut]),
                Err(ProtocolError::Truncated)
            ));
        }
    }

    #[test]
    fn io_roundtrip_over_a_buffer() {
        let a = Message::Stats {
            collection: String::new(),
        };
        let b = Message::Error("boom".into());
        let mut wire = Vec::new();
        write_message(&mut wire, &a).unwrap();
        write_message(&mut wire, &b).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_message(&mut r).unwrap(), a);
        assert_eq!(read_message(&mut r).unwrap(), b);
        assert!(matches!(
            read_message(&mut r),
            Err(ProtocolError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }
}
