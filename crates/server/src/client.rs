//! The client library: a blocking connection speaking the frame protocol,
//! plus a fault-tolerant wrapper that reconnects and resubmits.

use crate::protocol::{
    read_message, write_message, CollectionInfo, Message, ProtocolError, ServiceMetrics,
};
use mq_core::{Answer, ExecutionStats, QueryType};
use mq_metric::Vector;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Protocol(ProtocolError),
    /// The server answered with an error message.
    Server(String),
    /// Admission control rejected the request; retry no sooner than the
    /// hinted delay. Deliberately *not* retried by [`RetryingClient`] —
    /// instant resubmission is exactly what backpressure asks against.
    Overloaded {
        /// Server's suggested minimum wait before retrying.
        retry_after_ms: u64,
    },
    /// The server refused the request with a typed reason (see
    /// [`crate::protocol::refusal`] for the codes).
    Refused {
        /// Machine-readable refusal code.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// The server speaks a different protocol version.
    VersionMismatch {
        /// The server's protocol version.
        server: u16,
        /// The version this client sent.
        client: u16,
    },
    /// The server answered with the wrong message type.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ClientError::Refused { code, detail } => {
                write!(f, "server refused (code {code}): {detail}")
            }
            ClientError::VersionMismatch { server, client } => write!(
                f,
                "protocol version mismatch: server speaks v{server}, client sent v{client}"
            ),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// The answers of one remote query plus its batch's shared statistics —
/// the client-side view of a server reply.
#[derive(Clone, Debug)]
pub struct RemoteAnswers {
    /// Identifier of the batch that carried this query.
    pub batch_id: u64,
    /// Queries that shared the batch (> 1 means the server amortized page
    /// reads across concurrent clients).
    pub batch_size: u32,
    /// Execution statistics of the whole batch.
    pub stats: ExecutionStats,
    /// The answers, ascending by distance.
    pub answers: Vec<Answer>,
}

/// One blocking connection to a query server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }

    /// Connects with a per-address connect timeout. Each resolved address
    /// is tried in turn until one connects within `timeout`.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(Self { stream });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no addresses to connect to",
            )
        }))
    }

    /// Sets a read timeout on the connection: a reply that takes longer
    /// surfaces as [`ClientError::Protocol`] with a timeout I/O error.
    /// `None` blocks forever (the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn call(&mut self, request: &Message) -> Result<Message, ClientError> {
        write_message(&mut self.stream, request)?;
        let response = read_message(&mut self.stream)?;
        match response {
            Message::Error(m) => Err(ClientError::Server(m)),
            Message::Overloaded { retry_after_ms } => {
                Err(ClientError::Overloaded { retry_after_ms })
            }
            Message::Refused { code, detail } => Err(ClientError::Refused { code, detail }),
            Message::VersionMismatch { server, client } => {
                Err(ClientError::VersionMismatch { server, client })
            }
            other => Ok(other),
        }
    }

    /// Sends one similarity query against the default collection and
    /// blocks until its batch flushed on the server and the answers
    /// arrive.
    pub fn query(
        &mut self,
        object: &Vector,
        qtype: &QueryType,
    ) -> Result<RemoteAnswers, ClientError> {
        self.query_in("", "", object, qtype)
    }

    /// [`query`](Self::query) against a named collection, attributed to a
    /// tenant for quota accounting. Empty strings mean the default
    /// collection / the anonymous tenant.
    pub fn query_in(
        &mut self,
        collection: &str,
        tenant: &str,
        object: &Vector,
        qtype: &QueryType,
    ) -> Result<RemoteAnswers, ClientError> {
        let response = self.call(&Message::Query {
            object: object.clone(),
            qtype: *qtype,
            collection: collection.to_string(),
            tenant: tenant.to_string(),
        })?;
        match response {
            Message::Answers {
                batch_id,
                batch_size,
                stats,
                answers,
            } => Ok(RemoteAnswers {
                batch_id,
                batch_size,
                stats,
                answers,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the default collection's aggregate counters.
    pub fn stats(&mut self) -> Result<ServiceMetrics, ClientError> {
        self.stats_for("")
    }

    /// Fetches a named collection's aggregate counters ("" = default).
    pub fn stats_for(&mut self, collection: &str) -> Result<ServiceMetrics, ClientError> {
        match self.call(&Message::Stats {
            collection: collection.to_string(),
        })? {
            Message::StatsReply(m) => Ok(m),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the server's metric registry as Prometheus text exposition.
    /// Empty when the server runs without an attached recorder.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Message::MetricsRequest {
            collection: String::new(),
        })? {
            Message::MetricsReply(text) => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Creates a collection. With `source == ""` the collection starts
    /// empty at the declared dimensionality; otherwise `source` is a
    /// *server-side* database directory to load. Returns the server's
    /// acknowledgement text.
    pub fn create_collection(
        &mut self,
        name: &str,
        dim: u32,
        metric: &str,
        source: &str,
    ) -> Result<String, ClientError> {
        match self.call(&Message::CreateCollection {
            name: name.to_string(),
            dim,
            metric: metric.to_string(),
            source: source.to_string(),
        })? {
            Message::Ack(detail) => Ok(detail),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drops a collection (refused while it has queries in flight).
    pub fn drop_collection(&mut self, name: &str) -> Result<String, ClientError> {
        match self.call(&Message::DropCollection {
            name: name.to_string(),
        })? {
            Message::Ack(detail) => Ok(detail),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Lists every collection the server is serving.
    pub fn list_collections(&mut self) -> Result<Vec<CollectionInfo>, ClientError> {
        match self.call(&Message::ListCollections)? {
            Message::CollectionList(infos) => Ok(infos),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// Knobs of the fault-tolerant [`RetryingClient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Per-address connect timeout of every (re)connection attempt.
    pub connect_timeout: Duration,
    /// Read timeout applied to every connection; `None` blocks forever.
    pub read_timeout: Option<Duration>,
    /// Transport failures tolerated per call before the error surfaces.
    /// 0 behaves like a plain [`Client`] with timeouts.
    pub max_retries: u32,
    /// Base delay of the exponential backoff between attempts (doubles
    /// per retry).
    pub backoff_base: Duration,
    /// Upper bound of the backoff delay.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter: each sleep is scaled into
    /// [50%, 100%] of the capped exponential delay by a seeded generator,
    /// so a replayed seed reproduces the exact retry schedule.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            max_retries: 3,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x006d_7172_6574_7279, // "mqretry"
        }
    }
}

impl RetryConfig {
    /// Sets the number of tolerated transport failures per call.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the per-address connect timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the per-reply read timeout (`None` blocks forever).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the backoff base and cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets the jitter seed (replay a failing schedule exactly).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

/// A fault-tolerant client: on a transport failure (connection refused,
/// reset, read timeout) it reconnects and resubmits the request, with
/// bounded exponential backoff and seeded jitter between attempts.
///
/// Resubmission is safe because the protocol is purely read-only — a query
/// executed twice server-side yields the same answers and mutates nothing
/// (at worst it lands in a different batch, which only the reported
/// `batch_id`/`batch_size` reflect). Server-side errors
/// ([`ClientError::Server`]) and codec errors are *not* retried: the
/// transport worked, so a retry would just repeat the refusal.
pub struct RetryingClient {
    addr: String,
    config: RetryConfig,
    conn: Option<Client>,
    /// xorshift64* state for the jitter; never zero.
    jitter_state: u64,
    retries_performed: u64,
}

impl RetryingClient {
    /// Creates a client of `addr`; connections are opened lazily, so this
    /// never fails even while the server is still down.
    pub fn new(addr: impl Into<String>, config: RetryConfig) -> Self {
        // splitmix64 scramble so that neighboring seeds (42 vs 43) still
        // yield unrelated jitter streams; `| 1` keeps xorshift alive.
        let mut z = config.jitter_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self {
            addr: addr.into(),
            config,
            conn: None,
            jitter_state: (z ^ (z >> 31)) | 1,
            retries_performed: 0,
        }
    }

    /// Transport-level retries performed over the client's lifetime —
    /// 0 means every call succeeded on its first attempt.
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// Sends one similarity query, transparently reconnecting and
    /// resubmitting on transport failures within the retry budget.
    pub fn query(
        &mut self,
        object: &Vector,
        qtype: &QueryType,
    ) -> Result<RemoteAnswers, ClientError> {
        self.with_retries(|client| client.query(object, qtype))
    }

    /// [`query`](Self::query) against a named collection under a tenant.
    /// `Overloaded` and `Refused` replies surface immediately — the
    /// transport worked, and hammering a backpressure signal with instant
    /// retries would defeat it.
    pub fn query_in(
        &mut self,
        collection: &str,
        tenant: &str,
        object: &Vector,
        qtype: &QueryType,
    ) -> Result<RemoteAnswers, ClientError> {
        self.with_retries(|client| client.query_in(collection, tenant, object, qtype))
    }

    /// Fetches the server's aggregate counters, with the same retry
    /// behavior as [`query`](Self::query).
    pub fn stats(&mut self) -> Result<ServiceMetrics, ClientError> {
        self.with_retries(|client| client.stats())
    }

    /// Fetches a named collection's counters, with the same retry
    /// behavior as [`query`](Self::query).
    pub fn stats_for(&mut self, collection: &str) -> Result<ServiceMetrics, ClientError> {
        self.with_retries(|client| client.stats_for(collection))
    }

    /// Fetches the server's metric exposition, with the same retry
    /// behavior as [`query`](Self::query).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.with_retries(|client| client.metrics())
    }

    /// Creates a collection, with the same retry behavior as
    /// [`query`](Self::query). Safe to resubmit: a create that actually
    /// succeeded before the reply was lost answers `COLLECTION_EXISTS` on
    /// the retry, which the caller can treat as confirmation.
    pub fn create_collection(
        &mut self,
        name: &str,
        dim: u32,
        metric: &str,
        source: &str,
    ) -> Result<String, ClientError> {
        self.with_retries(|client| client.create_collection(name, dim, metric, source))
    }

    /// Drops a collection, with the same retry behavior as
    /// [`query`](Self::query).
    pub fn drop_collection(&mut self, name: &str) -> Result<String, ClientError> {
        self.with_retries(|client| client.drop_collection(name))
    }

    /// Lists every collection, with the same retry behavior as
    /// [`query`](Self::query).
    pub fn list_collections(&mut self) -> Result<Vec<CollectionInfo>, ClientError> {
        self.with_retries(|client| client.list_collections())
    }

    fn with_retries<T>(
        &mut self,
        mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self.connected().and_then(&mut call);
            match result {
                Ok(v) => return Ok(v),
                // Only transport failures are worth a reconnect: the
                // request may never have reached the server, or the reply
                // was lost. Anything else means the transport worked.
                Err(ClientError::Protocol(ProtocolError::Io(_)))
                    if attempt < self.config.max_retries =>
                {
                    self.conn = None; // the stream is in an unknown state
                    self.retries_performed += 1;
                    std::thread::sleep(self.backoff_delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The connection, (re)established on demand.
    fn connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let client = Client::connect_timeout(self.addr.as_str(), self.config.connect_timeout)
                .map_err(|e| ClientError::Protocol(ProtocolError::Io(e)))?;
            client
                .set_read_timeout(self.config.read_timeout)
                .map_err(|e| ClientError::Protocol(ProtocolError::Io(e)))?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Deterministic jittered backoff: `base * 2^attempt` capped at
    /// `backoff_cap`, scaled into [50%, 100%] by the seeded generator.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.backoff_cap);
        // xorshift64*: cheap, deterministic, never zero.
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        let unit = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let config = RetryConfig::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_jitter_seed(42);
        let mut a = RetryingClient::new("127.0.0.1:1", config);
        let mut b = RetryingClient::new("127.0.0.1:1", config);
        let delays: Vec<Duration> = (0..6).map(|i| a.backoff_delay(i)).collect();
        let replay: Vec<Duration> = (0..6).map(|i| b.backoff_delay(i)).collect();
        assert_eq!(delays, replay, "same seed, same schedule");
        for (i, d) in delays.iter().enumerate() {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(80));
            assert!(*d >= exp.mul_f64(0.5) && *d <= exp, "attempt {i}: {d:?}");
        }
        // Different seed, different schedule.
        let mut c = RetryingClient::new("127.0.0.1:1", config.with_jitter_seed(43));
        let other: Vec<Duration> = (0..6).map(|i| c.backoff_delay(i)).collect();
        assert_ne!(delays, other);
    }

    #[test]
    fn exhausted_budget_surfaces_transport_error() {
        // Nothing listens on a reserved port of the discard range; each
        // attempt fails to connect, and the budget bounds the attempts.
        let config = RetryConfig::default()
            .with_max_retries(2)
            .with_connect_timeout(Duration::from_millis(50))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2));
        let mut client = RetryingClient::new("127.0.0.1:9", config);
        let err = client.query(&Vector::new(vec![1.0]), &QueryType::knn(1));
        assert!(matches!(
            err,
            Err(ClientError::Protocol(ProtocolError::Io(_)))
        ));
        assert_eq!(client.retries_performed(), 2);
    }
}
