//! Request dispatch: everything between frame decode and the scheduler.
//!
//! The frontend (`mq-front`'s event loop) funnels every decoded client
//! message through one [`Dispatcher`]: collection resolution, dimension
//! validation, admission control and the admin opcodes produce the reply
//! bytes here, independent of how the connection is driven; the frontend
//! only moves bytes and hands the scheduler a sink for admitted queries.

use crate::admission::AdmissionController;
use crate::config::ServerConfig;
use crate::protocol::{refusal, Message};
use crate::registry::{Collection, CollectionRegistry};
use crate::scheduler::QueryReply;
use mq_core::QueryType;
use mq_metric::Vector;
use mq_obs::{Counter, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// A query that passed validation and admission: the caller must submit
/// it to `collection`'s scheduler and answer with
/// [`Dispatcher::reply_for`].
pub struct AdmittedQuery {
    /// The resolved target collection.
    pub collection: Arc<Collection>,
    /// The query vector.
    pub object: Vector,
    /// The query type.
    pub qtype: QueryType,
}

/// Shared request logic over a [`CollectionRegistry`] plus an
/// [`AdmissionController`].
pub struct Dispatcher {
    registry: Arc<CollectionRegistry>,
    admission: AdmissionController,
    recorder: Recorder,
    /// Zero point of the admission controller's logical clock.
    started: Instant,
    admitted: Option<Arc<Counter>>,
    rejected: Option<Arc<Counter>>,
}

impl Dispatcher {
    /// Builds the dispatcher; admission knobs come from `config`.
    pub fn new(
        registry: Arc<CollectionRegistry>,
        config: &ServerConfig,
        recorder: &Recorder,
    ) -> Self {
        Self {
            registry,
            admission: AdmissionController::new(config.max_queue, config.quota),
            recorder: recorder.clone(),
            started: Instant::now(),
            admitted: recorder.counter(
                "mq_front_admitted_total",
                "Queries that passed admission control and were scheduled.",
                &[],
            ),
            rejected: recorder.counter(
                "mq_front_rejected_total",
                "Queries rejected with a typed Overloaded reply.",
                &[],
            ),
        }
    }

    /// The registry behind this dispatcher.
    pub fn registry(&self) -> &Arc<CollectionRegistry> {
        &self.registry
    }

    /// The recorder metrics replies render from.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Handles one decoded client message. `Ok` is a reply ready to send;
    /// `Err` is an admitted query the caller must submit and answer via
    /// [`reply_for`](Self::reply_for).
    pub fn dispatch(&self, request: Message) -> Result<Message, AdmittedQuery> {
        match request {
            Message::Query {
                object,
                qtype,
                collection,
                tenant,
            } => {
                let Some(collection) = self.registry.get(&collection) else {
                    return Ok(Message::Refused {
                        code: refusal::UNKNOWN_COLLECTION,
                        detail: format!("no collection named {collection:?}"),
                    });
                };
                let expected = collection.dimensions();
                if expected != 0 && object.dim() != expected {
                    // Reject up front: a mismatched vector must never reach
                    // a batch that carries other clients' queries. The
                    // connection stays open for corrected retries.
                    return Ok(Message::Error(format!(
                        "dimension mismatch: query vector has {} components, \
                         database objects have {expected}",
                        object.dim()
                    )));
                }
                if self.admission.is_enabled() {
                    let scheduler = collection.scheduler();
                    if let Err(retry_after_ms) = self.admission.admit(
                        &tenant,
                        scheduler.in_flight(),
                        self.started.elapsed(),
                        scheduler.queue_wait_p99(),
                    ) {
                        if let Some(c) = &self.rejected {
                            c.inc();
                        }
                        return Ok(Message::Overloaded { retry_after_ms });
                    }
                }
                if let Some(c) = &self.admitted {
                    c.inc();
                }
                collection.count_admitted();
                Err(AdmittedQuery {
                    collection,
                    object,
                    qtype,
                })
            }
            Message::Stats { collection } => match self.registry.get(&collection) {
                Some(c) => Ok(Message::StatsReply(c.scheduler().metrics())),
                None => Ok(Message::Refused {
                    code: refusal::UNKNOWN_COLLECTION,
                    detail: format!("no collection named {collection:?}"),
                }),
            },
            // One registry serves every collection, so the exposition is
            // global; the collection field is accepted for forward
            // compatibility.
            Message::MetricsRequest { collection: _ } => {
                Ok(Message::MetricsReply(self.recorder.render()))
            }
            Message::CreateCollection {
                name,
                dim,
                metric,
                source,
            } => Ok(match self.registry.create(&name, dim, &metric, &source) {
                Ok(detail) => Message::Ack(detail),
                Err((code, detail)) => Message::Refused { code, detail },
            }),
            Message::DropCollection { name } => Ok(match self.registry.drop_collection(&name) {
                Ok(detail) => Message::Ack(detail),
                Err((code, detail)) => Message::Refused { code, detail },
            }),
            Message::ListCollections => Ok(Message::CollectionList(self.registry.list())),
            other => Ok(Message::Error(format!(
                "unexpected client message: {other:?}"
            ))),
        }
    }

    /// The wire reply for a scheduler outcome: answers, or the typed
    /// failure text when the batch died (backend panic, shutdown drain).
    pub fn reply_for(result: Option<QueryReply>) -> Message {
        match result {
            Some(reply) => Message::Answers {
                batch_id: reply.batch_id,
                batch_size: reply.batch_size,
                stats: reply.stats,
                answers: reply.answers,
            },
            None => Message::Error("query batch failed or scheduler shut down".into()),
        }
    }
}
