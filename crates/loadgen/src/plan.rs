//! Workload materialization: every request a run will send — query
//! vector, query type, session assignment, arrival offset — computed up
//! front as plain data from one seed.
//!
//! Nothing here touches the wall clock or spawns a thread, which is the
//! whole point: the byte encoding of a plan ([`RequestPlan::encode`]) is
//! a pure function of its [`WorkloadSpec`], so the replay-determinism
//! suite can pin "same seed ⇒ byte-identical request sequence" without
//! ever opening a socket.

use mq_core::{QueryKind, QueryType};
use mq_datagen::{poisson_arrival_offsets, zipf_indices};
use mq_metric::Vector;
use std::time::Duration;

/// How requests are paced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Open loop: requests arrive on a Poisson schedule at `offered_qps`,
    /// regardless of how fast the server answers (arrival times are
    /// independent of completions, so queueing delay is *measured*, not
    /// hidden — no coordinated omission).
    Open {
        /// Offered aggregate arrival rate, queries per second.
        offered_qps: f64,
    },
    /// Closed loop: `sessions` concurrent clients, each waiting for its
    /// answer and then thinking for `think` before the next request —
    /// the paper's c-concurrent-users exploration shape.
    Closed {
        /// Number of concurrent client sessions.
        sessions: usize,
        /// Think time between a reply and the session's next request.
        think: Duration,
    },
    /// Stepped open loop: the request budget is split into `steps` equal
    /// segments whose offered rates interpolate linearly from
    /// `start_qps` to `end_qps`. Driving the ramp past server capacity
    /// locates the saturation knee — the first step where rejections
    /// appear or throughput stops tracking the offered rate.
    Ramp {
        /// Offered rate of the first step, queries per second.
        start_qps: f64,
        /// Offered rate of the last step, queries per second.
        end_qps: f64,
        /// Number of rate steps (≥ 1).
        steps: usize,
    },
}

/// One segment of a [`Mode::Ramp`] plan: a contiguous slice of the
/// request sequence offered at one rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RampSegment {
    /// Index of the segment's first request in the global sequence.
    pub start_index: usize,
    /// Requests in the segment.
    pub len: usize,
    /// Offered rate of the segment, queries per second.
    pub rate_qps: f64,
}

/// Everything that determines a workload, and nothing else.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Pacing model.
    pub mode: Mode,
    /// Total requests in the run.
    pub requests: usize,
    /// Query type every request carries.
    pub qtype: QueryType,
    /// The pool of query objects; requests draw from it under Zipf skew.
    pub pool: Vec<Vector>,
    /// Zipf exponent of the hot-key skew (0 = uniform, ~1 = heavily hot).
    pub skew: f64,
    /// Master seed; arrival and key streams derive from it.
    pub seed: u64,
}

/// One planned request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Position in the global request sequence.
    pub index: usize,
    /// Owning session (closed loop; 0 in open loop).
    pub session: usize,
    /// Intended start offset from the beginning of the run (open loop;
    /// zero in closed loop, where pacing is reply + think time).
    pub offset: Duration,
    /// Index into the plan's query pool.
    pub pool_slot: usize,
    /// The query type.
    pub qtype: QueryType,
}

/// A fully materialized workload: the pool plus every request in order.
#[derive(Clone, Debug)]
pub struct RequestPlan {
    /// Pacing model the driver will follow.
    pub mode: Mode,
    /// Master seed the plan was derived from.
    pub seed: u64,
    /// Query-object pool shared by the requests.
    pub pool: Vec<Vector>,
    /// The request sequence, ascending by `index` (and by `offset` in
    /// open-loop mode).
    pub requests: Vec<Request>,
}

/// splitmix64 — derives independent sub-streams from the master seed so
/// the arrival schedule, key choices and per-session jitter never share
/// state (the workspace's standard seed-scrambling idiom).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits `total` requests into `steps` contiguous segments with rates
/// interpolated linearly from `start_qps` to `end_qps` (the remainder of
/// an uneven split lands in the last segment).
fn ramp_segments(total: usize, start_qps: f64, end_qps: f64, steps: usize) -> Vec<RampSegment> {
    let per_step = total / steps;
    (0..steps)
        .map(|i| {
            let rate_qps = if steps == 1 {
                start_qps
            } else {
                start_qps + (end_qps - start_qps) * i as f64 / (steps - 1) as f64
            };
            let start_index = i * per_step;
            let len = if i == steps - 1 {
                total - start_index
            } else {
                per_step
            };
            RampSegment {
                start_index,
                len,
                rate_qps,
            }
        })
        .collect()
}

impl RequestPlan {
    /// Materializes the full request sequence from a spec.
    ///
    /// # Panics
    /// Panics on an empty pool, zero closed-loop sessions, or a
    /// non-positive open-loop rate.
    pub fn materialize(spec: &WorkloadSpec) -> Self {
        assert!(!spec.pool.is_empty(), "workload pool must not be empty");
        let slots = zipf_indices(
            spec.pool.len(),
            spec.skew,
            spec.requests,
            derive_seed(spec.seed, 1),
        );
        let offsets: Vec<Duration> = match spec.mode {
            Mode::Open { offered_qps } => {
                poisson_arrival_offsets(spec.requests, offered_qps, derive_seed(spec.seed, 2))
            }
            Mode::Closed { sessions, .. } => {
                assert!(sessions > 0, "closed loop needs at least one session");
                vec![Duration::ZERO; spec.requests]
            }
            Mode::Ramp {
                start_qps,
                end_qps,
                steps,
            } => {
                assert!(steps > 0, "ramp needs at least one step");
                assert!(
                    start_qps > 0.0 && end_qps > 0.0,
                    "ramp rates must be positive"
                );
                // Each segment gets its own independent Poisson stream
                // (seed stream 2000+i) at its own rate, shifted to start
                // where the previous segment's arrivals actually ended —
                // offsets stay strictly ascending across the whole ramp.
                let mut offsets = Vec::with_capacity(spec.requests);
                let mut base = Duration::ZERO;
                for seg in ramp_segments(spec.requests, start_qps, end_qps, steps) {
                    let seg_offsets = poisson_arrival_offsets(
                        seg.len,
                        seg.rate_qps,
                        derive_seed(spec.seed, 2000 + seg.start_index as u64),
                    );
                    let mut last = Duration::ZERO;
                    for off in seg_offsets {
                        offsets.push(base + off);
                        last = off;
                    }
                    base += last;
                }
                offsets
            }
        };
        let sessions = match spec.mode {
            Mode::Open { .. } | Mode::Ramp { .. } => 1,
            Mode::Closed { sessions, .. } => sessions,
        };
        let requests = (0..spec.requests)
            .map(|i| Request {
                index: i,
                session: i % sessions,
                offset: offsets[i],
                pool_slot: slots[i],
                qtype: spec.qtype,
            })
            .collect();
        Self {
            mode: spec.mode,
            seed: spec.seed,
            pool: spec.pool.clone(),
            requests,
        }
    }

    /// The query vector of one request.
    pub fn query(&self, r: &Request) -> &Vector {
        &self.pool[r.pool_slot]
    }

    /// Number of sessions the driver should run.
    pub fn sessions(&self) -> usize {
        match self.mode {
            Mode::Open { .. } | Mode::Ramp { .. } => 1,
            Mode::Closed { sessions, .. } => sessions,
        }
    }

    /// The ramp's segments (`None` unless the plan is [`Mode::Ramp`]).
    pub fn ramp_segments(&self) -> Option<Vec<RampSegment>> {
        match self.mode {
            Mode::Ramp {
                start_qps,
                end_qps,
                steps,
            } => Some(ramp_segments(
                self.requests.len(),
                start_qps,
                end_qps,
                steps,
            )),
            _ => None,
        }
    }

    /// The ramp segment a request index belongs to (`None` off-ramp).
    pub fn ramp_step_of(&self, index: usize) -> Option<usize> {
        self.ramp_segments().map(|segs| {
            segs.iter()
                .position(|s| index < s.start_index + s.len)
                .unwrap_or(segs.len().saturating_sub(1))
        })
    }

    /// A canonical byte encoding of the whole plan: mode, seed, pool
    /// vectors (exact f32 bits) and every request's fields, all
    /// little-endian. Two plans send identical traffic if and only if
    /// their encodings are identical.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.requests.len() * 40);
        out.extend_from_slice(b"MQLG\x01");
        match self.mode {
            Mode::Open { offered_qps } => {
                out.push(0);
                out.extend_from_slice(&offered_qps.to_bits().to_le_bytes());
            }
            Mode::Closed { sessions, think } => {
                out.push(1);
                out.extend_from_slice(&(sessions as u64).to_le_bytes());
                out.extend_from_slice(&(think.as_nanos() as u64).to_le_bytes());
            }
            Mode::Ramp {
                start_qps,
                end_qps,
                steps,
            } => {
                out.push(2);
                out.extend_from_slice(&start_qps.to_bits().to_le_bytes());
                out.extend_from_slice(&end_qps.to_bits().to_le_bytes());
                out.extend_from_slice(&(steps as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.pool.len() as u64).to_le_bytes());
        for v in &self.pool {
            out.extend_from_slice(&(v.dim() as u64).to_le_bytes());
            for c in v.components() {
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.requests.len() as u64).to_le_bytes());
        for r in &self.requests {
            out.extend_from_slice(&(r.index as u64).to_le_bytes());
            out.extend_from_slice(&(r.session as u64).to_le_bytes());
            out.extend_from_slice(&(r.offset.as_nanos() as u64).to_le_bytes());
            out.extend_from_slice(&(r.pool_slot as u64).to_le_bytes());
            out.push(match r.qtype.kind {
                QueryKind::Range => 0,
                QueryKind::KNearestNeighbor => 1,
                QueryKind::BoundedKNearestNeighbor => 2,
            });
            out.extend_from_slice(&r.qtype.range.to_bits().to_le_bytes());
            out.extend_from_slice(&(r.qtype.cardinality as u64).to_le_bytes());
        }
        out
    }

    /// FNV-1a fingerprint of [`encode`](Self::encode) — the value a
    /// report records so two runs can prove they sent the same request
    /// stream.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.encode() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| Vector::new(vec![i as f32, (i * i) as f32]))
            .collect()
    }

    fn spec(mode: Mode, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            mode,
            requests: 64,
            qtype: QueryType::knn(3),
            pool: pool(8),
            skew: 0.8,
            seed,
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        for mode in [
            Mode::Open { offered_qps: 500.0 },
            Mode::Closed {
                sessions: 4,
                think: Duration::from_millis(1),
            },
        ] {
            let a = RequestPlan::materialize(&spec(mode, 7));
            let b = RequestPlan::materialize(&spec(mode, 7));
            assert_eq!(a.encode(), b.encode());
            assert_eq!(a.fingerprint(), b.fingerprint());
            let c = RequestPlan::materialize(&spec(mode, 8));
            assert_ne!(a.encode(), c.encode(), "seed must matter");
        }
    }

    #[test]
    fn open_loop_offsets_sorted_closed_loop_zero() {
        let open = RequestPlan::materialize(&spec(Mode::Open { offered_qps: 100.0 }, 3));
        assert!(open.requests.windows(2).all(|w| w[0].offset < w[1].offset));
        let closed = RequestPlan::materialize(&spec(
            Mode::Closed {
                sessions: 4,
                think: Duration::ZERO,
            },
            3,
        ));
        assert!(closed.requests.iter().all(|r| r.offset == Duration::ZERO));
        // Sessions partition the sequence round-robin.
        assert!(closed.requests.iter().all(|r| r.session == r.index % 4));
    }

    #[test]
    fn skew_streams_differ_from_arrival_streams() {
        // Same master seed: key choices and offsets must not be correlated
        // copies of one stream — crude check: the first few pool slots are
        // not simply the offsets' low bits.
        let plan = RequestPlan::materialize(&spec(Mode::Open { offered_qps: 100.0 }, 11));
        let slots: Vec<usize> = plan.requests.iter().take(8).map(|r| r.pool_slot).collect();
        assert!(
            slots.iter().any(|&s| s != slots[0]),
            "skewed but not constant"
        );
    }

    #[test]
    #[should_panic(expected = "pool must not be empty")]
    fn empty_pool_rejected() {
        let mut s = spec(Mode::Open { offered_qps: 1.0 }, 1);
        s.pool.clear();
        let _ = RequestPlan::materialize(&s);
    }

    #[test]
    fn ramp_is_deterministic_sorted_and_segmented() {
        let mode = Mode::Ramp {
            start_qps: 100.0,
            end_qps: 1000.0,
            steps: 4,
        };
        let a = RequestPlan::materialize(&spec(mode, 21));
        let b = RequestPlan::materialize(&spec(mode, 21));
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.encode(),
            RequestPlan::materialize(&spec(mode, 22)).encode(),
            "seed must matter"
        );

        // Offsets ascend across segment boundaries too.
        assert!(a.requests.windows(2).all(|w| w[0].offset <= w[1].offset));

        // Segments cover the sequence exactly, rates interpolate
        // linearly from start to end.
        let segs = a.ramp_segments().expect("ramp segments");
        assert_eq!(segs.len(), 4);
        assert_eq!(segs.iter().map(|s| s.len).sum::<usize>(), a.requests.len());
        assert_eq!(segs[0].rate_qps, 100.0);
        assert_eq!(segs[3].rate_qps, 1000.0);
        assert!(segs.windows(2).all(|w| w[0].rate_qps < w[1].rate_qps));
        assert_eq!(
            segs[1].start_index,
            segs[0].start_index + segs[0].len,
            "segments are contiguous"
        );

        // Step lookup matches the segment table.
        assert_eq!(a.ramp_step_of(0), Some(0));
        assert_eq!(a.ramp_step_of(a.requests.len() - 1), Some(3));
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(a.ramp_step_of(seg.start_index), Some(i));
        }

        // Later (faster) segments pack their arrivals more densely.
        let seg_span = |seg: &RampSegment| {
            let first = a.requests[seg.start_index].offset;
            let last = a.requests[seg.start_index + seg.len - 1].offset;
            (last - first).as_secs_f64() / seg.len as f64
        };
        assert!(
            seg_span(&segs[0]) > seg_span(&segs[3]),
            "mean inter-arrival must shrink as the rate ramps up"
        );
    }

    #[test]
    fn ramp_encoding_is_mode_distinct() {
        // A ramp plan and an open plan over the same seed/pool must not
        // collide in their byte encodings.
        let ramp = RequestPlan::materialize(&spec(
            Mode::Ramp {
                start_qps: 500.0,
                end_qps: 500.0,
                steps: 1,
            },
            7,
        ));
        let open = RequestPlan::materialize(&spec(Mode::Open { offered_qps: 500.0 }, 7));
        assert_ne!(ramp.encode(), open.encode());
    }
}
