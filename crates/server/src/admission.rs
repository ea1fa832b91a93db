//! Admission control: the gate between frame decode and scheduler
//! submission.
//!
//! Two independent checks, both cheap and both *typed* — an arriving
//! query that fails either one gets an `Overloaded{retry_after_ms}` reply
//! immediately instead of joining an unbounded queue:
//!
//! 1. **Queue depth** — if the target collection already has
//!    [`ServerConfig::max_queue`](crate::ServerConfig) jobs in flight the
//!    query is rejected. The retry hint is the scheduler's live
//!    queue-wait p99 (the first place the mq-obs histograms feed back
//!    into behaviour): a saturated queue advertises its own delay.
//! 2. **Tenant quota** — a token bucket per tenant name
//!    ([`QuotaConfig`]: `rate` tokens/second refill up to `burst`). The
//!    retry hint is the exact time until the bucket holds a whole token.
//!
//! The controller is deliberately clocked by a *logical* `now` supplied
//! by the caller (wall-clock-since-start in the servers, plan offsets in
//! tests) rather than reading `Instant::now()` itself. That makes the
//! admitted/rejected split a pure function of the offered sequence — the
//! property the admission-determinism suite pins.

use crate::config::QuotaConfig;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Fallback queue-full retry hint when the scheduler has no queue-wait
/// observations yet (first requests after startup).
const DEFAULT_RETRY_MS: u64 = 10;
/// Retry hints are clamped to this ceiling so a pathological histogram
/// tail cannot tell clients to go away for minutes.
const MAX_RETRY_MS: u64 = 1_000;

struct Bucket {
    tokens: f64,
    last: Duration,
}

/// Decides, per query, whether to admit or reject with a retry hint.
///
/// With `max_queue == 0` and no quota every call admits.
pub struct AdmissionController {
    max_queue: usize,
    quota: Option<QuotaConfig>,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl AdmissionController {
    /// Builds a controller from the two admission knobs.
    pub fn new(max_queue: usize, quota: Option<QuotaConfig>) -> Self {
        Self {
            max_queue,
            quota,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The token buckets, locked. A critical section updates one bucket's
    /// two plain fields, so a holder that panicked leaves every bucket
    /// usable and the next caller takes the lock over.
    fn buckets(&self) -> MutexGuard<'_, HashMap<String, Bucket>> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether any limit is configured at all (lets callers skip the
    /// bookkeeping entirely in the common unbounded case).
    pub fn is_enabled(&self) -> bool {
        self.max_queue > 0 || self.quota.is_some()
    }

    /// Admits one query for `tenant`, or rejects it with a
    /// `retry_after_ms` hint.
    ///
    /// `queue_depth` is the target collection's current in-flight count,
    /// `now` the logical clock (monotone per tenant; a caller handing in
    /// plan offsets gets a deterministic split), and `queue_wait_p99` the
    /// scheduler's live queue-wait quantile in seconds, used as the
    /// queue-full retry hint when available.
    pub fn admit(
        &self,
        tenant: &str,
        queue_depth: u64,
        now: Duration,
        queue_wait_p99: Option<f64>,
    ) -> Result<(), u64> {
        if self.max_queue > 0 && queue_depth >= self.max_queue as u64 {
            let hint = queue_wait_p99
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| (s * 1e3).ceil() as u64)
                .unwrap_or(DEFAULT_RETRY_MS);
            return Err(hint.clamp(1, MAX_RETRY_MS));
        }
        let Some(quota) = self.quota else {
            return Ok(());
        };
        let mut buckets = self.buckets();
        let bucket = bucket_entry(&mut buckets, tenant, quota, now);
        // Refill for the time elapsed since this tenant's last decision;
        // a non-monotone `now` (clock skew between connections) refills
        // nothing rather than going negative.
        let elapsed = now.saturating_sub(bucket.last);
        bucket.tokens = (bucket.tokens + quota.rate * elapsed.as_secs_f64()).min(quota.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait_secs = (1.0 - bucket.tokens) / quota.rate;
            let hint = (wait_secs * 1e3).ceil() as u64;
            Err(hint.clamp(1, MAX_RETRY_MS))
        }
    }
}

fn bucket_entry<'a>(
    buckets: &'a mut HashMap<String, Bucket>,
    tenant: &str,
    quota: QuotaConfig,
    now: Duration,
) -> &'a mut Bucket {
    if !buckets.contains_key(tenant) {
        // A tenant's first query finds a full bucket.
        buckets.insert(
            tenant.to_string(),
            Bucket {
                tokens: quota.burst,
                last: now,
            },
        );
    }
    buckets.get_mut(tenant).expect("bucket just ensured")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(rate: f64, burst: f64) -> Option<QuotaConfig> {
        Some(QuotaConfig { rate, burst })
    }

    #[test]
    fn unbounded_controller_admits_everything() {
        let c = AdmissionController::new(0, None);
        assert!(!c.is_enabled());
        for i in 0..1000u64 {
            assert_eq!(c.admit("t", i * 10, Duration::from_millis(i), None), Ok(()));
        }
    }

    #[test]
    fn queue_depth_bound_rejects_at_the_boundary() {
        let c = AdmissionController::new(8, None);
        assert!(c.is_enabled());
        assert_eq!(c.admit("t", 7, Duration::ZERO, None), Ok(()));
        assert_eq!(
            c.admit("t", 8, Duration::ZERO, None),
            Err(DEFAULT_RETRY_MS),
            "depth == max_queue must reject"
        );
        // The live queue-wait p99 becomes the hint, in whole ms.
        assert_eq!(c.admit("t", 8, Duration::ZERO, Some(0.0371)), Err(38));
        // ... clamped so a long tail cannot banish clients.
        assert_eq!(
            c.admit("t", 8, Duration::ZERO, Some(120.0)),
            Err(MAX_RETRY_MS)
        );
    }

    #[test]
    fn token_bucket_spends_burst_then_meters_by_rate() {
        // 10 tokens/s, burst 3: three immediate admits, then a rejection
        // whose hint is the exact refill time.
        let c = AdmissionController::new(0, quota(10.0, 3.0));
        let t0 = Duration::ZERO;
        for _ in 0..3 {
            assert_eq!(c.admit("a", 0, t0, None), Ok(()));
        }
        assert_eq!(
            c.admit("a", 0, t0, None),
            Err(100),
            "empty bucket waits 1/rate"
        );
        // 100 ms later exactly one token has refilled.
        let t1 = Duration::from_millis(100);
        assert_eq!(c.admit("a", 0, t1, None), Ok(()));
        assert!(c.admit("a", 0, t1, None).is_err());
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let c = AdmissionController::new(0, quota(1.0, 1.0));
        assert_eq!(c.admit("a", 0, Duration::ZERO, None), Ok(()));
        assert!(c.admit("a", 0, Duration::ZERO, None).is_err());
        assert_eq!(
            c.admit("b", 0, Duration::ZERO, None),
            Ok(()),
            "tenant b starts with its own full bucket"
        );
    }

    #[test]
    fn same_offered_sequence_same_split() {
        // The determinism contract: identical logical-clock sequences
        // produce identical admit/reject decisions.
        let offered: Vec<(String, Duration)> = (0..200)
            .map(|i| {
                (
                    format!("t{}", i % 3),
                    Duration::from_micros(i as u64 * 1_700),
                )
            })
            .collect();
        let run = || {
            let c = AdmissionController::new(0, quota(50.0, 4.0));
            offered
                .iter()
                .map(|(tenant, at)| c.admit(tenant, 0, *at, None).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|ok| *ok), "some admitted");
        assert!(a.iter().any(|ok| !*ok), "some rejected at this rate");
    }

    #[test]
    fn non_monotone_clock_never_refills_backwards() {
        let c = AdmissionController::new(0, quota(10.0, 1.0));
        assert_eq!(c.admit("a", 0, Duration::from_secs(10), None), Ok(()));
        // An earlier timestamp from another connection must not mint
        // tokens (elapsed saturates to zero).
        assert!(c.admit("a", 0, Duration::from_secs(5), None).is_err());
    }

    #[test]
    fn a_panic_under_the_bucket_lock_leaves_admission_serving() {
        let c = AdmissionController::new(0, quota(10.0, 2.0));
        assert_eq!(c.admit("a", 0, Duration::ZERO, None), Ok(()));
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = c.buckets.lock();
                panic!("bucket holder panics");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(c.buckets.is_poisoned());
        // The bucket kept its state: one token left, then empty.
        assert_eq!(c.admit("a", 0, Duration::ZERO, None), Ok(()));
        assert_eq!(c.admit("a", 0, Duration::ZERO, None), Err(100));
    }
}
