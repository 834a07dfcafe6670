//! Per-model token-bucket rate limiting.
//!
//! A bucket holds up to `burst` tokens and refills continuously at
//! `samples_per_sec`. Admission charges one token **per sample** (so a
//! 64-sample batch costs 64 tokens), which makes limits mean what an
//! operator expects — sustained samples per second with a bounded burst —
//! independent of how clients batch their traffic.
//!
//! Buckets are configured per **logical model name** at build time
//! ([`crate::GatewayBuilder::rate_limit`]), so every quantization of a
//! model (`iris@posit<8,0>`, `iris@fixed<8,5>`, …) draws from one shared
//! budget — the paper's multi-format comparison traffic counts as one
//! model's load, not three.

use dp_serve::check::{self, check_yield, MutexGuard};
use std::time::Instant;

/// A token-bucket limit: sustained rate plus burst headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Maximum tokens the bucket holds (= the largest burst admitted from
    /// a full bucket). Clamped to ≥ 1.
    pub burst: f64,
    /// Refill rate in samples per second. `0.0` means no refill — the
    /// bucket only ever serves its initial burst (useful in tests).
    pub samples_per_sec: f64,
}

impl RateLimit {
    /// A limit admitting `samples_per_sec` sustained with 1 second of
    /// burst headroom.
    pub fn per_sec(samples_per_sec: f64) -> Self {
        RateLimit {
            burst: samples_per_sec.max(1.0),
            samples_per_sec,
        }
    }
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// One model's token bucket. Starts full.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    limit: RateLimit,
    state: check::Mutex<BucketState>,
}

impl TokenBucket {
    pub(crate) fn new(limit: RateLimit) -> Self {
        let limit = RateLimit {
            burst: limit.burst.max(1.0),
            samples_per_sec: limit.samples_per_sec.max(0.0),
        };
        TokenBucket {
            limit,
            state: check::mutex(
                "gateway.limiter",
                BucketState {
                    tokens: limit.burst,
                    // clock-ok: rate limiting is a real-time contract
                    // (tokens per wall-clock second), not a serving-path
                    // timestamp; the trace clock never virtualizes it.
                    last_refill: Instant::now(),
                },
            ),
        }
    }

    /// The bucket lock.
    fn st(&self) -> MutexGuard<'_, BucketState> {
        // panic-ok: the bucket lock is only poisoned if a holder panicked
        // mid-section; the sections are pure float arithmetic that cannot
        // panic, so a poisoned bucket means worse problems than a lost
        // rate limit.
        self.state.lock().expect("token bucket lock")
    }

    /// Returns `cost` tokens to the bucket (capped at `burst`) — used
    /// when a charged request is subsequently shed without serving
    /// anything, so overload doesn't also burn the client's rate budget.
    pub(crate) fn refund(&self, cost: f64) {
        check_yield!("limiter.refund");
        let mut st = self.st();
        st.tokens = (st.tokens + cost.clamp(0.0, self.limit.burst)).min(self.limit.burst);
    }

    /// Tries to charge `cost` tokens (one per sample), refilling first.
    /// A cost larger than `burst` is clamped to `burst`, so an oversized
    /// batch is admitted whenever the bucket is full rather than being
    /// unconditionally starved.
    pub(crate) fn try_acquire(&self, cost: f64) -> bool {
        let cost = cost.clamp(0.0, self.limit.burst);
        check_yield!("limiter.try_acquire");
        let mut st = self.st();
        // clock-ok: see `last_refill` in the constructor.
        let now = Instant::now();
        let refill = now.duration_since(st.last_refill).as_secs_f64() * self.limit.samples_per_sec;
        st.tokens = (st.tokens + refill).min(self.limit.burst);
        st.last_refill = now;
        if st.tokens >= cost {
            st.tokens -= cost;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_served_then_exhausted() {
        // No refill: only the initial burst is available.
        let bucket = TokenBucket::new(RateLimit {
            burst: 10.0,
            samples_per_sec: 0.0,
        });
        assert!(bucket.try_acquire(6.0));
        assert!(bucket.try_acquire(4.0));
        assert!(!bucket.try_acquire(1.0));
    }

    #[test]
    fn oversized_batches_are_clamped_to_burst() {
        let bucket = TokenBucket::new(RateLimit {
            burst: 8.0,
            samples_per_sec: 0.0,
        });
        // A 100-sample batch drains the full bucket but is admitted.
        assert!(bucket.try_acquire(100.0));
        assert!(!bucket.try_acquire(1.0));
    }

    #[test]
    fn refill_restores_tokens_over_time() {
        let bucket = TokenBucket::new(RateLimit {
            burst: 4.0,
            samples_per_sec: 1_000.0,
        });
        assert!(bucket.try_acquire(4.0));
        assert!(!bucket.try_acquire(4.0));
        // 1000/s refills 4 tokens in ~4 ms; 50 ms is plenty even on a
        // loaded CI box.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(bucket.try_acquire(4.0));
    }

    #[test]
    fn per_sec_constructor_gives_one_second_burst() {
        let limit = RateLimit::per_sec(250.0);
        assert_eq!(limit.burst, 250.0);
        assert_eq!(limit.samples_per_sec, 250.0);
    }
}
