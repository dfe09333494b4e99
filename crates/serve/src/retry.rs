//! Client-side retry policy: exponential backoff with seeded,
//! deterministic jitter and a bounded retry budget (DESIGN.md §12).
//!
//! The policy is pure data plus a pure schedule function — given the
//! same seed it always produces the same sequence of backoff delays,
//! which is what lets the chaos suite assert hard wall-clock bounds
//! ("no call outlives its deadline") and the property suite pin
//! schedule determinism. Jitter is *equal jitter*: each delay is drawn
//! uniformly from `[ceiling/2, ceiling)` where the ceiling doubles per
//! attempt up to a cap, so retries decorrelate across clients (no
//! thundering herd after a shared fault) while every delay keeps a
//! known floor and ceiling.
//!
//! What a retry is allowed to repeat is decided elsewhere: the client
//! classifies errors ([`crate::ServeError::is_retryable`]) and only
//! resends requests that are safe to repeat — reads trivially, and
//! mutations because they carry client-assigned request ids the daemon
//! deduplicates (DESIGN.md §12.3).

use std::time::Duration;

/// Exponential-backoff retry schedule with deterministic seeded jitter
/// and a bounded budget.
///
/// `budget` is the number of *retries* after the first attempt, so a
/// policy with `budget == 3` makes at most 4 exchanges. The backoff
/// ceiling for retry `i` (0-based) is `min(cap, base << i)`; the actual
/// delay is drawn uniformly from `[ceiling/2, ceiling)` by a splitmix64
/// stream over `seed`, so two policies with equal fields produce
/// bit-equal schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff ceiling of the first retry.
    pub base: Duration,
    /// Upper bound any single backoff delay can reach.
    pub cap: Duration,
    /// Retries allowed after the first attempt (0 = never retry).
    pub budget: u32,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A conservative default: 4 retries backing off 10 ms → 160 ms
    /// (ceilings), capped at 500 ms, jittered from `seed`.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            budget: 4,
            seed,
        }
    }

    /// Set the first-retry backoff ceiling.
    pub fn base(mut self, base: Duration) -> RetryPolicy {
        self.base = base;
        self
    }

    /// Set the per-delay backoff cap.
    pub fn cap(mut self, cap: Duration) -> RetryPolicy {
        self.cap = cap;
        self
    }

    /// Set the retry budget (retries after the first attempt).
    pub fn budget(mut self, budget: u32) -> RetryPolicy {
        self.budget = budget;
        self
    }

    /// The full backoff schedule: `budget` delays, deterministic for a
    /// fixed policy. `delays()[i]` is slept after failed attempt `i`.
    pub fn delays(&self) -> Vec<Duration> {
        (0..self.budget).map(|i| self.delay(i)).collect()
    }

    /// The backoff delay after failed attempt `attempt` (0-based).
    /// Deterministic: equal `(policy, attempt)` always yields the same
    /// delay, drawn from `[ceiling/2, ceiling)` with
    /// `ceiling = min(cap, base << attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_ns = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        // `checked_shl` refuses only shifts of 64 or more and drops the
        // bits shifted out; a shift past `leading_zeros` is past any cap.
        let ceiling = match base_ns.checked_shl(attempt) {
            Some(c) if attempt <= base_ns.leading_zeros() => c.min(cap_ns),
            _ => cap_ns,
        };
        if ceiling == 0 {
            return Duration::ZERO;
        }
        let half = ceiling / 2;
        // Uniform draw from [half, ceiling) off the jitter stream; the
        // modulo bias over a ~u64 stream is far below timer resolution.
        let span = (ceiling - half).max(1);
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)) % span;
        Duration::from_nanos(half + jitter)
    }

    /// An upper bound on the wall-clock a retried call can take, given
    /// a per-attempt bound (connect + write + read deadlines): every
    /// attempt's I/O bound plus every backoff delay. The chaos suite
    /// asserts observed call latency under this bound.
    pub fn max_elapsed(&self, per_attempt: Duration) -> Duration {
        let attempts = self.budget.saturating_add(1);
        let io: Duration = per_attempt.saturating_mul(attempts);
        self.delays().iter().fold(io, |acc, d| acc.saturating_add(*d))
    }
}

/// One step of the splitmix64 stream — the same tiny generator the
/// proptest corpus and the chaos proxy schedules use, hand-rolled here
/// because the `rand` shim is a dev-dependency only.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = RetryPolicy::new(42);
        let b = RetryPolicy::new(42);
        assert_eq!(a.delays(), b.delays());
        let c = RetryPolicy::new(43);
        assert_ne!(a.delays(), c.delays(), "different seeds must decorrelate");
    }

    #[test]
    fn delays_respect_floor_ceiling_and_cap() {
        let (base, cap) = (Duration::from_millis(10), Duration::from_millis(80));
        let p = RetryPolicy::new(7).base(base).cap(cap);
        // From attempt 41, 10 ms `<< attempt` in nanoseconds leaves u64
        // (its kept bits are all 0 from attempt 57): those attempts back
        // off at the cap too.
        for i in 0..64 {
            let d = p.delay(i);
            let ceiling =
                2u32.checked_pow(i).and_then(|m| base.checked_mul(m)).map_or(cap, |c| c.min(cap));
            assert!(d < ceiling, "delay {i} = {d:?} above its ceiling {ceiling:?}");
            assert!(d >= ceiling / 2, "delay {i} = {d:?} below its floor");
        }
    }

    #[test]
    fn budget_bounds_the_schedule() {
        assert_eq!(RetryPolicy::new(1).budget(0).delays().len(), 0);
        assert_eq!(RetryPolicy::new(1).budget(6).delays().len(), 6);
    }

    #[test]
    fn max_elapsed_covers_every_attempt_and_delay() {
        let p = RetryPolicy::new(9).budget(3);
        let per = Duration::from_millis(100);
        let bound = p.max_elapsed(per);
        let floor: Duration = p.delays().iter().sum::<Duration>() + per * 4;
        assert_eq!(bound, floor);
    }
}
