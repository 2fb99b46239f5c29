//! Token-bucket send pacing.
//!
//! ZMap paces probes to a configured packets-per-second rate; the paper
//! runs at a "moderate" 150 kpps (§3.4). The bucket is driven by virtual
//! time and capped so long stalls don't produce catch-up bursts.

use iw_netsim::{Duration, Instant};

/// Fractional-credit denominator: one token = `rate_pps` pps·ns credits
/// accumulated over one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A token bucket measured in packets.
///
/// Accounting is exact integer arithmetic in pps·nanosecond units: a
/// whole token is `NANOS_PER_SEC` credit units and each elapsed
/// nanosecond deposits `rate_pps` units. Floating point drifted on long
/// scans (hours of virtual time at 150 kpps accumulate representation
/// error) and its sub-ulp residue let `next_available` truncate a real
/// wait down to zero — a zero-delay timer re-arm busy loop.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    /// Whole tokens available.
    tokens: u64,
    /// Fractional credit in pps·ns units, always `< NANOS_PER_SEC`.
    carry: u64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate_pps`, holding at most `burst` tokens.
    pub fn new(rate_pps: u64, burst: u64, now: Instant) -> TokenBucket {
        assert!(rate_pps > 0, "zero send rate");
        TokenBucket {
            rate_pps,
            burst: burst.max(1),
            tokens: 0,
            carry: 0,
            last: now,
        }
    }

    /// Refill for elapsed time and return how many packets may be sent.
    pub fn take(&mut self, now: Instant, want: u64) -> u64 {
        let elapsed = now.duration_since(self.last);
        self.last = now;
        let credit = self.carry as u128 + elapsed.as_nanos() as u128 * self.rate_pps as u128;
        let refill = credit / NANOS_PER_SEC as u128;
        let whole = (self.tokens as u128 + refill).min(u64::MAX as u128) as u64;
        if whole >= self.burst {
            // Capped: surplus credit (including the fraction) is forfeit,
            // exactly like the f64 `min(burst)` used to drop it.
            self.tokens = self.burst;
            self.carry = 0;
        } else {
            self.tokens = whole;
            self.carry = (credit % NANOS_PER_SEC as u128) as u64;
        }
        let grant = self.tokens.min(want);
        self.tokens -= grant;
        grant
    }

    /// Time until at least one token is available.
    ///
    /// Rounds *up*: whenever `take` would grant zero, this is strictly
    /// positive, and waiting exactly this long always yields a token.
    pub fn next_available(&self) -> Duration {
        if self.tokens >= 1 {
            Duration::ZERO
        } else {
            let missing = NANOS_PER_SEC - self.carry; // credit units short of one token
            Duration::from_nanos(missing.div_ceil(self.rate_pps))
        }
    }

    /// Configured rate.
    pub fn rate_pps(&self) -> u64 {
        self.rate_pps
    }
}

/// Shard `index`'s slice of a global packets-per-second budget split
/// across `count` shards.
///
/// The global rate divides as evenly as integers allow: every shard gets
/// `rate_pps / count`, and the first `rate_pps % count` shards carry one
/// extra token, so `sum(shard_rate(R, i, N) for i in 0..N) == R` exactly
/// whenever `R >= N`. When the global rate is smaller than the shard
/// count the tail shards would round to zero — a rate the bucket
/// rejects — so the slice is clamped to 1 pps and the aggregate may
/// exceed `R` by up to `N - R` packets per second. That corner only
/// arises in pathological configs (more shards than packets per
/// second); real campaigns run at kpps and above.
pub fn shard_rate(rate_pps: u64, index: u32, count: u32) -> u64 {
    let count = u64::from(count.max(1));
    let index = u64::from(index);
    let share = rate_pps / count + u64::from(index < rate_pps % count);
    share.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected_over_time() {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(1000, 100, t0);
        let mut sent = 0u64;
        // Poll every 10 ms for one virtual second.
        for tick in 1..=100u64 {
            let now = t0 + Duration::from_millis(10 * tick);
            sent += bucket.take(now, u64::MAX);
        }
        assert!((950..=1050).contains(&sent), "sent {sent} in 1s at 1kpps");
    }

    #[test]
    fn burst_is_capped() {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(1000, 50, t0);
        // A long stall must not grant more than the burst.
        let granted = bucket.take(t0 + Duration::from_secs(60), u64::MAX);
        assert_eq!(granted, 50);
    }

    #[test]
    fn want_limits_grant() {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(1_000_000, 1000, t0);
        let granted = bucket.take(t0 + Duration::from_millis(10), 3);
        assert_eq!(granted, 3);
    }

    #[test]
    fn next_available_estimates() {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(100, 10, t0);
        assert!(bucket.next_available() > Duration::ZERO);
        bucket.take(t0 + Duration::from_secs(1), 0); // refill only
        assert_eq!(bucket.next_available(), Duration::ZERO);
    }

    /// Drive a bucket for `ticks` polls of `step`, recording grants and
    /// throttle waits into a registry exactly like `Scanner::pace` does,
    /// and return the frozen snapshot.
    fn paced_snapshot(
        rate_pps: u64,
        burst: u64,
        step: Duration,
        ticks: u64,
        want: u64,
    ) -> iw_telemetry::Snapshot {
        use iw_telemetry::{MetricsRegistry, Scope};
        let mut r = MetricsRegistry::new();
        let granted = r.counter("scan.targets_sent", Scope::Scan);
        let tick_ctr = r.counter("shard.pace.ticks", Scope::Shard);
        let wait = r.histogram("shard.pace.token_wait_nanos", Scope::Shard);
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(rate_pps, burst, t0);
        for tick in 1..=ticks {
            let now = t0 + step.saturating_mul(tick);
            r.inc(tick_ctr);
            let grant = bucket.take(now, want);
            r.add(granted, grant);
            if grant < want {
                r.observe(wait, bucket.next_available().as_nanos());
            }
        }
        r.snapshot()
    }

    #[test]
    fn burst_cap_shows_in_metrics_after_stall() {
        // 1 kpps, burst 50, polled once after a 60 s stall: the metrics
        // must show exactly one burst-capped grant, not 60 000 packets of
        // catch-up.
        let snap = paced_snapshot(1000, 50, Duration::from_secs(60), 1, u64::MAX);
        assert_eq!(snap.counter("scan.targets_sent"), 50);
        assert_eq!(snap.counter("shard.pace.ticks"), 1);
    }

    #[test]
    fn no_catch_up_after_long_stall() {
        // Steady 5 ms ticks at 10 kpps with a generous burst: every tick
        // wants more than the refill provides, so every tick records a
        // positive throttle wait — and the long stall baked into the first
        // tick (bucket created at t=0, first poll at t=30 s) still only
        // yields the burst.
        let mut sent_after_stall = 0u64;
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(10_000, 100, t0);
        let stall_grant = bucket.take(t0 + Duration::from_secs(30), u64::MAX);
        assert_eq!(stall_grant, 100, "stall grants the burst, nothing more");
        for tick in 1..=200u64 {
            let now = t0 + Duration::from_secs(30) + Duration::from_millis(5 * tick);
            sent_after_stall += bucket.take(now, u64::MAX);
        }
        // 1 s at 10 kpps after the stall: the rate is honoured from the
        // first post-stall tick, with no residual credit.
        assert!(
            (9_500..=10_500).contains(&sent_after_stall),
            "{sent_after_stall}"
        );
    }

    #[test]
    fn fractional_tokens_accumulate_at_low_rates() {
        // 2 pps polled every 100 ms: each tick refills 0.2 tokens. Grants
        // only happen when the fraction crosses 1.0 — over 10 s exactly
        // ~20 packets leave, and the throttled ticks record their waits.
        let snap = paced_snapshot(2, 8, Duration::from_millis(100), 100, 1);
        let sent = snap.counter("scan.targets_sent");
        assert!((19..=20).contains(&sent), "sent {sent} in 10 s at 2 pps");
        assert_eq!(snap.counter("shard.pace.ticks"), 100);
        let waits = snap.histogram("shard.pace.token_wait_nanos").unwrap();
        // 100 ticks, ~20 grants → ~80 throttled ticks with a recorded wait.
        assert!((78..=81).contains(&waits.count), "{}", waits.count);
        // Each wait is under one token period (500 ms) and positive.
        assert!(waits.max <= 500_000_000, "{}", waits.max);
        assert!(waits.min >= 1, "fractional credit means a partial wait");
    }

    #[test]
    fn zero_grant_always_reports_positive_wait_at_high_rate() {
        // Regression: with f64 accounting a bucket at ~0.9999 tokens could
        // report `next_available() == 0` while `take` still granted 0 —
        // the pacing loop then re-armed a zero-delay timer and spun. At
        // high rates the rounded-down wait fell below 1 ns most easily, so
        // probe a dense spread of awkward fractional states there.
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(3_333_333, 10_000, t0);
        let mut now = t0;
        let mut zero_grants = 0u64;
        for tick in 1..=50_000u64 {
            now += Duration::from_nanos(97 + tick % 211);
            if bucket.take(now, u64::MAX) == 0 {
                zero_grants += 1;
                let wait = bucket.next_available();
                assert!(wait > Duration::ZERO, "zero-delay re-arm at tick {tick}");
                // Round-up must be *sufficient*: waiting exactly `wait`
                // always produces a token.
                let mut probe = bucket.clone();
                assert!(
                    probe.take(now + wait, 1) == 1,
                    "wait {wait:?} at tick {tick} did not yield a token"
                );
            }
        }
        assert!(zero_grants > 1000, "test must exercise empty-bucket polls");
    }

    #[test]
    fn exact_grant_count_over_one_hour_at_paper_rate() {
        // One hour of virtual time at the paper's 150 kpps must grant
        // *exactly* rate × seconds packets — integer accounting does not
        // drift no matter how awkward the polling cadence. The f64 version
        // accumulated representation error across hundreds of thousands
        // of refills.
        const HOUR_NS: u64 = 3_600 * 1_000_000_000;
        const RATE: u64 = 150_000;
        let step = Duration::from_nanos(999_937); // ~1 ms, never divides evenly
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(RATE, 1_500, t0);
        let mut sent = 0u64;
        let mut elapsed = 0u64;
        while elapsed < HOUR_NS {
            let d = step.as_nanos().min(HOUR_NS - elapsed);
            elapsed += d;
            sent += bucket.take(t0 + Duration::from_nanos(elapsed), u64::MAX);
        }
        assert_eq!(sent, RATE * 3_600, "exactly one hour of tokens");
    }

    #[test]
    fn shard_rates_sum_exactly_to_the_global_rate() {
        // The division invariant the threaded topology relies on: N
        // per-shard buckets together pace at exactly the configured
        // global rate whenever R >= N, including non-power-of-two shard
        // counts and rates that don't divide evenly.
        for &(rate, count) in &[
            (150_000u64, 1u32),
            (150_000, 3),
            (150_000, 4),
            (150_000, 7),
            (150_001, 8),
            (4_000_000, 16),
            (5, 5),
            (17, 3),
        ] {
            let sum: u64 = (0..count).map(|i| shard_rate(rate, i, count)).sum();
            assert_eq!(sum, rate, "rate {rate} over {count} shards");
            // No shard deviates from the even share by more than one
            // token per second.
            for i in 0..count {
                let share = shard_rate(rate, i, count);
                let even = rate / u64::from(count);
                assert!(
                    share == even || share == even + 1,
                    "shard {i}/{count} got {share} of {rate}"
                );
            }
        }
    }

    #[test]
    fn shard_rate_clamps_to_one_when_outnumbered() {
        // More shards than packets per second: every shard still gets a
        // valid (>= 1 pps) bucket; the documented over-admission corner.
        for i in 0..8u32 {
            assert!(shard_rate(3, i, 8) >= 1);
        }
        assert_eq!((0..8).map(|i| shard_rate(3, i, 8)).sum::<u64>(), 8);
    }

    #[test]
    fn sharded_buckets_pace_the_global_rate_over_a_long_window() {
        // Satellite gate: drive N independent per-shard buckets over an
        // hour of virtual time and demand the aggregate grant count equal
        // the single global bucket's to within one token per shard (the
        // only slack integer division leaves, and the steady cadence here
        // collects even that).
        const RATE: u64 = 150_000;
        const HOUR_SECS: u64 = 3_600;
        for &count in &[1u32, 3, 4, 8] {
            let t0 = Instant::ZERO;
            let mut buckets: Vec<TokenBucket> = (0..count)
                .map(|i| {
                    let r = shard_rate(RATE, i, count);
                    TokenBucket::new(r, (r / 100).max(16), t0)
                })
                .collect();
            let mut sent = 0u64;
            for tick in 1..=HOUR_SECS * 200 {
                let now = t0 + Duration::from_millis(5 * tick);
                for bucket in &mut buckets {
                    sent += bucket.take(now, u64::MAX);
                }
            }
            let expect = RATE * HOUR_SECS;
            assert!(
                sent.abs_diff(expect) <= u64::from(count),
                "{count} shards granted {sent}, want {expect} ± {count}"
            );
        }
    }

    #[test]
    fn stalled_shard_cannot_starve_the_others() {
        // Buckets are fully independent: one shard never polling (a
        // stalled sender) changes nothing about what its peers may send.
        const RATE: u64 = 100_000;
        const COUNT: u32 = 4;
        let t0 = Instant::ZERO;
        let drive = |stall: Option<u32>| -> Vec<u64> {
            let mut buckets: Vec<TokenBucket> = (0..COUNT)
                .map(|i| {
                    let r = shard_rate(RATE, i, COUNT);
                    TokenBucket::new(r, (r / 100).max(16), t0)
                })
                .collect();
            let mut sent = vec![0u64; COUNT as usize];
            for tick in 1..=2_000u64 {
                let now = t0 + Duration::from_millis(5 * tick);
                for (i, bucket) in buckets.iter_mut().enumerate() {
                    if Some(i as u32) == stall {
                        continue; // this shard never takes
                    }
                    sent[i] += bucket.take(now, u64::MAX);
                }
            }
            sent
        };
        let healthy = drive(None);
        let degraded = drive(Some(2));
        assert_eq!(degraded[2], 0, "the stalled shard sent nothing");
        for i in [0usize, 1, 3] {
            assert_eq!(
                healthy[i], degraded[i],
                "shard {i} throughput changed because shard 2 stalled"
            );
        }
        // And the stalled shard's unused budget is not silently
        // redistributed: the aggregate drops by exactly its share.
        let healthy_total: u64 = healthy.iter().sum();
        let degraded_total: u64 = degraded.iter().sum();
        assert_eq!(healthy_total - degraded_total, healthy[2]);
    }

    #[test]
    fn never_exceeds_rate_even_with_dense_polling() {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(150_000, 1500, t0);
        let mut sent = 0u64;
        for tick in 1..=10_000u64 {
            let now = t0 + Duration::from_micros(100 * tick);
            sent += bucket.take(now, u64::MAX);
        }
        // One virtual second at 150 kpps.
        assert!((149_000..=151_500).contains(&sent), "{sent}");
    }
}
