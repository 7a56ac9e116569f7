//! Token-bucket traffic shaping for the emulated DSRC uplink.
//!
//! The paper's testbed marks each producer's packets with iptables and uses
//! netem's hierarchy token bucket: a 27 Mb/s DSRC ceiling shared by every
//! vehicle, with at least 100 Kb/s assured to each. [`HtbShaper`] enforces
//! the shared ceiling, with FIFO sharing at the root. The assured floor
//! never binds at the paper's load: a vehicle sends ≈ 19.5 kb/s on air
//! (Fig. 6c), a fifth of its floor, and 256 of them offer ≈ 5 Mb/s, under
//! a fifth of the ceiling, so every packet departs on arrival. Honouring
//! the floor for a slow sender among saturating ones would be a modelling
//! change that no experiment exercises.

use cad3_types::{count_f64, len_u64, SimDuration, SimTime};

/// A single token bucket / rate limiter.
///
/// Tokens accrue at `rate_bps` up to `burst_bits`; a send consumes
/// `8 × bytes` tokens and, if the bucket runs dry, the departure time is
/// pushed back until the deficit is refilled. Long-run throughput therefore
/// never exceeds the configured rate.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_bps: f64,
    burst_bits: f64,
    tokens: f64,
    last_update: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` or `burst_bits` is not strictly positive.
    pub fn new(rate_bps: f64, burst_bits: f64) -> Self {
        assert!(rate_bps > 0.0, "token bucket rate must be positive");
        assert!(burst_bits > 0.0, "token bucket burst must be positive");
        TokenBucket { rate_bps, burst_bits, tokens: burst_bits, last_update: SimTime::ZERO }
    }

    /// The configured rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_update {
            let dt = (now - self.last_update).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_bps).min(self.burst_bits);
            self.last_update = now;
        }
    }

    /// Current token count at `now`, in bits.
    pub fn available_bits(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens.max(0.0)
    }

    /// Consumes tokens for a `bytes`-sized packet arriving at `now` and
    /// returns its earliest conforming departure time.
    ///
    /// The bucket is allowed to go into deficit; the departure is delayed
    /// until the deficit would be repaid, which yields exact long-run rate
    /// conservation.
    pub fn depart(&mut self, now: SimTime, bytes: usize) -> SimTime {
        self.refill(now);
        self.tokens -= count_f64(len_u64(bytes * 8));
        if self.tokens >= 0.0 {
            now
        } else {
            // Positive and finite: a deficit over a positive rate.
            let wait_s = -self.tokens / self.rate_bps;
            now + SimDuration::saturating_from_secs_f64(wait_s)
        }
    }
}

/// The root of the paper's netem hierarchy: one token bucket at the shared
/// DSRC ceiling that every sender's packets drain in arrival (FIFO) order.
///
/// The aggregate never exceeds the ceiling, an idle channel lets a single
/// sender burst up to it, and under saturation symmetric senders share it
/// equally. Which sender a packet comes from does not matter; the module
/// docs say why the per-vehicle floor is not modelled.
#[derive(Debug)]
pub struct HtbShaper {
    root: TokenBucket,
}

impl HtbShaper {
    /// Creates a shaper with the given shared ceiling. The burst defaults
    /// to 20 ms of the ceiling (min one 1500 B MTU).
    ///
    /// # Panics
    ///
    /// Panics if the ceiling is not strictly positive.
    pub fn new(ceiling_bps: f64) -> Self {
        let burst = (ceiling_bps * 0.02).max(1500.0 * 8.0);
        HtbShaper { root: TokenBucket::new(ceiling_bps, burst) }
    }

    /// The paper's configuration: a 27 Mb/s ceiling.
    pub fn paper_default() -> Self {
        HtbShaper::new(crate::DSRC_BANDWIDTH_BPS)
    }

    /// Shapes a `bytes`-sized packet arriving at `now`; returns its
    /// departure time.
    pub fn depart(&mut self, now: SimTime, bytes: usize) -> SimTime {
        self.root.depart(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: f64 = 1_000.0;
    const MB: f64 = 1_000_000.0;

    #[test]
    fn bucket_burst_then_rate_limits() {
        // 8 kb/s bucket with 8 kb burst: the first 1000 B packet passes
        // immediately, the second must wait a full second.
        let mut b = TokenBucket::new(8.0 * KB, 8.0 * KB);
        let t0 = SimTime::ZERO;
        assert_eq!(b.depart(t0, 1000), t0);
        let d2 = b.depart(t0, 1000);
        assert!((d2.as_secs_f64() - 1.0).abs() < 1e-9, "{d2}");
    }

    #[test]
    fn bucket_long_run_rate_is_exact() {
        let mut b = TokenBucket::new(1.0 * MB, 10_000.0);
        let mut now = SimTime::ZERO;
        let n = 1000;
        for _ in 0..n {
            now = b.depart(now, 1250); // 10 kb each
        }
        // 1000 × 10 kb = 10 Mb at 1 Mb/s ≈ 10 s (minus the initial burst).
        let elapsed = now.as_secs_f64();
        assert!((elapsed - 10.0).abs() < 0.1, "elapsed {elapsed}");
    }

    #[test]
    fn bucket_refills_up_to_burst_only() {
        let mut b = TokenBucket::new(1.0 * MB, 8000.0);
        assert_eq!(b.available_bits(SimTime::ZERO), 8000.0);
        let _ = b.depart(SimTime::ZERO, 1000); // drain
                                               // After a long idle period the bucket holds exactly one burst.
        assert_eq!(b.available_bits(SimTime::from_secs(100)), 8000.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        TokenBucket::new(0.0, 100.0);
    }

    #[test]
    fn htb_single_sender_bursts_up_to_ceiling() {
        // One vehicle alone under the 27 Mb/s ceiling: sending 1 MB should
        // take ≈ 8 Mb / 27 Mb/s ≈ 0.3 s, not the 80 s of a 100 Kb/s floor.
        let mut htb = HtbShaper::paper_default();
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            now = htb.depart(now, 1000);
        }
        let elapsed = now.as_secs_f64();
        assert!(elapsed < 0.5, "an idle channel should allow the ceiling rate, took {elapsed}s");
        assert!(elapsed > 0.2, "but not exceed the ceiling, took {elapsed}s");
    }

    #[test]
    fn htb_aggregate_never_exceeds_ceiling() {
        let mut htb = HtbShaper::new(1.0 * MB);
        let mut last = SimTime::ZERO;
        // Five senders each pushing 200 packets at once.
        for _ in 0..200 * 5 {
            last = last.max(htb.depart(SimTime::ZERO, 1250));
        }
        // 1000 packets × 10 kb = 10 Mb at a 1 Mb/s ceiling ⇒ ≥ ~9.8 s.
        assert!(last.as_secs_f64() > 9.5, "ceiling violated: {last}");
    }

    #[test]
    fn htb_paper_load_is_unshaped() {
        // 256 vehicles at 10 Hz × 200 B = ~4.1 Mb/s aggregate, well under
        // the 27 Mb/s ceiling; packets should depart without delay.
        let mut htb = HtbShaper::paper_default();
        let mut delayed = 0;
        for step in 0..50u64 {
            let now = SimTime::from_millis(step * 100);
            for _vehicle in 0..256 {
                if htb.depart(now, 200) > now {
                    delayed += 1;
                }
            }
        }
        assert_eq!(delayed, 0, "paper's nominal load must pass unshaped");
    }

    #[test]
    fn htb_symmetric_senders_share_the_ceiling_equally() {
        // Ceiling 1 Mb/s, 10 senders sending round-robin: FIFO sharing at
        // the root gives each a tenth of it.
        let mut htb = HtbShaper::new(1.0 * MB);
        let mut sender_last = [SimTime::ZERO; 10];
        for _ in 0..100 {
            for last in &mut sender_last {
                *last = htb.depart(SimTime::ZERO, 1250);
            }
        }
        // Each sender moved 100 × 10 kb = 1 Mb; at 100 Kb/s that is ~10 s.
        for (sender, last) in sender_last.iter().enumerate() {
            let s = last.as_secs_f64();
            assert!(s > 8.0 && s < 12.0, "sender {sender} finished at {s}s");
        }
    }
}
