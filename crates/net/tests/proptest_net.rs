//! Property-based tests of the network substrate's conservation laws.

use cad3_net::{HtbShaper, MacModel, Mcs, TokenBucket, WiredLink};
use cad3_types::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// A token bucket never exceeds its configured long-run rate, whatever
    /// the arrival pattern.
    #[test]
    fn token_bucket_never_exceeds_rate(
        rate_kbps in 8.0f64..10_000.0,
        packets in prop::collection::vec((0u64..10_000, 64usize..1500), 10..200),
    ) {
        let rate = rate_kbps * 1_000.0;
        let mut bucket = TokenBucket::new(rate, rate * 0.1);
        let mut arrivals: Vec<(u64, usize)> = packets;
        arrivals.sort_unstable();
        let mut last_depart = SimTime::ZERO;
        let mut total_bits = 0.0;
        for (t_ms, bytes) in &arrivals {
            let now = SimTime::from_millis(*t_ms).max(last_depart);
            let depart = bucket.depart(now, *bytes);
            prop_assert!(depart >= now, "departure precedes arrival");
            last_depart = depart;
            total_bits += (*bytes * 8) as f64;
        }
        // Long-run conservation: total bits over elapsed time ≤ rate,
        // allowing the initial burst.
        let elapsed = last_depart.as_secs_f64().max(1e-9);
        let burst_allowance = rate * 0.1;
        prop_assert!(
            total_bits <= rate * elapsed + burst_allowance + 1.0,
            "rate exceeded: {} bits in {} s at {} b/s",
            total_bits,
            elapsed,
            rate
        );
    }

    /// HTB departures are causal and the aggregate respects the ceiling.
    #[test]
    fn htb_is_causal_and_capped(
        senders in 1u64..10,
        per_sender in 5usize..40,
    ) {
        let ceiling = 1_000_000.0;
        let mut htb = HtbShaper::new(ceiling);
        let mut last = SimTime::ZERO;
        let bytes = 1_250; // 10 kb
        for round in 0..per_sender {
            for _sender in 0..senders {
                let now = SimTime::from_millis(round as u64);
                let depart = htb.depart(now, bytes);
                prop_assert!(depart >= now);
                last = last.max(depart);
            }
        }
        let total_bits = (senders as usize * per_sender * bytes * 8) as f64;
        let elapsed = last.as_secs_f64().max(1e-9);
        prop_assert!(
            total_bits <= ceiling * elapsed + ceiling * 0.02 + 12_000.0 + 1.0,
            "ceiling exceeded"
        );
    }

    /// MAC access time is monotone in vehicles and payload, and decreasing
    /// in MCS rate.
    #[test]
    fn mac_monotonicity(n in 1u32..512, payload in 50usize..1000) {
        let mac = MacModel::default();
        for pair in Mcs::ALL.windows(2) {
            let slow = mac.medium_access_time(n, pair[0], payload);
            let fast = mac.medium_access_time(n, pair[1], payload);
            prop_assert!(fast <= slow, "higher MCS must not be slower");
        }
        let t1 = mac.medium_access_time(n, Mcs::MCS3, payload);
        let t2 = mac.medium_access_time(n + 1, Mcs::MCS3, payload);
        prop_assert!(t2 >= t1, "more vehicles must not be faster");
        let p2 = mac.medium_access_time(n, Mcs::MCS3, payload + 100);
        prop_assert!(p2 >= t1, "bigger payloads must not be faster");
    }

    /// Wired links deliver FIFO with non-negative queueing.
    #[test]
    fn wired_link_is_fifo(frames in prop::collection::vec((0u64..1_000, 64usize..9000), 1..100)) {
        let mut frames = frames;
        frames.sort_unstable();
        let mut link = WiredLink::new(10e6, SimDuration::from_micros(50));
        let mut last_arrival = SimTime::ZERO;
        for (t_us, bytes) in frames {
            let now = SimTime::from_nanos(t_us * 1_000);
            let arrival = link.transmit(now, bytes);
            prop_assert!(arrival >= now + SimDuration::from_micros(50));
            prop_assert!(arrival >= last_arrival, "FIFO violated");
            last_arrival = arrival;
        }
    }
}
