use crate::mac::AccessProfile;
use crate::{BandwidthMeter, HtbShaper, MacModel, Mcs};
use cad3_sim::SimRng;
use cad3_types::{count_f64, len_u64, SimDuration, SimTime};

/// Aggregate statistics of a [`DsrcChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelStats {
    /// Packets carried.
    pub packets: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Sum of per-packet access delays, in seconds (for means).
    pub total_access_delay_s: f64,
}

impl ChannelStats {
    /// Mean per-packet access delay.
    pub fn mean_access_delay(&self) -> SimDuration {
        if self.packets == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(self.total_access_delay_s / count_f64(self.packets))
        }
    }
}

/// The shared vehicle→RSU access channel: an 802.11p CSMA/CA medium with
/// the testbed's HTB shaping layered on top.
///
/// This is the component the paper emulates with netem + its Eq. 5–6
/// analysis. [`DsrcChannel::send`] returns when a packet handed to the
/// radio at `now` arrives at the RSU.
#[derive(Debug)]
pub struct DsrcChannel {
    mac: MacModel,
    mcs: Mcs,
    shaper: HtbShaper,
    contenders: u32,
    update_period: SimDuration,
    /// The medium-access constants of the last `(bytes, contenders)` sent;
    /// `send` rebuilds them when either differs.
    access: ((usize, u32), AccessProfile),
    meter: BandwidthMeter,
    stats: ChannelStats,
}

impl DsrcChannel {
    /// Creates a channel with the paper's defaults: MCS 3, 27 Mb/s HTB
    /// ceiling, 10 Hz update period.
    pub fn paper_default(contenders: u32) -> Self {
        DsrcChannel::new(
            MacModel::default(),
            Mcs::MCS3,
            HtbShaper::paper_default(),
            contenders,
            SimDuration::from_millis(100),
        )
    }

    /// Creates a fully customised channel.
    pub fn new(
        mac: MacModel,
        mcs: Mcs,
        shaper: HtbShaper,
        contenders: u32,
        update_period: SimDuration,
    ) -> Self {
        let access = mac.access_profile(mcs, 0, contenders, update_period);
        DsrcChannel {
            mac,
            mcs,
            shaper,
            contenders,
            update_period,
            access: ((0, contenders), access),
            meter: BandwidthMeter::new(SimDuration::from_secs(1)),
            stats: ChannelStats::default(),
        }
    }

    /// Updates the number of stations contending for the medium (vehicles
    /// come and go with handovers).
    pub fn set_contenders(&mut self, contenders: u32) {
        self.contenders = contenders;
    }

    /// Current contender count.
    pub fn contenders(&self) -> u32 {
        self.contenders
    }

    /// Sends `bytes` at `now` from the station `_sender`; returns the
    /// arrival time at the RSU (HTB shaping, then CSMA/CA medium access).
    ///
    /// The medium model is symmetric, so which station sends does not
    /// change the arrival.
    pub fn send(&mut self, rng: &mut SimRng, _sender: u64, now: SimTime, bytes: usize) -> SimTime {
        let shaped = self.shaper.depart(now, bytes);
        let key = (bytes, self.contenders);
        if self.access.0 != key {
            let profile =
                self.mac.access_profile(self.mcs, bytes, self.contenders, self.update_period);
            self.access = (key, profile);
        }
        let access = self.access.1.draw(rng);
        let arrival = shaped + access;
        self.meter.record(arrival, len_u64(bytes));
        self.stats.packets += 1;
        self.stats.bytes += len_u64(bytes);
        self.stats.total_access_delay_s += access.as_secs_f64();
        arrival
    }

    /// Windowed received bandwidth at `now`, bits per second.
    pub fn rate_bps(&mut self, now: SimTime) -> f64 {
        self.meter.rate_bps(now)
    }

    /// Long-run average received bandwidth.
    pub fn average_rate_bps(&self) -> f64 {
        self.meter.average_rate_bps(self.update_period)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_is_after_send() {
        let mut ch = DsrcChannel::paper_default(8);
        let mut rng = SimRng::seed_from(1);
        let t0 = SimTime::from_millis(5);
        let arrival = ch.send(&mut rng, 1, t0, 200);
        assert!(arrival > t0);
        // A 200 B frame at MCS3 with light contention arrives within ~5 ms.
        assert!((arrival - t0).as_millis_f64() < 5.0, "{arrival}");
    }

    #[test]
    fn contention_increases_mean_delay() {
        let mut rng = SimRng::seed_from(2);
        let mean_delay = |contenders: u32, rng: &mut SimRng| {
            let mut ch = DsrcChannel::paper_default(contenders);
            for step in 0..200u64 {
                let now = SimTime::from_millis(step * 100);
                for v in 0..contenders.min(16) as u64 {
                    ch.send(rng, v, now, 200);
                }
            }
            ch.stats().mean_access_delay().as_micros_f64()
        };
        let low = mean_delay(8, &mut rng);
        let high = mean_delay(256, &mut rng);
        assert!(high > low, "expected contention to raise delay: {low} vs {high}");
    }

    #[test]
    fn stats_account_every_packet() {
        let mut ch = DsrcChannel::paper_default(8);
        let mut rng = SimRng::seed_from(3);
        for i in 0..50u64 {
            ch.send(&mut rng, i % 8, SimTime::from_millis(i * 10), 200);
        }
        assert_eq!(ch.stats().packets, 50);
        assert_eq!(ch.stats().bytes, 10_000);
        assert!(ch.stats().mean_access_delay() > SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_meter_tracks_offered_load() {
        // 256 vehicles × 10 Hz × 200 B ≈ 4.1 Mb/s.
        let mut ch = DsrcChannel::paper_default(256);
        let mut rng = SimRng::seed_from(4);
        for step in 0..100u64 {
            let now = SimTime::from_millis(step * 100);
            for v in 0..256u64 {
                ch.send(&mut rng, v, now, 200);
            }
        }
        let avg = ch.average_rate_bps();
        assert!(avg > 3e6 && avg < 6e6, "avg {avg}");
        // Well under the 27 Mb/s DSRC capacity, as the paper reports.
        assert!(avg < crate::DSRC_BANDWIDTH_BPS / 5.0);
    }

    /// Folds `word` into an FNV-1a digest, byte by byte.
    fn fnv1a(digest: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Drives a seeded channel at MCS3 and MCS8 through bursts that the
    /// ceiling shapes, from 5 000 distinct senders, with contender counts
    /// 8 → 1 → 2 → 256 → 4 096 set between bursts (one contender means no
    /// contention wait, and so one draw fewer a packet). Payloads alternate
    /// between two sizes in runs of 1 000 packets, and no run ends at a
    /// contender change. Digests every arrival and the final statistics.
    fn arrival_digest() -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for (mcs, seed) in [(Mcs::MCS3, 11), (Mcs::MCS8, 12)] {
            let mut ch = DsrcChannel::new(
                MacModel::default(),
                mcs,
                HtbShaper::paper_default(),
                8,
                SimDuration::from_millis(100),
            );
            let mut rng = SimRng::seed_from(seed);
            let mut sender = 0u64;
            let mut now = SimTime::ZERO;
            for contenders in [8, 1, 2, 256, 4096] {
                ch.set_contenders(contenders);
                for _ in 0..10 {
                    for _ in 0..512 {
                        let bytes = if (sender / 1_000).is_multiple_of(2) { 200 } else { 244 };
                        fnv1a(
                            &mut digest,
                            ch.send(&mut rng, sender % 5_000, now, bytes).as_nanos(),
                        );
                        sender += 1;
                    }
                    now += SimDuration::from_millis(50);
                }
            }
            let stats = ch.stats();
            fnv1a(&mut digest, stats.packets);
            fnv1a(&mut digest, stats.bytes);
            fnv1a(&mut digest, stats.total_access_delay_s.to_bits());
            fnv1a(&mut digest, ch.average_rate_bps().to_bits());
        }
        digest
    }

    #[test]
    fn arrivals_match_the_golden_digest() {
        // Captured from the channel before the access profile was cached
        // and the shaper's per-sender buckets were removed.
        assert_eq!(arrival_digest(), 0x29a3_cc70_eefa_31b4);
    }

    #[test]
    fn set_contenders_takes_effect() {
        let mut ch = DsrcChannel::paper_default(8);
        ch.set_contenders(128);
        assert_eq!(ch.contenders(), 128);
    }
}
