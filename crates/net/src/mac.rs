use crate::Mcs;
use cad3_sim::SimRng;
use cad3_types::{count_f64, index_usize, len_u64, SimDuration};

/// IEEE 802.11p MAC/PHY timing parameters.
///
/// Defaults are the values the paper uses for its Eq. 5–6 analysis:
/// `t_slot = 9 µs`, `SIFS = 16 µs`, `cw_max = 255`, collision probability
/// `p_c ≤ 0.03`, plus the 10 MHz OFDM PHY framing constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Slot time in microseconds (9 µs in the paper).
    pub slot_us: f64,
    /// Short inter-frame space in microseconds (16 µs in the paper).
    pub sifs_us: f64,
    /// Maximum contention window (255 in the paper).
    pub cw_max: u32,
    /// Minimum contention window (802.11p CW_min = 15).
    pub cw_min: u32,
    /// Collision probability, proportional to vehicle density
    /// (≤ 0.03 in the paper).
    pub collision_probability: f64,
    /// PHY preamble + SIGNAL duration in microseconds (32 + 8 for 10 MHz).
    pub preamble_us: f64,
    /// OFDM symbol duration in microseconds (8 µs for 10 MHz).
    pub symbol_us: f64,
    /// MAC header + FCS overhead added to each payload, in bytes.
    pub mac_overhead_bytes: u32,
    /// PHY SERVICE field bits prepended to the PSDU.
    pub service_bits: u32,
    /// PHY tail bits appended to the PSDU.
    pub tail_bits: u32,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            slot_us: 9.0,
            sifs_us: 16.0,
            cw_max: 255,
            cw_min: 15,
            collision_probability: 0.03,
            preamble_us: 40.0,
            symbol_us: 8.0,
            mac_overhead_bytes: 28,
            service_bits: 16,
            tail_bits: 6,
        }
    }
}

impl MacParams {
    /// DIFS duration: `SIFS + 2·t_slot` (the paper's Eq. 6).
    pub fn difs_us(&self) -> f64 {
        self.sifs_us + 2.0 * self.slot_us
    }

    /// Expected worst-case backoff `p_c · cw_max · t_slot` (the paper's
    /// Eq. 6).
    pub fn expected_backoff_us(&self) -> f64 {
        self.collision_probability * self.cw_max as f64 * self.slot_us
    }
}

/// Analytic + stochastic model of 802.11p medium access.
///
/// The analytic side reproduces the paper's Eq. 5–6 (time for `n` vehicles
/// to each get one packet through a shared channel); the stochastic side
/// draws per-packet access delays for the discrete-event simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MacModel {
    params: MacParams,
}

impl MacModel {
    /// Creates a model with the given parameters.
    pub fn new(params: MacParams) -> Self {
        MacModel { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &MacParams {
        &self.params
    }

    /// Airtime of one frame carrying `payload_bytes` at the given MCS,
    /// including preamble, PHY framing and MAC overhead.
    pub fn frame_airtime(&self, mcs: Mcs, payload_bytes: usize) -> SimDuration {
        let p = &self.params;
        let psdu_bytes = payload_bytes as u32 + p.mac_overhead_bytes;
        let bits = p.service_bits + 8 * psdu_bytes + p.tail_bits;
        let symbols = bits.div_ceil(mcs.bits_per_symbol());
        let us = p.preamble_us + symbols as f64 * p.symbol_us;
        SimDuration::from_nanos((us * 1_000.0).round() as u64)
    }

    /// The paper's Eq. 5: time for `num_vehicles` stations to each transmit
    /// one `payload_bytes` packet through the shared medium,
    /// `t_v = t_backoff + n · (DIFS + t_pkt)`.
    pub fn medium_access_time(
        &self,
        num_vehicles: u32,
        mcs: Mcs,
        payload_bytes: usize,
    ) -> SimDuration {
        let p = &self.params;
        let per_pkt_us = p.difs_us() + self.frame_airtime(mcs, payload_bytes).as_micros_f64();
        let total_us = p.expected_backoff_us() + num_vehicles as f64 * per_pkt_us;
        SimDuration::from_nanos((total_us * 1_000.0).round() as u64)
    }

    /// Whether `num_vehicles` stations can all send one packet per update
    /// period without sender-side queue build-up (the paper checks
    /// 256 vehicles at a 10 Hz / 100 ms update rate).
    pub fn supports_update_rate(
        &self,
        num_vehicles: u32,
        mcs: Mcs,
        payload_bytes: usize,
        update_period: SimDuration,
    ) -> bool {
        self.medium_access_time(num_vehicles, mcs, payload_bytes) <= update_period
    }

    /// Channel utilisation induced by `num_vehicles` stations each sending
    /// `payload_bytes` every `update_period`, in `[0, ∞)`.
    pub fn utilization(
        &self,
        num_vehicles: u32,
        mcs: Mcs,
        payload_bytes: usize,
        update_period: SimDuration,
    ) -> f64 {
        let busy = self.frame_airtime(mcs, payload_bytes).as_secs_f64() * num_vehicles as f64;
        busy / update_period.as_secs_f64()
    }

    /// Draws a per-packet medium-access delay (DIFS + random backoff +
    /// contention wait + airtime) for a channel shared by `contenders`
    /// stations updating every `update_period`.
    ///
    /// The contention wait grows with utilisation (an M/D/1-style
    /// `ρ/(1-ρ)` factor of the frame airtime), which is what produces the
    /// gentle latency growth from 8 to 256 vehicles in Fig. 6a.
    pub fn sample_access_delay(
        &self,
        rng: &mut SimRng,
        mcs: Mcs,
        payload_bytes: usize,
        contenders: u32,
        update_period: SimDuration,
    ) -> SimDuration {
        self.access_profile(mcs, payload_bytes, contenders, update_period).draw(rng)
    }

    /// The draw-independent half of [`MacModel::sample_access_delay`]: every
    /// constant of the delay for one (MCS, size, contenders, period).
    pub(crate) fn access_profile(
        &self,
        mcs: Mcs,
        payload_bytes: usize,
        contenders: u32,
        update_period: SimDuration,
    ) -> AccessProfile {
        let p = &self.params;
        let airtime_us = self.frame_airtime(mcs, payload_bytes).as_micros_f64();
        // Expected wait for the channel to clear other stations' frames.
        let rho = self
            .utilization(contenders.saturating_sub(1), mcs, payload_bytes, update_period)
            .min(0.95);
        AccessProfile {
            collision_probability: p.collision_probability,
            cw_max_slots: index_usize(u64::from(p.cw_max)) + 1,
            cw_min_slots: index_usize(u64::from(p.cw_min)) + 1,
            slot_us: p.slot_us,
            difs_us: p.difs_us(),
            airtime_us,
            queue_rate: (rho > 0.0).then(|| 1.0 / (airtime_us * rho / (1.0 - rho) + 1e-9)),
        }
    }
}

/// The constants of one per-packet access-delay draw, so a channel whose
/// frame size and contender count do not change computes them once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AccessProfile {
    collision_probability: f64,
    /// Backoff draw bound (`cw + 1` slots) after a collision, and without.
    cw_max_slots: usize,
    cw_min_slots: usize,
    slot_us: f64,
    difs_us: f64,
    airtime_us: f64,
    /// Rate of the exponential contention wait; `None` when no other
    /// station loads the channel (ρ = 0), which draws nothing.
    queue_rate: Option<f64>,
}

impl AccessProfile {
    /// Draws one access delay: collision, backoff slot, then contention
    /// wait, from `rng` in that order.
    pub(crate) fn draw(&self, rng: &mut SimRng) -> SimDuration {
        // Uniform backoff over the initial contention window, escalating
        // with collision probability toward cw_max.
        let slots = if rng.chance(self.collision_probability) {
            self.cw_max_slots
        } else {
            self.cw_min_slots
        };
        let backoff_us = count_f64(len_u64(rng.index(slots))) * self.slot_us;
        let queue_wait_us = match self.queue_rate {
            Some(rate) => rng.exponential(rate),
            None => 0.0,
        };
        let total_us = self.difs_us + backoff_us + queue_wait_us + self.airtime_us;
        SimDuration::from_nanos((total_us * 1_000.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_types::SimDuration;

    #[test]
    fn difs_and_backoff_match_paper_constants() {
        let p = MacParams::default();
        assert!((p.difs_us() - 34.0).abs() < 1e-12);
        // p_c · cw_max · t_slot = 0.03 · 255 · 9 = 68.85 µs
        assert!((p.expected_backoff_us() - 68.85).abs() < 1e-9);
    }

    #[test]
    fn airtime_mcs3_vs_mcs8() {
        let mac = MacModel::default();
        let a3 = mac.frame_airtime(Mcs::MCS3, 200);
        let a8 = mac.frame_airtime(Mcs::MCS8, 200);
        assert!(a3 > a8, "lower rate must take longer: {a3} vs {a8}");
        // 200 B payload + 28 B MAC = 1846 PHY bits -> 39 symbols at MCS3.
        assert!((a3.as_micros_f64() - (40.0 + 39.0 * 8.0)).abs() < 0.5, "{a3}");
        // -> 9 symbols at MCS8.
        assert!((a8.as_micros_f64() - (40.0 + 9.0 * 8.0)).abs() < 0.5, "{a8}");
    }

    #[test]
    fn eq5_total_time_has_paper_magnitude() {
        // The paper reports 92.62 ms (MCS 3) and 54.28 ms (MCS 8) for 256
        // vehicles × 200 B. Exact PHY overhead assumptions are not given, so
        // we assert the magnitude and ordering rather than the digits: both
        // in the tens of milliseconds, MCS8 < MCS3 < 256·update-period.
        let mac = MacModel::default();
        let t3 = mac.medium_access_time(256, Mcs::MCS3, 200);
        let t8 = mac.medium_access_time(256, Mcs::MCS8, 200);
        assert!(t3.as_millis_f64() > 60.0 && t3.as_millis_f64() < 120.0, "{t3}");
        assert!(t8.as_millis_f64() > 20.0 && t8.as_millis_f64() < 60.0, "{t8}");
        assert!(t8 < t3);
    }

    #[test]
    fn eq5_scales_linearly_in_vehicles() {
        let mac = MacModel::default();
        let t128 = mac.medium_access_time(128, Mcs::MCS3, 200);
        let t256 = mac.medium_access_time(256, Mcs::MCS3, 200);
        let backoff = SimDuration::from_nanos(68_850);
        let per128 = (t128 - backoff).as_micros_f64();
        let per256 = (t256 - backoff).as_micros_f64();
        assert!((per256 / per128 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_conclusion_256_vehicles_at_10hz_fit() {
        // "it is thus possible for 256 vehicles to send at 10 Hz" — with the
        // robust MCS3 the access time must stay under the 100 ms period.
        let mac = MacModel::default();
        assert!(mac.supports_update_rate(256, Mcs::MCS3, 200, SimDuration::from_millis(100)));
        assert!(mac.supports_update_rate(256, Mcs::MCS8, 200, SimDuration::from_millis(100)));
        // But 1024 vehicles would not fit at MCS3.
        assert!(!mac.supports_update_rate(1024, Mcs::MCS3, 200, SimDuration::from_millis(100)));
    }

    #[test]
    fn utilization_grows_with_vehicles() {
        let mac = MacModel::default();
        let u8v = mac.utilization(8, Mcs::MCS3, 200, SimDuration::from_millis(100));
        let u256 = mac.utilization(256, Mcs::MCS3, 200, SimDuration::from_millis(100));
        assert!(u8v < u256);
        assert!(u256 < 1.0, "256 vehicles must be feasible: {u256}");
    }

    #[test]
    fn sampled_delay_is_bounded_and_grows_with_contention() {
        let mac = MacModel::default();
        let mut rng = SimRng::seed_from(5);
        let period = SimDuration::from_millis(100);
        let mean = |n: u32, rng: &mut SimRng| {
            (0..2000)
                .map(|_| mac.sample_access_delay(rng, Mcs::MCS3, 200, n, period).as_micros_f64())
                .sum::<f64>()
                / 2000.0
        };
        let m8 = mean(8, &mut rng);
        let m256 = mean(256, &mut rng);
        assert!(m8 < m256, "contention must increase delay: {m8} vs {m256}");
        // Individual packet access should stay well below one update period.
        assert!(m256 < 10_000.0, "mean delay should be far below 10 ms, got {m256} µs");
    }

    /// `sample_access_delay` written as one inline formula: the reference
    /// the profile/draw split must match bit for bit.
    fn inline_access_delay(
        mac: &MacModel,
        rng: &mut SimRng,
        mcs: Mcs,
        payload_bytes: usize,
        contenders: u32,
        update_period: SimDuration,
    ) -> SimDuration {
        let p = mac.params();
        let airtime = mac.frame_airtime(mcs, payload_bytes);
        let cw = if rng.chance(p.collision_probability) { p.cw_max } else { p.cw_min };
        let backoff_slots = rng.index(cw as usize + 1) as f64;
        let backoff_us = backoff_slots * p.slot_us;
        let rho = mac
            .utilization(contenders.saturating_sub(1), mcs, payload_bytes, update_period)
            .min(0.95);
        let queue_wait_us = if rho > 0.0 {
            rng.exponential(1.0 / (airtime.as_micros_f64() * rho / (1.0 - rho) + 1e-9))
        } else {
            0.0
        };
        let total_us = p.difs_us() + backoff_us + queue_wait_us + airtime.as_micros_f64();
        SimDuration::from_nanos((total_us * 1_000.0).round() as u64)
    }

    #[test]
    fn profile_draw_matches_the_inline_formula_bit_for_bit() {
        let mac = MacModel::default();
        let periods = [SimDuration::from_millis(100), SimDuration::from_millis(50)];
        for mcs in Mcs::ALL {
            for contenders in [1, 2, 256, 4096] {
                for payload in [0, 200, 244] {
                    for period in periods {
                        let mut split = SimRng::seed_from(u64::from(contenders) ^ 0xD5C);
                        let mut inline = split.clone();
                        let profile = mac.access_profile(mcs, payload, contenders, period);
                        for i in 0..64 {
                            let a = profile.draw(&mut split);
                            let b = inline_access_delay(
                                &mac,
                                &mut inline,
                                mcs,
                                payload,
                                contenders,
                                period,
                            );
                            assert_eq!(a, b, "{mcs} × {contenders} × {payload} B, draw {i}");
                        }
                        // Both consumed the same number of draws.
                        assert_eq!(
                            split.uniform(0.0, 1.0).to_bits(),
                            inline.uniform(0.0, 1.0).to_bits(),
                            "{mcs} × {contenders} × {payload} B: rng streams diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_delay_at_least_difs_plus_airtime() {
        let mac = MacModel::default();
        let mut rng = SimRng::seed_from(6);
        let floor = mac.params().difs_us() + mac.frame_airtime(Mcs::MCS3, 200).as_micros_f64();
        for _ in 0..500 {
            let d =
                mac.sample_access_delay(&mut rng, Mcs::MCS3, 200, 1, SimDuration::from_millis(100));
            assert!(d.as_micros_f64() >= floor - 1e-6);
        }
    }
}
