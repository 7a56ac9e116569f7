use cad3_types::SimDuration;

/// Calibrated model of the RSU's per-batch detection compute time.
///
/// The paper reports average processing times between 7.3 ms (8 vehicles)
/// and 11.7 ms (256 vehicles) on its i7 testbed with 50 ms batches; at
/// 10 Hz those batch sizes are 4 and 128 records, so the affine model
/// `base + per_record · n` with `base = 7.15 ms` and
/// `per_record = 35.5 µs` reproduces both endpoints. The virtual-time
/// testbed uses this model instead of wall-clock measurement to stay
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessingCostModel {
    /// Fixed per-batch cost (job scheduling, model dispatch).
    pub base: SimDuration,
    /// Marginal cost per record.
    pub per_record: SimDuration,
}

impl Default for ProcessingCostModel {
    fn default() -> Self {
        ProcessingCostModel {
            base: SimDuration::from_micros(7_150),
            per_record: SimDuration::from_micros(35),
        }
    }
}

impl ProcessingCostModel {
    /// Processing time of a batch of `records` records.
    pub fn batch_time(&self, records: usize) -> SimDuration {
        self.base + self.per_record.mul(records as u64)
    }
}

/// Configuration of the CAD3 system: intervals, payloads and the compute
/// and fetch models, defaulting to the paper's values. (Eq. 1's fusion
/// weight is a detector parameter: `DetectionConfig::fusion_weight`.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Micro-batch interval (50 ms in the paper).
    pub batch_interval: SimDuration,
    /// Vehicle `OUT-DATA` poll interval (10 ms in the paper).
    pub poll_interval: SimDuration,
    /// Vehicle status update period (10 Hz ⇒ 100 ms).
    pub update_period: SimDuration,
    /// Status payload size in bytes (~200 B in the paper).
    pub payload_bytes: usize,
    /// Per-batch compute model.
    pub cost_model: ProcessingCostModel,
    /// Mean of the consumer-fetch latency added to each dissemination
    /// (the paper decomposes dissemination as `10 + 7.2 ± 4.4 ms`).
    pub fetch_latency_mean: SimDuration,
    /// Standard deviation of the consumer-fetch latency.
    pub fetch_latency_std: SimDuration,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            batch_interval: SimDuration::from_millis(50),
            poll_interval: SimDuration::from_millis(10),
            update_period: SimDuration::from_millis(100),
            payload_bytes: cad3_types::STATUS_WIRE_LEN,
            cost_model: ProcessingCostModel::default(),
            fetch_latency_mean: SimDuration::from_micros(7_200),
            fetch_latency_std: SimDuration::from_micros(4_400),
        }
    }
}

impl SystemConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if any interval is zero.
    pub fn validate(&self) {
        assert!(self.batch_interval > SimDuration::ZERO, "batch interval must be positive");
        assert!(self.poll_interval > SimDuration::ZERO, "poll interval must be positive");
        assert!(self.update_period > SimDuration::ZERO, "update period must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper_endpoints() {
        let m = ProcessingCostModel::default();
        // 8 vehicles × 10 Hz × 50 ms = 4 records/batch -> ~7.3 ms.
        let low = m.batch_time(4).as_millis_f64();
        assert!((low - 7.29).abs() < 0.05, "got {low}");
        // 256 vehicles -> 128 records/batch -> ~11.7 ms.
        let high = m.batch_time(128).as_millis_f64();
        assert!((high - 11.63).abs() < 0.15, "got {high}");
    }

    #[test]
    fn defaults_are_paper_values() {
        let c = SystemConfig::default();
        assert_eq!(c.batch_interval, SimDuration::from_millis(50));
        assert_eq!(c.poll_interval, SimDuration::from_millis(10));
        assert_eq!(c.update_period, SimDuration::from_millis(100));
        assert_eq!(c.payload_bytes, 200);
        c.validate();
    }
}
