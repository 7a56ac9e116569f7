//! An operator's metrics reproduce the paper's Fig. 6a: with obs on, one
//! `single_rsu_scaling` run exports `rsu.*_us` histograms whose p50 and p95
//! each name the log2 bucket holding the same percentile of the run's
//! `LatencyStats`, component by component.
//!
//! The obs gate and the metrics registry are process-global, so this is a
//! test binary of its own with one test.

use cad3::detector::{train_all, DetectionConfig};
use cad3::scenario::single_rsu_scaling;
use cad3::SystemConfig;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_obs::{bucket_lower, bucket_upper};
use cad3_types::{RoadType, SimDuration};
use std::sync::Arc;

#[test]
fn rsu_histograms_bracket_the_fig6a_percentiles() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(77));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    cad3_obs::set_enabled(true);
    let report = single_rsu_scaling(
        SystemConfig::default(),
        5,
        Arc::new(models.ad3),
        ds.features_of_type(RoadType::Motorway),
        64,
        SimDuration::from_secs(6),
    );
    cad3_obs::set_enabled(false);
    let latency = &report.per_rsu[0].latency;
    assert!(latency.len() > 100, "warnings were delivered: {}", latency.len());

    let metrics = cad3_obs::registry().snapshot();
    for (name, samples) in [
        ("rsu.tx_us", &latency.tx_ms),
        ("rsu.queuing_us", &latency.queuing_ms),
        ("rsu.processing_us", &latency.processing_ms),
        ("rsu.dissemination_us", &latency.dissemination_ms),
        ("rsu.total_us", &latency.total_ms),
    ] {
        let hist = metrics.histogram(name).unwrap_or_else(|| panic!("{name} exported"));
        assert_eq!(hist.count, latency.len() as u64, "{name}: one observation per sample");
        for (q, p) in [(0.50, 50.0), (0.95, 95.0)] {
            // The estimate is its bucket's upper bound; the bucket's lower
            // bound is one above half of it.
            let estimate = hist.quantile(q);
            let bucket = (64 - estimate.leading_zeros()) as usize;
            let (lower, upper) = (bucket_lower(bucket), bucket_upper(bucket));
            let exact_us = (samples.percentile(p) * 1_000.0) as u64;
            assert!(
                (lower..=upper).contains(&exact_us),
                "{name} p{p}: {exact_us} µs outside the exported bucket [{lower}, {upper}]"
            );
        }
    }
}
