//! End-to-end integration tests across all crates, through the umbrella
//! crate: dataset generation → offline training → virtual-time testbed →
//! the paper's headline claims.

use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::scenario::{multi_rsu, single_rsu_scaling, Holdout};
use cad3_repro::core::SystemConfig;
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::types::{RoadType, SimDuration};
use std::sync::Arc;

#[test]
fn full_stack_latency_claim_holds() {
    // Generate → train → run the testbed → assert the paper's bound.
    let ds = SyntheticDataset::generate(&DatasetConfig::small(101));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    let report = single_rsu_scaling(
        SystemConfig::default(),
        101,
        Arc::new(models.cad3),
        ds.features_of_type(RoadType::Motorway),
        48,
        SimDuration::from_secs(8),
    );
    let rsu = &report.per_rsu[0];
    assert!(rsu.latency.len() > 50);
    assert!(rsu.latency.total_ms.mean() < 50.0, "mean {}", rsu.latency.total_ms.mean());
    assert!(rsu.warnings > 0 && rsu.records > 1000);
}

#[test]
fn full_stack_detection_ordering_holds() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(103));
    let rows = Holdout::new(ds, 103).unwrap().compare(&DetectionConfig::default()).unwrap();
    let (central, ad3, cad3) = (&rows[0], &rows[1], &rows[2]);
    // The edge models dominate the centralized baseline...
    assert!(ad3.f1 > central.f1 + 0.05);
    assert!(cad3.f1 > central.f1 + 0.05);
    // ...and collaboration reduces the safety-critical misses.
    assert!(cad3.fn_rate <= ad3.fn_rate + 0.01);
    assert!(cad3.expected_accidents < central.expected_accidents);
}

#[test]
fn five_rsu_deployment_is_balanced_and_fast() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(105));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    let report = multi_rsu(
        SystemConfig::default(),
        105,
        Arc::new(models.cad3),
        ds.features_of_type(RoadType::Motorway),
        ds.features_of_type(RoadType::MotorwayLink),
        24,
        SimDuration::from_secs(6),
    );
    assert_eq!(report.per_rsu.len(), 5);
    // Only the link RSU receives CO-DATA; every RSU stays under capacity.
    assert!(report.per_rsu[0].co_data_bps > 0.0);
    for rsu in &report.per_rsu {
        assert!(rsu.uplink_bps + rsu.co_data_bps < 27e6);
    }
    assert!(report.pooled_latency().total_ms.mean() < 50.0);
}

#[test]
fn testbed_is_deterministic() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(107));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    let detector = Arc::new(models.ad3);
    let run = || {
        single_rsu_scaling(
            SystemConfig::default(),
            9,
            detector.clone(),
            ds.features_of_type(RoadType::Motorway),
            16,
            SimDuration::from_secs(4),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.per_rsu[0].records, b.per_rsu[0].records);
    assert_eq!(a.per_rsu[0].warnings, b.per_rsu[0].warnings);
    assert_eq!(a.per_rsu[0].latency.total_ms.mean(), b.per_rsu[0].latency.total_ms.mean());
    assert_eq!(a.per_rsu[0].uplink_bps, b.per_rsu[0].uplink_bps);
}
