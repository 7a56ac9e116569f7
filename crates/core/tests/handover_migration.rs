//! Integration tests of the paper's handover emulation: vehicles migrating
//! mid-run from the motorway RSU to the motorway-link RSU, with their
//! prediction summaries following them over the backhaul.

use cad3::detector::{train_all, DetectionConfig};
use cad3::scenario::handover_migration;
use cad3::SystemConfig;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::{RoadType, SimDuration};
use std::sync::Arc;

#[test]
fn migrated_vehicles_shift_load_and_carry_summaries() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(401));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    let detector = Arc::new(models.cad3);

    let run = |fraction: f64| {
        handover_migration(
            SystemConfig::default(),
            401,
            detector.clone(),
            ds.features_of_type(RoadType::Motorway),
            ds.features_of_type(RoadType::MotorwayLink),
            40,
            fraction,
            SimDuration::from_secs(10),
            Vec::new(),
        )
    };

    let without = run(0.0);
    let with = run(0.5);

    let link_records = |r: &cad3::TestbedReport| r.per_rsu[1].records;
    let mw_records = |r: &cad3::TestbedReport| r.per_rsu[0].records;

    // Migration moves traffic: the link RSU processes substantially more,
    // the motorway RSU less.
    assert!(
        link_records(&with) as f64 > link_records(&without) as f64 * 1.5,
        "link records {} vs {}",
        link_records(&with),
        link_records(&without)
    );
    assert!(
        mw_records(&with) < mw_records(&without),
        "motorway records {} vs {}",
        mw_records(&with),
        mw_records(&without)
    );

    // The handover carried per-vehicle summaries over the backhaul
    // (CO-DATA at the link grows beyond the periodic forwarding alone).
    assert!(
        with.per_rsu[1].co_data_bps >= without.per_rsu[1].co_data_bps,
        "handover adds CO-DATA: {} vs {}",
        with.per_rsu[1].co_data_bps,
        without.per_rsu[1].co_data_bps
    );

    // Detection keeps running on both sides and latency stays bounded.
    assert!(with.per_rsu[1].warnings > 0);
    let pooled = with.pooled_latency();
    assert!(pooled.total_ms.mean() < 50.0, "total {}", pooled.total_ms.mean());
}

#[test]
fn full_migration_drains_the_motorway() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(403));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    let report = handover_migration(
        SystemConfig::default(),
        403,
        Arc::new(models.ad3),
        ds.features_of_type(RoadType::Motorway),
        ds.features_of_type(RoadType::MotorwayLink),
        24,
        1.0,
        SimDuration::from_secs(8),
        Vec::new(),
    );
    // After the halfway point every motorway vehicle streams to the link;
    // the motorway RSU keeps only its first-half traffic.
    let mw = &report.per_rsu[0];
    let link = &report.per_rsu[1];
    // Motorway: 24 vehicles × 10 Hz × ~4 s ≈ 960 records; link gets its own
    // 6 vehicles × 8 s plus the migrated 24 × 4 s.
    assert!(
        (mw.records as f64) < 24.0 * 10.0 * 8.0 * 0.75,
        "motorway kept sending after migration: {}",
        mw.records
    );
    assert!(
        link.records as f64 > 6.0 * 10.0 * 7.5,
        "link received the migrated fleet: {}",
        link.records
    );
}
