//! Integration tests of the virtual-time testbed: the paper's Fig. 6
//! scenarios end-to-end (vehicles → DSRC channel → broker → micro-batch
//! detection → OUT-DATA dissemination).

use cad3::detector::{train_all, DetectionConfig};
use cad3::scenario::{multi_rsu, single_rsu_scaling};
use cad3::SystemConfig;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::{FeatureRecord, RoadType, SimDuration};
use std::sync::Arc;

fn corpus_and_models() -> (SyntheticDataset, cad3::detector::TrainedModels) {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(77));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
    (ds, models)
}

fn motorway_pool(ds: &SyntheticDataset) -> Vec<FeatureRecord> {
    ds.features_of_type(RoadType::Motorway)
}

#[test]
fn single_rsu_latency_stays_under_50ms() {
    let (ds, models) = corpus_and_models();
    let config = SystemConfig::default();
    let report = single_rsu_scaling(
        config,
        1,
        Arc::new(models.ad3),
        motorway_pool(&ds),
        32,
        SimDuration::from_secs(10),
    );
    let rsu = &report.per_rsu[0];
    assert!(rsu.latency.len() > 30, "warnings were disseminated: {}", rsu.latency.len());
    let total = rsu.latency.total_ms.mean();
    assert!(total < 50.0, "paper's headline bound: total {total} ms");
    assert!(total > 25.0, "sanity: the pipeline has real queuing: {total} ms");
    // Components have the right magnitudes.
    assert!(rsu.latency.processing_ms.mean() > 5.0);
    assert!(rsu.latency.processing_ms.mean() < 15.0);
    assert!(rsu.latency.queuing_ms.mean() < 30.0);
    assert!(rsu.latency.dissemination_ms.mean() > 5.0);
    assert!(rsu.latency.dissemination_ms.mean() < 25.0);
    assert!(rsu.latency.tx_ms.mean() < 5.0);
    // Queuing is batch start − broker arrival: a delivered warning's record
    // waited at least nothing and at most one batch interval.
    let interval = config.batch_interval.as_millis_f64();
    let queuing = &rsu.latency.queuing_ms;
    assert!(
        queuing.iter().all(|q| (0.0..=interval).contains(q)),
        "queuing outside [0, {interval}] ms: min {} max {}",
        queuing.min(),
        queuing.max()
    );
}

#[test]
fn latency_grows_gently_with_vehicles() {
    let (ds, models) = corpus_and_models();
    let detector = Arc::new(models.ad3);
    let pool = motorway_pool(&ds);
    let run = |n: u32| {
        single_rsu_scaling(
            SystemConfig::default(),
            2,
            detector.clone(),
            pool.clone(),
            n,
            SimDuration::from_secs(8),
        )
        .per_rsu[0]
            .clone()
    };
    let small = run(8);
    let large = run(128);
    let (t_small, t_large) = (small.latency.total_ms.mean(), large.latency.total_ms.mean());
    assert!(
        t_large >= t_small - 1.0,
        "latency should not shrink with load: {t_small} -> {t_large}"
    );
    assert!(t_large - t_small < 15.0, "growth stays gentle as in Fig. 6a: {t_small} -> {t_large}");
    // Processing grows with batch size (Fig. 6a's 7.3 -> 11.7 ms trend).
    assert!(large.latency.processing_ms.mean() > small.latency.processing_ms.mean());
}

#[test]
fn bandwidth_matches_paper_fig6c() {
    let (ds, models) = corpus_and_models();
    let report = single_rsu_scaling(
        SystemConfig::default(),
        3,
        Arc::new(models.ad3),
        motorway_pool(&ds),
        64,
        SimDuration::from_secs(8),
    );
    let rsu = &report.per_rsu[0];
    // ~20 kb/s per vehicle (200 B payload + framing at 10 Hz).
    assert!(
        rsu.per_vehicle_bps > 15_000.0 && rsu.per_vehicle_bps < 25_000.0,
        "per-vehicle {} b/s",
        rsu.per_vehicle_bps
    );
    // Total far below the 27 Mb/s DSRC capacity.
    assert!(rsu.uplink_bps < 27e6 / 5.0, "total {} b/s", rsu.uplink_bps);
}

#[test]
fn multi_rsu_collaboration_loads_link_rsu_more() {
    let (ds, models) = corpus_and_models();
    let report = multi_rsu(
        SystemConfig::default(),
        4,
        Arc::new(models.cad3),
        motorway_pool(&ds),
        ds.features_of_type(RoadType::MotorwayLink),
        32,
        SimDuration::from_secs(6),
    );
    assert_eq!(report.per_rsu.len(), 5);
    let link = &report.per_rsu[0];
    assert_eq!(link.name, "Mw Link");
    // The link RSU receives CO-DATA from four motorway RSUs; the motorway
    // RSUs receive none (Fig. 6d's asymmetry).
    assert!(link.co_data_bps > 0.0, "link receives summaries");
    for mw in &report.per_rsu[1..] {
        assert_eq!(mw.co_data_bps, 0.0, "{} receives no summaries", mw.name);
        assert!(mw.records > 0);
    }
    // Dissemination stays in the Fig. 6b range on every RSU that warned.
    for rsu in &report.per_rsu {
        if !rsu.latency.is_empty() {
            let d = rsu.latency.dissemination_ms.mean();
            assert!(d > 3.0 && d < 30.0, "{}: dissemination {d} ms", rsu.name);
        }
    }
    let pooled = report.pooled_latency();
    assert!(pooled.total_ms.mean() < 50.0, "pooled total {}", pooled.total_ms.mean());
}

#[test]
fn detection_actually_flags_abnormal_traffic() {
    let (ds, models) = corpus_and_models();
    let report = single_rsu_scaling(
        SystemConfig::default(),
        5,
        Arc::new(models.cad3),
        motorway_pool(&ds),
        16,
        SimDuration::from_secs(6),
    );
    let rsu = &report.per_rsu[0];
    assert!(rsu.records > 500, "records {}", rsu.records);
    assert!(rsu.warnings > 10, "warnings {}", rsu.warnings);
    assert!(
        (rsu.warnings as f64) < rsu.records as f64 * 0.8,
        "not everything is abnormal: {}/{}",
        rsu.warnings,
        rsu.records
    );
    assert!(rsu.batches > 100);
}
