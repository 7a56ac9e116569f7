//! The profiler under a standing worker pool: each worker declares its class
//! once and adopts the coordinator's stage position job by job, so a
//! thousand batches attribute every sweep under the coordinator's open
//! `rsu.detect` and never overflow the stage tree.
//!
//! Single `#[test]` on purpose: the enabled flag and the stage tree are
//! process-global, and this binary owns them.

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig};
use cad3::{ProcessingCostModel, RsuNode, VehicleAgent};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_obs::{names, profile};
use cad3_stream::TOPIC_IN_DATA;
use cad3_types::{RsuId, SimTime, VehicleId, WireEncode};
use std::sync::Arc;

#[test]
fn a_thousand_batches_attribute_every_sweep_under_detect() {
    cad3_obs::set_enabled(true);
    let ds = SyntheticDataset::generate(&DatasetConfig::small(57));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    let mut rsu =
        RsuNode::new(RsuId(1), "pooled", Arc::new(models.cad3), ProcessingCostModel::default());
    let mut agents: Vec<VehicleAgent> =
        (0..12).map(|i| VehicleAgent::new(VehicleId(i + 1), ds.features[..400].to_vec())).collect();

    let mut records = 0;
    for step in 0..1_000u64 {
        let sent = SimTime::from_millis(step * 50);
        for agent in &mut agents {
            let status = agent.next_status(sent);
            let key = status.vehicle.raw().to_be_bytes();
            rsu.broker()
                .produce(
                    TOPIC_IN_DATA,
                    None,
                    Some(Bytes::copy_from_slice(&key)),
                    status.encode_to_bytes(),
                    sent.as_nanos() + 1,
                )
                .expect("IN-DATA exists");
        }
        records += rsu.run_batch(SimTime::from_millis(step * 50 + 25)).expect("batch runs").records;
    }
    assert_eq!(records, 12_000);

    let snap = profile::snapshot();
    assert_eq!(snap.dropped, 0);
    // Every batch's six sweeps landed below the coordinator's open stage,
    // not under a root of the workers' own.
    let sweeps = snap.stage_totals(names::ML_NB_SWEEP);
    assert!(sweeps.calls > 0);
    let adopted: u64 = snap
        .stages
        .iter()
        .filter(|(path, _)| path.ends_with(";rsu.detect;ml.nb.sweep"))
        .map(|(_, t)| t.calls)
        .sum();
    assert_eq!(adopted, sweeps.calls, "{:?}", snap.stages.keys().collect::<Vec<_>>());
}
