//! End-to-end tracing contract over the paper's 2-RSU handover scenario:
//! at 100% head sampling every assembled trace is complete (zero missing
//! spans, zero orphans), and at least one trace spans both RSUs — the
//! CO-DATA lineage carried RSU A's context across the wired link so RSU
//! B's `rsu.handover.fuse` span links back to the originating vehicle's
//! emission.
//!
//! Single `#[test]` on purpose: the trace sink and sampling rate are
//! process-global, and this binary owns them for its lifetime.

use cad3::detector::{train_all, DetectionConfig};
use cad3::{scenario, SystemConfig};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_obs::{names, trace};
use cad3_types::{RoadType, SimDuration};
use std::sync::Arc;

#[test]
fn handover_traces_span_both_rsus_with_no_missing_spans() {
    cad3_obs::set_enabled(true);
    trace::set_sample_rate(1.0);
    let _ = trace::sink().drain();

    let ds = SyntheticDataset::generate(&DatasetConfig::small(11));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    scenario::handover_migration(
        SystemConfig::default(),
        11,
        Arc::new(models.cad3),
        ds.features_of_type(RoadType::Motorway),
        ds.features_of_type(RoadType::MotorwayLink),
        8,
        0.5,
        SimDuration::from_secs(4),
        Vec::new(),
    );
    trace::set_sample_rate(0.0);

    let events = trace::sink().drain();
    assert_eq!(trace::sink().dropped(), 0, "sink must not drop at this scale");
    assert!(!events.is_empty(), "100% sampling must produce trace events");

    let traces = trace::assemble(&events);
    assert!(!traces.is_empty());
    for t in &traces {
        assert!(
            t.is_complete(),
            "trace {:#x} has missing spans at 100% sampling:\n{}",
            t.trace_id,
            t.waterfall(),
        );
        let root = t.root().expect("complete trace has a root");
        assert_eq!(root.name, names::VEHICLE_EMIT, "every trace roots at the emission");
    }

    // The handover half: some traces must cross from RSU 0 to RSU 1 via a
    // fuse span whose lineage chain reaches back to the root.
    let cross: Vec<_> = traces
        .iter()
        .filter(|t| {
            let nodes = t.nodes();
            nodes.contains(&0) && nodes.contains(&1)
        })
        .collect();
    assert!(!cross.is_empty(), "no trace spans both RSUs");
    let fused = cross
        .iter()
        .find(|t| t.spans().values().any(|s| s.name == names::RSU_HANDOVER_FUSE))
        .unwrap_or_else(|| {
            panic!("no cross-RSU trace contains a {} span", names::RSU_HANDOVER_FUSE)
        });
    let fuse = fused
        .spans()
        .values()
        .find(|s| s.name == names::RSU_HANDOVER_FUSE)
        .expect("filtered on presence");
    assert_eq!(fuse.node, 1, "the fuse runs on the receiving RSU");
    // Walk parent links from the fuse span back to the root: the lineage
    // decoded off the CO-DATA wire must reconnect to the emission.
    let mut cursor = fuse.parent;
    let mut hops = 0;
    while cursor != 0 {
        let span = fused.spans().get(&cursor).expect("parent chain is fully present");
        cursor = span.parent;
        hops += 1;
        assert!(hops <= 16, "parent chain must terminate at the root");
    }
    assert!(hops >= 2, "the fuse must link through upstream spans, not sit at the root");
}
