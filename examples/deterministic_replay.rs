//! Replay-determinism witness: a seeded two-RSU handover run whose every
//! artifact is a pure function of the seed.
//!
//! The observability clock is switched to virtual mode and advanced from
//! sim time, so span timestamps, latency histograms and trace durations
//! measure *virtual* nanoseconds — two identical invocations produce
//! byte-identical files. The CI `determinism-e2e` job runs this binary
//! twice and `cmp`s every artifact; the static side of the same contract
//! is the determinism check of `cargo xtask analyze` (see DESIGN.md
//! "Determinism contract").
//!
//! Run with:
//! ```text
//! cargo run --release --example deterministic_replay -- results/replay
//! ```
//!
//! Artifacts written to the output directory (default `results/replay`):
//! `events.jsonl` (flight recorder), `metrics.prom` (Prometheus text),
//! `traces.jsonl` (assembled cross-RSU traces), `summary.json` (run
//! totals).

use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::scenario::single_rsu_scaling;
use cad3_repro::core::{ProcessingCostModel, RsuNode, SystemConfig};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::obs;
use cad3_repro::stream::TOPIC_IN_DATA;
use cad3_repro::types::{RoadType, RsuId, SimDuration, SimTime, VehicleStatus, WireEncode};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results/replay".to_owned());
    let seed = std::env::var("CAD3_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7u64);

    // Virtual clock first, before any instrumented work mints a wall
    // timestamp; then the exporter side.
    obs::clock::set_virtual_nanos(0);
    obs::set_enabled(true);
    obs::trace::set_sample_rate(1.0);

    let ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
    let models = train_all(&ds.features, &DetectionConfig::default())?;

    let mut motorway_rsu = RsuNode::new(
        RsuId(1),
        "rsu-motorway",
        Arc::new(models.cad3.clone()),
        ProcessingCostModel::default(),
    );
    let mut link_rsu = RsuNode::new(
        RsuId(2),
        "rsu-motorway-link",
        Arc::new(models.cad3),
        ProcessingCostModel::default(),
    );

    // Replay the whole corpus in record order through the two RSUs,
    // advancing the virtual clock in lockstep with sim time.
    let mut now = SimTime::ZERO;
    let mut seq = 0u32;
    let mut warnings = [0usize; 2];
    let mut summaries = 0usize;
    for rec in &ds.features {
        seq += 1;
        now += SimDuration::from_millis(10);
        obs::clock::set_virtual_nanos(now.as_nanos());
        let status =
            VehicleStatus::from_feature(rec, ds.network.road(rec.road).unwrap().start(), now, seq);
        let target = if rec.road_type == RoadType::Motorway { &motorway_rsu } else { &link_rsu };
        target.broker().produce(
            TOPIC_IN_DATA,
            None,
            Some(bytes_of(rec.vehicle.raw())),
            status.encode_to_bytes(),
            now.as_nanos(),
        )?;

        if seq.is_multiple_of(32) {
            warnings[0] += motorway_rsu.run_batch(now)?.warnings.len();
            warnings[1] += link_rsu.run_batch(now)?.warnings.len();
            for summary in motorway_rsu.export_summaries(now) {
                summaries += 1;
                link_rsu.receive_summary(&summary)?;
            }
        }
    }
    now += SimDuration::from_millis(10);
    obs::clock::set_virtual_nanos(now.as_nanos());
    warnings[0] += motorway_rsu.run_batch(now)?.warnings.len();
    warnings[1] += link_rsu.run_batch(now)?.warnings.len();

    // A seeded virtual-time testbed pass exercises the distributed-tracing
    // path (vehicle.emit → net.dsrc.tx → rsu spans), so `traces.jsonl`
    // witnesses cross-RSU trace assembly, not just the flight recorder.
    let report = single_rsu_scaling(
        SystemConfig::default(),
        seed,
        Arc::new(train_all(&ds.features, &DetectionConfig::default())?.ad3),
        ds.features_of_type(RoadType::Motorway),
        16,
        SimDuration::from_secs(2),
    );

    // Render every artifact from the virtual-clock state.
    let events = obs::recorder().dump();
    let snapshot = obs::registry().snapshot();
    let traces = obs::trace::assemble(&obs::trace::sink().drain());
    assert!(!events.is_empty(), "flight recorder captured no events");
    assert!(snapshot.counter("rsu.records") > 0, "rsu.records stayed zero");
    assert!(!traces.is_empty(), "testbed pass minted no traces");
    assert!(!report.per_rsu.is_empty(), "testbed pass produced no report");

    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("events.jsonl"), obs::export::events_jsonl(&events))?;
    std::fs::write(dir.join("metrics.prom"), obs::export::prometheus_text(&snapshot))?;
    std::fs::write(dir.join("traces.jsonl"), obs::trace::traces_jsonl(&traces))?;
    std::fs::write(
        dir.join("summary.json"),
        format!(
            "{{\"seed\":{seed},\"records\":{},\"motorway_warnings\":{},\"link_warnings\":{},\"summaries\":{},\"traces\":{},\"testbed_warnings\":{},\"virtual_end_ns\":{}}}\n",
            ds.features.len(),
            warnings[0],
            warnings[1],
            summaries,
            traces.len(),
            report.per_rsu[0].warnings,
            now.as_nanos(),
        ),
    )?;
    println!(
        "seed {seed}: {} records, {}+{} warnings, {} summaries, {} traces -> {}",
        ds.features.len(),
        warnings[0],
        warnings[1],
        summaries,
        traces.len(),
        out_dir,
    );
    Ok(())
}

fn bytes_of(v: u64) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&v.to_be_bytes())
}
