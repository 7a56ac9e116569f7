//! Experiment harness regenerating every table and figure of the CAD3
//! paper's evaluation (Section VI) on the reproduction's substrates.
//!
//! [`experiments`] has one function per table or figure; the `exp_all`
//! binary runs them all, prints each as a human-readable table with the
//! paper's reported values alongside the measured ones, and is the one
//! writer of their JSON records under `results/`:
//!
//! ```text
//! cargo run -p cad3-bench --release --bin exp_all
//! ```
//!
//! The two obs tools share one seeded workload, [`handover_run`]:
//! `obs_report` runs it once with every obs signal on and writes the
//! trace, health and profile reports plus the flight-recorder and metrics
//! dumps; `cad3_top` replays its health frames as a live console.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod console;
pub mod experiments;
pub mod paper;
pub mod tables;

use cad3::detector::{train_all, DetectionConfig};
use cad3::{scenario, CoreError, Observer, SystemConfig, TestbedReport};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_obs::{HealthMonitor, SloContract};
use cad3_types::{RoadType, SimDuration};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default seed shared by the experiment binaries.
pub const DEFAULT_SEED: u64 = 42;

/// Whether quick mode is requested (smaller corpora / shorter runs), via
/// the `CAD3_QUICK` environment variable.
pub fn quick_mode() -> bool {
    std::env::var("CAD3_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// Virtual length of [`handover_run`]: 4 s in quick mode, 8 s otherwise.
pub fn handover_duration() -> SimDuration {
    SimDuration::from_secs(if quick_mode() { 4 } else { 8 })
}

/// The obs tools' one seeded workload: the paper's 2-RSU handover
/// scenario at [`DEFAULT_SEED`] with the CAD3 model, 16 (quick) or 32
/// motorway vehicles, half of which migrate to the link RSU halfway
/// through [`handover_duration`]. `observers` ride the simulation clock.
/// Fails only if the generated corpus is not trainable.
pub fn handover_run(observers: Vec<Observer>) -> Result<TestbedReport, CoreError> {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(DEFAULT_SEED));
    let models = train_all(&ds.features, &DetectionConfig::default())?;
    Ok(scenario::handover_migration(
        SystemConfig::default(),
        DEFAULT_SEED,
        Arc::new(models.cad3),
        ds.features_of_type(RoadType::Motorway),
        ds.features_of_type(RoadType::MotorwayLink),
        if quick_mode() { 16 } else { 32 },
        0.5,
        handover_duration(),
        observers,
    ))
}

/// A health monitor on the root `slos.toml` contract with the two RSUs of
/// [`handover_run`] registered. Fails if the contract cannot be read.
pub fn handover_monitor() -> Result<HealthMonitor, String> {
    let contract =
        SloContract::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../slos.toml"))?;
    let mut monitor = HealthMonitor::new(contract);
    monitor.register_rsu("rsu-motorway");
    monitor.register_rsu("rsu-motorway-link");
    Ok(monitor)
}

/// Writes an experiment's JSON record to `results/<name>.json`, creating
/// the directory if needed. Prints the path on success; failures are
/// non-fatal (the stdout table is the primary artefact) and are counted on
/// `bench.results.errors` instead of written to stderr — library code keeps
/// quiet per the workspace `no-bare-print` lint, and any metrics export
/// surfaces the failure count.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        cad3_obs::counter!("bench.results.errors").inc();
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value).map(|json| std::fs::write(&path, json)) {
        Ok(Ok(())) => {
            cad3_obs::counter!("bench.results.written").inc();
            println!("\n[results written to {}]", path.display());
        }
        Ok(Err(_)) | Err(_) => cad3_obs::counter!("bench.results.errors").inc(),
    }
}

/// Captures the current [`cad3_obs`] metrics snapshot and writes it to
/// `results/<name>.prom` in the Prometheus text exposition format.
///
/// Returns the rendered snapshot so callers can also assert on it
/// (`exp_all`'s Fig. 6a section checks the `rsu.*_us` histograms
/// reproduce the stage decomposition). Returns `None` when writing failed
/// (counted on `bench.results.errors`).
pub fn write_metrics(name: &str) -> Option<cad3_obs::MetricsSnapshot> {
    let snapshot = cad3_obs::registry().snapshot();
    let text = cad3_obs::export::prometheus_text(&snapshot);
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        cad3_obs::counter!("bench.results.errors").inc();
        return None;
    }
    let path = dir.join(format!("{name}.prom"));
    if std::fs::write(&path, text).is_err() {
        cad3_obs::counter!("bench.results.errors").inc();
        return None;
    }
    cad3_obs::counter!("bench.results.written").inc();
    println!("[metrics written to {}]", path.display());
    Some(snapshot)
}

/// Writes a raw text artefact (e.g. a JSONL trace dump) to
/// `results/<file_name>`. The name may carry subdirectories
/// (`artifacts/traces.jsonl`), which are created as needed. Failures are
/// non-fatal and counted on `bench.results.errors`, like [`write_json`].
pub fn write_text(file_name: &str, text: &str) {
    let dir = results_dir();
    let path = dir.join(file_name);
    if path.parent().is_none_or(|p| std::fs::create_dir_all(p).is_err()) {
        cad3_obs::counter!("bench.results.errors").inc();
        return;
    }
    if std::fs::write(&path, text).is_err() {
        cad3_obs::counter!("bench.results.errors").inc();
        return;
    }
    cad3_obs::counter!("bench.results.written").inc();
    println!("[artefact written to {}]", path.display());
}

fn results_dir() -> PathBuf {
    // Prefer the workspace root (two levels up from the bench crate) when
    // running via cargo; fall back to the current directory.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").ok();
    match manifest {
        Some(m) => PathBuf::from(m).join("../../results"),
        None => PathBuf::from("results"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_reads_env() {
        // Not set in the test environment by default.
        if std::env::var("CAD3_QUICK").is_err() {
            assert!(!quick_mode());
        }
    }

    #[test]
    fn write_json_smoke() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        write_json("selftest", &T { x: 1 });
        let path = results_dir().join("selftest.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"x\": 1"));
    }
}
