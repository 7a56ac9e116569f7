//! CAD3: edge-facilitated real-time collaborative abnormal-driving
//! distributed detection — the core library of the reproduction.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates:
//!
//! * **Detectors** ([`detector`]): the standalone per-road-type Naïve Bayes
//!   detector (AD3), the collaborative detector fusing cross-RSU prediction
//!   summaries through Eq. 1 and a Decision Tree (CAD3), and the
//!   centralized baseline.
//! * **Collaboration** ([`SummaryTracker`], [`VehicleSummary`]): the
//!   per-vehicle running prediction summaries RSUs exchange on handover
//!   (the `CO-DATA` flow of Figs. 3–4).
//! * **Safety model** ([`accidents`]): the Nilsson power-model estimate of
//!   potential accidents caused by false negatives (Eqs. 2–3).
//! * **Pipeline** ([`RsuNode`], [`VehicleAgent`]): the Kafka+Spark-style
//!   RSU pipeline over the three topics, and the vehicle agents that feed
//!   it at 10 Hz.
//! * **Testbed** ([`Testbed`], [`scenario`]): deterministic virtual-time
//!   reconstructions of every experiment in the paper's evaluation
//!   (latency/bandwidth scaling, multi-RSU dissemination, detection
//!   quality, mesoscopic trip analysis).
//!
//! # Quickstart
//!
//! ```
//! use cad3::detector::{train_all, DetectionConfig, Detector};
//! use cad3_data::{DatasetConfig, SyntheticDataset};
//!
//! // Generate a Shenzhen-like corpus and train all three models.
//! let ds = SyntheticDataset::generate(&DatasetConfig::small(7));
//! let models = train_all(&ds.features, &DetectionConfig::default())?;
//!
//! // Detect on a fresh record.
//! let mut tracker = cad3::SummaryTracker::new();
//! let rec = ds.features[0];
//! let summary = tracker.observe(rec.vehicle, rec.road, 0.9);
//! let detection = models.cad3.detect(&rec, summary.as_ref())?;
//! assert!(detection.p_abnormal >= 0.0 && detection.p_abnormal <= 1.0);
//! # Ok::<(), cad3::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accidents;
mod collaboration;
mod config;
pub mod detector;
mod error;
mod latency;
mod rsu;
pub mod scenario;
mod testbed;
mod vehicle;

pub use collaboration::{lineage_context, lineage_of, SummaryTracker, VehicleSummary};
pub use testbed::{MigrationSpec, Observer, RsuReport, RsuSpec, ScenarioSpec};

/// Approximate centre of Shenzhen, used as the default reported position.
pub(crate) const fn shenzhen_center() -> cad3_types::GeoPoint {
    cad3_types::GeoPoint { lon: 114.06, lat: 22.54 }
}
pub use config::{ProcessingCostModel, SystemConfig};
pub use error::CoreError;
pub use latency::{LatencyBreakdown, LatencyStats};
pub use rsu::{BatchResult, RsuNode, WARNING_DEADLINE};
pub use testbed::{Testbed, TestbedReport};
pub use vehicle::VehicleAgent;

#[cfg(test)]
pub(crate) mod testutil {
    /// Serialises unit tests that mutate process-global tracing state (the
    /// sampling rate and the shared trace sink), so concurrent tests in
    /// this binary cannot steal each other's drained events.
    pub static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
