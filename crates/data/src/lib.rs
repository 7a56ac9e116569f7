//! Synthetic Shenzhen-like driving-dataset substrate.
//!
//! The paper trains and evaluates on a proprietary one-month dataset of
//! 3,306 private cars in Shenzhen (trips + ~18 M GPS trajectories,
//! map-matched onto the OSM road network). That dataset is not
//! redistributable, so this crate synthesises a statistically equivalent
//! one, reproducing the structure every experiment depends on:
//!
//! * [`RoadNetwork`] — a road network with the paper's Table V road-type
//!   mix and per-type length distributions, including motorway→motorway-link
//!   junctions for the handover scenario.
//! * [`SpeedProfile`] — per-road-type, hour-of-day and weekday/weekend
//!   Gaussian speed profiles (the Fig. 2 shapes; e.g. most motorway-link
//!   traffic at 0–35 km/h while motorways flow much faster).
//! * [`TripGenerator`] — trips and 1 Hz GPS trajectories for drivers with
//!   persistent behavioural profiles ([`cad3_types::DriverProfile`]):
//!   aggressive drivers speed on *every* road of a trip, which is exactly
//!   the structure that makes the paper's collaborative model work.
//! * [`preprocess`] — the paper's Eq. 4: instantaneous speed/acceleration
//!   from consecutive fixes, erroneous-value filtering, Table II records.
//! * [`HmmMapMatcher`] — a Viterbi map matcher in the spirit of
//!   Newson–Krumm, used to recover road IDs from noisy GPS.
//! * [`LabelModel`] — the offline μ±1σ outlier-labelling stage.
//! * [`DatasetStats`] — Table III statistics.
//! * [`infrastructure`] — roadside traffic-light/lamp-pole placement and
//!   the Table V RSU-requirement / Table VI spacing analyses.
//! * [`SyntheticDataset`] — one-call generation of the full corpus.
//!
//! # Example
//!
//! ```
//! use cad3_data::{DatasetConfig, SyntheticDataset};
//!
//! let ds = SyntheticDataset::generate(&DatasetConfig::small(42));
//! assert!(ds.features.len() > 1_000);
//! let abnormal = ds.features.iter().filter(|f| f.label.is_abnormal()).count();
//! let frac = abnormal as f64 / ds.features.len() as f64;
//! assert!(frac > 0.15 && frac < 0.55, "got {frac}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
mod generator;
pub mod infrastructure;
mod label;
mod mapmatch;
pub mod preprocess;
mod profile_mix;
mod roadnet;
mod speed_profile;
mod stats;
mod trips;

pub use deployment::{DeploymentPlan, RsuSite};
pub use generator::{DatasetConfig, SyntheticDataset};
pub use infrastructure::{
    InfrastructureKind, RoadsideInfrastructure, RsuRequirement, SpacingStats,
};
pub use label::{LabelModel, TimeBucket};
pub use mapmatch::HmmMapMatcher;
pub use profile_mix::ProfileMix;
pub use roadnet::{RoadNetwork, RoadNetworkConfig, RoadTypeSpec};
pub use speed_profile::SpeedProfile;
pub use stats::{DatasetStats, StatsRow};
pub use trips::{GeneratedTrip, TripGenerator};

/// Approximate centre of Shenzhen, the city the paper's dataset covers.
pub const SHENZHEN_CENTER: cad3_types::GeoPoint = cad3_types::GeoPoint { lon: 114.06, lat: 22.54 };
