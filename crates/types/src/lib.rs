//! Domain types shared by every crate of the CAD3 reproduction.
//!
//! This crate is the vocabulary of the system: identifiers ([`VehicleId`],
//! [`RoadId`], [`RsuId`]), geography ([`GeoPoint`] with great-circle math),
//! virtual time ([`SimTime`], [`SimDuration`]), road metadata ([`RoadType`],
//! [`RoadSegment`]), the dataset record schemas of the paper's Tables I–II
//! ([`TrajectoryPoint`], [`TripRecord`], [`FeatureRecord`]) and the wire
//! messages exchanged between vehicles and RSUs ([`VehicleStatus`],
//! [`WarningMessage`], [`SummaryMessage`]) together with a compact binary
//! codec ([`WireEncode`]/[`WireDecode`]), and the keyed hasher
//! ([`IdHasher`]) behind the RSU's per-vehicle map.
//!
//! # Example
//!
//! ```
//! use cad3_types::{GeoPoint, SimTime, SimDuration};
//!
//! let hkust = GeoPoint::new(114.2654, 22.3364);
//! let shenzhen = GeoPoint::new(114.0579, 22.5431);
//! let d = hkust.haversine_m(&shenzhen);
//! assert!(d > 25_000.0 && d < 40_000.0);
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(50);
//! assert_eq!(t.as_millis_f64(), 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod error;
mod geo;
mod hash;
mod ids;
mod messages;
mod records;
mod road;
mod time;

pub use convert::{count_f64, index_usize, len_u32, len_u64, partition_u32};
pub use error::CodecError;
pub use geo::{GeoPoint, EARTH_RADIUS_M};
pub use hash::{IdBuildHasher, IdHasher};
pub use ids::{RsuId, TripId, VehicleId};
pub use messages::{
    SummaryMessage, TraceLineage, VehicleStatus, WarningKind, WarningMessage, WireDecode,
    WireEncode, STATUS_WIRE_LEN,
};
pub use records::{DriverProfile, FeatureRecord, Label, TrajectoryPoint, TripRecord};
pub use road::{RoadId, RoadSegment, RoadType};
pub use time::{DayOfWeek, HourOfDay, SimDuration, SimTime};
