//! Network substrate of the CAD3 reproduction.
//!
//! The paper's testbed emulates a DSRC access network with `tc`/netem: a
//! hierarchical token bucket caps each producer at a minimum of 100 Kb/s
//! inside a shared 27 Mb/s ceiling, and an analytic IEEE 802.11p CSMA/CA
//! model (the paper's Eq. 5–6) accounts for medium access. This crate
//! implements all of those pieces natively:
//!
//! * [`Mcs`] — the 802.11p (10 MHz) modulation-and-coding table, numbered
//!   1–8 the way the paper numbers it (MCS 8 = 64-QAM 3/4 = 27 Mb/s).
//! * [`MacParams`] / [`MacModel`] — frame airtime and the Eq. 5–6 medium
//!   access time, plus stochastic per-packet access delays for simulation.
//! * [`TokenBucket`] / [`HtbShaper`] — the netem hierarchy's shared 27 Mb/s
//!   ceiling, FIFO-shared at the root (the ≥ 100 Kb/s per-vehicle floor
//!   never binds: a vehicle sends ≈ 19.5 kb/s on air).
//! * [`WiredLink`] — serialization + propagation delay for RSU↔RSU links.
//! * [`DsrcChannel`] — the composed vehicle→RSU access channel.
//! * [`BandwidthMeter`] — windowed bandwidth accounting for Fig. 6c/6d.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod channel;
pub mod channels;
mod htb;
mod link;
mod mac;
mod mcs;

pub use bandwidth::BandwidthMeter;
pub use channel::{ChannelStats, DsrcChannel};
pub use channels::{assign_channels, ChannelPlan, DSRC_SERVICE_CHANNELS};
pub use htb::{HtbShaper, TokenBucket};
pub use link::WiredLink;
pub use mac::{MacModel, MacParams};
pub use mcs::{Mcs, Modulation};

/// Shared DSRC channel capacity assumed throughout the paper: 27 Mb/s.
pub const DSRC_BANDWIDTH_BPS: f64 = 27_000_000.0;
