//! Known-answer test: the seed-42 small corpus, pinned field by field.
//!
//! An FNV-1a digest over every `FeatureRecord` field, every `TripRecord`
//! (its start and stop positions included) and, with `keep_trajectories`,
//! every `TrajectoryPoint`. A change to the generator that moves one RNG
//! draw, one float operation or one GPS fix moves the digest.

use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::GeoPoint;

/// FNV-1a over 64-bit words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn point(&mut self, p: GeoPoint) {
        self.float(p.lon);
        self.float(p.lat);
    }
}

fn digest(ds: &SyntheticDataset) -> u64 {
    let mut h = Fnv::new();
    for f in &ds.features {
        h.word(f.vehicle.raw());
        h.word(f.trip.raw());
        h.word(f.road.raw());
        h.float(f.accel_mps2);
        h.float(f.speed_kmh);
        h.word(u64::from(f.hour.get()));
        h.word(u64::from(f.day.index()));
        h.word(u64::from(f.road_type.code()));
        h.float(f.road_speed_kmh);
        h.word(u64::from(f.label.class()));
    }
    for t in &ds.trips {
        h.word(t.vehicle.raw());
        h.word(t.trip.raw());
        h.point(t.start);
        h.point(t.stop);
        h.float(t.start_time_s);
        h.float(t.stop_time_s);
        h.float(t.mileage_m);
        h.word(u64::from(t.day.index()));
        h.word(t.roads.len() as u64);
        for r in &t.roads {
            h.word(r.raw());
        }
    }
    for p in &ds.trajectories {
        h.word(p.vehicle.raw());
        h.word(p.trip.raw());
        h.point(p.position);
        h.float(p.gps_time_s);
        h.float(p.ac_mileage_m);
    }
    h.0
}

#[test]
fn the_seed_42_small_corpus_is_pinned() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(42));
    assert!(ds.trajectories.is_empty());
    assert_eq!(digest(&ds), 0x4584_59e2_789c_0c52, "a feature record or a trip record moved");
}

#[test]
fn the_seed_42_small_corpus_with_trajectories_is_pinned() {
    let config = DatasetConfig { keep_trajectories: true, ..DatasetConfig::small(42) };
    let ds = SyntheticDataset::generate(&config);
    assert_eq!(ds.trajectories.len(), ds.features.len());
    assert_eq!(digest(&ds), 0x803e_a2a1_2224_75e6, "a record or a GPS fix moved");
}
