//! Workload definitions and the seeded, pre-encoded inputs of one round.
//!
//! Everything the generator does happens here, in set-up: the timed region
//! only clones `Bytes` handles (the generator costs about as much per
//! record as the system under test, so it must stay outside).

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig, Detector};
use cad3::{CoreError, VehicleAgent};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_sim::SimRng;
use cad3_types::{
    FeatureRecord, RoadType, SimDuration, SimTime, VehicleId, WireDecode, WireEncode,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// On-air bytes added to each payload (MAC framing + record header), as in
/// `cad3::Testbed`.
pub const WIRE_OVERHEAD: usize = 44;

/// Steps between RSU A's periodic `CO-DATA` exports in `handover_2rsu`.
pub const EXPORT_EVERY: usize = 40;

/// Share of a fleet's records that draw a warning. The small corpus has 40
/// drivers, so its own mix swings between 0.3 and 0.55 with the seed, and
/// the cost of a step with it; [`assign_drivers`] holds every fleet here.
pub const WARNING_SHARE: f64 = 0.25;

/// One benchmark workload. All five share the driver, the detector and the
/// seed; they differ only in the fields below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Vehicles attached to the (first) RSU. Each sends once every two
    /// ticks, so a step carries `vehicles / 2` records.
    pub vehicles: u32,
    /// Steps (micro-batches) per round.
    pub steps: usize,
    /// Virtual time between batches, milliseconds.
    pub tick_ms: u64,
    /// Worker count of the RSU's executor (6 is the paper default).
    pub workers: usize,
    /// Whether the round runs with `cad3_obs` enabled and 1% head sampling.
    pub obs: bool,
    /// Whether a second RSU, periodic exports and a mid-round migration of
    /// half the first fleet take part.
    pub handover: bool,
}

/// Fig. 6a's peak point; the other workloads vary one aspect of it.
const STEADY_256V: Workload = Workload {
    name: "steady_256v",
    vehicles: 256,
    steps: 2000,
    tick_ms: 50,
    workers: 6,
    obs: false,
    handover: false,
};

impl Workload {
    /// The five workloads, in `BENCHMARK.json` order.
    ///
    /// `dense_4096v` ticks every 200 ms: 4096 vehicles at the paper's 10 Hz
    /// would offer 80 Mb/s to a 27 Mb/s channel, so its fleet reports every
    /// 400 ms (20 Mb/s) and a step still carries 2048 records.
    pub const ALL: [Workload; 5] = [
        STEADY_256V,
        Workload { name: "steady_256v_w1", workers: 1, ..STEADY_256V },
        Workload { name: "dense_4096v", vehicles: 4096, steps: 150, tick_ms: 200, ..STEADY_256V },
        Workload { name: "handover_2rsu", handover: true, ..STEADY_256V },
        Workload { name: "steady_256v_obs", obs: true, ..STEADY_256V },
    ];

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name == name)
    }

    /// Virtual time between batches.
    pub fn tick(&self) -> SimDuration {
        SimDuration::from_millis(self.tick_ms)
    }

    /// The step after which the migrating half of the first fleet reports
    /// to the second RSU (`None` without handover).
    pub fn migration_step(&self) -> Option<usize> {
        self.handover.then_some(self.steps / 2)
    }
}

/// What every workload of one seed shares: the trained CAD3 detector and
/// the per-driver record pools the fleets replay.
pub struct Corpus {
    /// The seed everything below is a pure function of.
    pub seed: u64,
    /// The collaborative detector every RSU runs.
    pub detector: Arc<dyn Detector>,
    motorway: Vec<Vec<FeatureRecord>>,
    link: Vec<Vec<FeatureRecord>>,
}

impl Corpus {
    /// Generates the small synthetic corpus for `seed` and trains on it.
    ///
    /// # Errors
    ///
    /// Propagates training errors (none occur on the small corpus).
    pub fn generate(seed: u64) -> Result<Corpus, CoreError> {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
        let models = train_all(&ds.features, &DetectionConfig::default())?;
        Ok(Corpus {
            seed,
            detector: Arc::new(models.cad3),
            motorway: pools_by_driver(&ds.features_of_type(RoadType::Motorway)),
            link: pools_by_driver(&ds.features_of_type(RoadType::MotorwayLink)),
        })
    }
}

/// Groups a pool by its original driver, as `Testbed` does, so each agent
/// replays a behaviourally coherent stream.
fn pools_by_driver(records: &[FeatureRecord]) -> Vec<Vec<FeatureRecord>> {
    let mut by_driver: BTreeMap<VehicleId, Vec<FeatureRecord>> = BTreeMap::new();
    for rec in records {
        by_driver.entry(rec.vehicle).or_default().push(*rec);
    }
    by_driver.into_values().collect()
}

/// Warnings a vehicle draws while it replays the first `sends` records of
/// `pool` (cycled): the scalar path on a tracker of its own.
fn warnings_of(detector: &dyn Detector, pool: &[FeatureRecord], sends: usize) -> usize {
    let mut tracker = detector.new_tracker();
    let abnormal = |rec: &FeatureRecord| {
        let p1 = detector.stage1_p_abnormal(rec).ok()?;
        let summary = tracker.observe(rec.vehicle, rec.road, p1);
        detector.detect(rec, summary.as_ref()).ok().filter(|d| d.label.is_abnormal())
    };
    pool.iter().cycle().take(sends).filter_map(abnormal).count()
}

/// Picks the driver pool each of `fleet` vehicles replays, so that the
/// fleet's warnings are [`WARNING_SHARE`] of its records whatever mix of
/// drivers the seed produced: the next vehicle takes the next driver from
/// those above the share while the fleet so far is below it, and from those
/// below otherwise.
fn assign_drivers(
    detector: &dyn Detector,
    pools: &[Vec<FeatureRecord>],
    fleet: usize,
    sends: usize,
) -> Vec<usize> {
    let warnings: Vec<usize> = pools.iter().map(|p| warnings_of(detector, p, sends)).collect();
    let wanted = |vehicles: usize| WARNING_SHARE * (vehicles * sends) as f64;
    let (above, below): (Vec<usize>, Vec<usize>) =
        (0..pools.len()).partition(|&d| warnings[d] as f64 > wanted(1));
    let (mut drawn, mut taken) = (0usize, [0usize; 2]);
    (0..fleet)
        .map(|v| {
            let short = (drawn as f64) < wanted(v);
            let side = usize::from((short && !above.is_empty()) || below.is_empty());
            let class = [&below, &above][side];
            let driver = class[taken[side] % class.len()];
            taken[side] += 1;
            drawn += warnings[driver];
            driver
        })
        .collect()
}

/// One pre-encoded status packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending vehicle (the DSRC shaper's leaf and the broker key).
    pub sender: u64,
    /// Virtual instant the packet leaves the vehicle.
    pub sent_at: SimTime,
    /// Broker key: the vehicle id, big-endian (one handle per vehicle).
    pub key: Bytes,
    /// `VehicleStatus::encode_to_bytes`.
    pub value: Bytes,
}

/// The packets one RSU receives, step by step.
#[derive(Debug, Clone)]
pub struct RsuInputs {
    /// RSU name.
    pub name: &'static str,
    /// Vehicles attached at the start of the round.
    pub fleet: u32,
    /// `steps[k]` is what arrives during step `k`, in send order.
    pub steps: Vec<Vec<Packet>>,
}

/// The inputs of one round of one workload.
pub struct Inputs {
    /// The workload these inputs realise.
    pub workload: Workload,
    /// Seed of the round's DSRC access-delay draws.
    pub seed: u64,
    /// The detector every RSU runs.
    pub detector: Arc<dyn Detector>,
    /// One entry per RSU.
    pub rsus: Vec<RsuInputs>,
    /// Vehicles that migrate from RSU 0 to RSU 1 at
    /// [`Workload::migration_step`] (empty without handover).
    pub migrating: Vec<VehicleId>,
    /// Generator cost (`next_status` + encode), nanoseconds per packet.
    pub gen_ns_per_rec: f64,
}

impl Inputs {
    /// Builds the round's packets: each vehicle replays its driver pool
    /// through a [`VehicleAgent`], sending once every two ticks at a seeded
    /// phase, and every status is encoded once.
    pub fn generate(corpus: &Corpus, workload: Workload) -> Inputs {
        let mut rng = SimRng::seed_from(corpus.seed).fork(2);
        // Each fleet's pools and the pool every vehicle of it replays; the
        // migrating vehicles pick their link pool as the link fleet does.
        let drivers_of = |pools, fleet: u32| {
            assign_drivers(corpus.detector.as_ref(), pools, fleet as usize, workload.steps / 2)
        };
        let motorway_drivers = drivers_of(&corpus.motorway, workload.vehicles);
        let mut fleets = vec![("rsu-motorway", &corpus.motorway, &motorway_drivers)];
        let mut link_drivers = Vec::new();
        if workload.handover {
            link_drivers = drivers_of(&corpus.link, workload.vehicles / 4);
            fleets.push(("rsu-motorway-link", &corpus.link, &link_drivers));
        }
        let mut rsus: Vec<RsuInputs> = fleets
            .iter()
            .map(|(name, _, drivers)| RsuInputs {
                name,
                fleet: drivers.len() as u32,
                steps: vec![Vec::new(); workload.steps],
            })
            .collect();
        // The first half of RSU 0's fleet migrates, as in
        // `scenario::handover_migration` with fraction 0.5.
        let moved = if workload.handover { workload.vehicles as usize / 2 } else { 0 };
        let migration_step = workload.migration_step().unwrap_or(usize::MAX);
        let mut migrating = Vec::new();
        let tick = workload.tick();

        let started = Instant::now();
        // One vehicle at a time, so only one cloned pool is alive at once.
        for (home, (_, pools, drivers)) in fleets.iter().enumerate() {
            for (v, &driver) in drivers.iter().enumerate() {
                let id = VehicleId(((home as u64) << 32) | (v as u64 + 1));
                let key = Bytes::copy_from_slice(&id.raw().to_be_bytes());
                let offset = SimDuration::from_nanos(
                    (rng.uniform(0.0, 1.0) * tick.as_nanos() as f64) as u64,
                );
                let mut agent = VehicleAgent::new(id, pools[driver].clone());
                let migrates = home == 0 && v < moved;
                if migrates {
                    migrating.push(id);
                }
                let mut target = home;
                // Each vehicle sends in every other step, at its own phase.
                for step in (v % 2..workload.steps).step_by(2) {
                    if migrates && target == home && step >= migration_step {
                        agent
                            .switch_pool(corpus.link[link_drivers[v % link_drivers.len()]].clone());
                        target = 1;
                    }
                    let sent_at = SimTime::ZERO + tick.mul(step as u64) + offset;
                    let value = agent.next_status(sent_at).encode_to_bytes();
                    let packet = Packet { sender: id.raw(), sent_at, key: key.clone(), value };
                    rsus[target].steps[step].push(packet);
                }
            }
        }
        for step in rsus.iter_mut().flat_map(|r| &mut r.steps) {
            step.sort_by_key(|p| p.sent_at);
        }
        let packets: u64 = rsus.iter().flat_map(|r| &r.steps).map(|s| s.len() as u64).sum();
        let gen_ns_per_rec = started.elapsed().as_nanos() as f64 / packets.max(1) as f64;
        Inputs {
            workload,
            seed: corpus.seed,
            detector: Arc::clone(&corpus.detector),
            rsus,
            migrating,
            gen_ns_per_rec,
        }
    }
}

/// FNV-1a over the sorted `(vehicle, source_seq, probability bits)` of a
/// round's verdicts.
pub fn verdict_checksum(verdicts: &mut [(u64, u32, u64)]) -> u64 {
    verdicts.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (vehicle, seq, bits) in verdicts.iter() {
        let bytes =
            vehicle.to_be_bytes().into_iter().chain(seq.to_be_bytes()).chain(bits.to_be_bytes());
        for b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The scalar oracle for single-RSU inputs: every packet, in arrival order,
/// through `stage1_p_abnormal` → `SummaryTracker::observe` →
/// `Detector::detect` — no broker, no batching, no executor. Returns the
/// checksum of the abnormal verdicts and their number.
pub fn scalar_oracle(inputs: &Inputs) -> (u64, u64) {
    let detector = &inputs.detector;
    let mut tracker = detector.new_tracker();
    let mut verdicts = Vec::new();
    for packet in inputs.rsus.iter().flat_map(|r| &r.steps).flatten() {
        let mut buf = packet.value.clone();
        let Ok(status) = cad3_types::VehicleStatus::decode(&mut buf) else { continue };
        let rec = status.to_feature();
        let Ok(p1) = detector.stage1_p_abnormal(&rec) else { continue };
        let summary = tracker.observe(rec.vehicle, rec.road, p1);
        let Ok(detection) = detector.detect(&rec, summary.as_ref()) else { continue };
        if detection.label.is_abnormal() {
            verdicts.push((status.vehicle.raw(), status.seq, detection.p_abnormal.to_bits()));
        }
    }
    (verdict_checksum(&mut verdicts), verdicts.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let mut a = vec![(1, 2, 3), (4, 5, 6)];
        let mut b = vec![(4, 5, 6), (1, 2, 3)];
        assert_eq!(verdict_checksum(&mut a), verdict_checksum(&mut b));
        let mut c = vec![(1, 2, 3), (4, 5, 7)];
        assert_ne!(verdict_checksum(&mut a), verdict_checksum(&mut c));
        assert_ne!(verdict_checksum(&mut a), verdict_checksum(&mut []));
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert_eq!(w.vehicles % 2, 0, "two send parities need an even fleet");
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
