//! Deterministic virtual-time reconstruction of the paper's physical
//! testbed (Fig. 5): vehicles (Kafka producers) on an emulated DSRC access
//! network, RSUs (broker + micro-batch detection) and a warning
//! dissemination path polled every 10 ms.
//!
//! Every latency component of Fig. 6a is modelled explicitly:
//!
//! * **Tx** — HTB-shaped DSRC medium access ([`cad3_net::DsrcChannel`]).
//! * **Queuing** — wait for the next 50 ms micro-batch.
//! * **Processing** — the calibrated [`crate::ProcessingCostModel`].
//! * **Dissemination** — wait for the vehicle's next 10 ms `OUT-DATA` poll
//!   plus a consumer-fetch latency (`7.2 ± 4.4 ms` in the paper).

use crate::detector::Detector;
use crate::{LatencyBreakdown, LatencyStats, RsuNode, SystemConfig};
use bytes::Bytes;
use cad3_net::{DsrcChannel, HtbShaper, MacModel, Mcs, WiredLink};
use cad3_sim::{SimRng, Simulation};
use cad3_stream::{Consumer, OffsetReset, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_types::{
    FeatureRecord, GeoPoint, RsuId, SimDuration, SimTime, SummaryMessage, VehicleId,
    WarningMessage, WireDecode, WireEncode,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// Default geographic position reported by simulated vehicles.
pub(crate) const DEFAULT_POSITION: GeoPoint = crate::shenzhen_center();

/// Specification of one RSU in a testbed scenario.
pub struct RsuSpec {
    /// Human-readable name ("Mw R1", "Mw Link", ...).
    pub name: String,
    /// Detector deployed at this RSU.
    pub detector: Arc<dyn Detector>,
    /// Number of vehicles attached to this RSU.
    pub vehicles: u32,
    /// Record pool the vehicles replay (sliced round-robin per vehicle).
    pub records: Vec<FeatureRecord>,
    /// Index of the RSU that receives this RSU's `CO-DATA` summaries, if
    /// any (the motorway→motorway-link collaboration of Fig. 3).
    pub forwards_to: Option<usize>,
    /// One-way backhaul latency between the vehicles' radio access and
    /// this node's compute, if the node is *not* at the roadside — models
    /// the cloud-offload baseline of the paper's Section II-B (status
    /// packets pay it on the way up, warnings on the way down). `None`
    /// for a true edge RSU.
    pub backhaul: Option<SimDuration>,
}

/// A mid-run vehicle handover — the paper's emulation of mobility, where a
/// portion of the motorway RSU's producers migrate to the motorway-link
/// RSU and start replaying the link sub-dataset.
pub struct MigrationSpec {
    /// RSU index the vehicles leave.
    pub from: usize,
    /// RSU index the vehicles join.
    pub to: usize,
    /// Fraction of the `from` fleet that migrates (clamped to `[0, 1]`).
    pub fraction: f64,
    /// Virtual instant of the handover.
    pub at: SimDuration,
    /// Record pool the migrated vehicles replay afterwards (the link
    /// sub-dataset in the paper's scenario).
    pub new_records: Vec<FeatureRecord>,
}

/// A full testbed scenario.
pub struct ScenarioSpec {
    /// Participating RSUs.
    pub rsus: Vec<RsuSpec>,
    /// Virtual run time.
    pub duration: SimDuration,
    /// Samples delivered before this instant are discarded (system
    /// warm-up).
    pub warmup: SimDuration,
    /// Interval at which forwarding RSUs export summaries.
    pub summary_interval: SimDuration,
    /// Optional mid-run handover.
    pub migration: Option<MigrationSpec>,
}

/// Per-RSU experiment outputs.
#[derive(Debug, Clone)]
pub struct RsuReport {
    /// RSU name.
    pub name: String,
    /// Warning-path latency decomposition (one sample per delivered
    /// warning).
    pub latency: LatencyStats,
    /// Average uplink bandwidth received by the RSU, bits/s (on-air bytes,
    /// i.e. payload plus MAC framing).
    pub uplink_bps: f64,
    /// Average per-vehicle uplink bandwidth, bits/s.
    pub per_vehicle_bps: f64,
    /// Average inbound `CO-DATA` bandwidth, bits/s.
    pub co_data_bps: f64,
    /// Status records processed.
    pub records: u64,
    /// Warnings produced.
    pub warnings: u64,
    /// Micro-batches executed.
    pub batches: u64,
}

/// Results of a testbed run.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// One report per RSU, in scenario order.
    pub per_rsu: Vec<RsuReport>,
}

impl TestbedReport {
    /// Latency statistics pooled over all RSUs.
    pub fn pooled_latency(&self) -> LatencyStats {
        let mut pooled = LatencyStats::new();
        for r in &self.per_rsu {
            pooled.tx_ms.merge(&r.latency.tx_ms);
            pooled.queuing_ms.merge(&r.latency.queuing_ms);
            pooled.processing_ms.merge(&r.latency.processing_ms);
            pooled.dissemination_ms.merge(&r.latency.dissemination_ms);
            pooled.total_ms.merge(&r.latency.total_ms);
        }
        pooled
    }
}

/// The virtual-time testbed runner.
#[derive(Debug, Clone, Copy)]
pub struct Testbed {
    config: SystemConfig,
    seed: u64,
}

/// A periodic observer attached to a testbed run: `hook` is called every
/// `interval` of virtual time (first at `interval`, last at or before the
/// scenario end), interleaved deterministically with the scenario's own
/// events. The health monitor ticks through one of these; benches use them
/// to sample mid-run snapshots.
pub struct Observer {
    /// Virtual-time period between calls.
    pub interval: SimDuration,
    /// The callback; receives the current virtual instant.
    pub hook: Box<dyn FnMut(SimTime)>,
}

struct World {
    config: SystemConfig,
    end: SimTime,
    warmup: SimTime,
    rng: SimRng,
    rsus: Vec<RsuNode>,
    channels: Vec<DsrcChannel>,
    /// Per-RSU fleet of vehicle agents.
    fleets: Vec<Vec<crate::VehicleAgent>>,
    /// Current RSU of each vehicle, indexed like `fleets`; handovers move
    /// vehicles by rewriting this table.
    home: Vec<Vec<usize>>,
    /// One-way backhaul latency per RSU (zero for edge nodes).
    backhauls: Vec<SimDuration>,
    /// Per-RSU representative warning consumer.
    out_consumers: Vec<Consumer>,
    /// Wired links keyed by (from, to) RSU index.
    links: HashMap<(usize, usize), WiredLink>,
    /// Per RSU, each warning published to its `OUT-DATA` and not yet read by
    /// its delivery poll, keyed by (vehicle, seq): the Fig. 6a breakdown its
    /// batch took from the [`crate::BatchResult`], dissemination still zero
    /// (the poll adds it). Every poll empties its RSU's map.
    pending: Vec<HashMap<(u64, u32), LatencyBreakdown>>,
    /// Pre-created `net.dsrc.offered_bps.<rsu>` gauges, indexed like
    /// `channels`; published from the batch path as a single atomic store.
    offered_gauges: Vec<cad3_obs::Handle<cad3_obs::Gauge>>,
    latency: Vec<LatencyStats>,
    co_bytes: Vec<u64>,
    /// On-air bytes added to each payload (MAC framing + record header).
    wire_overhead: usize,
}

impl Testbed {
    /// Creates a testbed with the given system configuration and seed.
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        config.validate();
        Testbed { config, seed }
    }

    /// Runs a scenario to completion and reports per-RSU measurements.
    ///
    /// `observers` are periodic hooks riding the simulation clock — the
    /// health monitor's sampling tick, mid-run snapshot capture; pass
    /// `Vec::new()` for none. Observers are ordinary simulation events, so
    /// an observed run interleaves them deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no RSUs or an RSU has no vehicles or
    /// records.
    pub fn run(&self, spec: ScenarioSpec, observers: Vec<Observer>) -> TestbedReport {
        assert!(!spec.rsus.is_empty(), "scenario needs at least one RSU");
        let mut rng = SimRng::seed_from(self.seed);
        let config = self.config;
        let end = SimTime::ZERO + spec.duration;

        // Build the world.
        let mut rsus = Vec::new();
        let mut channels = Vec::new();
        let mut fleets = Vec::new();
        let mut out_consumers = Vec::new();
        let mut links = HashMap::new();
        let mut offered_gauges = Vec::new();
        for (i, r) in spec.rsus.iter().enumerate() {
            assert!(r.vehicles > 0, "RSU `{}` needs vehicles", r.name);
            assert!(!r.records.is_empty(), "RSU `{}` needs records", r.name);
            let node = RsuNode::new(
                RsuId(i as u32),
                r.name.clone(),
                Arc::clone(&r.detector),
                config.cost_model,
            );
            let mut consumer =
                Consumer::new(node.broker(), format!("fleet-{i}"), OffsetReset::Earliest);
            consumer.subscribe(&[TOPIC_OUT_DATA]).expect("topic exists");
            out_consumers.push(consumer);
            // The testbed channel: high-rate MCS (the paper's testbed is a
            // shaped 1 Gb/s link, not a contended radio), HTB as configured
            // by the paper's netem setup.
            channels.push(DsrcChannel::new(
                MacModel::default(),
                Mcs::MCS8,
                HtbShaper::paper_default(),
                r.vehicles,
                config.update_period,
            ));
            offered_gauges.push(cad3_obs::registry().gauge(&format!(
                "{}.{}",
                cad3_obs::names::NET_DSRC_OFFERED_BPS_PREFIX,
                r.name
            )));
            let pools = driver_pools(&r.records);
            let fleet: Vec<crate::VehicleAgent> = (0..r.vehicles)
                .map(|v| {
                    let pool = pools[v as usize % pools.len()].clone();
                    crate::VehicleAgent::new(VehicleId(((i as u64) << 32) | (v as u64 + 1)), pool)
                })
                .collect();
            fleets.push(fleet);
            rsus.push(node);
            if let Some(to) = r.forwards_to {
                assert!(to < spec.rsus.len() && to != i, "invalid forwards_to for `{}`", r.name);
                links.insert((i, to), WiredLink::gigabit_ethernet());
            }
        }
        let n_rsus = rsus.len();
        let latency = vec![LatencyStats::new(); n_rsus];
        let home: Vec<Vec<usize>> =
            fleets.iter().enumerate().map(|(i, f)| vec![i; f.len()]).collect();
        let backhauls: Vec<SimDuration> =
            spec.rsus.iter().map(|r| r.backhaul.unwrap_or(SimDuration::ZERO)).collect();
        let world = Rc::new(RefCell::new(World {
            config,
            end,
            warmup: SimTime::ZERO + spec.warmup,
            rng: rng.fork(1),
            rsus,
            channels,
            fleets,
            home,
            backhauls,
            out_consumers,
            links,
            pending: vec![HashMap::new(); n_rsus],
            offered_gauges,
            latency,
            co_bytes: vec![0; n_rsus],
            wire_overhead: 44,
        }));

        let mut sim = Simulation::new();

        // Vehicle send loops, phase-staggered across the update period.
        for rsu_idx in 0..n_rsus {
            let fleet_size = world.borrow().fleets[rsu_idx].len();
            for veh_idx in 0..fleet_size {
                let phase = SimDuration::from_nanos(
                    rng.uniform(0.0, config.update_period.as_nanos() as f64) as u64,
                );
                schedule_send(&mut sim, Rc::clone(&world), rsu_idx, veh_idx, SimTime::ZERO + phase);
            }
        }
        // RSU batch loops, lightly staggered so multi-RSU runs do not tie.
        for rsu_idx in 0..n_rsus {
            let phase = SimDuration::from_micros(rsu_idx as u64 * 137);
            schedule_batch(
                &mut sim,
                Rc::clone(&world),
                rsu_idx,
                SimTime::ZERO + config.batch_interval + phase,
            );
        }
        // Dissemination poll loops.
        for rsu_idx in 0..n_rsus {
            let phase = SimDuration::from_micros(rsu_idx as u64 * 613);
            schedule_poll(
                &mut sim,
                Rc::clone(&world),
                rsu_idx,
                SimTime::ZERO + config.poll_interval + phase,
            );
        }
        // Summary forwarding loops.
        let forwarding: Vec<(usize, usize)> = spec
            .rsus
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.forwards_to.map(|t| (i, t)))
            .collect();
        for (from, to) in forwarding {
            schedule_summary(
                &mut sim,
                Rc::clone(&world),
                from,
                to,
                SimTime::ZERO + spec.summary_interval,
                spec.summary_interval,
            );
        }
        // Optional mid-run handover.
        if let Some(m) = spec.migration {
            assert!(m.from < n_rsus && m.to < n_rsus && m.from != m.to, "invalid migration");
            assert!(!m.new_records.is_empty(), "migration needs a new record pool");
            world
                .borrow_mut()
                .links
                .entry((m.from, m.to))
                .or_insert_with(WiredLink::gigabit_ethernet);
            schedule_migration(&mut sim, Rc::clone(&world), m);
        }
        // Observer hooks (health ticks, snapshot capture) ride the same
        // deterministic event queue.
        for obs in observers {
            let mut hook = obs.hook;
            sim.schedule_every(obs.interval, end, move |_, now| hook(now));
        }

        sim.run_until(end);

        // Assemble the report.
        let w = world.borrow();
        let elapsed = spec.duration;
        let mut per_rsu = Vec::new();
        for i in 0..n_rsus {
            let uplink = w.channels[i].average_rate_bps();
            let vehicles = w.fleets[i].len() as f64;
            per_rsu.push(RsuReport {
                name: w.rsus[i].name().to_owned(),
                latency: w.latency[i].clone(),
                uplink_bps: uplink,
                per_vehicle_bps: uplink / vehicles,
                co_data_bps: w.co_bytes[i] as f64 * 8.0 / elapsed.as_secs_f64(),
                records: w.rsus[i].records_processed(),
                warnings: w.rsus[i].warnings_produced(),
                batches: w.rsus[i].batches(),
            });
        }
        TestbedReport { per_rsu }
    }
}

fn schedule_send(
    sim: &mut Simulation,
    world: Rc<RefCell<World>>,
    rsu_idx: usize,
    veh_idx: usize,
    at: SimTime,
) {
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        let (target, arrival, key, value, trace, period, end) = {
            let w = &mut *world.borrow_mut();
            // Handovers may have moved this vehicle to another RSU.
            let target = w.home[rsu_idx][veh_idx];
            let (status, ctx) = w.fleets[rsu_idx][veh_idx].next_status_traced(now, target as u32);
            let value = status.encode_to_bytes();
            let on_air = value.len() + w.wire_overhead;
            let sender = status.vehicle.raw();
            let arrival =
                w.channels[target].send(&mut w.rng, sender, now, on_air) + w.backhauls[target];
            // A sampled emission gets a `net.dsrc.tx` span covering medium
            // access + backhaul, and the continuation rides the IN-DATA
            // record to the RSU.
            let trace = ctx.map(|ctx| {
                let span = cad3_obs::trace_span!(
                    "net.dsrc.tx",
                    &ctx,
                    now.as_nanos(),
                    arrival.as_nanos(),
                    target as u32
                );
                ctx.next_hop(span)
            });
            (
                target,
                arrival,
                status.vehicle.raw().to_be_bytes(),
                value,
                trace,
                w.config.update_period,
                w.end,
            )
        };
        // Deliver to the broker at the channel arrival time.
        let world2 = Rc::clone(&world);
        sim.schedule_at(arrival, move |_| {
            let w = world2.borrow();
            let _ = w.rsus[target].broker().produce_traced(
                TOPIC_IN_DATA,
                None,
                Some(Bytes::copy_from_slice(&key)),
                value,
                arrival.as_nanos(),
                trace,
            );
        });
        if now + period < end {
            // Jitter each period by ±5% so sender phases decorrelate from
            // the batch boundaries, as on a real access network.
            let jittered = {
                let mut w = world.borrow_mut();
                let p = period.as_secs_f64();
                SimDuration::from_secs_f64(w.rng.uniform(p * 0.95, p * 1.05))
            };
            schedule_send(sim, world, rsu_idx, veh_idx, now + jittered);
        }
    });
}

fn schedule_batch(sim: &mut Simulation, world: Rc<RefCell<World>>, rsu_idx: usize, at: SimTime) {
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        let (result, interval, end) = {
            let mut w = world.borrow_mut();
            if cad3_obs::enabled() {
                // Windowed offered load on this RSU's DSRC medium, sampled
                // at batch cadence for the health engine's bandwidth SLO.
                let bps = w.channels[rsu_idx].rate_bps(now);
                w.offered_gauges[rsu_idx].set(bps as u64);
            }
            let result = w.rsus[rsu_idx].run_batch(now).expect("batch never fails in-sim");
            (result, w.config.batch_interval, w.end)
        };
        // Publish each warning at its detection-complete instant, with the
        // first three Fig. 6a components of its path: send to broker
        // arrival, arrival to this batch's start, and the batch's compute.
        let warnings = result.warnings.into_iter().zip(result.warning_traces);
        for ((warning, trace), arrival) in warnings.zip(result.warning_arrivals) {
            let latency = LatencyBreakdown {
                tx: arrival.saturating_since(warning.source_sent_at),
                queuing: now.saturating_since(arrival),
                processing: result.processing,
                dissemination: SimDuration::ZERO,
            };
            let world2 = Rc::clone(&world);
            sim.schedule_at(warning.detected_at, move |_| {
                let w = &mut *world2.borrow_mut();
                let _ = w.rsus[rsu_idx].publish_warning_traced(&warning, trace);
                w.pending[rsu_idx].insert((warning.vehicle.raw(), warning.source_seq), latency);
            });
        }
        if now + interval < end {
            schedule_batch(sim, world, rsu_idx, now + interval);
        }
    });
}

fn schedule_poll(sim: &mut Simulation, world: Rc<RefCell<World>>, rsu_idx: usize, at: SimTime) {
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        let (interval, end) = {
            let mut w = world.borrow_mut();
            let batch = w.out_consumers[rsu_idx].poll(usize::MAX).unwrap_or_default();
            for rec in batch {
                let mut buf: Bytes = rec.value;
                let Ok(warning) = WarningMessage::decode(&mut buf) else { continue };
                // Each vehicle polls with its own phase, so the wait until
                // the audience's next poll tick is uniform over one poll
                // interval; the consumer fetch itself adds the paper's
                // 7.2 ± 4.4 ms. (This representative consumer's own tick
                // alignment would otherwise leak a deterministic phase
                // artefact into the measurement.)
                let fetch_mean = w.config.fetch_latency_mean.as_secs_f64();
                let fetch_std = w.config.fetch_latency_std.as_secs_f64();
                let fetch = SimDuration::from_secs_f64(w.rng.normal(fetch_mean, fetch_std).abs());
                let poll_s = w.config.poll_interval.as_secs_f64();
                let poll_wait = SimDuration::from_secs_f64(w.rng.uniform(0.0, poll_s));
                let delivery = warning.detected_at + poll_wait + fetch + w.backhauls[rsu_idx];
                let key = (warning.vehicle.raw(), warning.source_seq);
                let Some(mut latency) = w.pending[rsu_idx].remove(&key) else { continue };
                if delivery < w.warmup {
                    continue;
                }
                latency.dissemination = delivery.saturating_since(warning.detected_at);
                w.latency[rsu_idx].record_traced(
                    &latency,
                    rec.trace.as_ref(),
                    rsu_idx as u32,
                    warning.detected_at.as_nanos(),
                    delivery.as_nanos(),
                );
            }
            // The poll read every warning published so far.
            debug_assert!(w.pending[rsu_idx].is_empty(), "a published warning went unread");
            (w.config.poll_interval, w.end)
        };
        if now + interval < end {
            schedule_poll(sim, world, rsu_idx, now + interval);
        }
    });
}

/// Groups a record pool by its original driver, in driver order, so each
/// agent replays a behaviourally coherent stream (summaries would otherwise
/// see one "vehicle" flip personality every record).
fn driver_pools(records: &[FeatureRecord]) -> Vec<Vec<FeatureRecord>> {
    let mut by_driver: BTreeMap<VehicleId, Vec<FeatureRecord>> = BTreeMap::new();
    for rec in records {
        by_driver.entry(rec.vehicle).or_default().push(*rec);
    }
    by_driver.into_values().collect()
}

fn schedule_migration(sim: &mut Simulation, world: Rc<RefCell<World>>, m: MigrationSpec) {
    let pools = driver_pools(&m.new_records);
    sim.schedule_at(SimTime::ZERO + m.at, move |sim| {
        let now = sim.now();
        let mut handed_over: Vec<SummaryMessage> = Vec::new();
        {
            let w = &mut *world.borrow_mut();
            if cad3_obs::enabled() {
                // Consult the destination's published health state before
                // handing the fleet over. Observational for now: the
                // testbed counts an unhealthy target rather than deferring
                // the migration, so detection quality is unaffected while
                // the signal is validated.
                cad3_obs::counter!("health.handover.checks").inc();
                let state = cad3_obs::registry()
                    .gauge(&cad3_obs::health::state_gauge_name(w.rsus[m.to].name()))
                    .value();
                if cad3_obs::HealthState::from_gauge(state) != cad3_obs::HealthState::Healthy {
                    cad3_obs::counter!("health.handover.unhealthy").inc();
                }
            }
            let fleet_size = w.fleets[m.from].len();
            let count = ((fleet_size as f64) * m.fraction.clamp(0.0, 1.0)).round() as usize;
            let mut moved = 0u32;
            // One export per migration event, taken on the first move: each
            // moved vehicle's summary is then looked up in it.
            let mut exported: Option<Vec<SummaryMessage>> = None;
            for veh_idx in 0..count.min(fleet_size) {
                if w.home[m.from][veh_idx] != m.from {
                    continue; // already migrated
                }
                w.home[m.from][veh_idx] = m.to;
                let vehicle = w.fleets[m.from][veh_idx].id();
                w.fleets[m.from][veh_idx].switch_pool(pools[veh_idx % pools.len()].clone());
                moved += 1;
                // The former RSU hands the vehicle's prediction summary to
                // the next RSU over the wired backhaul (Fig. 3, step 2).
                // The export is sorted by vehicle.
                let exported = exported.get_or_insert_with(|| w.rsus[m.from].export_summaries(now));
                let found = exported.binary_search_by_key(&vehicle, |s| s.vehicle).ok();
                handed_over.extend(found.and_then(|i| exported.get(i)).copied());
            }
            // The shared media see the new contender counts immediately.
            let from_contenders = w.channels[m.from].contenders().saturating_sub(moved);
            let to_contenders = w.channels[m.to].contenders() + moved;
            w.channels[m.from].set_contenders(from_contenders.max(1));
            w.channels[m.to].set_contenders(to_contenders);
        }
        for msg in handed_over {
            forward_summary(sim, &world, m.from, m.to, now, msg);
        }
    });
}

/// Sends a summary exported at `from` to RSU `to` over their wired link,
/// threading its trace lineage through the link's `net.link.tx` span. At
/// its arrival `to` receives it (lineage re-parented under the link span)
/// and its on-air bytes count toward `to`'s `CO-DATA` bandwidth.
fn forward_summary(
    sim: &mut Simulation,
    world: &Rc<RefCell<World>>,
    from: usize,
    to: usize,
    now: SimTime,
    msg: SummaryMessage,
) {
    let (msg, arrival, bytes) = {
        let w = &mut *world.borrow_mut();
        let bytes = msg.encoded_len() + w.wire_overhead;
        let link = w.links.get_mut(&(from, to)).expect("link created at setup");
        let ctx = msg.trace.map(|l| crate::collaboration::lineage_context(&l));
        let (arrival, continued) = link.transmit_traced(now, bytes, ctx);
        let trace = continued.map(|c| crate::collaboration::lineage_of(&c));
        (SummaryMessage { trace, ..msg }, arrival, bytes)
    };
    let world = Rc::clone(world);
    sim.schedule_at(arrival, move |_| {
        let mut w = world.borrow_mut();
        w.co_bytes[to] += bytes as u64;
        let _ = w.rsus[to].receive_summary_at(&msg, arrival);
    });
}

fn schedule_summary(
    sim: &mut Simulation,
    world: Rc<RefCell<World>>,
    from: usize,
    to: usize,
    at: SimTime,
    interval: SimDuration,
) {
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        let (messages, end) = {
            let w = world.borrow();
            (w.rsus[from].export_summaries(now), w.end)
        };
        for msg in messages {
            forward_summary(sim, &world, from, to, now, msg);
        }
        if now + interval < end {
            schedule_summary(sim, world, from, to, now + interval, interval);
        }
    });
}
