//! One round: a fresh RSU (or two) stepped through the round's pre-encoded
//! inputs in a closed loop on the calling thread, through public functions
//! only. The next step starts when the previous one returns.
//!
//! Arrival is virtual: records carry the stamp `DsrcChannel::send` gives
//! them and batches tick in `SimTime`, so the wall clock measures service
//! time, never the batch-interval wait.

use crate::inputs::{verdict_checksum, Inputs, EXPORT_EVERY, WIRE_OVERHEAD};
use crate::spans::{Name, SpanId, Tracer};
use cad3::detector::Detector;
use cad3::{lineage_context, lineage_of, ProcessingCostModel, RsuNode, SummaryTracker};
use cad3_engine::{Executor, PartitionedDataset};
use cad3_net::{DsrcChannel, HtbShaper, MacModel, Mcs, WiredLink};
use cad3_sim::SimRng;
use cad3_stream::{Broker, Consumer, OffsetReset, TOPIC_CO_DATA, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_types::{
    FeatureRecord, RsuId, SimTime, SummaryMessage, VehicleId, VehicleStatus, WarningMessage,
    WireDecode, WireEncode,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Head-sampling rate of the obs-on rounds.
pub const OBS_SAMPLE_RATE: f64 = 0.01;

/// How one round is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConfig {
    /// Worker count of every RSU's executor.
    pub workers: usize,
    /// Run with `cad3_obs` enabled and [`OBS_SAMPLE_RATE`] head sampling.
    pub obs: bool,
}

/// Counts of one round. Each repeats exactly for a given seed and workload,
/// whatever the worker count, the obs switch or the tracer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Records produced into `IN-DATA`.
    pub produced: u64,
    /// Key + value bytes produced into `IN-DATA`.
    pub bytes_in: u64,
    /// `RsuNode::records_processed`, over every RSU.
    pub records_processed: u64,
    /// `RsuNode::batches`, over every RSU.
    pub batches: u64,
    /// Warnings returned by `run_batch` and published to `OUT-DATA`.
    pub warnings: u64,
    /// Warnings polled and decoded by the fleet consumers.
    pub delivered: u64,
    /// Summaries exported and sent over the wired link.
    pub summaries_out: u64,
    /// Summaries the receiving RSU's batches consumed from `CO-DATA`.
    pub summaries_in: u64,
    /// `Broker::topic_len` over the three topics of every RSU at round end.
    pub retained_records: u64,
    /// Stream or codec errors met anywhere in the round.
    pub stream_errors: u64,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    /// Exact counts.
    pub counts: Counts,
    /// [`verdict_checksum`] over the warnings the fleet consumers decoded.
    pub checksum: u64,
    /// Wall time of each step, nanoseconds.
    pub step_ns: Vec<u64>,
    /// Wall time from the start of `run_batch` to the batch's last warning
    /// decoded by the fleet consumer, one sample per RSU batch.
    pub verdict_ns: Vec<u64>,
    /// `run_batch` wall time of the batches that consumed summaries (only
    /// measured while the tracer records).
    pub batch_with_summaries_ns: Vec<u64>,
    /// Rows the detect probe saw (0 unless the tracer records).
    pub probe_rows: u64,
    /// On-air megabits per virtual second on the busiest DSRC channel.
    pub offered_mbps: f64,
    /// Trace events the obs sink collected during the round.
    pub trace_events: u64,
    /// Resident set at the end of the round, when the logs are largest, MiB.
    pub rss_mb: f64,
}

impl RoundResult {
    /// Summed step wall time.
    pub fn timed_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    /// Records through the round ÷ summed step wall time.
    pub fn records_per_s(&self) -> f64 {
        self.counts.produced as f64 * 1e9 / self.timed_ns().max(1) as f64
    }
}

struct Rsu {
    node: RsuNode,
    broker: Arc<Broker>,
    channel: DsrcChannel,
    /// The fleet's representative `OUT-DATA` consumer.
    fleet: Consumer,
    probe: Probe,
}

/// Re-issues one layer's public call on the step's batch, outside the step.
struct Probe {
    consumer: Consumer,
    tracker: SummaryTracker,
    rows: Vec<FeatureRecord>,
}

fn consumer(broker: &Arc<Broker>, group: &str, topic: &str) -> Consumer {
    let mut c = Consumer::new(Arc::clone(broker), group, OffsetReset::Earliest);
    c.subscribe(&[topic]).expect("RsuNode creates the three paper topics");
    c
}

impl Rsu {
    fn new(index: usize, inputs: &Inputs, config: RoundConfig) -> Rsu {
        let rsu = &inputs.rsus[index];
        let node = RsuNode::with_executor(
            RsuId(index as u32),
            rsu.name,
            Arc::clone(&inputs.detector),
            ProcessingCostModel::default(),
            Executor::new(config.workers),
        );
        let broker = node.broker();
        // The testbed channel: high-rate MCS under the paper's HTB shaping.
        let channel = DsrcChannel::new(
            MacModel::default(),
            Mcs::MCS8,
            HtbShaper::paper_default(),
            rsu.fleet,
            inputs.workload.tick().mul(2),
        );
        Rsu {
            fleet: consumer(&broker, "fleet", TOPIC_OUT_DATA),
            probe: Probe {
                consumer: consumer(&broker, "probe", TOPIC_IN_DATA),
                tracker: inputs.detector.new_tracker(),
                rows: Vec::new(),
            },
            node,
            broker,
            channel,
        }
    }
}

impl Probe {
    /// The four probes on the batch the step just processed.
    fn run(&mut self, tracer: &mut Tracer, detector: &dyn Detector, executor: &Executor) -> u64 {
        let span = tracer.open(Name::ProbePoll, SpanId::NONE);
        let batch = self.consumer.poll(usize::MAX).unwrap_or_default();
        tracer.close(span);

        let span = tracer.open(Name::ProbeDecode, SpanId::NONE);
        self.rows.clear();
        for rec in &batch {
            let mut buf = rec.value.clone();
            if let Ok(status) = VehicleStatus::decode(&mut buf) {
                self.rows.push(status.to_feature());
            }
        }
        tracer.close(span);

        let span = tracer.open(Name::ProbeDetect, SpanId::NONE);
        let (rows, tracker) = (&self.rows, &mut self.tracker);
        let mut detections = Vec::with_capacity(rows.len());
        detector.detect_batch(
            rows,
            &mut |i, p1| tracker.observe(rows[i].vehicle, rows[i].road, p1),
            &mut detections,
        );
        black_box(&detections);
        tracer.close(span);

        let span = tracer.open(Name::ProbeFanout, SpanId::NONE);
        let empty = PartitionedDataset::from_partitions(vec![Vec::<u8>::new(); executor.workers()]);
        black_box(empty.map_partitions(executor, |_| Vec::<u8>::new()));
        tracer.close(span);
        rows.len() as u64
    }
}

/// `VmRSS` of this process in MiB (0 where `/proc` is unavailable).
fn resident_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sends exported summaries from one RSU to the next over the wired link,
/// threading trace lineage through the link span as `Testbed` does.
fn forward_summaries(
    messages: Vec<SummaryMessage>,
    link: &mut WiredLink,
    to: &RsuNode,
    now: SimTime,
    tracer: &mut Tracer,
    step_span: SpanId,
    counts: &mut Counts,
) {
    let span = tracer.open(Name::FuseLinkTx, step_span);
    let sent: Vec<(SummaryMessage, SimTime)> = messages
        .into_iter()
        .map(|msg| {
            let ctx = msg.trace.map(|l| lineage_context(&l));
            let (arrival, continued) =
                link.transmit_traced(now, msg.encoded_len() + WIRE_OVERHEAD, ctx);
            (SummaryMessage { trace: continued.map(|c| lineage_of(&c)), ..msg }, arrival)
        })
        .collect();
    tracer.close(span);

    let span = tracer.open(Name::FuseReceive, step_span);
    counts.summaries_out += sent.len() as u64;
    for (msg, arrival) in &sent {
        if to.receive_summary_at(msg, *arrival).is_err() {
            counts.stream_errors += 1;
        }
    }
    tracer.close(span);
}

/// Runs one round of `inputs` under `config`. While `tracer` records, every
/// layer boundary gets a span and the four probes follow each step.
pub fn run_round(inputs: &Inputs, config: RoundConfig, tracer: &mut Tracer) -> RoundResult {
    let workload = inputs.workload;
    cad3_obs::set_enabled(config.obs);
    cad3_obs::trace::set_sample_rate(if config.obs { OBS_SAMPLE_RATE } else { 0.0 });

    let executor = Executor::new(config.workers);
    let mut rsus: Vec<Rsu> = (0..inputs.rsus.len()).map(|i| Rsu::new(i, inputs, config)).collect();
    let mut link = WiredLink::gigabit_ethernet();
    let mut rng = SimRng::seed_from(inputs.seed).fork(1);
    let mut out = RoundResult::default();
    let mut counts = Counts::default();
    let mut verdicts: Vec<(u64, u32, u64)> = Vec::new();
    let mut arrivals: Vec<SimTime> = Vec::new();
    let tick = workload.tick();

    for step in 0..workload.steps {
        let now = SimTime::ZERO + tick.mul(step as u64 + 1);
        let t0 = Instant::now();
        let step_span = tracer.open(Name::Step, SpanId::NONE);

        // 1. Ingest: every record over DSRC, then into IN-DATA with the
        //    arrival stamp the channel gave it.
        let ingest = tracer.open(Name::Ingest, step_span);
        let span = tracer.open(Name::DsrcSend, ingest);
        arrivals.clear();
        for (rsu, input) in rsus.iter_mut().zip(&inputs.rsus) {
            for p in &input.steps[step] {
                let on_air = p.value.len() + WIRE_OVERHEAD;
                arrivals.push(rsu.channel.send(&mut rng, p.sender, p.sent_at, on_air));
            }
        }
        tracer.close(span);
        let span = tracer.open(Name::Produce, ingest);
        let packets = rsus
            .iter()
            .zip(&inputs.rsus)
            .flat_map(|(r, i)| i.steps[step].iter().map(move |p| (&r.broker, p)));
        for ((broker, p), arrival) in packets.zip(&arrivals) {
            let produced = broker.produce_traced(
                TOPIC_IN_DATA,
                None,
                Some(p.key.clone()),
                p.value.clone(),
                arrival.as_nanos(),
                cad3_obs::trace::mint(),
            );
            match produced {
                Ok(_) => {
                    counts.produced += 1;
                    counts.bytes_in += (p.key.len() + p.value.len()) as u64;
                }
                Err(_) => counts.stream_errors += 1,
            }
        }
        tracer.close(span);
        tracer.close(ingest);

        // 2–4. Batch, publish, and the fleet's poll + decode, per RSU.
        for rsu in &mut rsus {
            let t1 = Instant::now();
            let span = tracer.open(Name::RunBatch, step_span);
            let result = rsu.node.run_batch(now);
            tracer.close(span);
            let Ok(result) = result else {
                counts.stream_errors += 1;
                continue;
            };
            counts.summaries_in += result.summaries_received as u64;
            if result.summaries_received > 0 && tracer.enabled() {
                out.batch_with_summaries_ns.push(tracer.duration_ns(span));
            }

            let span = tracer.open(Name::Publish, step_span);
            for (warning, trace) in result.warnings.iter().zip(&result.warning_traces) {
                match rsu.node.publish_warning_traced(warning, *trace) {
                    Ok(()) => counts.warnings += 1,
                    Err(_) => counts.stream_errors += 1,
                }
            }
            tracer.close(span);

            let span = tracer.open(Name::PollDecode, step_span);
            for rec in rsu.fleet.poll(usize::MAX).unwrap_or_default() {
                let mut buf = rec.value;
                match WarningMessage::decode(&mut buf) {
                    Ok(w) => {
                        verdicts.push((w.vehicle.raw(), w.source_seq, w.probability.to_bits()))
                    }
                    Err(_) => counts.stream_errors += 1,
                }
            }
            tracer.close(span);
            out.verdict_ns.push(t1.elapsed().as_nanos() as u64);
        }

        // Handover: periodic CO-DATA exports from RSU 0 to RSU 1, and the
        // per-vehicle summaries of the fleet that migrates next step.
        if workload.handover {
            let migrates_next = Some(step + 1) == workload.migration_step();
            let exports = step > 0 && step % EXPORT_EVERY == 0;
            if exports || migrates_next {
                let (from, to) = rsus.split_at_mut(1);
                let span = tracer.open(Name::FuseExport, step_span);
                let exported = from[0].node.export_summaries(now);
                tracer.close(span);
                let leaving = |v: VehicleId| inputs.migrating.binary_search(&v).is_ok();
                let messages = if exports {
                    exported
                } else {
                    exported.into_iter().filter(|m| leaving(m.vehicle)).collect()
                };
                forward_summaries(
                    messages,
                    &mut link,
                    &to[0].node,
                    now,
                    tracer,
                    step_span,
                    &mut counts,
                );
                if migrates_next {
                    let moved = inputs.migrating.len() as u32;
                    let stay = from[0].channel.contenders().saturating_sub(moved).max(1);
                    from[0].channel.set_contenders(stay);
                    to[0].channel.set_contenders(to[0].channel.contenders() + moved);
                }
            }
        }
        tracer.close(step_span);
        out.step_ns.push(t0.elapsed().as_nanos() as u64);

        if tracer.enabled() {
            for rsu in &mut rsus {
                out.probe_rows += rsu.probe.run(tracer, inputs.detector.as_ref(), &executor);
            }
        }
        tracer.next_step();
    }

    out.rss_mb = resident_mb();
    cad3_obs::set_enabled(false);
    cad3_obs::trace::set_sample_rate(0.0);
    out.trace_events = cad3_obs::trace::sink().drain().len() as u64;

    let virtual_s = tick.mul(workload.steps as u64).as_secs_f64();
    for rsu in &rsus {
        counts.records_processed += rsu.node.records_processed();
        counts.batches += rsu.node.batches();
        for topic in [TOPIC_IN_DATA, TOPIC_OUT_DATA, TOPIC_CO_DATA] {
            counts.retained_records += rsu.broker.topic_len(topic).unwrap_or(0) as u64;
        }
        let mbps = rsu.channel.stats().bytes as f64 * 8.0 / virtual_s / 1e6;
        out.offered_mbps = out.offered_mbps.max(mbps);
    }
    counts.delivered = verdicts.len() as u64;
    out.checksum = verdict_checksum(&mut verdicts);
    out.counts = counts;
    out
}
