use crate::collaboration::{SummaryTracker, VehicleSummary};
use crate::config::ProcessingCostModel;
use crate::detector::{Detection, Detector};
use crate::CoreError;
use cad3_engine::Executor;
use cad3_stream::{
    Broker, Consumer, OffsetReset, SharedTopic, PAPER_PARTITIONS, TOPIC_CO_DATA, TOPIC_IN_DATA,
    TOPIC_OUT_DATA,
};
use cad3_types::{
    FeatureRecord, RsuId, SimDuration, SimTime, SummaryMessage, VehicleStatus, WarningKind,
    WarningMessage, WireDecode, WireEncode,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// How long a warning stays on an RSU's `OUT-DATA`: an append drops the
/// warnings stamped more than this before it.
///
/// A warning older than a collaborative system's hard deadline is of no use
/// to a driver (the 100 ms of SNIPPETS.md's Snippet 1, and the vehicles'
/// 100 ms update period). A fleet that polls more often than this — the
/// testbed's vehicles every 10 ms, the poll-interval ablation at most every
/// 50 ms — reads every warning before it goes; a reader that falls further
/// behind counts what it missed in `stream.consumer.skipped`.
pub const WARNING_DEADLINE: SimDuration = SimDuration::from_millis(100);

/// Outcome of one RSU micro-batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Records processed in this batch.
    pub records: usize,
    /// Modelled detection compute time.
    pub processing: SimDuration,
    /// Warnings produced, stamped `detected_at = batch start + processing`.
    /// The caller publishes them to `OUT-DATA` at that instant.
    pub warnings: Vec<WarningMessage>,
    /// Trace context for each warning, aligned index-for-index with
    /// `warnings` (`None` for warnings from unsampled records). The caller
    /// passes it to [`RsuNode::publish_warning_traced`] so the
    /// dissemination leg joins the record's end-to-end trace.
    pub warning_traces: Vec<Option<cad3_obs::TraceContext>>,
    /// Broker arrival of each warning's record (its `IN-DATA` timestamp),
    /// aligned index-for-index with `warnings`; not on the wire. It splits
    /// the path up to the batch into Fig. 6a's transmission and queuing.
    pub warning_arrivals: Vec<SimTime>,
    /// `CO-DATA` summaries consumed this batch.
    pub summaries_received: usize,
}

/// One road-side unit: a broker with the paper's three topics plus the
/// micro-batch detection pipeline (Fig. 3).
///
/// Each batch: (1) ingest `CO-DATA` summaries from the previous RSU into
/// the collaboration state, (2) pull the pending `IN-DATA` status packets,
/// (3) classify them as a parallel stage over the worker pool (the paper's
/// six-worker Spark cluster), partitioned by vehicle so each vehicle's
/// records stay ordered against its collaboration state, (4) emit warnings
/// for abnormal records, (5) commit the two polls, so the next append to
/// each `IN-DATA` and `CO-DATA` partition frees what the batch read.
/// `OUT-DATA` keeps one [`WARNING_DEADLINE`] of warnings. The node is the
/// only committing reader of its `IN-DATA` and `CO-DATA`: another reader
/// of them must poll between a batch and the next append.
pub struct RsuNode {
    id: RsuId,
    name: String,
    broker: Arc<Broker>,
    detector: Arc<dyn Detector>,
    executor: Executor,
    /// Per-vehicle collaboration state, sharded by vehicle hash so the
    /// parallel detection stage contends on nothing; shared with the
    /// stage's jobs, which outlive any borrow of the node.
    shards: Arc<[Mutex<SummaryTracker>]>,
    in_consumer: Consumer,
    co_consumer: Consumer,
    /// `OUT-DATA` and `CO-DATA`, looked up once: a warning or a summary is
    /// appended through its handle, past the broker's topic registry.
    out_topic: Arc<SharedTopic>,
    co_topic: Arc<SharedTopic>,
    cost_model: ProcessingCostModel,
    /// Pre-created `rsu.lag.<name>` gauge, the one lag signal: publishing
    /// from the batch path is a single atomic store (no name formatting, no
    /// registry lock).
    lag_gauge: cad3_obs::Handle<cad3_obs::Gauge>,
    /// Each shard's batch buffers, indexed by shard. A batch fills the
    /// buckets, moves the non-empty jobs out to the detect stage and puts
    /// them back when the stage returns them, so the buffers outlive the
    /// batch and stop allocating once warm.
    jobs: Vec<ShardJob>,
    /// The detect stage's input vector, kept for its capacity.
    dispatch: Vec<ShardJob>,
    /// The `CO-DATA` summaries a batch decoded, with their arrival stamps;
    /// emptied by the batch, kept for its capacity.
    summaries: Vec<(SummaryMessage, u64)>,
    records_processed: u64,
    warnings_produced: u64,
    batches: u64,
}

impl std::fmt::Debug for RsuNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsuNode")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("detector", &self.detector.name())
            .field("workers", &self.executor.workers())
            .field("records_processed", &self.records_processed)
            .field("warnings_produced", &self.warnings_produced)
            .field("batches", &self.batches)
            .finish()
    }
}

/// What a warning and a detect span need of a decoded record beside its
/// feature row: `(sent_at, arrival, seq, span_base, trace)`.
type Side = (SimTime, SimTime, u32, u64, Option<cad3_obs::TraceContext>);

/// A traced record's broker wait, `(span id, arrival ns, trace)`: what its
/// `rsu.queue` span needs.
type Queued = (u64, u64, cad3_obs::TraceContext);

/// One shard's buffers for a batch. The [`RsuNode`] owns one per shard; the
/// poll fills its bucket, the detect stage takes it and hands it back with
/// `queued`, `feats`, `sides` and `detections` emptied and `out` filled,
/// which the merge drains.
#[derive(Default)]
struct ShardJob {
    /// The tracker shard every record of the bucket keys to.
    shard: usize,
    /// The bucket's traced records, decodable or not, in arrival order.
    queued: Vec<Queued>,
    /// The bucket's decoded records as feature rows, in arrival order, and
    /// what rides beside each.
    feats: Vec<FeatureRecord>,
    sides: Vec<Side>,
    /// One detection per feature row.
    detections: Vec<Option<Detection>>,
    out: ShardOutput,
}

impl ShardJob {
    fn new(shard: usize) -> Self {
        ShardJob { shard, ..ShardJob::default() }
    }
}

/// One shard's share of a [`BatchResult`], each vector in the shard's
/// arrival order.
#[derive(Default)]
struct ShardOutput {
    /// Records that decoded, matched their key and got a detection.
    processed: u64,
    warnings: Vec<WarningMessage>,
    /// Both aligned index-for-index with `warnings`.
    warning_traces: Vec<Option<cad3_obs::TraceContext>>,
    warning_arrivals: Vec<SimTime>,
}

/// Index of the tracker shard (and detect bucket) owning `vehicle`, always
/// below `n_shards`.
fn shard_of(vehicle: u64, n_shards: usize) -> usize {
    (vehicle % n_shards as u64) as usize
}

impl RsuNode {
    /// Creates an RSU with a fresh broker holding the three paper topics
    /// (`IN-DATA`, `OUT-DATA`, `CO-DATA`, three partitions each) and the
    /// paper's six-worker executor.
    pub fn new(
        id: RsuId,
        name: impl Into<String>,
        detector: Arc<dyn Detector>,
        cost_model: ProcessingCostModel,
    ) -> Self {
        Self::with_executor(id, name, detector, cost_model, Executor::paper_default())
    }

    /// Creates an RSU with a custom worker pool.
    pub fn with_executor(
        id: RsuId,
        name: impl Into<String>,
        detector: Arc<dyn Detector>,
        cost_model: ProcessingCostModel,
        executor: Executor,
    ) -> Self {
        let name = name.into();
        let broker = Arc::new(Broker::new(name.clone()));
        // The paper's three topics; warnings and summaries are appended
        // through the handles of `OUT-DATA` and `CO-DATA`. `IN-DATA` and
        // `CO-DATA` are freed by this node's commits, `OUT-DATA`, which the
        // vehicles read, by the warning deadline.
        let [_, out_topic, co_topic] =
            [TOPIC_IN_DATA, TOPIC_OUT_DATA, TOPIC_CO_DATA].map(|topic| {
                (broker.create_topic(topic, PAPER_PARTITIONS))
                    .and_then(|()| broker.topic_handle(topic))
                    .expect("fresh broker has no topics")
            });
        out_topic.set_horizon(WARNING_DEADLINE.as_nanos());
        let mut in_consumer = Consumer::new(Arc::clone(&broker), "detector", OffsetReset::Earliest);
        in_consumer.subscribe(&[TOPIC_IN_DATA]).expect("topic just created");
        let mut co_consumer =
            Consumer::new(Arc::clone(&broker), "collaboration", OffsetReset::Earliest);
        co_consumer.subscribe(&[TOPIC_CO_DATA]).expect("topic just created");
        // Each shard's tracker is configured the way the detector was
        // trained (CAD3's summary road depth).
        let shards = (0..executor.workers()).map(|_| Mutex::new(detector.new_tracker())).collect();
        let jobs = (0..executor.workers()).map(ShardJob::new).collect();
        let lag_gauge =
            cad3_obs::registry().gauge(&format!("{}.{name}", cad3_obs::names::RSU_LAG_PREFIX));
        RsuNode {
            id,
            name,
            broker,
            detector,
            executor,
            shards,
            in_consumer,
            co_consumer,
            out_topic,
            co_topic,
            cost_model,
            lag_gauge,
            jobs,
            dispatch: Vec::new(),
            summaries: Vec::new(),
            records_processed: 0,
            warnings_produced: 0,
            batches: 0,
        }
    }

    /// The RSU's id.
    pub fn id(&self) -> RsuId {
        self.id
    }

    /// The RSU's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The RSU's broker (vehicles produce to / consume from it).
    pub fn broker(&self) -> Arc<Broker> {
        Arc::clone(&self.broker)
    }

    /// Total records processed.
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    /// Total warnings produced.
    pub fn warnings_produced(&self) -> u64 {
        self.warnings_produced
    }

    /// Total batches run.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Runs one micro-batch at virtual time `now`.
    ///
    /// # Errors
    ///
    /// Propagates stream errors; malformed messages, and status packets
    /// whose record key is not their vehicle id, are skipped (a real
    /// deployment logs and drops them).
    pub fn run_batch(&mut self, now: SimTime) -> Result<BatchResult, CoreError> {
        self.batches += 1;
        let _batch_span = cad3_obs::span!("rsu.micro_batch", self.batches);

        // 1. Collaboration input. The poll's visitor runs under a partition
        //    lock, so it only decodes; the shard locks are taken after it.
        let summaries = &mut self.summaries;
        let fuse_span = cad3_obs::span!("rsu.handover.fuse");
        self.co_consumer.poll_each(usize::MAX, |rec| {
            let mut buf = rec.value.clone();
            if let Ok(msg) = SummaryMessage::decode(&mut buf) {
                summaries.push((msg, rec.timestamp));
            }
        })?;
        let summaries_received = self.summaries.len();
        for (msg, arrival_ns) in self.summaries.drain(..) {
            let _held = cad3_lockrank::rank_scope!("cad3::RsuNode::shards");
            let shard = shard_of(msg.vehicle.raw(), self.shards.len());
            // hotpath-exempt(panic): `shard_of` is below `shards.len()`.
            let mut tracker = self.shards[shard].lock();
            tracker.seed(msg.vehicle, VehicleSummary::from_message(&msg));
            if let Some(lineage) = &msg.trace {
                // The fusion span covers the summary's wait in CO-DATA up to
                // this batch and links back to the previous RSU's spans
                // through the carried lineage; the continuation becomes the
                // vehicle's lineage on *this* RSU.
                let ctx = crate::collaboration::lineage_context(lineage);
                let span = cad3_obs::trace_span!(
                    "rsu.handover.fuse",
                    &ctx,
                    arrival_ns,
                    now.as_nanos(),
                    self.id.raw()
                );
                tracker.set_lineage(
                    msg.vehicle,
                    crate::collaboration::lineage_of(&ctx.next_hop(span)),
                );
            }
        }
        drop(fuse_span);
        cad3_obs::counter!("rsu.handover.summaries_in")
            .add(cad3_types::len_u64(summaries_received));

        // 2. Ingest the micro-batch straight into the shard buckets, by
        //    vehicle (the keyed partitioning the paper gets from Kafka's
        //    partitioner), each record decoded in place from the log: the
        //    bucket holds feature rows, not records.
        let ingest_span = cad3_obs::span!("rsu.ingest");
        let n_shards = self.jobs.len();
        let jobs = &mut self.jobs;
        let records = self.in_consumer.poll_each(usize::MAX, |rec| {
            // Kafka keys our status records with the vehicle id.
            let vehicle = rec
                .key
                .and_then(|k| <[u8; 8]>::try_from(k.as_ref()).ok())
                .map_or(0, u64::from_be_bytes);
            // hotpath-exempt(panic): one job per shard; `shard_of` is below that count.
            let job = &mut jobs[shard_of(vehicle, n_shards)];
            // A traced record's two span ids (rsu.queue, rsu.detect) are
            // reserved here, in input order on the batch thread; the
            // workers emit with these pre-assigned ids, so trace artifacts
            // never depend on worker schedule (0 = untraced, unused). Its
            // broker wait becomes an `rsu.queue` span (arrival at the log to
            // batch start) whether or not it decodes; the job emits it, as
            // the trace sink is a lock this visitor must not take.
            let (span_base, trace) = match rec.trace {
                Some(ctx) => {
                    let span_base = cad3_obs::trace::reserve_ids(2);
                    job.queued.push((span_base, rec.timestamp, ctx));
                    (span_base, Some(ctx.child(span_base)))
                }
                None => (0, None),
            };
            match VehicleStatus::decode_slice(rec.value) {
                // A payload naming another vehicle than its key is routed to
                // the wrong shard: observing it there would split that
                // vehicle's Eq. 1 history from the shard its CO-DATA seeds
                // land on. Dropped like a malformed one.
                Ok(status) if status.vehicle.raw() == vehicle => {
                    job.feats.push(status.to_feature());
                    let arrival = SimTime::from_nanos(rec.timestamp);
                    job.sides.push((status.sent_at, arrival, status.seq, span_base, trace));
                }
                _ => {}
            }
        })?;
        if cad3_obs::enabled() {
            // The poll drained IN-DATA, so what it visited is the backlog
            // that accumulated since the previous batch — the health
            // engine's per-RSU lag signal.
            self.lag_gauge.set(cad3_types::len_u64(records));
        }
        let processing = self.cost_model.batch_time(records);
        let detected_at = now + processing;

        // An empty bucket's output is empty and the merge below only appends,
        // so only the buckets that hold feature rows or queue spans are
        // dispatched (a batch with none or one of them runs inline on this
        // thread). A dispatched job leaves an empty one of its shard behind
        // until it comes back.
        let mut dispatch = std::mem::take(&mut self.dispatch);
        dispatch.extend(
            (self.jobs.iter_mut())
                .filter(|job| !job.feats.is_empty() || !job.queued.is_empty())
                .map(|job| std::mem::replace(job, ShardJob::new(job.shard))),
        );
        drop(ingest_span);
        let detect_span = cad3_obs::span!("rsu.detect", cad3_types::len_u64(records));

        // 3-4. Detect in parallel per shard; within a shard, a vehicle's
        //      records run in order against its summary state.
        let detector = Arc::clone(&self.detector);
        let shards = Arc::clone(&self.shards);
        let node = self.id.raw();
        let mut outputs = Executor::run(&self.executor, dispatch, move |mut job: ShardJob| {
            let ShardJob { shard, queued, feats, sides, detections, out } = &mut job;
            let _held = cad3_lockrank::rank_scope!("cad3::RsuNode::shards");
            // Every record of the bucket keys to this one shard.
            // hotpath-exempt(panic): a job's `shard` is below `shards.len()`.
            let mut tracker = shards[*shard].lock();

            // Phase 1: the queue spans in input order, each on the first of
            // its record's pre-reserved ids.
            for (span_base, arrived_ns, ctx) in queued.drain(..) {
                cad3_obs::trace_span_at!(
                    "rsu.queue",
                    span_base,
                    &ctx,
                    arrived_ns,
                    now.as_nanos(),
                    node
                );
            }

            // Phase 2: one column-major detect sweep over the shard's
            // records. The tracker observes each stage-1 probability in
            // record order through the hook, so a vehicle's later
            // records see exactly the summary state the scalar loop
            // would have produced.
            let feats: &[FeatureRecord] = feats;
            {
                // Profile-only stage (no recorder write): safe inside
                // worker threads where span records would race the ring.
                let _sweep = cad3_obs::profile_span!("ml.nb.sweep");
                detector.detect_batch(
                    feats,
                    &mut |i, p1| feats.get(i).and_then(|f| tracker.observe(f.vehicle, f.road, p1)),
                    detections,
                );
            }

            // Phase 3: the verdicts in input order — detect spans on the
            // pre-reserved ids, warnings for abnormal records. A record
            // without a detection was not processed.
            for ((feat, (sent_at, arrival, seq, span_base, trace)), detection) in
                feats.iter().zip(sides.drain(..)).zip(detections.drain(..))
            {
                let Some(detection) = detection else { continue };
                out.processed += 1;
                let trace = trace.map(|ctx| {
                    let span = cad3_obs::trace_span_at!(
                        "rsu.detect",
                        span_base + 1,
                        &ctx,
                        now.as_nanos(),
                        detected_at.as_nanos(),
                        node
                    );
                    let next = ctx.child(span);
                    // The vehicle's latest sampled lineage rides the
                    // next CO-DATA export across the handover.
                    tracker.set_lineage(feat.vehicle, crate::collaboration::lineage_of(&next));
                    next
                });
                if detection.label.is_abnormal() {
                    out.warnings.push(WarningMessage {
                        vehicle: feat.vehicle,
                        road: feat.road,
                        kind: WarningKind::classify(
                            feat.speed_kmh,
                            feat.road_speed_kmh,
                            feat.accel_mps2,
                        ),
                        probability: detection.p_abnormal,
                        source_sent_at: sent_at,
                        detected_at,
                        source_seq: seq,
                    });
                    out.warning_traces.push(trace);
                    out.warning_arrivals.push(arrival);
                }
            }
            job.feats.clear();
            job
        });
        drop(detect_span);

        // Shard by shard, each in arrival order. Each job's vectors are
        // drained, not moved, so they keep their capacity for the next batch.
        let n_warnings = outputs.iter().map(|job| job.out.warnings.len()).sum();
        let mut warnings = Vec::with_capacity(n_warnings);
        let mut warning_traces = Vec::with_capacity(n_warnings);
        let mut warning_arrivals = Vec::with_capacity(n_warnings);
        for mut job in outputs.drain(..) {
            // `Vec::append` by path: the analyzer resolves a bare
            // `.append(..)` to `SharedTopic::append` as well.
            Vec::append(&mut warnings, &mut job.out.warnings);
            Vec::append(&mut warning_traces, &mut job.out.warning_traces);
            Vec::append(&mut warning_arrivals, &mut job.out.warning_arrivals);
            self.records_processed += std::mem::take(&mut job.out.processed);
            if let Some(slot) = self.jobs.get_mut(job.shard) {
                *slot = job;
            }
        }
        self.dispatch = outputs;
        // The batch is processed: commit both polls (Kafka's at-least-once
        // commit), so the next append to each partition frees what they read.
        self.in_consumer.commit()?;
        self.co_consumer.commit()?;
        self.warnings_produced += warnings.len() as u64;
        cad3_obs::counter!("rsu.records").add(cad3_types::len_u64(records));
        cad3_obs::counter!("rsu.warnings").add(cad3_types::len_u64(warnings.len()));
        Ok(BatchResult {
            records,
            processing,
            warnings,
            warning_traces,
            warning_arrivals,
            summaries_received,
        })
    }

    /// Publishes a warning to this RSU's `OUT-DATA` topic (done by the
    /// testbed at the warning's `detected_at` instant), with its trace
    /// context (from [`BatchResult::warning_traces`]; `None` for an
    /// untraced warning) attached to the record, so the dissemination poll
    /// can attribute delivery latency to the originating trace.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn publish_warning_traced(
        &self,
        warning: &WarningMessage,
        trace: Option<cad3_obs::TraceContext>,
    ) -> Result<(), CoreError> {
        // The encoding opens with the big-endian vehicle id: the key shares
        // the value's allocation.
        let value = warning.encode_to_bytes();
        self.out_topic.append(
            None,
            Some(value.slice(..8)),
            value,
            warning.detected_at.as_nanos(),
            trace,
        )?;
        Ok(())
    }

    /// Exports the current per-vehicle summaries for forwarding to an
    /// adjacent RSU's `CO-DATA` (the handover flow of Fig. 3, step 2).
    pub fn export_summaries(&self, now: SimTime) -> Vec<SummaryMessage> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let _held = cad3_lockrank::rank_scope!("cad3::RsuNode::shards");
            let tracker = shard.lock();
            out.extend(
                tracker.vehicles().into_iter().filter_map(|v| tracker.export(v, self.id, now)),
            );
        }
        out.sort_by_key(|m| m.vehicle);
        cad3_obs::counter!("rsu.handover.summaries_out").add(cad3_types::len_u64(out.len()));
        out
    }

    /// Accepts a summary message into this RSU's `CO-DATA` topic at its
    /// arrival time `at` (after link delay), so the fusion trace span
    /// measures the summary's wait in `CO-DATA` from actual arrival rather
    /// than from send.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn receive_summary_at(&self, msg: &SummaryMessage, at: SimTime) -> Result<(), CoreError> {
        // The encoding opens with the big-endian vehicle id: the key shares
        // the value's allocation.
        let value = msg.encode_to_bytes();
        self.co_topic.append(None, Some(value.slice(..8)), value, at.as_nanos(), None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{train_all, DetectionConfig};
    use crate::VehicleAgent;
    use bytes::Bytes;
    use cad3_data::{DatasetConfig, SyntheticDataset};
    use cad3_types::{Label, VehicleId};

    fn rsu_with_vehicles() -> (RsuNode, Vec<VehicleAgent>, SyntheticDataset) {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(51));
        let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
        let rsu = RsuNode::new(
            RsuId(1),
            "rsu-motorway",
            Arc::new(models.cad3),
            ProcessingCostModel::default(),
        );
        let vehicles = (0..4)
            .map(|i| {
                VehicleAgent::new(
                    VehicleId(900 + i),
                    ds.features[i as usize * 50..(i as usize + 1) * 50].to_vec(),
                )
            })
            .collect();
        (rsu, vehicles, ds)
    }

    fn push_status(rsu: &RsuNode, status: &VehicleStatus, arrival: SimTime) {
        let key = status.vehicle.raw().to_be_bytes();
        rsu.broker()
            .produce_traced(
                TOPIC_IN_DATA,
                None,
                Some(Bytes::copy_from_slice(&key)),
                status.encode_to_bytes(),
                arrival.as_nanos(),
                None,
            )
            .unwrap();
    }

    #[test]
    fn creates_paper_topics_and_workers() {
        let (rsu, _, _) = rsu_with_vehicles();
        assert_eq!(rsu.broker().topic_names(), vec!["CO-DATA", "IN-DATA", "OUT-DATA"]);
        assert_eq!(rsu.name(), "rsu-motorway");
        assert_eq!(rsu.id(), RsuId(1));
        assert!(format!("{rsu:?}").contains("workers: 6"));
    }

    #[test]
    fn batch_processes_pending_records_once() {
        let (mut rsu, mut vehicles, _) = rsu_with_vehicles();
        for v in &mut vehicles {
            let s = v.next_status(SimTime::from_millis(10));
            push_status(&rsu, &s, SimTime::from_millis(11));
        }
        let r1 = rsu.run_batch(SimTime::from_millis(50)).unwrap();
        assert_eq!(r1.records, 4);
        // Processing follows the calibrated cost model.
        assert!((r1.processing.as_millis_f64() - 7.29).abs() < 0.05);
        let r2 = rsu.run_batch(SimTime::from_millis(100)).unwrap();
        assert_eq!(r2.records, 0, "no duplicates");
        assert_eq!(rsu.batches(), 2);
    }

    #[test]
    fn abnormal_records_yield_warnings_with_latency_stamps() {
        let (mut rsu, _, ds) = rsu_with_vehicles();
        // Hand-craft a blatantly abnormal status: far above road speed.
        let template = ds.features.iter().find(|f| f.label == Label::Abnormal).copied().unwrap();
        let mut agent = VehicleAgent::new(VehicleId(999), vec![template]);
        let status = agent.next_status(SimTime::from_millis(5));
        push_status(&rsu, &status, SimTime::from_millis(6));
        let now = SimTime::from_millis(50);
        let result = rsu.run_batch(now).unwrap();
        assert_eq!(result.records, 1);
        if let Some(w) = result.warnings.first() {
            assert_eq!(w.vehicle, VehicleId(999));
            assert_eq!(w.source_sent_at, SimTime::from_millis(5));
            assert_eq!(w.detected_at, now + result.processing);
            rsu.publish_warning_traced(w, None).unwrap();
            assert_eq!(rsu.broker().topic_len(TOPIC_OUT_DATA).unwrap(), 1);
        }
    }

    #[test]
    fn co_data_summaries_seed_the_tracker() {
        let (mut rsu, mut vehicles, _) = rsu_with_vehicles();
        let v = vehicles[0].id();
        let msg = SummaryMessage {
            vehicle: v,
            from_rsu: RsuId(9),
            count: 30,
            mean_probability: 0.97,
            last_class: 0,
            sent_at: SimTime::from_millis(1),
            trace: None,
        };
        rsu.receive_summary_at(&msg, msg.sent_at).unwrap();
        let s = vehicles[0].next_status(SimTime::from_millis(10));
        push_status(&rsu, &s, SimTime::from_millis(12));
        let result = rsu.run_batch(SimTime::from_millis(50)).unwrap();
        assert_eq!(result.summaries_received, 1);
        assert_eq!(result.records, 1);
        // The seeded history is now exportable.
        let exported = rsu.export_summaries(SimTime::from_millis(60));
        let mine = exported.iter().find(|m| m.vehicle == v).unwrap();
        assert!(mine.count >= 30);
    }

    #[test]
    fn export_summaries_cover_observed_vehicles() {
        let (mut rsu, mut vehicles, _) = rsu_with_vehicles();
        for v in &mut vehicles {
            let s = v.next_status(SimTime::from_millis(10));
            push_status(&rsu, &s, SimTime::from_millis(11));
        }
        rsu.run_batch(SimTime::from_millis(50)).unwrap();
        let summaries = rsu.export_summaries(SimTime::from_millis(60));
        assert_eq!(summaries.len(), 4);
        // Sorted by vehicle for deterministic forwarding.
        for w in summaries.windows(2) {
            assert!(w[0].vehicle < w[1].vehicle);
        }
        for s in &summaries {
            assert!(s.count >= 1);
            assert!((0.0..=1.0).contains(&s.mean_probability));
            assert_eq!(s.from_rsu, RsuId(1));
        }
    }

    #[test]
    fn traced_records_and_lineage_flow_through_a_batch() {
        let _serial =
            crate::testutil::TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (mut rsu, mut vehicles, _) = rsu_with_vehicles();
        // A sampled IN-DATA record carries its context into the batch.
        let v = vehicles[0].id();
        let status = vehicles[0].next_status(SimTime::from_millis(10));
        let ctx = cad3_obs::TraceContext::from_parts(4242, 1, 1);
        rsu.broker()
            .produce_traced(
                TOPIC_IN_DATA,
                None,
                Some(Bytes::copy_from_slice(&status.vehicle.raw().to_be_bytes())),
                status.encode_to_bytes(),
                SimTime::from_millis(11).as_nanos(),
                Some(ctx),
            )
            .unwrap();
        // A lineage-bearing CO-DATA summary links the fusion back to the
        // previous RSU's trace.
        let other = vehicles[1].id();
        rsu.receive_summary_at(
            &SummaryMessage {
                vehicle: other,
                from_rsu: RsuId(9),
                count: 3,
                mean_probability: 0.5,
                last_class: 1,
                sent_at: SimTime::from_millis(1),
                trace: Some(cad3_types::TraceLineage { trace_id: 777, parent_span: 5, hop: 2 }),
            },
            SimTime::from_millis(2),
        )
        .unwrap();
        let now = SimTime::from_millis(50);
        let result = rsu.run_batch(now).unwrap();
        assert_eq!(result.records, 1);
        assert_eq!(result.summaries_received, 1);
        assert_eq!(result.warnings.len(), result.warning_traces.len());

        let events = cad3_obs::trace::sink().drain();
        let mine: Vec<_> = events.iter().filter(|e| e.trace_id == 4242).collect();
        let names: Vec<&str> = mine.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["rsu.queue", "rsu.detect"]);
        assert!(mine.iter().all(|e| e.node == 1), "attributed to this RSU");
        assert_eq!(mine[0].start_ns, SimTime::from_millis(11).as_nanos());
        assert_eq!(mine[0].end_ns, now.as_nanos());
        assert_eq!(mine[1].parent, mine[0].span, "detect chains under queue");
        let fused: Vec<_> = events.iter().filter(|e| e.trace_id == 777).collect();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].name, "rsu.handover.fuse");
        assert_eq!(fused[0].parent, 5, "links back to the sender's lineage");
        assert_eq!(fused[0].start_ns, SimTime::from_millis(2).as_nanos());
        assert_eq!(fused[0].end_ns, now.as_nanos());

        // Both vehicles' next exports continue their traces.
        let exported = rsu.export_summaries(SimTime::from_millis(60));
        let mine_export = exported.iter().find(|m| m.vehicle == v).unwrap().trace.unwrap();
        assert_eq!(mine_export.trace_id, 4242);
        assert_eq!(mine_export.parent_span, mine[1].span, "lineage points at the detect span");
        let other_export = exported.iter().find(|m| m.vehicle == other).unwrap().trace.unwrap();
        assert_eq!(other_export.trace_id, 777);
        assert_eq!(other_export.parent_span, fused[0].span);
        assert_eq!(other_export.hop, 3, "fusion bumps the hop count");
    }

    #[test]
    fn malformed_messages_are_skipped_not_fatal() {
        let (mut rsu, _, _) = rsu_with_vehicles();
        let garbage = Bytes::from_static(b"garbage");
        rsu.broker().produce_traced(TOPIC_IN_DATA, None, None, garbage, 0, None).unwrap();
        let result = rsu.run_batch(SimTime::from_millis(50)).unwrap();
        assert_eq!(result.records, 1, "the record is consumed");
        assert!(result.warnings.is_empty(), "but produces nothing");
        assert_eq!(rsu.records_processed(), 0);
    }

    #[test]
    fn statuses_keyed_by_another_vehicle_are_skipped() {
        let (mut rsu, mut vehicles, _) = rsu_with_vehicles();
        let status = vehicles[0].next_status(SimTime::from_millis(10));
        let wrong_key = (status.vehicle.raw() + 1).to_be_bytes();
        for key in [None, Some(Bytes::copy_from_slice(&wrong_key))] {
            let value = status.encode_to_bytes();
            rsu.broker().produce_traced(TOPIC_IN_DATA, None, key, value, 0, None).unwrap();
        }
        let result = rsu.run_batch(SimTime::from_millis(50)).unwrap();
        assert_eq!(result.records, 2, "both records are consumed");
        assert_eq!(rsu.records_processed(), 0, "but neither is processed");
        assert!(
            rsu.export_summaries(SimTime::from_millis(60)).is_empty(),
            "nor observed on the shard its key routed it to"
        );
    }

    /// The RSU's trackers keep the summary depth the detector was trained
    /// with: a depth-1 CAD3 forgets all but the last finished road.
    #[test]
    fn shard_trackers_keep_the_detectors_summary_depth() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(51));
        let config = DetectionConfig { summary_road_depth: Some(1), ..DetectionConfig::default() };
        let models = train_all(&ds.features, &config).unwrap();
        let mut rsu = RsuNode::with_executor(
            RsuId(1),
            "rsu-depth",
            Arc::new(models.cad3),
            ProcessingCostModel::default(),
            Executor::new(1),
        );
        // Two records on each of three roads.
        let roads = [7, 7, 8, 8, 9, 9].map(cad3_types::RoadId);
        let trip = roads.map(|road| cad3_types::FeatureRecord { road, ..ds.features[0] });
        let mut agent = VehicleAgent::new(VehicleId(77), trip.to_vec());
        for step in 0..trip.len() as u64 {
            let s = agent.next_status(SimTime::from_millis(step * 10));
            push_status(&rsu, &s, SimTime::from_millis(step * 10 + 1));
        }
        assert_eq!(rsu.run_batch(SimTime::from_millis(100)).unwrap().records, 6);
        let exported = rsu.export_summaries(SimTime::from_millis(110));
        let mine = exported.iter().find(|m| m.vehicle == VehicleId(77)).unwrap();
        // Road 8 (the one remembered road) plus road 9 in progress; an
        // unbounded tracker would also count road 7's two records.
        assert_eq!(mine.count, 4);
    }

    #[test]
    fn parallel_sharding_matches_sequential_single_worker() {
        // The same traffic through a 6-worker RSU and a 1-worker RSU must
        // yield identical detection outcomes.
        let ds = SyntheticDataset::generate(&DatasetConfig::small(53));
        let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
        let det: Arc<dyn Detector> = Arc::new(models.cad3);
        let mut parallel =
            RsuNode::new(RsuId(1), "p", Arc::clone(&det), ProcessingCostModel::default());
        let mut sequential = RsuNode::with_executor(
            RsuId(2),
            "s",
            det,
            ProcessingCostModel::default(),
            Executor::new(1),
        );
        let mut agents: Vec<VehicleAgent> = (0..12)
            .map(|i| VehicleAgent::new(VehicleId(i + 1), ds.features[..400].to_vec()))
            .collect();
        for step in 0..20u64 {
            for a in &mut agents {
                let s = a.next_status(SimTime::from_millis(step * 100));
                push_status(&parallel, &s, SimTime::from_millis(step * 100 + 1));
                push_status(&sequential, &s, SimTime::from_millis(step * 100 + 1));
            }
            let now = SimTime::from_millis(step * 100 + 50);
            let rp = parallel.run_batch(now).unwrap();
            let rs = sequential.run_batch(now).unwrap();
            assert_eq!(rp.records, rs.records);
            let mut wp: Vec<_> = rp.warnings.iter().map(|w| (w.vehicle, w.source_seq)).collect();
            let mut ws: Vec<_> = rs.warnings.iter().map(|w| (w.vehicle, w.source_seq)).collect();
            wp.sort_unstable();
            ws.sort_unstable();
            assert_eq!(wp, ws, "step {step}");
        }
        assert_eq!(parallel.records_processed(), sequential.records_processed());
    }
}
