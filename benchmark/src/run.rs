//! One benchmark run of one workload: set-up, rounds until the time is up,
//! verification against the reference, and the metrics of `BENCHMARK.json`.

use crate::inputs::{scalar_oracle, Corpus, Inputs, Workload};
use crate::round::{run_round, RoundConfig, RoundResult};
use crate::spans::{self_times_ns, Name, Tracer};
use crate::stats::{median, percentile, quietest_round_percentile, round_percentiles};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The DSRC channel's ceiling, Mb/s: a workload must offer less.
const DSRC_CEILING_MBPS: f64 = 27.0;

/// Allowed distance of `bench.step_sum_share` from 1.
const STEP_SUM_TOLERANCE: f64 = 0.05;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run produced.
pub struct Outcome {
    /// Operations attempted over every round: records produced, warnings
    /// published, summaries sent and checksum comparisons.
    pub attempted: u64,
    /// Operations that failed, plus one per failed check.
    pub failed: u64,
    /// One line per failed check (empty when the outputs are correct).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts and, traced, the layer table.
    pub notes: String,
    /// The spans of the traced rounds (empty for an untraced run).
    pub tracer: Tracer,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result object the contract asks for, on one line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Generates the corpus and the workload's inputs [`SETUPS`] times; returns
/// the last inputs and the median set-up time in seconds.
fn set_up(workload: Workload, seed: u64) -> Result<(Inputs, f64), cad3::CoreError> {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let started = Instant::now();
        let corpus = Corpus::generate(seed)?;
        inputs = Some(Inputs::generate(&corpus, workload));
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("SETUPS is at least one"), median(times)))
}

/// Cost of one open/close pair of clock reads, nanoseconds.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let started = Instant::now();
    let mut sink = Duration::ZERO;
    for _ in 0..PAIRS {
        let a = Instant::now();
        sink += a.elapsed();
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Per-name span totals of one traced round.
#[derive(Default)]
struct RoundSpans {
    duration_ns: [u64; Name::ALL.len()],
    self_ns: [u64; Name::ALL.len()],
    count: [u64; Name::ALL.len()],
}

impl RoundSpans {
    fn dur(&self, name: Name) -> f64 {
        self.duration_ns[name as usize] as f64
    }

    fn per_call(&self, name: Name) -> f64 {
        ratio(self.dur(name), self.count[name as usize] as f64)
    }

    /// Σ of the steps' child spans ÷ the step spans: what the steps' own
    /// self time leaves.
    fn step_sum_share(&self) -> f64 {
        1.0 - ratio(self.self_ns[Name::Step as usize] as f64, self.dur(Name::Step))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Groups the tracer's spans by round, in round order.
fn spans_by_round(tracer: &Tracer) -> Vec<RoundSpans> {
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    let mut by_round: std::collections::BTreeMap<u32, RoundSpans> = Default::default();
    for (id, s) in spans.iter().enumerate() {
        let r = by_round.entry(s.round).or_default();
        let n = s.name as usize;
        r.duration_ns[n] += s.duration_ns();
        r.self_ns[n] += own[id];
        r.count[n] += 1;
    }
    by_round.into_values().collect()
}

struct Rounds {
    /// The workload as configured, tracer off: the source of every
    /// end-to-end number.
    plain: Vec<RoundResult>,
    /// Same configuration with spans and probes.
    traced: Vec<RoundResult>,
    /// `steady_256v_obs` only: the same rounds with obs off.
    obs_off: Vec<RoundResult>,
}

impl Rounds {
    fn all(&self) -> impl Iterator<Item = &RoundResult> {
        self.plain.iter().chain(&self.traced).chain(&self.obs_off)
    }
}

/// Runs whole cycles of rounds until `seconds` have passed (at least one
/// cycle): plain only, or plain → traced (→ obs-off) when tracing.
fn measure(inputs: &Inputs, seconds: f64, trace: bool, tracer: &mut Tracer) -> Rounds {
    let w = inputs.workload;
    let own = RoundConfig { workers: w.workers, obs: w.obs };
    let mut rounds = Rounds { plain: Vec::new(), traced: Vec::new(), obs_off: Vec::new() };
    let mut round_id = 0u32;
    let started = Instant::now();
    loop {
        tracer.start_round(round_id, false);
        rounds.plain.push(run_round(inputs, own, tracer));
        if trace {
            tracer.start_round(round_id + 1, true);
            rounds.traced.push(run_round(inputs, own, tracer));
            if w.obs {
                tracer.start_round(round_id + 2, false);
                let off = RoundConfig { obs: false, ..own };
                rounds.obs_off.push(run_round(inputs, off, tracer));
            }
        }
        round_id += 3;
        if started.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

/// Checks every round against the reference and the invariants; returns
/// `(attempted, failed, failures)`.
fn verify(
    inputs: &Inputs,
    rounds: &Rounds,
    by_round: &[RoundSpans],
    tracer: &mut Tracer,
) -> (u64, u64, Vec<String>) {
    let w = inputs.workload;
    // The reference never comes from the configuration under test: the
    // scalar oracle for one RSU; for two, the same round on one worker.
    let (reference, how) = if w.handover {
        tracer.start_round(u32::MAX, false);
        let single = run_round(inputs, RoundConfig { workers: 1, obs: false }, tracer);
        (single.checksum, "the one-worker round")
    } else {
        (scalar_oracle(inputs).0, "the scalar oracle")
    };

    let first = rounds.plain[0].counts;
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let mut fail = |n: u64, what: String| {
        failed += n;
        failures.push(what);
    };
    for (i, r) in rounds.all().enumerate() {
        let c = r.counts;
        attempted += c.produced + c.warnings + c.summaries_out + 1;
        let lost = c.produced.abs_diff(c.records_processed)
            + c.warnings.abs_diff(c.delivered)
            + c.summaries_out.abs_diff(c.summaries_in)
            + c.stream_errors;
        if lost > 0 {
            fail(lost, format!("round {i}: {lost} operations lost: {c:?}"));
        }
        if r.checksum != reference {
            fail(1, format!("round {i}: checksum {:#x} != {how} {reference:#x}", r.checksum));
        }
        if c != first {
            fail(1, format!("round {i}: counts {c:?} differ from round 0 {first:?}"));
        }
    }
    let offered = rounds.plain[0].offered_mbps;
    if offered >= DSRC_CEILING_MBPS {
        fail(1, format!("net.offered_mbps {offered} is not under {DSRC_CEILING_MBPS}"));
    }
    for (r, spans) in rounds.traced.iter().zip(by_round) {
        if r.probe_rows != r.counts.records_processed {
            fail(1, format!("detect probe saw {} rows, not {first:?}", r.probe_rows));
        }
        let share = spans.step_sum_share();
        if (share - 1.0).abs() > STEP_SUM_TOLERANCE {
            fail(1, format!("bench.step_sum_share {share} is outside 1 ± {STEP_SUM_TOLERANCE}"));
        }
    }
    (attempted, failed, failures)
}

fn ns_per_rec(r: &RoundResult) -> f64 {
    ratio(r.timed_ns() as f64, r.counts.produced as f64)
}

fn end_to_end(rounds: &Rounds, setup_s: f64, notes: &mut String) -> Vec<Metric> {
    let verdicts: Vec<&[u64]> = rounds.plain.iter().map(|r| &r.verdict_ns[..]).collect();
    let _ = writeln!(
        notes,
        "# {} rounds; rate and verdict percentiles are the quietest round's, {} samples each",
        verdicts.len(),
        verdicts[0].len()
    );
    // The per-round rates show how much the machine drifted inside the run.
    let rates: Vec<f64> = rounds.plain.iter().map(RoundResult::records_per_s).collect();
    let _ = writeln!(notes, "# records_per_s by round: {:.0?}", rates);
    for p in [50.0, 95.0] {
        let by_round: Vec<f64> =
            round_percentiles(&verdicts, p).into_iter().map(|ns| ns / 1e3).collect();
        let _ = writeln!(notes, "# verdict_p{p}_us by round: {:.0?}", by_round);
    }
    // The resident set creeps up from round to round as the allocator's
    // arenas fragment; the smallest is what one round of logs takes.
    let rss: Vec<f64> = rounds.plain.iter().map(|r| r.rss_mb).collect();
    let _ = writeln!(notes, "# peak_rss_mb by round: {:.0?}", rss);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("records_per_s", rates.iter().copied().fold(0.0, f64::max), "1/s"),
        m("verdict_p50_us", quietest_round_percentile(&verdicts, 50.0) / 1e3, "us"),
        m("verdict_p95_us", quietest_round_percentile(&verdicts, 95.0) / 1e3, "us"),
        m("peak_rss_mb", rss.iter().copied().fold(f64::INFINITY, f64::min), "MiB"),
        m("setup_s", setup_s, "s"),
    ]
}

fn per_layer(
    inputs: &Inputs,
    rounds: &Rounds,
    by_round: &[RoundSpans],
    notes: &mut String,
) -> Vec<Metric> {
    let c = rounds.plain[0].counts;
    let produced = c.produced as f64;
    let probe_rows = rounds.traced[0].probe_rows as f64;
    // Each timed metric is the median over the traced rounds.
    let med = |f: &dyn Fn(&RoundSpans) -> f64| median(by_round.iter().map(f));
    let per_rec = |name: Name| med(&|s| ratio(s.dur(name), produced));
    let per_call_us = |name: Name| med(&|s| s.per_call(name) / 1e3);
    let probes = [Name::ProbePoll, Name::ProbeDecode, Name::ProbeDetect, Name::ProbeFanout];

    let steps: Vec<f64> =
        rounds.plain.iter().flat_map(|r| &r.step_ns).map(|&ns| ns as f64).collect();
    let _ = writeln!(notes, "# core.step_p99_us pools {} steps", steps.len());
    let with_summaries =
        rounds.traced.iter().flat_map(|r| &r.batch_with_summaries_ns).map(|&ns| ns as f64);
    let plain_rate = median(rounds.plain.iter().map(RoundResult::records_per_s));
    let obs_off_rate = median(rounds.obs_off.iter().map(RoundResult::records_per_s));
    let traced_cost = median(rounds.traced.iter().map(ns_per_rec));
    let plain_cost = median(rounds.plain.iter().map(ns_per_rec));

    let m = |name, value, unit| Metric { name, value, unit };
    let count = |name, value: u64| Metric { name, value: value as f64, unit: "count" };
    vec![
        m("net.dsrc_send_ns_per_rec", per_rec(Name::DsrcSend), "ns"),
        m(
            "net.link_tx_ns_per_msg",
            med(&|s| ratio(s.dur(Name::FuseLinkTx), c.summaries_out as f64)),
            "ns",
        ),
        m("net.offered_mbps", rounds.plain[0].offered_mbps, "Mb/s"),
        m("stream.produce_ns_per_rec", per_rec(Name::Produce), "ns"),
        m("stream.poll_ns_per_rec", per_rec(Name::ProbePoll), "ns"),
        count("stream.bytes_in", c.bytes_in),
        count("stream.retained_records", c.retained_records),
        m("types.decode_ns_per_rec", med(&|s| ratio(s.dur(Name::ProbeDecode), probe_rows)), "ns"),
        m("engine.fanout_us_per_batch", per_call_us(Name::ProbeFanout), "us"),
        count("engine.batches", c.batches),
        m("detect.batch_ns_per_rec", med(&|s| ratio(s.dur(Name::ProbeDetect), probe_rows)), "ns"),
        count("detect.rows", rounds.traced[0].probe_rows),
        m("detect.abnormal_share", ratio(c.warnings as f64, c.records_processed as f64), "share"),
        m("core.run_batch_us_per_batch", per_call_us(Name::RunBatch), "us"),
        m("core.run_batch_ns_per_rec", per_rec(Name::RunBatch), "ns"),
        m(
            "core.residual_share",
            med(&|s| {
                let explained: f64 = probes.iter().map(|&p| s.dur(p)).sum();
                ratio(s.dur(Name::RunBatch) - explained, s.dur(Name::RunBatch))
            }),
            "share",
        ),
        m("core.step_p99_us", percentile(steps, 99.0) / 1e3, "us"),
        count("core.records_processed", c.records_processed),
        m("fuse.export_us_per_call", per_call_us(Name::FuseExport), "us"),
        m(
            "fuse.receive_ns_per_msg",
            med(&|s| ratio(s.dur(Name::FuseReceive), c.summaries_out as f64)),
            "ns",
        ),
        m("fuse.batch_us_with_summaries", median(with_summaries) / 1e3, "us"),
        count("fuse.summaries_out", c.summaries_out),
        count("fuse.summaries_in", c.summaries_in),
        m(
            "disseminate.publish_ns_per_warn",
            med(&|s| ratio(s.dur(Name::Publish), c.warnings as f64)),
            "ns",
        ),
        m(
            "disseminate.poll_decode_ns_per_warn",
            med(&|s| ratio(s.dur(Name::PollDecode), c.warnings as f64)),
            "ns",
        ),
        count("disseminate.warnings", c.warnings),
        count("disseminate.delivered", c.delivered),
        m(
            "obs.overhead_share",
            if rounds.obs_off.is_empty() { 0.0 } else { obs_off_rate / plain_rate - 1.0 },
            "share",
        ),
        count("obs.trace_events", rounds.plain[0].trace_events),
        count("obs.trace_dropped", cad3_obs::trace::sink().dropped()),
        m("bench.step_sum_share", med(&RoundSpans::step_sum_share), "share"),
        m("bench.trace_overhead_share", traced_cost / plain_cost - 1.0, "share"),
        m("bench.gen_ns_per_rec", inputs.gen_ns_per_rec, "ns"),
        m("bench.clock_pair_ns", clock_pair_ns(), "ns"),
    ]
}

/// The traced run's layer table: self time per step of every span name,
/// over all traced rounds, and its share of the step.
fn layer_table(by_round: &[RoundSpans], notes: &mut String) {
    let total = |f: &dyn Fn(&RoundSpans) -> u64| by_round.iter().map(f).sum::<u64>() as f64;
    let steps = total(&|s| s.count[Name::Step as usize]);
    let step_ns = total(&|s| s.duration_ns[Name::Step as usize]);
    let _ = writeln!(
        notes,
        "# layer table over {} traced rounds, {steps} steps\n\
         # {:<26}{:>10}{:>16}{:>12}",
        by_round.len(),
        "span",
        "calls",
        "self us/step",
        "of step"
    );
    for name in Name::ALL {
        let n = name as usize;
        let calls = total(&|s| s.count[n]);
        if calls == 0.0 {
            continue;
        }
        let own = total(&|s| s.self_ns[n]);
        let share = if name.as_str().starts_with("probe.") {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * ratio(own, step_ns))
        };
        let _ = writeln!(
            notes,
            "# {:<26}{:>10}{:>16.2}{:>12}",
            name.as_str(),
            calls,
            ratio(own, steps) / 1e3,
            share
        );
    }
}

/// Runs `workload` for `seconds` (whole rounds, at least one cycle) on the
/// inputs of `seed`, traced or not, and verifies the outputs.
///
/// # Errors
///
/// Propagates training errors from set-up.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, cad3::CoreError> {
    let (inputs, setup_s) = set_up(workload, seed)?;
    let mut tracer = Tracer::default();
    let rounds = measure(&inputs, seconds, trace, &mut tracer);
    let by_round = spans_by_round(&tracer);
    let (attempted, failed, failures) = verify(&inputs, &rounds, &by_round, &mut tracer);
    let mut notes = String::new();
    let metrics = if trace {
        layer_table(&by_round, &mut notes);
        per_layer(&inputs, &rounds, &by_round, &mut notes)
    } else {
        end_to_end(&rounds, setup_s, &mut notes)
    };
    Ok(Outcome { attempted, failed, failures, metrics, notes, tracer })
}
