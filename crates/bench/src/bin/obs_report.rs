//! The observed run: the paper's 2-RSU handover scenario
//! ([`handover_run`]) once, with every obs signal on — 100% head sampling,
//! the `slos.toml` health monitor ticking as a simulation observer, the
//! stage profiler and the flight recorder — and one report per signal:
//!
//! - **traces**: per-record traces reassembled end to end (vehicle emit →
//!   DSRC → RSU 0 detect → CO-DATA over the wired link → RSU 1 fuse),
//!   per-stage p50/p95/p99 attribution and a waterfall exemplar;
//!   `results/trace_report.json`, `results/artifacts/traces.jsonl`.
//! - **health**: the final console frame (per-RSU states, the SLO table,
//!   the alert log); `results/health_report.json`,
//!   `results/artifacts/health.jsonl`.
//! - **profile**: the per-stage self-time table, and every tail exemplar
//!   on the `rsu.detect_us` / `rsu.total_us` histograms linked to its
//!   assembled trace; `results/profile_report.json`,
//!   `results/artifacts/profile.folded` (folded stacks for flamegraph
//!   tooling).
//! - **recorder and metrics**: the flight recorder's span events and a
//!   Prometheus-text snapshot whose `rsu.*_us` histograms reproduce the
//!   Fig. 6a latency decomposition; `results/obs/events.jsonl`,
//!   `results/obs/metrics.prom`.
//!
//! Flags:
//! - `--virtual` pins the observability clock to virtual mode before any
//!   instrumented work, so every artifact is a pure function of the seed
//!   (profiler self-times collapse to zero; attribution structure, call
//!   counts and exemplar links stay intact). CI's `obs-e2e` job runs this
//!   twice and byte-compares all eight artifacts.
//! - `--check` exits non-zero unless: no trace event was dropped, every
//!   assembled trace is complete and at least one spans both RSUs; the
//!   run ends with every SLO quiet, both RSUs healthy, at least one health
//!   tick and nothing shed; every Fig. 6a stage and the detector sweep is
//!   attributed in the profile and every tail exemplar resolves to a
//!   complete trace; and every Fig. 6a stage shows up in the recorder and
//!   in its latency histogram.

use cad3::Observer;
use cad3_bench::{
    console, handover_duration, handover_monitor, handover_run, tables, write_json, write_text,
};
use cad3_obs::health::alerts_jsonl;
use cad3_obs::trace::{self, Trace};
use cad3_obs::{
    bucket_upper, names, profile, HealthMonitor, HealthState, MetricsSnapshot, ProfileSnapshot,
    SpanEvent,
};
use cad3_types::SimDuration;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The Fig. 6a pipeline stages, as spans and as profiler stages.
const FIG6A_STAGES: [&str; 4] =
    [names::RSU_MICRO_BATCH, names::RSU_INGEST, names::RSU_DETECT, names::RSU_HANDOVER_FUSE];

/// The Fig. 6a latency decomposition's histograms.
const FIG6A_HISTOGRAMS: [&str; 5] = [
    names::RSU_TX_US,
    names::RSU_QUEUING_US,
    names::RSU_PROCESSING_US,
    names::RSU_DISSEMINATION_US,
    names::RSU_TOTAL_US,
];

/// Per-span-name attribution row of the trace report.
#[derive(Debug, Clone, Serialize)]
struct TraceStageRow {
    stage: String,
    samples: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// The JSON record written to `results/trace_report.json`.
#[derive(Debug, Clone, Serialize)]
struct TraceReport {
    traces: usize,
    complete: usize,
    cross_rsu_complete: usize,
    dropped_events: u64,
    end_to_end_p50_us: f64,
    end_to_end_p95_us: f64,
    end_to_end_p99_us: f64,
    stages: Vec<TraceStageRow>,
}

/// One (SLO, member) row of the health report, from the final tick.
#[derive(Debug, Clone, Serialize)]
struct SloSummary {
    slo: String,
    member: Option<String>,
    value: Option<f64>,
    budget: f64,
    fast_burn: Option<f64>,
    slow_burn: Option<f64>,
    severity: String,
    firing: bool,
}

/// The JSON record written to `results/health_report.json`.
#[derive(Debug, Clone, Serialize)]
struct HealthReport {
    ticks: u64,
    duration_s: f64,
    alerts_fired: usize,
    alerts_cleared: usize,
    events_shed: u64,
    names_dropped: u64,
    firing_at_end: usize,
    final_states: BTreeMap<String, String>,
    slos: Vec<SloSummary>,
}

/// One folded stage path of the profile report.
#[derive(Debug, Clone, Serialize)]
struct ProfileStageRow {
    path: String,
    calls: u64,
    self_ns: u64,
    total_ns: u64,
}

/// One tail-bucket exemplar and the outcome of resolving its trace.
#[derive(Debug, Clone, Serialize)]
struct ExemplarRow {
    histogram: String,
    bucket: usize,
    bucket_upper_us: u64,
    value_us: u64,
    trace_id: String,
    spans: usize,
    complete: bool,
}

/// The JSON record written to `results/profile_report.json`.
#[derive(Debug, Clone, Serialize)]
struct ProfileReport {
    stages: Vec<ProfileStageRow>,
    dropped: u64,
    tail_exemplars: Vec<ExemplarRow>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let virtual_clock = std::env::args().any(|a| a == "--virtual");

    // Virtual clock first (when requested), before any instrumented work
    // mints a wall timestamp; then the exporter side.
    if virtual_clock {
        cad3_obs::clock::set_virtual_nanos(0);
    }
    cad3_obs::set_enabled(true);
    cad3_obs::install_panic_dump();
    trace::set_sample_rate(1.0);

    let monitor = handover_monitor().unwrap_or_else(|e| {
        eprintln!("obs_report: {e}");
        std::process::exit(2);
    });
    let tick = SimDuration::from_nanos(monitor.contract().tick_ns);
    // The monitor rides the simulation as a periodic observer event: each
    // tick snapshots the registry at the *virtual* instant, so the whole
    // evaluation is a pure function of the seed.
    let monitor = Rc::new(RefCell::new(monitor));
    let hook_monitor = Rc::clone(&monitor);
    let observer = Observer {
        interval: tick,
        hook: Box::new(move |now| hook_monitor.borrow_mut().tick(now.as_nanos())),
    };
    let report = handover_run(vec![observer]).unwrap_or_else(|e| {
        eprintln!("obs_report: corpus not trainable: {e}");
        std::process::exit(2);
    });
    trace::set_sample_rate(0.0);

    let snap = profile::snapshot();
    let trace_events = trace::sink().drain();
    let trace_dropped = trace::sink().dropped();
    let traces = trace::assemble(&trace_events);
    let metrics = cad3_obs::registry().snapshot();
    let recorded = cad3_obs::recorder().dump();

    let trace_out = trace_section(&traces, trace_events.len(), trace_dropped);
    let health_out = health_section(&monitor.borrow(), &metrics);
    let profile_out = profile_section(&snap, &traces, &metrics);
    recorder_section(&recorded, &metrics);

    // Keep the testbed's own numbers visible so an obs regression that
    // perturbs the pipeline is obvious next to the obs views.
    println!();
    for r in &report.per_rsu {
        println!("[{}] {}", r.name, r.latency.summary_line());
    }

    if check {
        run_checks(
            &trace_out,
            &monitor.borrow(),
            &health_out,
            &snap,
            &profile_out,
            &recorded,
            &metrics,
        );
        println!(
            "[check] OK: {} complete cross-RSU traces; {} health ticks, both RSUs healthy, no \
             firing SLOs; {} stage paths attributed, {} tail exemplars all resolve; {} span \
             events recorded",
            trace_out.cross_rsu_complete,
            health_out.ticks,
            profile_out.stages.len(),
            profile_out.tail_exemplars.len(),
            recorded.len(),
        );
    }
}

/// Distributed traces: per-stage attribution, end-to-end percentiles and a
/// waterfall exemplar; writes the report and the raw traces.
fn trace_section(traces: &[Trace], events: usize, dropped: u64) -> TraceReport {
    tables::banner("Distributed tracing — 2-RSU handover, 100% sampling");
    let complete: Vec<&Trace> = traces.iter().filter(|t| t.is_complete()).collect();
    let cross_rsu: Vec<&Trace> = complete
        .iter()
        .copied()
        .filter(|t| {
            let nodes = t.nodes();
            nodes.contains(&0)
                && nodes.contains(&1)
                && t.spans().values().any(|s| s.name == names::RSU_HANDOVER_FUSE)
        })
        .collect();

    // Per-stage attribution: pool each span name's own-durations over every
    // assembled trace, then take nearest-rank percentiles.
    let mut stages: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for t in traces {
        for (name, d) in t.stage_durations() {
            stages.entry(name).or_default().push(d);
        }
    }
    let stage_rows: Vec<TraceStageRow> = stages
        .into_iter()
        .map(|(name, mut ds)| {
            ds.sort_unstable();
            TraceStageRow {
                stage: name.to_owned(),
                samples: ds.len(),
                p50_us: us(trace::percentile(&ds, 50.0)),
                p95_us: us(trace::percentile(&ds, 95.0)),
                p99_us: us(trace::percentile(&ds, 99.0)),
            }
        })
        .collect();
    let mut totals: Vec<u64> = complete.iter().map(|t| t.end_to_end_ns()).collect();
    totals.sort_unstable();

    println!(
        "{}",
        tables::render(
            &["stage", "samples", "p50 us", "p95 us", "p99 us"],
            &stage_rows
                .iter()
                .map(|r| {
                    vec![
                        r.stage.clone(),
                        r.samples.to_string(),
                        tables::f(r.p50_us, 1),
                        tables::f(r.p95_us, 1),
                        tables::f(r.p99_us, 1),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "traces: {} assembled, {} complete, {} complete cross-RSU; {events} events, {dropped} \
         dropped",
        traces.len(),
        complete.len(),
        cross_rsu.len(),
    );
    let out = TraceReport {
        traces: traces.len(),
        complete: complete.len(),
        cross_rsu_complete: cross_rsu.len(),
        dropped_events: dropped,
        end_to_end_p50_us: us(trace::percentile(&totals, 50.0)),
        end_to_end_p95_us: us(trace::percentile(&totals, 95.0)),
        end_to_end_p99_us: us(trace::percentile(&totals, 99.0)),
        stages: stage_rows,
    };
    println!(
        "end-to-end: p50 {:.1} us | p95 {:.1} us | p99 {:.1} us (n={})",
        out.end_to_end_p50_us,
        out.end_to_end_p95_us,
        out.end_to_end_p99_us,
        totals.len(),
    );
    // Waterfall exemplar: the cross-RSU trace with the most spans shows the
    // full pipeline shape (Fig. 6a stages as a tree).
    if let Some(exemplar) = cross_rsu.iter().max_by_key(|t| t.spans().len()) {
        println!("\n{}", exemplar.waterfall());
    }

    write_json("trace_report", &out);
    write_text("artifacts/traces.jsonl", &trace::traces_jsonl(traces));
    out
}

/// Health and SLOs: the final console frame; writes the summary and the
/// alert-transition log.
fn health_section(mon: &HealthMonitor, metrics: &MetricsSnapshot) -> HealthReport {
    tables::banner("Health & SLOs — 2-RSU handover under the slos.toml contract");
    let contract = mon.contract();
    println!(
        "contract: {} SLOs, tick {} ms, escalate {} / recover {} ticks\n",
        contract.slos.len(),
        contract.tick_ns / 1_000_000,
        contract.escalate_ticks,
        contract.recover_ticks,
    );
    let duration = handover_duration();
    println!("{}", console::frame(mon, duration.as_nanos()));

    let (events, shed) = mon.events();
    let out = HealthReport {
        ticks: mon.ticks(),
        duration_s: duration.as_secs_f64(),
        alerts_fired: events.iter().filter(|e| e.firing).count(),
        alerts_cleared: events.iter().filter(|e| !e.firing).count(),
        events_shed: shed,
        names_dropped: metrics.counter(names::OBS_NAMES_DROPPED),
        firing_at_end: mon.firing().count(),
        final_states: mon
            .states()
            .into_iter()
            .map(|(name, state)| (name, state.as_str().to_owned()))
            .collect(),
        slos: mon
            .rows()
            .iter()
            .map(|r| SloSummary {
                slo: r.slo.clone(),
                member: r.member.clone(),
                value: r.fast_value,
                budget: r.budget,
                fast_burn: r.fast_burn,
                slow_burn: r.slow_burn,
                severity: r.severity.as_str().to_owned(),
                firing: r.firing,
            })
            .collect(),
    };
    write_json("health_report", &out);
    write_text("artifacts/health.jsonl", &alerts_jsonl(events.iter()));
    out
}

/// Continuous profiler: the self-time table and the tail exemplars
/// resolved to their traces; writes the report and the folded stacks.
fn profile_section(
    snap: &ProfileSnapshot,
    traces: &[Trace],
    metrics: &MetricsSnapshot,
) -> ProfileReport {
    tables::banner("Continuous profiler — 2-RSU handover, stage attribution");
    let stage_rows: Vec<ProfileStageRow> = snap
        .stages
        .iter()
        .filter(|(_, t)| t.calls > 0)
        .map(|(path, t)| ProfileStageRow {
            path: path.clone(),
            calls: t.calls,
            self_ns: t.self_ns,
            total_ns: t.total_ns,
        })
        .collect();
    let total_self: u64 = stage_rows.iter().map(|r| r.self_ns).sum();

    // Tail exemplars: for each exemplar-enabled histogram, keep the
    // exemplars whose bucket reaches past the histogram's p95 and look
    // their trace ids up in the assembled set.
    let mut tail = Vec::new();
    for &name in names::EXEMPLAR_HISTOGRAMS {
        let Some(h) = metrics.histograms.get(name) else { continue };
        let p95 = h.p95();
        for &(bucket, ex) in metrics.exemplars_of(name) {
            if bucket_upper(bucket) < p95 {
                continue;
            }
            let resolved = traces.iter().find(|t| t.trace_id == ex.trace_id);
            tail.push(ExemplarRow {
                histogram: name.to_owned(),
                bucket,
                bucket_upper_us: bucket_upper(bucket),
                value_us: ex.value,
                trace_id: format!("{:016x}", ex.trace_id),
                spans: resolved.map_or(0, |t| t.spans().len()),
                complete: resolved.is_some_and(|t| t.is_complete()),
            });
        }
    }

    // Self-time table, heaviest stages first (path order breaks ties so
    // the virtual-clock run prints a stable table).
    let mut by_weight: Vec<&ProfileStageRow> = stage_rows.iter().collect();
    by_weight.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    println!(
        "{}",
        tables::render(
            &["stage path", "calls", "self ms", "total ms", "self %"],
            &by_weight
                .iter()
                .take(20)
                .map(|r| {
                    vec![
                        r.path.clone(),
                        r.calls.to_string(),
                        tables::f(r.self_ns as f64 / 1e6, 2),
                        tables::f(r.total_ns as f64 / 1e6, 2),
                        if total_self == 0 {
                            "-".to_owned()
                        } else {
                            tables::f(r.self_ns as f64 * 100.0 / total_self as f64, 1)
                        },
                    ]
                })
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "profile: {} stage paths, {} unattributed pushes; exemplars: {} in tail buckets, {} \
         resolve complete",
        stage_rows.len(),
        snap.dropped,
        tail.len(),
        tail.iter().filter(|e| e.complete).count(),
    );
    for e in &tail {
        println!(
            "  {} bucket<=~{} us: value {} us -> trace {} ({} spans{})",
            e.histogram,
            e.bucket_upper_us,
            e.value_us,
            e.trace_id,
            e.spans,
            if e.complete { ", complete" } else { ", INCOMPLETE" },
        );
    }

    let out = ProfileReport { stages: stage_rows, dropped: snap.dropped, tail_exemplars: tail };
    write_json("profile_report", &out);
    write_text("artifacts/profile.folded", &snap.folded());
    out
}

/// Flight recorder and metrics: the Fig. 6a histograms; writes the span
/// events and the Prometheus-text snapshot.
fn recorder_section(recorded: &[SpanEvent], metrics: &MetricsSnapshot) {
    tables::banner("Flight recorder & metrics — Fig. 6a latency decomposition");
    for name in FIG6A_HISTOGRAMS {
        if let Some(h) = metrics.histogram(name) {
            println!(
                "  {name:<22} n={:<6} p50={:<8} p95={:<8} max={}",
                h.count,
                h.p50(),
                h.p95(),
                h.max
            );
        }
    }
    println!("{} span events recorded", recorded.len());
    write_text("obs/events.jsonl", &cad3_obs::export::events_jsonl(recorded));
    write_text("obs/metrics.prom", &cad3_obs::export::prometheus_text(metrics));
}

/// The `--check` gates, run after every artifact is written so a failing
/// run still leaves all eight behind.
fn run_checks(
    trace_out: &TraceReport,
    mon: &HealthMonitor,
    health_out: &HealthReport,
    snap: &ProfileSnapshot,
    profile_out: &ProfileReport,
    recorded: &[SpanEvent],
    metrics: &MetricsSnapshot,
) {
    assert_eq!(trace_out.dropped_events, 0, "trace sink dropped events at 100% sampling");
    assert_eq!(
        trace_out.complete, trace_out.traces,
        "every assembled trace must be defect-free at 100% sampling"
    );
    assert!(
        trace_out.cross_rsu_complete > 0,
        "expected at least one complete cross-RSU trace spanning both RSUs"
    );

    assert!(health_out.ticks > 0, "health monitor never ticked");
    assert_eq!(
        health_out.firing_at_end,
        0,
        "SLO alerts still firing at end of run: {:?}",
        mon.firing().map(|r| (&r.slo, &r.member)).collect::<Vec<_>>()
    );
    for (name, state) in mon.states() {
        assert_eq!(state, HealthState::Healthy, "RSU `{name}` did not end healthy");
    }
    assert_eq!(
        health_out.names_dropped, 0,
        "metric-name interner shed names (cardinality cap hit)"
    );
    assert_eq!(health_out.events_shed, 0, "alert log shed transitions");

    assert_eq!(profile_out.dropped, 0, "profiler dropped pushes (node table full)");
    // Every Fig. 6a pipeline stage must be attributed, including the
    // detector sweep that runs on adopted worker threads.
    for stage in FIG6A_STAGES.into_iter().chain([names::ML_NB_SWEEP]) {
        assert!(snap.stage_totals(stage).calls > 0, "stage {stage} has no attributed calls");
    }
    assert!(!profile_out.tail_exemplars.is_empty(), "no tail exemplars captured at 100% sampling");
    for e in &profile_out.tail_exemplars {
        assert!(
            e.complete,
            "tail exemplar on {} (trace {}) did not resolve to a complete trace",
            e.histogram, e.trace_id
        );
    }

    // Every Fig. 6a stage is a span in the recorder and every stage
    // histogram has samples.
    assert!(!recorded.is_empty(), "flight recorder captured no events");
    for stage in FIG6A_STAGES {
        assert!(
            recorded.iter().any(|e| e.name == stage),
            "span {stage} missing from the flight recorder"
        );
    }
    for name in FIG6A_HISTOGRAMS {
        let count = metrics.histogram(name).map_or(0, |h| h.count);
        assert!(count > 0, "{name} recorded no samples");
    }
    assert!(metrics.counter(names::RSU_RECORDS) > 0, "rsu.records stayed zero");
}
