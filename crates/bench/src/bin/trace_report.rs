//! Distributed-trace report over the paper's 2-RSU handover scenario: runs
//! at 100% head sampling, reassembles the per-record traces end to end
//! (vehicle emit → DSRC → RSU 0 detect → CO-DATA over the wired link →
//! RSU 1 fuse), prints per-stage latency attribution (p50/p95/p99 of each
//! span name) plus a waterfall exemplar, and writes the raw traces to
//! `results/artifacts/traces.jsonl` (gitignored; CI uploads it as a build
//! artifact).
//!
//! With `--check`, panics (non-zero exit) unless at least one *complete*
//! cross-RSU trace was assembled with zero orphaned spans and zero dropped
//! trace events — the CI gate for the tracing pipeline.

use cad3_bench::{handover_run, tables, write_json, write_text};
use cad3_obs::trace;
use serde::Serialize;
use std::collections::BTreeMap;

/// Per-span-name attribution row of the report.
#[derive(Debug, Clone, Serialize)]
struct StageRow {
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
    stages: Vec<StageRow>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    tables::banner("Distributed tracing — 2-RSU handover, 100% sampling");

    cad3_obs::set_enabled(true);
    trace::set_sample_rate(1.0);
    let _ = trace::sink().drain(); // discard any stale events

    let report = handover_run(Vec::new()).unwrap_or_else(|e| {
        eprintln!("trace_report: corpus not trainable: {e}");
        std::process::exit(2);
    });
    trace::set_sample_rate(0.0);

    let events = trace::sink().drain();
    let dropped = trace::sink().dropped();
    let traces = trace::assemble(&events);

    let complete: Vec<_> = traces.iter().filter(|t| t.is_complete()).collect();
    let cross_rsu: Vec<_> = complete
        .iter()
        .filter(|t| {
            let nodes = t.nodes();
            nodes.contains(&0)
                && nodes.contains(&1)
                && t.spans().values().any(|s| s.name == cad3_obs::names::RSU_HANDOVER_FUSE)
        })
        .collect();

    // Per-stage attribution: pool each span name's own-durations over every
    // assembled trace, then take nearest-rank percentiles.
    let mut stages: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for t in &traces {
        for (name, d) in t.stage_durations() {
            stages.entry(name).or_default().push(d);
        }
    }
    let stage_rows: Vec<StageRow> = stages
        .into_iter()
        .map(|(name, mut ds)| {
            ds.sort_unstable();
            StageRow {
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
        "traces: {} assembled, {} complete, {} complete cross-RSU; {} events, {} dropped",
        traces.len(),
        complete.len(),
        cross_rsu.len(),
        events.len(),
        dropped,
    );
    println!(
        "end-to-end: p50 {:.1} us | p95 {:.1} us | p99 {:.1} us (n={})",
        us(trace::percentile(&totals, 50.0)),
        us(trace::percentile(&totals, 95.0)),
        us(trace::percentile(&totals, 99.0)),
        totals.len(),
    );
    // Waterfall exemplar: the cross-RSU trace with the most spans shows the
    // full pipeline shape (Fig. 6a stages as a tree).
    if let Some(exemplar) = cross_rsu.iter().max_by_key(|t| t.spans().len()) {
        println!("\n{}", exemplar.waterfall());
    }

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
    write_json("trace_report", &out);
    write_text("artifacts/traces.jsonl", &trace::traces_jsonl(&traces));

    // Keep the testbed's own numbers visible so a tracing regression that
    // perturbs timing is obvious next to the trace view.
    for r in &report.per_rsu {
        println!("[{}] {}", r.name, r.latency.summary_line());
    }

    if check {
        assert_eq!(dropped, 0, "trace sink dropped events at 100% sampling");
        assert_eq!(
            complete.len(),
            traces.len(),
            "every assembled trace must be defect-free at 100% sampling"
        );
        assert!(
            !cross_rsu.is_empty(),
            "expected at least one complete cross-RSU trace spanning both RSUs"
        );
        println!("[check] OK: {} complete cross-RSU traces", cross_rsu.len());
    }
}
