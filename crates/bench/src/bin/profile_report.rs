//! Continuous-profiler cost-attribution report over the paper's 2-RSU
//! handover scenario: runs with the always-on stage profiler and 100%
//! trace sampling, prints the per-stage self-time table (CPU nanoseconds
//! attributed to each folded stage path), and links every tail-latency
//! exemplar captured on the `rsu.detect_us` / `rsu.total_us` histograms
//! back to its fully assembled distributed trace.
//!
//! Artifacts: `results/profile_report.json` (the attribution table plus
//! the resolved tail exemplars) and `results/artifacts/profile.folded`
//! (folded-stack lines for standard flamegraph tooling).
//!
//! Flags:
//! - `--virtual` pins the observability clock to virtual mode before any
//!   instrumented work, so both artifacts become pure functions of the
//!   seed (self-times collapse to zero; attribution structure, call
//!   counts and exemplar links stay intact). The CI `profile-e2e` job
//!   runs this twice and byte-compares the JSON.
//! - `--check` panics (non-zero exit) unless every Fig. 6a pipeline stage
//!   is attributed in the profile and every tail exemplar resolves to a
//!   complete assembled trace.

use cad3_bench::{handover_run, tables, write_json, write_text};
use cad3_obs::{bucket_upper, profile, trace};
use serde::Serialize;

/// One folded stage path of the attribution table.
#[derive(Debug, Clone, Serialize)]
struct StageRow {
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
    stages: Vec<StageRow>,
    dropped: u64,
    tail_exemplars: Vec<ExemplarRow>,
}

/// The pipeline stages (Fig. 6a decomposition plus the detector sweep)
/// that must show up in the attribution table for the run to count.
const REQUIRED_STAGES: usize = 5;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let virtual_clock = std::env::args().any(|a| a == "--virtual");
    tables::banner("Continuous profiler — 2-RSU handover, stage attribution");

    // Virtual clock first (when requested), before any instrumented work
    // mints a wall timestamp; then the exporter side.
    if virtual_clock {
        cad3_obs::clock::set_virtual_nanos(0);
    }
    cad3_obs::set_enabled(true);
    trace::set_sample_rate(1.0);
    let _ = trace::sink().drain(); // discard any stale events

    let report = handover_run(Vec::new()).unwrap_or_else(|e| {
        eprintln!("profile_report: corpus not trainable: {e}");
        std::process::exit(2);
    });
    trace::set_sample_rate(0.0);

    // Profile side: the folded stage tree with per-path totals.
    let snap = profile::snapshot();
    let stage_rows: Vec<StageRow> = snap
        .stages
        .iter()
        .filter(|(_, t)| t.calls > 0)
        .map(|(path, t)| StageRow {
            path: path.clone(),
            calls: t.calls,
            self_ns: t.self_ns,
            total_ns: t.total_ns,
        })
        .collect();
    let total_self: u64 = stage_rows.iter().map(|r| r.self_ns).sum();

    // Trace side: assemble everything so exemplar trace ids can be
    // resolved to concrete span trees.
    let traces = trace::assemble(&trace::sink().drain());
    let metrics = cad3_obs::registry().snapshot();

    // Tail exemplars: for each exemplar-enabled histogram, keep the
    // exemplars whose bucket reaches past the histogram's p95 and look
    // their trace ids up in the assembled set.
    let mut tail = Vec::new();
    for &name in cad3_obs::names::EXEMPLAR_HISTOGRAMS {
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
    let mut by_weight: Vec<&StageRow> = stage_rows.iter().collect();
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
        "profile: {} stage paths, {} unattributed pushes; exemplars: {} in tail buckets, {} resolve complete",
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

    // Keep the testbed's own numbers visible so a profiler regression that
    // perturbs the pipeline is obvious next to the attribution view.
    for r in &report.per_rsu {
        println!("[{}] {}", r.name, r.latency.summary_line());
    }

    if check {
        assert_eq!(out.dropped, 0, "profiler dropped pushes (node table full)");
        // Every Fig. 6a pipeline stage must be attributed, including the
        // detector sweep that runs on adopted worker threads.
        for stage in
            ["rsu.micro_batch", "rsu.ingest", "rsu.detect", "rsu.handover.fuse", "ml.nb.sweep"]
        {
            let t = snap.stage_totals(stage);
            assert!(t.calls > 0, "stage {stage} has no attributed calls");
        }
        assert!(
            out.stages.len() >= REQUIRED_STAGES,
            "expected at least {REQUIRED_STAGES} attributed stage paths, got {}",
            out.stages.len()
        );
        assert!(!out.tail_exemplars.is_empty(), "no tail exemplars captured at 100% sampling");
        for e in &out.tail_exemplars {
            assert!(
                e.complete,
                "tail exemplar on {} (trace {}) did not resolve to a complete trace",
                e.histogram, e.trace_id
            );
        }
        println!(
            "[check] OK: {} stage paths attributed, {} tail exemplars all resolve",
            out.stages.len(),
            out.tail_exemplars.len(),
        );
    }
}
