//! SLO/health report over the paper's 2-RSU handover scenario: loads the
//! root `slos.toml` contract, rides the virtual-time run with a periodic
//! health tick (an ordinary simulation event, so the run stays
//! deterministic), and prints the final console frame — per-RSU health
//! states, the SLO table and the alert-transition log. Writes the summary
//! to `results/health_report.json` and the raw transitions to
//! `results/artifacts/health.jsonl` (gitignored; CI uploads both).
//!
//! With `--check`, panics (non-zero exit) unless the run ends with every
//! SLO quiet, both RSUs healthy, at least one evaluation tick executed and
//! no interned metric names shed — the CI gate for the health pipeline.

use cad3::Observer;
use cad3_bench::{
    console, handover_duration, handover_monitor, handover_run, tables, write_json, write_text,
};
use cad3_obs::health::alerts_jsonl;
use cad3_obs::HealthState;
use cad3_types::SimDuration;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One (SLO, member) row of the JSON record, from the final tick.
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

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    tables::banner("Health & SLOs — 2-RSU handover under the slos.toml contract");

    cad3_obs::set_enabled(true);

    let monitor = handover_monitor().unwrap_or_else(|e| {
        eprintln!("health_report: {e}");
        std::process::exit(2);
    });
    let contract = monitor.contract();
    println!(
        "contract: {} SLOs, tick {} ms, escalate {} / recover {} ticks\n",
        contract.slos.len(),
        contract.tick_ns / 1_000_000,
        contract.escalate_ticks,
        contract.recover_ticks,
    );
    let tick = SimDuration::from_nanos(contract.tick_ns);

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
        eprintln!("health_report: corpus not trainable: {e}");
        std::process::exit(2);
    });
    let duration = handover_duration();

    let mon = monitor.borrow();
    println!("{}", console::frame(&mon, duration.as_nanos()));
    for r in &report.per_rsu {
        println!("[{}] {}", r.name, r.latency.summary_line());
    }

    let (events, shed) = mon.events();
    let names_dropped = cad3_obs::registry().snapshot().counter(cad3_obs::names::OBS_NAMES_DROPPED);
    let out = HealthReport {
        ticks: mon.ticks(),
        duration_s: duration.as_secs_f64(),
        alerts_fired: events.iter().filter(|e| e.firing).count(),
        alerts_cleared: events.iter().filter(|e| !e.firing).count(),
        events_shed: shed,
        names_dropped,
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

    if check {
        assert!(mon.ticks() > 0, "health monitor never ticked");
        assert_eq!(
            mon.firing().count(),
            0,
            "SLO alerts still firing at end of run: {:?}",
            mon.firing().map(|r| (&r.slo, &r.member)).collect::<Vec<_>>()
        );
        for (name, state) in mon.states() {
            assert_eq!(state, HealthState::Healthy, "RSU `{name}` did not end healthy");
        }
        assert_eq!(names_dropped, 0, "metric-name interner shed names (cardinality cap hit)");
        assert_eq!(shed, 0, "alert log shed transitions");
        println!("[check] OK: {} ticks, both RSUs healthy, no firing SLOs", mon.ticks());
    }
}
