//! Frame rendering for the health console (`cad3_top`) and the
//! `health_report` end-of-run summary.
//!
//! Everything here is a pure string builder over a [`HealthMonitor`]'s
//! latest tick — no I/O, no clocks — so the two binaries (one live and
//! wall-clock paced, one batch) share exactly the same view and the frame
//! is unit-testable.

use crate::tables;
use cad3_obs::health::SloRow;
use cad3_obs::{AlertEvent, HealthMonitor, HealthState, ProfileSnapshot};

/// How many alert transitions the frame's tail shows.
const RECENT_ALERTS: usize = 8;

/// How many stage paths the profiler panel shows.
const TOP_STAGES: usize = 6;

/// Renders one full console frame: header, per-RSU health states, the SLO
/// table and the most recent alert transitions.
pub fn frame(mon: &HealthMonitor, now_ns: u64) -> String {
    let mut out = String::new();
    let firing = mon.firing().count();
    out.push_str(&format!(
        "cad3 health — t={:.1}s  ticks={}  slos={}  firing={}\n\n",
        now_ns as f64 / 1e9,
        mon.ticks(),
        mon.contract().slos.len(),
        firing,
    ));
    out.push_str(&states_block(mon));
    out.push('\n');
    out.push_str(&slo_table(mon.rows()));
    let (events, shed) = mon.events();
    if !events.is_empty() {
        out.push('\n');
        out.push_str(&alerts_block(events.iter(), shed));
    }
    out
}

/// The per-RSU state lines, name-ordered, e.g. `rsu-motorway  HEALTHY`.
pub fn states_block(mon: &HealthMonitor) -> String {
    let states = mon.states();
    let width = states.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, state) in states {
        let marker = match state {
            HealthState::Healthy => "  ",
            HealthState::Degraded => "! ",
            HealthState::Overloaded => "!!",
        };
        out.push_str(&format!("{marker} {name:<width$}  {}\n", state.as_str().to_uppercase()));
    }
    out
}

/// The SLO table: one row per evaluated (SLO, member) pair of the latest
/// tick, with the fast-window signal value, budget and burn multiples.
pub fn slo_table(rows: &[SloRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.slo.clone(),
                r.member.clone().unwrap_or_else(|| "-".to_owned()),
                r.fast_value.map_or_else(|| "-".to_owned(), |v| tables::f(v, 1)),
                tables::f(r.budget, 0),
                fmt_burn(r.fast_burn),
                fmt_burn(r.slow_burn),
                r.severity.as_str().to_owned(),
                if r.firing { "FIRING".to_owned() } else { "ok".to_owned() },
            ]
        })
        .collect();
    tables::render(
        &["slo", "member", "value", "budget", "fast burn", "slow burn", "severity", "state"],
        &body,
    )
}

/// The tail of the alert-transition log, oldest first, plus a shed notice
/// when the bounded log has dropped events.
pub fn alerts_block<'a>(events: impl Iterator<Item = &'a AlertEvent>, shed: u64) -> String {
    let events: Vec<&AlertEvent> = events.collect();
    let skip = events.len().saturating_sub(RECENT_ALERTS);
    let mut out = String::from("recent alerts:\n");
    if shed > 0 || skip > 0 {
        out.push_str(&format!("  ... {} earlier transition(s) not shown\n", shed + skip as u64));
    }
    for e in &events[skip..] {
        let member = e.member.as_deref().unwrap_or("-");
        out.push_str(&format!(
            "  {:>9.3}s {} {} [{}] ({}) fast x{:.2} slow x{:.2} value {:.1}\n",
            e.t_ns as f64 / 1e9,
            if e.firing { "FIRE " } else { "clear" },
            e.slo,
            member,
            e.severity.as_str(),
            e.fast_burn,
            e.slow_burn,
            e.value,
        ));
    }
    out
}

/// The continuous-profiler panel: the heaviest stage paths by self-time
/// (ties broken by call count, then path, so virtual-clock frames are
/// stable).
pub fn profile_block(snap: &ProfileSnapshot) -> String {
    let mut rows: Vec<(&String, &cad3_obs::StageTotals)> =
        snap.stages.iter().filter(|(_, t)| t.calls > 0).collect();
    rows.sort_by(|a, b| {
        b.1.self_ns
            .cmp(&a.1.self_ns)
            .then_with(|| b.1.calls.cmp(&a.1.calls))
            .then_with(|| a.0.cmp(b.0))
    });
    let total_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    let body: Vec<Vec<String>> = rows
        .iter()
        .take(TOP_STAGES)
        .map(|(path, t)| {
            vec![
                (*path).clone(),
                t.calls.to_string(),
                tables::f(t.self_ns as f64 / 1e6, 2),
                if total_self == 0 {
                    "-".to_owned()
                } else {
                    tables::f(t.self_ns as f64 * 100.0 / total_self as f64, 1)
                },
            ]
        })
        .collect();
    let mut out = String::from("top stages (self-time):\n");
    out.push_str(&tables::render(&["stage path", "calls", "self ms", "self %"], &body));
    out
}

/// A burn multiple for the table: `-` while the window is empty, `inf`
/// past any zero budget.
fn fmt_burn(burn: Option<f64>) -> String {
    match burn {
        None => "-".to_owned(),
        Some(b) if b.is_infinite() => "inf".to_owned(),
        Some(b) => format!("x{b:.2}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_obs::health::SloRow;
    use cad3_obs::{Severity, SloContract};

    fn rows() -> Vec<SloRow> {
        vec![
            SloRow {
                slo: "a.latency".to_owned(),
                member: None,
                fast_value: Some(120_000.0),
                fast_burn: Some(0.8),
                slow_burn: Some(0.7),
                budget: 150_000.0,
                firing: false,
                severity: Severity::Overloaded,
            },
            SloRow {
                slo: "a.lag".to_owned(),
                member: Some("rsu-x".to_owned()),
                fast_value: None,
                fast_burn: Some(f64::INFINITY),
                slow_burn: None,
                budget: 0.0,
                firing: true,
                severity: Severity::Degraded,
            },
        ]
    }

    #[test]
    fn slo_table_shows_every_row_state() {
        let t = slo_table(&rows());
        assert!(t.contains("a.latency"), "{t}");
        assert!(t.contains("x0.80"), "{t}");
        assert!(t.contains("FIRING"), "{t}");
        assert!(t.contains("inf"), "{t}");
        assert!(t.contains("rsu-x"), "{t}");
    }

    #[test]
    fn frame_includes_states_and_alert_tail() {
        let contract = SloContract::parse(
            "[health]\ntick_ms = 100\n\n[slo.t.x]\nmetric = \"obs.trace.dropped\"\n\
             signal = \"value\"\nmax = 1\nfast_window_ms = 100\nslow_window_ms = 100\n\
             for_ticks = 1\nclear_ticks = 1\nseverity = \"degraded\"",
        )
        .unwrap();
        let mut mon = HealthMonitor::new(contract);
        mon.register_rsu("rsu-console-test");
        // Two ticks: windows derive no signal until a baseline sample
        // exists, so the breach registers (and fires) on the second.
        for t in 1..=2u64 {
            mon.observe(
                t * 100_000_000,
                cad3_obs::MetricsSnapshot {
                    counters: Default::default(),
                    gauges: [("obs.trace.dropped".to_owned(), 50u64)].into_iter().collect(),
                    histograms: Default::default(),
                    exemplars: Default::default(),
                },
            );
        }
        let f = frame(&mon, 200_000_000);
        assert!(f.contains("rsu-console-test"), "{f}");
        assert!(f.contains("recent alerts:"), "{f}");
        assert!(f.contains("FIRE"), "{f}");
        assert!(f.contains("ticks=2"), "{f}");
        assert!(f.contains("FIRING"), "{f}");
    }

    #[test]
    fn profile_block_ranks_stages_by_self_time() {
        let mut snap = ProfileSnapshot::default();
        snap.stages.insert(
            "main;rsu.micro_batch".to_owned(),
            cad3_obs::StageTotals { calls: 10, self_ns: 1_000_000, total_ns: 9_000_000 },
        );
        snap.stages.insert(
            "main;rsu.micro_batch;rsu.detect".to_owned(),
            cad3_obs::StageTotals { calls: 10, self_ns: 8_000_000, total_ns: 8_000_000 },
        );
        snap.stages.insert("main;cold".to_owned(), cad3_obs::StageTotals::default());
        let block = profile_block(&snap);
        // The heavier stage leads the table and the zero-call path is gone.
        let detect = block.find("rsu.micro_batch;rsu.detect").expect("detect row");
        assert!(block.contains("top stages"), "{block}");
        assert!(!block.contains("main;cold"), "{block}");
        assert!(block.find("88.9").is_some_and(|p| p > detect), "{block}");
    }

    #[test]
    fn profile_block_handles_a_zero_weight_snapshot() {
        let mut snap = ProfileSnapshot::default();
        snap.stages.insert(
            "main;virtual".to_owned(),
            cad3_obs::StageTotals { calls: 3, self_ns: 0, total_ns: 0 },
        );
        let block = profile_block(&snap);
        assert!(block.contains("main;virtual"), "{block}");
    }
}
