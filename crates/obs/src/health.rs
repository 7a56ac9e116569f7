//! Windowed SLO engine and per-RSU health states.
//!
//! The pieces, bottom-up:
//!
//! - [`SloContract`]: a declarative set of objectives parsed from the root
//!   `slos.toml` (hand-rolled restricted TOML — the workspace vendors no
//!   parser crate). Each [`SloSpec`] names a catalogued metric, the signal
//!   derived from it (a window quantile, rate, delta or gauge ceiling) and
//!   a bound.
//! - Multi-window burn-rate evaluation in the spirit of SRE alerting: a
//!   *fast* window catches acute breaches, a *slow* window confirms they
//!   are sustained; an alert fires only when **both** windows burn past
//!   the threshold for `for_ticks` consecutive ticks, and clears after
//!   `clear_ticks` quiet ticks. Transitions become [`AlertEvent`]s in a
//!   bounded log, flight-recorder points (`health.alert`) and JSONL.
//! - A per-RSU state machine `healthy → degraded → overloaded` with
//!   hysteresis (escalate after `escalate_ticks` pressured ticks, recover
//!   one level per `recover_ticks` quiet ticks), published as
//!   `rsu.health.state.<rsu>` gauges that the testbed consults at
//!   handover.
//!
//! The [`HealthMonitor`] is driver-owned (`&mut self`, no interior locks):
//! a periodic tick snapshots the registry, pushes it into a
//! [`SnapshotRing`](crate::window::SnapshotRing) and evaluates every SLO.
//! Nothing runs on the hot path — instrumented code only keeps feeding the
//! same counters it already feeds, behind the usual one-relaxed-load gate.
//! Timestamps come from [`crate::clock`], so under the virtual clock the
//! whole evaluation is a pure function of the seed and replay artifacts
//! stay byte-stable.

use crate::metrics::Gauge;
use crate::recorder::{recorder, EventKind};
use crate::registry::{registry, MetricsSnapshot};
use crate::sync::Arc;
use crate::window::SnapshotRing;
use crate::{export, names};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// Maximum alert events retained in the monitor's log.
const EVENT_LOG_CAP: usize = 1024;

/// How a scalar signal is derived from the window for one SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Median of a histogram's in-window observations.
    P50,
    /// 95th percentile of a histogram's in-window observations.
    P95,
    /// 99th percentile of a histogram's in-window observations.
    P99,
    /// Mean of a histogram's in-window observations.
    Mean,
    /// Per-second rate of a counter over the window.
    Rate,
    /// Counter increase over the window.
    Delta,
    /// Worst (maximum) gauge reading across the window's samples.
    Value,
}

impl SignalKind {
    fn parse(s: &str) -> Option<SignalKind> {
        Some(match s {
            "p50" => SignalKind::P50,
            "p95" => SignalKind::P95,
            "p99" => SignalKind::P99,
            "mean" => SignalKind::Mean,
            "rate" => SignalKind::Rate,
            "delta" => SignalKind::Delta,
            "value" => SignalKind::Value,
            _ => return None,
        })
    }

    /// The keyword form used in `slos.toml`.
    pub fn as_str(&self) -> &'static str {
        match self {
            SignalKind::P50 => "p50",
            SignalKind::P95 => "p95",
            SignalKind::P99 => "p99",
            SignalKind::Mean => "mean",
            SignalKind::Rate => "rate",
            SignalKind::Delta => "delta",
            SignalKind::Value => "value",
        }
    }
}

/// How bad a firing SLO is for the RSUs it is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Pressure: the RSU should shed load but still meets its function.
    Degraded,
    /// Breach: the RSU is past its budget and handover should avoid it.
    Overloaded,
}

impl Severity {
    /// The keyword form used in `slos.toml` and JSONL.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Degraded => "degraded",
            Severity::Overloaded => "overloaded",
        }
    }
}

/// One declarative objective from `slos.toml`.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Lowercase-dotted alert name (the `[slo.<name>]` section header).
    pub name: String,
    /// Catalogued metric the signal is derived from; for `per_member`
    /// families this is the family prefix (e.g. `rsu.lag`).
    pub metric: String,
    /// Evaluate one alert per `<metric>.<member>` in the latest snapshot.
    pub per_member: bool,
    /// Signal derivation.
    pub signal: SignalKind,
    /// Upper bound (exclusive of burn threshold scaling); `max` and `min`
    /// are mutually exclusive.
    pub max: Option<f64>,
    /// Lower bound.
    pub min: Option<f64>,
    /// Fast (acute) window, nanoseconds.
    pub fast_window_ns: u64,
    /// Slow (sustained) window, nanoseconds.
    pub slow_window_ns: u64,
    /// Both windows must burn at or past this multiple of the budget.
    pub burn_threshold: f64,
    /// Consecutive violating ticks before the alert fires.
    pub for_ticks: u32,
    /// Consecutive quiet ticks before a firing alert clears.
    pub clear_ticks: u32,
    /// Health pressure a firing alert exerts.
    pub severity: Severity,
}

/// The parsed contract: global health-machine tuning plus the SLO list.
#[derive(Debug, Clone)]
pub struct SloContract {
    /// Sampling/evaluation cadence the driver should tick at, nanoseconds.
    pub tick_ns: u64,
    /// Snapshot ring capacity (must cover the widest slow window).
    pub ring_capacity: usize,
    /// Consecutive pressured ticks before an RSU escalates one state.
    pub escalate_ticks: u32,
    /// Consecutive quiet ticks before an RSU recovers one state.
    pub recover_ticks: u32,
    /// The objectives, in file order.
    pub slos: Vec<SloSpec>,
}

impl SloContract {
    /// Parses the restricted TOML dialect of `slos.toml`: `[health]` and
    /// `[slo.<name>]` sections, `key = value` lines where values are
    /// quoted strings, integers, floats or booleans. Unknown sections or
    /// keys are errors, so contract drift is loud.
    pub fn parse(text: &str) -> Result<SloContract, String> {
        let mut contract = SloContract {
            tick_ns: 100_000_000,
            ring_capacity: 256,
            escalate_ticks: 2,
            recover_ticks: 5,
            slos: Vec::new(),
        };
        #[derive(PartialEq)]
        enum Section {
            None,
            Health,
            Slo,
        }
        let mut section = Section::None;
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            let at = |msg: String| format!("slos.toml:{}: {msg}", idx + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if header == "health" {
                    section = Section::Health;
                } else if let Some(name) = header.strip_prefix("slo.") {
                    if !names::is_valid_name(name) {
                        return Err(at(format!("SLO name `{name}` is not lowercase-dotted")));
                    }
                    if contract.slos.iter().any(|s| s.name == name) {
                        return Err(at(format!("duplicate SLO `{name}`")));
                    }
                    contract.slos.push(SloSpec {
                        name: name.to_owned(),
                        metric: String::new(),
                        per_member: false,
                        signal: SignalKind::Value,
                        max: None,
                        min: None,
                        fast_window_ns: 500_000_000,
                        slow_window_ns: 2_000_000_000,
                        burn_threshold: 1.0,
                        for_ticks: 1,
                        clear_ticks: 3,
                        severity: Severity::Degraded,
                    });
                    section = Section::Slo;
                } else {
                    return Err(at(format!("unknown section [{header}]")));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(at(format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            match section {
                Section::None => return Err(at(format!("`{key}` outside any section"))),
                Section::Health => match key {
                    "tick_ms" => {
                        contract.tick_ns = parse_ms(value).ok_or_else(|| at(bad(key, value)))?
                    }
                    "ring_capacity" => {
                        contract.ring_capacity =
                            parse_usize(value).ok_or_else(|| at(bad(key, value)))?
                    }
                    "escalate_ticks" => {
                        contract.escalate_ticks =
                            parse_u32(value).ok_or_else(|| at(bad(key, value)))?
                    }
                    "recover_ticks" => {
                        contract.recover_ticks =
                            parse_u32(value).ok_or_else(|| at(bad(key, value)))?
                    }
                    _ => return Err(at(format!("unknown [health] key `{key}`"))),
                },
                Section::Slo => {
                    let Some(slo) = contract.slos.last_mut() else {
                        return Err(at("key before any [slo.*] section".to_owned()));
                    };
                    match key {
                        "metric" => {
                            slo.metric =
                                parse_string(value).ok_or_else(|| at(bad(key, value)))?.to_owned()
                        }
                        "signal" => {
                            let s = parse_string(value).ok_or_else(|| at(bad(key, value)))?;
                            slo.signal = SignalKind::parse(s)
                                .ok_or_else(|| at(format!("unknown signal `{s}`")))?;
                        }
                        "max" => {
                            slo.max = Some(parse_f64(value).ok_or_else(|| at(bad(key, value)))?)
                        }
                        "min" => {
                            slo.min = Some(parse_f64(value).ok_or_else(|| at(bad(key, value)))?)
                        }
                        "fast_window_ms" => {
                            slo.fast_window_ns =
                                parse_ms(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        "slow_window_ms" => {
                            slo.slow_window_ns =
                                parse_ms(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        "burn_threshold" => {
                            slo.burn_threshold =
                                parse_f64(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        "for_ticks" => {
                            slo.for_ticks = parse_u32(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        "clear_ticks" => {
                            slo.clear_ticks = parse_u32(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        "severity" => {
                            slo.severity = match parse_string(value) {
                                Some("degraded") => Severity::Degraded,
                                Some("overloaded") => Severity::Overloaded,
                                _ => return Err(at(bad(key, value))),
                            }
                        }
                        "per_member" => {
                            slo.per_member = parse_bool(value).ok_or_else(|| at(bad(key, value)))?
                        }
                        _ => return Err(at(format!("unknown [slo] key `{key}`"))),
                    }
                }
            }
        }
        contract.validate()?;
        Ok(contract)
    }

    /// Reads and parses a contract file.
    pub fn load(path: &std::path::Path) -> Result<SloContract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        SloContract::parse(&text)
    }

    fn validate(&self) -> Result<(), String> {
        for slo in &self.slos {
            let name = &slo.name;
            if slo.metric.is_empty() {
                return Err(format!("slo `{name}`: missing `metric`"));
            }
            if !names::is_valid_name(&slo.metric) {
                return Err(format!(
                    "slo `{name}`: metric `{}` is not lowercase-dotted",
                    slo.metric
                ));
            }
            if slo.max.is_some() == slo.min.is_some() {
                return Err(format!("slo `{name}`: exactly one of `max`/`min` required"));
            }
            if slo.fast_window_ns == 0 || slo.fast_window_ns > slo.slow_window_ns {
                return Err(format!("slo `{name}`: need 0 < fast_window <= slow_window"));
            }
            // NaN must fail too, so compare through partial_cmp rather
            // than a negated `>`.
            if slo.burn_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("slo `{name}`: burn_threshold must be positive"));
            }
            if slo.for_ticks == 0 || slo.clear_ticks == 0 {
                return Err(format!("slo `{name}`: for_ticks/clear_ticks must be >= 1"));
            }
        }
        if self.tick_ns == 0 || self.ring_capacity < 2 {
            return Err("[health]: need tick_ms > 0 and ring_capacity >= 2".to_owned());
        }
        Ok(())
    }
}

fn bad(key: &str, value: &str) -> String {
    format!("bad value for `{key}`: `{value}`")
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str) -> Option<&str> {
    v.strip_prefix('"').and_then(|v| v.strip_suffix('"'))
}

fn parse_f64(v: &str) -> Option<f64> {
    v.replace('_', "").parse().ok()
}

fn parse_u32(v: &str) -> Option<u32> {
    v.replace('_', "").parse().ok()
}

fn parse_usize(v: &str) -> Option<usize> {
    v.replace('_', "").parse().ok()
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn parse_ms(v: &str) -> Option<u64> {
    let ms: u64 = v.replace('_', "").parse().ok()?;
    ms.checked_mul(1_000_000)
}

/// A fire or clear transition of one (SLO, member) alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Clock reading at the evaluating tick.
    pub t_ns: u64,
    /// SLO name.
    pub slo: String,
    /// Family member (`None` for scalar SLOs).
    pub member: Option<String>,
    /// `true` = fired, `false` = cleared.
    pub firing: bool,
    /// The SLO's severity.
    pub severity: Severity,
    /// Fast-window burn multiple at the transition.
    pub fast_burn: f64,
    /// Slow-window burn multiple at the transition.
    pub slow_burn: f64,
    /// Fast-window signal value at the transition.
    pub value: f64,
}

/// Per-RSU health state, ordered by badness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All attributed SLOs quiet.
    Healthy,
    /// Sustained `degraded`-severity pressure.
    Degraded,
    /// Sustained `overloaded`-severity pressure.
    Overloaded,
}

impl HealthState {
    /// Gauge encoding (0/1/2).
    pub fn as_gauge(&self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Overloaded => 2,
        }
    }

    /// Decodes a `rsu.health.state.<rsu>` gauge reading (saturating: any
    /// unknown value reads as overloaded, the safe assumption).
    pub fn from_gauge(v: u64) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Overloaded,
        }
    }

    /// Lowercase keyword form.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One evaluated (SLO, member) row of the latest tick — the live console's
/// table source.
#[derive(Debug, Clone)]
pub struct SloRow {
    /// SLO name.
    pub slo: String,
    /// Family member (`None` for scalar SLOs).
    pub member: Option<String>,
    /// Fast-window signal value (`None` while the window has no data).
    pub fast_value: Option<f64>,
    /// Fast-window burn multiple.
    pub fast_burn: Option<f64>,
    /// Slow-window burn multiple.
    pub slow_burn: Option<f64>,
    /// The configured budget (max or min).
    pub budget: f64,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// The SLO's severity.
    pub severity: Severity,
}

#[derive(Debug, Default)]
struct AlertState {
    bad_ticks: u32,
    ok_ticks: u32,
    firing: bool,
}

#[derive(Debug)]
struct RsuHealth {
    state: HealthState,
    worse_ticks: u32,
    better_ticks: u32,
    gauge: Arc<Gauge>,
}

/// Driver-owned SLO evaluator and health-state publisher; see the module
/// docs for the tick lifecycle.
#[derive(Debug)]
pub struct HealthMonitor {
    contract: SloContract,
    ring: SnapshotRing,
    alerts: BTreeMap<(String, Option<String>), AlertState>,
    rsus: BTreeMap<String, RsuHealth>,
    events: VecDeque<AlertEvent>,
    events_dropped: u64,
    last_rows: Vec<SloRow>,
    ticks: u64,
    alert_name_id: u32,
    ticks_counter: Arc<crate::metrics::Counter>,
    transitions_counter: Arc<crate::metrics::Counter>,
    firing_gauge: Arc<Gauge>,
}

impl HealthMonitor {
    /// Builds a monitor over the global registry for `contract`.
    pub fn new(contract: SloContract) -> HealthMonitor {
        let ring = SnapshotRing::new(contract.ring_capacity);
        HealthMonitor {
            contract,
            ring,
            alerts: BTreeMap::new(),
            rsus: BTreeMap::new(),
            events: VecDeque::new(),
            events_dropped: 0,
            last_rows: Vec::new(),
            ticks: 0,
            alert_name_id: registry().intern_name(names::HEALTH_ALERT),
            ticks_counter: registry().counter(names::HEALTH_TICKS),
            transitions_counter: registry().counter(names::HEALTH_ALERT_TRANSITIONS),
            firing_gauge: registry().gauge(names::HEALTH_ALERTS_FIRING),
        }
    }

    /// Registers an RSU's state machine (idempotent) and publishes its
    /// initial `healthy` gauge, so every RSU has a state even before the
    /// first tick.
    pub fn register_rsu(&mut self, name: &str) {
        let entry = self.rsus.entry(name.to_owned()).or_insert_with(|| {
            let gauge = registry().gauge(&format!("{}.{name}", names::RSU_HEALTH_STATE_PREFIX));
            RsuHealth { state: HealthState::Healthy, worse_ticks: 0, better_ticks: 0, gauge }
        });
        entry.gauge.set(entry.state.as_gauge());
    }

    /// The contract this monitor evaluates.
    pub fn contract(&self) -> &SloContract {
        &self.contract
    }

    /// One sampling tick: snapshot the registry and evaluate at `now_ns`
    /// (a [`crate::clock::now_nanos`] reading).
    pub fn tick(&mut self, now_ns: u64) {
        let snapshot = registry().snapshot();
        self.observe(now_ns, snapshot);
    }

    /// Evaluates one externally supplied snapshot — the testable core of
    /// [`Self::tick`].
    pub fn observe(&mut self, now_ns: u64, snapshot: MetricsSnapshot) {
        self.ring.push(now_ns, snapshot);
        self.ticks += 1;
        self.ticks_counter.inc();
        let mut rows = Vec::new();

        for slo in &self.contract.slos {
            let members: Vec<Option<String>> = if slo.per_member {
                family_members(&self.ring, &slo.metric).into_iter().map(Some).collect()
            } else {
                vec![None]
            };
            for member in members {
                let key = match &member {
                    Some(m) => format!("{}.{m}", slo.metric),
                    None => slo.metric.clone(),
                };
                let fast = signal_value(&self.ring, &key, slo.signal, slo.fast_window_ns);
                let slow = signal_value(&self.ring, &key, slo.signal, slo.slow_window_ns);
                let fast_burn = fast.map(|v| burn(slo, v));
                let slow_burn = slow.map(|v| burn(slo, v));
                let violating = fast_burn.is_some_and(|b| b >= slo.burn_threshold)
                    && slow_burn.is_some_and(|b| b >= slo.burn_threshold);

                let state = self.alerts.entry((slo.name.clone(), member.clone())).or_default();
                let mut transition = None;
                if violating {
                    state.bad_ticks = state.bad_ticks.saturating_add(1);
                    state.ok_ticks = 0;
                    if !state.firing && state.bad_ticks >= slo.for_ticks {
                        state.firing = true;
                        transition = Some(true);
                    }
                } else {
                    state.ok_ticks = state.ok_ticks.saturating_add(1);
                    state.bad_ticks = 0;
                    if state.firing && state.ok_ticks >= slo.clear_ticks {
                        state.firing = false;
                        transition = Some(false);
                    }
                }
                let firing = state.firing;
                if let Some(fired) = transition {
                    self.transitions_counter.inc();
                    if crate::enabled() {
                        recorder().record(
                            EventKind::Point,
                            self.alert_name_id,
                            0,
                            0,
                            u64::from(fired),
                            now_ns,
                        );
                    }
                    if self.events.len() == EVENT_LOG_CAP {
                        self.events.pop_front();
                        self.events_dropped += 1;
                    }
                    self.events.push_back(AlertEvent {
                        t_ns: now_ns,
                        slo: slo.name.clone(),
                        member: member.clone(),
                        firing: fired,
                        severity: slo.severity,
                        fast_burn: fast_burn.unwrap_or(0.0),
                        slow_burn: slow_burn.unwrap_or(0.0),
                        value: fast.unwrap_or(0.0),
                    });
                }
                rows.push(SloRow {
                    slo: slo.name.clone(),
                    member,
                    fast_value: fast,
                    fast_burn,
                    slow_burn,
                    budget: slo.max.or(slo.min).unwrap_or(0.0),
                    firing,
                    severity: slo.severity,
                });
            }
        }

        let firing_total = u64::try_from(rows.iter().filter(|r| r.firing).count()).unwrap_or(0);
        self.firing_gauge.set(firing_total);
        self.last_rows = rows;
        self.advance_rsu_states();
    }

    /// Applies the latest rows' pressure to every registered RSU machine.
    fn advance_rsu_states(&mut self) {
        // Pass 1: the pressure each RSU is under. A member alert presses on
        // the RSU it names; scalar and foreign-member alerts (consumer
        // groups, global stages) press on every RSU.
        let mut targets: BTreeMap<&str, HealthState> =
            self.rsus.keys().map(|k| (k.as_str(), HealthState::Healthy)).collect();
        for row in self.last_rows.iter().filter(|r| r.firing) {
            let pressed = match row.severity {
                Severity::Degraded => HealthState::Degraded,
                Severity::Overloaded => HealthState::Overloaded,
            };
            match row.member.as_deref().filter(|m| targets.contains_key(m)) {
                Some(member) => {
                    if let Some(t) = targets.get_mut(member) {
                        *t = (*t).max(pressed);
                    }
                }
                None => {
                    for t in targets.values_mut() {
                        *t = (*t).max(pressed);
                    }
                }
            }
        }
        let targets: BTreeMap<String, HealthState> =
            targets.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        // Pass 2: hysteresis.
        for (name, rsu) in &mut self.rsus {
            let target = targets.get(name).copied().unwrap_or(HealthState::Healthy);
            if target > rsu.state {
                rsu.worse_ticks = rsu.worse_ticks.saturating_add(1);
                rsu.better_ticks = 0;
                if rsu.worse_ticks >= self.contract.escalate_ticks {
                    rsu.state = target;
                    rsu.worse_ticks = 0;
                }
            } else if target < rsu.state {
                rsu.better_ticks = rsu.better_ticks.saturating_add(1);
                rsu.worse_ticks = 0;
                if rsu.better_ticks >= self.contract.recover_ticks {
                    rsu.state = match rsu.state {
                        HealthState::Overloaded => HealthState::Degraded,
                        _ => HealthState::Healthy,
                    };
                    rsu.better_ticks = 0;
                }
            } else {
                rsu.worse_ticks = 0;
                rsu.better_ticks = 0;
            }
            rsu.gauge.set(rsu.state.as_gauge());
        }
    }

    /// Evaluation ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The snapshot ring (for console window readouts).
    pub fn ring(&self) -> &SnapshotRing {
        &self.ring
    }

    /// The latest tick's evaluated rows.
    pub fn rows(&self) -> &[SloRow] {
        &self.last_rows
    }

    /// Currently firing rows.
    pub fn firing(&self) -> impl Iterator<Item = &SloRow> {
        self.last_rows.iter().filter(|r| r.firing)
    }

    /// The bounded alert-transition log (oldest first) and how many events
    /// it has shed.
    pub fn events(&self) -> (&VecDeque<AlertEvent>, u64) {
        (&self.events, self.events_dropped)
    }

    /// Every registered RSU with its current state, name-ordered.
    pub fn states(&self) -> Vec<(String, HealthState)> {
        self.rsus.iter().map(|(n, r)| (n.clone(), r.state)).collect()
    }
}

/// The `rsu.health.state.<rsu>` gauge name for `rsu` — shared between the
/// monitor's publisher and the handover-time reader in `cad3`.
pub fn state_gauge_name(rsu: &str) -> String {
    format!("{}.{rsu}", names::RSU_HEALTH_STATE_PREFIX)
}

/// Members of a dynamic family present in the newest snapshot: the
/// suffixes of `<family>.<member>` keys across counters and gauges.
fn family_members(ring: &SnapshotRing, family: &str) -> Vec<String> {
    let Some((_, snap)) = ring.latest() else { return Vec::new() };
    let prefix = format!("{family}.");
    snap.gauges
        .keys()
        .chain(snap.counters.keys())
        .filter_map(|k| k.strip_prefix(&prefix))
        .map(str::to_owned)
        .collect()
}

/// Derives one scalar from the window, or `None` when the window holds no
/// data for the metric yet (absence never violates).
fn signal_value(ring: &SnapshotRing, key: &str, signal: SignalKind, window_ns: u64) -> Option<f64> {
    match signal {
        SignalKind::P50 | SignalKind::P95 | SignalKind::P99 | SignalKind::Mean => {
            let h = ring.histogram_window(key, window_ns)?;
            if h.count == 0 {
                return None;
            }
            Some(match signal {
                SignalKind::P50 => h.p50() as f64,
                SignalKind::P95 => h.p95() as f64,
                SignalKind::P99 => h.p99() as f64,
                _ => h.mean(),
            })
        }
        SignalKind::Rate => ring.counter_rate(key, window_ns),
        SignalKind::Delta => ring.counter_delta(key, window_ns).map(|d| d as f64),
        SignalKind::Value => ring.gauge_max(key, window_ns).map(|v| v as f64),
    }
}

/// Burn multiple: how many times over budget the signal is. For an upper
/// bound this is `value / max`; for a lower bound, `min / value`. A zero
/// budget burns infinitely as soon as the signal leaves zero, which is how
/// "must stay zero" objectives (`max = 0`) are expressed.
fn burn(slo: &SloSpec, value: f64) -> f64 {
    if let Some(max) = slo.max {
        if max > 0.0 {
            value / max
        } else if value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else if let Some(min) = slo.min {
        if value > 0.0 {
            min / value
        } else if min > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// Renders alert events as JSON Lines, one transition per line.
pub fn alerts_jsonl<'a>(events: impl IntoIterator<Item = &'a AlertEvent>) -> String {
    let mut out = String::new();
    for e in events {
        let member = match &e.member {
            Some(m) => format!("\"{}\"", export::json_escape(m)),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "{{\"t_ns\":{},\"slo\":\"{}\",\"member\":{member},\"firing\":{},\"severity\":\"{}\",\"fast_burn\":{:.4},\"slow_burn\":{:.4},\"value\":{:.4}}}\n",
            e.t_ns,
            export::json_escape(&e.slo),
            e.firing,
            e.severity.as_str(),
            e.fast_burn,
            e.slow_burn,
            e.value,
        ));
    }
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    fn contract(text: &str) -> SloContract {
        SloContract::parse(text).unwrap()
    }

    fn gauge_snap(entries: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Map::new(),
            gauges: entries.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            histograms: Map::new(),
            exemplars: Map::new(),
        }
    }

    const LAG_CONTRACT: &str = r#"
        [health]
        tick_ms = 100
        escalate_ticks = 2
        recover_ticks = 3

        [slo.rsu.lag_ceiling]
        metric = "rsu.lag"
        per_member = true
        signal = "value"
        max = 100
        fast_window_ms = 200
        slow_window_ms = 400
        for_ticks = 2
        clear_ticks = 2
        severity = "overloaded"
    "#;

    #[test]
    fn parser_round_trips_the_lag_contract() {
        let c = contract(LAG_CONTRACT);
        assert_eq!(c.tick_ns, 100_000_000);
        assert_eq!(c.escalate_ticks, 2);
        assert_eq!(c.slos.len(), 1);
        let s = &c.slos[0];
        assert_eq!(s.name, "rsu.lag_ceiling");
        assert_eq!(s.metric, "rsu.lag");
        assert!(s.per_member);
        assert_eq!(s.signal, SignalKind::Value);
        assert_eq!(s.max, Some(100.0));
        assert_eq!(s.fast_window_ns, 200_000_000);
        assert_eq!(s.severity, Severity::Overloaded);
    }

    #[test]
    fn parser_rejects_drift() {
        for bad in [
            "[slo.Bad-Name]\nmetric = \"a\"\nmax = 1",
            "[health]\nunknown_key = 1",
            "[slo.a.b]\nmetric = \"a\"\nmax = 1\nmin = 0",
            "[slo.a.b]\nmetric = \"a\"",
            "[slo.a.b]\nmetric = \"a\"\nmax = 1\nsignal = \"p98\"",
            "[mystery]\nx = 1",
            "stray = 1",
            "[slo.a.b]\nmetric = \"a\"\nmax = 1\nfast_window_ms = 900\nslow_window_ms = 300",
        ] {
            assert!(SloContract::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn comments_and_quotes_strip_cleanly() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("m = \"a#b\" # note"), "m = \"a#b\" ");
        assert_eq!(strip_comment("# whole line"), "");
    }

    /// Scripted snapshots: lag breaches on ticks 3..=6, then drains. The
    /// alert needs both windows burning for 2 ticks to fire and 2 quiet
    /// ticks to clear; the RSU machine escalates after 2 pressured ticks
    /// and recovers after 3 quiet ones.
    #[test]
    fn burn_rate_hysteresis_fires_and_clears() {
        let mut mon = HealthMonitor::new(contract(LAG_CONTRACT));
        mon.register_rsu("rsu-hy-a");
        mon.register_rsu("rsu-hy-b");
        let tick = 100_000_000u64;
        let lag_at = |t: u64| if (3..=6).contains(&t) { 500 } else { 10 };
        let mut fired_at = None;
        let mut cleared_at = None;
        for i in 0..16u64 {
            mon.observe(
                i * tick,
                gauge_snap(&[("rsu.lag.rsu-hy-a", lag_at(i)), ("rsu.lag.rsu-hy-b", 10)]),
            );
            let firing = mon.firing().count();
            if firing > 0 && fired_at.is_none() {
                fired_at = Some(i);
            }
            if fired_at.is_some() && firing == 0 && cleared_at.is_none() {
                cleared_at = Some(i);
            }
        }
        // Breach starts at tick 3; for_ticks=2 -> fires on tick 4.
        assert_eq!(fired_at, Some(4));
        // gauge_max holds the 500 in-window after the breach ends (window
        // spans 400ms = 4 ticks), so clearing waits for the window to
        // drain plus clear_ticks=2 quiet ticks.
        let cleared = cleared_at.unwrap();
        assert!(cleared > 8, "cleared too early at {cleared}");
        let (events, dropped) = mon.events();
        assert_eq!(dropped, 0);
        let kinds: Vec<bool> = events.iter().map(|e| e.firing).collect();
        assert_eq!(kinds, vec![true, false], "exactly one fire and one clear");
        assert_eq!(events[0].member.as_deref(), Some("rsu-hy-a"));
        assert_eq!(events[0].severity, Severity::Overloaded);
        assert!(events[0].fast_burn >= 5.0, "{}", events[0].fast_burn);
    }

    #[test]
    fn rsu_state_machine_escalates_only_the_named_member() {
        let mut mon = HealthMonitor::new(contract(LAG_CONTRACT));
        mon.register_rsu("rsu-sm-a");
        mon.register_rsu("rsu-sm-b");
        let tick = 100_000_000u64;
        for i in 0..8u64 {
            mon.observe(
                i * tick,
                gauge_snap(&[("rsu.lag.rsu-sm-a", 500), ("rsu.lag.rsu-sm-b", 1)]),
            );
        }
        let states: Map<_, _> = mon.states().into_iter().collect();
        assert_eq!(states["rsu-sm-a"], HealthState::Overloaded);
        assert_eq!(states["rsu-sm-b"], HealthState::Healthy);
        // And the published gauges agree.
        let snap = registry().snapshot();
        assert_eq!(snap.gauge(&state_gauge_name("rsu-sm-a")), 2);
        assert_eq!(snap.gauge(&state_gauge_name("rsu-sm-b")), 0);
        // Recovery steps down one level at a time.
        for i in 8..40u64 {
            mon.observe(i * tick, gauge_snap(&[("rsu.lag.rsu-sm-a", 1), ("rsu.lag.rsu-sm-b", 1)]));
        }
        let states: Map<_, _> = mon.states().into_iter().collect();
        assert_eq!(states["rsu-sm-a"], HealthState::Healthy);
    }

    #[test]
    fn unattributed_alerts_press_every_rsu() {
        let text = r#"
            [health]
            escalate_ticks = 1
            recover_ticks = 2

            [slo.global.drops]
            metric = "obs.trace.dropped"
            signal = "value"
            max = 5
            fast_window_ms = 100
            slow_window_ms = 200
            for_ticks = 1
            clear_ticks = 1
            severity = "degraded"
        "#;
        let mut mon = HealthMonitor::new(contract(text));
        mon.register_rsu("rsu-ua-a");
        mon.register_rsu("rsu-ua-b");
        for i in 0..4u64 {
            mon.observe(i * 100_000_000, gauge_snap(&[("obs.trace.dropped", 50)]));
        }
        for (_, state) in mon.states() {
            assert_eq!(state, HealthState::Degraded, "degraded alerts cap at degraded");
        }
    }

    #[test]
    fn zero_budget_expresses_must_stay_zero() {
        let slo = SloSpec {
            name: "z".to_owned(),
            metric: "m".to_owned(),
            per_member: false,
            signal: SignalKind::Value,
            max: Some(0.0),
            min: None,
            fast_window_ns: 1,
            slow_window_ns: 1,
            burn_threshold: 1.0,
            for_ticks: 1,
            clear_ticks: 1,
            severity: Severity::Degraded,
        };
        assert_eq!(burn(&slo, 0.0), 0.0);
        assert_eq!(burn(&slo, 0.5), f64::INFINITY);
    }

    #[test]
    fn alerts_jsonl_is_valid_shape() {
        let e = AlertEvent {
            t_ns: 5,
            slo: "a.b".to_owned(),
            member: Some("g\"1".to_owned()),
            firing: true,
            severity: Severity::Overloaded,
            fast_burn: 2.0,
            slow_burn: 1.5,
            value: 42.0,
        };
        let line = alerts_jsonl([&e]);
        assert!(line.starts_with("{\"t_ns\":5,\"slo\":\"a.b\",\"member\":\"g\\\"1\""), "{line}");
        assert!(line.contains("\"severity\":\"overloaded\""));
        assert!(line.ends_with("}\n"));
        let scalar = AlertEvent { member: None, ..e };
        assert!(alerts_jsonl([&scalar]).contains("\"member\":null"));
    }
}
