//! The canonical metric and span name catalogue.
//!
//! Every name the workspace's instrumentation registers is listed here, so
//! the namespace has one authoritative index (dashboards, the e2e CI
//! assertion and DESIGN.md all read from this list) and a unit test can
//! hold the naming convention: lowercase dotted segments, with the unit
//! suffixed to histogram names (`_ns`, `_us`).
//!
//! Call sites pass these names as string literals (so `cargo xtask lint`'s
//! `obs-names` rule can check them without name resolution); this module is
//! the registry those literals must match, enforced by [`ALL`] in tests.

/// Records appended to a topic by `SharedTopic::append_traced`, which
/// every append path ends in, `Broker::produce` included (counter).
pub const STREAM_BROKER_PRODUCE: &str = "stream.broker.produce";
/// Records read from a partition by `SharedTopic::fetch_each`, which every
/// `Consumer::poll_each` and `Broker::fetch` ends in (counter).
pub const STREAM_BROKER_FETCH_RECORDS: &str = "stream.broker.fetch.records";
/// Append latency of head-sampled records, nanoseconds (histogram;
/// exporter-gated, and observed only for a record carrying a trace context).
pub const STREAM_BROKER_PRODUCE_NS: &str = "stream.broker.produce_ns";
/// Latency of one partition read by `SharedTopic::fetch_each` (every
/// `Consumer::poll_each` and `Broker::fetch`), visitor included,
/// nanoseconds (histogram; exporter-gated).
pub const STREAM_BROKER_FETCH_NS: &str = "stream.broker.fetch_ns";
/// `Consumer::poll_each` calls, `Consumer::poll`'s included (counter).
pub const STREAM_CONSUMER_POLLS: &str = "stream.consumer.polls";
/// Records visited by `Consumer::poll_each` (counter).
pub const STREAM_CONSUMER_RECORDS: &str = "stream.consumer.records";
/// Records `Consumer::poll_each` never visited because a trim freed them
/// before the consumer reached them: another reader's commit floor or the
/// topic's horizon (counter).
pub const STREAM_CONSUMER_SKIPPED: &str = "stream.consumer.skipped";

/// One RSU micro-batch (span; enter value = record count).
pub const RSU_MICRO_BATCH: &str = "rsu.micro_batch";
/// `CO-DATA` ingest + collaboration fuse stage (span).
pub const RSU_HANDOVER_FUSE: &str = "rsu.handover.fuse";
/// `IN-DATA` ingest stage (span).
pub const RSU_INGEST: &str = "rsu.ingest";
/// Parallel detection stage (span).
pub const RSU_DETECT: &str = "rsu.detect";
/// Status records processed by RSUs (counter).
pub const RSU_RECORDS: &str = "rsu.records";
/// Warnings emitted by RSUs (counter).
pub const RSU_WARNINGS: &str = "rsu.warnings";
/// Collaboration summaries received on `CO-DATA` (counter).
pub const RSU_SUMMARIES_IN: &str = "rsu.handover.summaries_in";
/// Collaboration summaries exported for the next RSU (counter).
pub const RSU_SUMMARIES_OUT: &str = "rsu.handover.summaries_out";
/// Column-major NB sweep inside the parallel detect stage (profile-only
/// stage, entered with `profile_span!` — no recorder event, no histogram).
pub const ML_NB_SWEEP: &str = "ml.nb.sweep";

/// Fig. 6a decomposition histograms, microseconds of *modelled* (virtual)
/// time, fed by `cad3::LatencyStats::record` (exporter-gated).
pub const RSU_TX_US: &str = "rsu.tx_us";
/// Queuing stage of the Fig. 6a decomposition (histogram, µs).
pub const RSU_QUEUING_US: &str = "rsu.queuing_us";
/// Processing stage of the Fig. 6a decomposition (histogram, µs).
pub const RSU_PROCESSING_US: &str = "rsu.processing_us";
/// Dissemination stage of the Fig. 6a decomposition (histogram, µs).
pub const RSU_DISSEMINATION_US: &str = "rsu.dissemination_us";
/// Detection-side latency (tx + queuing + processing) of the Fig. 6a
/// decomposition — time to a *detected* anomaly, before dissemination
/// (histogram, µs; exemplar-enabled).
pub const RSU_DETECT_US: &str = "rsu.detect_us";
/// End-to-end total of the Fig. 6a decomposition (histogram, µs).
pub const RSU_TOTAL_US: &str = "rsu.total_us";

/// Record emission at the vehicle — the root of every distributed trace
/// (trace span; instant).
pub const VEHICLE_EMIT: &str = "vehicle.emit";
/// DSRC uplink vehicle→RSU, send to modelled arrival (trace span).
pub const NET_DSRC_TX: &str = "net.dsrc.tx";
/// Wired RSU-interconnect transfer; value = queue delay, ns (trace span).
pub const NET_LINK_TX: &str = "net.link.tx";
/// Broker residency before the micro-batch picked the record up
/// (trace span).
pub const RSU_QUEUE: &str = "rsu.queue";
/// Warning publish to driver delivery on `OUT-DATA` (trace span).
pub const RSU_DISSEMINATE: &str = "rsu.disseminate";
/// Flight-recorder events lost to ring wrap (gauge; see
/// `FlightRecorder::dropped`).
pub const OBS_RECORDER_DROPPED: &str = "obs.recorder.dropped";
/// Trace events rejected by the bounded trace sink (gauge).
pub const OBS_TRACE_DROPPED: &str = "obs.trace.dropped";

/// Bytes carried by wired RSU-interconnect links (counter).
pub const NET_LINK_BYTES: &str = "net.link.bytes";
/// Frames carried by wired RSU-interconnect links (counter).
pub const NET_LINK_FRAMES: &str = "net.link.frames";

/// Result artefacts (`results/*.json`, `results/*.prom`) written by the
/// bench harness (counter).
pub const BENCH_RESULTS_WRITTEN: &str = "bench.results.written";
/// Result artefacts the bench harness failed to write (counter).
pub const BENCH_RESULTS_ERRORS: &str = "bench.results.errors";

/// Per-RSU backlog gauge prefix, the one lag signal; the RSU name is
/// appended: `rsu.lag.<rsu>` (records queued on `IN-DATA` at batch start,
/// which the batch's `IN-DATA` poll drains).
pub const RSU_LAG_PREFIX: &str = "rsu.lag";
/// Per-RSU health state gauge prefix; the RSU name is appended:
/// `rsu.health.state.<rsu>` (0 healthy, 1 degraded, 2 overloaded).
pub const RSU_HEALTH_STATE_PREFIX: &str = "rsu.health.state";
/// Per-RSU DSRC offered-load gauge prefix; the RSU name is appended:
/// `net.dsrc.offered_bps.<rsu>` (windowed received bits/s on the channel).
pub const NET_DSRC_OFFERED_BPS_PREFIX: &str = "net.dsrc.offered_bps";
/// Health-monitor evaluation ticks (counter).
pub const HEALTH_TICKS: &str = "health.ticks";
/// SLO alerts currently firing across all members (gauge).
pub const HEALTH_ALERTS_FIRING: &str = "health.alerts.firing";
/// Alert fire/clear transitions since startup (counter).
pub const HEALTH_ALERT_TRANSITIONS: &str = "health.alert.transitions";
/// Flight-recorder point emitted on every alert transition (value 1 =
/// fired, 0 = cleared).
pub const HEALTH_ALERT: &str = "health.alert";
/// Handover destinations whose health gauge was consulted (counter).
pub const HEALTH_HANDOVER_CHECKS: &str = "health.handover.checks";
/// Handover destinations found degraded or overloaded (counter).
pub const HEALTH_HANDOVER_UNHEALTHY: &str = "health.handover.unhealthy";
/// Dynamic registrations rejected by a family cardinality cap and routed
/// to the family's shared `.overflow` cell (counter; see `DYNAMIC_FAMILIES`).
pub const OBS_NAMES_DROPPED: &str = "obs.names.dropped";

/// Every catalogued name (spans listed under their bare name; their
/// duration histograms add the `_ns` suffix at registration).
pub const ALL: &[&str] = &[
    STREAM_BROKER_PRODUCE,
    STREAM_BROKER_FETCH_RECORDS,
    STREAM_BROKER_PRODUCE_NS,
    STREAM_BROKER_FETCH_NS,
    STREAM_CONSUMER_POLLS,
    STREAM_CONSUMER_RECORDS,
    STREAM_CONSUMER_SKIPPED,
    RSU_MICRO_BATCH,
    RSU_HANDOVER_FUSE,
    RSU_INGEST,
    RSU_DETECT,
    RSU_RECORDS,
    RSU_WARNINGS,
    RSU_SUMMARIES_IN,
    RSU_SUMMARIES_OUT,
    ML_NB_SWEEP,
    RSU_TX_US,
    RSU_QUEUING_US,
    RSU_PROCESSING_US,
    RSU_DISSEMINATION_US,
    RSU_DETECT_US,
    RSU_TOTAL_US,
    VEHICLE_EMIT,
    NET_DSRC_TX,
    NET_LINK_TX,
    RSU_QUEUE,
    RSU_DISSEMINATE,
    OBS_RECORDER_DROPPED,
    OBS_TRACE_DROPPED,
    NET_LINK_BYTES,
    NET_LINK_FRAMES,
    BENCH_RESULTS_WRITTEN,
    BENCH_RESULTS_ERRORS,
    RSU_LAG_PREFIX,
    RSU_HEALTH_STATE_PREFIX,
    NET_DSRC_OFFERED_BPS_PREFIX,
    HEALTH_TICKS,
    HEALTH_ALERTS_FIRING,
    HEALTH_ALERT_TRANSITIONS,
    HEALTH_ALERT,
    HEALTH_HANDOVER_CHECKS,
    HEALTH_HANDOVER_UNHEALTHY,
    OBS_NAMES_DROPPED,
];

/// Dynamic metric families: catalogued prefixes that spawn one member per
/// runtime entity (`<prefix>.<member>`) plus the registry's cardinality cap
/// for each. Past the cap, registrations collapse onto the family's shared
/// `<prefix>.overflow` cell and `obs.names.dropped` counts the rejects, so
/// a hostile or buggy label set cannot grow the registry without bound.
pub const DYNAMIC_FAMILY_CAP: usize = 64;
/// The families themselves; every entry's prefix is also in [`ALL`].
pub const DYNAMIC_FAMILIES: &[&str] =
    &[RSU_LAG_PREFIX, RSU_HEALTH_STATE_PREFIX, NET_DSRC_OFFERED_BPS_PREFIX];

/// One-line exposition help text per catalogued name, rendered as
/// Prometheus `# HELP` lines by [`crate::export::prometheus_text`]. Span
/// names describe their `<name>_ns` duration histogram; dynamic family
/// prefixes describe every member.
pub const HELP: &[(&str, &str)] = &[
    (STREAM_BROKER_PRODUCE, "Records appended to topic partitions."),
    (STREAM_BROKER_FETCH_RECORDS, "Records read from topic partitions by polls and fetches."),
    (STREAM_BROKER_PRODUCE_NS, "Append latency of head-sampled records, nanoseconds."),
    (STREAM_BROKER_FETCH_NS, "Latency of one partition read by a poll or fetch, nanoseconds."),
    (STREAM_CONSUMER_POLLS, "Consumer::poll calls."),
    (STREAM_CONSUMER_RECORDS, "Records delivered by Consumer::poll."),
    (
        STREAM_CONSUMER_SKIPPED,
        "Records a commit-floor or horizon trim freed before a poll reached them.",
    ),
    (RSU_MICRO_BATCH, "Duration of one RSU micro-batch in nanoseconds."),
    (RSU_HANDOVER_FUSE, "Duration of the CO-DATA ingest and fuse stage in nanoseconds."),
    (RSU_INGEST, "Duration of the IN-DATA ingest stage in nanoseconds."),
    (RSU_DETECT, "Duration of the parallel detection stage in nanoseconds."),
    (RSU_RECORDS, "Status records processed by RSUs."),
    (RSU_WARNINGS, "Warnings emitted by RSUs."),
    (RSU_SUMMARIES_IN, "Collaboration summaries received on CO-DATA."),
    (RSU_SUMMARIES_OUT, "Collaboration summaries exported for the next RSU."),
    (ML_NB_SWEEP, "Column-major NB sweep stage inside parallel detect."),
    (RSU_TX_US, "Modelled DSRC transmission stage in microseconds."),
    (RSU_QUEUING_US, "Modelled queuing stage in microseconds."),
    (RSU_PROCESSING_US, "Modelled processing stage in microseconds."),
    (RSU_DISSEMINATION_US, "Modelled dissemination stage in microseconds."),
    (RSU_DETECT_US, "Modelled latency to detection, before dissemination, in microseconds."),
    (RSU_TOTAL_US, "Modelled end-to-end detection latency in microseconds."),
    (VEHICLE_EMIT, "Record emission at the vehicle, the root trace span."),
    (NET_DSRC_TX, "DSRC uplink vehicle-to-RSU trace span in nanoseconds."),
    (NET_LINK_TX, "Wired RSU-interconnect transfer trace span in nanoseconds."),
    (RSU_QUEUE, "Broker residency before micro-batch pickup in nanoseconds."),
    (RSU_DISSEMINATE, "Warning publish to driver delivery in nanoseconds."),
    (OBS_RECORDER_DROPPED, "Flight-recorder events lost to ring wrap."),
    (OBS_TRACE_DROPPED, "Trace events rejected by the bounded trace sink."),
    (NET_LINK_BYTES, "Bytes carried by wired RSU-interconnect links."),
    (NET_LINK_FRAMES, "Frames carried by wired RSU-interconnect links."),
    (BENCH_RESULTS_WRITTEN, "Result artefacts written by the bench harness."),
    (BENCH_RESULTS_ERRORS, "Result artefacts the bench harness failed to write."),
    (RSU_LAG_PREFIX, "IN-DATA backlog of one RSU at micro-batch start."),
    (RSU_HEALTH_STATE_PREFIX, "Health state of one RSU: 0 healthy, 1 degraded, 2 overloaded."),
    (NET_DSRC_OFFERED_BPS_PREFIX, "Windowed DSRC offered load of one RSU in bits per second."),
    (HEALTH_TICKS, "Health-monitor evaluation ticks."),
    (HEALTH_ALERTS_FIRING, "SLO alerts currently firing across all members."),
    (HEALTH_ALERT_TRANSITIONS, "Alert fire and clear transitions since startup."),
    (HEALTH_ALERT, "Alert transition point events: value 1 fired, 0 cleared."),
    (HEALTH_HANDOVER_CHECKS, "Handover destinations whose health gauge was consulted."),
    (HEALTH_HANDOVER_UNHEALTHY, "Handover destinations found degraded or overloaded."),
    (OBS_NAMES_DROPPED, "Dynamic registrations rejected by a family cardinality cap."),
];

/// Histograms created with per-bucket tail exemplar slots: observations on
/// these names may carry a trace id (`observe_with_exemplar`), letting any
/// tail bucket above p95 expand into a full assembled trace waterfall.
/// Every entry must also be a catalogued name (enforced in tests).
pub const EXEMPLAR_HISTOGRAMS: &[&str] = &["rsu.detect_us", "rsu.total_us"];

/// The thread-class vocabulary of the continuous profiler
/// (`cad3_obs::profile::set_thread_class`): path roots in folded stacks.
/// Kept as one literal array line so `cargo xtask lint`'s `profile-names`
/// rule can parse it without name resolution; every entry is a lowercase
/// identifier, `[a-z_]+` (enforced in tests).
pub const THREAD_CLASSES: &[&str] = &["main", "worker"];

/// Looks up the help text for a catalogued name, resolving `<span>_ns`
/// duration histograms to their span's entry and `<family>.<member>` (or
/// `<family>.overflow`) members to the family's entry.
pub fn help_for(name: &str) -> Option<&'static str> {
    let exact = |n: &str| HELP.iter().find(|(k, _)| *k == n).map(|(_, h)| *h);
    if let Some(h) = exact(name) {
        return Some(h);
    }
    if let Some(base) = name.strip_suffix("_ns") {
        if let Some(h) = exact(base) {
            return Some(h);
        }
    }
    DYNAMIC_FAMILIES
        .iter()
        .find(|f| name.strip_prefix(**f).is_some_and(|rest| rest.starts_with('.')))
        .and_then(|f| exact(f))
}

/// Whether `name` follows the workspace naming convention: lowercase
/// dot-separated segments of `[a-z0-9_]`, starting each segment with a
/// letter and never ending in a dot.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg.starts_with(|c: char| c.is_ascii_lowercase())
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(is_valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
    }

    #[test]
    fn every_name_has_help_and_every_family_is_catalogued() {
        for name in ALL {
            assert!(help_for(name).is_some(), "no HELP entry for {name}");
        }
        for family in DYNAMIC_FAMILIES {
            assert!(ALL.contains(family), "dynamic family {family} missing from ALL");
            assert_eq!(
                help_for(&format!("{family}.some_member")),
                help_for(family),
                "family member help should resolve to the family entry"
            );
        }
        assert_eq!(help_for("rsu.detect_ns"), help_for("rsu.detect"), "span _ns fallback");
        assert_eq!(help_for("not.a.catalogued.name"), None);
    }

    #[test]
    fn exemplar_histograms_and_thread_classes_are_catalogued_vocabulary() {
        for name in EXEMPLAR_HISTOGRAMS {
            assert!(ALL.contains(name), "exemplar histogram {name} missing from ALL");
        }
        assert_eq!(EXEMPLAR_HISTOGRAMS, &[RSU_DETECT_US, RSU_TOTAL_US]);
        for class in THREAD_CLASSES {
            let ident =
                !class.is_empty() && class.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
            assert!(ident, "thread class {class:?} is not a lowercase identifier [a-z_]+");
        }
        let mut seen = std::collections::BTreeSet::new();
        for class in THREAD_CLASSES {
            assert!(seen.insert(class), "duplicate thread class {class}");
        }
    }

    #[test]
    fn validity_rejects_bad_shapes() {
        for bad in ["", "Upper.case", "trailing.", ".leading", "sp ace", "dash-ed", "1digit"] {
            assert!(!is_valid_name(bad), "{bad} should be invalid");
        }
        for good in ["a", "rsu.micro_batch", "stream.consumer.polls", "rsu.tx_us", "x9.y_z"] {
            assert!(is_valid_name(good), "{good} should be valid");
        }
    }
}
