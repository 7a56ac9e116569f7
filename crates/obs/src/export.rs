//! Exporters: Prometheus-style text and JSONL event logs.
//!
//! Both are plain string renderers over the snapshot types — no I/O, no
//! serializer dependency — so callers decide where the bytes go (a file in
//! `results/`, stderr from the panic hook, a CI artifact).

use crate::metrics::{bucket_upper, Exemplar, HistogramSnapshot, BUCKETS};
use crate::recorder::{EventKind, SpanEvent};
use crate::registry::MetricsSnapshot;
use std::fmt::Write;

/// Metric names are dotted (`stream.broker.produce`); Prometheus wants
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, so dots become underscores under a `cad3_`
/// namespace prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("cad3_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes `# HELP` text per the exposition format: backslash and newline
/// must be backslash-escaped.
fn prom_escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Emits the `# HELP` line for a sample family when the metric is in the
/// names catalogue (`help_for` also resolves `_ns` span histograms and
/// dynamic-family members); ad-hoc names stay bare.
fn write_help(out: &mut String, family: &str, metric: &str) {
    if let Some(help) = crate::names::help_for(metric) {
        let _ = writeln!(out, "# HELP {family} {}", prom_escape_help(help));
    }
}

/// Escapes a label value per the text exposition format: backslash, double
/// quote and newline must be backslash-escaped inside the quotes.
fn prom_escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The OpenMetrics-style exemplar annotation appended to a `_bucket` line:
/// ` # {trace_id="<hex>"} <value>`. Empty when the bucket has none.
fn exemplar_suffix(exemplars: &[(usize, Exemplar)], bucket: usize) -> String {
    exemplars
        .iter()
        .find(|(b, _)| *b == bucket)
        .map(|(_, ex)| format!(" # {{trace_id=\"{:016x}\"}} {}", ex.trace_id, ex.value))
        .unwrap_or_default()
}

fn prom_histogram(out: &mut String, name: &str, h: &HistogramSnapshot, ex: &[(usize, Exemplar)]) {
    let p = prom_name(name);
    write_help(out, &p, name);
    let _ = writeln!(out, "# TYPE {p} histogram");
    let mut cumulative = 0u64;
    let last = (0..BUCKETS).rev().find(|&b| h.buckets[b] > 0).unwrap_or(0);
    for b in 0..=last {
        cumulative += h.buckets[b];
        // The top log2 bucket is unbounded; `+Inf` below is its `le` line
        // (a literal 2^64-1 bound would misstate the histogram's range).
        if bucket_upper(b) == u64::MAX {
            continue;
        }
        let _ = writeln!(
            out,
            "{p}_bucket{{le=\"{}\"}} {cumulative}{}",
            bucket_upper(b),
            exemplar_suffix(ex, b)
        );
    }
    // The unbounded top bucket's exemplar (if any) rides the +Inf line.
    let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}{}", h.count, exemplar_suffix(ex, 64));
    let _ = writeln!(out, "{p}_sum {}", h.sum);
    let _ = writeln!(out, "{p}_count {}", h.count);
}

/// Gauge families rendered with a label instead of a name suffix: the
/// registry stores per-RSU lag as `rsu.lag.<rsu>`, which the exporter
/// folds into one `cad3_rsu_lag{rsu="…"}` family so dashboards can
/// aggregate across RSUs.
const LABELED_GAUGE_PREFIXES: [(&str, &str, &str); 3] = [
    ("rsu.lag.", "cad3_rsu_lag", "rsu"),
    ("rsu.health.state.", "cad3_rsu_health_state", "rsu"),
    ("net.dsrc.offered_bps.", "cad3_net_dsrc_offered_bps", "rsu"),
];

/// Renders a snapshot in the Prometheus text exposition format: every
/// sample family is preceded by its `# TYPE` line (and, for catalogued
/// names, a `# HELP` line from [`crate::names::HELP`]), counters take the
/// `_total` suffix, label values are escaped, and histograms emit
/// cumulative buckets capped by `+Inf` plus `_sum`/`_count`. Buckets of
/// exemplar-enabled histograms carry OpenMetrics-style annotations
/// (` # {trace_id="<hex>"} <value>`) linking the tail to a concrete trace.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let p = prom_name(name);
        write_help(&mut out, &format!("{p}_total"), name);
        let _ = writeln!(out, "# TYPE {p}_total counter");
        let _ = writeln!(out, "{p}_total {value}");
    }
    let mut typed_families: Vec<&str> = Vec::new();
    for (name, value) in &snapshot.gauges {
        if let Some((prefix, family, label)) =
            LABELED_GAUGE_PREFIXES.iter().find(|(prefix, _, _)| name.starts_with(prefix))
        {
            // BTreeMap order keeps one family's gauges contiguous, so the
            // TYPE line is emitted once per family, before its samples.
            if !typed_families.contains(family) {
                typed_families.push(family);
                write_help(&mut out, family, prefix.trim_end_matches('.'));
                let _ = writeln!(out, "# TYPE {family} gauge");
            }
            let suffix = &name[prefix.len()..];
            let _ = writeln!(
                out,
                "{family}{{{label}=\"{}\"}} {value}",
                prom_escape_label_value(suffix)
            );
            continue;
        }
        let p = prom_name(name);
        write_help(&mut out, &p, name);
        let _ = writeln!(out, "# TYPE {p} gauge");
        let _ = writeln!(out, "{p} {value}");
    }
    for (name, h) in &snapshot.histograms {
        prom_histogram(&mut out, name, h, snapshot.exemplars_of(name));
    }
    out
}

/// Minimal JSON string escaping (names are `[a-z0-9._]` by the workspace
/// lint, but the renderer stays correct for arbitrary input). Shared with
/// the trace JSONL renderer in [`crate::trace`].
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders flight-recorder events as one JSON object per line.
pub fn events_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let kind = match e.kind {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Point => "point",
        };
        let _ = writeln!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{kind}\",\"name\":\"{}\",\"span\":{},\"parent\":{},\"value\":{}}}",
            e.seq,
            e.time_ns,
            json_escape(e.name),
            e.span,
            e.parent,
            e.value,
        );
    }
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn prometheus_renders_all_kinds() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("stream.broker.produce".into(), 42);
        snap.gauges.insert("rsu.lag.g".into(), 7);
        let h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.observe(v);
        }
        snap.histograms.insert("rsu.total_us".into(), h.snapshot());
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE cad3_stream_broker_produce_total counter"));
        assert!(text.contains("cad3_stream_broker_produce_total 42"));
        assert!(text.contains("# TYPE cad3_rsu_lag gauge"));
        assert!(text.contains("cad3_rsu_lag{rsu=\"g\"} 7"));
        assert!(text.contains("# TYPE cad3_rsu_total_us histogram"));
        assert!(text.contains("cad3_rsu_total_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cad3_rsu_total_us_sum 106"));
        assert!(text.contains("cad3_rsu_total_us_count 4"));
        // Buckets are cumulative: value 1 → bucket 1 (le="1"), values 2,3 →
        // bucket 2 (le="3" cumulative 3), value 100 → bucket 7 (le="127").
        assert!(text.contains("cad3_rsu_total_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("cad3_rsu_total_us_bucket{le=\"3\"} 3"));
        assert!(text.contains("cad3_rsu_total_us_bucket{le=\"127\"} 4"));
    }

    /// A minimal exposition-format conformance checker: every sample's
    /// family must be declared by a `# TYPE` line before its first sample,
    /// histogram buckets must be cumulative (non-decreasing) and end at
    /// `+Inf` equal to `_count`, and every histogram needs `_sum`/`_count`.
    fn assert_conformant(text: &str) {
        use std::collections::BTreeMap;
        let mut families: BTreeMap<&str, &str> = BTreeMap::new();
        let mut hist_buckets: BTreeMap<&str, Vec<(String, u64)>> = BTreeMap::new();
        let mut hist_scalars: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
        let mut helped: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (family, help) = rest.split_once(' ').expect("HELP line shape");
                assert!(!help.is_empty(), "empty HELP text in {line:?}");
                assert!(
                    !families.contains_key(family),
                    "HELP for {family} must precede its TYPE line"
                );
                assert!(!helped.contains(&family), "duplicate HELP for {family}");
                helped.push(family);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (family, kind) = rest.split_once(' ').expect("TYPE line shape");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown TYPE kind in {line:?}"
                );
                families.insert(family, kind);
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment {line:?}");
            // Split off an OpenMetrics exemplar annotation before parsing
            // the sample proper.
            let (line, exemplar) = match line.split_once(" # ") {
                Some((sample, ex)) => (sample, Some(ex)),
                None => (line, None),
            };
            if let Some(ex) = exemplar {
                let (labels, value) =
                    ex.split_once("} ").unwrap_or_else(|| panic!("exemplar shape in {ex:?}"));
                assert!(labels.starts_with('{'), "exemplar labels in {ex:?}");
                assert!(
                    labels.trim_start_matches('{').starts_with("trace_id=\""),
                    "exemplar label key in {ex:?}"
                );
                let _: u64 = value.parse().expect("exemplar value");
                assert!(
                    line.contains("_bucket"),
                    "exemplars are only legal on bucket lines: {line:?}"
                );
            }
            let (name_and_labels, value) = line.rsplit_once(' ').expect("sample shape");
            let name = name_and_labels.split('{').next().expect("name");
            let labels = name_and_labels.strip_prefix(name).unwrap_or("");
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed labels in {line:?}"
                );
            }
            let (family, kind) = if let Some(f) = name.strip_suffix("_bucket") {
                (f, "histogram")
            } else if let Some(f) =
                name.strip_suffix("_sum").filter(|f| families.get(f) == Some(&"histogram"))
            {
                (f, "histogram")
            } else if let Some(f) =
                name.strip_suffix("_count").filter(|f| families.get(f) == Some(&"histogram"))
            {
                (f, "histogram")
            } else {
                (name, "scalar")
            };
            assert!(
                families.contains_key(family),
                "sample {name:?} has no preceding # TYPE for family {family:?}"
            );
            if kind == "histogram" {
                let v: u64 = value.parse().expect("histogram sample value");
                if name.ends_with("_bucket") {
                    let le = labels.trim_start_matches("{le=\"").trim_end_matches("\"}").to_owned();
                    hist_buckets.entry(family).or_default().push((le, v));
                } else if name.ends_with("_sum") {
                    hist_scalars.entry(family).or_default().insert("sum", v);
                } else {
                    hist_scalars.entry(family).or_default().insert("count", v);
                }
            }
        }
        for (family, kind) in &families {
            if *kind != "histogram" {
                continue;
            }
            let buckets = hist_buckets.get(family).expect("histogram has buckets");
            let scalars = hist_scalars.get(family).expect("histogram has scalars");
            assert!(scalars.contains_key("sum"), "{family} missing _sum");
            let count = *scalars.get("count").unwrap_or_else(|| panic!("{family} missing _count"));
            let mut prev = 0u64;
            for (le, v) in buckets {
                assert!(*v >= prev, "{family} bucket le={le} not cumulative");
                prev = *v;
            }
            let (last_le, last_v) = buckets.last().expect("non-empty buckets");
            assert_eq!(last_le, "+Inf", "{family} must end at +Inf");
            assert_eq!(*last_v, count, "{family} +Inf must equal _count");
        }
    }

    #[test]
    fn exposition_output_is_conformant() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("rsu.records".into(), 12);
        snap.gauges.insert("obs.trace.dropped".into(), 3);
        snap.gauges.insert("net.dsrc.offered_bps.rsu-a".into(), 5);
        snap.gauges.insert("net.dsrc.offered_bps.rsu-b".into(), 6);
        let h = Histogram::new();
        for v in [0, 1, 5, 1_000, u64::MAX] {
            h.observe(v);
        }
        snap.histograms.insert("stream.broker.produce_ns".into(), h.snapshot());
        let text = prometheus_text(&snap);
        assert_conformant(&text);
        // The unbounded top bucket surfaces only as +Inf, never as a
        // literal 2^64-1 bound.
        assert!(!text.contains("le=\"18446744073709551615\""), "{text}");
        // One TYPE line serves both labeled offered-load samples.
        assert_eq!(text.matches("# TYPE cad3_net_dsrc_offered_bps gauge").count(), 1);
    }

    #[test]
    fn exemplar_annotations_are_conformant_and_bucket_scoped() {
        let mut snap = MetricsSnapshot::default();
        let h = Histogram::with_exemplars();
        h.observe_with_exemplar(3, 0xa1);
        h.observe_with_exemplar(900, 0xb2);
        h.observe_with_exemplar(u64::MAX, 0xc3);
        snap.histograms.insert("rsu.total_us".into(), h.snapshot());
        snap.exemplars.insert("rsu.total_us".into(), h.exemplars());
        let text = prometheus_text(&snap);
        assert_conformant(&text);
        assert!(
            text.contains(
                "cad3_rsu_total_us_bucket{le=\"3\"} 1 # {trace_id=\"00000000000000a1\"} 3\n"
            ),
            "{text}"
        );
        assert!(text.contains("{le=\"1023\"} 2 # {trace_id=\"00000000000000b2\"} 900\n"), "{text}");
        // The unbounded top bucket's exemplar rides the +Inf line.
        assert!(
            text.contains(
                "{le=\"+Inf\"} 3 # {trace_id=\"00000000000000c3\"} 18446744073709551615\n"
            ),
            "{text}"
        );
        // A histogram without exemplars renders no annotation at all.
        let h2 = Histogram::new();
        h2.observe(5);
        let mut snap2 = MetricsSnapshot::default();
        snap2.histograms.insert("rsu.queuing_us".into(), h2.snapshot());
        let text2 = prometheus_text(&snap2);
        assert_conformant(&text2);
        assert!(!text2.contains(" # "), "{text2}");
    }

    #[test]
    fn catalogued_names_get_help_lines() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("rsu.records".into(), 1);
        snap.counters.insert("adhoc.counter".into(), 2);
        snap.gauges.insert("rsu.health.state.rsu-a".into(), 2);
        snap.gauges.insert("rsu.lag.rsu-a".into(), 9);
        let h = Histogram::new();
        h.observe(10);
        // A span's duration histogram resolves HELP through its bare name.
        snap.histograms.insert("rsu.detect_ns".into(), h.snapshot());
        let text = prometheus_text(&snap);
        assert_conformant(&text);
        assert!(
            text.contains("# HELP cad3_rsu_records_total Status records processed by RSUs.\n"),
            "{text}"
        );
        assert!(text.contains("# HELP cad3_rsu_health_state "), "{text}");
        assert!(text.contains("cad3_rsu_health_state{rsu=\"rsu-a\"} 2"), "{text}");
        assert!(text.contains("cad3_rsu_lag{rsu=\"rsu-a\"} 9"), "{text}");
        assert!(text.contains("# HELP cad3_rsu_detect_ns "), "{text}");
        // HELP precedes TYPE for the same family.
        let help_at = text.find("# HELP cad3_rsu_detect_ns").unwrap();
        let type_at = text.find("# TYPE cad3_rsu_detect_ns").unwrap();
        assert!(help_at < type_at);
        // Names outside the catalogue render without HELP but stay valid.
        assert!(!text.contains("# HELP cad3_adhoc_counter_total"), "{text}");
        assert!(text.contains("cad3_adhoc_counter_total 2"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut snap = MetricsSnapshot::default();
        snap.gauges.insert("rsu.lag.a\"b\\c".into(), 1);
        let text = prometheus_text(&snap);
        assert!(text.contains("cad3_rsu_lag{rsu=\"a\\\"b\\\\c\"} 1"), "{text}");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = vec![SpanEvent {
            seq: 1,
            time_ns: 123,
            kind: EventKind::Enter,
            name: "rsu.micro_batch",
            span: 9,
            parent: 0,
            value: 4,
        }];
        let text = events_jsonl(&events);
        assert_eq!(
            text,
            "{\"seq\":1,\"t_ns\":123,\"kind\":\"enter\",\"name\":\"rsu.micro_batch\",\"span\":9,\"parent\":0,\"value\":4}\n"
        );
    }

    #[test]
    fn json_escaping_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
