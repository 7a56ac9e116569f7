//! The benchmark's own span recorder: spans around the calls into each
//! layer, kept in a `Vec` and written out as JSONL when the run ends.
//!
//! Spans are recorded from the benchmark's files only; spans inside the
//! product (the profiler's stage tree) are a later issue.

use std::io::Write;
use std::time::Instant;

/// Span names: the layer boundaries the benchmark crosses in one step, plus
/// the probes that re-issue one layer's public call outside the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One whole RSU step (root).
    Step,
    /// Phase 1 of a step: DSRC send + broker produce.
    Ingest,
    /// `DsrcChannel::send` over the step's records.
    DsrcSend,
    /// `Broker::produce_traced` into `IN-DATA` over the step's records.
    Produce,
    /// `RsuNode::run_batch`.
    RunBatch,
    /// `RsuNode::publish_warning_traced` over the batch's warnings.
    Publish,
    /// The fleet's `Consumer::poll` on `OUT-DATA` + `WarningMessage::decode`.
    PollDecode,
    /// `RsuNode::export_summaries`.
    FuseExport,
    /// `WiredLink::transmit_traced` over the exported summaries.
    FuseLinkTx,
    /// `RsuNode::receive_summary_at` over the transmitted summaries.
    FuseReceive,
    /// Probe: a second consumer group polling the step's `IN-DATA` records.
    ProbePoll,
    /// Probe: `VehicleStatus::decode` + `to_feature` over the polled batch.
    ProbeDecode,
    /// Probe: `Detector::detect_batch` over the decoded rows.
    ProbeDetect,
    /// Probe: a no-op `map_partitions` over one empty partition per worker.
    ProbeFanout,
}

impl Name {
    /// Every span name, in tree order.
    pub const ALL: [Name; 14] = [
        Name::Step,
        Name::Ingest,
        Name::DsrcSend,
        Name::Produce,
        Name::RunBatch,
        Name::Publish,
        Name::PollDecode,
        Name::FuseExport,
        Name::FuseLinkTx,
        Name::FuseReceive,
        Name::ProbePoll,
        Name::ProbeDecode,
        Name::ProbeDetect,
        Name::ProbeFanout,
    ];

    /// The name as written to `trace-<workload>.jsonl`.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Step => "step",
            Name::Ingest => "ingest",
            Name::DsrcSend => "net.dsrc_send",
            Name::Produce => "stream.produce",
            Name::RunBatch => "core.run_batch",
            Name::Publish => "disseminate.publish",
            Name::PollDecode => "disseminate.poll_decode",
            Name::FuseExport => "fuse.export",
            Name::FuseLinkTx => "fuse.link_tx",
            Name::FuseReceive => "fuse.receive",
            Name::ProbePoll => "probe.stream.poll",
            Name::ProbeDecode => "probe.types.decode",
            Name::ProbeDetect => "probe.detect.batch",
            Name::ProbeFanout => "probe.engine.fanout",
        }
    }
}

/// Index of a span in its [`Tracer`]; [`SpanId::NONE`] for "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span: the parent of a root, and what a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub name: Name,
    /// The span that caused this one ([`SpanId::NONE`] for roots and probes).
    pub parent: SpanId,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Round the span belongs to.
    pub round: u32,
    /// Step within the round; the spans of one step share it.
    pub step: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Disabled, it hands out [`SpanId::NONE`] without
/// reading the clock, so the untraced pass runs the same step code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
    round: u32,
    step: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), enabled: false, round: 0, step: 0 }
    }
}

impl Tracer {
    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts round `round`, recording its spans or not.
    pub fn start_round(&mut self, round: u32, record: bool) {
        self.enabled = record;
        self.round = round;
        self.step = 0;
    }

    /// Moves to the next step; the spans of one step share its id.
    pub fn next_step(&mut self) {
        self.step += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: Name, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            round: self.round,
            step: self.step,
        });
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Duration of a closed span (0 for [`SpanId::NONE`]).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans.get(id.0 as usize).map_or(0, Span::duration_ns)
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSONL: one object per line with the span's `id`
    /// (its line number), `name`, `start_ns`, `end_ns`, `parent` (an `id`
    /// or `null`), `round` and `step`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including the final flush.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == SpanId::NONE { "null".to_owned() } else { s.parent.0.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"round\":{},\"step\":{}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.round,
                s.step
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (which run one after another inside it, so they never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != SpanId::NONE {
            let p = s.parent.0 as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns, round: 0, step: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(Name::Step, SpanId::NONE, 0, 100),
            span(Name::Ingest, SpanId(0), 5, 45),
            span(Name::DsrcSend, SpanId(1), 5, 15),
            span(Name::Produce, SpanId(1), 16, 44),
            span(Name::RunBatch, SpanId(0), 46, 96),
        ];
        // step: 100 − (40 + 50); ingest: 40 − (10 + 28); leaves keep it all.
        assert_eq!(self_times_ns(&spans), vec![10, 2, 10, 28, 50]);
    }

    #[test]
    fn self_time_of_a_childless_span_is_its_duration() {
        let spans = [span(Name::ProbePoll, SpanId::NONE, 7, 19)];
        assert_eq!(self_times_ns(&spans), vec![12]);
        assert!(self_times_ns(&[]).is_empty());
    }

    #[test]
    fn self_time_saturates_when_children_outlast_the_parent() {
        let spans = [span(Name::Step, SpanId::NONE, 0, 10), span(Name::Ingest, SpanId(0), 0, 12)];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        let id = t.open(Name::Step, SpanId::NONE);
        t.close(id);
        assert_eq!(id, SpanId::NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_carry_ids_and_parents() {
        let mut t = Tracer::default();
        t.start_round(3, true);
        (0..9).for_each(|_| t.next_step());
        let root = t.open(Name::Step, SpanId::NONE);
        let child = t.open(Name::RunBatch, root);
        t.close(child);
        t.close(root);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"step\""));
        assert!(lines[0].contains("\"parent\":null,\"round\":3,\"step\":9"));
        assert!(lines[1].contains("\"name\":\"core.run_batch\""));
        assert!(lines[1].contains("\"parent\":0,"));
    }
}
