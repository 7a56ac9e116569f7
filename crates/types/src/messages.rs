//! Wire messages exchanged between vehicles and RSUs, with a compact binary
//! codec.
//!
//! The paper's vehicles transmit ~200-byte status packets at 10 Hz;
//! [`VehicleStatus`] is padded to exactly [`STATUS_WIRE_LEN`] bytes on the
//! wire so the bandwidth experiments (Fig. 6c/6d) see the same payload size.

use crate::{
    CodecError, DayOfWeek, FeatureRecord, GeoPoint, HourOfDay, Label, RoadId, RoadType, RsuId,
    SimTime, TripId, VehicleId,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Exact on-wire size of an encoded [`VehicleStatus`], in bytes.
///
/// Matches the ~200-byte packets assumed throughout the paper's bandwidth
/// and MAC analysis.
pub const STATUS_WIRE_LEN: usize = 200;

/// Types that can be encoded into a binary wire representation.
pub trait WireEncode {
    /// Appends the encoded representation to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encodes into a fresh buffer, allocating once: the message is encoded
    /// into the thread's scratch buffer and copied out into the returned
    /// `Bytes` (the vendored `BytesMut::freeze` would copy into a second
    /// allocation).
    fn encode_to_bytes(&self) -> Bytes {
        thread_local! {
            static SCRATCH: RefCell<BytesMut> = RefCell::new(BytesMut::new());
        }
        SCRATCH.with_borrow_mut(|buf| {
            buf.truncate(0);
            self.encode(buf);
            Bytes::copy_from_slice(buf)
        })
    }

    /// Number of bytes [`WireEncode::encode`] will append.
    fn encoded_len(&self) -> usize;
}

/// Types that can be decoded from their binary wire representation.
pub trait WireDecode: Sized {
    /// Decodes one message from the front of `buf`, advancing it past the
    /// message on `Ok` and leaving it untouched on `Err`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if `buf` is too short and
    /// [`CodecError::InvalidValue`] if a field fails validation.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
}

/// Splits the first `N` bytes off `wire`, or reports how many are missing.
///
/// The one length check of the codec: a decoder bounds its message body with
/// it once, on the borrowed bytes, and [`field`] splits that body further.
/// Nothing here indexes, so the decoders have no panic site, and below a
/// body of constant length every later check folds away.
#[inline]
fn split_body<const N: usize>(wire: &[u8]) -> Result<(&[u8; N], &[u8]), CodecError> {
    wire.split_first_chunk::<N>()
        .ok_or(CodecError::Truncated { needed: N.saturating_sub(wire.len()) })
}

/// Takes the next `N` bytes of a message body: one big-endian field, sized
/// by the `from_be_bytes` it is handed to.
#[inline]
fn field<const N: usize>(body: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = split_body::<N>(body)?;
    *body = rest;
    Ok(*head)
}

/// The status packet a vehicle pushes to the `IN-DATA` topic of its RSU.
///
/// Carries the Table II features plus position and a send timestamp used for
/// end-to-end latency measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleStatus {
    /// Sender vehicle.
    pub vehicle: VehicleId,
    /// Trip the record belongs to.
    pub trip: TripId,
    /// Map-matched road trunk.
    pub road: RoadId,
    /// Instantaneous speed in km/h.
    pub speed_kmh: f64,
    /// Instantaneous acceleration in m/s².
    pub accel_mps2: f64,
    /// Hour of day.
    pub hour: HourOfDay,
    /// Day of week.
    pub day: DayOfWeek,
    /// Road type of the matched trunk.
    pub road_type: RoadType,
    /// Normal (average) road speed in km/h.
    pub road_speed_kmh: f64,
    /// Current GPS position.
    pub position: GeoPoint,
    /// Virtual time at which the packet left the vehicle.
    pub sent_at: SimTime,
    /// Per-vehicle monotonically increasing sequence number.
    pub seq: u32,
    /// Ground-truth label carried for evaluation only (a real deployment
    /// would not have this field; it never reaches the detectors).
    pub truth: Label,
}

impl VehicleStatus {
    /// Builds a status packet from a preprocessed dataset record.
    pub fn from_feature(
        rec: &FeatureRecord,
        position: GeoPoint,
        sent_at: SimTime,
        seq: u32,
    ) -> Self {
        VehicleStatus {
            vehicle: rec.vehicle,
            trip: rec.trip,
            road: rec.road,
            speed_kmh: rec.speed_kmh,
            accel_mps2: rec.accel_mps2,
            hour: rec.hour,
            day: rec.day,
            road_type: rec.road_type,
            road_speed_kmh: rec.road_speed_kmh,
            position,
            sent_at,
            seq,
            truth: rec.label,
        }
    }

    /// Converts back to the [`FeatureRecord`] view used by the detectors.
    pub fn to_feature(&self) -> FeatureRecord {
        FeatureRecord {
            vehicle: self.vehicle,
            trip: self.trip,
            road: self.road,
            accel_mps2: self.accel_mps2,
            speed_kmh: self.speed_kmh,
            hour: self.hour,
            day: self.day,
            road_type: self.road_type,
            road_speed_kmh: self.road_speed_kmh,
            label: self.truth,
        }
    }
}

impl WireEncode for VehicleStatus {
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u64(self.vehicle.raw());
        buf.put_u64(self.trip.raw());
        buf.put_u64(self.road.raw());
        buf.put_f64(self.speed_kmh);
        buf.put_f64(self.accel_mps2);
        buf.put_u8(self.hour.get());
        buf.put_u8(self.day.index());
        buf.put_u8(self.road_type.code());
        buf.put_u8(self.truth.class());
        buf.put_f64(self.road_speed_kmh);
        buf.put_f64(self.position.lon);
        buf.put_f64(self.position.lat);
        buf.put_u64(self.sent_at.as_nanos());
        buf.put_u32(self.seq);
        // Pad to the fixed 200-byte packet size of the paper.
        let written = buf.len() - start;
        debug_assert!(written <= STATUS_WIRE_LEN);
        buf.put_bytes(0, STATUS_WIRE_LEN - written);
    }

    fn encoded_len(&self) -> usize {
        STATUS_WIRE_LEN
    }
}

impl WireDecode for VehicleStatus {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        // The 80 meaningful bytes, then padding nobody reads.
        let (body, _) = split_body::<STATUS_WIRE_LEN>(buf)?;
        let mut body: &[u8] = body;
        let vehicle = VehicleId(u64::from_be_bytes(field(&mut body)?));
        let trip = TripId(u64::from_be_bytes(field(&mut body)?));
        let road = RoadId(u64::from_be_bytes(field(&mut body)?));
        let speed_kmh = f64::from_be_bytes(field(&mut body)?);
        let accel_mps2 = f64::from_be_bytes(field(&mut body)?);
        let hour_raw = u8::from_be_bytes(field(&mut body)?);
        let day_raw = u8::from_be_bytes(field(&mut body)?);
        let rt_raw = u8::from_be_bytes(field(&mut body)?);
        let truth = Label::from_class(u8::from_be_bytes(field(&mut body)?));
        let hour = HourOfDay::new(hour_raw)
            .ok_or(CodecError::InvalidValue { field: "hour", value: u64::from(hour_raw) })?;
        let day = DayOfWeek::ALL
            .get(usize::from(day_raw))
            .copied()
            .ok_or(CodecError::InvalidValue { field: "day", value: u64::from(day_raw) })?;
        let road_type = RoadType::from_code(rt_raw)
            .ok_or(CodecError::InvalidValue { field: "road_type", value: u64::from(rt_raw) })?;
        let road_speed_kmh = f64::from_be_bytes(field(&mut body)?);
        let lon = f64::from_be_bytes(field(&mut body)?);
        let lat = f64::from_be_bytes(field(&mut body)?);
        let position = GeoPoint::new(lon, lat);
        let sent_at = SimTime::from_nanos(u64::from_be_bytes(field(&mut body)?));
        let seq = u32::from_be_bytes(field(&mut body)?);
        buf.advance(STATUS_WIRE_LEN);
        Ok(VehicleStatus {
            vehicle,
            trip,
            road,
            speed_kmh,
            accel_mps2,
            hour,
            day,
            road_type,
            road_speed_kmh,
            position,
            sent_at,
            seq,
            truth,
        })
    }
}

/// Kind of abnormal driving behaviour announced in a warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WarningKind {
    /// Speed well above the road's normal profile.
    Speeding,
    /// Speed well below the road's normal profile.
    Slowing,
    /// Sudden acceleration or deceleration.
    SuddenAcceleration,
}

impl WarningKind {
    fn code(self) -> u8 {
        match self {
            WarningKind::Speeding => 0,
            WarningKind::Slowing => 1,
            WarningKind::SuddenAcceleration => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(WarningKind::Speeding),
            1 => Some(WarningKind::Slowing),
            2 => Some(WarningKind::SuddenAcceleration),
            _ => None,
        }
    }

    /// Classifies a record into the most plausible warning kind.
    pub fn classify(speed_kmh: f64, road_speed_kmh: f64, accel_mps2: f64) -> WarningKind {
        if accel_mps2.abs() > 3.0 {
            WarningKind::SuddenAcceleration
        } else if speed_kmh >= road_speed_kmh {
            WarningKind::Speeding
        } else {
            WarningKind::Slowing
        }
    }
}

/// On-wire size of an encoded [`WarningMessage`], in bytes.
const WARNING_WIRE_LEN: usize = 8 + 8 + 1 + 8 + 8 + 8 + 4;

/// The warning an RSU writes to `OUT-DATA` when it detects abnormal driving.
///
/// Vehicles in range consume these and raise an in-cabin alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarningMessage {
    /// Vehicle whose behaviour triggered the warning.
    pub vehicle: VehicleId,
    /// Road on which the behaviour was observed.
    pub road: RoadId,
    /// Kind of abnormality.
    pub kind: WarningKind,
    /// Probability the detector assigned to the abnormal class.
    pub probability: f64,
    /// `sent_at` of the status packet that triggered detection (for
    /// end-to-end latency measurement).
    pub source_sent_at: SimTime,
    /// Virtual time the detection completed at the RSU.
    pub detected_at: SimTime,
    /// Sequence number of the offending status packet.
    pub source_seq: u32,
}

impl WireEncode for WarningMessage {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.vehicle.raw());
        buf.put_u64(self.road.raw());
        buf.put_u8(self.kind.code());
        buf.put_f64(self.probability);
        buf.put_u64(self.source_sent_at.as_nanos());
        buf.put_u64(self.detected_at.as_nanos());
        buf.put_u32(self.source_seq);
    }

    fn encoded_len(&self) -> usize {
        WARNING_WIRE_LEN
    }
}

impl WireDecode for WarningMessage {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let (body, _) = split_body::<WARNING_WIRE_LEN>(buf)?;
        let mut body: &[u8] = body;
        let vehicle = VehicleId(u64::from_be_bytes(field(&mut body)?));
        let road = RoadId(u64::from_be_bytes(field(&mut body)?));
        let kind_raw = u8::from_be_bytes(field(&mut body)?);
        let kind = WarningKind::from_code(kind_raw)
            .ok_or(CodecError::InvalidValue { field: "kind", value: u64::from(kind_raw) })?;
        let probability = f64::from_be_bytes(field(&mut body)?);
        let source_sent_at = SimTime::from_nanos(u64::from_be_bytes(field(&mut body)?));
        let detected_at = SimTime::from_nanos(u64::from_be_bytes(field(&mut body)?));
        let source_seq = u32::from_be_bytes(field(&mut body)?);
        buf.advance(WARNING_WIRE_LEN);
        Ok(WarningMessage {
            vehicle,
            road,
            kind,
            probability,
            source_sent_at,
            detected_at,
            source_seq,
        })
    }
}

/// The distributed-trace lineage a CO-DATA summary carries across a
/// handover: enough for the next RSU's fusion span to link back to the
/// previous RSU's spans without this crate depending on the tracing
/// runtime (`cad3-obs`). Conversion to/from a live trace context lives in
/// `cad3` (the core crate), which depends on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLineage {
    /// The originating trace.
    pub trace_id: u64,
    /// The span on the previous RSU the continuation should attach under.
    pub parent_span: u64,
    /// Propagation hops accumulated before the handover.
    pub hop: u8,
}

/// Flag byte marking an optional [`TraceLineage`] trailer on an encoded
/// [`SummaryMessage`] (`b'T'` for "trace").
const LINEAGE_FLAG: u8 = 0x54;

/// On-wire size of a [`SummaryMessage`] without its lineage trailer.
const SUMMARY_BASE_LEN: usize = 8 + 4 + 4 + 8 + 1 + 8;

/// On-wire size of the lineage trailer, flag byte included.
const LINEAGE_LEN: usize = 1 + 8 + 8 + 1;

/// The per-vehicle prediction summary an RSU forwards to the next RSU's
/// `CO-DATA` topic on handover (the paper's Fig. 3 step 2).
///
/// `mean_probability` is the `P̄_prevs` term of the paper's Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryMessage {
    /// Vehicle the summary describes.
    pub vehicle: VehicleId,
    /// RSU that produced the summary.
    pub from_rsu: RsuId,
    /// Number of predictions aggregated along the previous road.
    pub count: u32,
    /// Mean predicted probability of the *abnormal* class over those
    /// predictions (`P̄_prevs`).
    pub mean_probability: f64,
    /// Last predicted class on the previous road (1 = normal, 0 = abnormal).
    pub last_class: u8,
    /// Virtual send time.
    pub sent_at: SimTime,
    /// Trace lineage of the record that produced the summary, when that
    /// record was sampled. Encoded as an optional trailer so an untraced
    /// summary stays byte-identical to the pre-tracing format (33 bytes) —
    /// the paper's bandwidth numbers are unchanged at the default 0
    /// sampling rate.
    pub trace: Option<TraceLineage>,
}

impl WireEncode for SummaryMessage {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.vehicle.raw());
        buf.put_u32(self.from_rsu.raw());
        buf.put_u32(self.count);
        buf.put_f64(self.mean_probability);
        buf.put_u8(self.last_class);
        buf.put_u64(self.sent_at.as_nanos());
        if let Some(lineage) = &self.trace {
            buf.put_u8(LINEAGE_FLAG);
            buf.put_u64(lineage.trace_id);
            buf.put_u64(lineage.parent_span);
            buf.put_u8(lineage.hop);
        }
    }

    fn encoded_len(&self) -> usize {
        SUMMARY_BASE_LEN + if self.trace.is_some() { LINEAGE_LEN } else { 0 }
    }
}

impl WireDecode for SummaryMessage {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let (body, trailer) = split_body::<SUMMARY_BASE_LEN>(buf)?;
        let mut body: &[u8] = body;
        let vehicle = VehicleId(u64::from_be_bytes(field(&mut body)?));
        let from_rsu = RsuId(u32::from_be_bytes(field(&mut body)?));
        let count = u32::from_be_bytes(field(&mut body)?);
        let mean_probability = f64::from_be_bytes(field(&mut body)?);
        let last_class = u8::from_be_bytes(field(&mut body)?);
        let sent_at = SimTime::from_nanos(u64::from_be_bytes(field(&mut body)?));
        // The trailer peek is unambiguous because CO-DATA frames carry
        // exactly one summary per record value: trailing bytes after the
        // base 33 belong to this message, never to a following one. A flag
        // byte opening fewer than 18 bytes is not a trailer and stays unread.
        let trace = match trailer.first_chunk::<LINEAGE_LEN>() {
            Some(&[LINEAGE_FLAG, ref lineage @ ..]) => {
                let mut lineage: &[u8] = lineage;
                let trace_id = u64::from_be_bytes(field(&mut lineage)?);
                let parent_span = u64::from_be_bytes(field(&mut lineage)?);
                let hop = u8::from_be_bytes(field(&mut lineage)?);
                Some(TraceLineage { trace_id, parent_span, hop })
            }
            _ => None,
        };
        let summary = SummaryMessage {
            vehicle,
            from_rsu,
            count,
            mean_probability,
            last_class,
            sent_at,
            trace,
        };
        buf.advance(summary.encoded_len());
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status() -> VehicleStatus {
        VehicleStatus {
            vehicle: VehicleId(42),
            trip: TripId(7),
            road: RoadId(1001),
            speed_kmh: 123.4,
            accel_mps2: -1.5,
            hour: HourOfDay::new(17).unwrap(),
            day: DayOfWeek::Friday,
            road_type: RoadType::MotorwayLink,
            road_speed_kmh: 95.0,
            position: GeoPoint::new(114.05, 22.54),
            sent_at: SimTime::from_millis(1234),
            seq: 99,
            truth: Label::Abnormal,
        }
    }

    fn warning() -> WarningMessage {
        WarningMessage {
            vehicle: VehicleId(1),
            road: RoadId(2),
            kind: WarningKind::Slowing,
            probability: 0.93,
            source_sent_at: SimTime::from_millis(10),
            detected_at: SimTime::from_millis(43),
            source_seq: 5,
        }
    }

    fn summary(trace: Option<TraceLineage>) -> SummaryMessage {
        SummaryMessage {
            vehicle: VehicleId(9),
            from_rsu: RsuId(3),
            count: 120,
            mean_probability: 0.71,
            last_class: 0,
            sent_at: SimTime::from_secs(2),
            trace,
        }
    }

    /// `wire` with the byte at `at` replaced.
    fn corrupted(wire: &Bytes, at: usize, byte: u8) -> Bytes {
        let mut raw = wire.to_vec();
        raw[at] = byte;
        Bytes::from(raw)
    }

    #[test]
    fn status_round_trip_is_exactly_200_bytes() {
        let s = status();
        let bytes = s.encode_to_bytes();
        assert_eq!(bytes.len(), STATUS_WIRE_LEN);
        assert_eq!(s.encoded_len(), STATUS_WIRE_LEN);
        let mut buf = bytes;
        let decoded = VehicleStatus::decode(&mut buf).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn status_truncated_buffer_errors() {
        let bytes = status().encode_to_bytes();
        let mut short = bytes.slice(..100);
        let err = VehicleStatus::decode(&mut short).unwrap_err();
        assert_eq!(err, CodecError::Truncated { needed: 100 });
    }

    #[test]
    fn status_invalid_road_type_errors() {
        let mut raw = BytesMut::new();
        status().encode(&mut raw);
        raw[26] = 200; // road_type byte offset: 8+8+8+... -> see layout
                       // Offset: vehicle(8)+trip(8)+road(8)+speed(8)+accel(8)+hour(1)+day(1)=42; road_type at 42.
        let mut raw2 = BytesMut::new();
        status().encode(&mut raw2);
        raw2[42] = 200;
        let mut buf = raw2.freeze();
        let err = VehicleStatus::decode(&mut buf).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue { field: "road_type", .. }));
    }

    #[test]
    fn warning_round_trip() {
        let w = warning();
        let mut buf = w.encode_to_bytes();
        assert_eq!(buf.len(), w.encoded_len());
        assert_eq!(WarningMessage::decode(&mut buf).unwrap(), w);
    }

    #[test]
    fn summary_round_trip() {
        let s = summary(None);
        let mut buf = s.encode_to_bytes();
        assert_eq!(buf.len(), s.encoded_len());
        assert_eq!(buf.len(), 33, "untraced summary keeps the pre-tracing wire size");
        assert_eq!(SummaryMessage::decode(&mut buf).unwrap(), s);
    }

    #[test]
    fn summary_with_lineage_round_trips() {
        let untraced = summary(None);
        let traced = summary(Some(TraceLineage { trace_id: 0xDEAD_BEEF, parent_span: 42, hop: 3 }));
        let mut buf = traced.encode_to_bytes();
        assert_eq!(buf.len(), traced.encoded_len());
        assert_eq!(buf.len(), 33 + 18, "lineage trailer is 18 bytes");
        assert_eq!(SummaryMessage::decode(&mut buf).unwrap(), traced);
        // The untraced encoding is a strict prefix of the traced one.
        let plain = untraced.encode_to_bytes();
        let rich = traced.encode_to_bytes();
        assert_eq!(&rich[..33], &plain[..]);
    }

    #[test]
    fn status_decode_moves_the_cursor_only_on_ok() {
        let mut two = BytesMut::new();
        status().encode(&mut two);
        status().encode(&mut two);
        let two = two.freeze();
        // hour, day and road_type sit at offsets 40, 41 and 42.
        for (at, field) in [(40, "hour"), (41, "day"), (42, "road_type")] {
            let mut bad = corrupted(&two, at, 200);
            let err = VehicleStatus::decode(&mut bad).unwrap_err();
            assert_eq!(err, CodecError::InvalidValue { field, value: 200 });
            assert_eq!(bad.len(), 2 * STATUS_WIRE_LEN, "{field}: nothing consumed");
        }
        let mut short = two.slice(..STATUS_WIRE_LEN - 1);
        assert_eq!(
            VehicleStatus::decode(&mut short).unwrap_err(),
            CodecError::Truncated { needed: 1 }
        );
        assert_eq!(short.len(), STATUS_WIRE_LEN - 1);
        let mut good = two;
        VehicleStatus::decode(&mut good).unwrap();
        assert_eq!(good.len(), STATUS_WIRE_LEN, "exactly one message consumed");
    }

    #[test]
    fn warning_decode_moves_the_cursor_only_on_ok() {
        let mut two = BytesMut::new();
        warning().encode(&mut two);
        warning().encode(&mut two);
        let two = two.freeze();
        // The kind byte follows the two ids.
        let mut bad = corrupted(&two, 16, 3);
        let err = WarningMessage::decode(&mut bad).unwrap_err();
        assert_eq!(err, CodecError::InvalidValue { field: "kind", value: 3 });
        assert_eq!(bad.len(), 2 * WARNING_WIRE_LEN, "nothing consumed");
        let mut short = two.slice(..WARNING_WIRE_LEN - 5);
        assert_eq!(
            WarningMessage::decode(&mut short).unwrap_err(),
            CodecError::Truncated { needed: 5 }
        );
        assert_eq!(short.len(), WARNING_WIRE_LEN - 5);
        let mut good = two;
        assert_eq!(WarningMessage::decode(&mut good).unwrap(), warning());
        assert_eq!(good.len(), WARNING_WIRE_LEN, "exactly one message consumed");
    }

    #[test]
    fn summary_decode_moves_the_cursor_only_on_ok_and_only_past_what_it_read() {
        let lineage = TraceLineage { trace_id: 0xDEAD_BEEF, parent_span: 42, hop: 3 };
        let traced = summary(Some(lineage)).encode_to_bytes();
        let mut short = traced.slice(..SUMMARY_BASE_LEN - 1);
        assert_eq!(
            SummaryMessage::decode(&mut short).unwrap_err(),
            CodecError::Truncated { needed: 1 }
        );
        assert_eq!(short.len(), SUMMARY_BASE_LEN - 1);

        let mut whole = traced.clone();
        assert_eq!(SummaryMessage::decode(&mut whole).unwrap(), summary(Some(lineage)));
        assert!(whole.is_empty(), "base and trailer consumed");

        // A 0x54 flag with a cut-short trailer behind it: the base decodes,
        // and the cursor stops in front of the bytes that were not read.
        let mut cut = traced.slice(..SUMMARY_BASE_LEN + LINEAGE_LEN - 1);
        assert_eq!(SummaryMessage::decode(&mut cut).unwrap(), summary(None));
        assert_eq!(cut.len(), LINEAGE_LEN - 1);
        assert_eq!(cut[0], LINEAGE_FLAG);

        // Eighteen trailing bytes that do not open with the flag are not a
        // trailer either.
        let mut unflagged = corrupted(&traced, SUMMARY_BASE_LEN, 0x55);
        assert_eq!(SummaryMessage::decode(&mut unflagged).unwrap(), summary(None));
        assert_eq!(unflagged.len(), LINEAGE_LEN);
    }

    #[test]
    fn warning_kind_classification() {
        assert_eq!(WarningKind::classify(160.0, 100.0, 0.0), WarningKind::Speeding);
        assert_eq!(WarningKind::classify(20.0, 100.0, 0.0), WarningKind::Slowing);
        assert_eq!(WarningKind::classify(100.0, 100.0, 4.5), WarningKind::SuddenAcceleration);
    }

    #[test]
    fn feature_round_trip_through_status() {
        let s = status();
        let f = s.to_feature();
        let s2 = VehicleStatus::from_feature(&f, s.position, s.sent_at, s.seq);
        assert_eq!(s, s2);
    }

    #[test]
    fn multiple_messages_in_one_buffer() {
        let mut buf = BytesMut::new();
        status().encode(&mut buf);
        status().encode(&mut buf);
        let mut bytes = buf.freeze();
        let a = VehicleStatus::decode(&mut bytes).unwrap();
        let b = VehicleStatus::decode(&mut bytes).unwrap();
        assert_eq!(a, b);
        assert!(bytes.is_empty());
    }
}
