//! Property-based tests for the wire codec and geo math.

use bytes::{Buf, Bytes};
use cad3_types::{
    CodecError, DayOfWeek, GeoPoint, HourOfDay, Label, RoadId, RoadType, RsuId, SimTime,
    SummaryMessage, TraceLineage, TripId, VehicleId, VehicleStatus, WarningKind, WarningMessage,
    WireDecode, WireEncode, STATUS_WIRE_LEN,
};
use proptest::prelude::*;

fn arb_road_type() -> impl Strategy<Value = RoadType> {
    (0u8..10).prop_map(|c| RoadType::from_code(c).unwrap())
}

fn arb_status() -> impl Strategy<Value = VehicleStatus> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        -400.0f64..400.0,
        -20.0f64..20.0,
        0u8..24,
        0u8..7,
        arb_road_type(),
        (0.0f64..300.0, -180.0f64..180.0, -90.0f64..90.0),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(veh, trip, road, speed, accel, hour, day, rt, (rs, lon, lat), t, seq, abn)| {
                VehicleStatus {
                    vehicle: VehicleId(veh),
                    trip: TripId(trip),
                    road: RoadId(road),
                    speed_kmh: speed,
                    accel_mps2: accel,
                    hour: HourOfDay::new(hour).unwrap(),
                    day: DayOfWeek::from_index_wrapping(day as u64),
                    road_type: rt,
                    road_speed_kmh: rs,
                    position: GeoPoint::new(lon, lat),
                    sent_at: SimTime::from_nanos(t),
                    seq,
                    truth: if abn { Label::Abnormal } else { Label::Normal },
                }
            },
        )
}

/// The cursor-walking status decoder that `VehicleStatus::decode` replaced,
/// kept as its oracle: split the 200 bytes off, then read field by field
/// through the advancing `Buf` accessors.
fn decode_status_walking(buf: &mut Bytes) -> Result<VehicleStatus, CodecError> {
    if buf.remaining() < STATUS_WIRE_LEN {
        return Err(CodecError::Truncated { needed: STATUS_WIRE_LEN - buf.remaining() });
    }
    let mut body = buf.split_to(STATUS_WIRE_LEN);
    let vehicle = VehicleId(body.get_u64());
    let trip = TripId(body.get_u64());
    let road = RoadId(body.get_u64());
    let speed_kmh = body.get_f64();
    let accel_mps2 = body.get_f64();
    let hour_raw = body.get_u8();
    let hour = HourOfDay::new(hour_raw)
        .ok_or(CodecError::InvalidValue { field: "hour", value: hour_raw as u64 })?;
    let day_raw = body.get_u8();
    if day_raw > 6 {
        return Err(CodecError::InvalidValue { field: "day", value: day_raw as u64 });
    }
    let day = DayOfWeek::from_index_wrapping(day_raw as u64);
    let rt_raw = body.get_u8();
    let road_type = RoadType::from_code(rt_raw)
        .ok_or(CodecError::InvalidValue { field: "road_type", value: rt_raw as u64 })?;
    let truth = Label::from_class(body.get_u8());
    let road_speed_kmh = body.get_f64();
    let position = GeoPoint::new(body.get_f64(), body.get_f64());
    let sent_at = SimTime::from_nanos(body.get_u64());
    let seq = body.get_u32();
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

/// Arbitrary bytes of a length in `min..=max`, with the few bytes the decoders
/// validate or branch on drawn from just past their valid ranges — uniform
/// bytes would fail the status's hour check 9 times in 10 and never reach
/// a lineage trailer.
fn arb_wire(min: usize, max: usize) -> impl Strategy<Value = Bytes> {
    (prop::collection::vec(any::<u8>(), min..=max), 0u8..30, 0u8..9, 0u8..13, 0u8..5, any::<bool>())
        .prop_map(|(mut raw, hour, day, road_type, kind, flagged)| {
            let mut patch = |at: usize, byte: u8| {
                if let Some(slot) = raw.get_mut(at) {
                    *slot = byte;
                }
            };
            // The status's hour, day and road type, and the warning's kind.
            patch(40, hour);
            patch(41, day);
            patch(42, road_type);
            patch(16, kind);
            if flagged {
                // The summary's lineage flag.
                patch(33, 0x54);
            }
            Bytes::from(raw)
        })
}

/// `decode` never panics on `wire`; it consumes exactly what it decoded, and
/// nothing when it fails.
fn assert_cursor_rule<M: WireDecode + WireEncode>(wire: &Bytes) -> Result<M, CodecError> {
    let mut buf = wire.clone();
    let decoded = M::decode(&mut buf);
    match &decoded {
        Ok(msg) => {
            assert_eq!(wire.len() - buf.len(), msg.encoded_len(), "Ok consumes the message");
            assert_eq!(buf, wire.slice(msg.encoded_len()..));
        }
        Err(_) => assert_eq!(&buf, wire, "Err leaves the cursor untouched"),
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_and_move_the_cursor_only_on_ok(wire in arb_wire(0, 260)) {
        let status = assert_cursor_rule::<VehicleStatus>(&wire);
        prop_assert_eq!(status.is_err() && wire.len() >= STATUS_WIRE_LEN,
            matches!(status, Err(CodecError::InvalidValue { .. })));
        let warning = assert_cursor_rule::<WarningMessage>(&wire);
        prop_assert!(warning.is_ok() || wire.len() < 45 || wire[16] > 2);
        // A summary has no field to reject: only truncation fails it.
        let summary = assert_cursor_rule::<SummaryMessage>(&wire);
        prop_assert_eq!(summary.is_ok(), wire.len() >= 33);
        if let Ok(summary) = summary {
            prop_assert_eq!(summary.trace.is_some(), wire.len() >= 33 + 18 && wire[33] == 0x54);
        }
    }

    #[test]
    fn fixed_offset_status_decode_agrees_with_the_cursor_walk(wire in arb_wire(STATUS_WIRE_LEN, STATUS_WIRE_LEN)) {
        // Compared re-encoded: that is every field by its bits, so statuses
        // that decoded NaNs out of arbitrary bytes still compare.
        let new = VehicleStatus::decode(&mut wire.clone()).map(|s| s.encode_to_bytes());
        let old = decode_status_walking(&mut wire.clone()).map(|s| s.encode_to_bytes());
        prop_assert_eq!(new, old);
    }
}

proptest! {
    #[test]
    fn status_codec_round_trips(s in arb_status()) {
        let encoded = s.encode_to_bytes();
        prop_assert_eq!(encoded.len(), STATUS_WIRE_LEN);
        let mut buf = encoded;
        let decoded = VehicleStatus::decode(&mut buf).unwrap();
        prop_assert_eq!(decoded, s);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn warning_codec_round_trips(
        veh in any::<u64>(),
        road in any::<u64>(),
        kind in 0u8..3,
        p in 0.0f64..1.0,
        t1 in any::<u64>(),
        t2 in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let w = WarningMessage {
            vehicle: VehicleId(veh),
            road: RoadId(road),
            kind: match kind {
                0 => WarningKind::Speeding,
                1 => WarningKind::Slowing,
                _ => WarningKind::SuddenAcceleration,
            },
            probability: p,
            source_sent_at: SimTime::from_nanos(t1),
            detected_at: SimTime::from_nanos(t2),
            source_seq: seq,
        };
        let mut buf = w.encode_to_bytes();
        // `RsuNode` keys the OUT-DATA record with the first eight bytes.
        prop_assert_eq!(&buf[..8], &veh.to_be_bytes()[..], "opens with the big-endian vehicle id");
        prop_assert_eq!(WarningMessage::decode(&mut buf).unwrap(), w);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn summary_codec_round_trips(
        veh in any::<u64>(),
        rsu in any::<u32>(),
        count in any::<u32>(),
        p in 0.0f64..1.0,
        class in 0u8..2,
        t in any::<u64>(),
        trace_id in any::<u64>(),
        parent_span in any::<u64>(),
        hop in any::<u8>(),
        traced in any::<bool>(),
    ) {
        let s = SummaryMessage {
            vehicle: VehicleId(veh),
            from_rsu: RsuId(rsu),
            count,
            mean_probability: p,
            last_class: class,
            sent_at: SimTime::from_nanos(t),
            trace: if traced {
                Some(TraceLineage { trace_id, parent_span, hop })
            } else {
                None
            },
        };
        let mut buf = s.encode_to_bytes();
        prop_assert_eq!(buf.len(), s.encoded_len());
        // `RsuNode` keys the CO-DATA record with the first eight bytes.
        prop_assert_eq!(&buf[..8], &veh.to_be_bytes()[..], "opens with the big-endian vehicle id");
        prop_assert_eq!(SummaryMessage::decode(&mut buf).unwrap(), s);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn truncated_status_never_panics(s in arb_status(), cut in 0usize..STATUS_WIRE_LEN) {
        let encoded = s.encode_to_bytes();
        let mut short: Bytes = encoded.slice(..cut);
        prop_assert!(VehicleStatus::decode(&mut short).is_err());
    }

    #[test]
    fn haversine_triangle_inequality(
        lon1 in 113.0f64..115.0, lat1 in 22.0f64..23.0,
        lon2 in 113.0f64..115.0, lat2 in 22.0f64..23.0,
        lon3 in 113.0f64..115.0, lat3 in 22.0f64..23.0,
    ) {
        let a = GeoPoint::new(lon1, lat1);
        let b = GeoPoint::new(lon2, lat2);
        let c = GeoPoint::new(lon3, lat3);
        let direct = a.haversine_m(&c);
        let via = a.haversine_m(&b) + b.haversine_m(&c);
        prop_assert!(direct <= via + 1e-6);
    }

    #[test]
    fn destination_distance_matches(
        lon in 113.0f64..115.0,
        lat in 22.0f64..23.0,
        bearing in 0.0f64..360.0,
        dist in 1.0f64..50_000.0,
    ) {
        let a = GeoPoint::new(lon, lat);
        let b = a.destination(bearing, dist);
        let measured = a.haversine_m(&b);
        prop_assert!((measured - dist).abs() < dist * 1e-3 + 0.5);
    }
}
