//! Observational equivalence of [`SharedTopic`] and the reference [`Topic`].
//!
//! The sharded topic replaced the single-mutex `Topic` on the broker's hot
//! path (see `DESIGN.md`, "Hot path and sharding"). Its contract is that the
//! *public semantics are bit-identical*: the same append sequence routes to
//! the same partitions, yields the same offsets, is trimmed to the same
//! committed floors and time horizon, and every fetch window — including
//! error cases — returns the same answer. This property test drives both
//! implementations through identical operation schedules and compares every
//! observable result. The sharded side is read through
//! [`SharedTopic::fetch_each`], the walk `Consumer::poll_each` runs.

use bytes::Bytes;
use cad3_stream::{SharedTopic, StreamError};
use proptest::prelude::*;
use support::{window, OracleRecord, Topic};

mod support;

/// The sharded topic's window in the oracle's record type: every record
/// must carry the partition it was read from and no trace header, since
/// the schedules append untraced.
fn sharded_fetch(
    topic: &SharedTopic,
    partition: u32,
    offset: u64,
    max: usize,
) -> Result<Vec<OracleRecord>, StreamError> {
    let records = window(topic, partition, offset, max)?;
    Ok(records
        .into_iter()
        .map(|r| {
            assert_eq!((r.partition, r.trace), (partition, None), "record {}", r.offset);
            OracleRecord { offset: r.offset, key: r.key, value: r.value, timestamp: r.timestamp }
        })
        .collect())
}

/// One step of an interleaved schedule: appends routed each of the three
/// ways the producer can route, commits, plus reads of every observable
/// surface. An append is stamped `step + jitter`: mostly ascending, as
/// arrivals are, with late stamps mixed in so that the horizon's trim
/// meets a fresh record in front of a stale one.
#[derive(Debug, Clone)]
enum Op {
    /// Keyless append — exercises the round-robin counter.
    AppendRoundRobin { value: u8, jitter: u64 },
    /// Keyed append — exercises the FNV-1a partitioner.
    AppendKeyed { key: u8, value: u8, jitter: u64 },
    /// Explicit-partition append; the partition is taken modulo a range a
    /// little wider than the partition count so out-of-range errors are
    /// exercised too.
    AppendExplicit { partition: u32, value: u8, jitter: u64 },
    /// Commit a floor — anywhere from below the earliest retained offset
    /// to past the end, on a possibly invalid partition.
    Commit { partition: u32, offset: u64 },
    /// Fetch a window; offset and partition both range past the valid end
    /// so `UnknownPartition` and `OffsetOutOfRange` are compared as well.
    Fetch { partition: u32, offset: u64, max: usize },
    /// Compare end offset of a partition (possibly invalid).
    EndOffset { partition: u32 },
    /// Compare earliest retained offset of a partition (possibly invalid).
    EarliestOffset { partition: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A weighted selector drawn alongside every operand the variants need;
    // the map picks the variant (the vendored proptest has no `prop_oneof!`).
    (0u32..15, 0u8..8, any::<u8>(), 0u32..6, 0u64..40, 0usize..16, 0u64..12).prop_map(
        |(select, key, value, partition, offset, max, jitter)| match select {
            0..=2 => Op::AppendRoundRobin { value, jitter },
            3..=5 => Op::AppendKeyed { key, value, jitter },
            6..=7 => Op::AppendExplicit { partition, value, jitter },
            8..=9 => Op::Commit { partition, offset },
            10..=12 => Op::Fetch { partition, offset, max },
            13 => Op::EndOffset { partition },
            _ => Op::EarliestOffset { partition },
        },
    )
}

/// Runs `ops` against both topics. Errors are compared directly: both
/// sides name their topic identically, so `UnknownPartition` payloads must
/// agree in content too.
fn run_schedule(ops: &[Op], partitions: u32, horizon: Option<u64>) {
    let mut reference = Topic::new("IN-DATA", partitions).expect("reference topic");
    let sharded = SharedTopic::new("IN-DATA", partitions).expect("sharded");
    if let Some(h) = horizon {
        reference.set_horizon(h);
        sharded.set_horizon(h);
    }

    assert_eq!(reference.partition_count(), sharded.partition_count());

    for (step, op) in ops.iter().enumerate() {
        let stamp = |jitter: &u64| step as u64 + jitter;
        match op {
            Op::AppendRoundRobin { value, jitter } => {
                let v = Bytes::copy_from_slice(&[*value]);
                let a = reference.append(None, None, v.clone(), stamp(jitter));
                let b = sharded.append(None, None, v, stamp(jitter), None);
                assert_eq!(a, b, "round-robin append diverged at step {step}");
            }
            Op::AppendKeyed { key, value, jitter } => {
                let k = Bytes::copy_from_slice(&[*key]);
                let v = Bytes::copy_from_slice(&[*value]);
                assert_eq!(
                    reference.partition_for_key(&[*key]),
                    sharded.partition_for_key(&[*key]),
                    "partitioner diverged for key {key}"
                );
                let a = reference.append(None, Some(k.clone()), v.clone(), stamp(jitter));
                let b = sharded.append(None, Some(k), v, stamp(jitter), None);
                assert_eq!(a, b, "keyed append diverged at step {step}");
            }
            Op::AppendExplicit { partition, value, jitter } => {
                let v = Bytes::copy_from_slice(&[*value]);
                let a = reference.append(Some(*partition), None, v.clone(), stamp(jitter));
                let b = sharded.append(Some(*partition), None, v, stamp(jitter), None);
                assert_eq!(a, b, "explicit append diverged at step {step}");
            }
            Op::Commit { partition, offset } => {
                let a = reference.commit(*partition, *offset);
                let b = sharded.commit(*partition, *offset);
                assert_eq!(a, b, "commit diverged at step {step}");
            }
            Op::Fetch { partition, offset, max } => {
                let a = reference.read(*partition, *offset, *max);
                let b = sharded_fetch(&sharded, *partition, *offset, *max);
                assert_eq!(a, b, "fetch diverged at step {step}");
            }
            Op::EndOffset { partition } => {
                assert_eq!(
                    reference.end_offset(*partition),
                    sharded.end_offset(*partition),
                    "end_offset diverged at step {step}"
                );
            }
            Op::EarliestOffset { partition } => {
                assert_eq!(
                    reference.earliest_offset(*partition),
                    sharded.earliest_offset(*partition),
                    "earliest_offset diverged at step {step}"
                );
            }
        }
    }

    // Terminal full-state comparison: totals and every partition's replay.
    assert_eq!(reference.len(), sharded.len(), "retained totals diverged");
    assert_eq!(reference.is_empty(), sharded.is_empty());
    for p in 0..partitions {
        let earliest = reference.earliest_offset(p).expect("valid partition");
        let a = reference.read(p, earliest, usize::MAX);
        let b = sharded_fetch(&sharded, p, earliest, usize::MAX);
        assert_eq!(a, b, "terminal replay of partition {p} diverged");
    }
}

proptest! {
    /// Any interleaving of keyed, keyless, and explicit appends with
    /// commits and reads is observationally identical between `Topic` and
    /// `SharedTopic`.
    #[test]
    fn sharded_topic_matches_reference(
        ops in prop::collection::vec(op_strategy(), 1..120),
        partitions in 1u32..=4,
    ) {
        run_schedule(&ops, partitions, None);
    }

    /// Equivalence holds under a time horizon as well as the commits:
    /// earliest offsets, out-of-range fetch errors, and surviving records
    /// all agree.
    #[test]
    fn sharded_topic_matches_reference_with_a_horizon(
        ops in prop::collection::vec(op_strategy(), 1..120),
        partitions in 1u32..=4,
        horizon in 0u64..20,
    ) {
        run_schedule(&ops, partitions, Some(horizon));
    }

    /// `StreamError` values for invalid partitions carry the same topic
    /// name and partition index on both sides.
    #[test]
    fn error_payloads_agree(partitions in 1u32..=4, bad in 4u32..9) {
        let reference = Topic::new("OUT-RESULT", partitions).unwrap();
        let sharded = SharedTopic::new("OUT-RESULT", partitions).unwrap();
        let a = reference.read(bad + partitions, 0, 1).unwrap_err();
        let b = sharded_fetch(&sharded, bad + partitions, 0, 1).unwrap_err();
        prop_assert_eq!(&a, &b);
        prop_assert!(matches!(
            a,
            StreamError::UnknownPartition { ref topic, .. } if topic == "OUT-RESULT"
        ));
    }
}
