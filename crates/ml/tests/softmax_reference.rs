//! `NaiveBayes::softmax_in_place`, the log-sum-exp of both Naïve Bayes
//! evaluation entries, against the fold it replaced, kept in `support` as
//! [`support::softmax_fold`]: every output by its bits.
//!
//! The helper skips `exp` where a class's gap to the max is ±0; the cases
//! here are the ones where that could part from the fold: ties (signed
//! zeros too), gaps where the smaller class's `exp` underflows to 0, and
//! rows holding ±∞ or NaN, at two classes and at other widths.

mod support;

use cad3_ml::NaiveBayes;
use proptest::prelude::*;
use support::softmax_fold;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The helper's output for `ll`, and the fold's, by their bits.
fn both(ll: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let mut got = ll.to_vec();
    NaiveBayes::softmax_in_place(&mut got);
    (bits(&got), bits(&softmax_fold(ll)))
}

fn assert_same_bits(ll: &[f64]) {
    let (got, want) = both(ll);
    assert_eq!(got, want, "log-likelihoods {ll:?}");
}

const INF: f64 = f64::INFINITY;
const NAN: f64 = f64::NAN;

#[test]
fn two_class_edges_match_the_fold() {
    // The smallest gap whose `exp` underflows to 0 (and just either side of it).
    let underflow = [744.0, 745.0, 745.1, 745.2, 746.0, 1e300];
    let mut cases: Vec<[f64; 2]> = vec![
        // Ties, including signed zeros and the largest finite values.
        [0.0, 0.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-3.5, -3.5],
        [f64::MAX, f64::MAX],
        [f64::MIN, f64::MIN],
        // Ordinary gaps either way round.
        [-1.0, -2.0],
        [-2.0, -1.0],
        [-1e-300, 1e-300],
        [f64::MIN_POSITIVE, 0.0],
        // Gaps overflowing to ±∞ between finite values.
        [f64::MAX, f64::MIN],
        [f64::MIN, f64::MAX],
        // ±∞ and NaN, alone and together.
        [INF, 0.0],
        [0.0, INF],
        [INF, INF],
        [-INF, 0.0],
        [0.0, -INF],
        [-INF, -INF],
        [INF, -INF],
        [-INF, INF],
        [NAN, 0.0],
        [0.0, NAN],
        [NAN, NAN],
        [NAN, INF],
        [-INF, NAN],
    ];
    for gap in underflow {
        cases.push([-10.0, -10.0 - gap]);
        cases.push([-10.0 - gap, -10.0]);
    }
    for ll in cases {
        assert_same_bits(&ll);
    }
}

#[test]
fn other_widths_fold() {
    for ll in [
        &[][..],
        &[-4.0][..],
        &[NAN][..],
        &[-1.0, -2.0, -3.0][..],
        &[-1.0, -1.0, -1.0][..],
        &[0.0, -800.0, INF][..],
        &[NAN, -1.0, -2.0, -3.0][..],
    ] {
        assert_same_bits(ll);
    }
}

/// A log-likelihood: mostly in the detect path's finite range, otherwise
/// any `f64` by its bits (subnormals, ±∞, NaN payloads) or one of ±∞, NaN.
fn arb_ll() -> impl Strategy<Value = f64> {
    (0u8..13, -2000.0f64..50.0, any::<u64>()).prop_map(|(kind, finite, raw)| match kind {
        0..=7 => finite,
        8 | 9 => f64::from_bits(raw),
        10 => INF,
        11 => -INF,
        _ => NAN,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn two_class_rows_match_the_fold(a in arb_ll(), b in arb_ll()) {
        let (got, want) = both(&[a, b]);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn near_ties_match_the_fold(a in -1e6f64..1e6, ulps in -64i64..64) {
        // `b` a few ulps from `a`: the gap is tiny, exact, and either sign.
        let b = f64::from_bits(a.to_bits().wrapping_add_signed(ulps));
        let (got, want) = both(&[a, b]);
        prop_assert_eq!(got, want);
    }
}
