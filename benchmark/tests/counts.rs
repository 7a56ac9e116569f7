//! Seeds and exact counts: every count metric repeats exactly for one seed,
//! whatever the worker count or the tracer state, and the seed-dependent
//! ones change with the seed. Also pins the metric names and units the
//! binary prints to `BENCHMARK.json`.

use cad3_benchmark::inputs::{scalar_oracle, Corpus, Inputs, Workload, WARNING_SHARE};
use cad3_benchmark::round::{run_round, RoundConfig, RoundResult};
use cad3_benchmark::run::run_workload;
use cad3_benchmark::spans::Tracer;

/// The named workload, shortened so a debug-build round takes a moment.
fn short(name: &str, steps: usize) -> Workload {
    Workload { steps, ..Workload::by_name(name).unwrap() }
}

fn round(seed: u64, workload: Workload, workers: usize, traced: bool) -> RoundResult {
    let inputs = Inputs::generate(&Corpus::generate(seed).unwrap(), workload);
    let mut tracer = Tracer::default();
    tracer.start_round(0, traced);
    run_round(&inputs, RoundConfig { workers, obs: workload.obs }, &mut tracer)
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_it() {
    for workload in [short("steady_256v", 120), short("handover_2rsu", 120)] {
        let a = round(7, workload, workload.workers, false);
        let b = round(7, workload, workload.workers, false);
        assert_eq!(a.counts, b.counts, "{}", workload.name);
        assert_eq!(a.checksum, b.checksum, "{}", workload.name);

        let c = a.counts;
        assert_eq!(c.records_processed, c.produced);
        assert_eq!(c.delivered, c.warnings);
        assert_eq!(c.summaries_in, c.summaries_out);
        assert_eq!(c.stream_errors, 0);
        assert_eq!(c.summaries_out > 0, workload.handover);

        let other = round(8, workload, workload.workers, false).counts;
        // The workload fixes how much goes in ...
        assert_eq!(
            (other.produced, other.bytes_in, other.batches),
            (c.produced, c.bytes_in, c.batches)
        );
        // ... the seed decides what comes out ...
        assert_ne!(other.warnings, c.warnings, "{}", workload.name);
        assert_ne!(other.retained_records, c.retained_records, "{}", workload.name);
        // ... around the share of warnings every fleet is held to.
        for counts in [c, other] {
            let share = counts.warnings as f64 / counts.produced as f64;
            assert!((share - WARNING_SHARE).abs() < 0.03, "{}: {share}", workload.name);
        }
    }
}

#[test]
fn counts_ignore_worker_count_and_tracing() {
    let workload = short("handover_2rsu", 120);
    let six = round(11, workload, 6, false);
    let one = round(11, workload, 1, false);
    let traced = round(11, workload, 6, true);
    assert_eq!(six.counts, one.counts);
    assert_eq!(six.checksum, one.checksum);
    assert_eq!(six.counts, traced.counts);
    assert_eq!(six.checksum, traced.checksum);
    assert_eq!(traced.probe_rows, traced.counts.records_processed);
    assert_eq!(six.probe_rows, 0, "probes run only while the tracer records");
}

#[test]
fn single_rsu_round_matches_the_scalar_oracle() {
    let workload = short("steady_256v", 120);
    let inputs = Inputs::generate(&Corpus::generate(5).unwrap(), workload);
    let mut tracer = Tracer::default();
    let result = run_round(&inputs, RoundConfig { workers: 6, obs: false }, &mut tracer);
    let (checksum, warnings) = scalar_oracle(&inputs);
    assert_eq!(result.checksum, checksum);
    assert_eq!(result.counts.warnings, warnings);
    assert!(warnings > 0);
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    for w in Workload::ALL {
        assert!(contract.contains(&format!("\"name\": \"{}\"", w.name)), "{}", w.name);
    }
    let workload = short("steady_256v", 40);
    let mut printed = 0;
    for trace in [false, true] {
        let outcome = run_workload(workload, 3, 0.0, trace).unwrap();
        assert!(outcome.correct(), "{:?}", outcome.failures);
        assert_eq!(outcome.failed, 0);
        for m in &outcome.metrics {
            let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
            assert!(contract.contains(&entry), "{entry} is not in BENCHMARK.json");
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        printed += outcome.metrics.len();
    }
    assert_eq!(printed, contract.matches("\"better\"").count());
}
