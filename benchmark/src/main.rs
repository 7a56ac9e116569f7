//! `bench_e2e` command line. The benchmark contract's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, which prints
//! every metric by name and, as the last line, the result object;
//! `--check` runs one plain and one traced round of every workload and
//! fails unless every output checks out.

use cad3_benchmark::inputs::Workload;
use cad3_benchmark::run::{run_workload, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default `--seed`, the one `cad3-bench`'s experiment binaries share.
const DEFAULT_SEED: u64 = 42;

/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

const USAGE: &str = "usage: bench_e2e --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--out <dir>]\n       bench_e2e --check [--seed <n>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad("within 0..=3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.check == args.workload.is_some() {
        return Err("give exactly one of --workload and --check".to_owned());
    }
    Ok(args)
}

fn print_outcome(workload: Workload, outcome: &Outcome) {
    print!("{}", outcome.notes);
    for m in &outcome.metrics {
        println!("{:<20}{:<38}{:>18.4} {}", workload.name, m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        println!("FAILED {}: {failure}", workload.name);
    }
}

fn write_trace(dir: &Path, workload: Workload, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}.jsonl", workload.name));
    outcome.tracer.write_jsonl(std::fs::File::create(&path)?)?;
    println!("# {} spans written to {}", outcome.tracer.spans().len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `--check` is the traced run of every workload, cut to one cycle.
    let runs: Vec<(Workload, f64, bool)> = match args.workload {
        Some(workload) => vec![(workload, args.seconds, args.trace)],
        None => Workload::ALL.map(|w| (w, 0.0, true)).to_vec(),
    };
    let mut ok = true;
    for (workload, seconds, trace) in runs {
        let outcome = match run_workload(workload, args.seed, seconds, trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("bench_e2e: {}: set-up failed: {e}", workload.name);
                return ExitCode::FAILURE;
            }
        };
        print_outcome(workload, &outcome);
        if args.check {
            let verdict = if outcome.correct() { "ok" } else { "FAILED" };
            println!("check {}: {verdict}", workload.name);
            ok &= outcome.correct();
            continue;
        }
        if let (true, Some(dir)) = (trace, &args.out) {
            if let Err(e) = write_trace(dir, workload, &outcome) {
                eprintln!("bench_e2e: writing the trace failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("{}", outcome.to_json());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
