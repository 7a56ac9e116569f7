//! Stream hot-path benchmark: produce and poll-128 throughput.
//!
//! Measures the `cad3-stream` ingest path — multi-producer append
//! throughput on one topic (1/2/4/8 threads) and the consumer `poll(128)`
//! drain rate — and records the numbers in `BENCH_stream.json` at the repo
//! root so later PRs have a machine-readable baseline to ratchet against.
//! The micro-batch loop itself (`RsuNode::run_batch`) is timed end to end by
//! `benchmark/`'s `bench_e2e` (`core.run_batch_*`).
//!
//! Usage:
//!
//! ```text
//! bench_stream --label before            # full run, writes the "before" side
//! bench_stream --label after             # full run, writes the "after" side
//! bench_stream --quick --label after     # reduced iteration counts
//! bench_stream --check                   # CI smoke: quick run + validate the
//!                                        # checked-in file (keys present, no
//!                                        # >20% regression vs its "after")
//! ```
//!
//! Timing goes through `cad3_obs::clock::now_nanos()`, the workspace's one
//! monotonic clock read point (the `no-wallclock` lint bans `Instant::now`
//! here). Observability stays detached so the numbers are the raw path.

use bytes::Bytes;
use cad3_bench::json::Json;
use cad3_stream::{Broker, Consumer, OffsetReset};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Appending thread counts measured for the scaling curve.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Partitions of the benchmark topic: enough for 8 producers to spread.
const PARTITIONS: u32 = 8;
/// The five metric keys every complete side of the file must carry.
const METRIC_KEYS: [&str; 5] =
    ["produce_1t_rps", "produce_2t_rps", "produce_4t_rps", "produce_8t_rps", "poll128_rps"];
/// A fresh `--check` run must stay above this fraction of the checked-in
/// baseline. The floor is deliberately loose: `--check` measures in quick
/// mode, whose smaller prefills carry more fixed overhead per poll, and CI
/// machines differ from the one that wrote the baseline. It exists
/// to catch structural regressions — re-serialising the sharded hot path
/// shows up as a 2–3× drop, far below this line — not to ratchet noise.
const REGRESSION_FLOOR: f64 = 0.6;

fn now_ns() -> u64 {
    cad3_obs::clock::now_nanos()
}

fn fail(msg: &str) -> ! {
    println!("bench_stream: {msg}");
    std::process::exit(1);
}

/// 64-byte stand-in for an encoded `VehicleStatus` payload.
fn payload() -> Bytes {
    Bytes::from_static(&[0u8; 64])
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

/// Records/second for `total` keyed records split across `threads`
/// producers on one fresh topic.
fn produce_once(threads: usize, total: u64) -> f64 {
    let broker = Arc::new(Broker::new("bench"));
    if broker.create_topic("BENCH", PARTITIONS).is_err() {
        fail("create_topic failed on a fresh broker");
    }
    let per_thread = total / threads as u64;
    let value = payload();
    let start = now_ns();
    let mut handles = Vec::new();
    for tid in 0..threads as u64 {
        let broker = Arc::clone(&broker);
        let value = value.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                // Distinct keys per thread spread records over all
                // partitions by FNV hash, like distinct vehicle ids.
                let key = Bytes::copy_from_slice(&((tid << 48) | i).to_be_bytes());
                if broker.produce("BENCH", None, Some(key), value.clone(), i).is_err() {
                    fail("send failed mid-benchmark");
                }
            }
        }));
    }
    for h in handles {
        if h.join().is_err() {
            fail("producer thread panicked");
        }
    }
    let elapsed_s = (now_ns() - start) as f64 / 1e9;
    (per_thread * threads as u64) as f64 / elapsed_s
}

/// Records/second drained through `Consumer::poll(128)` over a prefilled
/// topic, seeking back to the beginning whenever the log is exhausted.
fn poll128_once(prefill: u64, polls: usize) -> f64 {
    let broker = Arc::new(Broker::new("bench"));
    if broker.create_topic("BENCH", 3).is_err() {
        fail("create_topic failed on a fresh broker");
    }
    let value = payload();
    for i in 0..prefill {
        let key = Bytes::copy_from_slice(&i.to_be_bytes());
        if broker.produce("BENCH", None, Some(key), value.clone(), i).is_err() {
            fail("prefill send failed");
        }
    }
    let mut consumer = Consumer::new(broker, "bench-poll", OffsetReset::Earliest);
    if consumer.subscribe(&["BENCH"]).is_err() {
        fail("subscribe failed");
    }
    // Warm one poll so the measured loop starts mid-stream.
    if consumer.poll(128).is_err() {
        fail("warmup poll failed");
    }
    let mut records = 0u64;
    let start = now_ns();
    for _ in 0..polls {
        match consumer.poll(128) {
            Ok(batch) => {
                records += batch.len() as u64;
                if batch.is_empty() {
                    consumer.seek_to_beginning();
                }
            }
            Err(_) => fail("poll failed mid-benchmark"),
        }
    }
    let elapsed_s = (now_ns() - start) as f64 / 1e9;
    records as f64 / elapsed_s
}

/// Runs the full suite, returning the five metrics as an object.
fn measure(quick: bool) -> Json {
    let rounds = if quick { 2 } else { 5 };
    let produce_total: u64 = if quick { 40_000 } else { 400_000 };
    let poll_prefill: u64 = if quick { 10_000 } else { 50_000 };
    let polls: usize = if quick { 200 } else { 2_000 };

    let mut out = Json::Obj(Vec::new());
    for threads in THREADS {
        let rps =
            median((0..rounds).map(|_| produce_once(threads, produce_total)).collect::<Vec<_>>());
        println!("produce {threads}t: {rps:.0} rec/s");
        out.insert(&format!("produce_{threads}t_rps"), Json::Num(rps.round()));
    }
    let rps = median((0..rounds).map(|_| poll128_once(poll_prefill, polls)).collect::<Vec<_>>());
    println!("poll_128: {rps:.0} rec/s");
    out.insert("poll128_rps", Json::Num(rps.round()));
    out
}

fn default_out() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../BENCH_stream.json"),
        Err(_) => PathBuf::from("BENCH_stream.json"),
    }
}

fn load(path: &Path) -> Json {
    match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(doc @ Json::Obj(_)) => doc,
            Ok(_) => fail(&format!("{} is not a JSON object", path.display())),
            Err(e) => fail(&format!("{} is unreadable: {e}", path.display())),
        },
        Err(_) => Json::Obj(Vec::new()),
    }
}

fn metric(doc: &Json, side: &str, key: &str) -> Option<f64> {
    doc.get(side).and_then(|s| s.get(key)).and_then(Json::as_f64)
}

/// `--check`: validate the checked-in file, then quick-run for regressions.
fn check(path: &Path) -> ExitCode {
    let doc = load(path);
    if doc == Json::Obj(Vec::new()) {
        fail(&format!("{} is missing; run with --label first", path.display()));
    }
    let mut ok = true;
    for side in ["before", "after"] {
        for key in METRIC_KEYS {
            if metric(&doc, side, key).is_none() {
                println!("FAIL: {side}.{key} missing from {}", path.display());
                ok = false;
            }
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("baseline keys OK; measuring quick pass for regression check");
    let fresh = measure(true);
    for key in METRIC_KEYS {
        let (Some(base), Some(now)) =
            (metric(&doc, "after", key), fresh.get(key).and_then(Json::as_f64))
        else {
            println!("FAIL: metric {key} unavailable");
            ok = false;
            continue;
        };
        let floor = base * REGRESSION_FLOOR;
        if now < floor {
            println!("FAIL: {key} regressed: {now:.0} rec/s < {floor:.0} (baseline {base:.0})");
            ok = false;
        } else {
            println!("ok: {key} {now:.0} rec/s (baseline {base:.0})");
        }
    }
    // Advisory longitudinal view: warn (never fail) when this run drifts
    // outside the band around the newest history entry, then append the
    // run so the series stays current.
    let hist = cad3_bench::history::history_path();
    if let Some(last) = cad3_bench::history::last_entry(&hist, "stream") {
        for w in cad3_bench::history::drift_warnings(&last, &fresh, &METRIC_KEYS, REGRESSION_FLOOR)
        {
            println!("WARN: {w}");
        }
    }
    cad3_bench::history::append(&hist, "stream", true, &fresh);
    if ok {
        println!("bench-smoke PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write(path: &Path, label: &str, metrics: Json, quick: bool) {
    let mut doc = load(path);
    doc.insert("schema", Json::Str("cad3-stream-bench/v1".to_owned()));
    doc.insert("quick", Json::Bool(quick));
    doc.insert(label, metrics);
    // With both sides present, record the after/before speedups.
    let mut speedup = Json::Obj(Vec::new());
    for key in METRIC_KEYS {
        if let (Some(b), Some(a)) = (metric(&doc, "before", key), metric(&doc, "after", key)) {
            if b > 0.0 {
                speedup.insert(key, Json::Num((a / b * 100.0).round() / 100.0));
            }
        }
    }
    if speedup != Json::Obj(Vec::new()) {
        doc.insert("speedup", speedup);
    }
    if std::fs::write(path, doc.to_pretty_string() + "\n").is_err() {
        fail(&format!("cannot write {}", path.display()));
    }
    println!("[written to {}]", path.display());
}

fn main() -> ExitCode {
    let mut quick = cad3_bench::quick_mode();
    let mut label: Option<String> = None;
    let mut out = default_out();
    let mut do_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => do_check = true,
            "--label" => match args.next() {
                Some(l) if l == "before" || l == "after" => label = Some(l),
                _ => fail("--label needs `before` or `after`"),
            },
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => fail("--out needs a path"),
            },
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if do_check {
        return check(&out);
    }
    let metrics = measure(quick);
    cad3_bench::history::append(&cad3_bench::history::history_path(), "stream", quick, &metrics);
    match label {
        Some(label) => write(&out, &label, metrics, quick),
        None => println!("(no --label: results not written)"),
    }
    ExitCode::SUCCESS
}
