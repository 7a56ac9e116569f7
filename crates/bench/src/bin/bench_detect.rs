//! Detect-stage benchmark: records/second through the CAD3 inference
//! stage across micro-batch sizes.
//!
//! Measures exactly the work `RsuNode::run_batch` does per record *after*
//! decode — the two-stage ensemble (column-major NB sweep + branchless
//! CART descent) interleaved with `SummaryTracker::observe` — at batch
//! sizes 1/16/128/1024, and records records/second in `BENCH_detect.json`
//! at the repo root. Record production, wire codecs and broker plumbing
//! are deliberately outside the timed region: they are identical on both
//! A/B sides and would otherwise dilute the inference delta below
//! measurability (the end-to-end path carries ~1µs/record of fixed
//! transport overhead against ~300ns of inference).
//!
//! The A/B seam is [`detect_stage`]: the `before` build is the parent
//! commit with that one body replaced by the scalar per-record loop (the
//! default `Detector::detect_batch` body — exactly what the parent RSU
//! ran per record); see EXPERIMENTS.md "Batch detect path".
//!
//! Usage:
//!
//! ```text
//! bench_detect --label before            # full run, writes the "before" side
//! bench_detect --label after             # full run, writes the "after" side
//! bench_detect --quick --label after     # reduced iteration counts
//! bench_detect --check                   # CI smoke: quick run + validate the
//!                                        # checked-in file (keys present, no
//!                                        # >40% regression vs its "after")
//! ```
//!
//! Timing goes through `cad3_obs::clock::now_nanos()`, the workspace's one
//! monotonic clock read point (the `no-wallclock` lint bans `Instant::now`
//! here). Observability stays detached so the numbers are the raw path.

use cad3::detector::{train_all, Detection, DetectionConfig, Detector};
use cad3::SummaryTracker;
use cad3_bench::json::Json;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::FeatureRecord;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Micro-batch sizes measured for the throughput curve. 128 is the
/// paper's nominal load (256 vehicles at 10 Hz in a 50 ms batch); 1 is
/// the worst case (all per-call plan setup, nothing amortised); 1024 is a
/// backlog burst.
const BATCH_SIZES: [usize; 4] = [1, 16, 128, 1024];
/// The four metric keys every complete side of the file must carry.
const METRIC_KEYS: [&str; 4] =
    ["detect_b1_rps", "detect_b16_rps", "detect_b128_rps", "detect_b1024_rps"];
/// A fresh `--check` run must stay above this fraction of the checked-in
/// baseline. The floor is deliberately loose: `--check` measures in quick
/// mode, whose shorter runs carry more warmup-adjacent noise, and CI
/// machines differ from the one that wrote the baseline. It exists to
/// catch structural regressions — losing the batched sweep and falling
/// back to per-record inference shows up as a >2× drop at batch 128,
/// far below this line — not to ratchet noise.
const REGRESSION_FLOOR: f64 = 0.6;

fn now_ns() -> u64 {
    cad3_obs::clock::now_nanos()
}

fn fail(msg: &str) -> ! {
    println!("bench_detect: {msg}");
    std::process::exit(1);
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

/// The measured unit: classify `recs`, interleaving tracker observation
/// exactly as `RsuNode::run_batch` does.
///
/// **This function body is the A/B seam.** The `after` side is this file
/// as checked in. The `before` side is the parent commit with this body
/// replaced by the scalar loop that predates `Detector::detect_batch`:
///
/// ```text
/// for rec in recs {
///     let Ok(p1) = det.stage1_p_abnormal(rec) else { out.push(None); continue };
///     let summary = tracker.observe(rec.vehicle, rec.road, p1);
///     out.push(det.detect(rec, summary.as_ref()).ok());
/// }
/// ```
///
/// Everything outside this body — training, record pool, tracker, timing
/// loop — is byte-identical on both sides.
fn detect_stage(
    det: &dyn Detector,
    recs: &[FeatureRecord],
    tracker: &mut SummaryTracker,
    out: &mut Vec<Option<Detection>>,
) {
    det.detect_batch(recs, &mut |i, p1| tracker.observe(recs[i].vehicle, recs[i].road, p1), out);
}

/// Records/second through [`detect_stage`] at a fixed batch size.
///
/// Batches are consecutive windows rotating through the record pool, so
/// the context mix (road types, hours, vehicles) matches the generator's
/// traffic and the tracker accumulates state exactly as a live RSU's
/// would. The tracker persists across iterations; two untimed warmup
/// calls settle its shards (and the branch predictor) first.
fn detect_once(det: &dyn Detector, recs: &[FeatureRecord], batch: usize, total: u64) -> f64 {
    if recs.len() <= batch {
        fail("record pool smaller than the batch size");
    }
    let window = recs.len() - batch;
    let mut tracker = det.new_tracker();
    let mut out: Vec<Option<Detection>> = Vec::with_capacity(batch);
    for it in 0..2 {
        out.clear();
        detect_stage(det, &recs[it * batch..it * batch + batch], &mut tracker, &mut out);
    }
    let iterations = (total / batch as u64).max(1);
    let mut elapsed = 0u64;
    let mut detections = 0u64;
    for it in 0..iterations as usize {
        let base = (it * batch) % window;
        let slice = &recs[base..base + batch];
        out.clear();
        let start = now_ns();
        detect_stage(det, slice, &mut tracker, &mut out);
        elapsed += now_ns() - start;
        // Consume the outputs so the stage cannot be dead-code-eliminated.
        detections += out.iter().flatten().count() as u64;
    }
    if detections == 0 {
        fail("no detections produced; the detector is mis-trained");
    }
    (iterations * batch as u64) as f64 / (elapsed as f64 / 1e9)
}

/// Runs the full suite, returning the four metrics as an object.
fn measure(quick: bool) -> Json {
    let rounds = if quick { 2 } else { 5 };
    let total: u64 = if quick { 65_536 } else { 524_288 };

    let pool = SyntheticDataset::generate(&DatasetConfig::small(17));
    let models = match train_all(&pool.features, &DetectionConfig::default()) {
        Ok(m) => m,
        Err(_) => fail("training on the synthetic dataset failed"),
    };
    let detector: &dyn Detector = &models.cad3;

    let mut out = Json::Obj(Vec::new());
    for batch in BATCH_SIZES {
        let rps = median(
            (0..rounds)
                .map(|_| detect_once(detector, &pool.features, batch, total))
                .collect::<Vec<_>>(),
        );
        println!("detect b{batch}: {rps:.0} rec/s");
        out.insert(&format!("detect_b{batch}_rps"), Json::Num(rps.round()));
    }
    out
}

fn default_out() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../BENCH_detect.json"),
        Err(_) => PathBuf::from("BENCH_detect.json"),
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
    if let Some(last) = cad3_bench::history::last_entry(&hist, "detect") {
        for w in cad3_bench::history::drift_warnings(&last, &fresh, &METRIC_KEYS, REGRESSION_FLOOR)
        {
            println!("WARN: {w}");
        }
    }
    cad3_bench::history::append(&hist, "detect", true, &fresh);
    if ok {
        println!("bench-smoke PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write(path: &Path, label: &str, metrics: Json, quick: bool) {
    let mut doc = load(path);
    doc.insert("schema", Json::Str("cad3-detect-bench/v1".to_owned()));
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
    cad3_bench::history::append(&cad3_bench::history::history_path(), "detect", quick, &metrics);
    match label {
        Some(label) => write(&out, &label, metrics, quick),
        None => println!("(no --label: results not written)"),
    }
    ExitCode::SUCCESS
}
