//! `cargo xtask` — workspace automation for the CAD3 reproduction.
//!
//! Two subcommands, four checks:
//!
//! ```sh
//! cargo xtask lint                    # check against crates/xtask/baseline.toml
//! cargo xtask lint --update-baseline  # regenerate the ratchet
//! cargo xtask analyze                 # lock-graph deadlock + rank analysis
//! cargo xtask analyze --emit-lockranks  # print a regenerated lockranks.toml
//! cargo xtask analyze --hotpaths      # hot-path purity contract (hotpaths.toml)
//! cargo xtask analyze --determinism   # determinism contract (determinism.toml)
//! cargo xtask analyze [..] --format sarif  # machine-readable (also: json)
//! ```
//!
//! All are from-scratch passes (no rustc/syn involvement). `lint` is
//! token-level, applying the per-line rules in `rules.rs`; `analyze` parses
//! every workspace crate (`lexer` → `tokens` → `parser`) and extracts one
//! set of per-function facts (`lockgraph::extract`). The lock-graph analysis
//! checks the acquisition graph for cycles and violations of the hierarchy
//! in `lockranks.toml`; the two contract analyses are one check (`contract`)
//! over two scanners (`hotpaths`, `determinism`), each taking
//! `--<table>`, `--emit-<table>` and `--update-<table>-baseline`.
//! See `DESIGN.md` §"Verification strategy".

mod baseline;
mod contract;
mod determinism;
mod hotpaths;
mod lexer;
mod lockgraph;
mod parser;
mod report;
mod rules;
mod tokens;

use contract::{Outcome, Pass};
use rules::FileKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <command>

commands:
  lint [--update-baseline]
      token-level rules checked against crates/xtask/baseline.toml
  analyze [--format human|json|sarif] [--emit-lockranks]
      whole-workspace lock-graph deadlock and lock-rank analysis
  analyze --hotpaths [--format human|json|sarif] [--emit-hotpaths]
          [--update-hotpaths-baseline]
      hot-path purity: prove the entries in hotpaths.toml stay within
      their declared effect capabilities (alloc, panic, block, wallclock,
      lock:<rank>), ratcheted via crates/xtask/hotpaths_baseline.toml
  analyze --determinism [--format human|json|sarif] [--emit-determinism]
          [--update-determinism-baseline]
      determinism contract: prove the entries in determinism.toml reach no
      nondeterminism source (map-iter, hash-state, wallclock, thread,
      unseeded-rng, ptr-order) outside their declared allowance,
      ratcheted via crates/xtask/determinism_baseline.toml";

/// The contract analyses `analyze` can run, each behind its own flags.
const PASSES: [&Pass; 2] = [&hotpaths::PASS, &determinism::PASS];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            if args.iter().skip(1).any(|a| a != "--update-baseline") {
                return usage();
            }
            exit_of(lint(update), "lint")
        }
        Some("analyze") => {
            let mut format = "human".to_owned();
            let mut emit_lockranks = false;
            let mut pass: Option<&Pass> = None;
            let (mut emit, mut update_baseline) = (false, false);
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--format" => match rest.next().map(String::as_str) {
                        Some(f @ ("human" | "json" | "sarif")) => format = f.to_owned(),
                        _ => return usage(),
                    },
                    "--emit-lockranks" => emit_lockranks = true,
                    flag => {
                        let hit = PASSES.iter().find_map(|p| {
                            let t = p.table;
                            let flags = [
                                format!("--{t}"),
                                format!("--emit-{t}"),
                                format!("--update-{t}-baseline"),
                            ];
                            Some((*p, flags.iter().position(|f| f == flag)?))
                        });
                        match hit {
                            // One analysis per command line.
                            Some((p, at)) if pass.is_none_or(|chosen| chosen.table == p.table) => {
                                pass = Some(p);
                                emit |= at == 1;
                                update_baseline |= at == 2;
                            }
                            _ => return usage(),
                        }
                    }
                }
            }
            match pass {
                // A lock-graph-only flag next to a contract pass.
                Some(_) if emit_lockranks => usage(),
                Some(pass) => {
                    exit_of(analyze_contract(pass, &format, emit, update_baseline), "analyze")
                }
                None => exit_of(analyze(&format, emit_lockranks), "analyze"),
            }
        }
        _ => usage(),
    }
}

/// A bad command line: usage on stderr, exit 2.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Maps a subcommand result to an exit code (1 = findings, 2 = I/O error).
fn exit_of(result: std::io::Result<bool>, what: &str) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask {what}: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Every linted source file, as (absolute path, repo-relative path, kind).
///
/// Scope: each package's `src/`, `tests/`, `benches/` and `examples/` trees
/// (root package and `crates/*`). `src/` files get the full rule set;
/// the others are [`FileKind::TestLike`], where panicking and clock access
/// are idiomatic. `vendor/` stubs mimic third-party API and are exempt;
/// in-file `#[cfg(test)]` regions are excluded by the lexer instead.
fn collect_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String, FileKind)>> {
    let mut package_roots = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        if entry.path().is_dir() {
            package_roots.push(entry.path());
        }
    }
    let mut out = Vec::new();
    for package in &package_roots {
        for (tree, kind) in [
            ("src", FileKind::Library),
            ("tests", FileKind::TestLike),
            ("benches", FileKind::TestLike),
            ("examples", FileKind::TestLike),
        ] {
            let mut files = Vec::new();
            walk(&package.join(tree), &mut files)?;
            for path in files {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((path, rel, kind));
            }
        }
    }
    out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the lint; returns `Ok(true)` when clean against the baseline.
fn lint(update_baseline: bool) -> std::io::Result<bool> {
    let root = workspace_root();
    let baseline_path = root.join("crates/xtask/baseline.toml");
    let sources = collect_sources(&root)?;

    let mut violations = Vec::new();
    let mut library = Vec::new();
    for (path, rel, kind) in &sources {
        let file = lexer::lex(&std::fs::read_to_string(path)?);
        violations.extend(rules::check_file(rel, &file, *kind));
        if *kind == FileKind::Library {
            library.push((rel.as_str(), file));
        }
    }
    // The SLO contract is not a Rust source, but its metric references are
    // linted against the same catalogue the span rules use.
    let slos_path = root.join("slos.toml");
    if slos_path.is_file() {
        let text = std::fs::read_to_string(&slos_path)?;
        violations.extend(rules::check_slos("slos.toml", &text));
    }
    // The profile vocabulary arrays live in the (per-file-exempt) names
    // source; their well-formedness is checked against the compiled-in
    // catalogue here.
    violations.extend(rules::check_profile_catalogue());
    // Every catalogued name needs an emitter somewhere in library code.
    violations.extend(rules::check_name_emitters(&library));

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for v in &violations {
        *counts.entry(format!("{}:{}", v.rule, v.file)).or_insert(0) += 1;
    }

    let mut per_rule: BTreeMap<&str, u64> = BTreeMap::new();
    for v in &violations {
        *per_rule.entry(v.rule).or_insert(0) += 1;
    }
    println!("xtask lint: scanned {} files", sources.len());
    for rule in rules::RULE_NAMES {
        println!("  {rule:<18} {} violation(s)", per_rule.get(rule).copied().unwrap_or(0));
    }

    if update_baseline {
        baseline::save(&baseline_path, &counts)?;
        println!(
            "baseline regenerated: {} ({} keys, {} total violations)",
            baseline_path.display(),
            counts.len(),
            counts.values().sum::<u64>(),
        );
        return Ok(true);
    }

    let baselined = baseline::load(&baseline_path)?;
    let mut clean = true;
    for (key, &count) in &counts {
        let allowed = baselined.get(key).copied().unwrap_or(0);
        if count > allowed {
            clean = false;
            println!("\nNEW violations for {key}: {count} found, {allowed} baselined. Sites:");
            let (rule, file) = key.split_once(':').unwrap_or((key, ""));
            for v in violations.iter().filter(|v| v.rule == rule && v.file == file).take(10) {
                println!("  {}:{}: {}", v.file, v.line, v.message);
            }
        }
    }
    // The ratchet tightens in both directions: a baselined count above the
    // current reality is slack a regression could hide in, so a stale
    // baseline fails the lint until it is regenerated.
    let mut slack = 0u64;
    for (key, &allowed) in &baselined {
        let current = counts.get(key).copied().unwrap_or(0);
        if current < allowed {
            slack += allowed - current;
            println!("stale baseline entry {key}: {allowed} baselined, {current} remain");
        }
    }
    if slack > 0 {
        clean = false;
        println!(
            "\n{slack} baselined violation(s) no longer exist; run \
             `cargo xtask lint --update-baseline` to tighten the ratchet"
        );
    }
    if clean {
        println!("clean: baseline is tight and no new violations");
    } else {
        println!("\nxtask lint failed: fix the sites above or justify them per DESIGN.md");
    }
    Ok(clean)
}

/// The package name (underscored) from a `Cargo.toml`.
fn package_name(manifest: &Path) -> std::io::Result<Option<String>> {
    let text = std::fs::read_to_string(manifest)?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                return Ok(Some(value.trim().trim_matches('"').replace('-', "_")));
            }
        }
        if line.starts_with('[') && line != "[package]" {
            break;
        }
    }
    Ok(None)
}

/// Loads every workspace package's `src/` tree as analyzer input:
/// (crate name, repo-relative path, text) triples.
fn collect_analyze_sources(root: &Path) -> std::io::Result<Vec<(String, String, String)>> {
    let mut packages = vec![root.to_path_buf()];
    let mut entries: Vec<_> =
        std::fs::read_dir(root.join("crates"))?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        if entry.path().is_dir() {
            packages.push(entry.path());
        }
    }
    let mut out = Vec::new();
    for package in packages {
        let Some(crate_name) = package_name(&package.join("Cargo.toml"))? else {
            continue;
        };
        let mut files = Vec::new();
        walk(&package.join("src"), &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = std::fs::read_to_string(&path)?;
            out.push((crate_name.clone(), rel, text));
        }
    }
    Ok(out)
}

/// Borrows loaded sources as analyzer inputs.
fn inputs(sources: &[(String, String, String)]) -> Vec<lockgraph::SourceInput<'_>> {
    sources
        .iter()
        .map(|(c, p, t)| lockgraph::SourceInput { crate_name: c, path: p, text: t })
        .collect()
}

/// Runs the lock-graph analysis; returns `Ok(true)` when there are no
/// findings. With `emit_lockranks`, prints a regenerated table instead
/// (redirect into `lockranks.toml` to accept it) and always succeeds.
fn analyze(format: &str, emit_lockranks: bool) -> std::io::Result<bool> {
    let root = workspace_root();
    let ranks = baseline::load(&root.join("lockranks.toml"))?;
    let sources = collect_analyze_sources(&root)?;
    let analysis = lockgraph::analyze(&inputs(&sources), &ranks);

    if emit_lockranks {
        print!("{}", lockgraph::emit_lockranks(&analysis, &ranks));
        return Ok(true);
    }
    match format {
        "json" => print!("{}", report::json(&analysis)),
        "sarif" => print!("{}", report::sarif(&analysis)),
        _ => print!("{}", report::human(&analysis)),
    }
    Ok(analysis.findings.is_empty())
}

/// Checks the workspace against `pass`'s checked-in contract and baseline.
fn check_contract(pass: &Pass, root: &Path) -> std::io::Result<Outcome> {
    let ranks = baseline::load(&root.join("lockranks.toml"))?;
    let config = contract::load(pass, root)?;
    let baselined = baseline::load(&root.join(pass.baseline_file()))?;
    let sources = collect_analyze_sources(root)?;
    Ok(contract::analyze(pass, &inputs(&sources), &config, &ranks, &baselined))
}

/// Runs one contract analysis; returns `Ok(true)` when every entry of the
/// pass's contract stays within its declared atoms (modulo the ratcheted
/// baseline). With `emit`, prints a regenerated contract; with
/// `update_baseline`, rewrites the ratchet to current reality.
fn analyze_contract(
    pass: &Pass,
    format: &str,
    emit: bool,
    update_baseline: bool,
) -> std::io::Result<bool> {
    let root = workspace_root();
    let outcome = check_contract(pass, &root)?;

    if emit {
        print!("{}", contract::emit(pass, &outcome));
        return Ok(true);
    }
    if update_baseline {
        let baseline_path = root.join(pass.baseline_file());
        baseline::save_with_header(
            &baseline_path,
            &outcome.violation_counts,
            &pass.baseline_header(),
        )?;
        println!(
            "{} baseline regenerated: {} ({} violation key(s))",
            pass.table,
            baseline_path.display(),
            outcome.violation_counts.values().filter(|&&c| c > 0).count(),
        );
        return Ok(true);
    }
    match format {
        "json" => print!("{}", contract::json(pass, &outcome)),
        "sarif" => print!("{}", contract::sarif(pass, &outcome)),
        _ => print!("{}", contract::human(pass, &outcome)),
    }
    Ok(outcome.findings.is_empty())
}

#[cfg(test)]
mod main_tests {
    use super::*;

    /// End-to-end: the analyzer must run clean on the real workspace —
    /// every lock site ranked, no cycles, every acquisition witnessed.
    #[test]
    fn real_workspace_analysis_is_clean() {
        let root = workspace_root();
        let ranks = baseline::load(&root.join("lockranks.toml")).expect("lockranks.toml");
        assert!(!ranks.is_empty(), "rank table must not be empty");
        let sources = collect_analyze_sources(&root).expect("workspace sources");
        let analysis = lockgraph::analyze(&inputs(&sources), &ranks);
        assert!(
            analysis.findings.is_empty(),
            "workspace analysis findings:\n{}",
            report::human(&analysis)
        );
        // The canonical hierarchy must actually be discovered, not vacuous.
        for site in [
            "cad3_stream::Broker::topics",
            "cad3_stream::SharedTopic::partitions",
            "cad3::RsuNode::shards",
        ] {
            assert!(analysis.sites.contains(site), "missing site {site}: {:?}", analysis.sites);
        }
    }

    /// End-to-end: the checked-in SLO contract references only catalogued
    /// metrics, so no objective can silently evaluate to "no data" forever.
    #[test]
    fn real_slo_contract_is_anchored_to_the_catalogue() {
        let text = std::fs::read_to_string(workspace_root().join("slos.toml")).expect("slos.toml");
        let v = rules::check_slos("slos.toml", &text);
        assert!(v.is_empty(), "slos.toml lint findings: {v:?}");
    }

    #[test]
    fn package_name_reads_underscored() {
        let root = workspace_root();
        let name = package_name(&root.join("crates/stream/Cargo.toml")).unwrap();
        assert_eq!(name.as_deref(), Some("cad3_stream"));
    }

    /// End-to-end: a checked-in contract must hold on the real workspace —
    /// it declares entries, every entry resolves, nothing escapes its
    /// declared atoms, no exemption is stale, the baseline carries no slack.
    fn clean_outcome(pass: &Pass) -> Outcome {
        let outcome = check_contract(pass, &workspace_root()).expect("workspace check");
        assert!(
            outcome.findings.is_empty(),
            "{} findings:\n{}",
            pass.title,
            contract::human(pass, &outcome)
        );
        assert!(!outcome.entries.is_empty(), "{} must declare entries", pass.contract_file());
        outcome
    }

    #[test]
    fn real_workspace_hotpaths_is_clean() {
        let hot = clean_outcome(&hotpaths::PASS);
        // The headline claims must be discovered, not vacuous: transmit is
        // pure, detection is lock-free and panic-free, poll's locks are
        // exactly the declared ranks.
        let entry = |key: &str| {
            hot.entries.iter().find(|e| e.key == key).unwrap_or_else(|| panic!("missing {key}"))
        };
        assert!(entry("cad3_net::WiredLink::transmit").found.is_empty(), "transmit is pure");
        for key in ["cad3_ml::NaiveBayes::predict", "cad3_ml::DecisionTree::predict"] {
            let effects = &entry(key).found;
            assert!(!effects.contains_key("panic"), "{key} must be panic-free: {effects:?}");
            assert!(
                !effects.keys().any(|a| a.starts_with("lock:") || a == "block"),
                "{key} must be lock-free: {effects:?}"
            );
        }
        let poll = &entry("cad3_stream::Consumer::poll").found;
        assert!(poll.contains_key("lock:30"), "poll touches partitions: {poll:?}");
        assert!(!poll.contains_key("panic"), "poll is panic-free: {poll:?}");
    }

    #[test]
    fn real_workspace_determinism_is_clean() {
        let det = clean_outcome(&determinism::PASS);
        // The headline claims must be discovered, not vacuous: the detect
        // and fusion paths reach real call graphs, and no entry needs a
        // nondeterminism allowance — the debt is paid, not capped.
        let entry = |key: &str| {
            det.entries.iter().find(|e| e.key == key).unwrap_or_else(|| panic!("missing {key}"))
        };
        assert!(entry("cad3::RsuNode::run_batch").reachable > 10, "detect path is traversed");
        assert!(entry("cad3::SummaryTracker::observe").reachable > 1, "fusion path is traversed");
        for e in &det.entries {
            assert!(e.atoms.is_empty(), "{} should need no allowance: {:?}", e.key, e.atoms);
        }
    }
}
