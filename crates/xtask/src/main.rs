//! `cargo xtask` — workspace automation for the CAD3 reproduction.
//!
//! Two subcommands:
//!
//! ```sh
//! cargo xtask lint                    # check against crates/xtask/baseline.toml
//! cargo xtask lint --update-baseline  # regenerate the ratchet
//! cargo xtask analyze                 # lock graph, hot-path purity, determinism
//! cargo xtask analyze --format sarif  # machine-readable (also: json)
//! cargo xtask analyze --emit-lockranks  # print a regenerated lockranks.toml
//! cargo xtask analyze --emit-hotpaths   # ... hotpaths.toml
//! cargo xtask analyze --emit-determinism  # ... determinism.toml
//! ```
//!
//! Both are from-scratch passes (no rustc/syn involvement). `lint` is
//! token-level, applying the per-line rules in `rules.rs`; `analyze` parses
//! every workspace crate but this one (`lexer` → `tokens` → `parser`),
//! extracts one set of per-function facts (`lockgraph::extract`) and
//! resolves every call once into one call graph (`lockgraph::CallGraph`).
//! Three checks read that one result, in this order: the lock graph checks
//! the acquisition graph for cycles and violations of the hierarchy in
//! `lockranks.toml` (read through `cad3_lockrank::parse`, the runtime
//! witness's own reader); the two contracts are one check (`contract`) over
//! two scanners (`hotpaths`, `determinism`). The contract file is the one
//! allowlist and a `// <stem>-exempt:` comment the one per-site escape.
//! `slos.toml` is not read here: `cad3_obs::SloContract` is its one reader,
//! and `cad3-obs`'s unit tests check the checked-in file.
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
use lockgraph::{Analysis, CallGraph, SourceInput};
use rules::FileKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <command>

commands:
  lint [--update-baseline]
      token-level rules checked against crates/xtask/baseline.toml
  analyze [--format human|json|sarif] [--emit-lockranks|--emit-hotpaths|--emit-determinism]
      whole-workspace static analysis, three reports over one extraction:
      lock-graph deadlock and lock-rank analysis (lockranks.toml); hot-path
      purity, proving the entries in hotpaths.toml stay within their declared
      effect capabilities (alloc, panic, block, wallclock, lock:<rank>); and
      the determinism contract, proving the entries in determinism.toml reach
      no nondeterminism source (map-iter, hash-state, wallclock, thread,
      unseeded-rng, ptr-order) outside their declared allowance. An --emit-*
      flag prints that table regenerated instead of the reports";

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
            let tables = ["lockranks", hotpaths::PASS.table, determinism::PASS.table];
            let mut format = "human";
            let mut emit: Option<&str> = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--format" => match rest.next().map(String::as_str) {
                        Some(f @ ("human" | "json" | "sarif")) => format = f,
                        _ => return usage(),
                    },
                    flag => match flag.strip_prefix("--emit-") {
                        // One table per command line.
                        Some(t) if tables.contains(&t) && emit.is_none_or(|e| e == t) => {
                            emit = Some(t);
                        }
                        _ => return usage(),
                    },
                }
            }
            exit_of(analyze(format, emit), "analyze")
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

/// One workspace source file.
struct Source {
    path: PathBuf,
    /// Repo-relative, `/`-separated.
    rel: String,
    kind: FileKind,
    /// The owning package's name, underscored (`cad3_stream`).
    crate_name: Option<String>,
}

/// Every workspace source file, package by package: the root package, then
/// `crates/*` in name order.
///
/// Scope: each package's `src/`, `tests/`, `benches/` and `examples/` trees.
/// `src/` files get the full lint rule set and are the analyzer's input;
/// the others are [`FileKind::TestLike`], where panicking and clock access
/// are idiomatic. `vendor/` stubs mimic third-party API and are exempt;
/// in-file `#[cfg(test)]` regions are excluded by the lexer instead.
fn collect_sources(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut package_roots = vec![root.to_path_buf()];
    let mut entries: Vec<_> =
        std::fs::read_dir(root.join("crates"))?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        if entry.path().is_dir() {
            package_roots.push(entry.path());
        }
    }
    let mut out = Vec::new();
    for package in &package_roots {
        let crate_name = package_name(&package.join("Cargo.toml"))?;
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
                out.push(Source { path, rel, kind, crate_name: crate_name.clone() });
            }
        }
    }
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
    for src in &sources {
        let file = lexer::lex(&std::fs::read_to_string(&src.path)?);
        violations.extend(rules::check_file(&src.rel, &file, src.kind));
        if src.kind == FileKind::Library {
            library.push((src.rel.as_str(), file));
        }
    }
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

/// Loads the analyzer's input: every package's `src/` tree but this
/// crate's, which no product code calls, as (crate name, repo-relative
/// path, text) triples.
fn analyzer_sources(root: &Path) -> std::io::Result<Vec<(String, String, String)>> {
    let mut out = Vec::new();
    for src in collect_sources(root)? {
        match src.crate_name {
            Some(name) if src.kind == FileKind::Library && name != "xtask" => {
                let text = std::fs::read_to_string(&src.path)?;
                out.push((name, src.rel, text));
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Reads `lockranks.toml` through the runtime witness's parser: lock site →
/// rank.
fn load_ranks(root: &Path) -> std::io::Result<BTreeMap<String, u64>> {
    let text = std::fs::read_to_string(root.join("lockranks.toml"))?;
    parse_ranks(&text)
}

/// [`load_ranks`] over the file's text.
fn parse_ranks(text: &str) -> std::io::Result<BTreeMap<String, u64>> {
    let ranks = cad3_lockrank::parse(text).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("lockranks.toml:{e}"))
    })?;
    Ok(ranks.into_iter().map(|(site, rank)| (site.to_owned(), u64::from(rank))).collect())
}

/// The three checks of one `analyze` run over one extraction.
struct Checks {
    /// `lockranks.toml`: lock site → rank.
    ranks: BTreeMap<String, u64>,
    lock: Analysis,
    /// Each contract pass with its outcome, hot paths first.
    contracts: Vec<(&'static Pass, Outcome)>,
}

/// Extracts the workspace once and runs the lock graph, then both
/// contracts, over that one extraction and call graph.
fn check(root: &Path) -> std::io::Result<Checks> {
    let ranks = load_ranks(root)?;
    let sources = analyzer_sources(root)?;
    let inputs: Vec<SourceInput<'_>> =
        sources.iter().map(|(c, p, t)| SourceInput { crate_name: c, path: p, text: t }).collect();
    let ex = lockgraph::extract(&inputs);
    let graph = CallGraph::new(&ex.facts);
    let lock = lockgraph::analyze(&ex, &graph, &ranks);
    let mut contracts = Vec::new();
    for pass in [&hotpaths::PASS, &determinism::PASS] {
        let config = contract::load(pass, root)?;
        contracts.push((pass, contract::analyze(pass, &ex, &graph, &config, &ranks)));
    }
    Ok(Checks { ranks, lock, contracts })
}

/// Runs every analysis; returns `Ok(true)` when none has findings. With
/// `emit`, prints that table regenerated instead (redirect into its file to
/// accept it) and always succeeds.
fn analyze(format: &str, emit: Option<&str>) -> std::io::Result<bool> {
    let c = check(&workspace_root())?;
    if let Some(table) = emit {
        if table == "lockranks" {
            print!("{}", lockgraph::emit_lockranks(&c.lock, &c.ranks));
        }
        for (pass, outcome) in c.contracts.iter().filter(|(p, _)| p.table == table) {
            print!("{}", contract::emit(pass, outcome));
        }
        return Ok(true);
    }
    match format {
        "json" => {
            let mut members = vec![("lockranks", report::json(&c.lock))];
            members.extend(c.contracts.iter().map(|(p, o)| (p.table, contract::json(p, o))));
            print!("{}", report::json_object(&members));
        }
        "sarif" => {
            let mut runs = vec![report::lock_sarif_run(&c.lock)];
            runs.extend(c.contracts.iter().map(|(p, o)| contract::sarif_run(p, o)));
            print!("{}", report::sarif_log(&runs));
        }
        _ => {
            print!("{}", report::human(&c.lock));
            for (pass, outcome) in &c.contracts {
                print!("{}", contract::human(pass, outcome));
            }
        }
    }
    Ok(c.lock.findings.is_empty() && c.contracts.iter().all(|(_, o)| o.findings.is_empty()))
}

#[cfg(test)]
mod main_tests {
    use super::*;
    use std::sync::OnceLock;

    /// The real workspace's one `analyze` run, shared by the tests below.
    fn workspace() -> &'static Checks {
        static CHECKS: OnceLock<Checks> = OnceLock::new();
        CHECKS.get_or_init(|| check(&workspace_root()).expect("workspace check"))
    }

    /// End-to-end: the analyzer must run clean on the real workspace —
    /// every lock site ranked, no cycles, every acquisition witnessed.
    #[test]
    fn real_workspace_analysis_is_clean() {
        let Checks { ranks, lock: analysis, .. } = workspace();
        assert!(!ranks.is_empty(), "rank table must not be empty");
        assert!(
            analysis.findings.is_empty(),
            "workspace analysis findings:\n{}",
            report::human(analysis)
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

    /// A site declared twice fails the analyzer before any analysis runs,
    /// as it fails the runtime witness (`cad3_lockrank`'s
    /// `duplicated_site_line_panics`): both read the file through one parser.
    #[test]
    fn duplicated_rank_site_is_rejected() {
        let text = "[ranks]\n\"a::B::c\" = 10\n\"a::B::d\" = 20\n\"a::B::c\" = 30\n";
        let err = parse_ranks(text).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "lockranks.toml:4: duplicate site a::B::c");
        let ranks = parse_ranks("\"a::B::c\" = 10\n").unwrap();
        assert_eq!(ranks.get("a::B::c"), Some(&10));
    }

    #[test]
    fn package_name_reads_underscored() {
        let root = workspace_root();
        let name = package_name(&root.join("crates/stream/Cargo.toml")).unwrap();
        assert_eq!(name.as_deref(), Some("cad3_stream"));
    }

    /// End-to-end: a checked-in contract must hold on the real workspace —
    /// it declares entries, every entry resolves, nothing escapes its
    /// declared atoms, no exemption is stale.
    fn clean_outcome(pass: &Pass) -> &'static Outcome {
        let (_, outcome) = workspace()
            .contracts
            .iter()
            .find(|(p, _)| p.table == pass.table)
            .expect("every contract runs");
        assert!(
            outcome.findings.is_empty(),
            "{} findings:\n{}",
            pass.title,
            contract::human(pass, outcome)
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
        for key in [
            "cad3_ml::NaiveBayes::predict_proba_row",
            "cad3_ml::DecisionTree::predict_proba_row",
            "cad3_ml::LogisticRegression::predict_proba_row",
        ] {
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
