//! The contract check behind the hot-path purity and determinism reports of
//! `cargo xtask analyze`: one harness, the checked property a plug-in
//! [`Pass`].
//!
//! A contract is a root-level `<table>.toml` holding one `[<table>]` table
//! of `"crate::Type::fn" = ["atom", ...]` entries (restricted TOML subset —
//! the workspace carries no TOML dependency). Each entry names a function
//! and the atoms its whole reachable call graph may use. The check rides the
//! lock graph's extraction and call graph ([`crate::lockgraph::CallGraph`]):
//! the pass's scanner reads every workspace function's token stream for atom
//! sites, an entry reaches every target of every call (trait-method calls
//! follow every implementor, function references are followed too), and an
//! entry whose reachable atom set exceeds its declaration is a finding —
//! with the call chain that witnesses the leak.
//!
//! A deliberate site is opted out with a `// <stem>-exempt: why` comment on
//! its line or up to three lines above (the window the lint's `ordering:`
//! justifications use). The targeted form `// <stem>-exempt(panic): why`
//! suppresses only the listed atoms, so a comment shielding one atom cannot
//! hide another on the same line; a class name covers its members (`lock`
//! covers every `lock:<rank>`). An exemption that covers no matching site is
//! itself a finding, so stale escapes rot loudly. The contract file is the
//! one allowlist and the exemption comment the one per-site escape: there
//! is no count ratchet beside them.
//!
//! `--emit-<table>` prints the observed atom sets as a fresh contract.
//! Reports come in the three formats of the lock-graph analysis.

use crate::lockgraph::{CallGraph, CallKey, Exempt, Extraction, Finding, FnFacts, SymbolTable};
use crate::report;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Everything that differs between two contract analyses.
pub struct Pass {
    /// Heading of the human report.
    pub title: &'static str,
    /// Contract file stem, table name and flag stem: `<table>.toml`,
    /// `[<table>]`, `--emit-<table>`.
    pub table: &'static str,
    /// Exemption stem: `// <stem>-exempt:`.
    pub stem: &'static str,
    /// Check ids with their SARIF descriptions, in this order: violation,
    /// stale entry, unknown atom, stale exemption.
    pub checks: [(&'static str, &'static str); 4],
    /// The atom vocabulary; `class:<rank>` admits every `class:<digits>`.
    pub atoms: &'static [&'static str],
    /// Comment header of the regenerated contract.
    pub header: &'static str,
    /// Finds the atom sites of one function body.
    pub scan: fn(&FnFacts, &Scan<'_>) -> Vec<Site>,
    /// Message nouns.
    pub nouns: Nouns,
}

/// The words a pass's messages and reports are built from.
pub struct Nouns {
    /// What a site is an instance of (`effect`).
    pub site: &'static str,
    /// The same with its article and kind (`an effect atom`).
    pub atom: &'static str,
    /// Where a stale exemption should move to.
    pub exempt_target: &'static str,
    /// The declared atom list in prose (`capabilities`).
    pub declared: &'static str,
    /// Report label and JSON key of the declared atom list (`caps`).
    pub declared_key: &'static str,
    /// Report label and JSON key of the observed atom counts (`effects`).
    pub found_key: &'static str,
    /// What an entry with no observed atom is.
    pub clean: &'static str,
    /// What a missing contract file should declare.
    pub entries: &'static str,
}

/// One declared entry: function key, declared atoms, declaration line.
#[derive(Debug, Clone)]
pub struct Entry {
    pub key: String,
    pub atoms: Vec<String>,
    pub line: usize,
}

/// One atom site inside a function body (the file is the function's).
#[derive(Debug, Clone)]
pub struct Site {
    pub atom: String,
    pub line: usize,
    pub what: String,
}

/// What a scanner may consult beside the function itself.
pub struct Scan<'a> {
    symbols: &'a SymbolTable,
    pub ex: &'a Extraction,
    /// `lockranks.toml`: lock site → rank.
    pub ranks: &'a BTreeMap<String, u64>,
}

impl Scan<'_> {
    /// Does a call from `f` resolve to workspace code? Such calls are not
    /// intrinsic sites — their atoms arrive through the call graph.
    pub fn resolves(&self, f: &FnFacts, key: &CallKey) -> bool {
        !self.symbols.resolve_all(key, &f.crate_name, false).is_empty()
    }
}

/// Per-entry outcome for the report renderers.
#[derive(Debug)]
pub struct EntryReport {
    pub key: String,
    pub atoms: Vec<String>,
    /// Functions reachable from the entry (including itself).
    pub reachable: usize,
    /// Non-exempt sites reachable from the entry, per atom.
    pub found: BTreeMap<String, usize>,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub entries: Vec<EntryReport>,
    pub findings: Vec<Finding>,
    /// Functions scanned (the whole workspace, not just reachable ones).
    pub fns: usize,
}

impl Pass {
    /// Is `atom` in this pass's vocabulary?
    fn knows(&self, atom: &str) -> bool {
        self.atoms.iter().any(|a| match a.strip_suffix("<rank>") {
            Some(class) => atom
                .strip_prefix(class)
                .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit())),
            None => *a == atom,
        })
    }

    /// Repo-relative path of the contract file.
    pub fn contract_file(&self) -> String {
        format!("{}.toml", self.table)
    }
}

/// Parses a contract file's text.
pub fn parse(pass: &Pass, text: &str, origin: &str) -> io::Result<Vec<Entry>> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let parse_err = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{origin}:{}: malformed {} line: {raw}", idx + 1, pass.table),
            )
        };
        let (key, value) = line.split_once('=').ok_or_else(parse_err)?;
        let value = value.trim();
        let inner =
            value.strip_prefix('[').and_then(|v| v.strip_suffix(']')).ok_or_else(parse_err)?.trim();
        let atoms: Vec<String> = if inner.is_empty() {
            Vec::new()
        } else {
            inner.split(',').map(|c| c.trim().trim_matches('"').to_owned()).collect()
        };
        if atoms.iter().any(String::is_empty) {
            return Err(parse_err());
        }
        out.push(Entry { key: key.trim().trim_matches('"').to_owned(), atoms, line: idx + 1 });
    }
    Ok(out)
}

/// Loads the contract from the workspace root. A missing contract is an
/// error: a check without entries proves nothing.
pub fn load(pass: &Pass, root: &Path) -> io::Result<Vec<Entry>> {
    let path = root.join(pass.contract_file());
    let text = std::fs::read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: {e} (declare {} first)", path.display(), pass.nouns.entries),
        )
    })?;
    parse(pass, &text, &path.display().to_string())
}

/// Does an exemption's atom filter cover `atom`? No filter covers every
/// atom; a class name covers its members (`lock` covers `lock:30`).
fn covers(filter: &[String], atom: &str) -> bool {
    filter.is_empty()
        || filter
            .iter()
            .any(|a| a == atom || atom.strip_prefix(a.as_str()).is_some_and(|r| r.starts_with(':')))
}

/// Runs the check: scan, reach, compare against the contract.
pub fn analyze(
    pass: &Pass,
    ex: &Extraction,
    graph: &CallGraph<'_>,
    config: &[Entry],
    ranks: &BTreeMap<String, u64>,
) -> Outcome {
    let cx = Scan { symbols: &graph.symbols, ex, ranks };
    let mut out = Outcome { fns: ex.facts.len(), ..Outcome::default() };
    let [violation, stale_entry, unknown_atom, stale_exempt] = pass.checks.map(|(id, _)| id);
    let Pass { stem, nouns, .. } = pass;

    // Per-function sites, exemptions applied: an exemption covers a site on
    // its own line or up to 3 lines below (the comment sits above the
    // expression) when its atom filter covers the site's atom.
    let exempts: Vec<&Exempt> = ex.exempts.iter().filter(|e| e.stem == *stem).collect();
    let mut used: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut sites: Vec<Vec<Site>> = Vec::with_capacity(ex.facts.len());
    for f in &ex.facts {
        let here: Vec<&Exempt> = exempts.iter().copied().filter(|e| e.file == f.file).collect();
        let mut found = (pass.scan)(f, &cx);
        found.retain(|s| {
            let mut keep = true;
            for e in &here {
                if e.line <= s.line && s.line <= e.line + 3 && covers(&e.atoms, &s.atom) {
                    used.insert((e.file.as_str(), e.line));
                    keep = false;
                }
            }
            keep
        });
        sites.push(found);
    }

    // Contract validation.
    let by_key: HashMap<&str, usize> =
        ex.facts.iter().enumerate().map(|(i, f)| (f.key.as_str(), i)).collect();
    for e in config {
        for atom in e.atoms.iter().filter(|a| !pass.knows(a)) {
            out.findings.push(Finding {
                check: unknown_atom,
                file: pass.contract_file(),
                line: e.line,
                message: format!(
                    "entry {}: {atom:?} is not {} ({})",
                    e.key,
                    nouns.atom,
                    pass.atoms.join(", ")
                ),
            });
        }
        if !by_key.contains_key(e.key.as_str()) {
            out.findings.push(Finding {
                check: stale_entry,
                file: pass.contract_file(),
                line: e.line,
                message: format!(
                    "entry {} does not resolve to any workspace function — \
                     remove it or fix the key",
                    e.key
                ),
            });
        }
    }

    // Per-entry reachability over every target of every call.
    for e in config {
        let Some(&entry_idx) = by_key.get(e.key.as_str()) else {
            continue;
        };
        let reach = graph.reach(entry_idx, |_, _| true);

        // Union the reachable sites per atom, as (function, site) in file
        // and line order.
        let mut by_atom: BTreeMap<&str, Vec<(usize, &Site)>> = BTreeMap::new();
        for &idx in &reach.visited {
            for site in &sites[idx] {
                by_atom.entry(site.atom.as_str()).or_default().push((idx, site));
            }
        }
        for found in by_atom.values_mut() {
            found.sort_by_key(|&(idx, s)| (ex.facts[idx].file.as_str(), s.line));
        }

        for (atom, found) in &by_atom {
            if e.atoms.iter().any(|a| a == atom) {
                continue;
            }
            let (idx, first) = found[0];
            let file = &ex.facts[idx].file;
            out.findings.push(Finding {
                check: violation,
                file: file.clone(),
                line: first.line,
                message: format!(
                    "{}: {} `{atom}` outside {} [{}]: {} site(s), e.g. {} at {file}:{} via {}",
                    e.key,
                    nouns.site,
                    nouns.declared,
                    e.atoms.join(", "),
                    found.len(),
                    first.what,
                    first.line,
                    reach.chain(&ex.facts, idx),
                ),
            });
        }

        out.entries.push(EntryReport {
            key: e.key.clone(),
            atoms: e.atoms.clone(),
            reachable: reach.visited.len(),
            found: by_atom.iter().map(|(a, s)| ((*a).to_owned(), s.len())).collect(),
        });
    }

    // Stale exemptions. The scan covers every workspace function, so an
    // exemption that suppressed no site anywhere (reachable or not) is dead
    // weight.
    for e in &exempts {
        if !used.contains(&(e.file.as_str(), e.line)) {
            out.findings.push(Finding {
                check: stale_exempt,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "{stem}-exempt comment covers no matching {} site within 3 lines — \
                     remove it or move it to the {}",
                    nouns.site, nouns.exempt_target
                ),
            });
        }
    }

    out.findings.sort_by(|a, b| (a.check, &a.file, a.line).cmp(&(b.check, &b.file, b.line)));
    out
}

/// Renders a regenerated contract from the observed atom sets (redirect
/// into the contract file to accept the current reality).
pub fn emit(pass: &Pass, outcome: &Outcome) -> String {
    let mut out = format!("{}\n[{}]\n", pass.header, pass.table);
    for e in &outcome.entries {
        let atoms: Vec<String> = e.found.keys().map(|a| format!("\"{a}\"")).collect();
        let _ = writeln!(out, "\"{}\" = [{}]", e.key, atoms.join(", "));
    }
    out
}

/// Renders the human-readable report.
pub fn human(pass: &Pass, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} entr{} over {} functions",
        pass.title,
        outcome.entries.len(),
        if outcome.entries.len() == 1 { "y" } else { "ies" },
        outcome.fns
    );
    for e in &outcome.entries {
        let _ = writeln!(
            out,
            "  entry {} [{}: {}]",
            e.key,
            pass.nouns.declared_key,
            e.atoms.join(", ")
        );
        let found: Vec<String> = e.found.iter().map(|(atom, n)| format!("{atom}×{n}")).collect();
        let _ = writeln!(
            out,
            "    reaches {} fn(s); {}: {}",
            e.reachable,
            pass.nouns.found_key,
            if found.is_empty() {
                format!("none ({})", pass.nouns.clean)
            } else {
                found.join(", ")
            }
        );
    }
    report::findings_human(&mut out, &outcome.findings);
    out
}

/// Renders the machine-readable JSON report.
pub fn json(pass: &Pass, outcome: &Outcome) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"functions\": {},", outcome.fns);
    out.push_str("  \"entries\": [");
    for (i, e) in outcome.entries.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let atoms: Vec<String> =
            e.atoms.iter().map(|c| format!("\"{}\"", report::esc(c))).collect();
        let found: Vec<String> =
            e.found.iter().map(|(a, n)| format!("\"{}\": {n}", report::esc(a))).collect();
        let _ = write!(
            out,
            "{sep}    {{\"entry\": \"{}\", \"{}\": [{}], \"reachable\": {}, \"{}\": {{{}}}}}",
            report::esc(&e.key),
            pass.nouns.declared_key,
            atoms.join(", "),
            e.reachable,
            pass.nouns.found_key,
            found.join(", ")
        );
    }
    out.push_str(if outcome.entries.is_empty() { "],\n" } else { "\n  ],\n" });
    report::findings_json(&mut out, &outcome.findings);
    out.push_str("}\n");
    out
}

/// Renders the pass's run of a SARIF log.
pub fn sarif_run(pass: &Pass, outcome: &Outcome) -> String {
    report::sarif_run(&format!("cad3-xtask-{}", pass.table), &pass.checks, &outcome.findings)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lockgraph::{extract, SourceInput};
    use crate::{baseline, determinism, hotpaths};

    type Src<'a> = (&'a str, &'a str, &'a str);

    /// Extracts in-memory sources and runs `pass` over them.
    fn run(pass: &Pass, srcs: &[Src<'_>], config: &[Entry], ranks: &[(&str, u64)]) -> Outcome {
        let inputs: Vec<SourceInput<'_>> =
            srcs.iter().map(|(c, p, t)| SourceInput { crate_name: c, path: p, text: t }).collect();
        let ex = extract(&inputs);
        analyze(pass, &ex, &CallGraph::new(&ex.facts), config, &counts(ranks))
    }

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, n)| ((*k).to_owned(), *n)).collect()
    }

    /// Runs `pass` over in-memory sources; entry *i* is declared on line
    /// *i + 1*.
    pub(crate) fn check(
        pass: &Pass,
        srcs: &[Src<'_>],
        config: &[(&str, &[&str])],
        ranks: &[(&str, u64)],
    ) -> Outcome {
        let config: Vec<Entry> = config
            .iter()
            .enumerate()
            .map(|(i, (k, atoms))| Entry {
                key: (*k).to_owned(),
                atoms: atoms.iter().map(|a| (*a).to_owned()).collect(),
                line: i + 1,
            })
            .collect();
        run(pass, srcs, &config, ranks)
    }

    fn sarif(pass: &Pass, outcome: &Outcome) -> String {
        report::sarif_log(&[sarif_run(pass, outcome)])
    }

    pub(crate) fn findings<'a>(o: &'a Outcome, check: &str) -> Vec<&'a Finding> {
        o.findings.iter().filter(|f| f.check == check).collect()
    }

    /// What the machinery tests know about one pass: its canonical seeded
    /// violation and a contract that raises all four finding kinds.
    struct Fixture {
        pass: &'static Pass,
        /// Two crates: `entry` reaches an `atom` site in another crate.
        pipeline: Vec<Src<'static>>,
        entry: &'static str,
        atom: &'static str,
        /// The function holding the site, and its file.
        leaf: (&'static str, &'static str),
        /// A declaration exercising the quoting (`lock:30` holds a colon).
        declared: [&'static str; 2],
        golden: Golden,
    }

    /// The all-four-findings input and its four renderings
    /// (`tests/golden/`).
    struct Golden {
        srcs: [Src<'static>; 2],
        contract: &'static str,
        ranks: &'static [(&'static str, u64)],
        human: &'static str,
        json: &'static str,
        sarif: &'static str,
        emit: &'static str,
    }

    impl Golden {
        fn outcome(&self, pass: &Pass) -> Outcome {
            let config = parse(pass, self.contract, &pass.contract_file()).unwrap();
            run(pass, &self.srcs, &config, self.ranks)
        }
    }

    fn fixtures() -> [Fixture; 2] {
        [
            Fixture {
                pass: &hotpaths::PASS,
                pipeline: hotpaths::tests::pipeline(),
                entry: "stream::Consumer::poll",
                atom: "alloc",
                leaf: ("util::render_label", "crates/util/src/lib.rs"),
                declared: ["alloc", "lock:30"],
                golden: Golden {
                    srcs: HOT_SRCS,
                    contract: HOT_CONTRACT,
                    ranks: &[("stream::Consumer::parts", 30)],
                    human: include_str!("../tests/golden/hotpaths.human.txt"),
                    json: include_str!("../tests/golden/hotpaths.json"),
                    sarif: include_str!("../tests/golden/hotpaths.sarif"),
                    emit: include_str!("../tests/golden/hotpaths.emit.toml"),
                },
            },
            Fixture {
                pass: &determinism::PASS,
                pipeline: determinism::tests::pipeline(),
                entry: "sim::Simulation::step",
                atom: "map-iter",
                leaf: ("core::Registry::states", "crates/core/src/lib.rs"),
                declared: ["map-iter", "wallclock"],
                golden: Golden {
                    srcs: DET_SRCS,
                    contract: DET_CONTRACT,
                    ranks: &[],
                    human: include_str!("../tests/golden/determinism.human.txt"),
                    json: include_str!("../tests/golden/determinism.json"),
                    sarif: include_str!("../tests/golden/determinism.sarif"),
                    emit: include_str!("../tests/golden/determinism.emit.toml"),
                },
            },
        ]
    }

    const HOT_SRCS: [Src<'static>; 2] = [
        (
            "stream",
            "crates/stream/src/lib.rs",
            "
            pub struct Consumer { inner: u32, parts: Mutex<u32> }
            impl Consumer {
                pub fn poll(&self) -> String {
                    let _g = self.parts.lock();
                    render_label(self.inner)
                }
            }
            ",
        ),
        (
            "util",
            "crates/util/src/lib.rs",
            "
            pub fn render_label(v: u32) -> String {
                format!(\"v={v}\")
            }
            pub fn first(xs: &[u32]) -> u32 {
                // hotpath-exempt(panic): non-empty by the caller's contract
                xs[0]
            }
            pub fn cold() -> u32 {
                // hotpath-exempt: nothing here anymore
                1
            }
            ",
        ),
    ];
    const HOT_CONTRACT: &str = "\
# seeded contract: one leak, one dead key, one unknown atom
[hotpaths]
\"stream::Consumer::poll\" = [\"lock:30\"]
\"util::gone\" = [\"alloc\"]
\"util::first\" = [\"fly\"]
";

    const DET_SRCS: [Src<'static>; 2] = [
        (
            "sim",
            "crates/sim/src/lib.rs",
            "
            pub struct Simulation { t: u64 }
            impl Simulation {
                pub fn step(&mut self, reg: &Registry) -> u64 {
                    let t0 = Instant::now();
                    sum_states(reg)
                }
            }
            ",
        ),
        (
            "core",
            "crates/core/src/lib.rs",
            "
            pub struct Registry { vehicles: HashMap<u64, u64> }
            pub fn sum_states(reg: &Registry) -> u64 {
                reg.states()
            }
            impl Registry {
                pub fn states(&self) -> u64 {
                    let mut total = 0;
                    for (_, v) in self.vehicles.iter() {
                        total += v;
                    }
                    total
                }
                pub fn total(&self) -> u64 {
                    // determinism-exempt(map-iter): pure sum, a commutative fold
                    self.vehicles.values().sum()
                }
                pub fn cold(&self) -> u64 {
                    // determinism-exempt: nothing here anymore
                    1
                }
            }
            ",
        ),
    ];
    const DET_CONTRACT: &str = "\
# seeded contract: one leak, one dead key, one unknown atom
[determinism]
\"sim::Simulation::step\" = [\"wallclock\"]
\"core::gone\" = [\"map-iter\"]
\"core::Registry::total\" = [\"chaos\"]
";

    #[test]
    fn violation_chain_lands_in_sarif() {
        for fx in fixtures() {
            let o = check(fx.pass, &fx.pipeline, &[(fx.entry, &[])], &[]);
            let text = sarif(fx.pass, &o);
            assert!(text.contains(&format!("\"{}\"", fx.pass.checks[0].0)), "{text}");
            assert!(text.contains(fx.leaf.0), "{text}");
            assert!(text.contains(fx.leaf.1), "{text}");
        }
    }

    #[test]
    fn stale_exempt_is_a_finding() {
        for fx in fixtures() {
            let text = format!(
                "
                pub fn cold() -> u32 {{
                    // {}-exempt: nothing here anymore
                    1
                }}
                ",
                fx.pass.stem
            );
            let o = check(fx.pass, &[("fx", "fx/src/lib.rs", &text)], &[], &[]);
            let v = findings(&o, "stale-exempt");
            assert_eq!(v.len(), 1, "{:?}", o.findings);
            assert_eq!(v[0].file, "fx/src/lib.rs");
        }
    }

    #[test]
    fn class_name_exempts_every_member() {
        let filter = ["lock".to_owned()];
        assert!(covers(&filter, "lock:30") && covers(&filter, "lock"));
        assert!(!covers(&filter, "lockstep") && !covers(&filter, "panic"));
        assert!(covers(&[], "panic"), "no filter covers every atom");
    }

    #[test]
    fn stale_entry_and_unknown_atom_are_findings() {
        for fx in fixtures() {
            let srcs = [("fx", "fx/src/lib.rs", "pub fn f() {}")];
            let config: [(&str, &[&str]); 2] = [("fx::gone", &[fx.atom]), ("fx::f", &["chaos"])];
            let o = check(fx.pass, &srcs, &config, &[]);
            assert_eq!(findings(&o, "stale-entry").len(), 1, "{:?}", o.findings);
            assert_eq!(findings(&o, fx.pass.checks[2].0).len(), 1, "{:?}", o.findings);
        }
    }

    #[test]
    fn parse_reads_quoted_keys_and_atoms() {
        for fx in fixtures() {
            let [a, b] = fx.declared;
            let text = format!(
                "
                # contract
                [{}]
                \"a::B::c\" = [\"{a}\", \"{b}\"]
                \"a::free\" = []
                ",
                fx.pass.table
            );
            let entries = parse(fx.pass, &text, "contract.toml").unwrap();
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].key, "a::B::c");
            assert_eq!(entries[0].atoms, vec![a.to_owned(), b.to_owned()]);
            assert_eq!(entries[0].line, 4);
            assert!(entries[1].atoms.is_empty());
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for fx in fixtures() {
            assert!(parse(fx.pass, "\"a::b\" = oops", "t").is_err());
            let err = parse(fx.pass, "just words", "t").unwrap_err().to_string();
            assert_eq!(err, format!("t:1: malformed {} line: just words", fx.pass.table));
        }
    }

    #[test]
    fn emit_renders_observed_contract() {
        for fx in fixtures() {
            let o = check(fx.pass, &fx.pipeline, &[(fx.entry, &[])], &[]);
            let emitted = emit(fx.pass, &o);
            let row = format!("\"{}\" = [\"{}\"]", fx.entry, fx.atom);
            assert!(emitted.contains(&row), "{emitted}");
        }
    }

    /// Every rendering of the all-four-findings fixture, byte for byte.
    #[test]
    fn golden_fixture_renders_byte_identically() {
        for fx in fixtures() {
            let o = fx.golden.outcome(fx.pass);
            let kinds: BTreeSet<&str> = o.findings.iter().map(|f| f.check).collect();
            assert_eq!(kinds, fx.pass.checks.iter().map(|(id, _)| *id).collect(), "all four kinds");
            assert_eq!(human(fx.pass, &o), fx.golden.human);
            assert_eq!(json(fx.pass, &o), fx.golden.json);
            assert_eq!(sarif(fx.pass, &o), fx.golden.sarif);
            assert_eq!(emit(fx.pass, &o), fx.golden.emit);
        }
    }

    /// `--emit-<table> > <table>.toml` is how a new contract is accepted: the
    /// emitted text must read back as what was observed.
    #[test]
    fn emitted_contract_parses_back() {
        for fx in fixtures() {
            let seeded = check(fx.pass, &fx.pipeline, &[(fx.entry, &[])], &[]);
            for o in [seeded, fx.golden.outcome(fx.pass)] {
                let back = parse(fx.pass, &emit(fx.pass, &o), "emitted").unwrap();
                let read: Vec<(&str, Vec<&str>)> = back
                    .iter()
                    .map(|e| (e.key.as_str(), e.atoms.iter().map(String::as_str).collect()))
                    .collect();
                let observed: Vec<(&str, Vec<&str>)> = o
                    .entries
                    .iter()
                    .map(|e| (e.key.as_str(), e.found.keys().map(String::as_str).collect()))
                    .collect();
                assert_eq!(read, observed);
            }
        }
    }

    /// Arbitrary input through the table readers — the contract parser,
    /// the lint baseline's and `cad3_lockrank::parse` (`lockranks.toml`) —
    /// returns `Ok` or `Err`, never a panic: 4 096 generated lines, half
    /// arbitrary bytes, half valid rows with one character dropped or a
    /// trailing comma added.
    #[test]
    fn readers_never_panic_on_generated_lines() {
        let mut state = 0xCAD3_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let valid = [
            "\"cad3::RsuNode::run_batch\" = [\"alloc\", \"lock:30\"]",
            "\"a::free\" = []",
            "\"no-panic:crates/core/src/lib.rs\" = 27",
            "[violations]",
            "\"cad3::RsuNode::shards\" = 50",
            "[ranks]",
            "# a comment",
        ];
        let (mut accepted, mut rejected) = (0usize, 0usize);
        let mut text = String::new();
        for case in 0..4096 {
            let line = if case % 2 == 0 {
                let bytes: Vec<u8> = (0..next() % 48).map(|_| next() as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                let mut line = valid[(next() % valid.len() as u64) as usize].to_owned();
                let victim = ['"', '[', ']', '=', ','][(next() % 5) as usize];
                let hits: Vec<usize> = line.match_indices(victim).map(|(i, _)| i).collect();
                match hits.get((next() % (hits.len() as u64 + 1)) as usize) {
                    Some(&at) => drop(line.remove(at)),
                    None => line.push(','),
                }
                line
            };
            for fx in fixtures() {
                match parse(fx.pass, &line, "fuzz") {
                    Ok(entries) => {
                        accepted += 1;
                        assert!(entries.iter().all(|e| e.atoms.iter().all(|a| !a.is_empty())));
                    }
                    Err(e) => {
                        rejected += 1;
                        assert!(e.to_string().starts_with("fuzz:"), "{e}");
                    }
                }
            }
            match baseline::parse(&line, "fuzz") {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
            // `lockranks.toml` is also read whole: every 8 lines go through
            // as one text, so duplicate sites and later-line errors occur.
            text.push_str(&line);
            text.push('\n');
            let lockrank_inputs =
                if case % 8 == 7 { vec![line, text.split_off(0)] } else { vec![line] };
            for input in &lockrank_inputs {
                match cad3_lockrank::parse(input) {
                    Ok(ranks) => {
                        accepted += 1;
                        assert!(ranks.keys().all(|site| !site.is_empty()));
                    }
                    Err(e) => {
                        rejected += 1;
                        let at = e.split_once(": ").map(|(n, _)| n.parse::<usize>());
                        assert!(matches!(at, Some(Ok(n)) if n >= 1), "{e}");
                    }
                }
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
    }
}
