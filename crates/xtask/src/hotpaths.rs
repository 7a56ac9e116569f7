//! Hot-path purity analysis (`cargo xtask analyze --hotpaths`).
//!
//! The root `hotpaths.toml` declares the latency-critical entry functions
//! (produce, poll, detect, transmit) and, per entry, the *capability set*
//! the path is allowed to use. This pass rides the lock-graph extraction
//! ([`crate::lockgraph::extract`]): it scans every workspace function's
//! token stream for effect sites, propagates them transitively over the
//! cross-crate call graph (may-resolution: trait-method calls follow every
//! implementor, function references are followed too), and reports any
//! entry whose reachable effect set exceeds its declared capabilities —
//! with the call chain that witnesses the leak.
//!
//! Effect atoms form a flat lattice:
//!
//! * `alloc` — heap growth (`format!`/`vec!`, `Box::new`, `collect`,
//!   `push`, `.clone()`, `with_capacity`, ...)
//! * `panic` — unwind sites (`panic!`-family macros, `unwrap`/`expect`,
//!   slice indexing)
//! * `lock:<rank>` — acquisition of the lock site holding that rank in
//!   `lockranks.toml` (bounded blocking the rank hierarchy already orders)
//! * `block` — unbounded blocking (unranked locks, `thread::sleep`,
//!   channel `recv`, condvar/barrier `wait`, file I/O)
//! * `wallclock` — `Instant::now`/`SystemTime::now` reads
//!
//! A deliberate cold branch is opted out with a `// hotpath-exempt: why`
//! comment on the effect line or up to three lines above (the same window
//! the lint's `ordering:` justifications use). The targeted form
//! `// hotpath-exempt(panic): why` suppresses only the listed atoms, so a
//! comment shielding a bounds-checked index cannot also hide a lock
//! acquisition on the same line (`lock` covers every `lock:<rank>`). An
//! exemption that no longer covers any matching effect site is itself a
//! finding, so stale escapes rot loudly.
//! Counts ratchet through `crates/xtask/hotpaths_baseline.toml` exactly
//! like the lint baseline: above-baseline counts fail, below-baseline
//! entries fail until regenerated with `--update-hotpaths-baseline`.

use crate::lockgraph::{CallKey, Extraction, Finding, FnFacts, SourceInput, SymbolTable};
use crate::tokens::{Tok, Token};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::path::Path;

/// The descriptions backing SARIF rule metadata for this analysis.
pub const CHECKS: [(&str, &str); 5] = [
    ("hotpath-violation", "A hot-path entry can reach an effect outside its declared capability set in hotpaths.toml."),
    ("stale-entry", "hotpaths.toml declares an entry function that no longer exists in the workspace."),
    ("unknown-capability", "hotpaths.toml declares a capability that is not an effect atom (alloc, panic, block, wallclock, lock:<rank>)."),
    ("stale-exempt", "A hotpath-exempt comment no longer covers any effect site and should be removed."),
    ("stale-hotpath-baseline", "The hot-path baseline records more violations than currently exist; regenerate to tighten the ratchet."),
];

/// One declared entry: function key, allowed atoms, declaration line.
#[derive(Debug, Clone)]
pub struct HotEntry {
    pub key: String,
    pub caps: Vec<String>,
    pub line: usize,
}

/// Per-entry outcome for the report renderers.
#[derive(Debug)]
pub struct EntryReport {
    pub key: String,
    pub caps: Vec<String>,
    /// Functions reachable from the entry (including itself).
    pub reachable: usize,
    /// Non-exempt effect sites reachable from the entry, per atom.
    pub effects: BTreeMap<String, usize>,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct HotAnalysis {
    pub entries: Vec<EntryReport>,
    pub findings: Vec<Finding>,
    /// Functions scanned (the whole workspace, not just reachable ones).
    pub fns: usize,
    /// Current per-`hotpath:<entry>:<atom>` violation counts (for the
    /// baseline ratchet; capability-covered atoms are not violations).
    pub violation_counts: BTreeMap<String, u64>,
}

/// One effect site inside a function body.
#[derive(Debug, Clone)]
struct EffectSite {
    atom: String,
    file: String,
    line: usize,
    what: String,
}

/// Is `cap` a recognized effect atom?
fn known_cap(cap: &str) -> bool {
    matches!(cap, "alloc" | "panic" | "block" | "wallclock")
        || cap
            .strip_prefix("lock:")
            .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()))
}

/// Parses `hotpaths.toml`: a `[hotpaths]` table of
/// `"crate::Type::fn" = ["atom", ...]` entries (restricted TOML subset,
/// like the baseline format — the workspace carries no TOML dependency).
pub fn parse_config(text: &str, origin: &str) -> io::Result<Vec<HotEntry>> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
            continue;
        }
        let parse_err = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{origin}:{}: malformed hotpaths line: {raw}", idx + 1),
            )
        };
        let (key, value) = line.split_once('=').ok_or_else(parse_err)?;
        let value = value.trim();
        let inner =
            value.strip_prefix('[').and_then(|v| v.strip_suffix(']')).ok_or_else(parse_err)?.trim();
        let caps: Vec<String> = if inner.is_empty() {
            Vec::new()
        } else {
            inner.split(',').map(|c| c.trim().trim_matches('"').to_owned()).collect()
        };
        if caps.iter().any(String::is_empty) {
            return Err(parse_err());
        }
        out.push(HotEntry { key: key.trim().trim_matches('"').to_owned(), caps, line: idx + 1 });
    }
    Ok(out)
}

/// Loads the hot-path contract from disk. Unlike the baseline, a missing
/// contract is an error: `--hotpaths` without entries proves nothing.
pub fn load_config(path: &Path) -> io::Result<Vec<HotEntry>> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: {e} (declare hot-path entries first)", path.display()),
        )
    })?;
    parse_config(&text, &path.display().to_string())
}

/// Keywords that can directly precede `[` without it being an index
/// expression (`return [..]`, `in [..]`, `match x { .. }` arms, etc.).
const NONINDEX_KEYWORDS: [&str; 10] =
    ["return", "break", "in", "if", "else", "match", "loop", "while", "for", "yield"];

/// Index of the call `(` after the identifier at `i`, skipping one
/// turbofish (`collect::<Vec<_>>(`); `None` when the identifier is not
/// called.
fn call_paren(toks: &[Token], i: usize) -> Option<usize> {
    let at = |j: usize| toks.get(j).map(|t| &t.tok);
    match at(i + 1) {
        Some(t) if t.is_punct('(') => Some(i + 1),
        Some(Tok::PathSep) if matches!(at(i + 2), Some(t) if t.is_punct('<')) => {
            let mut depth = 0usize;
            let mut j = i + 2;
            while let Some(t) = at(j) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        return match at(j + 1) {
                            Some(t) if t.is_punct('(') => Some(j + 1),
                            _ => None,
                        };
                    }
                }
                j += 1;
            }
            None
        }
        _ => None,
    }
}

/// Index just past the group opened at `open` (`(`/`[`/`{`), or `open + 1`
/// when no group starts there.
fn skip_group(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| &t.tok) {
        Some(t) if t.is_punct('(') => ('(', ')'),
        Some(t) if t.is_punct('[') => ('[', ']'),
        Some(t) if t.is_punct('{') => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        if t.tok.is_punct(o) {
            depth += 1;
        } else if t.tok.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Scans one function body for effect sites.
///
/// Method and qualified calls that resolve to a workspace function are
/// *not* treated as intrinsic effects — their effects arrive transitively
/// through the call graph, so `topic.append(..)` charges whatever
/// `SharedTopic::append` actually does rather than a blanket `alloc`.
/// Macros stay unexpanded: effects hidden inside macro *definitions* are
/// invisible (documented under-approximation in DESIGN.md), but effect
/// expressions in macro *arguments* are scanned like any other tokens.
/// `debug_assert*` bodies are skipped entirely — they compile out of
/// release builds, which is what the hot path runs.
fn scan_effects(
    f: &FnFacts,
    symbols: &SymbolTable,
    ranks: &BTreeMap<String, u64>,
) -> Vec<EffectSite> {
    let mut out = Vec::new();
    let mut lock_lines: BTreeSet<usize> = BTreeSet::new();
    for (site, line) in &f.direct {
        lock_lines.insert(*line);
        let atom = match ranks.get(site) {
            Some(r) => format!("lock:{r}"),
            None => "block".to_owned(),
        };
        out.push(EffectSite {
            atom,
            file: f.file.clone(),
            line: *line,
            what: format!("{site} acquired"),
        });
    }
    let push = |out: &mut Vec<EffectSite>, atom: &str, line: usize, what: String| {
        out.push(EffectSite { atom: atom.to_owned(), file: f.file.clone(), line, what });
    };
    let resolves = |key: CallKey| !symbols.resolve_all(&key, &f.crate_name, false).is_empty();

    let toks = &f.body;
    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            // Macro invocations.
            Tok::Ident(name) if toks.get(i + 1).is_some_and(|t| t.tok.is_punct('!')) => {
                match name.as_str() {
                    "format" | "vec" => push(&mut out, "alloc", line, format!("{name}!")),
                    "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
                    | "assert_ne" => push(&mut out, "panic", line, format!("{name}!")),
                    "debug_assert" | "debug_assert_eq" | "debug_assert_ne" => {
                        i = skip_group(toks, i + 2);
                        continue;
                    }
                    _ => {}
                }
                i += 2;
            }
            // Method calls: `.name(..)`.
            Tok::Punct('.')
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(_)))
                    && call_paren(toks, i + 1).is_some() =>
            {
                let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
                    unreachable!("matched above");
                };
                let line = toks[i + 1].line;
                match name.as_str() {
                    // Unconditional: no workspace function shadows these.
                    "unwrap" | "expect" | "unwrap_err" | "expect_err" => {
                        push(&mut out, "panic", line, format!(".{name}()"));
                    }
                    // Workspace methods are charged transitively instead.
                    _ if resolves(CallKey::Method(name.clone())) => {}
                    "to_string" | "to_owned" | "to_vec" | "collect" | "push" | "push_back"
                    | "push_front" | "extend" | "insert" | "reserve" | "append" | "clone" => {
                        push(&mut out, "alloc", line, format!(".{name}()"));
                    }
                    "lock" | "read" | "write" if !lock_lines.contains(&line) => {
                        push(&mut out, "block", line, format!(".{name}() on unranked lock"));
                    }
                    "recv" | "recv_timeout" | "wait" => {
                        push(&mut out, "block", line, format!(".{name}()"));
                    }
                    "elapsed" => push(&mut out, "wallclock", line, ".elapsed()".into()),
                    _ => {}
                }
                i += 2;
            }
            // Qualified calls: `Type::name(..)` (last two path segments).
            Tok::Ident(ty)
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(_)))
                    && call_paren(toks, i + 2).is_some() =>
            {
                let Some(Tok::Ident(name)) = toks.get(i + 2).map(|t| &t.tok) else {
                    unreachable!("matched above");
                };
                let line = toks[i + 2].line;
                if !resolves(CallKey::Qualified(ty.clone(), name.clone())) {
                    match (ty.as_str(), name.as_str()) {
                        (_, "with_capacity")
                        | ("Box" | "Arc" | "Rc", "new")
                        | ("String" | "Vec", "from") => {
                            push(&mut out, "alloc", line, format!("{ty}::{name}"));
                        }
                        ("thread", "sleep") => {
                            push(&mut out, "block", line, "thread::sleep".into())
                        }
                        ("Instant" | "SystemTime", "now") => {
                            push(&mut out, "wallclock", line, format!("{ty}::now"));
                        }
                        ("File" | "fs", _) => {
                            push(&mut out, "block", line, format!("{ty}::{name} I/O"))
                        }
                        _ => {}
                    }
                }
                i += 3;
            }
            // Indexing: `expr[..]` panics on out-of-range.
            Tok::Punct('[')
                if i > 0
                    && match &toks[i - 1].tok {
                        Tok::Ident(prev) => !NONINDEX_KEYWORDS.contains(&prev.as_str()),
                        t => t.is_punct(')') || t.is_punct(']'),
                    } =>
            {
                let full_range = toks.get(i + 1).is_some_and(|t| t.tok.is_punct('.'))
                    && toks.get(i + 2).is_some_and(|t| t.tok.is_punct('.'))
                    && toks.get(i + 3).is_some_and(|t| t.tok.is_punct(']'));
                if !full_range {
                    push(&mut out, "panic", line, "indexing".into());
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Runs the analysis: extract, scan, propagate, check against the contract
/// and baseline.
pub fn analyze(
    sources: &[SourceInput<'_>],
    config: &[HotEntry],
    ranks: &BTreeMap<String, u64>,
    baselined: &BTreeMap<String, u64>,
) -> HotAnalysis {
    let ex: Extraction = crate::lockgraph::extract(sources);
    let symbols = SymbolTable::new(&ex.facts);
    let mut hot = HotAnalysis { fns: ex.fns, ..HotAnalysis::default() };

    // Per-function effect sites, exemptions applied. An exemption covers an
    // effect on its own line or up to 3 lines below (the comment sits above
    // the expression) when its atom filter — if any — names the effect's
    // atom or the atom's class (`lock` covers `lock:30`).
    let mut exempt_by_file: HashMap<&str, Vec<(usize, &[String])>> = HashMap::new();
    for e in &ex.exempts {
        exempt_by_file.entry(e.file.as_str()).or_default().push((e.line, &e.atoms));
    }
    let covers = |atoms: &[String], atom: &str| {
        atoms.is_empty()
            || atoms.iter().any(|a| {
                a == atom || atom.strip_prefix(a.as_str()).is_some_and(|r| r.starts_with(':'))
            })
    };
    let mut used_exempts: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut effects: Vec<Vec<EffectSite>> = Vec::with_capacity(ex.facts.len());
    for f in &ex.facts {
        let mut sites = scan_effects(f, &symbols, ranks);
        sites.retain(|s| {
            let mut keep = true;
            if let Some(comments) = exempt_by_file.get(s.file.as_str()) {
                for &(c, atoms) in comments.iter() {
                    if c <= s.line && s.line <= c + 3 && covers(atoms, &s.atom) {
                        used_exempts.insert((s.file.clone(), c));
                        keep = false;
                    }
                }
            }
            keep
        });
        effects.push(sites);
    }

    // Contract validation.
    let by_key: HashMap<&str, usize> =
        ex.facts.iter().enumerate().map(|(i, f)| (f.key.as_str(), i)).collect();
    for e in config {
        for cap in &e.caps {
            if !known_cap(cap) {
                hot.findings.push(Finding {
                    check: "unknown-capability",
                    file: "hotpaths.toml".to_owned(),
                    line: e.line,
                    message: format!(
                        "entry {}: {cap:?} is not an effect atom \
                         (alloc, panic, block, wallclock, lock:<rank>)",
                        e.key
                    ),
                });
            }
        }
        if !by_key.contains_key(e.key.as_str()) {
            hot.findings.push(Finding {
                check: "stale-entry",
                file: "hotpaths.toml".to_owned(),
                line: e.line,
                message: format!(
                    "entry {} does not resolve to any workspace function — \
                     remove it or fix the key",
                    e.key
                ),
            });
        }
    }

    // Per-entry reachability (BFS with parent pointers for call chains).
    for e in config {
        let Some(&entry_idx) = by_key.get(e.key.as_str()) else {
            continue;
        };
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(entry_idx);
        let mut queue = vec![entry_idx];
        while let Some(cur) = queue.pop() {
            for c in &ex.facts[cur].calls {
                for callee in symbols.resolve_all(&c.key, &ex.facts[cur].crate_name, c.is_ref) {
                    if visited.insert(callee) {
                        parent.insert(callee, cur);
                        queue.push(callee);
                    }
                }
            }
        }
        let chain_to = |idx: usize| -> String {
            let mut keys = vec![ex.facts[idx].key.clone()];
            let mut cur = idx;
            while let Some(&p) = parent.get(&cur) {
                keys.push(ex.facts[p].key.clone());
                cur = p;
            }
            keys.reverse();
            keys.join(" → ")
        };

        // Union the reachable effect sites per atom.
        let mut by_atom: BTreeMap<String, Vec<(usize, &EffectSite)>> = BTreeMap::new();
        for &idx in &visited {
            for site in &effects[idx] {
                by_atom.entry(site.atom.clone()).or_default().push((idx, site));
            }
        }
        for sites in by_atom.values_mut() {
            sites.sort_by(|a, b| (&a.1.file, a.1.line).cmp(&(&b.1.file, b.1.line)));
        }

        let caps: BTreeSet<&str> = e.caps.iter().map(String::as_str).collect();
        for (atom, sites) in &by_atom {
            if caps.contains(atom.as_str()) {
                continue;
            }
            let count = sites.len() as u64;
            let key = format!("hotpath:{}:{atom}", e.key);
            let allowed = baselined.get(&key).copied().unwrap_or(0);
            hot.violation_counts.insert(key, count);
            if count > allowed {
                let (idx, first) = sites[0];
                hot.findings.push(Finding {
                    check: "hotpath-violation",
                    file: first.file.clone(),
                    line: first.line,
                    message: format!(
                        "{}: effect `{atom}` outside capabilities [{}]: {count} site(s) \
                         ({} baselined), e.g. {} at {}:{} via {}",
                        e.key,
                        e.caps.join(", "),
                        allowed,
                        first.what,
                        first.file,
                        first.line,
                        chain_to(idx),
                    ),
                });
            }
        }

        hot.entries.push(EntryReport {
            key: e.key.clone(),
            caps: e.caps.clone(),
            reachable: visited.len(),
            effects: by_atom.iter().map(|(a, s)| (a.clone(), s.len())).collect(),
        });
    }

    // Stale exemptions: a hotpath-exempt comment that shields nothing. The
    // scan covers every workspace function, so an exemption that suppressed
    // no site anywhere (reachable or not) is dead weight.
    for e in &ex.exempts {
        if !used_exempts.contains(&(e.file.clone(), e.line)) {
            hot.findings.push(Finding {
                check: "stale-exempt",
                file: e.file.clone(),
                line: e.line,
                message: "hotpath-exempt comment covers no matching effect site within \
                          3 lines — remove it or move it to the effect"
                    .to_owned(),
            });
        }
    }

    // Baseline ratchet, downward direction: slack fails until regenerated.
    for (key, &allowed) in baselined {
        let current = hot.violation_counts.get(key).copied().unwrap_or(0);
        if current < allowed {
            hot.findings.push(Finding {
                check: "stale-hotpath-baseline",
                file: "crates/xtask/hotpaths_baseline.toml".to_owned(),
                line: 0,
                message: format!(
                    "{key}: {allowed} baselined, {current} remain — run \
                     `cargo xtask analyze --hotpaths --update-hotpaths-baseline`"
                ),
            });
        }
    }

    hot.findings.sort_by(|a, b| (a.check, &a.file, a.line).cmp(&(b.check, &b.file, b.line)));
    hot
}

/// Renders a regenerated `hotpaths.toml` from the observed effect sets
/// (redirect into the file to accept the current reality as the contract).
pub fn emit_hotpaths(hot: &HotAnalysis) -> String {
    let mut out = String::from(
        "# Hot-path purity contract for `cargo xtask analyze --hotpaths`.\n\
         # Each entry names a latency-critical function and the effect atoms its\n\
         # whole reachable call graph may use (alloc, panic, block, wallclock,\n\
         # lock:<rank>). Anything beyond the list fails CI. Regenerate with\n\
         # `cargo xtask analyze --hotpaths --emit-hotpaths` after a deliberate change.\n\n\
         [hotpaths]\n",
    );
    for e in &hot.entries {
        let caps: Vec<String> = e.effects.keys().map(|a| format!("\"{a}\"")).collect();
        out.push_str(&format!("\"{}\" = [{}]\n", e.key, caps.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(
        srcs: &[(&str, &str, &str)],
        config: &[(&str, &[&str])],
        ranks: &[(&str, u64)],
        baselined: &[(&str, u64)],
    ) -> HotAnalysis {
        let inputs: Vec<SourceInput<'_>> =
            srcs.iter().map(|(c, p, t)| SourceInput { crate_name: c, path: p, text: t }).collect();
        let config: Vec<HotEntry> = config
            .iter()
            .enumerate()
            .map(|(i, (k, caps))| HotEntry {
                key: (*k).to_owned(),
                caps: caps.iter().map(|c| (*c).to_owned()).collect(),
                line: i + 1,
            })
            .collect();
        let ranks = ranks.iter().map(|(s, r)| ((*s).to_owned(), *r)).collect();
        let baselined = baselined.iter().map(|(s, r)| ((*s).to_owned(), *r)).collect();
        analyze(&inputs, &config, &ranks, &baselined)
    }

    fn findings<'a>(h: &'a HotAnalysis, check: &str) -> Vec<&'a Finding> {
        h.findings.iter().filter(|f| f.check == check).collect()
    }

    /// Two crates: a poll entry whose helper (in another crate) formats a
    /// label — the canonical seeded violation.
    fn pipeline() -> Vec<(&'static str, &'static str, &'static str)> {
        vec![
            (
                "stream",
                "crates/stream/src/lib.rs",
                "
                pub struct Consumer { inner: u32 }
                impl Consumer {
                    pub fn poll(&self) -> String {
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
                ",
            ),
        ]
    }

    #[test]
    fn seeded_format_reachable_from_poll_is_caught_with_chain() {
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[], &[]);
        let v = findings(&h, "hotpath-violation");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(v[0].message.contains("`alloc`"), "{}", v[0].message);
        assert!(v[0].message.contains("format!"), "{}", v[0].message);
        assert!(
            v[0].message.contains("stream::Consumer::poll → util::render_label"),
            "chain missing: {}",
            v[0].message
        );
    }

    #[test]
    fn violation_chain_lands_in_sarif() {
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[], &[]);
        let sarif = crate::report::hot_sarif(&h);
        assert!(sarif.contains("\"hotpath-violation\""), "{sarif}");
        assert!(sarif.contains("util::render_label"), "{sarif}");
        assert!(sarif.contains("crates/util/src/lib.rs"), "{sarif}");
    }

    #[test]
    fn declared_capability_covers_the_effect() {
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &["alloc"])], &[], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
        assert_eq!(h.entries.len(), 1);
        assert_eq!(h.entries[0].effects.get("alloc"), Some(&1));
        assert!(h.violation_counts.is_empty(), "covered atoms are not violations");
    }

    #[test]
    fn exempt_comment_suppresses_the_site() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn hot(xs: &[u32]) -> u32 {
                // hotpath-exempt: index bounded by the caller's contract
                xs[0]
            }
            ",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
    }

    #[test]
    fn stale_exempt_is_a_finding() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn cold() -> u32 {
                // hotpath-exempt: nothing here anymore
                1
            }
            ",
        )];
        let h = hot(&srcs, &[], &[], &[]);
        let v = findings(&h, "stale-exempt");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert_eq!(v[0].file, "fx/src/lib.rs");
    }

    #[test]
    fn atom_targeted_exempt_leaves_other_atoms_visible() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { m: Mutex<u32>, v: Vec<u32> }
            impl S {
                pub fn hot(&self) -> u32 {
                    // hotpath-exempt(panic): index 0 exists by construction
                    self.v[0] + *self.m.lock()
                }
            }
            ",
        )];
        let h = hot(&srcs, &[("fx::S::hot", &[])], &[("fx::S::m", 7)], &[]);
        let v = findings(&h, "hotpath-violation");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(v[0].message.contains("`lock:7`"), "{}", v[0].message);
        assert!(findings(&h, "stale-exempt").is_empty(), "the panic exemption was used");
    }

    #[test]
    fn stale_entry_and_unknown_capability_are_findings() {
        let srcs = [("fx", "fx/src/lib.rs", "pub fn f() {}")];
        let h = hot(&srcs, &[("fx::gone", &["alloc"]), ("fx::f", &["fly"])], &[], &[]);
        assert_eq!(findings(&h, "stale-entry").len(), 1, "{:?}", h.findings);
        assert_eq!(findings(&h, "unknown-capability").len(), 1, "{:?}", h.findings);
    }

    #[test]
    fn baseline_tolerates_exact_count_and_flags_slack() {
        let key = "hotpath:stream::Consumer::poll:alloc";
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[], &[(key, 1)]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
        assert_eq!(h.violation_counts.get(key), Some(&1));

        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[], &[(key, 2)]);
        let v = findings(&h, "stale-hotpath-baseline");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(v[0].message.contains("--update-hotpaths-baseline"), "{}", v[0].message);
    }

    #[test]
    fn debug_asserts_compile_out_but_unwrap_panics() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn hot(x: Option<u32>) -> u32 {
                debug_assert!(x.is_some());
                x.unwrap()
            }
            ",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        let v = findings(&h, "hotpath-violation");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(v[0].message.contains("`panic`"), "{}", v[0].message);
        assert!(
            v[0].message.contains("1 site(s)"),
            "debug_assert must not count: {}",
            v[0].message
        );
    }

    #[test]
    fn full_range_slice_is_not_indexing() {
        let srcs = [("fx", "fx/src/lib.rs", "pub fn hot(xs: &[u32]) -> &[u32] { &xs[..] }")];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
    }

    #[test]
    fn wallclock_and_block_atoms_are_charged() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn hot(d: Duration) -> u128 {
                let t = Instant::now();
                thread::sleep(d);
                t.elapsed().as_nanos()
            }
            ",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        let atoms: Vec<&str> = findings(&h, "hotpath-violation")
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect();
        assert!(atoms.contains(&"block"), "{:?}", h.findings);
        assert!(atoms.contains(&"wallclock"), "{:?}", h.findings);
        assert_eq!(h.entries[0].effects.get("wallclock"), Some(&2), "now + elapsed");
    }

    #[test]
    fn trait_method_call_follows_every_implementor() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub trait Sink { fn emit(&self, v: u32); }
            pub struct Null;
            impl Sink for Null { fn emit(&self, v: u32) { let _ = v; } }
            pub struct Buffered { buf: Vec<u32> }
            impl Sink for Buffered { fn emit(&self, v: u32) { self.buf.push(v); } }
            pub fn hot(s: &dyn Sink) { s.emit(1) }
            ",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        let v = findings(&h, "hotpath-violation");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(
            v[0].message.contains("fx::hot → fx::Buffered::emit"),
            "must follow the allocating implementor: {}",
            v[0].message
        );
    }

    #[test]
    fn workspace_calls_charge_transitively_not_intrinsically() {
        // `out.extend(..)` resolves to the workspace `Batch::extend`, so the
        // call site itself is not an alloc — only the real one inside is.
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct Batch { rows: Vec<u32> }
            impl Batch {
                pub fn extend(&mut self, v: u32) {
                    self.rows.push(v);
                }
            }
            pub fn hot(out: &mut Batch) { out.extend(1); }
            ",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[], &[]);
        assert_eq!(h.entries[0].effects.get("alloc"), Some(&1), "{:?}", h.entries);
    }

    #[test]
    fn parse_config_reads_quoted_keys_and_caps() {
        let text = "
            # contract
            [hotpaths]
            \"a::B::c\" = [\"alloc\", \"lock:30\"]
            \"a::free\" = []
        ";
        let entries = parse_config(text, "hotpaths.toml").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "a::B::c");
        assert_eq!(entries[0].caps, vec!["alloc".to_owned(), "lock:30".to_owned()]);
        assert!(entries[1].caps.is_empty());
    }

    #[test]
    fn parse_config_rejects_malformed_lines() {
        assert!(parse_config("\"a::b\" = oops", "t").is_err());
        assert!(parse_config("just words", "t").is_err());
    }

    #[test]
    fn emit_hotpaths_renders_observed_contract() {
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[], &[]);
        let emitted = emit_hotpaths(&h);
        assert!(emitted.contains("\"stream::Consumer::poll\" = [\"alloc\"]"), "{emitted}");
    }
}
