//! Determinism contract analysis, one of the three checks of
//! `cargo xtask analyze`.
//!
//! The root `determinism.toml` declares the entry functions a seeded run
//! must replay bit-identically (the sim event loop, handover fusion, the
//! detect path, the RNG-seeded generators) and, per entry, the
//! *nondeterminism allowance* the path may use. The check itself — contract
//! format, exemptions, reachability, reports — is
//! [`crate::contract`]; this module supplies the nondeterminism lattice and
//! the scanner that finds its sources.
//!
//! Nondeterminism atoms form a flat lattice:
//!
//! * `map-iter` — iteration over a `HashMap`/`HashSet` (`for` loops,
//!   `.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,
//!   `.into_iter()` and friends): order varies per process because the
//!   default hasher is seeded per `RandomState`
//! * `hash-state` — constructing a `RandomState`/`DefaultHasher`/
//!   `BuildHasherDefault` (hash values leak into anything keyed by them)
//! * `wallclock` — `Instant::now`/`SystemTime::now`/`.elapsed()` reads
//! * `thread` — `thread::spawn`/`thread::current` (scheduling order and
//!   thread identity are not replayable)
//! * `unseeded-rng` — entropy-seeded RNG construction (`thread_rng`,
//!   `from_entropy`, `OsRng`, `rand::random`)
//! * `ptr-order` — observing allocation addresses (`.as_ptr()`,
//!   `ptr::hash`): address *ordering* varies with heap layout
//!
//! A deliberately order-insensitive site is opted out with
//! `// determinism-exempt(map-iter): why`.
//!
//! # Soundness envelope
//!
//! Hash-collection receivers are typed syntactically: struct fields whose
//! declared type mentions `HashMap`/`HashSet` (through `Arc`/`RwLock`/...
//! wrappers), locals bound by annotation or by construction
//! (`HashMap::new()`, `collect::<HashMap<_, _>>()`), and single-step
//! aliases of either (`let g = self.map.read();`). Hash maps arriving
//! through function *parameters* or multi-step aliases are not typed —
//! iteration over those is invisible (under-approximation, recorded in
//! DESIGN.md alongside the call-resolution envelope). The runtime oracle
//! for this gap is the double-run `determinism-e2e` CI job.

use crate::contract::{Nouns, Pass, Scan, Site};
use crate::lockgraph::{CallKey, FnFacts};
use crate::tokens::{skip_group, Tok, Token};
use std::collections::BTreeSet;

/// Check ids and the descriptions backing their SARIF rule metadata.
const CHECKS: [(&str, &str); 4] = [
    ("determinism-violation", "A declared-deterministic entry can reach a nondeterminism source outside its allowance in determinism.toml."),
    ("stale-entry", "determinism.toml declares an entry function that no longer exists in the workspace."),
    ("unknown-atom", "determinism.toml allows an atom that is not a nondeterminism source (map-iter, hash-state, wallclock, thread, unseeded-rng, ptr-order)."),
    ("stale-exempt", "A determinism-exempt comment no longer covers any nondeterminism site and should be removed."),
];

/// The determinism contract.
pub static PASS: Pass = Pass {
    title: "determinism contract",
    table: "determinism",
    stem: "determinism",
    checks: CHECKS,
    atoms: &["map-iter", "hash-state", "wallclock", "thread", "unseeded-rng", "ptr-order"],
    header: "# Determinism contract for `cargo xtask analyze`.\n\
             # Each entry names a replay-deterministic function and the nondeterminism\n\
             # atoms its whole reachable call graph may use (map-iter, hash-state,\n\
             # wallclock, thread, unseeded-rng, ptr-order). Anything beyond the list\n\
             # fails CI. Regenerate with `cargo xtask analyze --emit-determinism`\n\
             # after a deliberate change.\n",
    scan: scan_nondet,
    nouns: Nouns {
        site: "nondeterminism",
        atom: "a nondeterminism atom",
        exempt_target: "site",
        declared: "allowance",
        declared_key: "allow",
        found_key: "sources",
        clean: "replay-deterministic",
        entries: "deterministic entry points",
    },
};

/// Hash-collection methods whose call visits elements in hasher order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Methods that pass the receiver through unchanged for hash-typing
/// purposes (`self.map.read().iter()` iterates `self.map`).
const TRANSPARENT_METHODS: [&str; 10] = [
    "read",
    "write",
    "lock",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "unwrap",
    "expect",
    "clone",
];

fn is_hash_type(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

/// Index of the matching opener for the closer at `close`, walking
/// backwards; `None` when unbalanced.
fn open_of(toks: &[Token], close: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        let t = toks.get(j)?;
        if t.tok.is_punct(c) {
            depth += 1;
        } else if t.tok.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// The root of the receiver chain ending just before the `.` at `dot`.
#[derive(Debug, PartialEq)]
enum RecvRoot {
    /// `self.field. ...` — typed via the impl type's declared fields.
    SelfField(String),
    /// `name. ...` — typed via local bindings.
    Local(String),
    /// `expr.collect::<HashMap<..>>(). ...` — a freshly-collected hash
    /// collection, hash-typed regardless of bindings.
    CollectedHash,
    Unknown,
}

/// Walks backwards from the `.` of a method call to the chain's root,
/// looking through [`TRANSPARENT_METHODS`] (`self.map.read().keys()` roots
/// at `self.map`). Anything else — arbitrary method results, parenthesised
/// expressions, indexing — is `Unknown` (under-approximation).
fn receiver_root(toks: &[Token], dot: usize) -> RecvRoot {
    let mut j = match dot.checked_sub(1) {
        Some(j) => j,
        None => return RecvRoot::Unknown,
    };
    loop {
        match toks.get(j).map(|t| &t.tok) {
            // `...(args).` — skip the arguments, expect a method name.
            Some(t) if t.is_punct(')') => {
                let Some(open) = open_of(toks, j, '(', ')') else {
                    return RecvRoot::Unknown;
                };
                let Some(before) = open.checked_sub(1) else {
                    return RecvRoot::Unknown;
                };
                // A turbofish between the name and the `(`:
                // `collect::<HashMap<_, _>>(..)`.
                let (name_idx, turbofish) = if toks[before].tok.is_punct('>') {
                    let Some(lt) = open_of(toks, before, '<', '>') else {
                        return RecvRoot::Unknown;
                    };
                    match lt.checked_sub(2) {
                        Some(n)
                            if matches!(toks.get(lt - 1).map(|t| &t.tok), Some(Tok::PathSep)) =>
                        {
                            (n, Some((lt, before)))
                        }
                        _ => return RecvRoot::Unknown,
                    }
                } else {
                    (before, None)
                };
                let Some(Tok::Ident(name)) = toks.get(name_idx).map(|t| &t.tok) else {
                    return RecvRoot::Unknown;
                };
                if name == "collect" {
                    if let Some((lt, gt)) = turbofish {
                        if toks[lt..gt]
                            .iter()
                            .any(|t| matches!(&t.tok, Tok::Ident(n) if is_hash_type(n)))
                        {
                            return RecvRoot::CollectedHash;
                        }
                    }
                    return RecvRoot::Unknown;
                }
                if !TRANSPARENT_METHODS.contains(&name.as_str()) {
                    return RecvRoot::Unknown;
                }
                match name_idx.checked_sub(1) {
                    Some(d) if toks[d].tok.is_punct('.') => match d.checked_sub(1) {
                        Some(p) => j = p,
                        None => return RecvRoot::Unknown,
                    },
                    _ => return RecvRoot::Unknown,
                }
            }
            Some(Tok::Ident(name)) => {
                let prev = j.checked_sub(1).map(|p| &toks[p].tok);
                return match prev {
                    Some(t) if t.is_punct('.') => {
                        // `self.field.` roots at the field; deeper paths
                        // (`x.a.b.`) are unknown.
                        match j.checked_sub(2).map(|p| &toks[p].tok) {
                            Some(Tok::Ident(base))
                                if base == "self"
                                    && !j
                                        .checked_sub(3)
                                        .is_some_and(|p| toks[p].tok.is_punct('.')) =>
                            {
                                RecvRoot::SelfField(name.clone())
                            }
                            _ => RecvRoot::Unknown,
                        }
                    }
                    _ => RecvRoot::Local(name.clone()),
                };
            }
            _ => return RecvRoot::Unknown,
        }
    }
}

/// Collects names of locals bound to hash collections in this body:
/// type-annotated `let`s, constructions (`HashMap::new()`,
/// `collect::<HashSet<_>>()`), and single-step aliases of hash fields or
/// hash locals (`let g = self.map.read();`, `let m = groups;`).
fn hash_locals(toks: &[Token], self_hash: &BTreeSet<String>) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].tok.is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.tok.is_ident("mut")) {
            j += 1;
        }
        let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let name = name.clone();
        j += 1;
        let mut is_hash = false;
        if toks.get(j).is_some_and(|t| t.tok.is_punct(':')) {
            // `let m: HashMap<..> = ..` — scan the annotation.
            j += 1;
            while let Some(t) = toks.get(j) {
                if t.tok.is_punct('=') || t.tok.is_punct(';') {
                    break;
                }
                if matches!(&t.tok, Tok::Ident(n) if is_hash_type(n)) {
                    is_hash = true;
                }
                j += 1;
            }
        }
        if toks.get(j).is_some_and(|t| t.tok.is_punct('=')) {
            // Scan the initializer (to `;` at depth 0) for constructions
            // and aliases.
            let start = j + 1;
            let mut k = start;
            let mut depth = 0i32;
            while let Some(t) = toks.get(k) {
                match &t.tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                    Tok::Punct(';') if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let init = &toks[start..k.min(toks.len())];
            // `HashMap::new()` / `std::collections::HashSet::with_capacity(..)`:
            // a hash type heading the initializer path.
            for (idx, t) in init.iter().enumerate() {
                if matches!(&t.tok, Tok::Ident(n) if is_hash_type(n))
                    && matches!(init.get(idx + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    && init[..idx].iter().all(|t| matches!(&t.tok, Tok::Ident(_) | Tok::PathSep))
                {
                    is_hash = true;
                    break;
                }
            }
            // `..collect::<HashMap<_, _>>()` anywhere in the initializer.
            if init.iter().any(|t| t.tok.is_ident("collect"))
                && init.iter().any(|t| matches!(&t.tok, Tok::Ident(n) if is_hash_type(n)))
            {
                is_hash = true;
            }
            // Single-step alias: `self.field` / `other_local`, optionally
            // through `&`/`mut` and one transparent-method tail.
            if !is_hash {
                is_hash = alias_of_hash(init, self_hash, &out);
            }
            i = k;
        }
        if is_hash {
            out.insert(name);
        }
        i += 1;
    }
    out
}

/// Does this initializer merely re-expose a known hash collection?
/// Accepts `[&] [mut] self . FIELD [. transparent()]*` and
/// `[&] [mut] LOCAL [. transparent()]*`.
fn alias_of_hash(init: &[Token], self_hash: &BTreeSet<String>, locals: &BTreeSet<String>) -> bool {
    let mut i = 0usize;
    while init
        .get(i)
        .is_some_and(|t| t.tok.is_punct('&') || t.tok.is_ident("mut") || t.tok.is_punct('*'))
    {
        i += 1;
    }
    let rooted = match init.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(base)) if base == "self" => {
            let field = match (init.get(i + 1).map(|t| &t.tok), init.get(i + 2).map(|t| &t.tok)) {
                (Some(t), Some(Tok::Ident(f))) if t.is_punct('.') => f,
                _ => return false,
            };
            if !self_hash.contains(field.as_str()) {
                return false;
            }
            i += 3;
            true
        }
        Some(Tok::Ident(name)) if locals.contains(name.as_str()) => {
            i += 1;
            true
        }
        _ => false,
    };
    if !rooted {
        return false;
    }
    // Only transparent-method tails may follow; any other expression tail
    // (arithmetic, different methods, indexing) changes the type.
    while i < init.len() {
        let (Some(dot), Some(Tok::Ident(m))) =
            (init.get(i).map(|t| &t.tok), init.get(i + 1).map(|t| &t.tok))
        else {
            return false;
        };
        if !dot.is_punct('.') || !TRANSPARENT_METHODS.contains(&m.as_str()) {
            return false;
        }
        if !init.get(i + 2).is_some_and(|t| t.tok.is_punct('(')) {
            return false;
        }
        if !init.get(i + 3).is_some_and(|t| t.tok.is_punct(')')) {
            return false;
        }
        i += 4;
    }
    true
}

/// Scans one function body for nondeterminism sites.
///
/// Method and qualified calls that resolve to a workspace function are
/// *not* treated as intrinsic sources — their sources arrive transitively
/// through the call graph. `map-iter` charges are deduplicated per line so
/// a `for` header over `self.map.iter()` is one site, not two.
fn scan_nondet(f: &FnFacts, cx: &Scan<'_>) -> Vec<Site> {
    static EMPTY: BTreeSet<String> = BTreeSet::new();
    let segs: Vec<&str> = f.key.split("::").collect();
    let self_hash = if segs.len() >= 3 {
        cx.ex.hash_fields.get(segs[segs.len() - 2]).unwrap_or(&EMPTY)
    } else {
        &EMPTY
    };
    let toks = &f.body;
    let locals = hash_locals(toks, self_hash);
    let is_hash_recv = |root: &RecvRoot| match root {
        RecvRoot::SelfField(field) => self_hash.contains(field.as_str()),
        RecvRoot::Local(name) => locals.contains(name.as_str()),
        RecvRoot::CollectedHash => true,
        RecvRoot::Unknown => false,
    };

    let mut out: Vec<Site> = Vec::new();
    let mut iter_lines: BTreeSet<usize> = BTreeSet::new();
    let push = |out: &mut Vec<Site>, atom: &str, line: usize, what: String| {
        out.push(Site { atom: atom.to_owned(), line, what });
    };
    let resolves = |key: CallKey| cx.resolves(f, &key);

    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            // `for PAT in EXPR {` — a hash name in the header is hasher-order
            // iteration even without an explicit `.iter()`.
            Tok::Ident(kw) if kw == "for" => {
                let mut j = i + 1;
                // Skip the pattern to the `in` (patterns may nest tuples).
                while let Some(t) = toks.get(j) {
                    if t.tok.is_ident("in") {
                        break;
                    }
                    if t.tok.is_punct('(') || t.tok.is_punct('[') {
                        j = skip_group(toks, j);
                        continue;
                    }
                    if t.tok.is_punct('{') {
                        break;
                    }
                    j += 1;
                }
                if !toks.get(j).is_some_and(|t| t.tok.is_ident("in")) {
                    i += 1;
                    continue;
                }
                // Scan the header expression up to the body `{` at depth 0.
                let mut k = j + 1;
                let mut depth = 0i32;
                while let Some(t) = toks.get(k) {
                    match &t.tok {
                        Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct('{') if depth <= 0 => break,
                        Tok::Ident(base)
                            if base == "self"
                                && toks.get(k + 1).is_some_and(|t| t.tok.is_punct('.')) =>
                        {
                            if let Some(Tok::Ident(field)) = toks.get(k + 2).map(|t| &t.tok) {
                                let called = toks.get(k + 3).is_some_and(|t| t.tok.is_punct('('));
                                if self_hash.contains(field.as_str())
                                    && !called
                                    && iter_lines.insert(toks[k].line)
                                {
                                    push(
                                        &mut out,
                                        "map-iter",
                                        toks[k].line,
                                        format!("for over self.{field}"),
                                    );
                                }
                                k += 3;
                                continue;
                            }
                        }
                        Tok::Ident(name)
                            if locals.contains(name.as_str())
                                && !toks.get(k + 1).is_some_and(|t| t.tok.is_punct('('))
                                && !k.checked_sub(1).is_some_and(|p| toks[p].tok.is_punct('.'))
                                && iter_lines.insert(toks[k].line) =>
                        {
                            push(&mut out, "map-iter", toks[k].line, format!("for over {name}"));
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = j + 1;
            }
            // Method calls: `.name(..)`.
            Tok::Punct('.')
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(_)))
                    && toks.get(i + 2).is_some_and(|t| t.tok.is_punct('(')) =>
            {
                let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
                    unreachable!("matched above");
                };
                let line = toks[i + 1].line;
                if ITER_METHODS.contains(&name.as_str()) {
                    let root = receiver_root(toks, i);
                    if is_hash_recv(&root) && iter_lines.insert(line) {
                        push(&mut out, "map-iter", line, format!(".{name}() on hash collection"));
                    }
                } else {
                    match name.as_str() {
                        "elapsed" => push(&mut out, "wallclock", line, ".elapsed()".into()),
                        "from_entropy" => {
                            push(&mut out, "unseeded-rng", line, ".from_entropy()".into());
                        }
                        "as_ptr" => push(&mut out, "ptr-order", line, ".as_ptr()".into()),
                        // Workspace methods are charged transitively.
                        "spawn" if !resolves(CallKey::Method(name.clone())) => {
                            push(&mut out, "thread", line, ".spawn()".into());
                        }
                        _ => {}
                    }
                }
                i += 2;
            }
            // Qualified calls and constructions: `Type::name(..)`.
            Tok::Ident(ty)
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(_))) =>
            {
                // Mid-path (`std::thread::spawn`): slide to the final two
                // segments, which carry the meaning.
                if matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::PathSep))
                    && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Ident(_)))
                {
                    i += 2;
                    continue;
                }
                let Some(Tok::Ident(name)) = toks.get(i + 2).map(|t| &t.tok) else {
                    unreachable!("matched above");
                };
                let line = toks[i + 2].line;
                if !resolves(CallKey::Qualified(ty.clone(), name.clone())) {
                    match (ty.as_str(), name.as_str()) {
                        ("RandomState" | "DefaultHasher", "new" | "default") => {
                            push(&mut out, "hash-state", line, format!("{ty}::{name}()"));
                        }
                        ("Instant" | "SystemTime", "now") => {
                            push(&mut out, "wallclock", line, format!("{ty}::now()"));
                        }
                        ("thread", "spawn" | "current") => {
                            push(&mut out, "thread", line, format!("thread::{name}()"));
                        }
                        ("StdRng" | "SmallRng", "from_entropy") | ("rand", "random") => {
                            push(&mut out, "unseeded-rng", line, format!("{ty}::{name}()"));
                        }
                        ("ptr", "hash") | ("Arc" | "Rc", "as_ptr") => {
                            push(&mut out, "ptr-order", line, format!("{ty}::{name}()"));
                        }
                        _ => {}
                    }
                }
                i += 3;
            }
            // Bare constructions / calls.
            Tok::Ident(name) if name == "thread_rng" || name == "OsRng" => {
                if name == "OsRng" || toks.get(i + 1).is_some_and(|t| t.tok.is_punct('(')) {
                    push(&mut out, "unseeded-rng", line, name.clone());
                }
                i += 1;
            }
            Tok::Ident(name) if name == "BuildHasherDefault" => {
                push(&mut out, "hash-state", line, "BuildHasherDefault".into());
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::contract::tests::{check, findings};
    use crate::contract::Outcome;

    fn det(srcs: &[(&str, &str, &str)], config: &[(&str, &[&str])]) -> Outcome {
        check(&PASS, srcs, config, &[])
    }

    /// Two crates: a sim step whose helper (in another crate) iterates a
    /// HashMap field — the canonical seeded violation.
    pub(crate) fn pipeline() -> Vec<(&'static str, &'static str, &'static str)> {
        vec![
            (
                "sim",
                "crates/sim/src/lib.rs",
                "
                pub struct Simulation { t: u64 }
                impl Simulation {
                    pub fn step(&mut self, reg: &Registry) -> u64 {
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
                }
                ",
            ),
        ]
    }

    #[test]
    fn seeded_map_iter_reachable_from_step_is_caught_with_chain() {
        let d = det(&pipeline(), &[("sim::Simulation::step", &[])]);
        let v = findings(&d, "determinism-violation");
        assert_eq!(v.len(), 1, "{:?}", d.findings);
        assert!(v[0].message.contains("`map-iter`"), "{}", v[0].message);
        assert!(
            v[0].message
                .contains("sim::Simulation::step → core::sum_states → core::Registry::states"),
            "chain missing: {}",
            v[0].message
        );
    }

    #[test]
    fn allowance_covers_the_source() {
        let d = det(&pipeline(), &[("sim::Simulation::step", &["map-iter"])]);
        assert!(d.findings.is_empty(), "{:?}", d.findings);
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].found.get("map-iter"), Some(&1));
    }

    #[test]
    fn btreemap_swap_clears_the_finding() {
        let srcs = [(
            "core",
            "core/src/lib.rs",
            "
            pub struct Registry { vehicles: BTreeMap<u64, u64> }
            impl Registry {
                pub fn states(&self) -> u64 {
                    self.vehicles.values().sum()
                }
            }
            ",
        )];
        let d = det(&srcs, &[("core::Registry::states", &[])]);
        assert!(d.findings.is_empty(), "{:?}", d.findings);
    }

    #[test]
    fn for_loop_over_hash_field_without_iter_call() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { m: HashMap<u32, u32> }
            impl S {
                pub fn f(&self) -> u32 {
                    let mut t = 0;
                    for (_, v) in &self.m {
                        t += v;
                    }
                    t
                }
            }
            ",
        )];
        let d = det(&srcs, &[("fx::S::f", &[])]);
        let v = findings(&d, "determinism-violation");
        assert_eq!(v.len(), 1, "{:?}", d.findings);
        assert!(v[0].message.contains("for over self.m"), "{}", v[0].message);
    }

    #[test]
    fn local_bindings_and_aliases_are_hash_typed() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { m: RwLock<HashMap<u32, u32>> }
            impl S {
                pub fn constructed() -> u32 {
                    let mut counts: HashMap<u32, u32> = HashMap::new();
                    counts.insert(1, 2);
                    counts.values().sum()
                }
                pub fn aliased(&self) -> u32 {
                    let g = self.m.read();
                    g.keys().sum()
                }
                pub fn collected(xs: &[u32]) -> u32 {
                    let set: HashSet<u32> = xs.iter().copied().collect();
                    set.iter().sum()
                }
            }
            ",
        )];
        let d = det(
            &srcs,
            &[("fx::S::constructed", &[]), ("fx::S::aliased", &[]), ("fx::S::collected", &[])],
        );
        let v = findings(&d, "determinism-violation");
        assert_eq!(v.len(), 3, "{:?}", d.findings);
    }

    #[test]
    fn chained_collect_turbofish_is_hash_typed() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn f(xs: &[(u32, u32)]) -> u32 {
                xs.iter().copied().collect::<HashMap<u32, u32>>().into_iter().count() as u32
            }
            ",
        )];
        let d = det(&srcs, &[("fx::f", &[])]);
        let v = findings(&d, "determinism-violation");
        assert_eq!(v.len(), 1, "{:?}", d.findings);
        assert!(v[0].message.contains("into_iter"), "{}", v[0].message);
    }

    #[test]
    fn vec_iteration_is_not_charged() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { v: Vec<u32>, b: BTreeMap<u32, u32> }
            impl S {
                pub fn f(&self) -> u32 {
                    let mut t = 0;
                    for x in self.v.iter() {
                        t += x;
                    }
                    for (_, x) in &self.b {
                        t += x;
                    }
                    t + self.b.values().sum::<u32>()
                }
            }
            ",
        )];
        let d = det(&srcs, &[("fx::S::f", &[])]);
        assert!(d.findings.is_empty(), "{:?}", d.findings);
    }

    #[test]
    fn exempt_comment_suppresses_the_site() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { m: HashMap<u32, u32> }
            impl S {
                pub fn total(&self) -> u32 {
                    // determinism-exempt(map-iter): pure sum — commutative fold
                    self.m.values().sum()
                }
            }
            ",
        )];
        let d = det(&srcs, &[("fx::S::total", &[])]);
        assert!(d.findings.is_empty(), "{:?}", d.findings);
    }

    #[test]
    fn atom_targeted_exempt_leaves_other_atoms_visible() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct S { m: HashMap<u32, u32> }
            impl S {
                pub fn f(&self) -> u64 {
                    // determinism-exempt(map-iter): commutative max reduction
                    let t = self.m.values().max();
                    Instant::now().elapsed().as_nanos() as u64
                }
            }
            ",
        )];
        let d = det(&srcs, &[("fx::S::f", &[])]);
        let atoms: Vec<&str> = findings(&d, "determinism-violation")
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect();
        assert_eq!(atoms, vec!["wallclock"], "{:?}", d.findings);
        assert!(findings(&d, "stale-exempt").is_empty(), "the map-iter exemption was used");
    }

    #[test]
    fn wallclock_thread_rng_and_hashstate_atoms_are_charged() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn f() -> u64 {
                let t = Instant::now();
                let h = thread::spawn(|| 1u64);
                let mut d = DefaultHasher::new();
                let r = thread_rng();
                t.elapsed().as_nanos() as u64
            }
            ",
        )];
        let d = det(&srcs, &[("fx::f", &[])]);
        let atoms: BTreeSet<&str> = findings(&d, "determinism-violation")
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect();
        for atom in ["wallclock", "thread", "hash-state", "unseeded-rng"] {
            assert!(atoms.contains(atom), "missing {atom}: {:?}", d.findings);
        }
        assert_eq!(d.entries[0].found.get("wallclock"), Some(&2), "now + elapsed");
    }

    #[test]
    fn ptr_order_is_charged() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub fn f(a: &Arc<u32>) -> usize {
                a.as_ptr() as usize
            }
            ",
        )];
        let d = det(&srcs, &[("fx::f", &[])]);
        let v = findings(&d, "determinism-violation");
        assert_eq!(v.len(), 1, "{:?}", d.findings);
        assert!(v[0].message.contains("`ptr-order`"), "{}", v[0].message);
    }

    #[test]
    fn workspace_spawn_method_charges_transitively_not_intrinsically() {
        // `pool.spawn(..)` resolves to the workspace `Pool::spawn`, so the
        // call site itself is not a thread source — only the real one is.
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "
            pub struct Pool { n: u32 }
            impl Pool {
                pub fn spawn(&self, job: u32) -> u32 {
                    job + self.n
                }
            }
            pub fn f(pool: &Pool) -> u32 { pool.spawn(1) }
            ",
        )];
        let d = det(&srcs, &[("fx::f", &[])]);
        assert!(d.findings.is_empty(), "{:?}", d.findings);
    }
}
