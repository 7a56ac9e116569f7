//! Hot-path purity analysis, one of the three checks of `cargo xtask analyze`.
//!
//! The root `hotpaths.toml` declares the latency-critical entry functions
//! (produce, poll, detect, transmit) and, per entry, the *capability set*
//! the path is allowed to use. The check itself — contract format,
//! exemptions, reachability, reports — is [`crate::contract`]; this
//! module supplies the effect lattice and the scanner that finds its sites.
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
//! A deliberate cold branch is opted out with `// hotpath-exempt: why`.

use crate::contract::{Nouns, Pass, Scan, Site};
use crate::lockgraph::{CallKey, FnFacts};
use crate::tokens::{call_paren, skip_group, Tok};
use std::collections::BTreeSet;

/// Check ids and the descriptions backing their SARIF rule metadata.
const CHECKS: [(&str, &str); 4] = [
    ("hotpath-violation", "A hot-path entry can reach an effect outside its declared capability set in hotpaths.toml."),
    ("stale-entry", "hotpaths.toml declares an entry function that no longer exists in the workspace."),
    ("unknown-capability", "hotpaths.toml declares a capability that is not an effect atom (alloc, panic, block, wallclock, lock:<rank>)."),
    ("stale-exempt", "A hotpath-exempt comment no longer covers any effect site and should be removed."),
];

/// The hot-path purity contract.
pub static PASS: Pass = Pass {
    title: "hot-path purity",
    table: "hotpaths",
    stem: "hotpath",
    checks: CHECKS,
    atoms: &["alloc", "panic", "block", "wallclock", "lock:<rank>"],
    header: "# Hot-path purity contract for `cargo xtask analyze`.\n\
             # Each entry names a latency-critical function and the effect atoms its\n\
             # whole reachable call graph may use (alloc, panic, block, wallclock,\n\
             # lock:<rank>). Anything beyond the list fails CI. Regenerate with\n\
             # `cargo xtask analyze --emit-hotpaths` after a deliberate change.\n",
    scan: scan_effects,
    nouns: Nouns {
        site: "effect",
        atom: "an effect atom",
        exempt_target: "effect",
        declared: "capabilities",
        declared_key: "caps",
        found_key: "effects",
        clean: "pure",
        entries: "hot-path entries",
    },
};

/// Keywords that can directly precede `[` without it being an index
/// expression (`return [..]`, `in [..]`, `match x { .. }` arms, a
/// `let [a, b]` / `&mut [c, d]` slice pattern, etc.).
const NONINDEX_KEYWORDS: [&str; 12] =
    ["return", "break", "in", "if", "else", "match", "loop", "while", "for", "yield", "let", "mut"];

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
fn scan_effects(f: &FnFacts, cx: &Scan<'_>) -> Vec<Site> {
    let mut out = Vec::new();
    let mut lock_lines: BTreeSet<usize> = BTreeSet::new();
    for (site, line) in &f.direct {
        lock_lines.insert(*line);
        let atom = match cx.ranks.get(site) {
            Some(r) => format!("lock:{r}"),
            None => "block".to_owned(),
        };
        out.push(Site { atom, line: *line, what: format!("{site} acquired") });
    }
    let push = |out: &mut Vec<Site>, atom: &str, line: usize, what: String| {
        out.push(Site { atom: atom.to_owned(), line, what });
    };
    let resolves = |key: CallKey| cx.resolves(f, &key);

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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::contract::tests::{check, findings};
    use crate::contract::Outcome;

    fn hot(
        srcs: &[(&str, &str, &str)],
        config: &[(&str, &[&str])],
        ranks: &[(&str, u64)],
    ) -> Outcome {
        check(&PASS, srcs, config, ranks)
    }

    /// Two crates: a poll entry whose helper (in another crate) formats a
    /// label — the canonical seeded violation.
    pub(crate) fn pipeline() -> Vec<(&'static str, &'static str, &'static str)> {
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
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &[])], &[]);
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
    fn declared_capability_covers_the_effect() {
        let h = hot(&pipeline(), &[("stream::Consumer::poll", &["alloc"])], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
        assert_eq!(h.entries.len(), 1);
        assert_eq!(h.entries[0].found.get("alloc"), Some(&1));
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
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
        let h = hot(&srcs, &[("fx::S::hot", &[])], &[("fx::S::m", 7)]);
        let v = findings(&h, "hotpath-violation");
        assert_eq!(v.len(), 1, "{:?}", h.findings);
        assert!(v[0].message.contains("`lock:7`"), "{}", v[0].message);
        assert!(findings(&h, "stale-exempt").is_empty(), "the panic exemption was used");
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
        assert!(h.findings.is_empty(), "{:?}", h.findings);
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let srcs = [(
            "fx",
            "fx/src/lib.rs",
            "pub fn hot(p: [u32; 2], q: &mut [u32; 2]) -> u32 {
                let [a, b] = p; let &mut [c, d] = q; a + b + c + d
            }",
        )];
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
        let atoms: Vec<&str> = findings(&h, "hotpath-violation")
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect();
        assert!(atoms.contains(&"block"), "{:?}", h.findings);
        assert!(atoms.contains(&"wallclock"), "{:?}", h.findings);
        assert_eq!(h.entries[0].found.get("wallclock"), Some(&2), "now + elapsed");
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
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
        let h = hot(&srcs, &[("fx::hot", &[])], &[]);
        assert_eq!(h.entries[0].found.get("alloc"), Some(&1), "{:?}", h.entries);
    }
}
