//! The CAD3-specific lint rules.
//!
//! Each rule works on the lexed [`SourceFile`] model (code/comment split,
//! test regions marked) and reports [`Violation`]s keyed by
//! `rule-name:repo-relative-path`, which is the granularity the baseline
//! ratchet tracks.
//!
//! Lock-order checking used to live here as a broker-only token rule; it is
//! now the whole-workspace graph analysis in [`crate::lockgraph`], run via
//! `cargo xtask analyze`.

use crate::lexer::SourceFile;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule name (the first half of a baseline key).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-oriented description of the finding.
    pub message: String,
}

/// Rule names, in reporting order.
pub const RULE_NAMES: [&str; 8] = [
    "ordering-comment",
    "no-panic",
    "no-as-cast",
    "no-wallclock",
    "no-bare-print",
    "obs-names",
    "span-names",
    "profile-names",
];

/// What kind of source tree a file came from; rules relax differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A `src/` tree: every rule applies outside `#[cfg(test)]` regions.
    Library,
    /// `tests/`, `benches/` or `examples/`: panicking, casts and clock reads
    /// are idiomatic there, but atomic orderings still need justification —
    /// a test encoding a wrong ordering assumption is worse than no test.
    TestLike,
}

/// Crates whose hot paths reject bare `as` casts.
const AS_CAST_CRATES: [&str; 3] = ["crates/stream/", "crates/engine/", "crates/net/"];

/// The one file allowed to touch the wall clock: the observability clock
/// (the single `Instant` anchor every span and latency histogram reads
/// through, and the pacer interactive tools sleep on).
const WALLCLOCK_ALLOWED: [&str; 1] = ["crates/obs/src/clock.rs"];

/// The crate whose CLI output *is* its purpose; `no-bare-print` would
/// outlaw the lint report itself.
const PRINT_ALLOWED_PREFIX: &str = "crates/xtask/";

/// The crate whose whole purpose is to panic on lock misuse; `no-panic`
/// would outlaw its reporting mechanism.
const PANIC_ALLOWED_PREFIX: &str = "crates/lockrank/";

/// Runs every rule on one file.
pub fn check_file(rel_path: &str, file: &SourceFile, kind: FileKind) -> Vec<Violation> {
    let mut out = Vec::new();
    ordering_comment(rel_path, file, kind, &mut out);
    if kind == FileKind::Library {
        no_panic(rel_path, file, &mut out);
        no_as_cast(rel_path, file, &mut out);
        no_wallclock(rel_path, file, &mut out);
        no_bare_print(rel_path, file, &mut out);
        obs_names(rel_path, file, &mut out);
        span_names(rel_path, file, &mut out);
        profile_names(rel_path, file, &mut out);
    }
    out
}

/// Byte offsets of word-boundary occurrences of `needle` in `hay`.
fn find_words<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    hay.match_indices(needle).filter_map(move |(pos, _)| {
        let before_ok = hay[..pos].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = hay[pos + needle.len()..].chars().next().is_none_or(|c| !is_ident(c));
        (before_ok && after_ok).then_some(pos)
    })
}

/// Rule 1: every atomic `Ordering::` use needs an `// ordering:` comment on
/// the same line or within the three lines above it. The comparison enum's
/// `Ordering::Less/Equal/Greater` are ignored. In test-like files the rule
/// applies even inside `#[test]` functions.
fn ordering_comment(rel_path: &str, file: &SourceFile, kind: FileKind, out: &mut Vec<Violation>) {
    const ATOMIC_VARIANTS: [&str; 5] = [
        "Ordering::Relaxed",
        "Ordering::SeqCst",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test && kind == FileKind::Library {
            continue;
        }
        let Some(variant) = ATOMIC_VARIANTS.iter().find(|v| line.code.contains(**v)) else {
            continue;
        };
        let justified = (idx.saturating_sub(3)..=idx)
            .any(|j| file.lines[j].comment.trim_start().starts_with("ordering:"));
        if !justified {
            out.push(Violation {
                rule: "ordering-comment",
                file: rel_path.to_owned(),
                line: idx + 1,
                message: format!("{variant} without an `// ordering:` justification comment"),
            });
        }
    }
}

/// Rule 2: no `.unwrap()` / `.expect(` / `panic!` in non-test library code.
fn no_panic(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if rel_path.starts_with(PANIC_ALLOWED_PREFIX) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in [".unwrap()", ".expect(", "panic!"] {
            for _ in line.code.match_indices(pat) {
                out.push(Violation {
                    rule: "no-panic",
                    file: rel_path.to_owned(),
                    line: idx + 1,
                    message: format!("`{pat}` in non-test library code"),
                });
            }
        }
    }
}

/// Rule 3: no bare `as` casts in the hot-path crates — numeric narrowing in
/// the stream/engine/net data planes must use `From`/`TryFrom` or a named
/// helper so truncation is visible. `use ... as alias` imports are exempt.
fn no_as_cast(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if !AS_CAST_CRATES.iter().any(|c| rel_path.starts_with(c)) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for _ in find_words(&line.code, "as") {
            out.push(Violation {
                rule: "no-as-cast",
                file: rel_path.to_owned(),
                line: idx + 1,
                message: "bare `as` cast in a hot-path crate".to_owned(),
            });
        }
    }
}

/// Rule 4: wall-clock reads and sleeps are confined to the observability
/// clock module.
fn no_wallclock(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if WALLCLOCK_ALLOWED.contains(&rel_path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["Instant::now", "SystemTime::now", "thread::sleep"] {
            if line.code.contains(pat) {
                out.push(Violation {
                    rule: "no-wallclock",
                    file: rel_path.to_owned(),
                    line: idx + 1,
                    message: format!("`{pat}` outside {WALLCLOCK_ALLOWED:?}"),
                });
            }
        }
    }
}

/// Rule 5: no bare `println!`/`eprintln!` in library code — diagnostics go
/// through `cad3-obs` (counters, the flight recorder, or an exporter), so a
/// headless pipeline run is quiet and everything printed is also queryable.
/// `src/bin/` CLIs and the xtask crate (whose report *is* stdout) are
/// exempt; so are test-like trees via [`check_file`]'s kind gate.
fn no_bare_print(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if rel_path.starts_with(PRINT_ALLOWED_PREFIX) || rel_path.contains("/src/bin/") {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["println!", "eprintln!", "print!", "eprint!"] {
            for _ in find_words(&line.code, pat) {
                out.push(Violation {
                    rule: "no-bare-print",
                    file: rel_path.to_owned(),
                    line: idx + 1,
                    message: format!("`{pat}` in library code; use cad3-obs instead"),
                });
            }
        }
    }
}

/// Whether `name` follows the metric naming convention enforced across the
/// workspace: lowercase dot-separated segments of `[a-z0-9_]`, each starting
/// with a letter. Mirrors `cad3_obs::names::is_valid_name` (duplicated so
/// xtask stays dependency-free); `cad3-obs`'s own tests hold the two
/// definitions together via the catalogue.
fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg.starts_with(|c: char| c.is_ascii_lowercase())
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Rule 6: the name handed to a `cad3_obs` instrumentation macro must be a
/// string literal (so this pass can read it without name resolution) that
/// follows the lowercase dotted convention of `cad3_obs::names`. The obs
/// crate itself is exempt — its macro definitions forward `$name`
/// metavariables.
fn obs_names(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if rel_path.starts_with("crates/obs/") {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for mac in ["counter!", "gauge!", "histogram!", "span!"] {
            for pos in find_words(&line.code, mac) {
                let rest = line.code[pos + mac.len()..].trim_start();
                let Some(args) = rest.strip_prefix('(') else {
                    continue;
                };
                if !args.trim_start().starts_with('"') {
                    out.push(Violation {
                        rule: "obs-names",
                        file: rel_path.to_owned(),
                        line: idx + 1,
                        message: format!(
                            "first argument of `{mac}(...)` must be a string-literal metric name"
                        ),
                    });
                    continue;
                }
                // The lexer blanks literal bodies but keeps both quote
                // characters in the code channel, so the number of quotes
                // before the macro indexes the literal in `line.strings`.
                let literal_index = line.code[..pos].matches('"').count() / 2;
                let name = line.strings.get(literal_index).map_or("", String::as_str);
                if !is_metric_name(name) {
                    out.push(Violation {
                        rule: "obs-names",
                        file: rel_path.to_owned(),
                        line: idx + 1,
                        message: format!(
                            "metric name {name:?} breaks the lowercase dotted convention \
                             of cad3_obs::names"
                        ),
                    });
                }
            }
        }
    }
}

/// The canonical name catalogue, compiled in from the obs crate's source so
/// the lint and the runtime registry cannot drift: adding a span name means
/// adding its `pub const` to `cad3_obs::names`, which this rule then
/// accepts on the next build.
const NAMES_SOURCE: &str = include_str!("../../obs/src/names.rs");

/// One `pub const NAME: &str = "...";` of a names source.
struct Catalogued {
    /// 1-based line of the declaration.
    line: usize,
    /// The constant's identifier (`RSU_DETECT`).
    constant: String,
    /// Its string value (`rsu.detect`).
    name: String,
}

/// Every `pub const NAME: &str = "...";` declaration in `source`.
fn parse_catalogue(source: &str) -> Vec<Catalogued> {
    source
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            let rest = line.trim().strip_prefix("pub const ")?;
            let (constant, value) = rest.split_once(": &str = \"")?;
            let (name, _) = value.split_once('"')?;
            Some(Catalogued { line: idx + 1, constant: constant.to_owned(), name: name.to_owned() })
        })
        .collect()
}

/// String values of every `pub const NAME: &str = "...";` in
/// [`NAMES_SOURCE`], parsed once.
fn name_catalogue() -> &'static [String] {
    static CATALOGUE: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CATALOGUE.get_or_init(|| parse_catalogue(NAMES_SOURCE).into_iter().map(|c| c.name).collect())
}

/// Rule 7: span names are a closed set. The name handed to `span!` /
/// `trace_span!` must be a string literal *listed in the
/// `cad3_obs::names` catalogue* — stricter than `obs-names`, which only
/// checks the shape. Spans feed the trace assembler and the per-stage
/// attribution report, where an uncatalogued name is an unlabel-able
/// stage; metrics macros (`counter!` etc.) may still mint ad-hoc names
/// (e.g. the per-group lag gauges) and are out of scope here. The obs
/// crate is exempt: its macro definitions forward `$name` metavariables
/// and its unit tests use throwaway names.
fn span_names(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if rel_path.starts_with("crates/obs/") {
        return;
    }
    let catalogue = name_catalogue();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for mac in ["span!", "trace_span!", "trace_span_at!"] {
            for pos in find_words(&line.code, mac) {
                let rest = line.code[pos + mac.len()..].trim_start();
                let Some(args) = rest.strip_prefix('(') else {
                    continue;
                };
                // The name literal is on this line, or — for calls rustfmt
                // broke after the paren — leads the next line with code.
                let (name_idx, leading) = if args.trim().is_empty() {
                    let Some(next) = (idx + 1..file.lines.len())
                        .find(|&j| !file.lines[j].code.trim().is_empty())
                    else {
                        continue;
                    };
                    (next, file.lines[next].code.trim_start())
                } else {
                    (idx, args.trim_start())
                };
                if !leading.starts_with('"') {
                    out.push(Violation {
                        rule: "span-names",
                        file: rel_path.to_owned(),
                        line: idx + 1,
                        message: format!(
                            "first argument of `{mac}(...)` must be a string-literal span name"
                        ),
                    });
                    continue;
                }
                let name_line = &file.lines[name_idx];
                let prefix_len = name_line.code.len() - leading.len();
                let literal_index = name_line.code[..prefix_len].matches('"').count() / 2;
                let name = name_line.strings.get(literal_index).map_or("", String::as_str);
                if !catalogue.iter().any(|c| c == name) {
                    out.push(Violation {
                        rule: "span-names",
                        file: rel_path.to_owned(),
                        line: idx + 1,
                        message: format!(
                            "span name {name:?} is not in the cad3_obs::names catalogue"
                        ),
                    });
                }
            }
        }
    }
}

/// String entries of a single-line `pub const NAME: &[&str] = &["..."];`
/// array in [`NAMES_SOURCE`]. `THREAD_CLASSES` is kept as a one-line
/// literal list precisely so this parse stays trivial.
fn names_array(array: &str) -> Option<Vec<String>> {
    let prefix = format!("pub const {array}: &[&str] = &[");
    NAMES_SOURCE.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(&prefix)?;
        Some(rest.split('"').skip(1).step_by(2).map(str::to_owned).collect())
    })
}

/// Rule 8: the continuous profiler's vocabulary is a closed set, like the
/// span names it extends. Three call shapes are anchored when their
/// argument is a string literal:
///
/// - `profile_span!("name")` — profile-only stages must use catalogued
///   stage names, or the folded-stack paths grow unlabel-able frames;
/// - `.stage_totals("name")` — a report asserting on a stage nobody can
///   emit would pass vacuously or fail forever;
/// - `set_thread_class("class")` — thread classes root every folded path
///   and come from `cad3_obs::names::THREAD_CLASSES`.
///
/// Non-literal arguments are out of scope (runtime-assembled queries are
/// legitimate). The obs crate is exempt: its macro definitions forward
/// metavariables and its unit tests use throwaway names.
fn profile_names(rel_path: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if rel_path.starts_with("crates/obs/") {
        return;
    }
    let catalogue = name_catalogue();
    let classes = names_array("THREAD_CLASSES").unwrap_or_default();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (callee, vocabulary, vocab_label) in [
            ("profile_span!", catalogue, "cad3_obs::names catalogue"),
            ("stage_totals", catalogue, "cad3_obs::names catalogue"),
            ("set_thread_class", &classes[..], "cad3_obs::names::THREAD_CLASSES"),
        ] {
            let word = callee.trim_end_matches('!');
            for pos in find_words(&line.code, word) {
                let mut after = &line.code[pos + word.len()..];
                if callee.ends_with('!') {
                    let Some(rest) = after.strip_prefix('!') else { continue };
                    after = rest;
                }
                let Some(args) = after.trim_start().strip_prefix('(') else { continue };
                let leading = args.trim_start();
                if !leading.starts_with('"') {
                    continue; // non-literal arguments are out of scope
                }
                let prefix_len = line.code.len() - leading.len();
                let literal_index = line.code[..prefix_len].matches('"').count() / 2;
                let name = line.strings.get(literal_index).map_or("", String::as_str);
                if !vocabulary.iter().any(|c| c == name) {
                    out.push(Violation {
                        rule: "profile-names",
                        file: rel_path.to_owned(),
                        line: idx + 1,
                        message: format!("`{callee}` name {name:?} is not in the {vocab_label}"),
                    });
                }
            }
        }
    }
}

/// The workspace-level half of `obs-names`: every catalogued name needs an
/// emitter. A name counts as emitted when its string literal, or its
/// constant as `names::NAME`, appears in the non-test code of a library
/// file (`files`: the lexed `src/` trees) other than the names source
/// itself. A name nobody emits is a dashboard row and a `# HELP` line that stay
/// empty forever — what is left behind when an emitter is deleted without
/// its name. Invoked directly by `lint`, not per file, since the findings
/// anchor to the names source.
pub fn check_name_emitters(files: &[(&str, SourceFile)]) -> Vec<Violation> {
    unemitted_names(NAMES_SOURCE, files)
}

/// [`check_name_emitters`] over an explicit names source.
fn unemitted_names(names_source: &str, files: &[(&str, SourceFile)]) -> Vec<Violation> {
    const NAMES_REL: &str = "crates/obs/src/names.rs";
    let mut literals = std::collections::HashSet::new();
    let mut constants = std::collections::HashSet::new();
    for (rel_path, file) in files {
        if *rel_path == NAMES_REL {
            continue;
        }
        for line in file.lines.iter().filter(|l| !l.in_test) {
            literals.extend(line.strings.iter().map(String::as_str));
            for (pos, _) in line.code.match_indices("names::") {
                let rest = &line.code[pos + "names::".len()..];
                let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                constants.insert(&rest[..end.unwrap_or(rest.len())]);
            }
        }
    }
    parse_catalogue(names_source)
        .into_iter()
        .filter(|c| !literals.contains(c.name.as_str()) && !constants.contains(c.constant.as_str()))
        .map(|c| Violation {
            rule: "obs-names",
            file: NAMES_REL.to_owned(),
            line: c.line,
            message: format!(
                "catalogued name {:?} ({}) has no emitter: neither the literal nor \
                 `names::{}` appears in non-test library code",
                c.name, c.constant, c.constant
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn violations_of(rule: &str, rel: &str, src: &str) -> Vec<Violation> {
        check_file(rel, &lex(src), FileKind::Library)
            .into_iter()
            .filter(|v| v.rule == rule)
            .collect()
    }

    #[test]
    fn ordering_without_comment_flagged() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(violations_of("ordering-comment", "crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn ordering_with_comment_above_passes() {
        let src = "fn f(a: &AtomicU64) {\n    // ordering: stats only\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(violations_of("ordering-comment", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let src = "fn f() -> Ordering { Ordering::Less }\n";
        assert!(violations_of("ordering-comment", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_library_flagged_but_not_in_tests() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
        let v = violations_of("no-panic", "crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0).min(x.unwrap_or(1)) }\n";
        assert!(violations_of("no-panic", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lockrank_crate_is_exempt_from_no_panic() {
        let src = "fn f() { panic!(\"lock misuse\"); }\n";
        assert!(violations_of("no-panic", "crates/lockrank/src/lib.rs", src).is_empty());
        assert_eq!(violations_of("no-panic", "crates/core/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn as_cast_only_flagged_in_hot_path_crates() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(violations_of("no-as-cast", "crates/stream/src/lib.rs", src).len(), 1);
        assert!(violations_of("no-as-cast", "crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn use_as_rename_is_exempt() {
        let src = "use std::sync::Mutex as StdMutex;\nfn f() {}\n";
        assert!(violations_of("no-as-cast", "crates/stream/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wallclock_flagged_outside_the_obs_clock() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(violations_of("no-wallclock", "crates/engine/src/executor.rs", src).len(), 1);
        assert!(violations_of("no-wallclock", "crates/obs/src/clock.rs", src).is_empty());
    }

    #[test]
    fn test_like_files_relax_panics_but_not_orderings() {
        let src = "#[test]\nfn t(a: &AtomicU64, x: Option<u8>) {\n\
                   x.unwrap();\n a.load(Ordering::SeqCst);\n}\n";
        let v = check_file("crates/core/tests/smoke.rs", &lex(src), FileKind::TestLike);
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
        assert_eq!(v.iter().filter(|v| v.rule == "ordering-comment").count(), 1, "{v:?}");
    }

    #[test]
    fn bare_print_flagged_in_library_code() {
        let src = "fn f() { println!(\"hi\"); eprintln!(\"warn\"); }\n";
        assert_eq!(violations_of("no-bare-print", "crates/bench/src/lib.rs", src).len(), 2);
    }

    #[test]
    fn print_exemptions_cover_bins_and_xtask() {
        let src = "fn main() { println!(\"report\"); }\n";
        assert!(violations_of("no-bare-print", "crates/bench/src/bin/exp_all.rs", src).is_empty());
        assert!(violations_of("no-bare-print", "crates/xtask/src/main.rs", src).is_empty());
    }

    #[test]
    fn writeln_to_a_sink_is_not_a_bare_print() {
        let src = "fn f(w: &mut dyn std::io::Write) { let _ = writeln!(w, \"x\"); }\n";
        assert!(violations_of("no-bare-print", "crates/obs/src/recorder.rs", src).is_empty());
    }

    #[test]
    fn obs_macro_with_catalogue_shaped_name_passes() {
        let src = "fn f() { cad3_obs::counter!(\"stream.broker.produce\").inc(); }\n";
        assert!(violations_of("obs-names", "crates/stream/src/broker.rs", src).is_empty());
    }

    #[test]
    fn obs_macro_with_bad_name_shape_flagged() {
        let src = "fn f() { cad3_obs::histogram!(\"Stream-Produce.NS\").observe(1); }\n";
        let v = violations_of("obs-names", "crates/stream/src/broker.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("lowercase dotted"), "{}", v[0].message);
    }

    #[test]
    fn obs_macro_with_non_literal_name_flagged() {
        let src = "fn f(name: &str) { cad3_obs::gauge!(name).set(1); }\n";
        let v = violations_of("obs-names", "crates/engine/src/batch.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("string-literal"), "{}", v[0].message);
    }

    #[test]
    fn obs_macro_second_literal_on_line_is_indexed_correctly() {
        let src = "fn f() { log(\"bad name\"); cad3_obs::span!(\"rsu.detect\", 3); }\n";
        assert!(violations_of("obs-names", "crates/core/src/rsu.rs", src).is_empty());
    }

    #[test]
    fn obs_crate_macro_definitions_are_exempt() {
        let src = "macro_rules! wrap { () => { $crate::span!($name, 0u64) }; }\n\
                   fn f(n: &str) { crate::counter!(n); }\n";
        assert!(violations_of("obs-names", "crates/obs/src/lib.rs", src).is_empty());
    }

    #[test]
    fn span_with_catalogued_name_passes() {
        let src = "fn f() { let _g = cad3_obs::span!(\"rsu.micro_batch\", 3); }\n";
        assert!(violations_of("span-names", "crates/core/src/rsu.rs", src).is_empty());
    }

    #[test]
    fn span_with_uncatalogued_name_flagged() {
        let src = "fn f() { let _g = cad3_obs::span!(\"rsu.mystery_stage\"); }\n";
        let v = violations_of("span-names", "crates/core/src/rsu.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("catalogue"), "{}", v[0].message);
    }

    #[test]
    fn trace_span_with_non_literal_name_flagged() {
        let src = "fn f(n: &str, c: &TraceContext) { cad3_obs::trace_span!(n, c, 0, 1, 2); }\n";
        let v = violations_of("span-names", "crates/core/src/latency.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("string-literal"), "{}", v[0].message);
    }

    #[test]
    fn trace_span_name_on_next_line_is_found() {
        let good = "fn f(c: &TraceContext) {\n    let s = cad3_obs::trace_span!(\n        \
                    \"net.dsrc.tx\",\n        c,\n        0,\n        1,\n        2\n    );\n}\n";
        assert!(violations_of("span-names", "crates/core/src/testbed.rs", good).is_empty());
        let bad = good.replace("net.dsrc.tx", "net.warp.tx");
        let v = violations_of("span-names", "crates/core/src/testbed.rs", &bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("net.warp.tx"), "{}", v[0].message);
    }

    #[test]
    fn obs_crate_and_tests_are_exempt_from_span_names() {
        let src = "fn f() { crate::span!(\"test.span.outer\"); }\n";
        assert!(violations_of("span-names", "crates/obs/src/span.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { cad3_obs::span!(\"ad.hoc\"); }\n}\n";
        assert!(violations_of("span-names", "crates/core/src/rsu.rs", in_test).is_empty());
    }

    #[test]
    fn catalogue_parses_the_obs_names_module() {
        let cat = name_catalogue();
        for expected in ["rsu.micro_batch", "vehicle.emit", "rsu.handover.fuse", "net.link.tx"] {
            assert!(cat.iter().any(|c| c == expected), "missing {expected}: {cat:?}");
        }
        assert!(cat.len() >= 40, "suspiciously small catalogue: {}", cat.len());
    }

    #[test]
    fn profile_span_with_catalogued_name_passes() {
        let src = "fn f() { let _g = cad3_obs::profile_span!(\"ml.nb.sweep\"); }\n";
        assert!(violations_of("profile-names", "crates/core/src/rsu.rs", src).is_empty());
    }

    #[test]
    fn profile_span_with_uncatalogued_name_flagged() {
        let src = "fn f() { let _g = cad3_obs::profile_span!(\"ml.mystery.pass\"); }\n";
        let v = violations_of("profile-names", "crates/core/src/rsu.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ml.mystery.pass"), "{}", v[0].message);
    }

    #[test]
    fn stage_totals_literal_is_anchored_to_the_catalogue() {
        let good = "fn f(s: &ProfileSnapshot) { let _ = s.stage_totals(\"rsu.detect\"); }\n";
        assert!(violations_of("profile-names", "crates/bench/src/lib.rs", good).is_empty());
        let bad = "fn f(s: &ProfileSnapshot) { let _ = s.stage_totals(\"rsu.ghost\"); }\n";
        let v = violations_of("profile-names", "crates/bench/src/lib.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        // Runtime-assembled names stay out of scope.
        let dynamic = "fn f(s: &ProfileSnapshot, n: &str) { let _ = s.stage_totals(n); }\n";
        assert!(violations_of("profile-names", "crates/bench/src/lib.rs", dynamic).is_empty());
    }

    #[test]
    fn thread_class_literal_is_anchored_to_the_class_list() {
        let good = "fn f() { cad3_obs::profile::set_thread_class(\"worker\"); }\n";
        assert!(violations_of("profile-names", "crates/engine/src/executor.rs", good).is_empty());
        let bad = "fn f() { cad3_obs::profile::set_thread_class(\"reactor\"); }\n";
        let v = violations_of("profile-names", "crates/engine/src/executor.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("THREAD_CLASSES"), "{}", v[0].message);
    }

    #[test]
    fn obs_crate_and_tests_are_exempt_from_profile_names() {
        let src = "fn f() { crate::profile_span!(\"anything.goes\"); }\n";
        assert!(violations_of("profile-names", "crates/obs/src/profile.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { \
                       cad3_obs::profile_span!(\"test.prof.x\"); }\n}\n";
        assert!(violations_of("profile-names", "crates/core/src/rsu.rs", in_test).is_empty());
    }

    #[test]
    fn thread_class_array_is_parsed_from_the_names_source() {
        let classes = names_array("THREAD_CLASSES").expect("class array");
        assert_eq!(classes, ["main", "worker"]);
        assert!(names_array("NOT_AN_ARRAY").is_none());
    }

    #[test]
    fn a_catalogued_name_without_an_emitter_is_flagged() {
        let names = "pub const A: &str = \"a.counted\";\n\
                     pub const B: &str = \"b.gauged\";\n\
                     pub const ORPHAN: &str = \"c.orphaned\";\n";
        let by_literal = lex("fn f() { cad3_obs::counter!(\"a.counted\").inc(); }\n");
        let by_constant = lex("fn g() { registry().gauge(cad3_obs::names::B).set(1); }\n");
        // Neither test code nor the names source itself is an emitter.
        let in_test =
            lex("#[cfg(test)]\nmod tests {\n    fn t() { counter!(\"c.orphaned\"); }\n}\n");
        let names_file = lex(names);
        let files = [
            ("crates/core/src/rsu.rs", by_literal),
            ("crates/obs/src/health.rs", by_constant),
            ("crates/core/src/testbed.rs", in_test),
            ("crates/obs/src/names.rs", names_file),
        ];
        let v = unemitted_names(names, &files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            (v[0].rule, v[0].file.as_str(), v[0].line),
            ("obs-names", "crates/obs/src/names.rs", 3)
        );
        assert!(v[0].message.contains("c.orphaned"), "{}", v[0].message);
    }

    #[test]
    fn test_like_ordering_accepts_justification() {
        let src = "#[test]\nfn t(a: &AtomicU64) {\n\
                   // ordering: observing the final value after join\n\
                   a.load(Ordering::SeqCst);\n}\n";
        let v = check_file("tests/end_to_end.rs", &lex(src), FileKind::TestLike);
        assert!(v.is_empty(), "{v:?}");
    }
}
