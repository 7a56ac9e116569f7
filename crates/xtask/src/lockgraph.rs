//! Workspace-wide lock-acquisition graph extraction and deadlock detection.
//!
//! The extractor walks every parsed function body and recovers, per
//! function: which lock sites it acquires directly (and whether the guard is
//! statement-scoped or `let`-bound), and which workspace functions it calls
//! while guards are live. Call targets are resolved cross-crate through a
//! symbol table; a fixpoint then closes each function's acquisition set over
//! its callees, and every `B acquired while A held` observation becomes an
//! edge `A → B` in the site graph. Tarjan's SCC algorithm finds true
//! lock-order cycles, and the observed edges are additionally checked
//! against the declared ranks in `lockranks.toml`, which catches
//! *single-sided* hierarchy inversions long before the reverse edge exists.
//!
//! # Site naming
//!
//! - a lock struct field: `crate::Struct::field`
//!   (e.g. `cad3_stream::Broker::topics`); a `Vec`/`HashMap` of locks is one
//!   site covering every element (`cad3_stream::SharedTopic::partitions` is
//!   all of a topic's per-partition mutexes);
//! - locks nested inside a locked collection get `.inner` (a
//!   `RwLock<HashMap<_, Arc<Mutex<T>>>>` field `reg` yields `reg` and
//!   `reg.inner` — the shape the broker's registry had before the sharded
//!   topic made the per-topic lock a sibling rather than a nested site);
//! - a long-lived local lock: `crate::Type::fn::local`.
//!
//! # Soundness envelope
//!
//! The analysis is syntactic and intentionally over- and under-approximates
//! in documented ways (see DESIGN.md): calls through trait objects, function
//! pointers and closure parameters are not resolved; a method call is only
//! followed when its name resolves to exactly one workspace function;
//! `#[cfg(test)]` code is skipped. Acquisitions it *does* see are tracked
//! through guard scopes, statement temporaries, aliases, collection
//! iteration and closure parameters.

use crate::parser::{self, ParsedFile};
use crate::tokens::{self, Tok, Token};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable check id (`lock-cycle`, `rank-violation`, ...).
    pub check: &'static str,
    /// Repo-relative file (or `lockranks.toml` for declaration findings).
    pub file: String,
    /// 1-based line, 0 when the finding has no specific line.
    pub line: usize,
    pub message: String,
}

/// One observed acquisition-order edge: `to` acquired while `from` held.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// The function (and call chain, if interprocedural) that witnesses it.
    pub via: String,
}

/// The extracted graph plus the findings of every check.
#[derive(Debug, Default)]
pub struct Analysis {
    pub sites: BTreeSet<String>,
    pub edges: Vec<Edge>,
    pub findings: Vec<Finding>,
    /// Functions analysed (for the summary line).
    pub fns: usize,
    /// Call sites recorded (function references excluded).
    pub calls_total: usize,
    /// Calls resolved to exactly one workspace function and followed.
    pub calls_resolved: usize,
    /// Calls matching more than one workspace function (not followed by the
    /// lock fixpoint; may-analyses follow all candidates).
    pub calls_ambiguous: usize,
}

// ---- lock shapes and bindings ----------------------------------------------

/// How a struct field (or annotated local) holds locks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The field is itself a lock; `inner` is true when another lock nests
    /// inside the guarded data (`RwLock<HashMap<_, Arc<Mutex<T>>>>`).
    Direct { inner: bool },
    /// The locks are elements of a plain collection (`Vec<Mutex<T>>`); the
    /// field is one site covering every element.
    Elem,
}

/// What a local name refers to during the body walk.
#[derive(Debug, Clone)]
enum Binding {
    /// A lockable object; `.lock()/.read()/.write()` acquires `site`.
    Lock { site: String, inner: Option<String> },
    /// A live guard; `elem` is the site of locks reachable through it.
    Guard { site: String, elem: Option<String> },
    /// A collection of locks; indexing/iterating yields elements of `elem`.
    Coll { elem: String },
}

/// Classifies a field type's token sequence.
/// The head type ident of a field declaration, looking through references,
/// path qualifiers and the transparent pointer wrappers (`Arc<Broker>`
/// names `Broker`; `Vec<Record>` names `Vec`, whose methods the std
/// stoplist already owns).
fn field_type_head(ty: &[Tok]) -> Option<String> {
    const TRANSPARENT: [&str; 3] = ["Arc", "Rc", "Box"];
    let mut i = 0;
    while i < ty.len() {
        match &ty[i] {
            Tok::Ident(s) => {
                if matches!(ty.get(i + 1), Some(Tok::PathSep)) {
                    i += 2;
                    continue;
                }
                if s == "dyn" || s == "mut" || TRANSPARENT.contains(&s.as_str()) {
                    i += 1;
                    continue;
                }
                return Some(s.clone());
            }
            _ => i += 1,
        }
    }
    None
}

fn classify(ty: &[Tok]) -> Option<Shape> {
    const COLLECTIONS: [&str; 4] = ["Vec", "VecDeque", "HashMap", "BTreeMap"];
    let first = ty.iter().position(|t| t.is_ident("Mutex") || t.is_ident("RwLock"))?;
    let behind_collection =
        ty[..first].iter().any(|t| COLLECTIONS.iter().any(|c| t.is_ident(c)) || t.is_punct('['));
    if behind_collection {
        Some(Shape::Elem)
    } else {
        let inner = ty[first + 1..].iter().any(|t| t.is_ident("Mutex") || t.is_ident("RwLock"));
        Some(Shape::Direct { inner })
    }
}

// ---- per-function facts ----------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CallKey {
    /// `receiver.name(..)` — resolved only if the name is workspace-unique.
    Method(String),
    /// `Type::name(..)` or `self.name(..)` (self type known).
    Qualified(String, String),
    /// `name(..)` — resolved against same-crate free functions first.
    Bare(String),
}

/// One recorded call (or function-reference argument) inside a body.
#[derive(Debug)]
pub(crate) struct Call {
    pub(crate) key: CallKey,
    /// Lock sites held at the call.
    pub(crate) held: Vec<String>,
    pub(crate) line: usize,
    /// A function *reference* passed as an argument (`.map(fnv1a)`,
    /// `Executor::run(.., job)`) rather than an invocation. Followed only
    /// by may-analyses (hotpaths); the lock fixpoint ignores these, since a
    /// plain variable argument can shadow a free function's name.
    pub(crate) is_ref: bool,
}

#[derive(Debug)]
pub(crate) struct FnFacts {
    pub(crate) key: String,
    pub(crate) crate_name: String,
    pub(crate) file: String,
    /// Directly acquired sites with their lines.
    pub(crate) direct: Vec<(String, usize)>,
    /// Calls with the held-site snapshot at the call.
    pub(crate) calls: Vec<Call>,
    /// `rank_scope!("...")` annotations seen in this function.
    pub(crate) annotations: Vec<(String, usize)>,
    /// Whether the function takes a `self` receiver — method calls only
    /// resolve to receiver-taking functions.
    pub(crate) has_self: bool,
    /// The body token stream (for effect scans layered on this extraction).
    pub(crate) body: Vec<Token>,
}

// ---- the body walker -------------------------------------------------------

struct Scope {
    bindings: HashMap<String, Binding>,
}

struct HeldEntry {
    site: String,
    /// Scope depth the entry dies with.
    scope: usize,
    /// Statement temporaries die at the next `;` as well.
    temp: bool,
    alive: bool,
}

struct PendingLet {
    names: Vec<String>,
    /// Scope depth of the `let` itself.
    depth: usize,
    /// `if let` / `while let` terminate at `{`, plain lets at `;`/`else`.
    cond: bool,
    ty_shape: Option<Shape>,
    /// Site and inner-elem of a tail `.lock()`-style acquisition.
    guard: Option<(String, Option<String>)>,
    elem_candidate: Option<String>,
    constructs_lock: bool,
    init_tokens: Vec<Tok>,
}

struct Walker<'a> {
    toks: &'a [Token],
    i: usize,
    scopes: Vec<Scope>,
    held: Vec<HeldEntry>,
    /// In-flight `let` statements, innermost last (initializers nest:
    /// `let t = { let g = ...; ... };` keeps both pending at once).
    pending_lets: Vec<PendingLet>,
    /// Bindings to install in the next opened scope (for-loop patterns).
    pending_scope_bindings: Vec<(String, Binding)>,
    /// For-loop pattern waiting for its body brace.
    for_names: Option<Vec<String>>,
    /// Element site of the most recent elem-yielding access (reset at `;`).
    recent_elem: Option<String>,
    /// Struct-literal shorthand merges: local name → field binding.
    merges: HashMap<String, Binding>,
    /// Lock fields of the surrounding impl type.
    self_fields: HashMap<String, (String, Shape)>,
    /// Declared head types of the surrounding impl type's fields, for
    /// qualifying `self.field.m()` calls.
    field_types: HashMap<String, String>,
    /// Prefix for local lock sites: `crate::Type::fn` / `crate::fn`.
    local_prefix: String,
    facts: &'a mut FnFacts,
    edges: &'a mut Vec<Edge>,
    /// Declaration points of local sites (for missing-rank messages).
    site_decls: &'a mut BTreeMap<String, (String, usize)>,
}

const KEYWORDS: [&str; 18] = [
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "break",
    "continue", "let", "mut", "ref", "fn", "self", "await",
];

impl Walker<'_> {
    fn run(&mut self) {
        self.scopes.push(Scope { bindings: HashMap::new() });
        while self.i < self.toks.len() {
            self.step();
        }
        self.pop_scope();
    }

    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i).map(|t| &t.tok)
    }

    fn line(&self, i: usize) -> usize {
        self.toks.get(i.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.bindings.get(name))
    }

    fn bind(&mut self, name: String, b: Binding) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.bindings.insert(name, b);
        }
    }

    fn held_sites(&self) -> Vec<String> {
        let mut out = Vec::new();
        for h in self.held.iter().filter(|h| h.alive) {
            if !out.contains(&h.site) {
                out.push(h.site.clone());
            }
        }
        out
    }

    fn push_scope(&mut self) {
        let mut scope = Scope { bindings: HashMap::new() };
        for (name, b) in self.pending_scope_bindings.drain(..) {
            scope.bindings.insert(name, b);
        }
        self.scopes.push(scope);
    }

    fn pop_scope(&mut self) {
        let depth = self.scopes.len();
        for h in &mut self.held {
            if h.scope >= depth {
                h.alive = false;
            }
        }
        self.scopes.pop();
    }

    fn release_temps(&mut self) {
        for h in &mut self.held {
            if h.temp {
                h.alive = false;
            }
        }
    }

    /// One dispatch step over the token at `self.i`.
    fn step(&mut self) {
        let line = self.line(self.i);
        match self.tok(self.i).cloned() {
            Some(Tok::Punct('{')) => {
                // An `if let`/`while let` initializer ends at its block.
                if self.pending_lets.last().is_some_and(|p| p.cond && p.depth == self.scopes.len())
                {
                    self.finalize_let();
                }
                if self.for_names.is_some() {
                    let names = self.for_names.take().unwrap_or_default();
                    if let Some(elem) = self.recent_elem.clone() {
                        for n in names {
                            self.pending_scope_bindings
                                .push((n, Binding::Lock { site: elem.clone(), inner: None }));
                        }
                    }
                    self.recent_elem = None;
                }
                self.push_scope();
                self.i += 1;
            }
            Some(Tok::Punct('}')) => {
                self.pop_scope();
                self.release_temps();
                self.i += 1;
            }
            Some(Tok::Punct(';')) => {
                if self.pending_lets.last().is_some_and(|p| !p.cond && p.depth == self.scopes.len())
                {
                    self.finalize_let();
                }
                self.release_temps();
                self.recent_elem = None;
                self.i += 1;
            }
            Some(Tok::Ident(kw)) if kw == "let" => {
                let cond = self
                    .i
                    .checked_sub(1)
                    .and_then(|j| self.tok(j))
                    .is_some_and(|t| t.is_ident("if") || t.is_ident("while"));
                self.start_let(cond);
            }
            Some(Tok::Ident(kw)) if kw == "else" => {
                if self.pending_lets.last().is_some_and(|p| !p.cond && p.depth == self.scopes.len())
                {
                    self.finalize_let();
                }
                self.i += 1;
            }
            Some(Tok::Ident(kw)) if kw == "for" => {
                self.start_for();
            }
            Some(Tok::Punct('|')) => {
                self.maybe_closure();
            }
            Some(Tok::Ident(name)) if name == "rank_scope" => {
                if self.tok(self.i + 1).is_some_and(|t| t.is_punct('!')) {
                    if let Some(Tok::Str(site)) = self.tok(self.i + 3) {
                        self.facts.annotations.push((site.clone(), line));
                        self.i += 5;
                        return;
                    }
                }
                self.i += 1;
            }
            Some(Tok::Ident(name))
                if matches!(name.as_str(), "lock" | "read" | "write")
                    && self.i > 0
                    && self.tok(self.i - 1).is_some_and(|t| t.is_punct('.'))
                    && self.tok(self.i + 1).is_some_and(|t| t.is_punct('('))
                    && self.tok(self.i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                self.acquisition(line);
            }
            Some(Tok::Ident(name)) if tokens::call_paren(self.toks, self.i).is_some() => {
                let paren = tokens::call_paren(self.toks, self.i).unwrap_or(self.i + 1);
                self.call_site(&name, line, paren);
            }
            Some(Tok::Ident(name)) => {
                // Inside a `for` header, a bare reference to an
                // element-carrying binding or `self.field` collection sets
                // the element the loop variable will bind to.
                if self.for_names.is_some() {
                    if name == "self" && self.tok(self.i + 1).is_some_and(|t| t.is_punct('.')) {
                        if let Some(Tok::Ident(f)) = self.tok(self.i + 2).cloned() {
                            if let Some((site, shape)) = self.self_fields.get(&f) {
                                let elem = match shape {
                                    Shape::Elem => Some(site.clone()),
                                    Shape::Direct { inner: true } => Some(format!("{site}.inner")),
                                    Shape::Direct { inner: false } => None,
                                };
                                if let Some(e) = elem {
                                    self.recent_elem = Some(e);
                                }
                            }
                        }
                    } else if !self.tok(self.i + 1).is_some_and(|t| t.is_punct('(')) {
                        if let Some(e) = self.elem_of_name(&name) {
                            self.recent_elem = Some(e);
                        }
                    }
                }
                let constructs = matches!(name.as_str(), "Mutex" | "RwLock")
                    && matches!(self.tok(self.i + 1), Some(Tok::PathSep))
                    && self.tok(self.i + 2).is_some_and(|t| t.is_ident("new"));
                if constructs {
                    if let Some(p) = self.pending_lets.last_mut() {
                        p.constructs_lock = true;
                    }
                }
                self.record_init_token();
                self.i += 1;
            }
            Some(_) => {
                self.record_init_token();
                self.i += 1;
            }
            None => self.i = self.toks.len(),
        }
    }

    fn record_init_token(&mut self) {
        if let (Some(p), Some(t)) = (self.pending_lets.last_mut(), self.toks.get(self.i)) {
            p.init_tokens.push(t.tok.clone());
        }
    }

    /// The element site reachable through `name`, if any.
    fn elem_of_name(&self, name: &str) -> Option<String> {
        match self.lookup(name)? {
            Binding::Guard { elem: Some(e), .. } => Some(e.clone()),
            Binding::Coll { elem } => Some(elem.clone()),
            Binding::Lock { inner: Some(e), .. } => Some(e.clone()),
            _ => None,
        }
    }

    /// `let` through its pattern and type annotation, leaving `self.i` at
    /// the start of the initializer (or at the terminator for `let x;`).
    fn start_let(&mut self, cond: bool) {
        self.i += 1; // let
        let mut names = Vec::new();
        let mut ty_shape = None;
        // Pattern: idents not followed by `(`/`::`/`!`, until `=`/`;`/`:`.
        loop {
            match self.tok(self.i).cloned() {
                Some(Tok::Ident(s)) => {
                    let callish = self.tok(self.i + 1).is_some_and(|t| {
                        t.is_punct('(') || matches!(t, Tok::PathSep) || t.is_punct('!')
                    });
                    if !callish && !KEYWORDS.contains(&s.as_str()) && s != "_" {
                        names.push(s);
                    }
                    self.i += 1;
                }
                Some(Tok::Punct(':')) => {
                    // Type annotation up to `=` at angle/paren depth 0.
                    self.i += 1;
                    let mut ty = Vec::new();
                    let mut angle = 0i32;
                    let mut group = 0i32;
                    while let Some(t) = self.tok(self.i) {
                        match t {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct('(') | Tok::Punct('[') => group += 1,
                            Tok::Punct(')') | Tok::Punct(']') => group -= 1,
                            Tok::Punct('=') | Tok::Punct(';') if angle == 0 && group == 0 => break,
                            _ => {}
                        }
                        ty.push(t.clone());
                        self.i += 1;
                    }
                    ty_shape = classify(&ty);
                }
                Some(Tok::Punct('=')) => {
                    self.i += 1;
                    break;
                }
                Some(Tok::Punct(';')) | None => break,
                Some(_) => self.i += 1,
            }
        }
        self.pending_lets.push(PendingLet {
            names,
            depth: self.scopes.len(),
            cond,
            ty_shape,
            guard: None,
            elem_candidate: None,
            constructs_lock: false,
            init_tokens: Vec::new(),
        });
    }

    /// Applies the collected initializer evidence to the let's names.
    fn finalize_let(&mut self) {
        let Some(p) = self.pending_lets.pop() else { return };
        let binding: Option<Binding> = if let Some((site, elem)) = p.guard {
            Some(Binding::Guard { site, elem })
        } else if p.constructs_lock && p.names.iter().any(|n| self.merges.contains_key(n)) {
            p.names.iter().find_map(|n| self.merges.get(n)).cloned()
        } else if let Some(shape) = p.ty_shape {
            let name = p.names.first().cloned().unwrap_or_default();
            let site = format!("{}::{}", self.local_prefix, name);
            let decl = (self.facts.file.clone(), self.line(self.i));
            self.site_decls.entry(site.clone()).or_insert(decl);
            match shape {
                Shape::Elem => Some(Binding::Coll { elem: site }),
                Shape::Direct { inner } => Some(Binding::Lock {
                    site: site.clone(),
                    inner: inner.then(|| format!("{site}.inner")),
                }),
            }
        } else if p.constructs_lock {
            let name = p.names.first().cloned().unwrap_or_default();
            let site = format!("{}::{}", self.local_prefix, name);
            let decl = (self.facts.file.clone(), self.line(self.i));
            self.site_decls.entry(site.clone()).or_insert(decl);
            Some(Binding::Lock { site, inner: None })
        } else if let Some(b) = self.alias_of(&p.init_tokens) {
            Some(b)
        } else {
            p.elem_candidate.map(|e| Binding::Lock { site: e, inner: None })
        };
        if let Some(b) = binding {
            for n in p.names {
                self.bind(n, b.clone());
            }
        }
    }

    /// Resolves small alias initializers: `x`, `&x`, `&mut x`,
    /// `Arc::clone(&x)`, `x.clone()`, `&self.field`.
    fn alias_of(&self, init: &[Tok]) -> Option<Binding> {
        let mut toks: Vec<&Tok> = init
            .iter()
            .filter(|t| {
                !(t.is_punct('&')
                    || t.is_ident("mut")
                    || t.is_ident("Arc")
                    || matches!(t, Tok::PathSep)
                    || t.is_ident("clone")
                    || t.is_punct('(')
                    || t.is_punct(')'))
            })
            .collect();
        // Trailing `.clone()` leaves a dangling dot after the filter.
        while toks.last().is_some_and(|t| t.is_punct('.')) {
            toks.pop();
        }
        match toks.as_slice() {
            [Tok::Ident(n)] if n != "self" => self.lookup(n).cloned(),
            [Tok::Ident(s), Tok::Punct('.'), Tok::Ident(f)] if s == "self" => {
                let (site, shape) = self.self_fields.get(f)?;
                Some(match shape {
                    Shape::Elem => Binding::Coll { elem: site.clone() },
                    Shape::Direct { inner } => Binding::Lock {
                        site: site.clone(),
                        inner: inner.then(|| format!("{site}.inner")),
                    },
                })
            }
            _ => None,
        }
    }

    /// `for PAT in EXPR {` — collect the pattern, scan on; the bindings are
    /// installed when the body brace opens (using `recent_elem`).
    fn start_for(&mut self) {
        self.i += 1; // for
        let mut names = Vec::new();
        while let Some(t) = self.tok(self.i) {
            if t.is_ident("in") {
                self.i += 1;
                break;
            }
            if let Tok::Ident(s) = t {
                let callish = self
                    .tok(self.i + 1)
                    .is_some_and(|t| t.is_punct('(') || matches!(t, Tok::PathSep));
                if !callish && !KEYWORDS.contains(&s.as_str()) && s != "_" {
                    names.push(s.clone());
                }
            }
            self.i += 1;
        }
        self.recent_elem = None;
        self.for_names = Some(names);
    }

    /// Closure parameter binding: if the closure follows an elem-yielding
    /// chain (`guard.iter().map(|(k, v)| ...)`), its parameters are locks of
    /// that element site.
    fn maybe_closure(&mut self) {
        let starts_closure = self.i == 0
            || self.tok(self.i - 1).is_some_and(|t| {
                t.is_punct('(')
                    || t.is_punct(',')
                    || t.is_punct('=')
                    || t.is_punct('{')
                    || t.is_ident("move")
                    || matches!(t, Tok::FatArrow)
            });
        if !starts_closure {
            self.record_init_token();
            self.i += 1;
            return;
        }
        self.i += 1; // opening |
        let mut names = Vec::new();
        let mut in_type = false;
        while let Some(t) = self.tok(self.i) {
            if t.is_punct('|') {
                self.i += 1;
                break;
            }
            match t {
                Tok::Punct(':') => in_type = true,
                Tok::Punct(',') => in_type = false,
                Tok::Ident(s) if !in_type && !KEYWORDS.contains(&s.as_str()) && s != "_" => {
                    names.push(s.clone());
                }
                _ => {}
            }
            self.i += 1;
        }
        if let Some(elem) = self.recent_elem.clone() {
            for n in names {
                self.bind(n, Binding::Lock { site: elem.clone(), inner: None });
            }
        }
    }

    /// Walks the receiver chain backwards from the token before the `.`.
    /// Returns the segments in source order; `None` marks an index `[..]`.
    fn receiver_chain(&self, dot: usize) -> Option<Vec<Option<String>>> {
        let mut chain: Vec<Option<String>> = Vec::new();
        let mut j = dot.checked_sub(1)?;
        loop {
            match self.tok(j)? {
                Tok::Punct(']') => {
                    let mut depth = 1i32;
                    loop {
                        j = j.checked_sub(1)?;
                        match self.tok(j)? {
                            Tok::Punct(']') => depth += 1,
                            Tok::Punct('[') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    chain.push(None);
                    j = j.checked_sub(1)?;
                }
                Tok::Ident(s) => {
                    chain.push(Some(s.clone()));
                    if j >= 1 && self.tok(j - 1).is_some_and(|t| t.is_punct('.')) {
                        j = j.checked_sub(2)?;
                    } else {
                        break;
                    }
                }
                _ => return None,
            }
        }
        chain.reverse();
        Some(chain)
    }

    /// Resolves a receiver chain to (site, elem-through-guard).
    fn resolve_receiver(&self, chain: &[Option<String>]) -> Option<(String, Option<String>)> {
        match chain {
            [Some(s), Some(f)] | [Some(s), Some(f), None] if s == "self" => {
                let (site, shape) = self.self_fields.get(f.as_str())?;
                match shape {
                    Shape::Direct { inner } => {
                        Some((site.clone(), inner.then(|| format!("{site}.inner"))))
                    }
                    Shape::Elem => Some((site.clone(), None)),
                }
            }
            [Some(n)] => match self.lookup(n)? {
                Binding::Lock { site, inner } => Some((site.clone(), inner.clone())),
                _ => None,
            },
            [Some(n), None] => match self.lookup(n)? {
                Binding::Coll { elem } => Some((elem.clone(), None)),
                Binding::Guard { elem: Some(e), .. } => Some((e.clone(), None)),
                Binding::Lock { inner: Some(e), .. } => Some((e.clone(), None)),
                _ => None,
            },
            _ => None,
        }
    }

    /// A resolved `.lock()/.read()/.write()` acquisition at `self.i`.
    fn acquisition(&mut self, line: usize) {
        let resolved = self.receiver_chain(self.i - 1).and_then(|c| self.resolve_receiver(&c));
        let Some((site, elem)) = resolved else {
            self.i += 3; // name ( )
            return;
        };
        for from in self.held_sites() {
            self.edges.push(Edge {
                from,
                to: site.clone(),
                file: self.facts.file.clone(),
                line,
                via: self.facts.key.clone(),
            });
        }
        self.facts.direct.push((site.clone(), line));
        // `let g = chain.lock();` binds a guard living at the let's scope;
        // anything longer (`.lock().take()`) is a statement temporary.
        let is_let_tail = !self.pending_lets.is_empty()
            && self.tok(self.i + 3).is_none_or(|t| t.is_punct(';') || t.is_ident("else"));
        if is_let_tail {
            let depth = self.pending_lets.last().map_or(self.scopes.len(), |p| p.depth);
            if let Some(p) = self.pending_lets.last_mut() {
                p.guard = Some((site.clone(), elem));
            }
            self.held.push(HeldEntry { site, scope: depth, temp: false, alive: true });
        } else {
            self.held.push(HeldEntry { site, scope: self.scopes.len(), temp: true, alive: true });
        }
        self.i += 3;
    }

    /// Any `name(` that is not an acquisition: record the call (for the
    /// interprocedural closure), track element accesses, handle `drop`.
    fn call_site(&mut self, name: &str, line: usize, paren: usize) {
        const ELEM_ACCESS: [&str; 9] = [
            "get",
            "get_mut",
            "iter",
            "iter_mut",
            "values",
            "values_mut",
            "first",
            "last",
            "entry",
        ];
        let is_macro = self.tok(self.i + 1).is_some_and(|t| t.is_punct('!'));
        let after_dot = self.i > 0 && self.tok(self.i - 1).is_some_and(|t| t.is_punct('.'));
        let after_path = self.i > 0 && matches!(self.tok(self.i - 1), Some(Tok::PathSep));
        if is_macro {
            self.record_init_token();
            self.i += 1;
            return;
        }
        if after_dot {
            if ELEM_ACCESS.contains(&name) {
                if let Some(elem) =
                    self.receiver_chain(self.i - 1).and_then(|c| self.resolve_receiver_elem(&c))
                {
                    self.recent_elem = Some(elem.clone());
                    if let Some(p) = self.pending_lets.last_mut() {
                        p.elem_candidate = Some(elem);
                    }
                }
            }
            let key = match self.receiver_chain(self.i - 1).as_deref() {
                Some([Some(s)]) if s == "self" => {
                    CallKey::Qualified(self.local_self_ty(), name.to_owned())
                }
                // `self.field.m()` with a declared field type is as precise
                // as a qualified call — no name-union over other `m`s.
                Some([Some(s), Some(f)]) if s == "self" && self.field_types.contains_key(f) => {
                    CallKey::Qualified(self.field_types[f.as_str()].clone(), name.to_owned())
                }
                _ => match self.macro_receiver(self.i - 1) {
                    Some(ty) => CallKey::Qualified(ty, name.to_owned()),
                    None => CallKey::Method(name.to_owned()),
                },
            };
            self.push_call(key, line, false);
        } else if after_path {
            if let Some(Tok::Ident(ty)) = self.i.checked_sub(2).and_then(|j| self.tok(j)) {
                // `Self::f()` resolves against the surrounding impl type.
                let ty = if ty == "Self" { self.local_self_ty() } else { ty.clone() };
                self.push_call(CallKey::Qualified(ty, name.to_owned()), line, false);
            }
        } else if !KEYWORDS.contains(&name) {
            if name == "drop" {
                if let Some(Tok::Ident(arg)) = self.tok(paren + 1).cloned() {
                    if self.tok(paren + 2).is_some_and(|t| t.is_punct(')')) {
                        self.release_guard_of(&arg);
                    }
                }
            }
            self.push_call(CallKey::Bare(name.to_owned()), line, false);
        }
        self.ref_args(paren, line);
        self.record_init_token();
        self.i += 1;
    }

    fn push_call(&mut self, key: CallKey, line: usize, is_ref: bool) {
        self.facts.calls.push(Call { key, held: self.held_sites(), line, is_ref });
    }

    /// Scans a call's argument list for function *references* passed by
    /// name — `exec.run(parts, fnv1a)` or `.map(Record::size)` — and records
    /// them as `is_ref` calls. Whether a bare name is a function or a local
    /// variable is decided at resolution time, so these only feed
    /// may-analyses (the lock fixpoint skips them).
    fn ref_args(&mut self, paren: usize, line: usize) {
        let mut j = paren + 1;
        let mut depth = 1i32;
        // `boundary` marks the start of a top-level argument.
        let mut boundary = true;
        let mut refs: Vec<CallKey> = Vec::new();
        while depth > 0 {
            let Some(t) = self.tok(j) else { break };
            match t {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                    depth += 1;
                    boundary = false;
                }
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct(',') if depth == 1 => boundary = true,
                // `&` is transparent: `f(&helper)` still references helper.
                Tok::Punct('&') => {}
                Tok::Ident(arg) if depth == 1 && boundary => {
                    boundary = false;
                    let arg = arg.clone();
                    let ends_arg =
                        |t: Option<&Tok>| t.is_none_or(|t| t.is_punct(',') || t.is_punct(')'));
                    if KEYWORDS.contains(&arg.as_str()) {
                        // fall through
                    } else if ends_arg(self.tok(j + 1)) {
                        refs.push(CallKey::Bare(arg));
                    } else if matches!(self.tok(j + 1), Some(Tok::PathSep)) {
                        if let Some(Tok::Ident(m)) = self.tok(j + 2) {
                            if ends_arg(self.tok(j + 3)) {
                                let ty = if arg == "Self" { self.local_self_ty() } else { arg };
                                refs.push(CallKey::Qualified(ty, m.clone()));
                            }
                        }
                    }
                }
                _ => boundary = false,
            }
            j += 1;
        }
        for key in refs {
            self.push_call(key, line, true);
        }
    }

    /// The element site a receiver yields when iterated/indexed, if any.
    fn resolve_receiver_elem(&self, chain: &[Option<String>]) -> Option<String> {
        match chain {
            [Some(s), Some(f)] if s == "self" => {
                let (site, shape) = self.self_fields.get(f.as_str())?;
                match shape {
                    Shape::Elem => Some(site.clone()),
                    Shape::Direct { inner: true } => Some(format!("{site}.inner")),
                    Shape::Direct { inner: false } => None,
                }
            }
            [Some(n)] => self.elem_of_name(n),
            _ => None,
        }
    }

    fn release_guard_of(&mut self, name: &str) {
        let Some(Binding::Guard { site, .. }) = self.lookup(name).cloned() else { return };
        if let Some(idx) = self.held.iter().rposition(|h| h.alive && h.site == site) {
            self.held[idx].alive = false;
        }
    }

    /// The handle type behind a `name!(..).method()` receiver: the obs
    /// macros hand back their metric type (`counter!` → `Counter`,
    /// `trace_span!` → `TraceSpan`), so the method call can be qualified
    /// instead of name-unioned across every `observe`/`incr` in the tree.
    fn macro_receiver(&self, dot: usize) -> Option<String> {
        let mut k = dot.checked_sub(1)?;
        if !self.tok(k)?.is_punct(')') {
            return None;
        }
        let mut depth = 0i32;
        loop {
            match self.tok(k)? {
                t if t.is_punct(')') => depth += 1,
                t if t.is_punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k = k.checked_sub(1)?;
        }
        let bang = k.checked_sub(1)?;
        if !self.tok(bang)?.is_punct('!') {
            return None;
        }
        match self.tok(bang.checked_sub(1)?)? {
            Tok::Ident(m) => Some(
                m.split('_')
                    .map(|seg| {
                        let mut c = seg.chars();
                        c.next().map_or_else(String::new, |f| f.to_uppercase().chain(c).collect())
                    })
                    .collect(),
            ),
            _ => None,
        }
    }

    /// The `Type` in this function's `crate::Type::fn` key, for resolving
    /// `self.method()` calls; empty (matches nothing) for free functions.
    fn local_self_ty(&self) -> String {
        let segs: Vec<&str> = self.local_prefix.split("::").collect();
        if segs.len() >= 3 {
            segs[segs.len() - 2].to_owned()
        } else {
            String::new()
        }
    }
}

// ---- workspace assembly ----------------------------------------------------

/// One source file handed to the analyzer.
pub struct SourceInput<'a> {
    /// Crate name, underscored (`cad3_stream`).
    pub crate_name: &'a str,
    /// Repo-relative path (for findings).
    pub path: &'a str,
    pub text: &'a str,
}

/// Everything one pass over the sources yields, shared by the lock-graph
/// checks, the hot-path purity analysis (`crate::hotpaths`) and the
/// determinism analysis (`crate::determinism`).
#[derive(Debug, Default)]
pub(crate) struct Extraction {
    pub(crate) facts: Vec<FnFacts>,
    /// Intra-procedural acquisition-order edges observed during the walk.
    pub(crate) edges: Vec<Edge>,
    /// Declaration points of lock sites (for missing-rank messages).
    pub(crate) site_decls: BTreeMap<String, (String, usize)>,
    /// Non-test `// <stem>-exempt:` comment sites, of every stem.
    pub(crate) exempts: Vec<Exempt>,
    /// Struct name → fields whose declared type mentions `HashMap`/`HashSet`
    /// anywhere (`RwLock<HashMap<..>>` counts), for hash-receiver typing in
    /// the determinism scan.
    pub(crate) hash_fields: HashMap<String, BTreeSet<String>>,
    /// Non-test functions walked.
    pub(crate) fns: usize,
}

/// One `// <stem>-exempt: reason` (all atoms) or
/// `// <stem>-exempt(panic, ...): reason` (listed atoms only) comment.
#[derive(Debug)]
pub(crate) struct Exempt {
    /// Which contract pass it addresses (`hotpath`, `determinism`).
    pub(crate) stem: String,
    pub(crate) file: String,
    /// 1-based line of the comment.
    pub(crate) line: usize,
    /// Effect atoms the exemption targets; empty means every atom. An entry
    /// without a `:` (e.g. `lock`) covers every rank of that class.
    pub(crate) atoms: Vec<String>,
}

/// Cross-crate call-resolution symbol table over extracted functions.
pub(crate) struct SymbolTable {
    by_qualified: HashMap<(String, String), Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
    /// Like `by_name`, but only functions with a `self` receiver — the
    /// candidate set for `recv.name()` method calls. An associated function
    /// (the executor's `Pool::start`) never unions with a same-named method
    /// (`Road::start`): it cannot be the target of a dot call.
    method_by_name: HashMap<String, Vec<usize>>,
    free_by_crate: HashMap<(String, String), Vec<usize>>,
    free_by_name: HashMap<String, Vec<usize>>,
}

impl SymbolTable {
    pub(crate) fn new(facts: &[FnFacts]) -> SymbolTable {
        let mut t = SymbolTable {
            by_qualified: HashMap::new(),
            by_name: HashMap::new(),
            method_by_name: HashMap::new(),
            free_by_crate: HashMap::new(),
            free_by_name: HashMap::new(),
        };
        for (idx, f) in facts.iter().enumerate() {
            let mut parts = f.key.rsplitn(2, "::");
            let name = parts.next().unwrap_or_default().to_owned();
            let qualifier = parts.next().unwrap_or_default();
            t.by_name.entry(name.clone()).or_default().push(idx);
            if f.has_self {
                t.method_by_name.entry(name.clone()).or_default().push(idx);
            }
            if let Some((_, ty)) = qualifier.rsplit_once("::") {
                t.by_qualified.entry((ty.to_owned(), name)).or_default().push(idx);
            } else {
                t.free_by_crate.entry((f.crate_name.clone(), name.clone())).or_default().push(idx);
                t.free_by_name.entry(name).or_default().push(idx);
            }
        }
        t
    }

    /// Unique-only (must) resolution — what the lock fixpoint follows. A
    /// name matching more than one workspace function is not followed.
    pub(crate) fn resolve_unique(&self, key: &CallKey, crate_name: &str) -> Option<usize> {
        let unique = |v: Option<&Vec<usize>>| match v {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        };
        match key {
            CallKey::Qualified(ty, name) => {
                unique(self.by_qualified.get(&(ty.clone(), name.clone())))
            }
            // The same stoplist as the may-resolution below: the workspace's
            // `SharedTopic::len` (which takes every partition lock) is not
            // what a `Vec`'s `.len()` under a guard calls.
            CallKey::Method(name) if STD_METHODS.contains(&name.as_str()) => None,
            CallKey::Method(name) => unique(self.method_by_name.get(name)),
            CallKey::Bare(name) => unique(
                self.free_by_crate
                    .get(&(crate_name.to_owned(), name.clone()))
                    .or_else(|| self.by_name.get(name)),
            ),
        }
    }

    /// Union (may) resolution — every workspace function the call could
    /// reach, covering trait-method dispatch across implementors. Bare
    /// function *references* resolve against free functions only (a method
    /// name can coincide with a local variable passed by value), and
    /// [`STD_METHODS`] names are never cross-linked: a `.load(..)` is an
    /// atomic read, not whatever free `load` some crate exports.
    pub(crate) fn resolve_all(&self, key: &CallKey, crate_name: &str, is_ref: bool) -> Vec<usize> {
        let all = |v: Option<&Vec<usize>>| v.cloned().unwrap_or_default();
        match key {
            CallKey::Qualified(ty, name) => all(self.by_qualified.get(&(ty.clone(), name.clone()))),
            CallKey::Method(name) if STD_METHODS.contains(&name.as_str()) => Vec::new(),
            CallKey::Method(name) => all(self.method_by_name.get(name)),
            CallKey::Bare(name) => {
                // Same-crate free functions are precise; the cross-crate
                // fallback covers `use other::f; f()` and gets the same
                // stoplist guard as methods.
                if let Some(v) = self.free_by_crate.get(&(crate_name.to_owned(), name.clone())) {
                    return v.clone();
                }
                if !is_ref && STD_METHODS.contains(&name.as_str()) {
                    return Vec::new();
                }
                all(self.free_by_name.get(name))
            }
        }
    }
}

/// Ubiquitous `std` method names. A `.name(..)` call with one of these
/// names is charged as the std intrinsic by the effect scan instead of
/// being resolved to a same-named workspace function — following every
/// `.map(`/`.get(`/`.load(` across crates would weld the whole workspace
/// into one reachable blob and drown real findings. A workspace method
/// that shadows one of these names is deliberately *not* traversed; the
/// soundness envelope in DESIGN.md records this trade.
pub(crate) const STD_METHODS: &[&str] = &[
    // atomics / cells
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_max",
    "compare_exchange",
    "compare_exchange_weak",
    "get_or_init",
    // Option / Result / Iterator adapters
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "for_each",
    "find",
    "position",
    "any",
    "all",
    "zip",
    "chain",
    "enumerate",
    "skip",
    "rev",
    "take_while",
    "step_by",
    "next",
    "peek",
    "flatten",
    "copied",
    "cloned",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "last",
    // collections / slices / strings
    "get",
    "get_mut",
    "first",
    "first_mut",
    "last_mut",
    "insert",
    "remove",
    "swap_remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_front",
    "extend",
    "drain",
    "clear",
    "retain",
    "truncate",
    "reserve",
    "resize",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "entry",
    "keys",
    "values",
    "values_mut",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "windows",
    "chunks",
    "fill",
    "copy_from_slice",
    "split",
    "split_at",
    "split_once",
    "splitn",
    "rsplitn",
    "join",
    "concat",
    "trim",
    "trim_start",
    "trim_end",
    "lines",
    "chars",
    "bytes",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "parse",
    "clone",
    "take",
    "replace",
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    // conversions / borrows
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "as_deref",
    "borrow",
    "borrow_mut",
    "deref",
    "into",
    "from",
    "try_from",
    "try_into",
    "to_le_bytes",
    "to_be_bytes",
    "hash",
    "finish",
    "cmp",
    "eq",
    "partial_cmp",
    "total_cmp",
    // numerics
    "min",
    "max",
    "sum",
    "count",
    "abs",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "clamp",
    "powi",
    "powf",
    "ln",
    "log2",
    "exp",
    "mul_add",
    "wrapping_add",
    "wrapping_sub",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "rem_euclid",
    // sync / io / time
    "send",
    "recv",
    "recv_timeout",
    "try_recv",
    "lock",
    "try_lock",
    "read",
    "write",
    "wait",
    "notify_one",
    "notify_all",
    "flush",
    "sync_all",
    "elapsed",
    "duration_since",
    "saturating_duration_since",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
    "as_secs_f64",
    "subsec_nanos",
];

/// Parses an exempt comment: `<stem>-exempt: why` (all atoms) or
/// `<stem>-exempt(a, b): why` (listed atoms), the stem one lowercase word;
/// anything else (e.g. a prose mention of the marker) is not an exemption.
fn exempt_comment(comment: &str) -> Option<(&str, Vec<String>)> {
    let (stem, rest) = comment.split_once("-exempt")?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_lowercase()) {
        return None;
    }
    if rest.starts_with(':') {
        return Some((stem, Vec::new()));
    }
    let (inner, after) = rest.strip_prefix('(').and_then(|r| r.split_once(')'))?;
    if !after.trim_start().starts_with(':') {
        return None;
    }
    let atoms = inner.split(',').map(|a| a.trim().to_owned()).filter(|a| !a.is_empty()).collect();
    Some((stem, atoms))
}

/// Parses the sources and walks every non-test function, producing the raw
/// facts later passes interpret.
pub(crate) fn extract(sources: &[SourceInput<'_>]) -> Extraction {
    let mut ex = Extraction::default();
    let parsed: Vec<(&SourceInput<'_>, ParsedFile)> = sources
        .iter()
        .map(|s| {
            let lexed = crate::lexer::lex(s.text);
            for (idx, line) in lexed.lines.iter().enumerate() {
                let c = line.comment.trim_start();
                if line.in_test {
                    continue;
                }
                if let Some((stem, atoms)) = exempt_comment(c) {
                    ex.exempts.push(Exempt {
                        stem: stem.to_owned(),
                        file: s.path.to_owned(),
                        line: idx + 1,
                        atoms,
                    });
                }
            }
            (s, parser::parse(&tokens::tokenize(&lexed)))
        })
        .collect();

    // Struct lock fields → sites. Struct names are assumed workspace-unique
    // (DESIGN.md documents the restriction).
    let mut struct_fields: HashMap<String, HashMap<String, (String, Shape)>> = HashMap::new();
    let mut struct_field_types: HashMap<String, HashMap<String, String>> = HashMap::new();
    let site_decls = &mut ex.site_decls;
    for (src, file) in &parsed {
        for st in &file.structs {
            if st.in_test {
                continue;
            }
            let mut fields = HashMap::new();
            for f in &st.fields {
                if let Some(head) = field_type_head(&f.ty) {
                    struct_field_types
                        .entry(st.name.clone())
                        .or_default()
                        .insert(f.name.clone(), head);
                }
                if f.ty.iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet")) {
                    ex.hash_fields.entry(st.name.clone()).or_default().insert(f.name.clone());
                }
                if let Some(shape) = classify(&f.ty) {
                    let site = format!("{}::{}::{}", src.crate_name, st.name, f.name);
                    site_decls.insert(site.clone(), (src.path.to_owned(), f.line));
                    if let Shape::Direct { inner: true } = shape {
                        site_decls.insert(format!("{site}.inner"), (src.path.to_owned(), f.line));
                    }
                    fields.insert(f.name.clone(), (site, shape));
                }
            }
            if !fields.is_empty() {
                struct_fields.entry(st.name.clone()).or_default().extend(fields);
            }
        }
    }

    // Walk every non-test function.
    let mut all_facts: Vec<FnFacts> = Vec::new();
    for (src, file) in &parsed {
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            ex.fns += 1;
            let key = match &f.self_ty {
                Some(ty) => format!("{}::{}::{}", src.crate_name, ty, f.name),
                None => format!("{}::{}", src.crate_name, f.name),
            };
            let mut facts = FnFacts {
                key: key.clone(),
                crate_name: src.crate_name.to_owned(),
                file: src.path.to_owned(),
                direct: Vec::new(),
                calls: Vec::new(),
                annotations: Vec::new(),
                has_self: f.has_self,
                body: f.body.clone(),
            };
            let self_fields = f
                .self_ty
                .as_ref()
                .and_then(|ty| struct_fields.get(ty))
                .cloned()
                .unwrap_or_default();
            let field_types = f
                .self_ty
                .as_ref()
                .and_then(|ty| struct_field_types.get(ty))
                .cloned()
                .unwrap_or_default();
            let merges = struct_literal_merges(&f.body, &struct_fields);
            let mut w = Walker {
                toks: &f.body,
                i: 0,
                scopes: Vec::new(),
                held: Vec::new(),
                pending_lets: Vec::new(),
                pending_scope_bindings: Vec::new(),
                for_names: None,
                recent_elem: None,
                merges,
                self_fields,
                field_types,
                local_prefix: key.clone(),
                facts: &mut facts,
                edges: &mut ex.edges,
                site_decls: &mut *site_decls,
            };
            w.run();
            all_facts.push(facts);
        }
    }
    ex.facts = all_facts;
    ex
}

/// Runs the lock-graph checks over extracted facts.
pub fn analyze(sources: &[SourceInput<'_>], ranks: &BTreeMap<String, u64>) -> Analysis {
    let Extraction { facts: all_facts, mut edges, site_decls, fns, .. } = extract(sources);
    let symbols = SymbolTable::new(&all_facts);
    let mut analysis = Analysis { fns, ..Analysis::default() };

    // Call-resolution statistics for the report summary (fn-reference
    // operands are not call sites; they are counted by the may-analyses
    // that follow them).
    for f in &all_facts {
        for c in &f.calls {
            if c.is_ref {
                continue;
            }
            analysis.calls_total += 1;
            match symbols.resolve_all(&c.key, &f.crate_name, false).len() {
                0 => {}
                1 => analysis.calls_resolved += 1,
                _ => analysis.calls_ambiguous += 1,
            }
        }
    }

    // Transitive acquisition sets (fixpoint over the call graph).
    let mut star: Vec<BTreeSet<String>> =
        all_facts.iter().map(|f| f.direct.iter().map(|(s, _)| s.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for idx in 0..all_facts.len() {
            for c in &all_facts[idx].calls {
                if c.is_ref {
                    continue;
                }
                if let Some(callee) = symbols.resolve_unique(&c.key, &all_facts[idx].crate_name) {
                    if callee == idx {
                        continue;
                    }
                    let add: Vec<String> =
                        star[callee].iter().filter(|s| !star[idx].contains(*s)).cloned().collect();
                    if !add.is_empty() {
                        star[idx].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Interprocedural edges: sites a callee (transitively) acquires while
    // the caller holds a guard.
    for f in &all_facts {
        for c in &f.calls {
            if c.is_ref || c.held.is_empty() {
                continue;
            }
            if let Some(callee) = symbols.resolve_unique(&c.key, &f.crate_name) {
                for to in &star[callee] {
                    for from in &c.held {
                        edges.push(Edge {
                            from: from.clone(),
                            to: to.clone(),
                            file: f.file.clone(),
                            line: c.line,
                            via: format!("{} → {}", f.key, all_facts[callee].key),
                        });
                    }
                }
            }
        }
    }

    // Site registry: declared fields plus every acquired site.
    let mut sites: BTreeSet<String> = site_decls.keys().cloned().collect();
    for f in &all_facts {
        sites.extend(f.direct.iter().map(|(s, _)| s.clone()));
    }
    for e in &edges {
        sites.insert(e.from.clone());
        sites.insert(e.to.clone());
    }

    // Dedup edges (same ordered pair at the same source position).
    let mut seen = BTreeSet::new();
    edges.retain(|e| seen.insert((e.from.clone(), e.to.clone(), e.file.clone(), e.line)));

    // ---- checks ------------------------------------------------------------

    // 1. True cycles (Tarjan SCC; self-loops are recursive double-locks).
    for scc in tarjan(&sites, &edges) {
        let in_scc = |s: &String| scc.contains(s);
        let witnesses: Vec<&Edge> =
            edges.iter().filter(|e| in_scc(&e.from) && in_scc(&e.to)).collect();
        let is_cycle = scc.len() > 1 || witnesses.iter().any(|e| e.from == e.to);
        if !is_cycle {
            continue;
        }
        let first = witnesses.first();
        let detail: Vec<String> = witnesses
            .iter()
            .map(|e| format!("{} → {} at {}:{} (in {})", e.from, e.to, e.file, e.line, e.via))
            .collect();
        analysis.findings.push(Finding {
            check: "lock-cycle",
            file: first.map_or_else(String::new, |e| e.file.clone()),
            line: first.map_or(0, |e| e.line),
            message: format!(
                "lock-order cycle over {{{}}}: {}",
                scc.iter().cloned().collect::<Vec<_>>().join(", "),
                detail.join("; "),
            ),
        });
    }

    // 2. Declared-rank violations on observed edges (one-sided inversions).
    for e in &edges {
        if let (Some(&a), Some(&b)) = (ranks.get(&e.from), ranks.get(&e.to)) {
            if a >= b {
                analysis.findings.push(Finding {
                    check: "rank-violation",
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "{} (rank {b}) acquired while holding {} (rank {a}) in {} — \
                         ranks must strictly increase",
                        e.to, e.from, e.via
                    ),
                });
            }
        }
    }

    // 3/4. Rank table consistency with the discovered sites.
    for site in &sites {
        if !ranks.contains_key(site) {
            let (file, line) = site_decls.get(site).cloned().unwrap_or_default();
            analysis.findings.push(Finding {
                check: "missing-rank",
                file,
                line,
                message: format!(
                    "lock site {site} has no rank in lockranks.toml — \
                     run `cargo xtask analyze --emit-lockranks`"
                ),
            });
        }
    }
    for site in ranks.keys() {
        if !sites.contains(site) {
            analysis.findings.push(Finding {
                check: "stale-rank",
                file: "lockranks.toml".to_owned(),
                line: 0,
                message: format!(
                    "declared site {site} no longer exists in the workspace — \
                     remove it or regenerate with --emit-lockranks"
                ),
            });
        }
    }
    let mut by_rank: BTreeMap<u64, Vec<&String>> = BTreeMap::new();
    for (site, rank) in ranks {
        by_rank.entry(*rank).or_default().push(site);
    }
    for (rank, dup) in by_rank.iter().filter(|(_, v)| v.len() > 1) {
        analysis.findings.push(Finding {
            check: "duplicate-rank",
            file: "lockranks.toml".to_owned(),
            line: 0,
            message: format!(
                "rank {rank} is assigned to multiple sites: {}",
                dup.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            ),
        });
    }

    // 5. Witness annotation audit: every `rank_scope!` names a ranked site,
    // and every function that acquires a ranked site carries its witness.
    for f in &all_facts {
        let annotated: BTreeSet<&String> = f.annotations.iter().map(|(s, _)| s).collect();
        for (site, line) in &f.annotations {
            if !ranks.contains_key(site) {
                analysis.findings.push(Finding {
                    check: "unknown-annotation",
                    file: f.file.clone(),
                    line: *line,
                    message: format!(
                        "rank_scope!({site:?}) names a site not declared in lockranks.toml"
                    ),
                });
            }
            if !f.direct.iter().any(|(s, _)| s == site) {
                analysis.findings.push(Finding {
                    check: "unused-annotation",
                    file: f.file.clone(),
                    line: *line,
                    message: format!(
                        "rank_scope!({site:?}) in {} has no matching lock acquisition \
                         in the same function",
                        f.key
                    ),
                });
            }
        }
        let mut reported = BTreeSet::new();
        for (site, line) in &f.direct {
            if ranks.contains_key(site) && !annotated.contains(site) && reported.insert(site) {
                analysis.findings.push(Finding {
                    check: "unwitnessed-acquisition",
                    file: f.file.clone(),
                    line: *line,
                    message: format!(
                        "{} acquires {site} without a rank_scope!({site:?}) witness",
                        f.key
                    ),
                });
            }
        }
    }

    analysis.sites = sites;
    analysis.edges = edges;
    analysis
}

/// Struct-literal shorthand merges in one body: `Type { field, .. }` and
/// `Type { field: local, .. }` tie the local name to the field's lock site
/// (the `Latch { state, .. }` construction in `Executor::run`).
fn struct_literal_merges(
    body: &[Token],
    struct_fields: &HashMap<String, HashMap<String, (String, Shape)>>,
) -> HashMap<String, Binding> {
    let mut merges = HashMap::new();
    let mut i = 0usize;
    while i < body.len() {
        let (Some(Tok::Ident(name)), Some(open)) =
            (body.get(i).map(|t| &t.tok), body.get(i + 1).map(|t| &t.tok))
        else {
            i += 1;
            continue;
        };
        let Some(fields) = struct_fields.get(name) else {
            i += 1;
            continue;
        };
        if !open.is_punct('{') {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        let mut depth = 1i32;
        while j < body.len() && depth > 0 {
            match &body[j].tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Ident(f) if depth == 1 => {
                    if let Some((site, shape)) = fields.get(f) {
                        let binding = match shape {
                            Shape::Elem => Binding::Coll { elem: site.clone() },
                            Shape::Direct { inner } => Binding::Lock {
                                site: site.clone(),
                                inner: inner.then(|| format!("{site}.inner")),
                            },
                        };
                        match body.get(j + 1).map(|t| &t.tok) {
                            // `field,` / `field }` — shorthand init.
                            Some(t) if t.is_punct(',') || t.is_punct('}') => {
                                merges.insert(f.clone(), binding);
                            }
                            // `field: local` — the local carries the lock.
                            Some(t) if t.is_punct(':') => {
                                if let Some(Tok::Ident(local)) = body.get(j + 2).map(|t| &t.tok) {
                                    let ends = body
                                        .get(j + 3)
                                        .is_none_or(|t| t.tok.is_punct(',') || t.tok.is_punct('}'));
                                    if ends {
                                        merges.insert(local.clone(), binding);
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    merges
}

/// Tarjan's strongly-connected components over the site graph.
fn tarjan(sites: &BTreeSet<String>, edges: &[Edge]) -> Vec<BTreeSet<String>> {
    let names: Vec<&String> = sites.iter().collect();
    let index_of: HashMap<&String, usize> =
        names.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let n = names.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        if let (Some(&a), Some(&b)) = (index_of.get(&e.from), index_of.get(&e.to)) {
            adj[a].push(b);
        }
    }
    struct State {
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, adj: &[Vec<usize>], st: &mut State) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &adj[v] {
            if st.index[w].is_none() {
                strongconnect(w, adj, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap_or(usize::MAX));
            }
        }
        if Some(st.low[v]) == st.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            st.sccs.push(scc);
        }
    }
    let mut st = State {
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &adj, &mut st);
        }
    }
    st.sccs.into_iter().map(|scc| scc.into_iter().map(|i| names[i].clone()).collect()).collect()
}

/// Renders a regenerated `lockranks.toml`: existing live sites keep their
/// ranks; new sites are appended in topological order of the observed
/// edges, continuing above the current maximum in steps of 10.
pub fn emit_lockranks(analysis: &Analysis, ranks: &BTreeMap<String, u64>) -> String {
    let live_existing: BTreeMap<&String, u64> =
        ranks.iter().filter(|(s, _)| analysis.sites.contains(*s)).map(|(s, &r)| (s, r)).collect();
    let new_sites: Vec<&String> =
        analysis.sites.iter().filter(|s| !ranks.contains_key(*s)).collect();

    // Kahn topological order among the new sites (name-ordered tie-break).
    let mut order: Vec<&String> = Vec::new();
    let mut remaining: BTreeSet<&String> = new_sites.iter().copied().collect();
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .find(|s| {
                !analysis
                    .edges
                    .iter()
                    .any(|e| e.to == ***s && remaining.contains(&e.from) && e.from != ***s)
            })
            .copied();
        match next {
            Some(s) => {
                remaining.remove(s);
                order.push(s);
            }
            None => {
                // A cycle among new sites: emit the rest name-ordered; the
                // cycle itself is already a `lock-cycle` finding.
                order.extend(remaining.iter().copied());
                break;
            }
        }
    }

    let mut next_rank = live_existing.values().max().map_or(10, |m| (m / 10 + 1) * 10);
    let mut table: BTreeMap<String, u64> = BTreeMap::new();
    for (s, r) in &live_existing {
        table.insert((*s).clone(), *r);
    }
    for s in order {
        table.insert(s.clone(), next_rank);
        next_rank += 10;
    }

    let mut out = String::from(
        "# Lock-rank declarations for the CAD3 workspace.\n\
         #\n\
         # Every lock site discovered by `cargo xtask analyze` has a rank here;\n\
         # locks must be acquired in strictly increasing rank order. The static\n\
         # analyzer checks observed acquisition edges against this table, and the\n\
         # `cad3-lockrank` runtime witness (debug builds) asserts it on every\n\
         # acquisition a test actually executes. Regenerate with\n\
         # `cargo xtask analyze --emit-lockranks` after adding or removing locks;\n\
         # existing sites keep their ranks so the hierarchy stays stable.\n\n\
         [ranks]\n",
    );
    // Rank-sorted so the file reads as the hierarchy.
    let mut rows: Vec<(&String, &u64)> = table.iter().collect();
    rows.sort_by_key(|(s, r)| (**r, (*s).clone()));
    for (site, rank) in rows {
        out.push_str(&format!("\"{site}\" = {rank}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(s, r)| ((*s).to_owned(), *r)).collect()
    }

    fn run(srcs: &[(&str, &str, &str)], ranks: &BTreeMap<String, u64>) -> Analysis {
        let inputs: Vec<SourceInput<'_>> =
            srcs.iter().map(|(c, p, t)| SourceInput { crate_name: c, path: p, text: t }).collect();
        analyze(&inputs, ranks)
    }

    fn checks<'a>(a: &'a Analysis, check: &str) -> Vec<&'a Finding> {
        a.findings.iter().filter(|f| f.check == check).collect()
    }

    #[test]
    fn deliberate_inversion_is_a_cycle() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ab(&self) {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                }
                fn ba(&self) {
                    let gb = self.b.lock();
                    let ga = self.a.lock();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        let cycles = checks(&a, "lock-cycle");
        assert_eq!(cycles.len(), 1, "{:?}", a.findings);
        assert!(cycles[0].message.contains("fx::S::a"));
        assert!(cycles[0].message.contains("fx::S::b"));
    }

    #[test]
    fn consistent_order_is_clean_of_cycles() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(checks(&a, "lock-cycle").is_empty(), "{:?}", a.findings);
        assert_eq!(a.edges.len(), 1);
        assert_eq!((a.edges[0].from.as_str(), a.edges[0].to.as_str()), ("fx::S::a", "fx::S::b"));
    }

    #[test]
    fn single_sided_rank_violation_without_a_cycle() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
            }
        ";
        let r = ranks(&[("fx::S::a", 10), ("fx::S::b", 20)]);
        let a = run(&[("fx", "fx/src/lib.rs", src)], &r);
        assert!(checks(&a, "lock-cycle").is_empty());
        let v = checks(&a, "rank-violation");
        assert_eq!(v.len(), 1, "{:?}", a.findings);
        assert!(v[0].message.contains("fx::S::a (rank 10)"), "{}", v[0].message);
    }

    #[test]
    fn interprocedural_edge_through_cross_crate_call() {
        let c1 = "
            pub struct P { a: Mutex<u32> }
            impl P {
                fn fwd(&self, h: &H) {
                    let g = self.a.lock();
                    H::grab(h);
                }
            }
        ";
        let c2 = "
            pub struct H { b: Mutex<u32> }
            impl H {
                pub fn grab(&self) { let g = self.b.lock(); }
            }
        ";
        let a =
            run(&[("one", "one/src/lib.rs", c1), ("two", "two/src/lib.rs", c2)], &BTreeMap::new());
        assert!(
            a.edges.iter().any(|e| e.from == "one::P::a" && e.to == "two::H::b"),
            "interprocedural edge missing: {:?}",
            a.edges
        );
    }

    #[test]
    fn interprocedural_cycle_is_detected() {
        let c1 = "
            pub struct P { a: Mutex<u32> }
            impl P {
                fn fwd(&self, h: &H) {
                    let g = self.a.lock();
                    H::grab_b(h);
                }
                pub fn grab_a(&self) { let g = self.a.lock(); }
            }
        ";
        let c2 = "
            pub struct H { b: Mutex<u32> }
            impl H {
                pub fn grab_b(&self) { let g = self.b.lock(); }
                fn back(&self, p: &P) {
                    let g = self.b.lock();
                    P::grab_a(p);
                }
            }
        ";
        let a =
            run(&[("one", "one/src/lib.rs", c1), ("two", "two/src/lib.rs", c2)], &BTreeMap::new());
        let cycles = checks(&a, "lock-cycle");
        assert_eq!(cycles.len(), 1, "{:?}", a.findings);
        assert!(cycles[0].message.contains("one::P::a"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("two::H::b"), "{}", cycles[0].message);
    }

    #[test]
    fn block_scoped_guard_released_before_next_acquisition() {
        // The `with_topic` shape: registry guard dropped before the inner
        // mutex is taken — no edge between them.
        let src = "
            pub struct B { topics: RwLock<HashMap<String, Arc<Mutex<T>>>> }
            impl B {
                fn with(&self, name: &str) {
                    let t = {
                        let topics = self.topics.read();
                        Arc::clone(topics.get(name).unwrap())
                    };
                    let guard = t.lock();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.edges.is_empty(), "{:?}", a.edges);
        assert!(a.sites.contains("fx::B::topics.inner"), "{:?}", a.sites);
    }

    #[test]
    fn closure_over_iterated_guard_yields_inner_edge() {
        // The `assignments` shape: iterate the registry under its guard and
        // lock each element — edge outer → inner.
        let src = "
            pub struct B { topics: RwLock<HashMap<String, Arc<Mutex<T>>>> }
            impl B {
                fn snapshot(&self) -> Vec<u32> {
                    let topics = self.topics.read();
                    topics.iter().map(|(name, t)| t.lock().count()).collect()
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(
            a.edges.iter().any(|e| e.from == "fx::B::topics" && e.to == "fx::B::topics.inner"),
            "{:?}",
            a.edges
        );
    }

    #[test]
    fn statement_temporary_holds_across_the_statement_only() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn chained(&self) {
                    let x = self.a.lock().combine(self.b.lock().get_val());
                    let g = self.b.lock();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        // a → b while the statement runs; the later b guard sees nothing.
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert_eq!((a.edges[0].from.as_str(), a.edges[0].to.as_str()), ("fx::S::a", "fx::S::b"));
    }

    #[test]
    fn typed_local_locks_get_function_scoped_sites() {
        let src = "
            pub struct E { workers: usize }
            impl E {
                fn run(&self) {
                    let tasks: Vec<Mutex<u32>> = make();
                    let tasks_ref = &tasks;
                    let v = tasks_ref[0].lock().take();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.sites.contains("fx::E::run::tasks"), "{:?}", a.sites);
    }

    #[test]
    fn for_loop_over_lock_collection_binds_elements() {
        let src = "
            pub struct N { shards: Vec<Mutex<u32>> }
            impl N {
                fn export(&self) {
                    for shard in &self.shards {
                        let tracker = shard.lock();
                    }
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.sites.contains("fx::N::shards"));
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn double_lock_of_one_site_is_a_self_cycle() {
        let src = "
            pub struct S { a: Mutex<u32> }
            impl S {
                fn twice(&self) { let g1 = self.a.lock(); let g2 = self.a.lock(); }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        let cycles = checks(&a, "lock-cycle");
        assert_eq!(cycles.len(), 1, "{:?}", a.findings);
        assert!(cycles[0].message.contains("fx::S::a"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn ok(&self) {
                    let ga = self.a.lock();
                    drop(ga);
                    let gb = self.b.lock();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn missing_and_stale_ranks_are_flagged() {
        let src = "pub struct S { a: Mutex<u32> }\n";
        let r = ranks(&[("fx::S::gone", 10)]);
        let a = run(&[("fx", "fx/src/lib.rs", src)], &r);
        assert_eq!(checks(&a, "missing-rank").len(), 1, "{:?}", a.findings);
        assert_eq!(checks(&a, "stale-rank").len(), 1, "{:?}", a.findings);
    }

    #[test]
    fn duplicate_ranks_are_flagged() {
        let src = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n";
        let r = ranks(&[("fx::S::a", 10), ("fx::S::b", 10)]);
        let a = run(&[("fx", "fx/src/lib.rs", src)], &r);
        assert_eq!(checks(&a, "duplicate-rank").len(), 1);
    }

    #[test]
    fn annotation_audit_both_directions() {
        let src = r#"
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn witnessed(&self) {
                    let _held = cad3_lockrank::rank_scope!("fx::S::a");
                    let g = self.a.lock();
                }
                fn unwitnessed(&self) { let g = self.b.lock(); }
                fn phantom(&self) {
                    let _held = cad3_lockrank::rank_scope!("fx::S::nope");
                }
            }
        "#;
        let r = ranks(&[("fx::S::a", 10), ("fx::S::b", 20)]);
        let a = run(&[("fx", "fx/src/lib.rs", src)], &r);
        assert_eq!(checks(&a, "unwitnessed-acquisition").len(), 1, "{:?}", a.findings);
        assert_eq!(checks(&a, "unknown-annotation").len(), 1, "{:?}", a.findings);
        assert_eq!(checks(&a, "unused-annotation").len(), 1, "{:?}", a.findings);
        assert!(a
            .findings
            .iter()
            .all(|f| f.check != "unwitnessed-acquisition" || f.message.contains("fx::S::b")));
    }

    #[test]
    fn struct_literal_shorthand_merges_local_into_field_site() {
        let src = "
            pub struct R { metrics: Arc<Mutex<Vec<u32>>>, handle: Option<u32> }
            impl R {
                fn start() -> R {
                    let metrics = Arc::new(Mutex::new(Vec::new()));
                    let metrics2 = Arc::clone(&metrics);
                    let snapshot = metrics2.lock().len_of();
                    R { metrics, handle: None }
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.sites.contains("fx::R::metrics"), "{:?}", a.sites);
        assert!(
            !a.sites.iter().any(|s| s.contains("start::metrics")),
            "local must merge into the field site: {:?}",
            a.sites
        );
    }

    #[test]
    fn test_code_is_excluded() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            #[cfg(test)]
            mod tests {
                fn inverted(s: &super::S) {
                    let gb = s.b.lock();
                    let ga = s.a.lock();
                }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn emit_lockranks_preserves_existing_and_appends_topologically() {
        let src = "
            pub struct S { a: Mutex<u32>, b: Mutex<u32>, c: Mutex<u32> }
            impl S {
                fn abc(&self) {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                    let gc = self.c.lock();
                }
            }
        ";
        let r = ranks(&[("fx::S::a", 10)]);
        let a = run(&[("fx", "fx/src/lib.rs", src)], &r);
        let toml = emit_lockranks(&a, &r);
        assert!(toml.contains("\"fx::S::a\" = 10"), "{toml}");
        let b_pos = toml.find("fx::S::b").expect("b emitted");
        let c_pos = toml.find("fx::S::c").expect("c emitted");
        assert!(b_pos < c_pos, "topological order: b (held first) before c\n{toml}");
    }

    #[test]
    fn cross_crate_diamond_resolves_every_edge() {
        let a = run(
            &[
                ("top", "top/src/lib.rs", "pub fn entry() { left(); right(); }"),
                (
                    "mid",
                    "mid/src/lib.rs",
                    "pub fn left() { shared(); }\npub fn right() { shared(); }",
                ),
                ("base", "base/src/lib.rs", "pub fn shared() {}"),
            ],
            &BTreeMap::new(),
        );
        assert_eq!(a.calls_total, 4, "entry→left, entry→right, left→shared, right→shared");
        assert_eq!(a.calls_resolved, 4);
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn trait_method_call_is_ambiguous_across_impls() {
        let src = "
            pub trait Sink { fn emit(&self); }
            pub struct A;
            impl Sink for A { fn emit(&self) {} }
            pub struct B;
            impl Sink for B { fn emit(&self) {} }
            pub fn go(s: &dyn Sink) { s.emit() }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 1);
        assert_eq!(a.calls_ambiguous, 1, "two implementors: a may-edge to each");
        assert_eq!(a.calls_resolved, 0);
    }

    #[test]
    fn self_field_receiver_disambiguates_method_name() {
        // Two `run` methods exist; the declared field type picks one.
        let src = "
            pub struct Sched { q: u32 }
            impl Sched { pub fn run(&self) -> u32 { self.q } }
            pub struct Exec;
            impl Exec { pub fn run(&self) -> u32 { 2 } }
            pub struct Engine { sched: Sched }
            impl Engine {
                pub fn drive(&self) -> u32 { self.sched.run() }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 1);
        assert_eq!(a.calls_resolved, 1, "field type Sched makes the call unambiguous");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn calls_through_closure_captures_are_charged_to_the_enclosing_fn() {
        // A method call on a captured receiver sits inside a closure body,
        // which the walker scans as part of the enclosing function — the
        // edge must not vanish behind the `move ||`. Invoking a closure
        // *parameter* (`f()`) stays unresolved: the workspace has no
        // function of that name, which is the documented envelope for
        // higher-order indirection.
        let src = "
            pub struct Worker { n: u32 }
            impl Worker { pub fn tick(&self) -> u32 { self.n } }
            pub fn drive(w: Worker) -> u32 {
                let f = move || w.tick();
                f()
            }
            pub fn spawn_and_tick(w: Worker) {
                std::thread::spawn(move || { w.tick(); });
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        // drive: `w.tick()` + `f()`; spawn_and_tick: `thread::spawn` +
        // `w.tick()`. Both `tick` edges resolve to the lone method.
        assert_eq!(a.calls_total, 4);
        assert_eq!(a.calls_resolved, 2, "captured-receiver calls resolve");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn multi_link_method_chains_resolve_every_link() {
        // `self.a.b().c()`: the first link binds by field type, the second
        // by workspace-unique method name (the receiver is a call result,
        // so no declared type is available for it).
        let src = "
            pub struct A;
            pub struct B;
            impl A { pub fn b(&self) -> B { B } }
            impl B { pub fn c(&self) -> u32 { 1 } }
            pub struct Ctx { a: A }
            impl Ctx { pub fn go(&self) -> u32 { self.a.b().c() } }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 2);
        assert_eq!(a.calls_resolved, 2, "both chain links bind");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn ambiguous_chain_tail_unions_instead_of_resolving() {
        // Same chain, but two `c` methods exist: the tail link cannot pick
        // one, so it becomes a may-edge to each implementor.
        let src = "
            pub struct A;
            pub struct B;
            pub struct D;
            impl A { pub fn b(&self) -> B { B } }
            impl B { pub fn c(&self) -> u32 { 1 } }
            impl D { pub fn c(&self) -> u32 { 2 } }
            pub struct Ctx { a: A }
            impl Ctx { pub fn go(&self) -> u32 { self.a.b().c() } }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 2);
        assert_eq!(a.calls_resolved, 1, "the `b` link still binds by field type");
        assert_eq!(a.calls_ambiguous, 1, "the `c` tail is a may-edge");
    }

    #[test]
    fn associated_fn_never_unions_with_a_same_named_method() {
        // `r.start()` is a dot call: only the receiver-taking `Road::start`
        // is a candidate. The associated constructor `Sched::start` can
        // only be reached by qualified path — without the receiver filter
        // the dot call would smear into the scheduler and drag its effects
        // into every caller's reachable set.
        let src = "
            pub struct Road;
            impl Road { pub fn start(&self) -> u32 { 0 } }
            pub struct Sched;
            impl Sched { pub fn start(runner: u32) -> Sched { let _ = runner; Sched } }
            pub fn go(r: &Road) -> u32 { r.start() }
            pub fn boot() -> Sched { Sched::start(3) }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 2);
        assert_eq!(a.calls_resolved, 2, "dot call binds the method, path call the assoc fn");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn transparent_wrappers_are_peeled_from_field_types() {
        let src = "
            pub struct Sched { q: u32 }
            impl Sched { pub fn run(&self) -> u32 { self.q } }
            pub struct Exec;
            impl Exec { pub fn run(&self) -> u32 { 2 } }
            pub struct Engine { sched: std::sync::Arc<Sched> }
            impl Engine {
                pub fn drive(&self) -> u32 { self.sched.run() }
            }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_resolved, 1, "Arc<Sched> resolves like Sched");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn macro_receiver_maps_to_title_case_type() {
        // `histogram!(..).observe(..)` must bind to Histogram::observe even
        // though another `observe` method exists.
        let src = "
            pub struct Histogram;
            impl Histogram { pub fn observe(&self, v: u64) { let _ = v; } }
            pub struct Probe;
            impl Probe { pub fn observe(&self, v: u64) { let _ = v; } }
            pub fn hot() { histogram!(\"x\").observe(1); }
        ";
        let a = run(&[("fx", "fx/src/lib.rs", src)], &BTreeMap::new());
        assert_eq!(a.calls_total, 1);
        assert_eq!(a.calls_resolved, 1, "macro receiver names the cached handle type");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn std_method_names_do_not_cross_link_to_free_fns() {
        // `x.load(..)` is an atomic read; a workspace free fn named `load`
        // in another crate must not become a call edge.
        let a = run(
            &[
                (
                    "hotcrate",
                    "hot/src/lib.rs",
                    "pub fn hot(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }",
                ),
                ("bench", "bench/src/lib.rs", "pub fn load() -> u64 { 1 }"),
            ],
            &BTreeMap::new(),
        );
        assert_eq!(a.calls_total, 1);
        assert_eq!(a.calls_resolved, 0, "stoplisted name stays external");
        assert_eq!(a.calls_ambiguous, 0);
    }

    #[test]
    fn same_crate_free_fn_beats_the_stoplist() {
        // A bare same-crate call is precise even for a stoplisted name.
        let a = run(
            &[(
                "fx",
                "fx/src/lib.rs",
                "pub fn load() -> u64 { 1 }\npub fn hot() -> u64 { load() }",
            )],
            &BTreeMap::new(),
        );
        assert_eq!(a.calls_total, 1);
        assert_eq!(a.calls_resolved, 1);
    }
}
