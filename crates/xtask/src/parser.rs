//! A recovering recursive-descent item parser over the token stream.
//!
//! The lock-graph extractor needs three things from each source file: the
//! structs (with per-field type tokens, to find lock fields), the functions
//! (with their body token slices, to walk acquisitions and calls), and the
//! impl context of each function (to resolve `self.field` and
//! `Type::method`). Everything else — enums, traits, uses, consts, macros —
//! is skipped with balanced-delimiter recovery, so an unparsed construct
//! never derails the items after it.

use crate::tokens::{Tok, Token};

/// One struct field.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// The field's type, as its token sequence.
    pub ty: Vec<Tok>,
    pub line: usize,
}

/// One struct with named fields (tuple/unit structs carry none).
#[derive(Debug, Clone)]
pub struct Struct {
    pub name: String,
    pub fields: Vec<Field>,
    /// Whether the struct sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// One function, flattened out of its impl/mod nesting.
#[derive(Debug, Clone)]
pub struct Func {
    /// The `impl` self type the function sits in, if any (last path
    /// segment; `impl fmt::Debug for Broker` yields `Broker`).
    pub self_ty: Option<String>,
    pub name: String,
    /// Whether the function sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Whether the first parameter is a `self` receiver (`self`, `&self`,
    /// `&'a mut self`, `mut self`, `self: Arc<Self>`). Method-call
    /// resolution (`recv.name()`) only unions functions with a receiver;
    /// associated functions can only be reached by qualified path.
    pub has_self: bool,
    /// Body tokens, exclusive of the outer braces.
    pub body: Vec<Token>,
}

/// All items recovered from one file, flattened (module nesting does not
/// affect the site/function naming scheme, which is `crate::Type::fn`).
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub structs: Vec<Struct>,
    pub fns: Vec<Func>,
}

/// Parses a token stream into its items.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut p = Parser { toks: tokens, pos: 0 };
    p.items(None, &mut out);
    out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    fn in_test(&self) -> bool {
        self.toks.get(self.pos).is_some_and(|t| t.in_test)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(c)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self) -> Option<String> {
        if let Some(Tok::Ident(s)) = self.peek() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Skips a balanced `open`..`close` group, assuming `open` is next.
    fn skip_group(&mut self, open: char, close: char) {
        if !self.eat_punct(open) {
            return;
        }
        let mut depth = 1u32;
        while let Some(t) = self.peek() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips a `<...>` generics group if one is next (angle-depth aware;
    /// `->`/`=>` are distinct tokens so comparisons cannot confuse it).
    fn skip_generics(&mut self) {
        if !self.peek().is_some_and(|t| t.is_punct('<')) {
            return;
        }
        let mut depth = 0u32;
        while let Some(t) = self.peek() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips `#[...]` / `#![...]` attributes.
    fn skip_attrs(&mut self) {
        while self.peek().is_some_and(|t| t.is_punct('#')) {
            self.bump();
            self.eat_punct('!');
            self.skip_group('[', ']');
        }
    }

    /// Skips to (and past) the next `;`, or through the next balanced
    /// `{...}` block, whichever comes first — the generic item skipper.
    fn skip_item(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.bump();
                return;
            }
            if t.is_punct('{') {
                self.skip_group('{', '}');
                return;
            }
            self.bump();
        }
    }

    /// Parses items until `}` at this nesting level (or end of input).
    fn items(&mut self, self_ty: Option<&str>, out: &mut ParsedFile) {
        while let Some(t) = self.peek() {
            if t.is_punct('}') {
                return;
            }
            self.skip_attrs();
            // Modifier keywords before the item keyword.
            while self
                .peek()
                .is_some_and(|t| matches!(t, Tok::Ident(s) if matches!(s.as_str(), "pub" | "unsafe" | "async" | "default")))
            {
                let was_pub = self.peek().is_some_and(|t| t.is_ident("pub"));
                self.bump();
                if was_pub {
                    self.skip_group('(', ')'); // pub(crate) etc.
                }
            }
            match self.peek() {
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    "mod" => {
                        self.bump();
                        self.eat_ident();
                        if self.peek().is_some_and(|t| t.is_punct('{')) {
                            self.bump();
                            self.items(self_ty, out);
                            self.eat_punct('}');
                        } else {
                            self.skip_item(); // `mod name;`
                        }
                    }
                    "struct" => self.struct_item(out),
                    "impl" => self.impl_item(out),
                    "trait" => self.trait_item(out),
                    "fn" => {
                        if let Some(f) = self.fn_item(self_ty) {
                            out.fns.push(f);
                        }
                    }
                    "const" => {
                        self.bump();
                        if self.peek().is_some_and(|t| t.is_ident("fn")) {
                            if let Some(f) = self.fn_item(self_ty) {
                                out.fns.push(f);
                            }
                        } else {
                            self.skip_item();
                        }
                    }
                    // Items we deliberately do not model.
                    "enum" | "union" | "use" | "static" | "type" | "extern" | "macro_rules" => {
                        self.bump();
                        self.skip_item();
                    }
                    _ => self.bump(), // recovery
                },
                Some(_) => self.bump(), // recovery
                None => return,
            }
        }
    }

    /// `struct Name<G> { fields }` | `struct Name(...);` | `struct Name;`
    fn struct_item(&mut self, out: &mut ParsedFile) {
        let in_test = self.in_test();
        self.bump(); // struct
        let Some(name) = self.eat_ident() else {
            return;
        };
        self.skip_generics();
        // A `where` clause may intervene before the body.
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct('(') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
        let mut fields = Vec::new();
        match self.peek() {
            Some(t) if t.is_punct('{') => {
                self.bump();
                loop {
                    self.skip_attrs();
                    if self.peek().is_none() || self.peek().is_some_and(|t| t.is_punct('}')) {
                        break;
                    }
                    if self.peek().is_some_and(|t| t.is_ident("pub")) {
                        self.bump();
                        self.skip_group('(', ')');
                    }
                    let field_line = self.line();
                    let Some(fname) = self.eat_ident() else {
                        self.bump();
                        continue;
                    };
                    if !self.eat_punct(':') {
                        continue;
                    }
                    // Type tokens until `,` or `}` at delimiter depth 0.
                    let mut ty = Vec::new();
                    let mut angle = 0i32;
                    let mut paren = 0i32;
                    while let Some(t) = self.peek() {
                        match t {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                            Tok::Punct(',') if angle == 0 && paren == 0 => break,
                            Tok::Punct('}') if angle == 0 && paren == 0 => break,
                            _ => {}
                        }
                        ty.push(t.clone());
                        self.bump();
                    }
                    self.eat_punct(',');
                    fields.push(Field { name: fname, ty, line: field_line });
                }
                self.eat_punct('}');
            }
            Some(t) if t.is_punct('(') => {
                self.skip_group('(', ')');
                self.eat_punct(';');
            }
            _ => {
                self.eat_punct(';');
            }
        }
        out.structs.push(Struct { name, fields, in_test });
    }

    /// `impl<G> Type { .. }` | `impl<G> Trait for Type { .. }`
    fn impl_item(&mut self, out: &mut ParsedFile) {
        self.bump(); // impl
        self.skip_generics();
        let mut self_ty = self.type_path_last_segment();
        if self.peek().is_some_and(|t| t.is_ident("for")) {
            self.bump();
            self_ty = self.type_path_last_segment();
        }
        // Skip any `where` clause up to the body.
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct('<') {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
        if self.eat_punct('{') {
            self.items(self_ty.as_deref(), out);
            self.eat_punct('}');
        }
    }

    /// `trait Name<G>: Bounds { .. }` — default method bodies are parsed
    /// with the trait name as their self type, so their effects and lock
    /// acquisitions participate in the call graph. Bodiless signatures are
    /// still skipped by [`Parser::fn_item`].
    fn trait_item(&mut self, out: &mut ParsedFile) {
        self.bump(); // trait
        let name = self.eat_ident();
        self.skip_generics();
        // Supertrait bounds / where clause up to the body.
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
        if self.eat_punct('{') {
            self.items(name.as_deref(), out);
            self.eat_punct('}');
        } else {
            self.eat_punct(';');
        }
    }

    /// Reads a type path (`a::b::Type<G>` with leading `&`/`dyn`), returning
    /// its last path segment.
    fn type_path_last_segment(&mut self) -> Option<String> {
        while self.peek().is_some_and(|t| {
            t.is_punct('&') || matches!(t, Tok::Lifetime) || t.is_ident("dyn") || t.is_ident("mut")
        }) {
            self.bump();
        }
        let mut last = None;
        while let Some(seg) = self.eat_ident() {
            last = Some(seg);
            self.skip_generics();
            if self.peek().is_some_and(|t| matches!(t, Tok::PathSep)) {
                self.bump();
            } else {
                break;
            }
        }
        last
    }

    /// `fn name<G>(params) -> Ret where .. { body }` (or `;` in traits).
    fn fn_item(&mut self, self_ty: Option<&str>) -> Option<Func> {
        let in_test = self.in_test();
        self.bump(); // fn
        let name = self.eat_ident()?;
        self.skip_generics();
        let mut has_self = false;
        if self.peek().is_some_and(|t| t.is_punct('(')) {
            let mut j = self.pos + 1;
            while self.toks.get(j).is_some_and(|t| {
                t.tok.is_punct('&') || matches!(t.tok, Tok::Lifetime) || t.tok.is_ident("mut")
            }) {
                j += 1;
            }
            has_self = self.toks.get(j).is_some_and(|t| t.tok.is_ident("self"));
        }
        self.skip_group('(', ')');
        // Return type / where clause: scan to the body `{` or a `;`. An
        // array type's `;` (`-> [u8; N]`) is inside brackets, not the end.
        loop {
            match self.peek() {
                None => return None,
                Some(t) if t.is_punct(';') => {
                    self.bump();
                    return None; // trait method signature, no body
                }
                Some(t) if t.is_punct('{') => break,
                Some(t) if t.is_punct('<') => self.skip_generics(),
                Some(t) if t.is_punct('[') => self.skip_group('[', ']'),
                Some(_) => self.bump(),
            }
        }
        // Capture the body token slice.
        self.bump(); // {
        let start = self.pos;
        let mut depth = 1u32;
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            self.bump();
        }
        let body = self.toks[start..self.pos].to_vec();
        self.eat_punct('}');
        Some(Func { self_ty: self_ty.map(str::to_owned), name, in_test, has_self, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tokens::tokenize;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&tokenize(&lex(src)))
    }

    #[test]
    fn struct_fields_with_nested_generics() {
        let p = parse_src(
            "pub struct Broker {\n\
             name: String,\n\
             topics: RwLock<HashMap<TopicName, Arc<SharedTopic>>>,\n\
             stats: Mutex<HashMap<String, TopicStats>>,\n\
             }\n",
        );
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "Broker");
        let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["name", "topics", "stats"]);
        let topics = &s.fields[1];
        assert!(topics.ty.iter().any(|t| t.is_ident("RwLock")));
        assert!(topics.ty.iter().any(|t| t.is_ident("SharedTopic")));
    }

    #[test]
    fn receiver_flag_distinguishes_methods_from_associated_fns() {
        let p = parse_src(
            "impl Sched {\n\
             pub fn start(runner: Runner) -> Sched { Sched }\n\
             pub fn stop(&self) {}\n\
             fn poll(mut self: Pin<&mut Self>) {}\n\
             fn tick(&'a mut self, n: u32) {}\n\
             fn by_value(self) {}\n\
             }\n\
             fn free(selfish: u32) {}\n",
        );
        let flags: Vec<(&str, bool)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.has_self)).collect();
        assert_eq!(
            flags,
            [
                ("start", false),
                ("stop", true),
                ("poll", true),
                ("tick", true),
                ("by_value", true),
                ("free", false),
            ]
        );
    }

    #[test]
    fn impl_fns_carry_their_self_type() {
        let p = parse_src(
            "impl Broker {\n\
             pub fn create_topic(&self) { self.topics.write(); }\n\
             fn with_topic<R>(&self, f: impl FnOnce() -> R) -> R { f() }\n\
             }\n\
             impl std::fmt::Debug for Broker { fn fmt(&self) {} }\n",
        );
        assert_eq!(p.fns.len(), 3);
        assert!(p.fns.iter().all(|f| f.self_ty.as_deref() == Some("Broker")));
        assert_eq!(p.fns[1].name, "with_topic");
        assert!(!p.fns[1].body.is_empty());
    }

    #[test]
    fn array_return_types_keep_their_body() {
        let p = parse_src(
            "impl Status {\n\
                 fn image(&self) -> [u8; 200] { [0; 200] }\n\
                 fn pair() -> Result<[u8; N], E> { x }\n\
             }\n\
             fn after() {}\n",
        );
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["image", "pair", "after"]);
        assert!(p.fns[..2].iter().all(|f| !f.body.is_empty()));
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Status"));
    }

    #[test]
    fn trait_impl_for_generic_type_resolves_last_segment() {
        let p = parse_src("impl<T: Send> Default for Cluster<T> { fn default() -> Self { x } }\n");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Cluster"));
    }

    #[test]
    fn free_fns_and_mods_flatten() {
        let p = parse_src(
            "pub fn partition_for(p: u32) -> u32 { p }\n\
             mod inner {\n    pub fn nested() {}\n}\n",
        );
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["partition_for", "nested"]);
        assert!(p.fns.iter().all(|f| f.self_ty.is_none()));
    }

    #[test]
    fn unmodelled_items_do_not_derail_later_ones() {
        let p = parse_src(
            "use std::sync::Arc;\n\
             enum E { A { x: u32 }, B }\n\
             trait T { fn sig(&self); }\n\
             macro_rules! m { () => {} }\n\
             const N: usize = 4;\n\
             fn after() {}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn test_regions_are_flagged_on_fns() {
        let p =
            parse_src("fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n");
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }

    #[test]
    fn trait_default_methods_carry_the_trait_as_self_type() {
        let p = parse_src(
            "pub trait Detector: Send {\n\
                 fn threshold(&self) -> f64;\n\
                 fn detect(&self, x: f64) -> bool { x > self.threshold() }\n\
             }\n\
             trait Marker;\n\
             fn after() {}\n",
        );
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["detect", "after"], "signatures skipped, default bodies kept");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Detector"));
        assert!(!p.fns[0].body.is_empty());
    }

    #[test]
    fn fn_body_token_slice_is_exact() {
        let p = parse_src("fn f() { let x = { 1 }; }\nfn g() {}\n");
        let body = &p.fns[0].body;
        assert!(body.first().is_some_and(|t| t.tok.is_ident("let")));
        assert!(body.last().is_some_and(|t| t.tok.is_punct(';')));
        assert!(p.fns[1].body.is_empty());
    }
}
