//! A token stream over the lexed code channel.
//!
//! The lexer ([`crate::lexer`]) resolves the three lexical modes (code,
//! comments, literals) and blanks literal bodies; this module turns the
//! surviving code characters into a flat token stream the parser and the
//! lock-graph extractor can walk. String-literal bodies are re-attached from
//! the lexer's per-line side channel so `rank_scope!("site")` annotations can
//! be audited.

use crate::lexer::SourceFile;

/// One token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (value irrelevant to the analyses).
    Num,
    /// String literal, with its body (from the lexer's side channel).
    Str(String),
    /// Char or byte literal.
    Ch,
    /// A `'a`-style lifetime.
    Lifetime,
    /// `->`
    Arrow,
    /// `=>`
    FatArrow,
    /// `::`
    PathSep,
    /// Any other single punctuation character.
    Punct(char),
}

impl Tok {
    /// Is this exactly the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// Is this exactly the identifier/keyword `kw`?
    pub fn is_ident(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == kw)
    }
}

/// A token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
    /// Whether the token sits in a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

/// Tokenizes a lexed file's code channel.
pub fn tokenize(file: &SourceFile) -> Vec<Token> {
    // Flatten the code channel into one char stream with line bookkeeping
    // (string literals span lines, so tokens cannot be cut per line).
    let mut chars: Vec<(char, usize)> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for c in line.code.chars() {
            chars.push((c, idx));
        }
        chars.push(('\n', idx));
    }
    // Per-line cursor into the captured string bodies.
    let mut str_cursor: Vec<usize> = vec![0; file.lines.len()];

    let in_test = |idx: usize| file.lines.get(idx).is_some_and(|l| l.in_test);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let (c, line_idx) = chars[i];
        let next = chars.get(i + 1).map(|&(c, _)| c);
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let push = |out: &mut Vec<Token>, tok: Tok| {
            out.push(Token { tok, line: line_idx + 1, in_test: in_test(line_idx) });
        };
        if c == '"' {
            // The lexer blanked the body, so the next `"` is the close.
            let body = {
                let cursor = &mut str_cursor[line_idx];
                let body = file.lines[line_idx].strings.get(*cursor).cloned().unwrap_or_default();
                *cursor += 1;
                body
            };
            push(&mut out, Tok::Str(body));
            i += 1;
            while i < chars.len() && chars[i].0 != '"' {
                i += 1;
            }
            i += 1; // closing quote
            continue;
        }
        if c == '\'' {
            // Blanked char literal (`'` spaces `'`) vs lifetime (`'a`).
            if matches!(next, Some(n) if n.is_alphanumeric() || n == '_') {
                push(&mut out, Tok::Lifetime);
                i += 1;
                while i < chars.len() && (chars[i].0.is_alphanumeric() || chars[i].0 == '_') {
                    i += 1;
                }
            } else {
                push(&mut out, Tok::Ch);
                i += 1;
                while i < chars.len() && chars[i].0 != '\'' {
                    i += 1;
                }
                i += 1; // closing quote
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].0.is_alphanumeric() || chars[i].0 == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().map(|&(c, _)| c).collect();
            let at_quote = chars.get(i).map(|&(c, _)| c);
            // Raw/byte string and byte-char prefixes were left in the code
            // channel by the lexer; fold them into the literal token.
            if matches!(ident.as_str(), "r" | "b" | "br") && at_quote == Some('"') {
                continue;
            }
            if ident == "b" && at_quote == Some('\'') {
                continue;
            }
            push(&mut out, Tok::Ident(ident));
            continue;
        }
        if c.is_ascii_digit() {
            i += 1;
            while i < chars.len() {
                let d = chars[i].0;
                if d.is_alphanumeric() || d == '_' {
                    i += 1;
                } else if d == '.' && chars.get(i + 1).is_some_and(|&(n, _)| n.is_ascii_digit()) {
                    // `1.5` continues the number; `0..n` does not.
                    i += 1;
                } else if (d == '+' || d == '-')
                    && chars[i - 1].0.eq_ignore_ascii_case(&'e')
                    && chars.get(i + 1).is_some_and(|&(n, _)| n.is_ascii_digit())
                {
                    // Exponent sign in `1.0e-3`.
                    i += 1;
                } else {
                    break;
                }
            }
            push(&mut out, Tok::Num);
            continue;
        }
        // Punctuation; fuse the three multi-char tokens the parser needs.
        match (c, next) {
            ('-', Some('>')) => {
                push(&mut out, Tok::Arrow);
                i += 2;
            }
            ('=', Some('>')) => {
                push(&mut out, Tok::FatArrow);
                i += 2;
            }
            (':', Some(':')) => {
                push(&mut out, Tok::PathSep);
                i += 2;
            }
            _ => {
                push(&mut out, Tok::Punct(c));
                i += 1;
            }
        }
    }
    out
}

/// Index just past the group opened at `open` (`(`/`[`/`{`), or `open + 1`
/// when no group starts there.
pub fn skip_group(toks: &[Token], open: usize) -> usize {
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

/// Index of the call's opening `(` when the identifier at `i` heads a call
/// — directly (`f(`) or through one turbofish (`collect::<Vec<_>>(`);
/// `None` when the identifier is not called.
pub fn call_paren(toks: &[Token], i: usize) -> Option<usize> {
    let at = |j: usize| toks.get(j).map(|t| &t.tok);
    if at(i + 1).is_some_and(|t| t.is_punct('(')) {
        return Some(i + 1);
    }
    if matches!(at(i + 1), Some(Tok::PathSep)) && at(i + 2).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0usize;
        let mut j = i + 2;
        while let Some(t) = at(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return at(j + 1).is_some_and(|t| t.is_punct('(')).then_some(j + 1);
                }
            }
            j += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(&lex(src)).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_puncts_and_fused_tokens() {
        let t = toks("fn f(x: u32) -> std::ops::Range<u32> { x => 1 }\n");
        assert!(t.contains(&Tok::Arrow));
        assert!(t.contains(&Tok::FatArrow));
        assert_eq!(t.iter().filter(|t| **t == Tok::PathSep).count(), 2);
        assert!(t.contains(&Tok::Ident("Range".into())));
    }

    #[test]
    fn string_bodies_ride_along() {
        let t = toks("let s = rank_scope!(\"cad3_stream::Broker::topics\");\n");
        assert!(t.contains(&Tok::Str("cad3_stream::Broker::topics".into())));
    }

    #[test]
    fn raw_string_prefix_is_folded_into_the_literal() {
        let t = toks("let s = r#\"body\"#; let z = 1;\n");
        assert!(!t.contains(&Tok::Ident("r".into())), "{t:?}");
        assert!(t.contains(&Tok::Str("body".into())));
        assert!(t.contains(&Tok::Ident("z".into())));
    }

    #[test]
    fn multiline_string_is_one_token() {
        let t = toks("let s = \"a\nb\"; let z = 1;\n");
        assert!(t.contains(&Tok::Str("a\nb".into())));
        assert!(t.contains(&Tok::Ident("z".into())));
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let t = toks("for i in 0..10 { let x = 1.5; }\n");
        assert_eq!(t.iter().filter(|t| t.is_punct('.')).count(), 2, "{t:?}");
        assert_eq!(t.iter().filter(|t| **t == Tok::Num).count(), 3);
    }

    #[test]
    fn lifetimes_and_chars_distinct() {
        let t = toks("fn g<'a>(v: &'a str) { let c = 'x'; }\n");
        assert!(t.contains(&Tok::Lifetime));
        assert!(t.contains(&Tok::Ch));
    }

    #[test]
    fn line_numbers_are_one_based() {
        let t = tokenize(&lex("let a = 1;\nlet b = 2;\n"));
        assert_eq!(t.first().map(|t| t.line), Some(1));
        assert_eq!(t.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn test_region_flag_rides_on_tokens() {
        let t = tokenize(&lex("fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n"));
        let live = t.iter().find(|t| t.tok.is_ident("live")).expect("live fn");
        let test = t.iter().find(|t| t.tok.is_ident("t")).expect("test fn");
        assert!(!live.in_test);
        assert!(test.in_test);
    }
}
