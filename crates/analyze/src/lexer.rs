//! A minimal, dependency-free Rust lexer.
//!
//! The analyzer does not need a full grammar — only a token stream that
//! is *reliable about what is code and what is not*: string literals,
//! char literals, lifetimes and comments must never be confused with
//! identifiers, or every rule would false-positive on prose. Everything
//! else (expressions, types, patterns) is handled by the item-level
//! walker in [`crate::scan`] on top of these tokens.

/// What a [`Token`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `struct`, `Relaxed`, …).
    Ident,
    /// A single punctuation character (`{`, `:`, `.`, …).
    Punct(char),
    /// A string / char / byte / numeric literal. Contents are irrelevant
    /// to every rule, so they are not preserved.
    Literal,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Token class.
    pub kind: TokenKind,
    /// Identifier text; empty for non-identifiers.
    pub text: String,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `source` into its code tokens, in source order; comments are
/// dropped.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr, $text:expr) => {
            out.push(Token {
                line,
                kind: $kind,
                text: $text,
            })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                push!(TokenKind::Literal, String::new());
            }
            b'\'' => {
                // Lifetime or char literal.
                if bytes
                    .get(i + 1)
                    .copied()
                    .map(is_ident_start)
                    .unwrap_or(false)
                {
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'\'') {
                        // 'a' — a one-or-more-char literal ending in a quote
                        // is only valid as a single char, e.g. 'x'.
                        i = j + 1;
                        push!(TokenKind::Literal, String::new());
                    } else {
                        i = j;
                        push!(TokenKind::Lifetime, String::new());
                    }
                } else {
                    // Char literal with escape or punctuation: scan to the
                    // closing quote, honoring backslash escapes.
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        if bytes[j] == b'\\' {
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                    i = j.saturating_add(1);
                    push!(TokenKind::Literal, String::new());
                }
            }
            _ if b.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (is_ident_continue(bytes[j])) {
                    j += 1;
                }
                // Fractional part: `1.5` but not `0..10`.
                if bytes.get(j) == Some(&b'.')
                    && bytes
                        .get(j + 1)
                        .copied()
                        .map(|c| c.is_ascii_digit())
                        .unwrap_or(false)
                {
                    j += 1;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                }
                i = j;
                push!(TokenKind::Literal, String::new());
            }
            _ if is_ident_start(b) => {
                let mut j = i;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                let text = String::from_utf8_lossy(&bytes[i..j]).into_owned();
                // Raw / byte string prefixes: r"", r#""#, b"", br"", b''.
                let next = bytes.get(j).copied();
                match (text.as_str(), next) {
                    ("r" | "br" | "b" | "rb", Some(b'"')) | ("r" | "br" | "rb", Some(b'#')) => {
                        i = skip_raw_string(bytes, j, &mut line);
                        push!(TokenKind::Literal, String::new());
                    }
                    ("b", Some(b'\'')) => {
                        let mut k = j + 1;
                        while k < bytes.len() && bytes[k] != b'\'' {
                            if bytes[k] == b'\\' {
                                k += 1;
                            }
                            k += 1;
                        }
                        i = k.saturating_add(1);
                        push!(TokenKind::Literal, String::new());
                    }
                    _ => {
                        i = j;
                        push!(TokenKind::Ident, text);
                    }
                }
            }
            _ if b < 0x80 => {
                push!(TokenKind::Punct(b as char), String::new());
                i += 1;
            }
            _ => i += 1, // non-ASCII outside strings/comments: skip
        }
    }
    out
}

/// Skips a normal `"…"` string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string; `i` points at the first `#` or `"` after the
/// `r`/`br` prefix. Returns the index just past the closing delimiter.
fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let l = lex("fn main() { x.y(); }");
        assert_eq!(idents("fn main() { x.y(); }"), ["fn", "main", "x", "y"]);
        assert!(l.iter().any(|t| t.is_punct('{')));
        assert!(l.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn strings_are_not_idents() {
        assert_eq!(idents(r#"let s = "Instant::now() unwrap";"#), ["let", "s"]);
        assert_eq!(idents(r##"let s = r#"Ordering::Relaxed"#;"##), ["let", "s"]);
        assert_eq!(idents(r#"let b = b"lock";"#), ["let", "b"]);
    }

    #[test]
    fn comments_are_not_tokenized() {
        assert_eq!(
            idents("let a = 1; // Ordering::Relaxed\nlet b = 2;"),
            ["let", "a", "let", "b"]
        );
    }

    #[test]
    fn block_comments_nest_and_track_lines() {
        let l = lex("/* outer /* inner */ still */ fn f() {}\nfn g() {}");
        let f = l.iter().find(|t| t.is_ident("f")).unwrap();
        let g = l.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(f.line, 1);
        assert_eq!(g.line, 2);
    }

    #[test]
    fn lifetimes_and_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            l.iter().filter(|t| t.kind == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(l.iter().filter(|t| t.kind == TokenKind::Literal).count(), 2);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..10 { let x = 1.5; }");
        let dots = l.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..10 keeps both dots");
    }

    #[test]
    fn line_numbers_advance_in_strings() {
        let l = lex("let s = \"a\nb\";\nfn f() {}");
        let f = l.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 3);
    }
}
