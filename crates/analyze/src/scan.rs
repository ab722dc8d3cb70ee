//! Item-level source model built on the token stream.
//!
//! One pass over a file's tokens recovers everything the rules need:
//! test regions (`#[cfg(test)]` / `#[test]` blocks and files under a
//! `tests/` directory) and struct/enum declarations with the type names
//! they reference (for the R1 reachability graph). No expression
//! grammar is needed — brace matching and a few keyword anchors carry
//! all of it.

use crate::lexer::{lex, Token, TokenKind};

/// A struct/enum declaration and the type names its body references.
#[derive(Debug, Clone)]
pub struct TypeDecl {
    /// Declared type name.
    pub name: String,
    /// Line of the `struct` / `enum` keyword.
    pub line: u32,
    /// Whether the declaration sits inside a test region.
    pub in_test: bool,
    /// `(line, ident)` for every type-position identifier in the body.
    pub refs: Vec<(u32, String)>,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path with `/` separators, as given to the walker.
    pub path: String,
    /// Lexed code tokens.
    pub tokens: Vec<Token>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`.
    pub test_ranges: Vec<(u32, u32)>,
    /// Whole file is test code (lives under a `tests/` directory).
    pub is_test_file: bool,
    /// Fixture-corpus file: treated as production code for every rule.
    pub is_corpus: bool,
    /// Struct/enum declarations.
    pub types: Vec<TypeDecl>,
}

impl SourceFile {
    /// Parses `source` as the file at `path`.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let is_corpus = has_component(path, "corpus");
        let mut file = SourceFile {
            path: path.replace('\\', "/"),
            is_corpus,
            is_test_file: !is_corpus && has_component(path, "tests"),
            tokens: lex(source),
            test_ranges: Vec::new(),
            types: Vec::new(),
        };
        find_test_ranges(&mut file);
        find_types(&mut file);
        file
    }

    /// Whether `line` is inside test code.
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }
}

fn has_component(path: &str, component: &str) -> bool {
    path.replace('\\', "/").split('/').any(|c| c == component)
}

/// Finds the token index of the brace matching the opening brace at
/// `open` (which must be `{`). Returns the last token on failure.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Marks the brace-block following any attribute that mentions `test`
/// (`#[cfg(test)]`, `#[test]`) as a test region.
fn find_test_ranges(file: &mut SourceFile) {
    let tokens = &file.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
            // Collect attribute idents up to the matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut mentions_test = false;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Ident if tokens[j].text == "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test {
                // The attached item's body is the next `{ … }` before a `;`.
                let mut k = j + 1;
                while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct('{') {
                    let close = matching_brace(tokens, k);
                    ranges.push((tokens[i].line, tokens[close].line));
                    i = close + 1;
                    continue;
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    file.test_ranges = ranges;
}

const NON_TYPE_IDENTS: &[&str] = &[
    "pub", "crate", "super", "self", "Self", "where", "dyn", "const", "static", "fn", "for", "in",
    "as", "mut", "ref", "impl", "use",
];

/// Collects struct/enum declarations and the type names they reference.
fn find_types(file: &mut SourceFile) {
    let tokens = &file.tokens;
    let mut types = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_decl = tokens[i].is_ident("struct") || tokens[i].is_ident("enum");
        if !is_decl {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let mut decl = TypeDecl {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            in_test: false, // filled in below, after ranges exist
            refs: Vec::new(),
        };
        // Walk the remainder of the item: `;` ends a unit/tuple struct,
        // a brace block is the body. Collect type-position idents from
        // tuple parens and the body.
        let mut j = i + 2;
        let mut paren_depth = 0usize;
        let mut end = tokens.len().saturating_sub(1);
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('(') => paren_depth += 1,
                TokenKind::Punct(')') => paren_depth = paren_depth.saturating_sub(1),
                TokenKind::Punct(';') if paren_depth == 0 => {
                    end = j;
                    break;
                }
                TokenKind::Punct('{') => {
                    end = matching_brace(tokens, j);
                    let is_enum = tokens[i].is_ident("enum");
                    collect_type_refs(&tokens[j..=end], is_enum, &mut decl.refs);
                    break;
                }
                TokenKind::Ident if paren_depth > 0 => {
                    collect_type_refs(&tokens[j..j + 1], false, &mut decl.refs);
                }
                _ => {}
            }
            j += 1;
        }
        types.push(decl);
        i = end + 1;
    }
    for decl in &mut types {
        decl.in_test = file.is_test_file
            || file
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= decl.line && decl.line <= b);
    }
    file.types = types;
}

/// Pushes `(line, ident)` for identifiers that can denote types: skips
/// keywords, field names (an ident directly followed by a single `:`),
/// and — for enums — variant names (idents at the top level of the body,
/// outside any parens or nested braces). Variant payload types are kept.
fn collect_type_refs(tokens: &[Token], is_enum: bool, refs: &mut Vec<(u32, String)>) {
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('{') => brace_depth += 1,
            TokenKind::Punct('}') => brace_depth = brace_depth.saturating_sub(1),
            TokenKind::Punct('(') => paren_depth += 1,
            TokenKind::Punct(')') => paren_depth = paren_depth.saturating_sub(1),
            TokenKind::Ident => {
                if NON_TYPE_IDENTS.contains(&t.text.as_str()) {
                    continue;
                }
                if is_enum && brace_depth == 1 && paren_depth == 0 {
                    continue; // enum variant name, not a type
                }
                let next_colon = tokens.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false);
                let path_sep =
                    next_colon && tokens.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false);
                if next_colon && !path_sep {
                    continue; // field name, not a type
                }
                refs.push((t.line, t.text.clone()));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_blocks_become_test_ranges() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn prod2() {}";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.test_ranges.len(), 1);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn files_under_tests_dir_are_all_test() {
        let f = SourceFile::parse("crates/core/tests/proptests.rs", "fn f() {}");
        assert!(f.is_test_file);
        assert!(f.in_test(1));
        // …but fixture corpora are production-classed.
        let f = SourceFile::parse("crates/analyze/tests/corpus/r4.rs", "fn f() {}");
        assert!(f.is_corpus);
        assert!(!f.in_test(1));
    }

    #[test]
    fn struct_fields_yield_type_refs_not_names() {
        let src = "pub struct Entry {\n    stored: StoredResponse,\n    size: usize,\n}";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.types.len(), 1);
        assert_eq!(f.types[0].name, "Entry");
        let names: Vec<&str> = f.types[0].refs.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"StoredResponse"));
        assert!(names.contains(&"usize"));
        assert!(!names.contains(&"stored"), "field names are skipped");
    }

    #[test]
    fn tuple_and_enum_declarations() {
        let src = "struct Wrap(Arc<Value>);\nenum E { A(RefCell<u8>), B { inner: Mutex<i32> } }";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.types.len(), 2);
        let wrap: Vec<&str> = f.types[0].refs.iter().map(|(_, n)| n.as_str()).collect();
        assert!(wrap.contains(&"Arc") && wrap.contains(&"Value"));
        let e: Vec<&str> = f.types[1].refs.iter().map(|(_, n)| n.as_str()).collect();
        assert!(e.contains(&"RefCell") && e.contains(&"Mutex"));
        assert!(
            !e.contains(&"A") && !e.contains(&"B"),
            "variant names skipped"
        );
        assert!(!e.contains(&"inner"), "struct-variant field names skipped");
    }

    #[test]
    fn path_idents_in_fields_are_kept() {
        let src = "struct S { f: std::sync::Mutex<u8> }";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<&str> = f.types[0].refs.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"Mutex"));
        assert!(names.contains(&"std"), "path segments kept (harmless)");
    }
}
