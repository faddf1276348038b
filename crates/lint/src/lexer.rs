//! A minimal Rust lexer for the static-analysis passes.
//!
//! `syn` is deliberately not used: the workspace builds offline with zero
//! external crates, and the two passes only need a token stream with
//! comments preserved — identifiers, punctuation, and line comments, with
//! string/char literals and block comments stripped (their contents must
//! never look like code or waivers). The lexer also understands just enough
//! structure to skip `#[cfg(test)] mod … { … }` regions, so test-only code
//! (which may freely use `HashSet` in assertions) is invisible to the
//! determinism rules.

/// One lexical token, tagged with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// An identifier or keyword (`struct`, `HashMap`, `snap`, …).
    Ident(String),
    /// A single punctuation character (`{`, `(`, `:`, `#`, …).
    Punct(char),
    /// The text of a `//` line comment, leading slashes and one space
    /// stripped (doc comments included; block comments are discarded).
    Comment(String),
}

/// A token plus its source line.
#[derive(Clone, Debug)]
pub struct Spanned {
    pub tok: Tok,
    pub line: u32,
}

/// Lexes `src` into a token stream. Never fails: unknown bytes are skipped,
/// and an unterminated literal simply consumes the rest of the file (the
/// workspace it runs on is already compiler-checked).
pub fn lex(src: &str) -> Vec<Spanned> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                let trimmed = text.trim_start_matches('/').trim();
                out.push(Spanned {
                    tok: Tok::Comment(trimmed.to_string()),
                    line,
                });
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Nested block comments, contents discarded.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
            }
            'r' | 'b' if is_raw_string_start(&b, i) => {
                i = skip_raw_string(&b, i, &mut line);
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is `'` + ident with no
                // closing quote right after one symbol (or an escape).
                if b.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip to closing quote.
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&'\'') {
                    i += 3; // plain char literal 'x'
                } else {
                    i += 1; // lifetime tick; the ident lexes next
                }
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                // `b"…"` / `r"…"` prefixes were handled above; anything else
                // alphanumeric is an ident or keyword.
                out.push(Spanned {
                    tok: Tok::Ident(ident),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal (including 0x…, 1_000u64, 1.5e3): skipped —
                // no pass cares about numbers.
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // `1..4` range: stop before a second consecutive dot.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                out.push(Spanned {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // r"…", r#"…"#, br"…", b"…" — only when the quote actually follows.
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
        while b.get(j) == Some(&'#') {
            j += 1;
        }
        return b.get(j) == Some(&'"');
    }
    // b"…" plain byte string.
    b[i] == 'b' && b.get(i + 1) == Some(&'"')
}

fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    if b[i] == 'b' {
        i += 1;
    }
    if b.get(i) == Some(&'r') {
        i += 1;
    }
    let mut hashes = 0;
    while b.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&'"') {
        // Plain b"…" byte string.
        return skip_string(b, i, line);
    }
    i += 1;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
        }
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Returns a copy of `toks` with every `#[cfg(test)] mod … { … }` region
/// removed (attribute, item, and body). Code under test gates may freely
/// use nondeterministic containers for assertions.
pub fn strip_test_modules(toks: &[Spanned]) -> Vec<Spanned> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = test_module_end(toks, i) {
            i = end;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// If `toks[i]` starts `#[cfg(test)]` (possibly followed by more attributes)
/// introducing a `mod` item, returns the index one past the module's closing
/// brace.
fn test_module_end(toks: &[Spanned], i: usize) -> Option<usize> {
    if !matches!(toks[i].tok, Tok::Punct('#')) {
        return None;
    }
    // Match `# [ cfg ( test ) ]` exactly.
    let pat = [
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    let mut j = i + 1;
    for p in &pat {
        if toks.get(j).map(|s| &s.tok) != Some(p) {
            return None;
        }
        j += 1;
    }
    // Skip any further attributes and comments, then require `mod ident {`.
    loop {
        match toks.get(j).map(|s| &s.tok) {
            Some(Tok::Comment(_)) => j += 1,
            Some(Tok::Punct('#')) => {
                j += 1;
                if toks.get(j).map(|s| &s.tok) != Some(&Tok::Punct('[')) {
                    return None;
                }
                let mut depth = 0i32;
                while let Some(s) = toks.get(j) {
                    match s.tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            Some(Tok::Ident(k)) if k == "mod" => {
                j += 1;
                break;
            }
            _ => return None,
        }
    }
    // mod name ({ … } | ;)
    if !matches!(toks.get(j).map(|s| &s.tok), Some(Tok::Ident(_))) {
        return None;
    }
    j += 1;
    match toks.get(j).map(|s| &s.tok) {
        Some(Tok::Punct(';')) => Some(j + 1),
        Some(Tok::Punct('{')) => {
            let mut depth = 0i32;
            while let Some(s) = toks.get(j) {
                match s.tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            Some(j)
        }
        _ => None,
    }
}

/// Finds the index of the matching closing brace for the opening brace at
/// `open` (which must be a `{`).
pub fn matching_brace(toks: &[Spanned], open: usize) -> usize {
    debug_assert!(matches!(toks[open].tok, Tok::Punct('{')));
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let ids = idents(r##"let x = "HashMap in a string"; /* HashSet */ let y = r#"Instant"#;"##);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn line_comments_are_captured() {
        let toks = lex("a // lint:allow(foo, bar)\nb");
        let comments: Vec<_> = toks
            .iter()
            .filter_map(|s| match &s.tok {
                Tok::Comment(c) => Some((c.clone(), s.line)),
                _ => None,
            })
            .collect();
        assert_eq!(comments, vec![("lint:allow(foo, bar)".to_string(), 1)]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a HashMap) {}");
        assert!(ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn char_literals_are_skipped() {
        let ids = idents("let c = 'x'; let d = '\\n'; let e = HashSet;");
        assert!(ids.contains(&"HashSet".to_string()));
        assert!(!ids.contains(&"x".to_string()));
    }

    #[test]
    fn test_modules_are_stripped() {
        let src = "struct A; #[cfg(test)] mod tests { use std::collections::HashMap; } struct B;";
        let toks = strip_test_modules(&lex(src));
        let ids: Vec<_> = toks
            .iter()
            .filter_map(|s| match &s.tok {
                Tok::Ident(i) => Some(i.as_str()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"A"));
        assert!(ids.contains(&"B"));
        assert!(!ids.contains(&"HashMap"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let ids = idents(r#"let a = b"Instant"; let r = rand_free;"#);
        assert_eq!(ids, vec!["let", "a", "let", "r", "rand_free"]);
    }

    #[test]
    fn matching_brace_finds_partner() {
        let toks = lex("fn f() { if x { y } z }");
        let open = toks
            .iter()
            .position(|s| matches!(s.tok, Tok::Punct('{')))
            .unwrap();
        let close = matching_brace(&toks, open);
        assert!(matches!(toks[close].tok, Tok::Punct('}')));
        assert_eq!(close, toks.len() - 1);
    }
}
