//! Workspace model: source files, parsed items, findings, and waivers.
//!
//! # Waiver syntax
//!
//! A finding is suppressed by an inline waiver that *must* carry a reason:
//!
//! ```text
//! // lint:allow(<rule>, <reason>)
//! // lint:allow(msg_no_producer(<Class>), <reason>)
//! ```
//!
//! A waiver covers the line it sits on, the next code line below a
//! contiguous comment block, or — for function-scoped rules such as
//! `unrooted_emission` — the whole function it precedes or sits inside.
//! Waivers without a reason, and waivers that suppress nothing, are
//! findings themselves (`waiver_no_reason`, `waiver_unused`).

use crate::lexer::{self, Spanned, Tok};

/// One source file handed to the analyzer.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace crate the file belongs to (`"core"`, `"sim"`, …).
    pub krate: String,
    /// Path, repo-relative, for reporting.
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// The set of files under analysis. Built from disk by the binary, or from
/// in-memory sources by the fixture and mutation tests.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

/// A parsed `lint:allow(rule, reason)` waiver.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub file: usize,
    pub line: u32,
    /// Rule name (`nondeterministic_map`, `msg_no_producer`, …).
    pub rule: String,
    /// Optional rule arguments (`msg_no_producer(Fwd)` → `["Fwd"]`).
    pub args: Vec<String>,
    /// Justification text after the rule. Empty = `waiver_no_reason`.
    pub reason: String,
    /// First code line at or below the waiver (what it covers).
    pub covers_line: u32,
}

/// A function parsed out of an `impl` block (or free-standing).
#[derive(Clone, Debug)]
pub struct FnDef {
    pub file: usize,
    /// `impl` self type, or empty for free functions.
    pub self_ty: String,
    pub name: String,
    pub line: u32,
    pub end_line: u32,
    /// Body token indices into the file's token stream (brace-exclusive).
    pub body: (usize, usize),
}

/// A file after lexing and item extraction.
#[derive(Debug)]
pub struct ParsedFile {
    pub src: SourceFile,
    /// Token stream with `#[cfg(test)] mod` regions removed.
    pub toks: Vec<Spanned>,
}

/// The parsed workspace all passes run over.
#[derive(Debug, Default)]
pub struct Parsed {
    pub files: Vec<ParsedFile>,
    pub waivers: Vec<Waiver>,
    pub fns: Vec<FnDef>,
}

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Index of the waiver that suppressed it, if any.
    pub waived_by: Option<usize>,
}

impl Parsed {
    /// Lexes and indexes every file.
    pub fn build(ws: &Workspace) -> Parsed {
        let mut p = Parsed::default();
        for (fi, src) in ws.files.iter().enumerate() {
            let toks = lexer::strip_test_modules(&lexer::lex(&src.text));
            p.collect_waivers(fi, &toks);
            collect_fns(fi, &toks, &mut p.fns);
            p.files.push(ParsedFile {
                src: src.clone(),
                toks,
            });
        }
        p
    }

    fn collect_waivers(&mut self, file: usize, toks: &[Spanned]) {
        for (i, s) in toks.iter().enumerate() {
            let Tok::Comment(text) = &s.tok else { continue };
            let Some(rest) = text.strip_prefix("lint:allow(") else {
                continue;
            };
            let (rule_part, reason) = split_waiver(rest);
            let (rule, args) = split_rule_args(&rule_part);
            // The first *code* token line at or below the waiver.
            let covers_line = toks[i + 1..]
                .iter()
                .find(|t| !matches!(t.tok, Tok::Comment(_)))
                .map(|t| t.line)
                .unwrap_or(s.line);
            self.waivers.push(Waiver {
                file,
                line: s.line,
                rule,
                args,
                reason,
                covers_line,
            });
        }
    }

    /// Finds a matching waiver for a finding at `line` in `file` and marks
    /// it used, returning its index. `fn_span` widens the match to a whole
    /// function for function-scoped rules; `arg` must be listed in the
    /// waiver's arguments when the waiver has any.
    pub fn match_waiver(
        &self,
        used: &mut [bool],
        file: usize,
        rule: &str,
        line: u32,
        fn_span: Option<(u32, u32)>,
        arg: Option<&str>,
    ) -> Option<usize> {
        for (wi, w) in self.waivers.iter().enumerate() {
            if w.file != file || w.rule != rule {
                continue;
            }
            if let (Some(a), false) = (arg, w.args.is_empty()) {
                if !w.args.iter().any(|x| x == a) {
                    continue;
                }
            }
            let line_hit = w.line == line || w.covers_line == line;
            let span_hit = fn_span.is_some_and(|(lo, hi)| {
                (w.line >= lo && w.line <= hi) || (w.covers_line >= lo && w.covers_line <= hi)
            });
            if line_hit || span_hit {
                used[wi] = true;
                return Some(wi);
            }
        }
        None
    }
}

/// Splits `rule(args), reason…` → (`rule(args)`, `reason`), respecting the
/// parenthesis nesting of the rule arguments and the closing `)` of the
/// `lint:allow(…)` wrapper.
fn split_waiver(rest: &str) -> (String, String) {
    let mut depth = 0i32;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth > 0 => depth -= 1,
            ')' => {
                // Closing the allow() wrapper with no reason present.
                return (rest[..i].trim().to_string(), String::new());
            }
            ',' if depth == 0 => {
                let reason = rest[i + 1..].trim().trim_end_matches(')').trim();
                return (rest[..i].trim().to_string(), reason.to_string());
            }
            _ => {}
        }
    }
    (
        rest.trim().trim_end_matches(')').trim().to_string(),
        String::new(),
    )
}

/// Splits `msg_no_producer(Fwd, Inv)` → (`msg_no_producer`, `[Fwd, Inv]`).
fn split_rule_args(rule_part: &str) -> (String, Vec<String>) {
    match rule_part.split_once('(') {
        None => (rule_part.to_string(), Vec::new()),
        Some((name, args)) => {
            let args = args
                .trim_end_matches(')')
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            (name.trim().to_string(), args)
        }
    }
}

fn collect_fns(file: usize, toks: &[Spanned], out: &mut Vec<FnDef>) {
    // Walk top-level items; descend into `impl`/`mod` blocks tracking the
    // current self type. Function bodies are recorded but not descended
    // into (closures and nested fns belong to their parent's body).
    walk_items(file, toks, 0, toks.len(), "", out);
}

fn walk_items(
    file: usize,
    toks: &[Spanned],
    lo: usize,
    hi: usize,
    self_ty: &str,
    out: &mut Vec<FnDef>,
) {
    let mut i = lo;
    while i < hi {
        match &toks[i].tok {
            Tok::Ident(k) if k == "impl" => {
                let (ty, open) = impl_self_type(toks, i, hi);
                match open {
                    Some(open) => {
                        let close = lexer::matching_brace(toks, open);
                        walk_items(file, toks, open + 1, close, &ty, out);
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(k) if k == "mod" => {
                // `mod name { … }` — descend with the same self type (none).
                let mut j = i + 1;
                while j < hi && !matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
                    j += 1;
                }
                if j < hi && matches!(toks[j].tok, Tok::Punct('{')) {
                    let close = lexer::matching_brace(toks, j);
                    walk_items(file, toks, j + 1, close, "", out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            Tok::Ident(k) if k == "fn" => {
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                let Tok::Ident(name) = &name_tok.tok else {
                    i += 1;
                    continue;
                };
                // Find the body `{`, skipping the signature. `;` and `{`
                // only terminate at bracket depth 0 — `-> [u64; 34]` and
                // `fn(&T)` parameters nest them.
                let mut j = i + 2;
                let mut depth = 0i32;
                while j < hi {
                    match toks[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct('{') | Tok::Punct(';') if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < hi && matches!(toks[j].tok, Tok::Punct('{')) {
                    let close = lexer::matching_brace(toks, j);
                    out.push(FnDef {
                        file,
                        self_ty: self_ty.to_string(),
                        name: name.clone(),
                        line: name_tok.line,
                        end_line: toks[close].line,
                        body: (j + 1, close),
                    });
                    i = close + 1;
                } else {
                    i = j + 1; // trait method signature
                }
            }
            _ => i += 1,
        }
    }
}

/// Extracts the self type of an `impl` item starting at `i` and the index
/// of its opening `{`. Handles `impl<T> Ty<T>`, `impl Trait for Ty`, and
/// `impl fmt::Display for Ty`.
fn impl_self_type(toks: &[Spanned], i: usize, hi: usize) -> (String, Option<usize>) {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut after_for = false;
    let mut last_ident_pre_for: Option<String> = None;
    let mut last_ident_post_for: Option<String> = None;
    while j < hi {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(k) if k == "for" && angle == 0 => after_for = true,
            Tok::Ident(k) if k == "where" && angle == 0 => {
                // where-clause: the self type is already decided.
                while j < hi && !matches!(toks[j].tok, Tok::Punct('{')) {
                    j += 1;
                }
                continue;
            }
            Tok::Ident(k) if angle == 0 => {
                if after_for {
                    last_ident_post_for = Some(k.clone());
                } else {
                    last_ident_pre_for = Some(k.clone());
                }
            }
            Tok::Punct('{') if angle == 0 => {
                let ty = last_ident_post_for
                    .or(last_ident_pre_for)
                    .unwrap_or_default();
                return (ty, Some(j));
            }
            _ => {}
        }
        j += 1;
    }
    (String::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Parsed {
        Parsed::build(&Workspace {
            files: vec![SourceFile {
                krate: "x".into(),
                path: "x.rs".into(),
                text: src.into(),
            }],
        })
    }

    #[test]
    fn impl_fns_are_attributed() {
        let p = parse_one(
            "impl Foo { fn snap(&self) { self.a; } }\nimpl fmt::Display for Bar { fn fmt(&self) {} }\nfn free() {}",
        );
        let names: Vec<_> = p
            .fns
            .iter()
            .map(|f| (f.self_ty.as_str(), f.name.as_str()))
            .collect();
        assert!(names.contains(&("Foo", "snap")));
        assert!(names.contains(&("Bar", "fmt")));
        assert!(names.contains(&("", "free")));
    }

    #[test]
    fn waivers_parse_rule_args_and_reason() {
        let p = parse_one(
            "// lint:allow(msg_no_producer(Fwd, Inv), produced by the home agent)\nfn x() {}\n// lint:allow(wall_clock)\nlet t = 1;",
        );
        assert_eq!(p.waivers.len(), 2);
        assert_eq!(p.waivers[0].rule, "msg_no_producer");
        assert_eq!(p.waivers[0].args, vec!["Fwd", "Inv"]);
        assert_eq!(p.waivers[0].reason, "produced by the home agent");
        assert_eq!(p.waivers[0].covers_line, 2);
        assert_eq!(p.waivers[1].rule, "wall_clock");
        assert!(p.waivers[1].reason.is_empty());
    }
}
