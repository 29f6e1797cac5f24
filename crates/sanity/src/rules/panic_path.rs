//! Rule `panic_path`: the serve/decode path must never panic.
//!
//! docs/PROTOCOL.md §1 requires decode failures to surface as typed
//! errors; a panic in `server.rs`, `wire.rs`, `client.rs`, `query.rs`
//! (the per-kind request, decode and merge code all three share), or
//! `lease.rs` turns a malformed frame or a lost peer into a dead
//! worker thread. This rule forbids, in non-`#[cfg(test)]` code of
//! those files:
//!
//! - `.unwrap()` / `.expect(..)` (on anything — `Option`, `Result`,
//!   poisoned locks included),
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! - slice/array indexing whose subscript does *arithmetic*
//!   (`buf[off + len]`, `x[i - 1]`): the computed bound is exactly the
//!   kind of thing a hostile frame controls. Plain `x[i]` / `x[..4]`
//!   indexing is allowed — flagging every subscript would drown the
//!   signal in loop-bounded accesses.

use crate::lexer::Tok;
use crate::report::Finding;
use crate::scan::{match_delim, SourceFile};

pub const RULE: &str = "panic_path";

/// Files the rule applies to (workspace-relative suffixes).
const TARGETS: [&str; 5] = [
    "crates/catalog/src/server.rs",
    "crates/catalog/src/wire.rs",
    "crates/catalog/src/client.rs",
    "crates/catalog/src/query.rs",
    "crates/catalog/src/lease.rs",
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !TARGETS.iter().any(|t| f.rel.ends_with(t)) {
            continue;
        }
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if f.in_test_code(i) {
                continue;
            }
            let line = toks[i].line;
            match &toks[i].kind {
                Tok::Ident(name)
                    if (name == "unwrap" || name == "expect")
                        && super::method_call_arity(toks, i).is_some() =>
                {
                    out.push(Finding::new(
                        f.rel.clone(),
                        line,
                        RULE,
                        format!(
                            "`.{name}()` on the serve path: decode/transport failures must stay typed errors (PROTOCOL.md §1)"
                        ),
                        f.line_text(line),
                    ));
                }
                Tok::Ident(name) if PANIC_MACROS.contains(&name.as_str()) => {
                    if matches!(toks.get(i + 1), Some(t) if t.is_punct('!')) {
                        out.push(Finding::new(
                            f.rel.clone(),
                            line,
                            RULE,
                            format!(
                                "`{name}!` on the serve path: return a typed CatalogError instead"
                            ),
                            f.line_text(line),
                        ));
                    }
                }
                Tok::Punct('[') if is_index_expr(toks, i) => {
                    let close = match_delim(toks, i, '[', ']');
                    if subscript_has_arithmetic(toks, i, close) {
                        out.push(Finding::new(
                            f.rel.clone(),
                            line,
                            RULE,
                            "indexing with a computed bound can panic on a malformed frame: use `.get(..)` and return a typed error",
                            f.line_text(line),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// `[` opens an *index expression* (not an array literal, slice
/// pattern, type, or attribute) when the previous token could end an
/// expression: an identifier, number, `)`, or `]`.
fn is_index_expr(toks: &[crate::lexer::Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
        return false;
    };
    match &prev.kind {
        Tok::Ident(name) => {
            // `return x[..]`-style keywords can't be receivers.
            !matches!(
                name.as_str(),
                "return" | "in" | "if" | "while" | "match" | "else"
            )
        }
        Tok::Num(_) => false, // `[u8; 4]`-adjacent shapes, never a receiver
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

/// True when the subscript tokens in `(open, close)` contain real
/// arithmetic: any `+`, or a `-`/`*` used as a *binary* operator
/// (preceded by an ident/number/close-delim — a leading `*` is a
/// deref, not a multiply).
fn subscript_has_arithmetic(toks: &[crate::lexer::Token], open: usize, close: usize) -> bool {
    for j in open + 1..close {
        match toks[j].kind {
            Tok::Punct('+') => return true,
            Tok::Punct('-') | Tok::Punct('*') => {
                if let Some(prev) = toks.get(j - 1) {
                    let binary = matches!(prev.kind, Tok::Ident(_) | Tok::Num(_))
                        || prev.is_punct(')')
                        || prev.is_punct(']');
                    if binary {
                        return true;
                    }
                }
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(
            PathBuf::from("/w/crates/catalog/src/wire.rs"),
            "crates/catalog/src/wire.rs".into(),
            src.into(),
        );
        check(&[f])
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let fs = run("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); unreachable!(); }");
        assert_eq!(fs.len(), 4);
    }

    #[test]
    fn allows_unwrap_or_variants() {
        let fs = run("fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 0); z.unwrap_or_default(); }");
        assert!(fs.is_empty());
    }

    #[test]
    fn flags_arithmetic_indexing_only() {
        let fs = run("fn f() { let a = buf[off + len]; let b = buf[i]; let c = buf[..4]; let d = x[*i]; let e = x[i - 1]; }");
        assert_eq!(fs.len(), 2); // off+len and i-1; deref `*i` is not arithmetic
    }

    #[test]
    fn test_code_is_exempt() {
        let fs = run("#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n#[test]\nfn u() { y.unwrap(); }");
        assert!(fs.is_empty());
    }

    #[test]
    fn other_files_are_exempt() {
        let f = SourceFile::scan(
            PathBuf::from("/w/crates/catalog/src/store.rs"),
            "crates/catalog/src/store.rs".into(),
            "fn f() { x.unwrap(); }".into(),
        );
        assert!(check(&[f]).is_empty());
    }
}
