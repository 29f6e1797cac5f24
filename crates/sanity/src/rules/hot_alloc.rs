//! Rule `hot_alloc`: the PR-2 allocation-free contract. Kernels whose
//! names end in `_into`, `_ws`, or `_inplace` (in `crates/nn` and
//! `crates/core`) exist precisely so the steady-state path never
//! allocates; a `vec![...]` or `.collect()` slipped into one of them
//! silently un-does the 3–29× wins pinned in BENCH_2.json while every
//! oracle test keeps passing.
//!
//! The same kernels run once per inference chunk, so they must not fan
//! out to threads either: a `par_chunks_mut` / `into_par_iter` (the
//! offline rayon shim spawns fresh OS threads on every call) or a
//! `thread::spawn` / `thread::scope` costs more per call than a kernel
//! over one chunk does. Parallelism belongs to the caller (one task per
//! partition), not to the kernel.

use crate::report::Finding;
use crate::scan::SourceFile;

pub const RULE: &str = "hot_alloc";

const CRATES: [&str; 2] = ["crates/nn/src/", "crates/core/src/"];
const SUFFIXES: [&str; 3] = ["_into", "_ws", "_inplace"];

/// Allocating method calls (must be `.name(` calls).
const ALLOC_METHODS: [&str; 5] = ["collect", "to_vec", "clone", "to_string", "to_owned"];
/// Thread-dispatching method calls (must be `.name(` calls).
const DISPATCH_METHODS: [&str; 2] = ["par_chunks_mut", "into_par_iter"];
/// Allocating constructors and thread-spawning functions (must be
/// `Path::name(` calls), with what each one does.
const PATH_CALLS: [(&str, &str, &str); 6] = [
    ("Vec", "new", ""),
    ("Vec", "with_capacity", ""),
    ("Box", "new", ""),
    ("String", "new", ""),
    ("thread", "spawn", " thread dispatch"),
    ("thread", "scope", " thread dispatch"),
];
/// Allocating macros (`name!(...)`).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !CRATES.iter().any(|c| f.rel.contains(c)) {
            continue;
        }
        for func in &f.functions {
            if func.is_test || !SUFFIXES.iter().any(|s| func.name.ends_with(s)) {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.lexed.tokens;
            for i in open..=close.min(toks.len().saturating_sub(1)) {
                let Some(name) = toks[i].ident() else {
                    continue;
                };
                let line = toks[i].line;
                let flag = |what: &str, out: &mut Vec<Finding>| {
                    out.push(Finding::new(
                        f.rel.clone(),
                        line,
                        RULE,
                        format!(
                            "{what} inside allocation-free kernel `{}` (the `{}` contract)",
                            func.name,
                            SUFFIXES
                                .iter()
                                .find(|s| func.name.ends_with(*s))
                                .copied()
                                .unwrap_or("_into"),
                        ),
                        f.line_text(line),
                    ));
                };
                let method = super::method_call_arity(toks, i).is_some();
                // `Vec::new(` — ident `Vec` `:` `:` ident `(`.
                let path_is = |ty: &str| {
                    i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks[i - 3].is_ident(ty)
                };
                if method && ALLOC_METHODS.contains(&name) {
                    flag(&format!("`.{name}()`"), &mut out);
                } else if method && DISPATCH_METHODS.contains(&name) {
                    flag(&format!("`.{name}()` thread dispatch"), &mut out);
                } else if ALLOC_MACROS.contains(&name)
                    && matches!(toks.get(i + 1), Some(t) if t.is_punct('!'))
                {
                    flag(&format!("`{name}!`"), &mut out);
                } else if let Some((ty, f, kind)) = PATH_CALLS
                    .iter()
                    .find(|(ty, f, _)| *f == name && path_is(ty))
                {
                    if super::is_call(toks, i) {
                        flag(&format!("`{ty}::{f}()`{kind}"), &mut out);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(
            PathBuf::from("/w/crates/nn/src/tensor.rs"),
            "crates/nn/src/tensor.rs".into(),
            src.into(),
        );
        check(&[f])
    }

    #[test]
    fn flags_allocations_in_kernels() {
        let fs = run(
            "fn matmul_into(out: &mut [f32]) { let t = vec![0.0; 4]; let v: Vec<f32> = xs.iter().collect(); let w = Vec::new(); }",
        );
        assert_eq!(fs.len(), 3);
        assert!(fs.iter().all(|f| f.rule == RULE));
    }

    #[test]
    fn non_kernel_functions_may_allocate() {
        let fs = run("fn params(&self) -> Vec<f32> { self.w.to_vec() }");
        assert!(fs.is_empty());
    }

    #[test]
    fn ws_and_inplace_suffixes_are_kernels() {
        let fs =
            run("fn forward_ws(&self) { x.clone(); }\nfn map_inplace(&mut self) { y.to_vec(); }");
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn flags_thread_dispatch_in_kernels() {
        // A rayon fan-out on every kernel call, e.g. a row-parallel matmul.
        let fs = run("fn gemm_into(out: &mut [f32]) { out.par_chunks_mut(8).enumerate().for_each(|(i, c)| body(i, c)); }\n\
             fn map_inplace(&mut self) { (0..4).into_par_iter().map(f).count(); }\n\
             fn forward_ws(&mut self) { std::thread::scope(|s| { s.spawn(work); }); thread::spawn(work); }");
        assert_eq!(fs.len(), 4, "{fs:?}");
        assert!(fs.iter().all(|f| f.message.contains("thread dispatch")));
        // Outside a kernel, dispatch is the caller's business.
        assert!(run("fn classify_run() { rows.par_chunks_mut(8).for_each(f); }").is_empty());
    }

    #[test]
    fn box_and_string_constructors_are_flagged() {
        let fs = run("fn fill_into(&mut self) { let b = Box::new(1); let s = String::new(); }");
        assert_eq!(fs.len(), 2, "{fs:?}");
    }

    #[test]
    fn with_capacity_in_vec_path_only() {
        // `Workspace::with_capacity` is a constructor for the arena
        // itself, not a hot-path allocation.
        let fs = run("fn init_into(&mut self) { let w = Workspace::with_capacity(4); }");
        assert!(fs.is_empty());
    }
}
