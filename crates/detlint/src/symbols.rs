//! The symbol index: function definitions and call sites per file,
//! extracted from the lexer's token stream.
//!
//! This is the substrate of the approximate call graph
//! ([`crate::callgraph`]): for every `.rs` file we record each `fn`
//! with its line span, its `impl` owner type (if any), whether it is
//! test-only, and every call site inside its body. No types are
//! resolved — resolution is name-based and deliberately approximate
//! (see the DESIGN notes on over/under-approximation).

use crate::lexer::{Lexed, TokKind, Token};

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name as written.
    pub name: String,
    /// The `impl` type this method belongs to (`impl Foo` / `impl Trait
    /// for Foo` both record `Foo`); `None` for free functions.
    pub owner: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the `fn` keyword.
    pub start_line: u32,
    /// Line of the body's closing brace (start line if never closed).
    pub end_line: u32,
    /// True inside `#[cfg(test)]` / `#[test]` scope: never a call-graph
    /// root and never a propagation target.
    pub is_test: bool,
    /// Every call site inside the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `file::name` — the display form used in reachability paths.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.file, o, self.name),
            None => format!("{}::{}", self.file, self.name),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`foo` in `foo(..)`, `bar` in `x.bar(..)` or
    /// `T::bar(..)`).
    pub name: String,
    /// The path segment immediately before the name for qualified calls
    /// (`Type` in `Type::name(..)`, `Self` stays literal).
    pub qual: Option<String>,
    /// True for `.name(..)` method-call syntax.
    pub method: bool,
    pub line: u32,
}

/// Per-file symbol extraction result.
#[derive(Debug, Default)]
pub struct FileSymbols {
    pub fns: Vec<FnDef>,
    /// Line spans of test items (`#[cfg(test)]` mods, `#[test]` fns):
    /// findings inside these are exempt from the concurrency rules.
    pub test_spans: Vec<(u32, u32)>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "impl", "struct", "enum", "trait",
    "mod", "use", "let", "mut", "ref", "move", "as", "in", "where", "unsafe", "pub", "crate",
    "super", "self", "dyn", "else", "break", "continue", "static", "const", "type", "await",
    "Some", "Ok", "Err", "None",
];

/// Extracts every function definition (with call sites) from `src`.
pub fn extract(file: &str, lexed: &Lexed) -> FileSymbols {
    let toks = &lexed.tokens;
    let mut out = FileSymbols::default();

    /// One open brace scope during the walk.
    struct Scope {
        /// Index into `out.fns` when this scope is a fn body.
        fn_idx: Option<usize>,
        /// Owner restored when this scope closes (impl blocks push a
        /// new owner).
        prev_owner: Option<Option<String>>,
        test: bool,
        start_line: u32,
    }

    let mut scopes: Vec<Scope> = Vec::new();
    let mut owner: Option<String> = None;
    // Innermost open fn, if any (calls are attributed to it).
    let mut fn_stack: Vec<usize> = Vec::new();

    // Attribute / item bookkeeping, mirroring the engine's scope pass.
    let mut pending_test = false;
    let mut seen_item_keyword = false;
    // A parsed-but-unopened fn: (index into out.fns).
    let mut pending_fn: Option<usize> = None;
    // A parsed-but-unopened impl owner.
    let mut pending_owner: Option<String> = None;

    let in_test = |scopes: &[Scope], pending: bool| pending || scopes.iter().any(|s| s.test);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('#') if toks.get(i + 1).is_some_and(|n| n.is_punct('[')) => {
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut attr_idents: Vec<&str> = Vec::new();
                while j < toks.len() {
                    match &toks[j].kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokKind::Ident(s) => attr_idents.push(s),
                        _ => {}
                    }
                    j += 1;
                }
                let is_cfg_test =
                    attr_idents.first() == Some(&"cfg") && attr_idents.contains(&"test");
                if is_cfg_test || attr_idents.first() == Some(&"test") {
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
            TokKind::Punct('{') => {
                let is_item = seen_item_keyword || pending_fn.is_some();
                let test = in_test(&scopes, pending_test && is_item);
                let fn_idx = pending_fn.take();
                let prev_owner = pending_owner.take().map(|o| {
                    let prev = owner.clone();
                    owner = Some(o);
                    prev
                });
                if let Some(fi) = fn_idx {
                    fn_stack.push(fi);
                    out.fns[fi].is_test = test;
                }
                scopes.push(Scope {
                    fn_idx,
                    prev_owner,
                    test: pending_test && is_item,
                    start_line: t.line,
                });
                if is_item {
                    pending_test = false;
                    seen_item_keyword = false;
                }
                i += 1;
                continue;
            }
            TokKind::Punct('}') => {
                if let Some(s) = scopes.pop() {
                    if let Some(fi) = s.fn_idx {
                        out.fns[fi].end_line = t.line;
                        fn_stack.pop();
                    }
                    if let Some(prev) = s.prev_owner {
                        owner = prev;
                    }
                    if s.test && !scopes.iter().any(|sc| sc.test) {
                        out.test_spans.push((s.start_line, t.line));
                    }
                }
                i += 1;
                continue;
            }
            TokKind::Punct(';') => {
                // Bodiless item (trait method decl, `struct X;`).
                pending_fn = None;
                pending_owner = None;
                seen_item_keyword = false;
                pending_test = false;
                i += 1;
                continue;
            }
            TokKind::Ident(id) => {
                match id.as_str() {
                    "impl" => {
                        seen_item_keyword = true;
                        pending_owner = parse_impl_owner(toks, i + 1);
                    }
                    "mod" | "trait" => seen_item_keyword = true,
                    "fn" => {
                        seen_item_keyword = true;
                        if let Some(name) = toks.get(i + 1).and_then(|n| n.ident()) {
                            out.fns.push(FnDef {
                                name: name.to_string(),
                                owner: owner.clone(),
                                file: file.to_string(),
                                start_line: t.line,
                                end_line: t.line,
                                is_test: in_test(&scopes, pending_test),
                                calls: Vec::new(),
                            });
                            pending_fn = Some(out.fns.len() - 1);
                            i += 2;
                            continue;
                        }
                    }
                    _ => {
                        // Call site: `ident (` inside an open fn body.
                        if let Some(&fi) = fn_stack.last() {
                            if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                                && !NON_CALL_IDENTS.contains(&id.as_str())
                            {
                                let method = i > 0 && toks[i - 1].is_punct('.');
                                let qual = if !method
                                    && i >= 3
                                    && toks[i - 1].is_punct(':')
                                    && toks[i - 2].is_punct(':')
                                {
                                    toks[i - 3].ident().map(String::from)
                                } else {
                                    None
                                };
                                // A bare path-less call directly after `::`
                                // whose qualifier was not an ident (e.g.
                                // `<T as Trait>::f(..)`) is dropped: we
                                // cannot name its owner.
                                let unresolvable_path = !method
                                    && qual.is_none()
                                    && i >= 2
                                    && toks[i - 1].is_punct(':')
                                    && toks[i - 2].is_punct(':');
                                if !unresolvable_path {
                                    out.fns[fi].calls.push(CallSite {
                                        name: id.clone(),
                                        qual,
                                        method,
                                        line: t.line,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parses the owner type name of an `impl` header starting at `i`
/// (just past the `impl` keyword): skips the generic parameter list,
/// then takes the type head — the last angle-depth-0 ident — of the
/// `for`-side type when present, else of the first type.
fn parse_impl_owner(toks: &[Token], mut i: usize) -> Option<String> {
    // Skip `<...>` generics.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let mut head: Option<String> = None;
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => depth -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') => break,
            TokKind::Ident(s) if depth == 0 => match s.as_str() {
                "for" => head = None, // restart on the `for`-side type
                "where" => break,
                "mut" | "dyn" | "const" => {}
                _ => head = Some(s.clone()),
            },
            _ => {}
        }
        i += 1;
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sym(src: &str) -> FileSymbols {
        extract("x.rs", &lex(src))
    }

    #[test]
    fn free_fn_with_calls() {
        let s = sym("fn a() { helper(1); other::util(2); x.method(); }\nfn helper(v: u32) {}\n");
        assert_eq!(s.fns.len(), 2);
        let a = &s.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.owner, None);
        let names: Vec<(&str, Option<&str>, bool)> = a
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_deref(), c.method))
            .collect();
        assert_eq!(
            names,
            vec![
                ("helper", None, false),
                ("util", Some("other"), false),
                ("method", None, true)
            ]
        );
    }

    #[test]
    fn impl_owner_and_trait_impls() {
        let s = sym("impl Foo { fn m(&self) {} }\n\
             impl<T> Display for Bar<T> { fn fmt(&self) {} }\n\
             impl dns_wire::Name { fn n(&self) {} }\n");
        let owners: Vec<(&str, Option<&str>)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            owners,
            vec![
                ("m", Some("Foo")),
                ("fmt", Some("Bar")),
                ("n", Some("Name"))
            ]
        );
    }

    #[test]
    fn nested_fns_attribute_calls_to_the_innermost() {
        let s = sym("fn outer() { fn inner() { deep(); } shallow(); }\n");
        let outer = s.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = s.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "deep");
    }

    #[test]
    fn test_scopes_are_marked() {
        let s = sym("fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}\n");
        assert!(!s.fns[0].is_test);
        assert!(s.fns[1].is_test, "fn inside #[cfg(test)] mod");
        assert!(s.fns[2].is_test, "#[test] fn");
        assert_eq!(s.test_spans.len(), 1);
        let (a, b) = s.test_spans[0];
        assert!(a <= 3 && b >= 6, "span covers the test mod: {a}..{b}");
    }

    #[test]
    fn spans_cover_bodies() {
        let s = sym("fn a() {\n  x();\n}\n\nfn b() {}\n");
        assert_eq!((s.fns[0].start_line, s.fns[0].end_line), (1, 3));
        assert_eq!((s.fns[1].start_line, s.fns[1].end_line), (5, 5));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let s = sym("fn a() { vec![1]; format!(\"x\"); if cond() { } Some(1); }\n");
        let names: Vec<&str> = s.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["cond"]);
    }

    #[test]
    fn trait_method_decls_have_no_body() {
        let s = sym("trait T { fn decl(&self); fn given(&self) { real(); } }\n");
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].calls.len(), 0);
        assert_eq!(s.fns[1].calls.len(), 1);
    }
}
