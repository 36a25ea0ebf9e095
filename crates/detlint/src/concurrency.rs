//! The (C) concurrency rule family.
//!
//! Four rules over the token stream, all exempting `#[cfg(test)]` /
//! `#[test]` spans:
//!
//! * **atomic-order** — `Ordering::Relaxed` on an atomic that gates
//!   cross-thread control flow. An ident *gates* when its `.load(..)`
//!   sits in an `if`/`while` condition, or a `fetch_*` /
//!   `compare_exchange` result is bound or consumed (work claiming).
//!   Every `Relaxed`-ordered op on a gating ident is then flagged —
//!   including the paired `store`, which is exactly the half people
//!   forget.
//! * **lock-unwrap** — `.lock().unwrap()` / `.read().unwrap()` /
//!   `.write().unwrap()` (and `.expect(..)`): one panicked holder
//!   poisons the lock and every later `.unwrap()` panics the rest of
//!   the fleet. Recover with `PoisonError::into_inner` instead.
//! * **guard-blocking** — a blocking call (`recv`, `send_to`, `join()`,
//!   socket syscalls) while a `Mutex`/`RwLock` guard is live.
//! * **lock-order** — the cross-function lock-acquisition-order graph:
//!   acquiring `B` while holding `A` adds edge `A→B`; any edge on a
//!   cycle is flagged, as is re-entrant acquisition of the same lock.
//!
//! Lock identity is name-based (the ident the guard method is called
//! on), crate-qualified when graphs are merged across files — a
//! documented approximation: helper-wrapped acquisitions (e.g. a
//! `table_read()` wrapper) are invisible, and two distinct locks
//! sharing one field name collapse.

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::RuleId;
use crate::symbols::FileSymbols;

/// A rule hit before snippet/status decoration (the engine finishes it).
#[derive(Debug, Clone)]
pub struct ConcFinding {
    pub rule: RuleId,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// One `A→B` lock-acquisition-order edge.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Held lock (crate-qualified at workspace aggregation).
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// Per-file concurrency analysis output.
#[derive(Debug, Default)]
pub struct ConcResult {
    pub findings: Vec<ConcFinding>,
    pub edges: Vec<LockEdge>,
}

/// Guard-returning lock methods (empty-arg form only, which excludes
/// `io::Read::read(&mut buf)` and friends).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Atomic read-modify-write methods whose consumed result implies the
/// atomic gates control flow.
const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
];

/// Calls that can block the holding thread. `join` only in its
/// empty-arg form (`Vec::join(sep)` takes an argument; `JoinHandle::
/// join()` does not); the rest block regardless of arity.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_from",
    "recv_timeout",
    "send_to",
    "accept",
    "connect",
    "wait",
    "wait_timeout",
    "park",
    "sleep",
];

fn in_spans(line: u32, spans: &[(u32, u32)]) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Runs the requested concurrency rules over one file.
pub fn analyze(file: &str, lexed: &Lexed, symbols: &FileSymbols, rules: &[RuleId]) -> ConcResult {
    let toks = &lexed.tokens;
    let test = &symbols.test_spans;
    let mut out = ConcResult::default();
    let want = |r: RuleId| rules.contains(&r);

    if want(RuleId::AtomicOrder) {
        atomic_order(toks, test, &mut out.findings);
    }
    if want(RuleId::LockUnwrap) {
        lock_unwrap(toks, test, &mut out.findings);
    }
    if want(RuleId::GuardBlocking) || want(RuleId::LockOrder) {
        guards(
            file,
            toks,
            test,
            want(RuleId::GuardBlocking),
            want(RuleId::LockOrder),
            &mut out,
        );
    }
    out
}

/// Token index ranges `[start, end)` of every `if`/`while` condition
/// (`if let` / `while let` included): from the keyword to the body `{`
/// at paren depth 0.
fn condition_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("if") || t.is_ident("while") {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    TokKind::Punct(';') if depth == 0 => break, // malformed; bail
                    _ => {}
                }
                j += 1;
            }
            out.push((i + 1, j));
        }
    }
    out
}

/// Start-of-statement token index for the token at `i` (just past the
/// nearest `;`, `{` or `}`).
fn stmt_start(toks: &[Token], i: usize) -> usize {
    let mut s = i;
    while s > 0 {
        match toks[s - 1].kind {
            TokKind::Punct(';' | '{' | '}') => break,
            _ => s -= 1,
        }
    }
    s
}

/// Index just past the matching `)` of the `(` at `i` (or `toks.len()`).
fn after_parens(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// True when the call's argument tokens contain the ident `Relaxed`.
fn args_relaxed(toks: &[Token], open: usize) -> bool {
    let end = after_parens(toks, open);
    toks[open..end].iter().any(|t| t.is_ident("Relaxed"))
}

/// An atomic-method call site: `recv . method ( … )`.
struct AtomicOp {
    ident: String,
    method: String,
    /// Token index of the method name.
    at: usize,
    relaxed: bool,
}

fn atomic_ops(toks: &[Token]) -> Vec<AtomicOp> {
    let mut ops = Vec::new();
    for (m, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let is_atomic_method = matches!(name, "load" | "store") || RMW_METHODS.contains(&name);
        if !is_atomic_method
            || m < 2
            || !toks[m - 1].is_punct('.')
            || !toks.get(m + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let Some(ident) = toks[m - 2].ident() else {
            continue;
        };
        // Only calls that name a memory ordering are atomic ops at all;
        // this is what separates `sock.send_to(..)` from
        // `flag.store(true, Ordering::Release)`.
        let end = after_parens(toks, m + 1);
        let has_ordering = toks[m + 1..end].iter().any(|t| {
            t.is_ident("Ordering")
                || t.is_ident("Relaxed")
                || t.is_ident("Acquire")
                || t.is_ident("Release")
                || t.is_ident("AcqRel")
                || t.is_ident("SeqCst")
        });
        if !has_ordering {
            continue;
        }
        ops.push(AtomicOp {
            ident: ident.to_string(),
            method: name.to_string(),
            at: m,
            relaxed: args_relaxed(toks, m + 1),
        });
    }
    ops
}

fn atomic_order(toks: &[Token], test: &[(u32, u32)], out: &mut Vec<ConcFinding>) {
    let conds = condition_ranges(toks);
    let ops = atomic_ops(toks);

    // Pass 1: which idents gate control flow?
    let mut gating: Vec<&str> = Vec::new();
    for op in &ops {
        let gates = if op.method == "load" {
            conds.iter().any(|&(a, b)| op.at >= a && op.at < b)
        } else if op.method == "store" {
            false
        } else {
            // RMW: result bound (`let i = …`) or consumed (anything but
            // `;` after the call).
            let s = stmt_start(toks, op.at);
            let bound = toks.get(s).is_some_and(|t| t.is_ident("let"));
            let end = after_parens(toks, op.at + 1);
            let consumed = !toks.get(end).is_some_and(|t| t.is_punct(';'));
            bound || consumed
        };
        if gates {
            gating.push(&op.ident);
        }
    }
    gating.sort_unstable();
    gating.dedup();

    // Pass 2: every Relaxed op on a gating ident is a finding.
    for op in &ops {
        if op.relaxed && gating.contains(&op.ident.as_str()) && !in_spans(toks[op.at].line, test) {
            out.push(ConcFinding {
                rule: RuleId::AtomicOrder,
                line: toks[op.at].line,
                col: toks[op.at].col,
                message: format!(
                    "`Ordering::Relaxed` on `{}.{}(..)` — `{}` gates cross-thread control \
                     flow; use Release for the write side and Acquire for the read side",
                    op.ident, op.method, op.ident
                ),
            });
        }
    }
}

fn lock_unwrap(toks: &[Token], test: &[(u32, u32)], out: &mut Vec<ConcFinding>) {
    for m in 2..toks.len() {
        let Some(name) = toks[m].ident() else {
            continue;
        };
        if !LOCK_METHODS.contains(&name)
            || !toks[m - 1].is_punct('.')
            || !toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(m + 2).is_some_and(|t| t.is_punct(')'))
        {
            continue;
        }
        let Some(u) = toks.get(m + 4).and_then(|t| t.ident()) else {
            continue;
        };
        if (u == "unwrap" || u == "expect")
            && toks.get(m + 3).is_some_and(|t| t.is_punct('.'))
            && toks.get(m + 5).is_some_and(|t| t.is_punct('('))
            && !in_spans(toks[m].line, test)
        {
            out.push(ConcFinding {
                rule: RuleId::LockUnwrap,
                line: toks[m + 4].line,
                col: toks[m + 4].col,
                message: format!(
                    "`.{name}().{u}(..)` panics on a poisoned lock, spreading one thread's \
                     panic to the whole fleet; recover with `PoisonError::into_inner`"
                ),
            });
        }
    }
}

/// A live guard during the scan.
struct Guard {
    /// The lock's name (ident the guard method was called on).
    lock: String,
    /// Binding ident for `let g = …` guards (None for temporaries).
    binding: Option<String>,
    /// Token index the guard's liveness ends at (exclusive).
    end: usize,
    /// Acquisition site.
    line: u32,
}

/// Scans acquisitions, emitting guard-blocking findings and lock-order
/// edges (plus re-entrant same-lock findings).
fn guards(
    file: &str,
    toks: &[Token],
    test: &[(u32, u32)],
    want_blocking: bool,
    want_order: bool,
    out: &mut ConcResult,
) {
    // Acquisition sites: (token index of method, lock ident).
    let mut live: Vec<Guard> = Vec::new();
    for m in 2..toks.len() {
        // Retire guards whose span ended.
        live.retain(|g| g.end > m);
        let t = &toks[m];
        let Some(name) = t.ident() else { continue };

        // `drop(g)` ends a bound guard early.
        if name == "drop" && toks.get(m + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(dropped) = toks.get(m + 2).and_then(|t| t.ident()) {
                live.retain(|g| g.binding.as_deref() != Some(dropped));
            }
        }

        // Blocking call while any guard is live.
        if want_blocking
            && !live.is_empty()
            && toks[m - 1].is_punct('.')
            && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            && !in_spans(t.line, test)
        {
            let blocking = BLOCKING_METHODS.contains(&name)
                || (name == "join" && toks.get(m + 2).is_some_and(|t| t.is_punct(')')));
            if blocking {
                // `recv_buf`-style idents are fine; the receiver itself
                // may be the guarded object — that is the point.
                if let Some(g) = live.last() {
                    out.findings.push(ConcFinding {
                        rule: RuleId::GuardBlocking,
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "blocking call `.{name}(..)` while holding the `{}` guard \
                             (acquired line {}); drop the guard first",
                            g.lock, g.line
                        ),
                    });
                }
            }
        }

        // New acquisition?
        if !LOCK_METHODS.contains(&name)
            || !toks[m - 1].is_punct('.')
            || !toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(m + 2).is_some_and(|t| t.is_punct(')'))
        {
            continue;
        }
        let Some(lock) = toks[m - 2].ident().map(String::from) else {
            continue;
        };
        if want_order && !in_spans(t.line, test) {
            for g in &live {
                if g.lock == lock {
                    out.findings.push(ConcFinding {
                        rule: RuleId::LockOrder,
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "re-entrant acquisition of `{lock}` while its guard from line {} \
                             is still live — self-deadlock (or deadlock against a queued \
                             writer)",
                            g.line
                        ),
                    });
                } else {
                    out.edges.push(LockEdge {
                        from: g.lock.clone(),
                        to: lock.clone(),
                        file: file.to_string(),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
        }

        // Guard liveness span.
        let s = stmt_start(toks, m);
        let stmt_end = {
            let mut j = m;
            let mut depth = 0i32;
            loop {
                match toks.get(j).map(|t| &t.kind) {
                    None => break j,
                    Some(TokKind::Punct('{')) => depth += 1,
                    Some(TokKind::Punct('}')) => {
                        depth -= 1;
                        if depth < 0 {
                            break j;
                        }
                    }
                    Some(TokKind::Punct(';')) if depth == 0 => break j,
                    _ => {}
                }
                j += 1;
            }
        };
        let bound = toks.get(s).is_some_and(|t| t.is_ident("let"));
        if bound {
            let mut bi = s + 1;
            if toks.get(bi).is_some_and(|t| t.is_ident("mut")) {
                bi += 1;
            }
            let binding = toks.get(bi).and_then(|t| t.ident()).map(String::from);
            // Lives to the end of the enclosing block.
            let mut j = stmt_end;
            let mut depth = 0i32;
            let block_end = loop {
                match toks.get(j).map(|t| &t.kind) {
                    None => break j,
                    Some(TokKind::Punct('{')) => depth += 1,
                    Some(TokKind::Punct('}')) => {
                        depth -= 1;
                        if depth < 0 {
                            break j;
                        }
                    }
                    _ => {}
                }
                j += 1;
            };
            live.push(Guard {
                lock,
                binding,
                end: block_end,
                line: t.line,
            });
        } else {
            live.push(Guard {
                lock,
                binding: None,
                end: stmt_end,
                line: t.line,
            });
        }
    }
}

/// Indices into `edges` of every edge that participates in a cycle of
/// the acquisition-order graph.
pub fn cycle_edge_indices(edges: &[LockEdge]) -> Vec<usize> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    edges
        .iter()
        .enumerate()
        .filter(|(_, e)| reaches(&e.to, &e.from))
        .map(|(i, _)| i)
        .collect()
}

/// Renders a cycle-participating edge as a finding.
pub fn cycle_finding(e: &LockEdge) -> ConcFinding {
    ConcFinding {
        rule: RuleId::LockOrder,
        line: e.line,
        col: e.col,
        message: format!(
            "acquiring `{}` while holding `{}` completes a lock-order cycle \
             (another path acquires them in the opposite order): deadlock",
            e.to, e.from
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::extract;

    fn run(src: &str, rules: &[RuleId]) -> ConcResult {
        let lexed = lex(src);
        let symbols = extract("x.rs", &lexed);
        analyze("x.rs", &lexed, &symbols, rules)
    }

    #[test]
    fn relaxed_gating_load_and_its_paired_store_are_flagged() {
        let src = "\
fn f(stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) { step(); }
}
fn g(stop: &AtomicBool) {
    stop.store(true, Ordering::Relaxed);
}
";
        let r = run(src, &[RuleId::AtomicOrder]);
        assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
    }

    #[test]
    fn relaxed_counter_with_discarded_result_is_fine() {
        let src = "\
fn f(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    let snapshot = c.load(Ordering::Relaxed);
    report(snapshot);
}
";
        let r = run(src, &[RuleId::AtomicOrder]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn relaxed_work_claim_is_flagged() {
        let src = "fn f(next: &AtomicUsize) { let i = next.fetch_add(1, Ordering::Relaxed); use_it(i); }\n";
        let r = run(src, &[RuleId::AtomicOrder]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn acquire_release_pair_is_clean() {
        let src = "\
fn f(stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) { step(); }
    stop.store(true, Ordering::Release);
}
";
        let r = run(src, &[RuleId::AtomicOrder]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_unwrap_found_outside_tests_only() {
        let src = "\
fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }
#[cfg(test)]
mod tests {
    fn t(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }
}
";
        let r = run(src, &[RuleId::LockUnwrap]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn io_read_with_args_is_not_lock_read() {
        let src = "fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).unwrap(); }\n";
        let r = run(src, &[RuleId::LockUnwrap]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn blocking_call_under_guard_is_flagged_and_drop_clears_it() {
        let src = "\
fn bad(m: &Mutex<State>, rx: &Receiver<u8>) {
    let g = m.lock();
    let v = rx.recv();
    consume(g, v);
}
fn good(m: &Mutex<State>, rx: &Receiver<u8>) {
    let g = m.lock();
    drop(g);
    let v = rx.recv();
    consume(v);
}
";
        let r = run(src, &[RuleId::GuardBlocking]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn join_needs_empty_parens_to_block() {
        let src = "\
fn f(m: &Mutex<u32>, parts: Vec<String>, h: JoinHandle<()>) {
    let g = m.lock();
    let s = parts.join(\"-\");
    let r = h.join();
    consume(g, s, r);
}
";
        let r = run(src, &[RuleId::GuardBlocking]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 4, "only JoinHandle::join() blocks");
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let src = "\
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    consume(ga, gb);
}
fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock();
    let ga = a.lock();
    consume(ga, gb);
}
";
        let r = run(src, &[RuleId::LockOrder]);
        assert_eq!(r.edges.len(), 2, "{:?}", r.edges);
        let cyc = cycle_edge_indices(&r.edges);
        assert_eq!(cyc.len(), 2, "both edges sit on the a↔b cycle");
    }

    #[test]
    fn consistent_order_has_edges_but_no_cycle() {
        let src = "\
fn one(a: &Mutex<u32>, b: &Mutex<u32>) { let ga = a.lock(); let gb = b.lock(); consume(ga, gb); }
fn two(a: &Mutex<u32>, b: &Mutex<u32>) { let ga = a.lock(); let gb = b.lock(); consume(ga, gb); }
";
        let r = run(src, &[RuleId::LockOrder]);
        assert_eq!(r.edges.len(), 2);
        assert!(cycle_edge_indices(&r.edges).is_empty());
    }

    #[test]
    fn reentrant_same_lock_is_flagged_directly() {
        let src = "fn f(a: &Mutex<u32>) { let g = a.lock(); let h = a.lock(); consume(g, h); }\n";
        let r = run(src, &[RuleId::LockOrder]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("re-entrant"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "\
fn f(m: &Mutex<Vec<u8>>, rx: &Receiver<u8>) {
    m.lock().push(1);
    let v = rx.recv();
    consume(v);
}
";
        let r = run(src, &[RuleId::GuardBlocking]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
