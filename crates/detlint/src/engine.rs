//! The scanning engine: symbol collection, scope tracking, rule
//! matchers, and allow-annotation bookkeeping for one source file.
//!
//! # Suppression model
//!
//! Findings are suppressed only by visible, audited annotations:
//!
//! * `// detlint: allow(rule) — justification` — suppresses exactly one
//!   finding of `rule` on the annotated line (trailing comment) or on
//!   the next code line (standalone comment).
//! * `// detlint: allow-item(rule) — justification` — placed before an
//!   item (`fn`/`impl`/`mod`/`trait`), suppresses findings of `rule`
//!   inside that item's braces. Used for invariant-heavy regions (e.g.
//!   slab indexing) where per-line annotations would drown the code.
//!
//! Both forms require a non-empty justification and are counted in the
//! report, so every exemption stays reviewable.

use crate::concurrency::{cycle_edge_indices, cycle_finding, LockEdge};
use crate::lexer::{lex, Comment, TokKind, Token};
use crate::rules::RuleId;

/// One diagnostic produced by a rule matcher.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// The trimmed source line the finding points at.
    pub snippet: String,
    pub status: Status,
    /// Justification text when `status` is `Allowed`.
    pub justification: Option<String>,
    /// For transitively-hot findings: the shortest call-graph path from
    /// a hot root to the function containing the finding, as
    /// `file::fn` strings (root first). `None` for findings whose rule
    /// applies to the whole file.
    pub path: Option<Vec<String>>,
}

/// Whether a finding fails the gate or was explicitly exempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Un-annotated: fails `--deny`.
    Deny,
    /// Suppressed by an inline allow annotation.
    Allowed,
    /// Grandfathered by the `--baseline` file.
    Baselined,
}

impl Status {
    pub fn name(self) -> &'static str {
        match self {
            Status::Deny => "deny",
            Status::Allowed => "allowed",
            Status::Baselined => "baselined",
        }
    }
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct ScanResult {
    pub findings: Vec<Finding>,
    /// Allow annotations that suppressed nothing (stale exemptions —
    /// reported so they get cleaned up).
    pub unused_allows: Vec<(String, u32)>,
    /// Lock-acquisition-order edges observed in this file, for the
    /// workspace-level cross-file cycle pass.
    pub lock_edges: Vec<LockEdge>,
}

/// An `allow` / `allow-item` annotation parsed from a comment.
#[derive(Debug)]
struct Allow {
    rules: Vec<RuleId>,
    line: u32,
    trailing: bool,
    item: bool,
    justification: String,
    used: bool,
}

/// Parses `// detlint: allow(rule, ...) — justification` (and the
/// `allow-item` form). Returns `None` for ordinary comments. An
/// annotation without a parsable rule or a justification is returned
/// with empty `rules` so the caller can flag it as malformed.
fn parse_allow(c: &Comment) -> Option<Allow> {
    let text = c.text.trim_start_matches('/').trim();
    let rest = text.strip_prefix("detlint:")?.trim_start();
    let (item, rest) = match rest.strip_prefix("allow-item") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("allow")?),
    };
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rules: Vec<RuleId> = inner[..close]
        .split(',')
        .filter_map(|s| RuleId::parse(s.trim()))
        .collect();
    let justification = inner[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
        .trim()
        .to_string();
    Some(Allow {
        rules,
        line: c.line,
        trailing: c.trailing,
        item,
        justification,
        used: false,
    })
}

/// Methods that yield the elements of a map/set in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Methods that return a view of the same collection, so a chain may
/// pass through them before reaching an iteration method
/// (`inner.borrow().keys()`).
const PASS_THROUGH: &[&str] = &[
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "read",
    "write",
    "lock",
    "unwrap",
    "expect",
];

/// Idents that, appearing later in the same statement, make an
/// iteration order-safe: an explicit sort, or collection into an
/// ordered container.
const ORDERING_SINKS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

/// Order-insensitive reductions: consuming an unordered iterator with
/// these cannot leak iteration order into the result. (`min_by_key` /
/// `max_by_key` are deliberately absent — their tie-breaking follows
/// iteration order.)
const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
    "contains_key",
];

/// Panicking macros denied on the hot path.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Constructors of heap-backed containers: denied — together with
/// `vec!`/`format!` and the owning conversions — on zero-alloc paths.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];

/// Owning-conversion methods that allocate (`Arc::clone(&x)` — the
/// path-call form — is the non-allocating escape for refcount bumps).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone"];

struct Scope {
    test: bool,
}

/// One transitively-hot function span within a file.
#[derive(Debug, Clone)]
pub struct HotSpan {
    /// First line of the function (inclusive).
    pub start: u32,
    /// Last line of the function (inclusive).
    pub end: u32,
    /// Shortest root→…→fn call-graph path (`file::fn` strings).
    pub path: Vec<String>,
}

/// Where the hot-path rule families apply within one file.
#[derive(Debug, Default)]
pub struct HotScope {
    /// `None`: `hot-panic`/`hot-index` (when enabled) apply file-wide —
    /// the mode for hot-root files and lint fixtures. `Some(spans)`:
    /// only inside the transitively-hot spans.
    pub hot: Option<Vec<HotSpan>>,
    /// Same, for `hot-alloc` (its roots are functions, so even root
    /// files get span scoping here).
    pub alloc: Option<Vec<HotSpan>>,
}

/// `None`: the line is outside every hot span — suppress the finding.
/// `Some(path)`: emit it, attaching the (possibly empty) root path.
fn gate(spans: &Option<Vec<HotSpan>>, line: u32) -> Option<Vec<String>> {
    match spans {
        None => Some(Vec::new()),
        Some(list) => list
            .iter()
            .find(|s| line >= s.start && line <= s.end)
            .map(|s| s.path.clone()),
    }
}

/// Scans `src` (whose diagnostics carry `file` as their path) with the
/// given rules enabled, applying hot rules file-wide.
pub fn scan_source(file: &str, src: &str, rules: &[RuleId]) -> ScanResult {
    scan_source_scoped(file, src, rules, &HotScope::default())
}

/// [`scan_source`] with explicit hot-span scoping (the workspace walk
/// uses this to apply hot rules only inside transitively-hot
/// functions of non-root files).
pub fn scan_source_scoped(file: &str, src: &str, rules: &[RuleId], scope: &HotScope) -> ScanResult {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut allows: Vec<Allow> = lexed.comments.iter().filter_map(parse_allow).collect();
    // SAFETY markers by line, for rule S.
    let safety_lines: Vec<u32> = lexed
        .comments
        .iter()
        .filter(|c| c.text.contains("SAFETY:"))
        .map(|c| c.line)
        .collect();

    let hash_names = collect_hash_names(toks);
    let want = |r: RuleId| rules.contains(&r);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: RuleId, t: &Token, message: String, path: Vec<String>| {
        raw.push(Finding {
            rule,
            file: file.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: snippet(t.line),
            status: Status::Deny,
            justification: None,
            path: if path.is_empty() { None } else { Some(path) },
        });
    };

    // --- Scope-tracked walk -------------------------------------------
    let mut scopes: Vec<Scope> = Vec::new();
    let in_test = |scopes: &[Scope]| scopes.iter().any(|s| s.test);
    // Attributes seen since the last statement/item boundary, and
    // whether an item keyword (fn/impl/mod/trait) was seen: decides if
    // the next `{` opens a test-exempt scope.
    let mut pending_test = false;
    let mut seen_item_keyword = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        match &t.kind {
            TokKind::Punct('#')
                // Attribute: scan `#[...]`; mark test scopes.
                if toks.get(i + 1).is_some_and(|n| n.is_punct('[')) => {
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
                    let is_cfg_test = attr_idents.first() == Some(&"cfg")
                        && attr_idents.contains(&"test");
                    if is_cfg_test || attr_idents.first() == Some(&"test") {
                        pending_test = true;
                    }
                    i = j + 1;
                    continue;
                }
            TokKind::Punct('{') => {
                let is_item_scope = seen_item_keyword;
                scopes.push(Scope {
                    test: pending_test && is_item_scope,
                });
                if is_item_scope {
                    pending_test = false;
                    seen_item_keyword = false;
                }
                i += 1;
                continue;
            }
            TokKind::Punct('}') => {
                scopes.pop();
                i += 1;
                continue;
            }
            TokKind::Punct(';') => {
                // Statement/item boundary at top of a scope: attributes
                // and pending allows for `struct X;`-style items die.
                seen_item_keyword = false;
                pending_test = false;
                i += 1;
                continue;
            }
            TokKind::Ident(id) => {
                if matches!(id.as_str(), "fn" | "impl" | "mod" | "trait") {
                    seen_item_keyword = true;
                }

                let testing = in_test(&scopes);

                // (S) unsafe hygiene — applies in tests too: unsafe is
                // unsafe wherever it lives.
                if id == "unsafe" && want(RuleId::UnsafeComment) {
                    let covered = safety_lines
                        .iter()
                        .any(|&sl| sl <= t.line && t.line.saturating_sub(sl) <= 3);
                    if !covered {
                        push(
                            RuleId::UnsafeComment,
                            t,
                            "`unsafe` without a `// SAFETY:` comment within 3 lines".into(),
                            Vec::new(),
                        );
                    }
                }

                if !testing {
                    // (D) wall clock.
                    if want(RuleId::WallClock)
                        && (id == "Instant" || id == "SystemTime")
                        && path_call(toks, i, "now")
                    {
                        push(
                            RuleId::WallClock,
                            t,
                            format!("wall-clock read `{id}::now()`; use virtual SimTime"),
                            Vec::new(),
                        );
                    }
                    // (D) ambient randomness.
                    if want(RuleId::AmbientRandom)
                        && matches!(id.as_str(), "thread_rng" | "RandomState" | "from_entropy")
                    {
                        push(
                            RuleId::AmbientRandom,
                            t,
                            format!("ambient randomness `{id}`; derive from the trial seed"),
                            Vec::new(),
                        );
                    }
                    // (D) environment reads: `std :: env`.
                    if want(RuleId::EnvRead)
                        && id == "std"
                        && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                        && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                        && toks.get(i + 3).is_some_and(|a| a.is_ident("env"))
                    {
                        push(
                            RuleId::EnvRead,
                            t,
                            "process environment read via `std::env`".into(),
                            Vec::new(),
                        );
                    }
                    // (D) unordered map iteration.
                    if want(RuleId::MapIter) && hash_names.contains(&id.as_str()) {
                        if let Some((at, method)) = map_iter_finding(toks, i) {
                            if !iter_exempt(toks, i, at) {
                                push(
                                    RuleId::MapIter,
                                    &toks[at],
                                    format!(
                                        "unordered iteration over hash-keyed `{id}` via \
                                         `.{method}()`; sort, collect into a BTreeMap, or \
                                         reduce order-insensitively"
                                    ),
                                    Vec::new(),
                                );
                            }
                        } else if for_loop_over(toks, i) && !iter_exempt(toks, i, i) {
                            push(
                                RuleId::MapIter,
                                t,
                                format!(
                                    "unordered `for` iteration over hash-keyed `{id}`; \
                                     iterate a sorted copy or switch to BTreeMap"
                                ),
                                Vec::new(),
                            );
                        }
                    }
                    // (P) panics.
                    if want(RuleId::HotPanic) {
                        if let Some(path) = gate(&scope.hot, t.line) {
                            if matches!(id.as_str(), "unwrap" | "expect")
                                && i > 0
                                && toks[i - 1].is_punct('.')
                                && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
                            {
                                push(
                                    RuleId::HotPanic,
                                    t,
                                    format!("`.{id}()` on the hot path; handle the None/Err case"),
                                    path.clone(),
                                );
                            }
                            if PANIC_MACROS.contains(&id.as_str())
                                && toks.get(i + 1).is_some_and(|a| a.is_punct('!'))
                            {
                                push(
                                    RuleId::HotPanic,
                                    t,
                                    format!("`{id}!` on the hot path; return an error instead"),
                                    path,
                                );
                            }
                        }
                    }
                    // (P) allocation on a zero-alloc path.
                    if want(RuleId::HotAlloc) {
                        if let Some(path) = gate(&scope.alloc, t.line) {
                            if matches!(id.as_str(), "vec" | "format")
                                && toks.get(i + 1).is_some_and(|a| a.is_punct('!'))
                            {
                                push(
                                    RuleId::HotAlloc,
                                    t,
                                    format!(
                                        "`{id}!` allocates; this function must stay \
                                         allocation-free"
                                    ),
                                    path.clone(),
                                );
                            }
                            if ALLOC_TYPES.contains(&id.as_str()) {
                                for member in ["new", "with_capacity", "from"] {
                                    if path_call(toks, i, member) {
                                        push(
                                            RuleId::HotAlloc,
                                            t,
                                            format!(
                                                "`{id}::{member}` allocates; this function \
                                                 must stay allocation-free"
                                            ),
                                            path.clone(),
                                        );
                                        break;
                                    }
                                }
                            }
                            if ALLOC_METHODS.contains(&id.as_str())
                                && i > 0
                                && toks[i - 1].is_punct('.')
                                && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
                            {
                                push(
                                    RuleId::HotAlloc,
                                    t,
                                    format!(
                                        "`.{id}()` allocates; borrow, reuse a buffer, or \
                                         use `Arc::clone(&..)` for refcount bumps"
                                    ),
                                    path,
                                );
                            }
                        }
                    }
                }
            }
            TokKind::Punct('[')
                // (P) indexing: `expr[...]` — `[` directly after an
                // ident, `)`, or `]` is always an index/slice expression.
                if want(RuleId::HotIndex) && !in_test(&scopes) && i > 0 => {
                    let indexing = match &toks[i - 1].kind {
                        TokKind::Ident(p) => {
                            // Keywords before `[` start array literals
                            // (`return [..]`, `else [..]`), not indexing.
                            !matches!(
                                p.as_str(),
                                "return" | "break" | "else" | "in" | "mut" | "ref" | "const"
                            )
                        }
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                    if indexing {
                        if let Some(path) = gate(&scope.hot, t.line) {
                            push(
                                RuleId::HotIndex,
                                t,
                                "unchecked indexing on the hot path; use `.get(..)` or \
                                 annotate the invariant"
                                    .into(),
                                path,
                            );
                        }
                    }
                }
            _ => {}
        }
        i += 1;
    }

    // --- (C) concurrency family ---------------------------------------
    let conc_rules: Vec<RuleId> = rules
        .iter()
        .copied()
        .filter(|r| r.family() == 'C')
        .collect();
    let mut lock_edges: Vec<LockEdge> = Vec::new();
    if !conc_rules.is_empty() {
        let symbols = crate::symbols::extract(file, &lexed);
        let conc = crate::concurrency::analyze(file, &lexed, &symbols, &conc_rules);
        let mut conc_findings = conc.findings;
        // Intra-file lock-order cycles are detectable (and fixable)
        // locally; the workspace pass adds only cross-file ones.
        if conc_rules.contains(&RuleId::LockOrder) {
            for ci in cycle_edge_indices(&conc.edges) {
                conc_findings.push(cycle_finding(&conc.edges[ci]));
            }
        }
        for cf in conc_findings {
            raw.push(Finding {
                rule: cf.rule,
                file: file.to_string(),
                line: cf.line,
                col: cf.col,
                message: cf.message,
                snippet: snippet(cf.line),
                status: Status::Deny,
                justification: None,
                path: None,
            });
        }
        lock_edges = conc.edges;
    }

    // --- Apply allow annotations --------------------------------------
    // Scope (item) allows were not resolvable during the walk for
    // findings (we need finding lines), so re-derive: an item allow
    // suppresses findings between its line and the end of the item it
    // precedes. Rather than re-walk scopes, use the simpler contract
    // that the walk recorded: re-run the scope pass attaching line
    // ranges to item allows.
    let item_ranges = item_allow_ranges(toks, &allows);

    raw.sort_by_key(|a| (a.line, a.col));
    // Next code line after each annotation line, for standalone allows.
    let mut token_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    token_lines.dedup();
    let next_code_line = |after: u32| -> u32 {
        token_lines
            .iter()
            .copied()
            .find(|&l| l > after)
            .unwrap_or(u32::MAX)
    };

    for f in &mut raw {
        // Line allows first: most specific.
        let mut matched = false;
        for a in allows.iter_mut().filter(|a| !a.item) {
            if a.used || !a.rules.contains(&f.rule) || a.justification.is_empty() {
                continue;
            }
            let target = if a.trailing {
                a.line
            } else {
                next_code_line(a.line)
            };
            if target == f.line {
                a.used = true;
                f.status = Status::Allowed;
                f.justification = Some(a.justification.clone());
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        // Item allows.
        if let Some(&(ai, start, end)) = item_ranges
            .iter()
            .find(|&&(ai, start, end)| {
                f.line >= start && f.line <= end && allows[ai].rules.contains(&f.rule)
            })
            .filter(|&&(ai, _, _)| !allows[ai].justification.is_empty())
        {
            let _ = (start, end);
            allows[ai].used = true;
            f.status = Status::Allowed;
            f.justification = Some(allows[ai].justification.clone());
        }
    }

    let unused_allows = allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| {
            let what = if a.justification.is_empty() {
                "malformed (missing justification)".to_string()
            } else {
                format!(
                    "unused allow({})",
                    a.rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            (what, a.line)
        })
        .collect();

    ScanResult {
        findings: raw,
        unused_allows,
        lock_edges,
    }
}

/// Line span (start..=end) each `allow-item` annotation governs: from
/// its line to the closing brace of the first item opened at or after
/// it.
fn item_allow_ranges(toks: &[Token], allows: &[Allow]) -> Vec<(usize, u32, u32)> {
    let mut out = Vec::new();
    for (ai, a) in allows.iter().enumerate() {
        if !a.item {
            continue;
        }
        // Find the first `{` at/after the annotation line, then its
        // matching `}`.
        let mut depth = 0usize;
        let mut end_line = u32::MAX;
        let mut started = false;
        for t in toks {
            if t.line < a.line {
                continue;
            }
            match t.kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    started = true;
                }
                TokKind::Punct('}') if started => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push((ai, a.line, end_line));
    }
    out
}

/// Collects identifiers declared (or annotated) with a
/// `HashMap`/`HashSet` type anywhere in the file: struct fields,
/// `let` bindings, and fn parameters. Coarse by design — a name is
/// hash-typed file-wide.
fn collect_hash_names(toks: &[Token]) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    let is_hash = |s: &str| s == "HashMap" || s == "HashSet";
    let mut i = 0usize;
    while i < toks.len() {
        if let TokKind::Ident(name) = &toks[i].kind {
            // `name : ... HashMap/HashSet ...` up to a type-position
            // terminator.
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && !(i > 0 && toks[i - 1].is_punct(':'))
            {
                let mut j = i + 2;
                let mut steps = 0;
                while j < toks.len() && steps < 40 {
                    match &toks[j].kind {
                        TokKind::Punct(';' | '{' | '}' | ')' | '=') => break,
                        TokKind::Punct(',') => break,
                        TokKind::Ident(s) if is_hash(s) => {
                            names.push(name.as_str());
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                    steps += 1;
                }
            }
            // `let [mut] name ... = ... HashMap/HashSet :: new(...)`.
            if name == "let" {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(TokKind::Ident(bound)) = toks.get(j).map(|t| &t.kind) {
                    let mut k = j + 1;
                    let mut steps = 0;
                    let mut hash_init = false;
                    while k < toks.len() && steps < 60 {
                        match &toks[k].kind {
                            TokKind::Punct(';') => break,
                            TokKind::Ident(s) if is_hash(s) => {
                                hash_init = true;
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                        steps += 1;
                    }
                    if hash_init {
                        names.push(bound.as_str());
                    }
                }
            }
        }
        i += 1;
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// True when tokens at `i` form `Name :: member (` for the given member.
fn path_call(toks: &[Token], i: usize, member: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(member))
}

/// Follows a method chain starting at the hash-typed ident `i`. Returns
/// the token index and method name of the first iteration method, if
/// the chain reaches one through pass-through views only.
fn map_iter_finding(toks: &[Token], i: usize) -> Option<(usize, String)> {
    let mut j = i + 1;
    loop {
        // Optional `?` between links.
        if toks.get(j).is_some_and(|t| t.is_punct('?')) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('.')) {
            return None;
        }
        let m = toks.get(j + 1)?;
        let name = m.ident()?;
        if !toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
            // Field access (`a.b`): treat as pass-through of one hop so
            // `self.field.iter()` reaches the method when `field` is the
            // hash-typed name — but only the *ident* check matters, so a
            // plain field hop ends the chain here.
            return None;
        }
        if ITER_METHODS.contains(&name) {
            return Some((j + 1, name.to_string()));
        }
        if !PASS_THROUGH.contains(&name) {
            return None;
        }
        // Skip the call's arguments.
        j = skip_parens(toks, j + 2)?;
    }
}

/// Given `i` at `(`, returns the index just past its matching `)`.
fn skip_parens(toks: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// True when the hash-typed ident at `i` is the full iterable of a
/// `for` loop: `for pat in [&][mut][self.]name { ... }` (a chained
/// call after the name is the chain matcher's business instead).
fn for_loop_over(toks: &[Token], i: usize) -> bool {
    // Next non-pass tokens must open the loop body.
    let mut j = i + 1;
    // Allow `.borrow()`-style pass-through between name and `{`.
    loop {
        if toks.get(j).is_some_and(|t| t.is_punct('.')) {
            let Some(name) = toks.get(j + 1).and_then(|t| t.ident()) else {
                return false;
            };
            if !PASS_THROUGH.contains(&name) {
                return false;
            }
            match toks.get(j + 2) {
                Some(t) if t.is_punct('(') => match skip_parens(toks, j + 2) {
                    Some(n) => j = n,
                    None => return false,
                },
                _ => return false,
            }
            continue;
        }
        break;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    // Walk backwards over `& mut self .` prefixes to find `in`.
    let mut k = i;
    while k > 0 {
        let p = &toks[k - 1];
        let passes = matches!(&p.kind, TokKind::Punct('&') | TokKind::Punct('.'))
            || p.is_ident("mut")
            || p.is_ident("self");
        if passes {
            k -= 1;
        } else {
            break;
        }
    }
    k > 0 && toks[k - 1].is_ident("in")
}

/// Exemption scan for a map-iteration candidate: the enclosing
/// statement ends in an ordering sink or an order-insensitive
/// reduction, or it is a `let` binding whose bound name is sorted
/// within the next two statements. A `for` statement is never exempt —
/// its body is side effects, which no later sort can reorder.
fn iter_exempt(toks: &[Token], ident_at: usize, found_at: usize) -> bool {
    // Statement start: walk back to the nearest `;`, `{` or `}`.
    let mut start = ident_at;
    while start > 0 {
        match toks[start - 1].kind {
            TokKind::Punct(';' | '{' | '}') => break,
            _ => start -= 1,
        }
    }
    if toks.get(start).is_some_and(|t| t.is_ident("for")) {
        return false;
    }
    // Statement end: forward to the next `;` at brace depth 0 (relative
    // to the statement), or a closing `}` that unwinds it.
    let mut end = found_at;
    let mut depth = 0i32;
    while end < toks.len() {
        match toks[end].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    // Same-statement sinks.
    for t in &toks[found_at..end] {
        if let TokKind::Ident(s) = &t.kind {
            if ORDERING_SINKS.contains(&s.as_str()) || ORDER_INSENSITIVE.contains(&s.as_str()) {
                return true;
            }
        }
    }
    // `let [mut] v = ...;` followed within two statements by `v.sort*`.
    let mut s = start;
    if toks.get(s).is_some_and(|t| t.is_ident("let")) {
        s += 1;
        if toks.get(s).is_some_and(|t| t.is_ident("mut")) {
            s += 1;
        }
        if let Some(bound) = toks.get(s).and_then(|t| t.ident()) {
            let mut j = end;
            let mut stmts = 0;
            while j + 2 < toks.len() && stmts < 2 {
                if toks[j].is_punct(';') {
                    stmts += 1;
                }
                if toks[j].is_ident(bound)
                    && toks[j + 1].is_punct('.')
                    && toks[j + 2]
                        .ident()
                        .is_some_and(|m| ORDERING_SINKS.contains(&m))
                {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}
