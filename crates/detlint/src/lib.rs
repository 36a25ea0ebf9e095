//! # detlint — workspace determinism & hot-path lint engine
//!
//! Every experiment in this reproduction (fig2/3/5, table2, chaos) must
//! be byte-identical across `--threads {1,2,8}`: the paper's latency
//! decompositions are only trustworthy if the simulation is
//! deterministic. The determinism/golden suites enforce that invariant
//! *dynamically* by diffing outputs; `detlint` enforces the *causes*
//! statically, before a nondeterministic source ever reaches a diff —
//! the same way Traffic Control and CoreDNS (the paper's C-DNS/L-DNS
//! substrates) gate merges on custom vet passes.
//!
//! Four rule families (see [`rules::RuleId`]):
//!
//! * **(D) determinism** — no wall-clock reads, ambient randomness or
//!   environment reads in crate sources; no unordered `HashMap`/
//!   `HashSet` iteration in output-affecting crates unless immediately
//!   sorted, collected into an ordered container, or reduced
//!   order-insensitively.
//! * **(P) panic-freedom & allocation** — no `unwrap`/`expect`/
//!   `panic!`-family or unchecked indexing on the resolution hot path,
//!   *transitively*: the workspace scan builds an approximate call
//!   graph ([`symbols`], [`callgraph`]) and propagates the hot rules
//!   from the [`rules::HOT_PATH_FILES`] roots to every reachable
//!   function; no heap allocation reachable from a
//!   [`rules::HOT_ALLOC_ROOTS`] zero-alloc root.
//! * **(C) concurrency** — no `Ordering::Relaxed` on control-flow-
//!   gating atomics, no lock-order cycles (detected across files), no
//!   `.lock().unwrap()` poisoning amplifiers, no blocking calls under
//!   a held guard ([`concurrency`]).
//! * **(S) unsafe hygiene** — every `unsafe` carries a `// SAFETY:`
//!   comment.
//!
//! Suppression is only possible through visible, audited annotations
//! (`// detlint: allow(rule) — justification`, or `allow-item` for an
//! invariant-heavy item) or a `--baseline` file of grandfathered
//! findings; both are counted in every report.
//!
//! The engine is self-contained — a hand-rolled lexer and a lightweight
//! scope tracker, no `syn`, no dependencies — because the build
//! environment has no registry access and vendored stand-ins should not
//! gate the linter that audits them.

pub mod callgraph;
pub mod concurrency;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

pub use engine::{scan_source, scan_source_scoped, Finding, HotScope, HotSpan, ScanResult, Status};
pub use report::{Baseline, Report, JSON_SCHEMA_VERSION};
pub use rules::{
    rules_for_path, RuleId, ALL_RULES, HOT_ALLOC_ROOTS, HOT_PATH_FILES, OUTPUT_AFFECTING_CRATES,
};

use callgraph::CallGraph;
use concurrency::{cycle_edge_indices, cycle_finding, LockEdge};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use symbols::FnDef;

/// Directories never scanned: third-party stand-ins, build output, VCS
/// metadata, and the deliberately-violating lint fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Collects every lintable `.rs` file under `root`, sorted, as
/// workspace-relative forward-slash paths.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The workspace-relative path of `file` under `root`, with forward
/// slashes (the form the policy tables and reports use).
pub fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Knobs for a workspace scan. The default is the standard policy:
/// transitive hot-path propagation from [`HOT_PATH_FILES`], hot-alloc
/// propagation from [`HOT_ALLOC_ROOTS`], and the concurrency family on.
#[derive(Debug, Clone)]
pub struct WorkspaceOptions {
    /// Files whose every non-test function roots hot-panic/hot-index
    /// propagation (the files themselves stay hot *whole-file*, so the
    /// transitive scan strictly extends the per-file one).
    pub hot_root_files: Vec<String>,
    /// `(file, fn-name)` pairs rooting hot-alloc propagation.
    pub alloc_roots: Vec<(String, String)>,
    /// Propagate hot rules through the call graph (v1 behaviour: off).
    pub transitive: bool,
    /// Run the (C) concurrency family (v1 behaviour: off).
    pub concurrency: bool,
}

impl Default for WorkspaceOptions {
    fn default() -> Self {
        WorkspaceOptions {
            hot_root_files: HOT_PATH_FILES.iter().map(|s| s.to_string()).collect(),
            alloc_roots: HOT_ALLOC_ROOTS
                .iter()
                .map(|(f, n)| (f.to_string(), n.to_string()))
                .collect(),
            transitive: true,
            concurrency: true,
        }
    }
}

impl WorkspaceOptions {
    /// The schema-v1 behaviour: per-file hot rules only, no call graph,
    /// no concurrency family. Kept for the differential superset test —
    /// v2's findings must contain everything v1 found.
    pub fn v1_compat() -> Self {
        WorkspaceOptions {
            transitive: false,
            concurrency: false,
            alloc_roots: Vec::new(),
            ..WorkspaceOptions::default()
        }
    }
}

/// Scans the whole workspace at `root` under the standard policy.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    scan_workspace_with(root, &WorkspaceOptions::default())
}

/// Scans the workspace in two phases: (1) extract every file's symbols
/// and build the approximate call graph, computing the transitive
/// hot-path and zero-alloc closures; (2) scan each file with its policy
/// rules plus the hot spans the closures assign it, then run cross-file
/// lock-order cycle detection over the merged acquisition graph.
pub fn scan_workspace_with(root: &Path, opts: &WorkspaceOptions) -> std::io::Result<Report> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in collect_files(root)? {
        let rel = relative_path(root, &file);
        if rules_for_path(&rel).is_empty() {
            continue;
        }
        sources.push((rel, std::fs::read_to_string(&file)?));
    }

    // --- Phase 1: symbol index + call-graph closures ------------------
    // Integration tests, benches and examples are separate compilation
    // units: production roots cannot reach them, so any edge into them
    // is a name collision. Keep them out of the graph entirely.
    let harness_only = |rel: &str| {
        rel.split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
    };
    let mut all_fns: Vec<FnDef> = Vec::new();
    if opts.transitive {
        for (rel, src) in &sources {
            if !harness_only(rel) {
                all_fns.extend(symbols::extract(rel, &lexer::lex(src)).fns);
            }
        }
    }
    let graph = CallGraph::build(&all_fns);
    let (hot_fns, alloc_fns) = if opts.transitive {
        let mut hot_roots: Vec<usize> = Vec::new();
        for f in &opts.hot_root_files {
            hot_roots.extend(graph.fns_in_file(f));
        }
        let alloc_roots: Vec<usize> = all_fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && opts
                        .alloc_roots
                        .iter()
                        .any(|(af, an)| *af == f.file && *an == f.name)
            })
            .map(|(i, _)| i)
            .collect();
        (graph.closure(&hot_roots), graph.closure(&alloc_roots))
    } else {
        (BTreeMap::new(), BTreeMap::new())
    };
    let spans_for = |closure: &BTreeMap<usize, Vec<String>>, rel: &str| -> Vec<HotSpan> {
        closure
            .iter()
            .filter(|(&i, _)| all_fns[i].file == rel)
            .map(|(&i, path)| HotSpan {
                start: all_fns[i].start_line,
                end: all_fns[i].end_line,
                path: path.clone(),
            })
            .collect()
    };

    // --- Phase 2: per-file scans with hot scoping ---------------------
    let mut report = Report::default();
    let mut edges_by_file: Vec<(String, Vec<LockEdge>)> = Vec::new();
    for (rel, src) in &sources {
        let mut rules = rules_for_path(rel);
        if !opts.concurrency {
            rules.retain(|r| r.family() != 'C');
        }
        let is_root = opts.hot_root_files.iter().any(|f| f == rel);
        let mut scope = HotScope::default();
        if is_root {
            // Whole-file hot (scope.hot = None): the superset invariant
            // over the v1 per-file scan.
            for r in [RuleId::HotPanic, RuleId::HotIndex] {
                if !rules.contains(&r) {
                    rules.push(r);
                }
            }
        } else {
            let spans = spans_for(&hot_fns, rel);
            if !spans.is_empty() {
                for r in [RuleId::HotPanic, RuleId::HotIndex] {
                    if !rules.contains(&r) {
                        rules.push(r);
                    }
                }
                scope.hot = Some(spans);
            }
        }
        let alloc_spans = spans_for(&alloc_fns, rel);
        if !alloc_spans.is_empty() {
            rules.push(RuleId::HotAlloc);
            scope.alloc = Some(alloc_spans);
        }
        rules.sort();
        rules.dedup();
        let res = scan_source_scoped(rel, src, &rules, &scope);
        report.findings.extend(res.findings);
        report.unused_allows.extend(
            res.unused_allows
                .into_iter()
                .map(|(m, l)| (m, rel.clone(), l)),
        );
        if !res.lock_edges.is_empty() {
            edges_by_file.push((rel.clone(), res.lock_edges));
        }
        report.files_scanned += 1;
    }

    // --- Cross-file lock-order cycles ---------------------------------
    // Lock names are crate-qualified for the merged graph so two crates'
    // unrelated `state` fields cannot fabricate a cycle; edges already
    // reported by a file's own intra-file pass are skipped.
    if opts.concurrency {
        let mut merged: Vec<LockEdge> = Vec::new();
        let mut intra: Vec<(String, u32, u32)> = Vec::new();
        for (rel, edges) in &edges_by_file {
            for idx in cycle_edge_indices(edges) {
                let e = &edges[idx];
                intra.push((rel.clone(), e.line, e.col));
            }
            let krate = rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or(rel);
            merged.extend(edges.iter().map(|e| LockEdge {
                from: format!("{krate}::{}", e.from),
                to: format!("{krate}::{}", e.to),
                file: e.file.clone(),
                line: e.line,
                col: e.col,
            }));
        }
        let lines: Vec<Vec<&str>> = sources
            .iter()
            .map(|(_, src)| src.lines().collect())
            .collect();
        for idx in cycle_edge_indices(&merged) {
            let e = &merged[idx];
            if intra.contains(&(e.file.clone(), e.line, e.col)) {
                continue;
            }
            let cf = cycle_finding(e);
            let snippet = sources
                .iter()
                .position(|(rel, _)| *rel == e.file)
                .and_then(|fi| lines[fi].get(e.line as usize - 1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            report.findings.push(Finding {
                rule: cf.rule,
                file: e.file.clone(),
                line: cf.line,
                col: cf.col,
                message: cf.message,
                snippet,
                status: Status::Deny,
                justification: None,
                path: None,
            });
        }
    }

    report.canonicalize();
    Ok(report)
}

/// Walks upward from `start` to the nearest directory whose
/// `Cargo.toml` declares `[workspace]`; falls back to `start`.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut cur = start.to_path_buf();
    loop {
        let manifest = cur.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return cur;
            }
        }
        if !cur.pop() {
            return start.to_path_buf();
        }
    }
}
