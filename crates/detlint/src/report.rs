//! Diagnostics rendering (human text and machine JSON) and the
//! baseline machinery for grandfathered findings.
//!
//! The JSON schema is a stability contract (tested in
//! `tests/fixtures.rs`): CI archives the report, and downstream
//! tooling may diff reports across commits. Fields are emitted in a
//! fixed order by a hand-rolled writer — no serde, so the lint tool
//! stays dependency-free and builds first in a cold workspace.

use crate::engine::{Finding, Status};
use crate::rules::ALL_RULES;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version of the JSON report; bump on any breaking change.
/// v2: findings gained a `"path"` field (the call-graph route from a
/// hot root to a transitively-hot finding), and the rule catalogue
/// gained `hot-alloc` plus the (C) concurrency family.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Aggregate result of scanning a set of files.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// (message, file, line) for allow annotations that matched nothing.
    pub unused_allows: Vec<(String, String, u32)>,
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the gate (un-annotated, not baselined).
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == Status::Deny)
            .count()
    }

    pub fn allowed_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == Status::Allowed)
            .count()
    }

    pub fn baselined_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == Status::Baselined)
            .count()
    }

    /// Sorts findings into the canonical (file, line, col, rule) order.
    pub fn canonicalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
        });
        self.unused_allows.sort();
    }

    /// Human-readable rendering: one block per finding, then a summary.
    pub fn render_text(&self, verbose_allows: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            match f.status {
                Status::Deny => {
                    let _ = writeln!(
                        out,
                        "{}:{}:{}: [{}/{}] {}\n    {}",
                        f.file,
                        f.line,
                        f.col,
                        f.rule.family(),
                        f.rule.name(),
                        f.message,
                        f.snippet
                    );
                }
                Status::Allowed if verbose_allows => {
                    let _ = writeln!(
                        out,
                        "{}:{}:{}: allowed [{}] — {}",
                        f.file,
                        f.line,
                        f.col,
                        f.rule.name(),
                        f.justification.as_deref().unwrap_or("")
                    );
                }
                _ => {}
            }
        }
        for (msg, file, line) in &self.unused_allows {
            let _ = writeln!(out, "{file}:{line}: warning: {msg}");
        }
        let mut by_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let e = by_rule.entry(f.rule.name()).or_default();
            match f.status {
                Status::Deny => e.0 += 1,
                _ => e.1 += 1,
            }
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s) scanned, {} finding(s) denied, {} allowed, {} baselined",
            self.files_scanned,
            self.deny_count(),
            self.allowed_count(),
            self.baselined_count()
        );
        for (rule, (deny, exempt)) in &by_rule {
            let _ = writeln!(out, "  {rule}: {deny} denied, {exempt} exempted");
        }
        out
    }

    /// Machine-readable rendering. Schema (version 2):
    ///
    /// ```json
    /// {
    ///   "detlint_schema": 2,
    ///   "files_scanned": N,
    ///   "counts": {"deny": N, "allowed": N, "baselined": N},
    ///   "by_rule": {"<rule>": {"deny": N, "allowed": N, "baselined": N}, ...},
    ///   "findings": [
    ///     {"rule": "...", "family": "D", "file": "...", "line": N,
    ///      "column": N, "status": "deny|allowed|baselined",
    ///      "message": "...", "snippet": "...", "justification": "..."|null,
    ///      "path": ["file::root_fn", ..., "file::fn"]|null}
    ///   ],
    ///   "unused_allows": [{"file": "...", "line": N, "message": "..."}]
    /// }
    /// ```
    ///
    /// `"path"` is the shortest call-graph route by which a hot root
    /// reaches the finding's function; `null` when the finding's rule
    /// applies to its whole file directly.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"detlint_schema\": {JSON_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"counts\": {{\"deny\": {}, \"allowed\": {}, \"baselined\": {}}},",
            self.deny_count(),
            self.allowed_count(),
            self.baselined_count()
        );
        out.push_str("  \"by_rule\": {");
        for (ri, rule) in ALL_RULES.iter().enumerate() {
            let (mut d, mut a, mut b) = (0, 0, 0);
            for f in self.findings.iter().filter(|f| f.rule == *rule) {
                match f.status {
                    Status::Deny => d += 1,
                    Status::Allowed => a += 1,
                    Status::Baselined => b += 1,
                }
            }
            let _ = write!(
                out,
                "{}\n    \"{}\": {{\"deny\": {d}, \"allowed\": {a}, \"baselined\": {b}}}",
                if ri == 0 { "" } else { "," },
                rule.name()
            );
        }
        out.push_str("\n  },\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"family\": \"{}\", \"file\": {}, \"line\": {}, \
                 \"column\": {}, \"status\": \"{}\", \"message\": {}, \"snippet\": {}, \
                 \"justification\": {}, \"path\": {}}}",
                if i == 0 { "" } else { "," },
                f.rule.name(),
                f.rule.family(),
                json_str(&f.file),
                f.line,
                f.col,
                f.status.name(),
                json_str(&f.message),
                json_str(&f.snippet),
                match &f.justification {
                    Some(j) => json_str(j),
                    None => "null".to_string(),
                },
                match &f.path {
                    Some(p) => format!(
                        "[{}]",
                        p.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
                    ),
                    None => "null".to_string(),
                }
            );
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"unused_allows\": [");
        for (i, (msg, file, line)) in self.unused_allows.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"file\": {}, \"line\": {line}, \"message\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(file),
                json_str(msg)
            );
        }
        out.push_str(if self.unused_allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
    /// Per-rule finding counts in a stable text form, for the CI drift
    /// gate: `rule<TAB>deny<TAB>allowed<TAB>baselined`, one line per
    /// catalogue rule, preceded by a comment header.
    pub fn render_counts(&self) -> String {
        let mut out = String::from(
            "# detlint finding counts by rule (deny<TAB>allowed<TAB>baselined).\n\
             # CI diffs this against the committed baseline; regenerate with\n\
             # `detlint --write-counts <file>` and justify the drift in the PR.\n",
        );
        for rule in ALL_RULES {
            let (mut d, mut a, mut b) = (0, 0, 0);
            for f in self.findings.iter().filter(|f| f.rule == *rule) {
                match f.status {
                    Status::Deny => d += 1,
                    Status::Allowed => a += 1,
                    Status::Baselined => b += 1,
                }
            }
            let _ = writeln!(out, "{}\t{d}\t{a}\t{b}", rule.name());
        }
        out
    }

    /// Compares this report's counts against a committed counts file.
    /// Returns every drifted rule as a human-readable line.
    pub fn check_counts(&self, committed: &str) -> Vec<String> {
        let expected: BTreeMap<&str, &str> = committed
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once('\t'))
            .collect();
        let mut drift = Vec::new();
        for line in self.render_counts().lines().filter(|l| !l.starts_with('#')) {
            let Some((rule, got)) = line.split_once('\t') else {
                continue;
            };
            match expected.get(rule) {
                Some(want) if *want == got => {}
                Some(want) => drift.push(format!(
                    "{rule}: counts drifted (deny/allowed/baselined): committed {}, now {}",
                    want.replace('\t', "/"),
                    got.replace('\t', "/")
                )),
                None => drift.push(format!(
                    "{rule}: missing from the committed counts file (now {})",
                    got.replace('\t', "/")
                )),
            }
        }
        drift
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over a trimmed source line: the content key baselines use, so
/// grandfathered findings survive line-number drift.
pub fn line_hash(snippet: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in snippet.trim().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A baseline: a multiset of grandfathered findings keyed by
/// `(rule, file, content-hash)`. One line per entry:
/// `rule<TAB>file<TAB>hash-hex`. `#` starts a comment.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeMap<(String, String, u64), usize>,
}

impl Baseline {
    /// Parses baseline file contents. Unparsable lines are ignored
    /// (forward compatibility).
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(rule), Some(file), Some(hash)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(hash) = u64::from_str_radix(hash, 16) else {
                continue;
            };
            *entries
                .entry((rule.to_string(), file.to_string(), hash))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Serializes the still-denied findings of `report` as a baseline.
    pub fn write(report: &Report) -> String {
        let mut out = String::from(
            "# detlint baseline: grandfathered findings (rule<TAB>file<TAB>line-content-hash).\n\
             # Regenerate with `detlint --write-baseline <file>`; shrink it, never grow it.\n",
        );
        for f in &report.findings {
            if f.status == Status::Deny {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{:016x}",
                    f.rule.name(),
                    f.file,
                    line_hash(&f.snippet)
                );
            }
        }
        out
    }

    /// Marks findings present in the baseline as [`Status::Baselined`],
    /// consuming one baseline entry per finding.
    pub fn apply(&mut self, report: &mut Report) {
        for f in &mut report.findings {
            if f.status != Status::Deny {
                continue;
            }
            let key = (
                f.rule.name().to_string(),
                f.file.clone(),
                line_hash(&f.snippet),
            );
            if let Some(n) = self.entries.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    f.status = Status::Baselined;
                }
            }
        }
    }
}
