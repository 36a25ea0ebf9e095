//! Integration tests: one bad + one good fixture per rule, JSON schema
//! stability, allow-annotation semantics, baseline round-trips, and the
//! gate invariant itself — the workspace must scan clean.

use detlint::engine::{scan_source, Finding, Status};
use detlint::report::{line_hash, Baseline, Report};
use detlint::rules::RuleId;
use std::path::Path;

/// Reads a fixture file from `tests/fixtures/<rule>/<kind>.rs`.
fn fixture(rule: &str, kind: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(format!("{kind}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn denied(findings: &[Finding], rule: RuleId) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status == Status::Deny)
        .count()
}

/// Scans a fixture under exactly one rule.
fn scan_fixture(rule: RuleId, kind: &str) -> Vec<Finding> {
    scan_source(
        &format!("fixtures/{}/{kind}.rs", rule.name()),
        &fixture(rule.name(), kind),
        &[rule],
    )
    .findings
}

#[test]
fn every_rule_denies_its_bad_fixture_and_passes_its_good_one() {
    for rule in detlint::ALL_RULES {
        let bad = scan_fixture(*rule, "bad");
        assert!(
            denied(&bad, *rule) >= 1,
            "{}: bad fixture produced no denied finding: {bad:?}",
            rule.name()
        );
        let good = scan_fixture(*rule, "good");
        assert_eq!(
            denied(&good, *rule),
            0,
            "{}: good fixture was denied: {good:?}",
            rule.name()
        );
    }
}

#[test]
fn bad_fixture_counts_are_exact() {
    // Pin the per-fixture finding counts so a matcher regression that
    // adds or drops sites is caught, not just total emptiness.
    let expect = [
        (RuleId::WallClock, 2),
        (RuleId::AmbientRandom, 4),
        (RuleId::EnvRead, 2),
        (RuleId::MapIter, 3),
        (RuleId::HotPanic, 4),
        (RuleId::HotIndex, 3),
        (RuleId::HotAlloc, 6),
        (RuleId::AtomicOrder, 3),
        (RuleId::LockOrder, 3),
        (RuleId::LockUnwrap, 3),
        (RuleId::GuardBlocking, 2),
        (RuleId::UnsafeComment, 1),
    ];
    for (rule, n) in expect {
        let bad = scan_fixture(rule, "bad");
        assert_eq!(
            denied(&bad, rule),
            n,
            "{}: expected {n} denied findings, got {bad:?}",
            rule.name()
        );
    }
}

#[test]
fn allow_suppresses_exactly_one_finding() {
    // Two violations share the line; the single trailing allow may only
    // absolve one of them.
    let src = "\
fn f(t0: Instant, t1: Instant) -> bool {
    t0.now() == Instant::now() && SystemTime::now().elapsed().is_ok() // detlint: allow(wall-clock) — fixture
}
";
    let res = scan_source("x.rs", src, &[RuleId::WallClock]);
    let allowed = res
        .findings
        .iter()
        .filter(|f| f.status == Status::Allowed)
        .count();
    let denied = res
        .findings
        .iter()
        .filter(|f| f.status == Status::Deny)
        .count();
    assert_eq!(allowed, 1, "{:?}", res.findings);
    assert_eq!(denied, 1, "{:?}", res.findings);
}

#[test]
fn standalone_allow_covers_the_next_code_line() {
    let src = "\
// detlint: allow(wall-clock) — fixture justification
let t = Instant::now();
";
    let res = scan_source("x.rs", src, &[RuleId::WallClock]);
    assert_eq!(res.findings.len(), 1);
    assert_eq!(res.findings[0].status, Status::Allowed);
    assert_eq!(
        res.findings[0].justification.as_deref(),
        Some("fixture justification")
    );
}

#[test]
fn unused_allow_is_reported() {
    let src = "// detlint: allow(wall-clock) — nothing here violates it\nlet x = 1;\n";
    let res = scan_source("x.rs", src, &[RuleId::WallClock]);
    assert!(res.findings.is_empty());
    assert_eq!(res.unused_allows.len(), 1, "{:?}", res.unused_allows);
}

#[test]
fn allow_item_covers_only_its_item() {
    let src = "\
// detlint: allow-item(hot-panic) — fixture justification
fn covered() {
    panic!(\"inside the item\");
}

fn uncovered() {
    panic!(\"outside the item\");
}
";
    let res = scan_source("x.rs", src, &[RuleId::HotPanic]);
    let statuses: Vec<Status> = res.findings.iter().map(|f| f.status).collect();
    assert_eq!(statuses, vec![Status::Allowed, Status::Deny]);
}

#[test]
fn json_schema_is_stable() {
    // The exact bytes of a one-finding report. CI archives these
    // reports; any change here is a schema break and must bump
    // JSON_SCHEMA_VERSION.
    let mut report = Report {
        findings: vec![Finding {
            rule: RuleId::WallClock,
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 13,
            message: "wall-clock read `Instant::now()`; use virtual SimTime".into(),
            snippet: "let t = Instant::now();".into(),
            status: Status::Deny,
            justification: None,
            path: Some(vec![
                "crates/x/src/lib.rs::root".into(),
                "crates/x/src/lib.rs::leaf".into(),
            ]),
        }],
        unused_allows: vec![],
        files_scanned: 1,
    };
    report.canonicalize();
    let expected = concat!(
        "{\n",
        "  \"detlint_schema\": 2,\n",
        "  \"files_scanned\": 1,\n",
        "  \"counts\": {\"deny\": 1, \"allowed\": 0, \"baselined\": 0},\n",
        "  \"by_rule\": {\n",
        "    \"wall-clock\": {\"deny\": 1, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"ambient-random\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"env-read\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"map-iter\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"hot-panic\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"hot-index\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"hot-alloc\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"atomic-order\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"lock-order\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"lock-unwrap\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"guard-blocking\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0},\n",
        "    \"unsafe-comment\": {\"deny\": 0, \"allowed\": 0, \"baselined\": 0}\n",
        "  },\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"wall-clock\", \"family\": \"D\", \"file\": \"crates/x/src/lib.rs\", ",
        "\"line\": 7, \"column\": 13, \"status\": \"deny\", ",
        "\"message\": \"wall-clock read `Instant::now()`; use virtual SimTime\", ",
        "\"snippet\": \"let t = Instant::now();\", \"justification\": null, ",
        "\"path\": [\"crates/x/src/lib.rs::root\", \"crates/x/src/lib.rs::leaf\"]}\n",
        "  ],\n",
        "  \"unused_allows\": []\n",
        "}\n",
    );
    assert_eq!(report.render_json(), expected);
}

#[test]
fn baseline_round_trips_and_consumes_multiset_entries() {
    let src = fixture("wall-clock", "bad");
    let mut report = Report {
        findings: scan_source("fixtures/wall-clock/bad.rs", &src, &[RuleId::WallClock]).findings,
        unused_allows: vec![],
        files_scanned: 1,
    };
    report.canonicalize();
    assert_eq!(report.deny_count(), 2);

    // Grandfather everything, re-apply: nothing denied, all baselined.
    let text = Baseline::write(&report);
    Baseline::parse(&text).apply(&mut report);
    assert_eq!(report.deny_count(), 0);
    assert_eq!(report.baselined_count(), 2);

    // The hash keys on trimmed content, so line drift does not invalidate
    // an entry.
    let f = &report.findings[0];
    assert_eq!(
        line_hash(&f.snippet),
        line_hash(&format!("  {}  ", f.snippet))
    );
}

#[test]
fn workspace_scans_clean() {
    // The gate invariant: the repo itself must have zero un-annotated
    // findings — the same check CI runs with `--deny`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = detlint::scan_workspace(&root).expect("workspace scan succeeds");
    let denied: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.status == Status::Deny)
        .collect();
    assert!(
        denied.is_empty(),
        "workspace has un-annotated findings:\n{}",
        denied
            .iter()
            .map(|f| format!(
                "  {}:{}:{} [{}] {}",
                f.file,
                f.line,
                f.col,
                f.rule.name(),
                f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}

#[test]
fn fixture_tree_denies_under_the_cli_policy() {
    // `detlint --root crates/detlint/tests/fixtures --deny` must exit
    // non-zero: every bad fixture denied, every good fixture clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let report = detlint::scan_workspace(&root).expect("fixture scan succeeds");
    for rule in detlint::ALL_RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == *rule
                && f.status == Status::Deny
                && f.file.ends_with("/bad.rs")),
            "{}: no denied finding from its bad fixture",
            rule.name()
        );
    }
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.status == Status::Deny && f.file.ends_with("/good.rs")),
        "a good fixture was denied"
    );
}

#[test]
fn transitive_fixture_fails_deny_with_its_root_path_in_json() {
    // The seeded call chain: hot_root.rs::serve → mid.rs::mid_step →
    // helper.rs::helper_finish, which panics. A per-file scan of
    // helper.rs alone is clean (it is not a hot root); the workspace
    // closure must carry hotness across both hops and report the
    // root→…→fn path in the finding.
    use detlint::WorkspaceOptions;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");

    // v1 baseline: the same roots without call-graph propagation see
    // nothing — hot_root.rs is clean and helper.rs is not a root.
    let v1_opts = WorkspaceOptions {
        hot_root_files: vec!["transitive/hot_root.rs".into()],
        alloc_roots: vec![],
        transitive: false,
        ..WorkspaceOptions::default()
    };
    let v1 = detlint::scan_workspace_with(&root, &v1_opts).expect("fixture scan succeeds");
    assert!(
        !v1.findings
            .iter()
            .any(|f| f.file.starts_with("transitive/")),
        "non-transitive scan should not reach helper.rs: {:?}",
        v1.findings
    );

    let opts = WorkspaceOptions {
        hot_root_files: vec!["transitive/hot_root.rs".into()],
        alloc_roots: vec![],
        ..WorkspaceOptions::default()
    };
    let report = detlint::scan_workspace_with(&root, &opts).expect("fixture scan succeeds");
    let finding = report
        .findings
        .iter()
        .find(|f| {
            f.rule == RuleId::HotPanic
                && f.file == "transitive/helper.rs"
                && f.status == Status::Deny
        })
        .expect("the seeded transitive panic was not found");
    // `--deny` would exit non-zero on this report.
    assert!(report.deny_count() >= 1);
    // The reachability path names the root and every hop.
    let path = finding
        .path
        .as_ref()
        .expect("transitive finding carries a path");
    assert_eq!(
        path.as_slice(),
        [
            "transitive/hot_root.rs::serve",
            "transitive/mid.rs::mid_step",
            "transitive/helper.rs::helper_finish",
        ],
        "unexpected reachability path"
    );
    // And the path is visible in the JSON artifact CI archives.
    assert!(
        report
            .render_json()
            .contains("\"path\": [\"transitive/hot_root.rs::serve\", \"transitive/mid.rs::mid_step\", \"transitive/helper.rs::helper_finish\"]"),
        "path missing from JSON:\n{}",
        report.render_json()
    );
}

#[test]
fn workspace_findings_are_a_superset_of_v1() {
    // The differential gate: everything the v1 per-file scan reported
    // must still be reported by the v2 transitive scan — the call-graph
    // machinery may only *add* findings.
    use detlint::WorkspaceOptions;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let v1 = detlint::scan_workspace_with(&root, &WorkspaceOptions::v1_compat())
        .expect("v1 scan succeeds");
    let v2 = detlint::scan_workspace(&root).expect("v2 scan succeeds");
    let key = |f: &Finding| (f.rule, f.file.clone(), f.line, f.col);
    let v2_keys: std::collections::BTreeSet<_> = v2.findings.iter().map(key).collect();
    let missing: Vec<_> = v1
        .findings
        .iter()
        .filter(|f| !v2_keys.contains(&key(f)))
        .collect();
    assert!(
        missing.is_empty(),
        "v2 dropped findings v1 reported:\n{missing:#?}"
    );
    assert!(
        v2.findings.len() >= v1.findings.len(),
        "v2 ({}) reported fewer findings than v1 ({})",
        v2.findings.len(),
        v1.findings.len()
    );
}

#[test]
fn counts_gate_accepts_identity_and_reports_drift() {
    let src = fixture("wall-clock", "bad");
    let mut report = Report {
        findings: scan_source("fixtures/wall-clock/bad.rs", &src, &[RuleId::WallClock]).findings,
        unused_allows: vec![],
        files_scanned: 1,
    };
    report.canonicalize();
    let counts = report.render_counts();
    assert!(counts.contains("wall-clock\t2\t0\t0"), "{counts}");
    // Identity: no drift against its own rendering.
    assert!(report.check_counts(&counts).is_empty());
    // A stale committed file names the drifted rule.
    let stale = counts.replace("wall-clock\t2\t0\t0", "wall-clock\t0\t2\t0");
    let drift = report.check_counts(&stale);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].starts_with("wall-clock:"), "{drift:?}");
    // A rule absent from the committed file is drift too.
    let truncated: String = counts
        .lines()
        .filter(|l| !l.starts_with("unsafe-comment"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!report.check_counts(&truncated).is_empty());
}
