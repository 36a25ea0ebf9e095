//! The rule catalogue and the workspace policy mapping files to rules.
//!
//! Four families, as enforced by the CI gate:
//!
//! * **(D) determinism** — [`RuleId::WallClock`], [`RuleId::AmbientRandom`],
//!   [`RuleId::EnvRead`] anywhere in crate sources, and [`RuleId::MapIter`]
//!   (unordered `HashMap`/`HashSet` iteration) in output-affecting crates.
//! * **(P) panic-freedom & allocation** — [`RuleId::HotPanic`] and
//!   [`RuleId::HotIndex`] on the resolution hot path, propagated
//!   *transitively* through the call graph from [`HOT_PATH_FILES`]
//!   roots; [`RuleId::HotAlloc`] propagated from the
//!   [`HOT_ALLOC_ROOTS`] zero-allocation functions (PR 3's
//!   0-allocs/query invariant, enforced statically).
//! * **(C) concurrency** — [`RuleId::AtomicOrder`],
//!   [`RuleId::LockOrder`], [`RuleId::LockUnwrap`],
//!   [`RuleId::GuardBlocking`] in all crate sources.
//! * **(S) unsafe hygiene** — [`RuleId::UnsafeComment`] everywhere.

/// Identity of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `Instant::now` / `SystemTime::now`: wall-clock reads break replay
    /// determinism; simulations must use virtual `SimTime`.
    WallClock,
    /// `thread_rng` / `RandomState` / `from_entropy`: ambient OS
    /// randomness; all randomness must flow from the per-trial seed.
    AmbientRandom,
    /// `std::env` reads: process environment is invisible ambient input.
    EnvRead,
    /// Iteration over `HashMap`/`HashSet` whose order can reach output,
    /// unless immediately sorted, collected into an ordered collection,
    /// or consumed by an order-insensitive reduction.
    MapIter,
    /// `unwrap()` / `expect()` / `panic!`-family macros on the
    /// resolution hot path (transitively reachable from a hot root).
    HotPanic,
    /// Slice/collection indexing (`x[i]`, `x[a..b]`) without `get` on
    /// the resolution hot path (transitively reachable from a hot root).
    HotIndex,
    /// Heap allocation (`Vec::new`, `vec!`, `Box::new`, `format!`,
    /// `to_string`, `.clone()`, …) reachable from a declared
    /// zero-allocation root.
    HotAlloc,
    /// `Ordering::Relaxed` on an atomic that gates cross-thread control
    /// flow (work claiming, shutdown/retirement flags).
    AtomicOrder,
    /// Lock-acquisition-order cycles across `Mutex`/`RwLock` guards,
    /// and re-entrant acquisition of one lock.
    LockOrder,
    /// `.lock().unwrap()` (and `read`/`write`) in non-test code:
    /// poisoning turns one panic into a fleet-wide panic.
    LockUnwrap,
    /// Holding a guard across a blocking call (`recv`, `send_to`,
    /// `join()`, socket syscalls).
    GuardBlocking,
    /// `unsafe` block/fn/impl without a `// SAFETY:` comment.
    UnsafeComment,
}

/// Every rule, in catalogue order (also the JSON summary order).
pub const ALL_RULES: &[RuleId] = &[
    RuleId::WallClock,
    RuleId::AmbientRandom,
    RuleId::EnvRead,
    RuleId::MapIter,
    RuleId::HotPanic,
    RuleId::HotIndex,
    RuleId::HotAlloc,
    RuleId::AtomicOrder,
    RuleId::LockOrder,
    RuleId::LockUnwrap,
    RuleId::GuardBlocking,
    RuleId::UnsafeComment,
];

/// The concurrency family, applied to every crate source file.
pub const CONCURRENCY_RULES: &[RuleId] = &[
    RuleId::AtomicOrder,
    RuleId::LockOrder,
    RuleId::LockUnwrap,
    RuleId::GuardBlocking,
];

impl RuleId {
    /// Stable machine name, used in `allow(...)` annotations, baselines
    /// and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::AmbientRandom => "ambient-random",
            RuleId::EnvRead => "env-read",
            RuleId::MapIter => "map-iter",
            RuleId::HotPanic => "hot-panic",
            RuleId::HotIndex => "hot-index",
            RuleId::HotAlloc => "hot-alloc",
            RuleId::AtomicOrder => "atomic-order",
            RuleId::LockOrder => "lock-order",
            RuleId::LockUnwrap => "lock-unwrap",
            RuleId::GuardBlocking => "guard-blocking",
            RuleId::UnsafeComment => "unsafe-comment",
        }
    }

    /// The rule family letter from the catalogue (D / P / C / S).
    pub fn family(self) -> char {
        match self {
            RuleId::WallClock | RuleId::AmbientRandom | RuleId::EnvRead | RuleId::MapIter => 'D',
            RuleId::HotPanic | RuleId::HotIndex | RuleId::HotAlloc => 'P',
            RuleId::AtomicOrder
            | RuleId::LockOrder
            | RuleId::LockUnwrap
            | RuleId::GuardBlocking => 'C',
            RuleId::UnsafeComment => 'S',
        }
    }

    /// One-line description for `--list-rules` and the docs.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock read (Instant::now / SystemTime::now)",
            RuleId::AmbientRandom => "ambient randomness (thread_rng / RandomState / from_entropy)",
            RuleId::EnvRead => "process environment read (std::env)",
            RuleId::MapIter => "unordered HashMap/HashSet iteration that can reach output",
            RuleId::HotPanic => "unwrap/expect/panic! on the (transitive) resolution hot path",
            RuleId::HotIndex => "unchecked indexing on the (transitive) resolution hot path",
            RuleId::HotAlloc => "heap allocation reachable from a zero-alloc root",
            RuleId::AtomicOrder => "Ordering::Relaxed on a control-flow-gating atomic",
            RuleId::LockOrder => "lock-acquisition-order cycle or re-entrant acquisition",
            RuleId::LockUnwrap => "lock().unwrap(): poisoning amplifies one panic fleet-wide",
            RuleId::GuardBlocking => "blocking call while holding a Mutex/RwLock guard",
            RuleId::UnsafeComment => "unsafe without a // SAFETY: comment",
        }
    }

    /// Parses a rule name as written in an allow annotation.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == s)
    }
}

/// Crates whose in-process state feeds experiment output: unordered
/// iteration there can change emitted bytes between runs or thread
/// counts, so rule `map-iter` applies to their sources.
pub const OUTPUT_AFFECTING_CRATES: &[&str] = &[
    "mec-cdn",
    "netsim",
    "dns-server",
    "cdn-sim",
    "ran-sim",
    "mec-orch",
    // The fuzzer's summary must be byte-identical across thread counts;
    // its aggregates are as output-affecting as the experiment runner's.
    "dns-fuzz",
    // Self-lint: detlint's own report is diffed byte-for-byte in CI; an
    // unordered iteration in the engine would erode the gate it *is*.
    "detlint",
];

/// The resolution hot path: one query's journey from wire bytes to a
/// routed answer. Rules `hot-panic` and `hot-index` apply to these
/// files whole, and propagate transitively to every function the call
/// graph can reach from them.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/dns-wire/src/wire.rs",
    "crates/dns-wire/src/name.rs",
    "crates/dns-wire/src/intern.rs",
    "crates/dns-wire/src/message.rs",
    "crates/dns-wire/src/header.rs",
    "crates/dns-wire/src/record.rs",
    "crates/dns-wire/src/rdata.rs",
    "crates/dns-wire/src/edns.rs",
    "crates/dns-wire/src/error.rs",
    "crates/dns-server/src/cache.rs",
    "crates/dns-server/src/stub.rs",
    "crates/dns-server/src/plugins.rs",
    "crates/dns-server/src/engine.rs",
    // The resolver core both engines run: upstream answers are outside
    // input, and every forward and recursion step runs here.
    "crates/dns-server/src/resolver.rs",
    "crates/netsim/src/network.rs",
    // The timing wheel carries every event of every simulation; a panic
    // or stray index here is a panic in all of them.
    "crates/netsim/src/sched.rs",
    // The anycast catchment sits on every federated query's forwarding
    // path: selection + DNAT run per datagram at the gateway.
    "crates/netsim/src/catchment.rs",
    // Per-UE state transitions run a million times per city trial.
    "crates/workload/src/ue.rs",
    // The UDP serving loop: hostile datagrams hit this before anything
    // else, and a panic there takes a shard down.
    "crates/mecdnsd/src/serve.rs",
];

/// The zero-allocation roots: `(file, fn-name)` pairs whose transitive
/// callees must not allocate. These are PR 3's cached-hit path — the
/// invariant `crates/dns-server/tests/zero_alloc.rs` checks dynamically
/// (0 allocations per warm `get_shared` hit) is enforced statically over
/// this closure by rule `hot-alloc`. Miss/insert paths allocate by design
/// and are not roots.
pub const HOT_ALLOC_ROOTS: &[(&str, &str)] = &[
    // The cached-hit lookup: probe, TTL check, LRU bump, shared answer.
    ("crates/dns-server/src/cache.rs", "get_shared"),
    // Alloc-free intern probes and id-space name algebra.
    ("crates/dns-wire/src/intern.rs", "lookup"),
    ("crates/dns-wire/src/intern.rs", "parent"),
    ("crates/dns-wire/src/intern.rs", "is_subdomain_of"),
    ("crates/dns-wire/src/intern.rs", "suffix_chain"),
];

/// The workspace policy: which rules apply to a file, by its
/// workspace-relative path (forward slashes). Hot-path rules listed
/// here are the *root* assignments; the transitive closure in
/// [`crate::scan_workspace`] extends them to reachable callees.
pub fn rules_for_path(rel: &str) -> Vec<RuleId> {
    // Lint-fixture layout: `<rule-name>/{bad,good}.rs`. Scanning one of
    // these (`detlint --root crates/detlint/tests/fixtures`) applies
    // exactly the named rule, so `--deny` demonstrably fails on each
    // bad fixture. Normal workspace walks never see these paths — the
    // file walker skips `fixtures` directories.
    if let Some((dir, _)) = rel.split_once('/') {
        if let Some(rule) = RuleId::parse(dir) {
            return vec![rule];
        }
    }
    let mut rules = vec![RuleId::UnsafeComment];
    let in_crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    if in_crate_src {
        rules.push(RuleId::WallClock);
        rules.push(RuleId::AmbientRandom);
        rules.push(RuleId::EnvRead);
        rules.extend_from_slice(CONCURRENCY_RULES);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        if OUTPUT_AFFECTING_CRATES.contains(&crate_name) {
            rules.push(RuleId::MapIter);
        }
    }
    if HOT_PATH_FILES.contains(&rel) {
        rules.push(RuleId::HotPanic);
        rules.push(RuleId::HotIndex);
    }
    rules.sort();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_matches_the_catalogue() {
        let cache = rules_for_path("crates/dns-server/src/cache.rs");
        assert!(cache.contains(&RuleId::HotPanic));
        assert!(cache.contains(&RuleId::HotIndex));
        assert!(cache.contains(&RuleId::MapIter));
        let wire = rules_for_path("crates/dns-wire/src/wire.rs");
        assert!(wire.contains(&RuleId::HotPanic));
        assert!(!wire.contains(&RuleId::MapIter), "dns-wire emits no output");
        // Every dns-wire decode site is hot path: hostile bytes flow
        // through all of these before a message exists.
        for f in [
            "crates/dns-wire/src/header.rs",
            "crates/dns-wire/src/record.rs",
            "crates/dns-wire/src/rdata.rs",
            "crates/dns-wire/src/edns.rs",
            "crates/dns-wire/src/error.rs",
        ] {
            assert!(rules_for_path(f).contains(&RuleId::HotIndex), "{f}");
        }
        for f in [
            "crates/dns-server/src/engine.rs",
            "crates/mecdnsd/src/serve.rs",
            "crates/netsim/src/sched.rs",
            "crates/netsim/src/catchment.rs",
            "crates/workload/src/ue.rs",
        ] {
            assert!(rules_for_path(f).contains(&RuleId::HotPanic), "{f}");
            assert!(rules_for_path(f).contains(&RuleId::HotIndex), "{f}");
        }
        let fuzz = rules_for_path("crates/dns-fuzz/src/report.rs");
        assert!(fuzz.contains(&RuleId::MapIter), "fuzz summary is output");
        let test_file = rules_for_path("tests/determinism.rs");
        assert_eq!(test_file, vec![RuleId::UnsafeComment]);
        let repro_bin = rules_for_path("crates/mec-cdn/src/bin/repro.rs");
        assert!(repro_bin.contains(&RuleId::WallClock));
        assert!(!repro_bin.contains(&RuleId::HotPanic));
    }

    #[test]
    fn concurrency_rules_cover_all_crate_sources() {
        for f in [
            "crates/mecdnsd/src/serve.rs",
            "crates/mec-cdn/src/runner.rs",
            "crates/dns-fuzz/src/runner.rs",
            "crates/dns-wire/src/intern.rs",
            "crates/detlint/src/engine.rs",
        ] {
            let rules = rules_for_path(f);
            for r in CONCURRENCY_RULES {
                assert!(rules.contains(r), "{f} missing {}", r.name());
            }
        }
        // But not tests or benches outside src/.
        assert!(!rules_for_path("tests/chaos.rs").contains(&RuleId::AtomicOrder));
    }

    #[test]
    fn detlint_lints_itself() {
        let engine = rules_for_path("crates/detlint/src/engine.rs");
        assert!(engine.contains(&RuleId::MapIter), "self-lint: map-iter");
        assert!(engine.contains(&RuleId::LockOrder), "self-lint: concurrency");
        assert!(engine.contains(&RuleId::WallClock));
    }

    #[test]
    fn alloc_roots_live_in_hot_path_files() {
        for (file, _) in HOT_ALLOC_ROOTS {
            assert!(
                HOT_PATH_FILES.contains(file),
                "{file} is an alloc root but not a hot-path file"
            );
        }
    }

    #[test]
    fn fixture_paths_map_to_their_named_rule() {
        assert_eq!(rules_for_path("wall-clock/bad.rs"), vec![RuleId::WallClock]);
        assert_eq!(rules_for_path("hot-index/good.rs"), vec![RuleId::HotIndex]);
        assert_eq!(rules_for_path("hot-alloc/bad.rs"), vec![RuleId::HotAlloc]);
        assert_eq!(rules_for_path("lock-order/bad.rs"), vec![RuleId::LockOrder]);
        assert_eq!(
            rules_for_path("atomic-order/good.rs"),
            vec![RuleId::AtomicOrder]
        );
        assert_eq!(
            rules_for_path("guard-blocking/bad.rs"),
            vec![RuleId::GuardBlocking]
        );
        assert_eq!(
            rules_for_path("lock-unwrap/bad.rs"),
            vec![RuleId::LockUnwrap]
        );
        // A directory that is not a rule name falls through to policy.
        assert_eq!(rules_for_path("docs/example.rs"), vec![RuleId::UnsafeComment]);
    }

    #[test]
    fn rule_names_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }
}
