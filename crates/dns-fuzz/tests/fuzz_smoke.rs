//! The cargo-test corpus runner: a fixed-seed quick-mode campaign.
//!
//! This is the fuzzing contract expressed as an ordinary test: the
//! campaign must finish, find zero crashers, and render byte-identical
//! summaries at `--threads 1`, `2` and `8`. Case counts scale with the
//! build profile — optimized builds (CI runs tier-1 under `--release`
//! for the fuzz gate) cover the full quick-mode million, debug builds
//! a fast subset — but for a given profile the campaign is exactly
//! reproducible.

use dns_fuzz::{runner, Config};

/// Quick-mode root seed, fixed forever so CI failures are replayable
/// verbatim from the log.
const SMOKE_SEED: u64 = 0x5EED_05E0_0C1A_0001;

const fn quick_cases() -> u64 {
    if cfg!(debug_assertions) {
        60_000
    } else {
        1_000_000
    }
}

#[test]
fn quick_campaign_finds_no_crashers() {
    let cfg = Config {
        root_seed: SMOKE_SEED,
        cases: quick_cases(),
        threads: 0, // all CPUs; crasher set must not depend on this
    };
    let summary = runner::run(&cfg);
    assert_eq!(summary.cases, quick_cases());
    assert_eq!(
        summary.crash_count(),
        0,
        "crashers found:\n{}",
        summary.render()
    );
    // Both engines must have produced work: accepts from lightly
    // mutated seeds, rejects from hostile grammar output.
    assert!(summary.accepted > 0, "no input survived decode");
    assert!(summary.rejected > 0, "no input was refused");
}

#[test]
fn quick_campaign_is_byte_identical_across_thread_counts() {
    let base = Config {
        root_seed: SMOKE_SEED,
        cases: quick_cases() / 4,
        threads: 1,
    };
    let serial = runner::run(&base).render();
    for threads in [2, 8] {
        let cfg = Config { threads, ..base };
        let parallel = runner::run(&cfg).render();
        assert_eq!(parallel, serial, "--threads {threads} diverged");
    }
}
