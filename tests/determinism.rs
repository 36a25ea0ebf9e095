//! Locks in the parallel runner's core guarantee: figure campaigns are
//! **bit-identical regardless of thread count** — the `--threads` knob
//! only changes wall-clock time, never results.
//!
//! Serializes Figure 2/3, Figure 5 and Table 2 at 1, 2 and 8 worker
//! threads (and twice at the same count) and byte-compares the output.

use mec_cdn::experiments;
use mec_cdn::{Runner, TestbedConfig};

const SEED: u64 = 2020;

/// Every serializable artifact of the runner-backed campaigns, as one
/// byte string.
fn campaign_bytes(runner: &Runner) -> String {
    let (fig2, fig3) = experiments::fig2_fig3_with(SEED, runner);
    let (fig5, telemetry) = experiments::fig5_telemetry_with(&TestbedConfig::default(), runner);
    let table2 = experiments::table2_with(runner);
    format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}",
        serde_json::to_string_pretty(&fig2).unwrap(),
        serde_json::to_string_pretty(&fig3).unwrap(),
        serde_json::to_string_pretty(&fig5).unwrap(),
        serde_json::to_string_pretty(&telemetry).unwrap(),
        fig2.render(),
        fig5.render(),
        telemetry.render(),
        table2,
    )
}

#[test]
fn thread_count_does_not_change_results() {
    let serial = campaign_bytes(&Runner::new(1));
    for threads in [2, 8] {
        let parallel = campaign_bytes(&Runner::new(threads));
        assert_eq!(
            serial, parallel,
            "campaign output diverged at {threads} threads"
        );
    }
}

#[test]
fn repeated_runs_are_identical() {
    assert_eq!(
        campaign_bytes(&Runner::new(2)),
        campaign_bytes(&Runner::new(2)),
        "same-config runs must be reproducible"
    );
}

#[test]
fn default_runner_matches_explicit_single_thread() {
    assert_eq!(
        campaign_bytes(&Runner::default()),
        campaign_bytes(&Runner::new(1))
    );
}

#[test]
fn serial_entry_points_agree_with_runner_entry_points() {
    // The historical serial signatures are wrappers; they must produce
    // exactly what the runner-backed variants produce.
    let (a2, a3) = experiments::fig2_fig3(SEED);
    let (b2, b3) = experiments::fig2_fig3_with(SEED, &Runner::new(8));
    assert_eq!(
        serde_json::to_string(&a2).unwrap(),
        serde_json::to_string(&b2).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&a3).unwrap(),
        serde_json::to_string(&b3).unwrap()
    );
    let cfg = TestbedConfig::default();
    assert_eq!(
        serde_json::to_string(&experiments::fig5(&cfg)).unwrap(),
        serde_json::to_string(&experiments::fig5_with(&cfg, &Runner::new(8))).unwrap()
    );
    assert_eq!(
        experiments::table2(),
        experiments::table2_with(&Runner::new(8))
    );
}

#[test]
fn different_seeds_change_results() {
    // Guard against the campaigns accidentally ignoring the seed (a
    // bug byte-comparison alone would never catch).
    let (a, _) = experiments::fig2_fig3_with(SEED, &Runner::new(2));
    let (b, _) = experiments::fig2_fig3_with(SEED + 1, &Runner::new(2));
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}
