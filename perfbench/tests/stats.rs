//! The round statistic and the reference normalisation, on synthetic
//! rounds.

use perfbench::metrics::{end_to_end, Round, Setup};
use perfbench::reference::NOMINAL_NS;
use perfbench::stats::{self, Better, Kind};

fn round(wall_ms: f64, reference_ns: f64) -> Round {
    Round {
        ops: 1_000,
        failed: 0,
        wall_ns: wall_ms * 1e6,
        p50_ns: wall_ms * 1e3,
        p99_ns: 2.0 * wall_ms * 1e3,
        reference_ns,
    }
}

fn figure(rounds: &[Round], name: &str) -> (f64, f64) {
    let setups = [Setup {
        wall_ns: 1e6,
        reference_ns: NOMINAL_NS,
    }];
    let f = end_to_end(rounds, &setups)
        .into_iter()
        .find(|f| f.name == name)
        .expect("figure present");
    (f.raw, f.normalised)
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(stats::quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(stats::quartiles(&[1.0]), None);
    // (8.25 - 2.75) / 5.5
    assert!((stats::spread(&ten).unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn run_figure_is_the_median_of_the_fastest_rounds() {
    let values = [4.0, 1.0, 3.0, 2.0, 5.0];
    let references = [NOMINAL_NS; 5];
    // Five rounds: the fastest three stand for the run.
    assert_eq!(
        stats::run_figure(&values, &references, Kind::Time, Better::Lower),
        (2.0, 2.0)
    );
    assert_eq!(
        stats::run_figure(&values, &references, Kind::Rate, Better::Higher),
        (4.0, 4.0)
    );
    // A hundred rounds: the fastest twentieth, five of them.
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let references = vec![NOMINAL_NS; 100];
    let (raw, _) = stats::run_figure(&values, &references, Kind::Time, Better::Lower);
    assert_eq!(raw, 3.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn a_slow_period_over_most_of_a_run_does_not_move_the_round_figure() {
    let quiet: Vec<Round> = (0..20).map(|_| round(10.0, NOMINAL_NS)).collect();
    // The host ran at half speed for 85% of the rounds; the reference
    // loop saw it too, but the raw figure alone already ignores it.
    let mut noisy = quiet.clone();
    for r in noisy.iter_mut().take(17) {
        *r = round(20.0, 2.0 * NOMINAL_NS);
    }
    for name in ["throughput_per_s", "latency_p50_us"] {
        assert_eq!(figure(&quiet, name), figure(&noisy, name), "{name}");
    }
}

#[test]
fn a_slow_reference_sample_does_not_make_a_round_look_fast() {
    let mut rounds: Vec<Round> = (0..20).map(|_| round(10.0, NOMINAL_NS)).collect();
    // One round ran nearly as fast, but its reference samples hit a slow
    // blip: rescaled on its own it would read 5.25 ms and win.
    rounds.push(round(10.5, 2.0 * NOMINAL_NS));
    for name in ["throughput_per_s", "latency_p50_us"] {
        let (raw, normalised) = figure(&rounds, name);
        assert!((raw - normalised).abs() < 1e-9 * raw.abs(), "{name}");
    }
    assert_eq!(figure(&rounds, "latency_p50_us").0, 10.0);
}

#[test]
fn normalisation_cancels_a_host_slow_for_the_whole_run() {
    let quiet: Vec<Round> = (0..10).map(|_| round(10.0, NOMINAL_NS)).collect();
    let slow: Vec<Round> = (0..10).map(|_| round(15.0, 1.5 * NOMINAL_NS)).collect();
    for name in ["throughput_per_s", "latency_p50_us"] {
        let (quiet_raw, quiet_norm) = figure(&quiet, name);
        let (slow_raw, slow_norm) = figure(&slow, name);
        assert!(
            (quiet_raw - slow_raw).abs() > 0.3 * quiet_raw.abs(),
            "{name}: raw moved"
        );
        assert!(
            (quiet_norm - slow_norm).abs() < 1e-9 * quiet_norm.abs(),
            "{name}: normalised held"
        );
        assert!(
            (quiet_raw - quiet_norm).abs() < 1e-9 * quiet_raw.abs(),
            "{name}: nominal host"
        );
    }
    // 1,000 operations in 10 ms.
    assert!((figure(&quiet, "throughput_per_s").0 - 100_000.0).abs() < 1e-6);
}

#[test]
fn setup_is_taken_from_the_fastest_setups_and_normalised_like_a_time() {
    let setup = |ms: f64| Setup {
        wall_ns: ms * 1e6,
        reference_ns: 2.0 * NOMINAL_NS,
    };
    let setups = [setup(2.4), setup(9.0), setup(2.0), setup(2.2)];
    let f = end_to_end(&[round(1.0, NOMINAL_NS)], &setups)
        .into_iter()
        .find(|f| f.name == "setup_s")
        .unwrap();
    // The fastest three of four: 2.0, 2.2 and 2.4 ms, at half speed.
    assert!((f.raw - 0.0022).abs() < 1e-12);
    assert!((f.normalised - 0.0011).abs() < 1e-12);
}
