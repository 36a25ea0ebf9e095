//! What a run reports: rounds and setups, the end-to-end figures taken
//! from them, per-layer values, and the result line the driver reads.

use crate::procfs;
use crate::stats::{self, Better, Kind};

/// The per-layer metrics a traced run prints, `(name, unit)`. A workload
/// that does not run a layer prints it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dns-wire.decode_ns", "ns"),
    ("dns-wire.decode_allocs", "count/query"),
    ("dns-wire.encode_ns", "ns"),
    ("dns-wire.encode_allocs", "count/query"),
    ("dns-server.engine_ns", "ns"),
    ("dns-server.engine_allocs", "count/query"),
    ("dns-server.cache_ns", "ns"),
    ("dns-server.cache_allocs", "count/query"),
    ("dns-server.stub_ns", "ns"),
    ("cdn-sim.router_ns", "ns"),
    ("cdn-sim.router_allocs", "count/query"),
    ("dns-server.cache_hit_ratio", "ratio"),
    ("serve.rss_growth_b_per_query", "B"),
    ("serve.latency_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
    ("mecdnsd.shard_cpu_us", "us"),
    ("mecdnsd.serve_p50_us", "us"),
    ("loopback.kernel_us", "us"),
    ("loopback.rtt_p99_us", "us"),
    ("loadgen.send_us", "us"),
    ("loadgen.recv_wait_us", "us"),
    ("netsim.events_per_query", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.max_pending", "count"),
    ("netsim.cascades_per_event", "ratio"),
    ("dns-server.city_hit_ratio", "ratio"),
    ("dns-wire.city_codec_ns", "ns"),
    ("netsim.wheel_ns", "ns"),
    ("workload.next_action_ns", "ns"),
    ("city.share_codec", "ratio"),
    ("city.share_wheel", "ratio"),
    ("city.share_fleet", "ratio"),
    ("city.rss_b_per_ue", "B"),
];

/// A timed round of work and the reference loop's time during it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Operations attempted in the round.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time of the round, ns.
    pub wall_ns: f64,
    /// Median per-operation latency in the round, ns.
    pub p50_ns: f64,
    /// 99th-percentile per-operation latency in the round, ns.
    pub p99_ns: f64,
    /// The reference loop's time while the round ran, ns: the median of
    /// samples taken between its operations, or right after it when a
    /// round cannot be paused.
    pub reference_ns: f64,
}

/// A timed setup and the reference loop timed right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Wall time of the setup, ns.
    pub wall_ns: f64,
    /// The reference loop's time right after it, ns.
    pub reference_ns: f64,
}

/// One end-to-end metric of a run, raw and normalised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// As measured.
    pub raw: f64,
    /// Rescaled to the nominal host speed.
    pub normalised: f64,
}

/// The four end-to-end figures of a run: throughput, median latency and
/// setup from the fastest rounds or setups ([`stats::run_figure`]), and
/// this process's peak resident set. A round's p99 latency is not among
/// them: it moved from process to process while p50 held (`serve-miss`
/// p99 spread 18% and `serve-udp` 25% over ten runs whose p50 spread 1–3%),
/// so the traced run reports it as `serve.latency_p99_us` and
/// `loopback.rtt_p99_us`.
pub fn end_to_end(rounds: &[Round], setups: &[Setup]) -> Vec<Figure> {
    let references: Vec<f64> = rounds.iter().map(|r| r.reference_ns).collect();
    let figure = |name, unit, kind, better, value: fn(&Round) -> f64| {
        let values: Vec<f64> = rounds.iter().map(value).collect();
        let (raw, normalised) = stats::run_figure(&values, &references, kind, better);
        Figure {
            name,
            unit,
            raw,
            normalised,
        }
    };
    let (setup_s, setup_references): (Vec<f64>, Vec<f64>) = setups
        .iter()
        .map(|s| (s.wall_ns / 1e9, s.reference_ns))
        .unzip();
    let (setup_raw, setup_normalised) =
        stats::run_figure(&setup_s, &setup_references, Kind::Time, Better::Lower);
    let rss = procfs::peak_rss_mb();
    vec![
        figure("throughput_per_s", "1/s", Kind::Rate, Better::Higher, |r| {
            r.ops as f64 / (r.wall_ns / 1e9)
        }),
        figure("latency_p50_us", "us", Kind::Time, Better::Lower, |r| {
            r.p50_ns / 1e3
        }),
        Figure {
            name: "setup_s",
            unit: "s",
            raw: setup_raw,
            normalised: setup_normalised,
        },
        Figure {
            name: "peak_rss_mb",
            unit: "MB",
            raw: rss,
            normalised: rss,
        },
    ]
}

/// A one-line summary of a run's rounds for a human reader: quartiles
/// of the per-round rate, median and p99 latency and reference-loop time.
pub fn round_summary(rounds: &[Round]) -> String {
    let quartiles = |v: Vec<f64>| {
        let q = |p| stats::quantile(&v, p);
        format!("{:.4}/{:.4}/{:.4}", q(0.25), q(0.5), q(0.75))
    };
    format!(
        "round quartiles: rate {} /s, p50 {} us, p99 {} us, reference {} ms",
        quartiles(
            rounds
                .iter()
                .map(|r| r.ops as f64 / (r.wall_ns / 1e9))
                .collect()
        ),
        quartiles(rounds.iter().map(|r| r.p50_ns / 1e3).collect()),
        quartiles(rounds.iter().map(|r| r.p99_ns / 1e3).collect()),
        quartiles(rounds.iter().map(|r| r.reference_ns / 1e6).collect()),
    )
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted in timed rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks that did not hold, one message each.
    pub violations: Vec<String>,
    /// End-to-end figures (untraced run).
    pub figures: Vec<Figure>,
    /// Per-layer values (traced run).
    pub layers: Vec<(&'static str, f64)>,
    /// Lines describing the run for a human reader.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds the attempted and failed operations of `rounds`.
    pub fn count(&mut self, rounds: &[Round]) {
        self.attempted += rounds.iter().map(|r| r.ops).sum::<u64>();
        self.failed += rounds.iter().map(|r| r.failed).sum::<u64>();
    }

    /// Records one per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Correct when every check held, no operation failed and every
    /// reported number is finite.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self
                .figures
                .iter()
                .all(|f| f.raw.is_finite() && f.normalised.is_finite())
            && self.layers.iter().all(|(_, v)| v.is_finite())
    }
}

/// The `figures` line: raw and normalised side by side, for a reader and
/// for the steadiness mode.
pub fn figures_line(report: &RunReport) -> String {
    let body: Vec<String> = report
        .figures
        .iter()
        .map(|f| {
            format!(
                "\"{}\": {{\"raw\": {}, \"normalised\": {}, \"unit\": \"{}\"}}",
                f.name,
                number(f.raw),
                number(f.normalised),
                f.unit
            )
        })
        .collect();
    format!("figures {{{}}}", body.join(", "))
}

/// The result line, the last line a run prints: the normalised
/// end-to-end figures, or every per-layer metric when `traced`.
pub fn result_line(report: &RunReport, traced: bool) -> String {
    let entry = |name: &str, value: f64, unit: &str| {
        format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        )
    };
    let entries: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                entry(name, value, unit)
            })
            .collect()
    } else {
        report
            .figures
            .iter()
            .map(|f| entry(f.name, f.normalised, f.unit))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        entries.join(", ")
    )
}

/// A JSON number with every digit Rust prints for it. Non-finite values
/// print as 0; [`RunReport::correct`] already fails such a run.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
