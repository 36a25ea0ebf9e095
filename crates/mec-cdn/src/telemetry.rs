//! Serializable telemetry artifacts harvested from a run [`Deployment`].
//!
//! `netsim::Telemetry` is the in-simulator recording side: counters,
//! histograms and per-query breadcrumb traces shared by every component
//! on the query path. This module is the reporting side — it freezes one
//! deployment trial's telemetry into plain serde structs (milliseconds,
//! `String` names) that the `repro` binary prints as JSON and the bench
//! suite snapshots as a baseline.
//!
//! Determinism matters here: the harvest walks `BTreeMap`-ordered
//! counters/histograms and index-ordered measured queries, and every
//! value is derived from virtual time, so the serialized report is
//! byte-identical for a given seed at any `--threads` count.

use crate::deployments::Deployment;
use crate::measurement::{split_from_traces, split_wireless, MeasuredQuery};
use netsim::SimDuration;
use serde::{Deserialize, Serialize};

/// One counter at harvest time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name (`"dns.cache.hit"`, `"stub.retry"`, …).
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One histogram summarized at harvest time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name (`"stub.rtt"`, `"pgw.behind_gw"`, …).
    pub name: String,
    /// Number of observations.
    pub count: usize,
    /// Mean observation, ms.
    pub mean_ms: f64,
    /// Smallest observation, ms.
    pub min_ms: f64,
    /// Largest observation, ms.
    pub max_ms: f64,
}

/// One breadcrumb of the exemplar trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCrumb {
    /// Virtual time of the event, ms since simulation start.
    pub at_ms: f64,
    /// Path point (`"stub.issue"`, `"cache.hit"`, `"pgw.uplink"`, …).
    pub point: String,
    /// Free-form context recorded with the crumb.
    pub detail: String,
}

/// One full resolution trace, kept as a worked example per trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExemplarTrace {
    /// DNS transaction id the crumbs were recorded under.
    pub id: u64,
    /// Every breadcrumb, in recording order.
    pub crumbs: Vec<TraceCrumb>,
}

/// Per-query cross-check: the wireless component derived from the
/// breadcrumb trace versus the one derived from the P-GW packet tap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySummary {
    /// DNS transaction id (stub ids start at 1, in issue order).
    pub id: u64,
    /// Issue time, ms since simulation start.
    pub started_ms: f64,
    /// Answer time, ms since simulation start.
    pub finished_ms: f64,
    /// Total lookup time, ms.
    pub total_ms: f64,
    /// Wireless component from the breadcrumb trace, ms.
    pub trace_wireless_ms: f64,
    /// Resolver component from the breadcrumb trace, ms.
    pub trace_resolver_ms: f64,
    /// Wireless component from the packet tap, ms.
    pub tap_wireless_ms: f64,
    /// `|trace_wireless_ms - tap_wireless_ms|` — the two observation
    /// paths must agree (the end-to-end tests bound this at 1 ms).
    pub split_delta_ms: f64,
}

/// Everything harvested from one deployment trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialTelemetry {
    /// Figure 5 bar label of the deployment.
    pub deployment: String,
    /// Seed the trial's world ran on.
    pub seed: u64,
    /// All counters, in name order.
    pub counters: Vec<CounterSample>,
    /// All histograms, in name order.
    pub histograms: Vec<HistogramSample>,
    /// Per-query trace-vs-tap cross-check, in issue order.
    pub queries: Vec<QuerySummary>,
    /// The first query's full breadcrumb trail, as a readable example.
    pub exemplar_trace: Option<ExemplarTrace>,
    /// Worst trace-vs-tap disagreement across [`Self::queries`], ms.
    pub max_split_delta_ms: f64,
}

/// The telemetry artifact of one Figure 5 campaign: one
/// [`TrialTelemetry`] per deployment, in Figure 5 order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Root seed the campaign derived per-trial seeds from.
    pub seed: u64,
    /// One entry per deployment bar.
    pub trials: Vec<TrialTelemetry>,
}

impl TrialTelemetry {
    /// Freezes the telemetry of a deployment that already ran
    /// [`Deployment::run_measure`] (the harvest needs `last_tap` and the
    /// measured queries it returned).
    pub fn harvest(d: &Deployment, seed: u64, measured: &[MeasuredQuery]) -> TrialTelemetry {
        let counters = d.telemetry.with_metrics(|m| {
            m.counters()
                .map(|(name, value)| CounterSample {
                    name: name.to_string(),
                    value,
                })
                .collect()
        });
        let histograms = d.telemetry.with_metrics(|m| {
            m.histograms()
                .map(|(name, h)| HistogramSample {
                    name: name.to_string(),
                    count: h.count() as usize,
                    mean_ms: h.mean_ms(),
                    min_ms: h.min().map_or(f64::INFINITY, SimDuration::as_millis_f64),
                    max_ms: h
                        .max()
                        .map_or(f64::NEG_INFINITY, SimDuration::as_millis_f64),
                })
                .collect()
        });

        // Pair the two split derivations query by query: a one-element
        // slice yields zero or one split, so a query either produces a
        // matched (trace, tap) pair or is skipped on both sides.
        let mut queries = Vec::new();
        let mut exemplar_trace = None;
        let mut max_split_delta_ms = 0.0f64;
        for m in measured {
            let slice = std::slice::from_ref(m);
            let trace_split = split_from_traces(&d.telemetry, slice);
            let tap_split = split_wireless(&d.last_tap, slice);
            let (Some(ts), Some(ps)) = (trace_split.first(), tap_split.first()) else {
                continue;
            };
            // The stub allocates transaction ids 1, 2, … in issue order.
            let id = m.outcome.tag + 1;
            let delta = (ts.wireless.as_millis_f64() - ps.wireless.as_millis_f64()).abs();
            max_split_delta_ms = max_split_delta_ms.max(delta);
            queries.push(QuerySummary {
                id,
                started_ms: m.started.as_millis_f64(),
                finished_ms: m.finished.as_millis_f64(),
                total_ms: ts.total.as_millis_f64(),
                trace_wireless_ms: ts.wireless.as_millis_f64(),
                trace_resolver_ms: ts.resolver.as_millis_f64(),
                tap_wireless_ms: ps.wireless.as_millis_f64(),
                split_delta_ms: delta,
            });
            if exemplar_trace.is_none() {
                exemplar_trace = d.telemetry.trace(id).map(|t| ExemplarTrace {
                    id: t.id,
                    crumbs: t
                        .crumbs
                        .iter()
                        .map(|c| TraceCrumb {
                            at_ms: c.at.as_millis_f64(),
                            point: c.point.to_string(),
                            detail: c.detail.clone(),
                        })
                        .collect(),
                });
            }
        }

        TrialTelemetry {
            deployment: d.kind.label().to_string(),
            seed,
            counters,
            histograms,
            queries,
            exemplar_trace,
            max_split_delta_ms,
        }
    }

    /// Value of a harvested counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }
}

impl TelemetryReport {
    /// Human-readable digest: one line per trial with the headline
    /// counters and the worst trace-vs-tap delta.
    pub fn render(&self) -> String {
        let mut out = String::from("== telemetry — query-path counters and trace cross-check ==\n");
        for t in &self.trials {
            out.push_str(&format!(
                "{:<24} queries={:<3} cache hit/miss={}/{} upstream={} traced={} max_delta={:.3}ms\n",
                t.deployment,
                t.counter("stub.query"),
                t.counter("dns.cache.hit"),
                t.counter("dns.cache.miss"),
                t.counter("dns.upstream.query"),
                t.queries.len(),
                t.max_split_delta_ms,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployments::{DeploymentKind, TestbedConfig};

    #[test]
    fn harvest_pairs_every_answered_query_and_agrees_with_the_tap() {
        let cfg = TestbedConfig {
            queries: 6,
            ..TestbedConfig::default()
        };
        let mut d = Deployment::build(DeploymentKind::MecLdnsMecCdns, &cfg);
        let (measured, split) = d.run_measure();
        let trial = TrialTelemetry::harvest(&d, cfg.seed, &measured);
        assert_eq!(trial.queries.len(), split.len(), "one summary per split");
        assert!(trial.counter("stub.query") >= 6);
        // The MEC L-DNS redirects the CDN zone to the collocated C-DNS,
        // which answers every query.
        assert!(trial.counter("dns.stub_domain.redirect") > 0, "no redirects seen");
        assert!(trial.counter("cdns.answered") > 0, "C-DNS answered nothing");
        assert!(
            trial.max_split_delta_ms <= 1.0,
            "trace and tap disagree by {}ms",
            trial.max_split_delta_ms
        );
        let ex = trial.exemplar_trace.expect("first query leaves a trace");
        let points: Vec<&str> = ex.crumbs.iter().map(|c| c.point.as_str()).collect();
        assert!(points.contains(&"stub.issue"), "missing stub.issue: {points:?}");
        assert!(points.contains(&"pgw.uplink"), "missing pgw.uplink: {points:?}");
        assert!(points.contains(&"pgw.downlink"), "missing pgw.downlink: {points:?}");
        assert!(points.contains(&"stub.answer"), "missing stub.answer: {points:?}");
    }

    #[test]
    fn report_serializes_deterministically() {
        let cfg = TestbedConfig {
            queries: 3,
            ..TestbedConfig::default()
        };
        let build = || {
            let mut d = Deployment::build(DeploymentKind::MecLdnsLanCdns, &cfg);
            let (measured, _) = d.run_measure();
            let report = TelemetryReport {
                seed: cfg.seed,
                trials: vec![TrialTelemetry::harvest(&d, cfg.seed, &measured)],
            };
            serde_json::to_string_pretty(&report).unwrap()
        };
        assert_eq!(build(), build(), "same seed must serialize identically");
    }
}
