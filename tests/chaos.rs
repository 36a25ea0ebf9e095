//! Chaos-layer integration: the fault plane (`netsim::faults`) driving
//! the P1-policy worlds, and the acceptance matrix for the `chaos`
//! experiment — resilient policies ride out a MEC DNS crash at 100%
//! availability, the strawman does not, and the whole report is
//! byte-identical at any thread count.

use dns_server::plugins::{AuthoritativePlugin, ScopePlugin};
use dns_server::{DnsServer, SendStrategy, ServerConfig, Zone};
use dns_wire::Name;
use mec_cdn::experiments::{chaos_experiment, chaos_experiment_with, ChaosConfig};
use mec_cdn::measurement::{PlannedQuery, QueryClient};
use mec_cdn::Runner;
use netsim::{FaultSchedule, Latency, LinkProfile, Network, SimDuration};
use std::net::{IpAddr, Ipv4Addr};
use workload::sites::{MEC_CDN_DOMAIN, MEC_CDN_ZONE};

/// The acceptance matrix: with the MEC DNS crashed mid-run and the
/// MEC-side link degraded, `MulticastBoth` and `FallbackAfter` sustain
/// 100% resolution success (at degraded latency), while `MecOnly`
/// shows the strawman failure. Recovery after the restart is fast and
/// no answer ever comes from a crashed node.
#[test]
fn resilient_policies_survive_the_mec_dns_crash() {
    let report = chaos_experiment(2020);
    assert_eq!(report.deployments.len(), 3);

    let get = |label: &str| {
        report
            .deployments
            .iter()
            .find(|d| d.policy == label)
            .unwrap_or_else(|| panic!("no {label} deployment"))
    };

    let strawman = get("mec-only");
    assert!(
        strawman.availability < 0.6,
        "mec-only should fail hard under faults, got {}",
        strawman.availability
    );
    assert_eq!(strawman.non_mec_availability, 0.0);

    for label in ["multicast", "fallback-on-timeout"] {
        let d = get(label);
        assert_eq!(
            d.availability, 1.0,
            "{label} must resolve every query under faults"
        );
        assert_eq!(d.mec_availability, 1.0);
        assert_eq!(d.non_mec_availability, 1.0);
        assert!(
            d.degraded_during_outage > 0,
            "{label} should have been served by the provider during the outage"
        );
        let recovery = d.recovery_ms.expect("MEC DNS answered after restart");
        assert!(
            recovery < 1_000.0,
            "{label} took {recovery} ms to get a MEC answer after restart"
        );
    }

    for d in &report.deployments {
        assert_eq!(
            d.mec_served_during_outage, 0,
            "{}: a crashed node answered a query",
            d.policy
        );
        assert_eq!(d.queries_sent as usize, d.total);
        assert_eq!(d.timeouts as usize, d.total - d.answered);
    }

    // Degradation is visible in the tail: the fallback policy pays its
    // configured 60 ms silence before the provider answers, so its p99
    // sits well above the healthy MEC path's.
    let fallback = get("fallback-on-timeout");
    assert!(fallback.p99_ms.expect("answered queries") > 60.0);
}

/// The determinism gate: the full serialized report — every float, every
/// counter — is byte-identical across `--threads {1, 2, 8}`.
#[test]
fn chaos_report_is_byte_identical_across_thread_counts() {
    let cfg = ChaosConfig::quick();
    let bytes = |threads: usize| {
        serde_json::to_string(&chaos_experiment_with(2020, &Runner::new(threads), &cfg))
            .expect("report serializes")
    };
    let serial = bytes(1);
    for threads in [2, 8] {
        assert_eq!(bytes(threads), serial, "thread count changed the report");
    }
}

/// A different seed produces a different report (the faults really are
/// interacting with seeded randomness, not a hard-coded timeline).
#[test]
fn chaos_report_depends_on_the_seed() {
    let cfg = ChaosConfig::quick();
    let runner = Runner::default();
    let a = serde_json::to_string(&chaos_experiment_with(2020, &runner, &cfg)).unwrap();
    let b = serde_json::to_string(&chaos_experiment_with(2021, &runner, &cfg)).unwrap();
    assert_ne!(a, b);
}

/// Satellite: `P1Policy::FallbackAfter` with a *permanently* dead MEC
/// DNS. Every query still resolves via the provider L-DNS, and the
/// measured degradation is exactly the configured fallback timeout on
/// top of the provider's round trip.
#[test]
fn fallback_after_with_a_dead_mec_dns_always_resolves() {
    const QUERIES: usize = 20;
    const FALLBACK_MS: u64 = 80;
    let mec_name = Name::parse(MEC_CDN_DOMAIN).unwrap();

    // Builds the two-resolver world and runs `QUERIES` queries under
    // `strategy`; the MEC DNS is crashed at t=10 ms and never restarted
    // when `kill_mec`.
    let run = |strategy: &dyn Fn(IpAddr, IpAddr) -> SendStrategy, kill_mec: bool| -> Vec<f64> {
        let mut net = Network::new(77);
        let mut mec_zone = Zone::new(Name::parse(MEC_CDN_ZONE).unwrap());
        mec_zone.add_a(mec_name.clone(), Ipv4Addr::new(10, 96, 0, 20), 0);
        let mec_ip: IpAddr = "10.96.0.10".parse().unwrap();
        let mec = net.add_node(
            "mec-dns",
            [mec_ip],
            DnsServer::new(
                ServerConfig::default(),
                vec![
                    Box::new(ScopePlugin::new(vec![Name::parse(MEC_CDN_ZONE).unwrap()])),
                    Box::new(AuthoritativePlugin::new(vec![mec_zone.clone()])),
                ],
            ),
        );
        let provider_ip: IpAddr = "10.44.9.1".parse().unwrap();
        let provider = net.add_node(
            "provider-ldns",
            [provider_ip],
            DnsServer::new(
                ServerConfig::default(),
                vec![Box::new(AuthoritativePlugin::new(vec![mec_zone]))],
            ),
        );
        let plan: Vec<PlannedQuery> = (0..QUERIES)
            .map(|i| PlannedQuery {
                at: SimDuration::from_millis(100 + 200 * i as u64),
                name: mec_name.clone(),
                strategy: strategy(mec_ip, provider_ip),
                ecs: None,
            })
            .collect();
        let mut qc = QueryClient::new(plan);
        qc.engine_mut().query_timeout = SimDuration::from_millis(500);
        let client = net.add_node("ue", ["172.16.0.9".parse::<IpAddr>().unwrap()], qc);
        net.connect(
            client,
            mec,
            LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)),
        );
        net.connect(
            client,
            provider,
            LinkProfile::with_latency(Latency::UniformMs(12.0, 16.0)),
        );
        if kill_mec {
            FaultSchedule::new()
                .crash_node(mec, SimDuration::from_millis(10), None)
                .install(&mut net);
        }
        net.run();
        let measured = &net.behavior::<QueryClient>(client).measured;
        assert_eq!(measured.len(), QUERIES);
        measured
            .iter()
            .map(|m| {
                assert!(!m.outcome.timed_out, "query timed out");
                assert!(m.outcome.rcode.is_ok());
                assert_eq!(m.outcome.addrs, vec![Ipv4Addr::new(10, 96, 0, 20)]);
                if kill_mec {
                    assert!(m.outcome.used_fallback, "answer not from the fallback");
                }
                m.outcome.rtt.as_millis_f64()
            })
            .collect()
    };

    let fallback = |mec: IpAddr, provider: IpAddr| SendStrategy::FallbackOnTimeout {
        primary: mec,
        fallback: provider,
        timeout: SimDuration::from_millis(FALLBACK_MS),
    };
    let degraded = run(&fallback, true);
    // Baseline: the provider alone, no faults — isolates the provider's
    // round trip so the difference below is purely the fallback wait.
    let provider_only = run(&|_, provider| SendStrategy::Unicast(provider), false);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let extra = mean(&degraded) - mean(&provider_only);
    assert!(
        (extra - FALLBACK_MS as f64).abs() < 10.0,
        "measured degradation {extra:.1} ms should match the {FALLBACK_MS} ms fallback timeout"
    );
    for ms in &degraded {
        assert!(
            *ms >= FALLBACK_MS as f64,
            "answered before the fallback engaged?"
        );
    }
}
