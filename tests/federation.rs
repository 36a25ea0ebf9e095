//! Federation-layer acceptance: three MEC sites behind one anycast
//! C-DNS address versus a single MEC site and DNS-based site selection,
//! under an inter-site handoff plus a regional outage. The anycast
//! deployment must be strictly more available, must reconverge at
//! routing speed (bounded by the withdraw propagation delay, not the
//! selection TTL), and the whole report must be byte-identical at any
//! thread count.

use mec_cdn::{federation_experiment, federation_experiment_with, FederationConfig, Runner};

/// The headline acceptance matrix, at full (non-quick) scale: anycast
/// availability strictly above the single-MEC strawman under the
/// regional outage, with a reported time-to-reconverge; DNS-based
/// selection relocates too, but only after its TTL + detection lag.
#[test]
fn anycast_outlives_the_regional_outage() {
    let cfg = FederationConfig::default();
    let report = federation_experiment(2020, &cfg);
    assert_eq!(report.deployments.len(), 3);
    let get = |name: &str| {
        report
            .deployments
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("no {name} deployment"))
    };

    let single = get("single-mec");
    let anycast = get("anycast-3site");
    let select = get("dns-select");

    // The strawman: one site, one region, no recovery path. Its site
    // dies and stays dead; availability collapses and no reconvergence
    // is ever observed.
    assert!(single.availability < 0.8, "single-mec should fail hard");
    assert_eq!(single.reconverge_ms, None);
    assert_eq!(single.relocations, 0);

    // The tentpole claim: anycast is *strictly* more available than the
    // single site under the same regional outage, and it reports how
    // long reconvergence took.
    assert!(
        anycast.availability > single.availability,
        "anycast ({}) must beat single-mec ({})",
        anycast.availability,
        single.availability
    );
    assert!(
        anycast.reconverge_ms.is_some(),
        "anycast must report time-to-reconverge"
    );
    assert!(
        anycast.availability >= select.availability,
        "anycast ({}) must not lose to TTL-paced selection ({})",
        anycast.availability,
        select.availability
    );

    // Both federated deployments walk site 0 -> 1 (handoff) -> 2
    // (outage), re-paying the catalogue in cold misses at each stop.
    for d in [anycast, select] {
        assert_eq!(d.serving_sites, vec![0, 1, 2], "{}", d.name);
        assert_eq!(d.relocations, 2, "{}", d.name);
        assert!(
            d.cache_loss_per_relocation.unwrap_or(0.0) > 0.0,
            "{}: relocation must cost cache locality",
            d.name
        );
    }

    // Nobody fell through to the cloud: every answer came from a MEC
    // site (silence means retransmit, not cloud).
    for d in &report.deployments {
        assert_eq!(d.cloud_answers, 0, "{}", d.name);
        assert_eq!(d.queries_sent as usize, d.total);
    }
}

/// The reconvergence bound: anycast recovers within the BGP-style
/// withdraw propagation delay plus the client's retransmission budget —
/// never waiting out a selection TTL. DNS-based selection pays at least
/// its full TTL.
#[test]
fn reconvergence_is_bounded_by_the_withdraw_delay() {
    let cfg = FederationConfig::quick();
    let report = federation_experiment(2020, &cfg);
    let get = |name: &str| report.deployments.iter().find(|d| d.name == name).unwrap();

    let anycast_ms = get("anycast-3site")
        .reconverge_ms
        .expect("anycast reconverged");
    let withdraw_ms = cfg.withdraw_delay.as_millis_f64();
    let budget_ms = withdraw_ms
        + 3.0 * cfg.query_timeout.as_millis_f64() // retransmission backoff
        + 100.0; // interval + propagation slack
    assert!(
        anycast_ms >= withdraw_ms,
        "recovered before the route flip propagated? {anycast_ms} ms"
    );
    assert!(
        anycast_ms <= budget_ms,
        "anycast took {anycast_ms} ms, budget {budget_ms} ms"
    );

    let select_ms = get("dns-select")
        .reconverge_ms
        .expect("selection relocated");
    assert!(
        select_ms >= cfg.select_ttl.as_millis_f64(),
        "TTL-paced selection cannot beat its TTL: {select_ms} ms"
    );
    assert!(
        select_ms > anycast_ms,
        "routing-speed recovery ({anycast_ms} ms) must beat TTL-speed ({select_ms} ms)"
    );
}

/// The determinism gate: the full serialized report is byte-identical
/// across `--threads {1, 2, 8}`.
#[test]
fn federation_report_is_byte_identical_across_thread_counts() {
    let cfg = FederationConfig::quick();
    let bytes = |threads: usize| {
        serde_json::to_string(&federation_experiment_with(
            2020,
            &Runner::new(threads),
            &cfg,
        ))
        .expect("report serializes")
    };
    let serial = bytes(1);
    for threads in [2, 8] {
        assert_eq!(bytes(threads), serial, "thread count changed the report");
    }
}

/// A different seed produces a different report: the latency samples
/// really flow from the seeded randomness, not a hard-coded timeline.
#[test]
fn federation_report_depends_on_the_seed() {
    let cfg = FederationConfig::quick();
    let runner = Runner::default();
    let a = serde_json::to_string(&federation_experiment_with(2020, &runner, &cfg)).unwrap();
    let b = serde_json::to_string(&federation_experiment_with(2021, &runner, &cfg)).unwrap();
    assert_ne!(a, b);
}
