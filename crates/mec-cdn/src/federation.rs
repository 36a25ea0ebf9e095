//! The `federation` experiment: one C-DNS address, three MEC sites.
//!
//! The paper's single-MEC design leaves one failure domain: lose the
//! site and the UE loses the edge. This capstone federates the world of
//! the earlier experiments into three MEC sites and compares, under the
//! *same* UE mobility and the *same* regional outage, the three ways a
//! CDN can keep its C-DNS reachable:
//!
//! * **single-mec** — the paper's baseline: one MEC site, its resolver
//!   dialled directly. A regional outage takes the edge with it.
//! * **anycast-3site** — every site advertises one anycast C-DNS
//!   address; a BGP-like catchment layer ([`netsim::AnycastCatchment`])
//!   steers each client to its preferred advertised site, withdraws a
//!   dead site after a bounded reconvergence delay, and the stub's
//!   [`SendStrategy::CloudOnServfail`] policy rides the blackhole out by
//!   retransmitting the *same* address.
//! * **dns-select** — DNS-based site selection (GeoDNS): the client
//!   re-resolves the site address on a TTL grid and keeps the stale
//!   answer in between, so failover waits for TTL expiry plus the
//!   selection DNS's health-check lag.
//!
//! The UE hands off between radio regions mid-run (an inter-site
//! handoff — the federated world's expensive kind), then the serving
//! MEC region suffers a whole-site outage: node down, metro backhaul
//! partitioned, and — for anycast — a catchment withdrawal, all
//! composed by [`netsim::FaultSchedule::region_outage`]. The report
//! carries availability, p99 resolution latency, time-to-reconverge
//! after the outage and the cache-state cost of every serving-site
//! relocation (the new site's cache has never seen this UE's names).
//!
//! Deployments run as independent trials on the [`Runner`], so the
//! report is byte-identical at any `--threads N`.

use crate::measurement::{PlannedQuery, QueryClient};
use crate::runner::Runner;
use dns_server::plugins::{AuthoritativePlugin, CachePlugin, ForwardPlugin};
use dns_server::{DnsServer, SendStrategy, ServerConfig, Zone};
use dns_wire::Name;
use netsim::{
    AnycastCatchment, AnycastGateway, Cidr, FaultSchedule, Latency, LinkProfile, Network,
    Samples, SimDuration, SimTime,
};
use ran_sim::{EpcConfig, RadioProfile, Ran};
use std::net::{IpAddr, Ipv4Addr};
use workload::sites::MEC_CDN_ZONE;

/// The anycast C-DNS address every federated site advertises.
const ANYCAST: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 53);
/// The cloud resolver of last resort (the policy's refusal target).
const CLOUD: Ipv4Addr = Ipv4Addr::new(10, 44, 9, 1);
/// First query fires after the LTE attach completes (~100 ms).
const FIRST_QUERY: SimDuration = SimDuration::from_millis(300);
/// MEC sites in the federated deployments.
const SITES: usize = 3;

/// Per-site MEC DNS address.
fn site_dns_ip(site: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 100 + site as u8, 0, 10))
}

/// Per-site edge-cache address — what the site's DNS answers with, and
/// how an answer is attributed back to the site that served it.
fn site_cache_ip(site: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 100 + site as u8, 0, 20)
}

/// Per-site authoritative C-DNS address (the site resolver's upstream).
fn site_origin_ip(site: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 100 + site as u8, 0, 30))
}

/// Knobs of the federation run. All fault times sit off the query grid
/// so the interleaving is unambiguous.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Queries issued, one per [`FederationConfig::interval`] starting
    /// at 300 ms (after LTE attach).
    pub queries: usize,
    /// Query spacing.
    pub interval: SimDuration,
    /// Distinct CDN names the UE cycles through — the unit of
    /// cache-state locality a relocation loses.
    pub catalog: usize,
    /// When the UE hands off to the second radio region (inter-site).
    pub handoff_at: SimDuration,
    /// When the serving MEC region dies. Stays dead for the rest of the
    /// run — reconvergence, not restoration, is what's measured.
    pub outage_at: SimDuration,
    /// Catchment withdrawal propagation delay (the BGP-convergence
    /// analogue bounding anycast's time-to-reconverge).
    pub withdraw_delay: SimDuration,
    /// dns-select: TTL of the site-selection answer; the client
    /// re-resolves on this grid and is stale in between.
    pub select_ttl: SimDuration,
    /// dns-select: how long the selection DNS takes to notice a dead
    /// site (health-check lag).
    pub detect_delay: SimDuration,
    /// Stub query timeout before the first retransmission.
    pub query_timeout: SimDuration,
    /// Stub retransmissions per query.
    pub retries: u8,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            queries: 56,
            interval: SimDuration::from_millis(100),
            catalog: 6,
            handoff_at: SimDuration::from_millis(1_500),
            outage_at: SimDuration::from_millis(3_000),
            withdraw_delay: SimDuration::from_millis(200),
            select_ttl: SimDuration::from_millis(1_000),
            detect_delay: SimDuration::from_millis(500),
            query_timeout: SimDuration::from_millis(250),
            retries: 2,
        }
    }
}

impl FederationConfig {
    /// CI smoke: the same shape on a shorter clock.
    pub fn quick() -> Self {
        FederationConfig {
            queries: 30,
            catalog: 4,
            handoff_at: SimDuration::from_millis(1_000),
            outage_at: SimDuration::from_millis(2_000),
            ..FederationConfig::default()
        }
    }

    /// Virtual instant of query `i`.
    fn query_at(&self, i: usize) -> SimDuration {
        FIRST_QUERY + self.interval.mul_f64(i as f64)
    }
}

/// One deployment's behaviour under mobility plus the regional outage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FederationDeployment {
    /// `single-mec`, `anycast-3site` or `dns-select`.
    pub name: String,
    /// Queries issued.
    pub total: usize,
    /// Queries answered NOERROR.
    pub answered: usize,
    /// `answered / total`.
    pub availability: f64,
    /// 99th-percentile resolution latency over answered queries, ms.
    pub p99_ms: Option<f64>,
    /// Time from outage start to the first answer served by a
    /// *different* site, ms. `None` when the deployment never
    /// reconverged (single-mec has nowhere to go).
    pub reconverge_ms: Option<f64>,
    /// Serving-site sequence over answered queries, deduplicated
    /// (e.g. `[0, 1, 2]`: started at site 0, relocated twice).
    pub serving_sites: Vec<u8>,
    /// Serving-site changes (handoff-driven plus outage-driven).
    pub relocations: usize,
    /// Resolver cache hits summed over all sites.
    pub cache_hits: u64,
    /// Resolver cache misses summed over all sites.
    pub cache_misses: u64,
    /// Cold misses each relocation cost: `(misses - catalog) /
    /// relocations`. `None` without relocations.
    pub cache_loss_per_relocation: Option<f64>,
    /// Answers that came from the cloud resolver (must be 0 — every
    /// planned name is MEC-served; cloud is refusal-only).
    pub cloud_answers: usize,
    /// `stub.query` telemetry — must equal `total`.
    pub queries_sent: u64,
    /// `stub.timeout` telemetry — must equal `total - answered`.
    pub timeouts: u64,
}

/// The federation experiment's result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FederationReport {
    /// Root seed the per-deployment trials were derived from.
    pub seed: u64,
    /// Queries per deployment.
    pub queries: usize,
    /// Query spacing, ms.
    pub interval_ms: f64,
    /// Catalogue size (names per serving site to warm).
    pub catalog: usize,
    /// Inter-site handoff instant, ms.
    pub handoff_at_ms: f64,
    /// Regional-outage start, ms (the region stays dead).
    pub outage_at_ms: f64,
    /// Catchment withdrawal delay, ms.
    pub withdraw_delay_ms: f64,
    /// dns-select TTL, ms.
    pub select_ttl_ms: f64,
    /// `single-mec`, `anycast-3site`, `dns-select`.
    pub deployments: Vec<FederationDeployment>,
}

impl FederationReport {
    /// Plain-text rendering for `repro federation`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== federation — one C-DNS address, three MEC sites, one regional outage ==\n",
        );
        out.push_str(&format!(
            "{} queries @ {:.0}ms; inter-site handoff at {:.1}s; region dies at {:.1}s \
             (withdraw {:.0}ms, select TTL {:.0}ms)\n",
            self.queries,
            self.interval_ms,
            self.handoff_at_ms / 1000.0,
            self.outage_at_ms / 1000.0,
            self.withdraw_delay_ms,
            self.select_ttl_ms,
        ));
        out.push_str(&format!(
            "{:<14} {:>6} {:>9} {:>12} {:>7} {:>7} {:>7} {:>11}\n",
            "deployment", "avail", "p99(ms)", "reconv(ms)", "reloc", "hits", "misses", "loss/reloc"
        ));
        for d in &self.deployments {
            out.push_str(&format!(
                "{:<14} {:>6.3} {:>9} {:>12} {:>7} {:>7} {:>7} {:>11}\n",
                d.name,
                d.availability,
                d.p99_ms.map_or("-".into(), |v: f64| format!("{v:.1}")),
                d.reconverge_ms.map_or("-".into(), |v: f64| format!("{v:.1}")),
                d.relocations,
                d.cache_hits,
                d.cache_misses,
                d.cache_loss_per_relocation
                    .map_or("-".into(), |v: f64| format!("{v:.1}")),
            ));
        }
        out
    }
}

/// The three compared deployments, in report order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    SingleMec,
    Anycast,
    DnsSelect,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::SingleMec => "single-mec",
            Kind::Anycast => "anycast-3site",
            Kind::DnsSelect => "dns-select",
        }
    }

    /// How many MEC sites this deployment builds.
    fn sites(self) -> usize {
        match self {
            Kind::SingleMec => 1,
            _ => SITES,
        }
    }

    /// Which site the regional outage takes down: the one serving the
    /// UE at `outage_at` (site 0 before the handoff moved the client,
    /// site 1 after — single-mec always serves from its only site).
    fn outage_site(self) -> usize {
        match self {
            Kind::SingleMec => 0,
            _ => 1,
        }
    }
}

/// dns-select's site choice for a query at `at`: the selection answer
/// from the last TTL boundary, computed from what the selection DNS
/// knew then — the client's radio region, and (after the health-check
/// lag) which site is dead. A pure function of the config, which is
/// exactly the point: GeoDNS failover is clocked by the TTL grid, not
/// by routing.
fn dns_select_site(cfg: &FederationConfig, at: SimDuration) -> usize {
    let ttl = cfg.select_ttl.as_nanos();
    let boundary = (at.as_nanos() / ttl) * ttl;
    let candidate = usize::from(boundary >= cfg.handoff_at.as_nanos());
    if candidate == 1 && boundary >= (cfg.outage_at + cfg.detect_delay).as_nanos() {
        2
    } else {
        candidate
    }
}

/// Builds and runs one deployment against the shared fault script.
fn run_deployment(kind: Kind, trial_seed: u64, cfg: &FederationConfig) -> FederationDeployment {
    assert!(
        cfg.handoff_at < cfg.outage_at,
        "the outage must hit the post-handoff serving site"
    );
    let names: Vec<Name> = (0..cfg.catalog)
        .map(|k| Name::parse(&format!("video{k}.demo1.{MEC_CDN_ZONE}")).expect("name parses"))
        .collect();

    let mut net = Network::new(trial_seed);
    let mut ran = Ran::build(&mut net, EpcConfig::default());
    // Two radio regions; the inter-site handoff crosses them.
    let enb_a = ran.add_enb_at_site(&mut net, 0);
    let enb_b = ran.add_enb_at_site(&mut net, 1);

    // MEC sites: a caching resolver forwarding misses to the site's own
    // authoritative C-DNS, which answers every catalogue name with the
    // *site's* edge cache — the answer address is the site attribution,
    // and a cold cache pays the extra hop to the C-DNS.
    let mut site_nodes = Vec::new();
    let mut origin_nodes = Vec::new();
    for site in 0..kind.sites() {
        let mut zone = Zone::new(Name::parse(MEC_CDN_ZONE).expect("zone parses"));
        for name in &names {
            zone.add_a(name.clone(), site_cache_ip(site), 300);
        }
        let origin = net.add_node(
            &format!("mec-cdns-{site}"),
            [site_origin_ip(site)],
            DnsServer::new(
                ServerConfig::default(),
                vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            ),
        );
        let resolver = net.add_node(
            &format!("mec-ldns-{site}"),
            [site_dns_ip(site)],
            DnsServer::new(
                ServerConfig {
                    processing: Latency::skewed(1.6, 2.6, 0.9),
                    ..ServerConfig::default()
                },
                vec![
                    Box::new(CachePlugin::new(256)),
                    Box::new(ForwardPlugin::new(site_origin_ip(site))),
                ],
            ),
        );
        net.connect(
            resolver,
            origin,
            LinkProfile::with_latency(Latency::ConstantMs(3.0)),
        );
        site_nodes.push(resolver);
        origin_nodes.push(origin);
    }

    // The cloud resolver of last resort, a WAN away. It serves nothing
    // the plan asks for; the policy only visits it on refusal.
    let cloud = net.add_node(
        "cloud-resolver",
        [IpAddr::V4(CLOUD)],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![Zone::new(
                Name::parse("example.test").expect("zone parses"),
            )]))],
        ),
    );
    net.connect(
        ran.epc.pgw,
        cloud,
        LinkProfile::with_latency(Latency::ConstantMs(25.0)),
    );
    net.add_default_route(cloud, ran.epc.pgw);

    // Metro wiring. Anycast interposes the aggregation gateway running
    // the catchment; the other deployments dial sites directly. Hop
    // latencies are matched (0.2 + 0.3 ≈ 0.5) so the comparison stays
    // about addressing, not cable length.
    let mut catchment = None;
    let mut site_links = Vec::new();
    match kind {
        Kind::Anycast => {
            let c = AnycastCatchment::new(
                IpAddr::V4(ANYCAST),
                (0..SITES).map(site_dns_ip),
            )
            .with_withdraw_delay(cfg.withdraw_delay);
            // The P-GW's public address is the client the catchment
            // sees; it prefers the sites in metro order.
            c.set_preference(Cidr::host(ran.pgw_public_ip()), vec![0, 1, 2]);
            let agg = net.add_node(
                "metro-agg",
                [IpAddr::V4(Ipv4Addr::new(10, 99, 0, 1))],
                AnycastGateway::new(c.clone()),
            );
            net.connect(
                ran.epc.pgw,
                agg,
                LinkProfile::with_latency(Latency::ConstantMs(0.2)),
            );
            net.add_route(ran.epc.pgw, Cidr::host(IpAddr::V4(ANYCAST)), agg);
            net.add_default_route(agg, ran.epc.pgw);
            for &node in &site_nodes {
                site_links.push(net.connect(
                    agg,
                    node,
                    LinkProfile::with_latency(Latency::ConstantMs(0.3)),
                ));
                net.add_default_route(node, agg);
            }
            catchment = Some(c);
        }
        _ => {
            for &node in &site_nodes {
                site_links.push(net.connect(
                    ran.epc.pgw,
                    node,
                    LinkProfile::with_latency(Latency::ConstantMs(0.5)),
                ));
                net.add_default_route(node, ran.epc.pgw);
            }
        }
    }

    // The UE's query plan. Silence means "my site died — the address is
    // still right, routing is reconverging", so retransmit it; REFUSED
    // means "the edge cannot resolve this", so go to the cloud.
    let plan: Vec<PlannedQuery> = (0..cfg.queries)
        .map(|i| {
            let at = cfg.query_at(i);
            let target = match kind {
                Kind::SingleMec => site_dns_ip(0),
                Kind::Anycast => IpAddr::V4(ANYCAST),
                Kind::DnsSelect => site_dns_ip(dns_select_site(cfg, at)),
            };
            PlannedQuery {
                at,
                name: names[i % cfg.catalog].clone(),
                strategy: SendStrategy::CloudOnServfail {
                    anycast: target,
                    cloud: IpAddr::V4(CLOUD),
                },
                ecs: None,
            }
        })
        .collect();
    let mut qc = QueryClient::new(plan);
    qc.engine_mut().query_timeout = cfg.query_timeout;
    qc.engine_mut().retries = cfg.retries;
    let telemetry = netsim::Telemetry::default();
    qc.engine_mut().set_telemetry(telemetry.clone());
    let ue = ran.attach_ue(&mut net, "ue", qc, enb_a, RadioProfile::Lte);

    // The regional outage: the serving site's node dies, its metro
    // backhaul partitions, and (anycast) its advertisement is
    // withdrawn — one composed fault, dead until far past the run.
    let outage_site = kind.outage_site();
    let outage_end = cfg.outage_at + SimDuration::from_secs(60);
    FaultSchedule::new()
        .region_outage(
            &[site_nodes[outage_site], origin_nodes[outage_site]],
            &[site_links[outage_site]],
            catchment.as_ref().map(|c| (c, outage_site)),
            cfg.outage_at..outage_end,
        )
        .install(&mut net);

    // Mobility: run to the handoff, relocate the bearer (S1, the
    // expensive kind), and — for anycast — the client now enters the
    // anycast cloud at its new region, so its catchment preference
    // walks with it.
    net.run_until(SimTime::ZERO + cfg.handoff_at);
    ran.handoff(&mut net, ue, enb_b, RadioProfile::Lte);
    if let Some(c) = &catchment {
        c.set_preference(Cidr::host(ran.pgw_public_ip()), vec![1, 2, 0]);
    }
    net.run();

    // Harvest, in issue order (tags are plan indices).
    let mut measured: Vec<_> = net.behavior::<QueryClient>(ue.node).measured.clone();
    measured.sort_by_key(|m| m.outcome.tag);
    let outage_start = SimTime::ZERO + cfg.outage_at;
    let site_of = |addr: Ipv4Addr| (0..SITES).find(|&s| site_cache_ip(s) == addr);
    let mut samples = Samples::new();
    let (mut answered, mut timed_out, mut cloud_answers) = (0usize, 0usize, 0usize);
    let mut serving_sites: Vec<u8> = Vec::new();
    let mut reconverge_ms: Option<f64> = None;
    let mut cold_pairs: std::collections::BTreeSet<(usize, usize)> = Default::default();
    for m in &measured {
        if m.outcome.timed_out {
            timed_out += 1;
            continue;
        }
        if !m.outcome.rcode.is_ok() {
            continue;
        }
        answered += 1;
        samples.record(m.outcome.rtt);
        if m.outcome.used_fallback {
            cloud_answers += 1;
        }
        let site = m.outcome.addrs.first().copied().and_then(site_of);
        if let Some(site) = site {
            cold_pairs.insert((site, m.outcome.tag as usize % cfg.catalog));
            if serving_sites.last() != Some(&(site as u8)) {
                serving_sites.push(site as u8);
            }
            // Reconvergence: the first answer after the outage served
            // by a *different* site (in-flight replies from the dying
            // site do not count as recovery).
            if site != outage_site && m.finished >= outage_start && reconverge_ms.is_none() {
                reconverge_ms = Some((m.finished - outage_start).as_millis_f64());
            }
        }
    }
    let relocations = serving_sites.len().saturating_sub(1);

    // Cache accounting across the sites.
    let (mut hits, mut misses) = (0u64, 0u64);
    for &node in &site_nodes {
        let cache = net
            .behavior::<DnsServer>(node)
            .plugin::<CachePlugin>(0)
            .expect("cache plugin at index 0");
        hits += cache.hits();
        misses += cache.misses();
    }

    // Cross-validate the measurement against independent observers
    // before reporting — a report that disagrees with the telemetry or
    // the cache counters is a bug, not a result.
    let total = measured.len();
    assert_eq!(total, cfg.queries, "client lost outcomes ({})", kind.label());
    assert_eq!(
        telemetry.counter("stub.query"),
        cfg.queries as u64,
        "telemetry lost issued queries ({})",
        kind.label()
    );
    assert_eq!(
        telemetry.counter("stub.timeout") as usize,
        timed_out,
        "telemetry timeouts disagree with measured outcomes ({})",
        kind.label()
    );
    assert_eq!(
        net.behavior::<DnsServer>(cloud).queries_received,
        0,
        "cloud consulted without a refusal ({})",
        kind.label()
    );
    // Every serving-site relocation re-pays the catalogue in cold
    // misses, and nothing else misses: total misses must equal the
    // number of distinct (site, name) pairs the client was answered
    // from — one cold fill per name per site it lands on.
    assert_eq!(
        misses,
        cold_pairs.len() as u64,
        "cache misses disagree with the cold (site, name) pairs ({})",
        kind.label()
    );

    FederationDeployment {
        name: kind.label().to_string(),
        total,
        answered,
        availability: if total == 0 {
            0.0
        } else {
            answered as f64 / total as f64
        },
        p99_ms: samples.percentile(99.0),
        reconverge_ms,
        serving_sites,
        relocations,
        cache_hits: hits,
        cache_misses: misses,
        cache_loss_per_relocation: if relocations == 0 {
            None
        } else {
            Some((misses as f64 - cfg.catalog as f64) / relocations as f64)
        },
        cloud_answers,
        queries_sent: telemetry.counter("stub.query"),
        timeouts: telemetry.counter("stub.timeout"),
    }
}

/// Runs the federation experiment serially. See
/// [`federation_experiment_with`].
pub fn federation_experiment(seed: u64, cfg: &FederationConfig) -> FederationReport {
    federation_experiment_with(seed, &Runner::default(), cfg)
}

/// Runs the three deployments as independent trials on `runner`
/// (derived seeds, index-ordered merge — byte-identical at any thread
/// count) and assembles the [`FederationReport`].
pub fn federation_experiment_with(
    seed: u64,
    runner: &Runner,
    cfg: &FederationConfig,
) -> FederationReport {
    let kinds = [Kind::SingleMec, Kind::Anycast, Kind::DnsSelect];
    let deployments = runner.run_seeded(kinds.len(), seed, |idx, trial_seed| {
        run_deployment(kinds[idx], trial_seed, cfg)
    });
    FederationReport {
        seed,
        queries: cfg.queries,
        interval_ms: cfg.interval.as_millis_f64(),
        catalog: cfg.catalog,
        handoff_at_ms: cfg.handoff_at.as_millis_f64(),
        outage_at_ms: cfg.outage_at.as_millis_f64(),
        withdraw_delay_ms: cfg.withdraw_delay.as_millis_f64(),
        select_ttl_ms: cfg.select_ttl.as_millis_f64(),
        deployments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_site_is_stale_until_ttl_and_detection() {
        let cfg = FederationConfig::default();
        // Before the handoff boundary: site 0.
        assert_eq!(dns_select_site(&cfg, SimDuration::from_millis(900)), 0);
        // Handed off at 1.5 s but the 1 s boundary predates it: stale 0.
        assert_eq!(dns_select_site(&cfg, SimDuration::from_millis(1_900)), 0);
        // The 2 s boundary sees the new region.
        assert_eq!(dns_select_site(&cfg, SimDuration::from_millis(2_100)), 1);
        // Outage at 3 s, detected at 3.5 s; the 3 s boundary is stale.
        assert_eq!(dns_select_site(&cfg, SimDuration::from_millis(3_900)), 1);
        // The 4 s boundary routes around the dead site.
        assert_eq!(dns_select_site(&cfg, SimDuration::from_millis(4_100)), 2);
    }

    #[test]
    fn quick_report_tells_the_availability_story() {
        let r = federation_experiment(2020, &FederationConfig::quick());
        assert_eq!(r.deployments.len(), 3);
        let single = &r.deployments[0];
        let anycast = &r.deployments[1];
        let select = &r.deployments[2];
        assert_eq!(single.name, "single-mec");
        assert_eq!(anycast.name, "anycast-3site");
        assert_eq!(select.name, "dns-select");
        // The headline: anycast rides the outage out, single-mec sinks
        // with its site, GeoDNS lands in between (TTL-bounded).
        assert!(
            anycast.availability > single.availability,
            "anycast {} must beat single-mec {}",
            anycast.availability,
            single.availability
        );
        assert!(anycast.availability >= select.availability);
        // Single-mec has nowhere to reconverge to.
        assert_eq!(single.reconverge_ms, None);
        assert!(anycast.reconverge_ms.is_some());
        // Mobility walked the federated deployments across all sites.
        assert_eq!(anycast.serving_sites, vec![0, 1, 2]);
        assert_eq!(select.serving_sites, vec![0, 1, 2]);
        assert_eq!(single.serving_sites, vec![0]);
        // Nothing ever left the edge.
        for d in &r.deployments {
            assert_eq!(d.cloud_answers, 0);
            assert_eq!(d.queries_sent as usize, d.total);
            assert_eq!(d.timeouts as usize, d.total - d.answered);
        }
    }

    #[test]
    fn anycast_reconverges_at_routing_speed_geodns_at_ttl_speed() {
        let cfg = FederationConfig::quick();
        let r = federation_experiment(7, &cfg);
        let anycast = &r.deployments[1];
        let select = &r.deployments[2];
        let anycast_reconv = anycast.reconverge_ms.expect("anycast reconverges");
        let select_reconv = select.reconverge_ms.expect("dns-select reconverges");
        // Anycast's bound: withdrawal propagation plus one stub
        // retry cycle (timeout + backoff) plus path latency.
        let bound = cfg.withdraw_delay.as_millis_f64()
            + 3.0 * cfg.query_timeout.as_millis_f64()
            + 100.0;
        assert!(
            anycast_reconv >= cfg.withdraw_delay.as_millis_f64(),
            "no alternate site can answer before the withdrawal ({anycast_reconv} ms)"
        );
        assert!(
            anycast_reconv <= bound,
            "anycast reconvergence {anycast_reconv} ms above bound {bound} ms"
        );
        assert!(
            select_reconv > anycast_reconv,
            "GeoDNS ({select_reconv} ms) cannot beat routing ({anycast_reconv} ms)"
        );
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let cfg = FederationConfig::quick();
        let serial = federation_experiment_with(77, &Runner::new(1), &cfg);
        let parallel = federation_experiment_with(77, &Runner::new(4), &cfg);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}
