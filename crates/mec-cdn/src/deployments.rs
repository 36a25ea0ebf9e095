//! The six DNS deployments of Figure 5, on one simulated LTE testbed.
//!
//! Every deployment shares the same substrate — a UE on an srsLTE-like
//! radio, a NextEPC-like core, a Kubernetes-like MEC cluster hosting the
//! ATC-like CDN cache — and differs only in where the L-DNS and C-DNS
//! run:
//!
//! | # | Label                    | L-DNS            | C-DNS            |
//! |---|--------------------------|------------------|------------------|
//! | 1 | MEC L-DNS w/ MEC C-DNS   | MEC cluster      | MEC cluster      |
//! | 2 | MEC L-DNS w/ LAN C-DNS   | MEC cluster      | LAN next to MEC  |
//! | 3 | MEC L-DNS w/ WAN C-DNS   | MEC cluster      | metro WAN        |
//! | 4 | LAN L-DNS                | behind the core  | far cloud        |
//! | 5 | Google DNS               | public anycast   | far cloud        |
//! | 6 | Cloudflare DNS           | public anycast   | far cloud        |
//!
//! Bars 2–3 match the ETSI/3GPP proposals (L-DNS at MEC, CDN resolver
//! elsewhere); bar 1 is the paper's proposal; bars 4–6 are today's
//! options. Link distances are calibrated so the *means* land near the
//! paper's (29.4 / 34.8 / 60.9 / 114.6 / 112.5 / 285.7 ms), with ~20 ms
//! of every bar being the LTE wireless component.

use crate::measurement::{MeasuredQuery, PlannedQuery, QueryClient, SplitLatency};
use cdn_sim::{CacheServer, Catalog, Origin, Selection, TrafficRouterPlugin};
use dns_server::plugins::{CachePlugin, KubernetesPlugin, StubDomainPlugin};
use dns_server::{DnsServer, SendStrategy, ServerConfig};
use dns_wire::{ClientSubnet, Name};
use mec_orch::{Cluster, ClusterConfig, Visibility};
use netsim::{Latency, LinkProfile, Network, NodeId, SimDuration, Telemetry};
use ran_sim::{EpcConfig, PgwNat, RadioProfile, Ran};
use std::net::{IpAddr, Ipv4Addr};
use workload::sites::{MEC_CDN_DOMAIN, MEC_CDN_ZONE};

/// Which Figure 5 bar to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentKind {
    /// The proposal: both L-DNS and C-DNS inside the MEC cluster.
    MecLdnsMecCdns,
    /// ETSI/3GPP-style: L-DNS at MEC, C-DNS on the adjacent LAN.
    MecLdnsLanCdns,
    /// L-DNS at MEC, C-DNS across a metro WAN.
    MecLdnsWanCdns,
    /// Today's cellular default: L-DNS on a LAN behind the core.
    LanLdns,
    /// Public resolver: Google DNS.
    GoogleDns,
    /// Public resolver: Cloudflare DNS.
    CloudflareDns,
}

impl DeploymentKind {
    /// All six, in Figure 5 order.
    pub fn all() -> [DeploymentKind; 6] {
        [
            DeploymentKind::MecLdnsMecCdns,
            DeploymentKind::MecLdnsLanCdns,
            DeploymentKind::MecLdnsWanCdns,
            DeploymentKind::LanLdns,
            DeploymentKind::GoogleDns,
            DeploymentKind::CloudflareDns,
        ]
    }

    /// The bar label as printed in Figure 5.
    pub fn label(self) -> &'static str {
        match self {
            DeploymentKind::MecLdnsMecCdns => "MEC L-DNS w/ MEC C-DNS",
            DeploymentKind::MecLdnsLanCdns => "MEC L-DNS w/ LAN C-DNS",
            DeploymentKind::MecLdnsWanCdns => "MEC L-DNS w/ WAN C-DNS",
            DeploymentKind::LanLdns => "LAN L-DNS",
            DeploymentKind::GoogleDns => "Google DNS",
            DeploymentKind::CloudflareDns => "Cloudflare DNS",
        }
    }

    /// The paper's measured mean for this bar, in ms (Figure 5).
    pub fn paper_mean_ms(self) -> f64 {
        match self {
            DeploymentKind::MecLdnsMecCdns => 29.4,
            DeploymentKind::MecLdnsLanCdns => 34.8,
            DeploymentKind::MecLdnsWanCdns => 60.9,
            DeploymentKind::LanLdns => 114.6,
            DeploymentKind::GoogleDns => 112.5,
            DeploymentKind::CloudflareDns => 285.7,
        }
    }

    /// True when ECS applies (the paper evaluates ECS on the first
    /// three deployments).
    pub fn supports_ecs(self) -> bool {
        matches!(
            self,
            DeploymentKind::MecLdnsMecCdns
                | DeploymentKind::MecLdnsLanCdns
                | DeploymentKind::MecLdnsWanCdns
        )
    }
}

/// Testbed knobs shared by all deployments.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Air interface (LTE for the paper's numbers; NR for the 5G
    /// projection).
    pub radio: RadioProfile,
    /// Number of `dig`s. The paper uses "at least 12"; default 25.
    pub queries: usize,
    /// Spacing between digs — kept above the C-DNS answer TTL so every
    /// dig exercises the full path, as the testbed's did.
    pub spacing: SimDuration,
    /// Attach an ECS option to every query and enable ECS processing at
    /// the resolvers (§4's ECS experiment).
    pub ecs: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 2020,
            radio: RadioProfile::Lte,
            queries: 25,
            spacing: SimDuration::from_secs(35),
            ecs: false,
        }
    }
}

/// Calibrated one-way link distances (ms) for the testbed.
mod dist {
    /// P-GW ↔ MEC cluster fabric.
    pub const PGW_TO_MEC: (f64, f64) = (0.3, 0.6);
    /// MEC ↔ adjacent LAN host (deployment 2's C-DNS).
    pub const LAN_ADJACENT: (f64, f64) = (2.3, 2.9);
    /// MEC ↔ metro WAN host (deployment 3's C-DNS).
    pub const WAN_METRO: (f64, f64) = (14.8, 16.8);
    /// P-GW ↔ the carrier LAN L-DNS (deployment 4).
    pub const LAN_LDNS: (f64, f64) = (1.0, 1.6);
    /// Resolver ↔ far-cloud C-DNS (deployments 4–6).
    pub const FAR_CLOUD: (f64, f64) = (40.0, 44.0);
    /// P-GW ↔ Google anycast front end.
    pub const GOOGLE: (f64, f64) = (12.0, 14.5);
    /// Google ↔ the CDN's C-DNS.
    pub const GOOGLE_TO_CDNS: (f64, f64) = (26.0, 30.0);
    /// P-GW ↔ Cloudflare anycast front end (slow from the paper's
    /// vantage point).
    pub const CLOUDFLARE: (f64, f64) = (52.0, 58.0);
    /// Cloudflare ↔ the CDN's C-DNS.
    pub const CLOUDFLARE_TO_CDNS: (f64, f64) = (70.0, 76.0);
}

fn link(range: (f64, f64)) -> LinkProfile {
    LinkProfile::with_latency(Latency::UniformMs(range.0, range.1))
}

/// Containerized MEC DNS processing (CoreDNS / Traffic Router pods).
fn mec_dns_config(ecs: bool) -> ServerConfig {
    ServerConfig {
        processing: Latency::skewed(2.0, 3.3, 1.0),
        ecs_processing: Latency::UniformMs(0.1, 0.5),
        attach_ecs: ecs,
        ..ServerConfig::default()
    }
}

/// A big shared resolver (Google/Cloudflare front end).
fn public_resolver_config(ecs: bool) -> ServerConfig {
    ServerConfig {
        processing: Latency::skewed(2.0, 3.5, 1.5),
        ecs_processing: Latency::UniformMs(0.1, 0.5),
        attach_ecs: ecs,
        ..ServerConfig::default()
    }
}

/// A built deployment ready to run.
pub struct Deployment {
    /// Which bar this is.
    pub kind: DeploymentKind,
    /// The whole simulated world.
    pub net: Network,
    /// UE node carrying the [`QueryClient`].
    pub client: NodeId,
    /// The tapped P-GW.
    pub pgw: NodeId,
    /// Resolver address the UE queries.
    pub resolver_addr: IpAddr,
    /// The MEC cache address correct answers must name.
    pub expected_cache: Ipv4Addr,
    /// Content available in the CDN (for end-to-end fetches).
    pub catalog: Catalog,
    /// P-GW tap records from the last [`Deployment::run_measure`] call
    /// (exportable with [`netsim::pcap`] when the tap captured
    /// payloads).
    pub last_tap: Vec<netsim::TapRecord>,
    /// The shared telemetry store every instrumented component of this
    /// world records into: the UE's stub engine, every DNS server and
    /// its plugins, the RAN and the P-GW NAT.
    pub telemetry: Telemetry,
}

impl Deployment {
    /// Builds the world for one Figure 5 bar.
    pub fn build(kind: DeploymentKind, cfg: &TestbedConfig) -> Deployment {
        let mut net = Network::new(cfg.seed);
        // One telemetry store for the whole world; every component below
        // records into a clone of this handle. It keeps breadcrumbs: the
        // trace-vs-tap split and the exemplar trace read them.
        let tel = Telemetry::recording();

        // ---- RAN + EPC --------------------------------------------------
        let mut ran = Ran::build(&mut net, EpcConfig::default());
        ran.set_telemetry(tel.clone());
        ran.add_enb(&mut net);
        let pgw = ran.epc.pgw;
        net.enable_tap(pgw);
        // The P-GW drops DNS-crossing breadcrumbs alongside the tap.
        net.behavior_mut::<PgwNat>(pgw).set_telemetry(tel.clone());

        // ---- MEC cluster with the CDN cache -----------------------------
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        cluster.add_namespace("kube-system", Visibility::Internal);
        cluster.attach_external(&mut net, pgw, link(dist::PGW_TO_MEC));

        let catalog = Catalog::new();
        for seg in 0..8 {
            catalog.add(&format!("{MEC_CDN_DOMAIN}./seg-{seg}"), 200_000);
        }
        // Origin in the far cloud (misses pay a real price).
        let origin_ip: IpAddr = "198.51.100.80".parse().unwrap();
        let origin = net.add_node("origin", [origin_ip], Origin::new(catalog.clone()));
        net.connect(pgw, origin, link(dist::FAR_CLOUD));
        net.add_default_route(origin, pgw);

        let cache_pod_behavior = |addr: IpAddr| CacheServer::new(addr, 64_000_000, Some(origin_ip));
        // Pod IP is assigned by the cluster; build the behavior after we
        // know it by launching with a placeholder-free two-step: compute
        // the next pod ip deterministically via a probe launch.
        // Simpler: CacheServer takes its address for index bookkeeping
        // only; pass the service ClusterIP later. Use a fixed dummy that
        // is corrected by the service ClusterIP being the public face.
        let cache_pod = cluster.launch_pod(
            &mut net,
            "cdn",
            "cache-0",
            cache_pod_behavior("0.0.0.0".parse().unwrap()),
        );
        let cache_svc =
            cluster.create_service(&mut net, "cdn", "cache", std::slice::from_ref(&cache_pod));
        let IpAddr::V4(cache_v4) = cache_svc.cluster_ip else {
            unreachable!("cluster allocates IPv4 service addresses");
        };
        let expected_cache = cache_v4;

        // ---- C-DNS (the Traffic Router) ---------------------------------
        let router_plugin = || {
            let mut p = TrafficRouterPlugin::new(
                Name::parse(MEC_CDN_ZONE).unwrap(),
                vec![Name::parse(MEC_CDN_DOMAIN).unwrap()],
                vec![cache_v4],
                Selection::ConsistentHash,
            );
            p.ttl = 30;
            p
        };

        let cdns_addr: IpAddr = match kind {
            DeploymentKind::MecLdnsMecCdns => {
                let cdns_pod = cluster.launch_pod(
                    &mut net,
                    "cdn",
                    "trafficrouter",
                    DnsServer::new(mec_dns_config(cfg.ecs), vec![Box::new(router_plugin())])
                        .with_telemetry(tel.clone()),
                );
                let svc = cluster.create_service(&mut net, "cdn", "trafficrouter", &[cdns_pod]);
                svc.cluster_ip
            }
            DeploymentKind::MecLdnsLanCdns => {
                let addr: IpAddr = "192.0.2.10".parse().unwrap();
                let node = net.add_node(
                    "cdns-lan",
                    [addr],
                    DnsServer::new(mec_dns_config(cfg.ecs), vec![Box::new(router_plugin())])
                        .with_telemetry(tel.clone()),
                );
                net.connect(pgw, node, link(dist::LAN_ADJACENT));
                net.add_default_route(node, pgw);
                addr
            }
            DeploymentKind::MecLdnsWanCdns => {
                let addr: IpAddr = "192.0.2.20".parse().unwrap();
                let node = net.add_node(
                    "cdns-wan",
                    [addr],
                    DnsServer::new(mec_dns_config(cfg.ecs), vec![Box::new(router_plugin())])
                        .with_telemetry(tel.clone()),
                );
                net.connect(pgw, node, link(dist::WAN_METRO));
                net.add_default_route(node, pgw);
                addr
            }
            DeploymentKind::LanLdns | DeploymentKind::GoogleDns | DeploymentKind::CloudflareDns => {
                // The commercial C-DNS lives in the far cloud; resolvers
                // reach it over their own paths (wired below).
                "192.0.2.30".parse().unwrap()
            }
        };

        // ---- L-DNS / the resolver the UE queries ------------------------
        let resolver_addr: IpAddr = match kind {
            DeploymentKind::MecLdnsMecCdns
            | DeploymentKind::MecLdnsLanCdns
            | DeploymentKind::MecLdnsWanCdns => {
                let ldns_pod = cluster.launch_pod(
                    &mut net,
                    "kube-system",
                    "coredns",
                    DnsServer::new(
                        mec_dns_config(cfg.ecs),
                        vec![
                            Box::new(KubernetesPlugin::new(
                                cluster.registry(),
                                vec![Name::parse("cluster.local").unwrap()],
                                vec![
                                    "10.244.0.0/16".parse().unwrap(),
                                    "10.96.0.0/16".parse().unwrap(),
                                ],
                            )),
                            Box::new(StubDomainPlugin::new(vec![(
                                Name::parse(MEC_CDN_ZONE).unwrap(),
                                cdns_addr,
                            )])),
                        ],
                    )
                    .with_telemetry(tel.clone()),
                );
                let svc = cluster.create_service(&mut net, "kube-system", "coredns", &[ldns_pod]);
                svc.cluster_ip
            }
            DeploymentKind::LanLdns => {
                let far_cdns = build_far_cdns(&mut net, pgw, router_plugin(), cfg, &tel);
                let addr: IpAddr = "10.44.9.1".parse().unwrap();
                let node = net.add_node(
                    "lan-ldns",
                    [addr],
                    DnsServer::new(
                        mec_dns_config(false),
                        vec![
                            Box::new(CachePlugin::new(4096)),
                            Box::new(StubDomainPlugin::new(vec![(
                                Name::parse(MEC_CDN_ZONE).unwrap(),
                                far_cdns,
                            )])),
                        ],
                    )
                    .with_telemetry(tel.clone()),
                );
                net.connect(pgw, node, link(dist::LAN_LDNS));
                net.add_default_route(node, pgw);
                addr
            }
            DeploymentKind::GoogleDns => build_public_resolver(
                &mut net,
                pgw,
                "google-dns",
                "8.8.8.8",
                dist::GOOGLE,
                dist::GOOGLE_TO_CDNS,
                router_plugin(),
                cfg,
                &tel,
            ),
            DeploymentKind::CloudflareDns => build_public_resolver(
                &mut net,
                pgw,
                "cloudflare-dns",
                "1.1.1.1",
                dist::CLOUDFLARE,
                dist::CLOUDFLARE_TO_CDNS,
                router_plugin(),
                cfg,
                &tel,
            ),
        };

        // ---- The UE -----------------------------------------------------
        let plan: Vec<PlannedQuery> = (0..cfg.queries)
            .map(|i| PlannedQuery {
                // First query after attach completes.
                at: SimDuration::from_millis(200)
                    + SimDuration::from_nanos(cfg.spacing.as_nanos() * i as u64),
                name: Name::parse(MEC_CDN_DOMAIN).unwrap(),
                strategy: SendStrategy::Unicast(resolver_addr),
                ecs: cfg.ecs.then(|| {
                    // The UE discloses its own /24 (it knows its bearer
                    // address even though the P-GW will NAT it).
                    ClientSubnet::query("10.45.0.0".parse().unwrap(), 24)
                }),
            })
            .collect();
        let mut query_client = QueryClient::new(plan);
        query_client.engine_mut().set_telemetry(tel.clone());
        let ue = ran.attach_ue(&mut net, "ue", query_client, 0, cfg.radio);

        Deployment {
            kind,
            net,
            client: ue.node,
            pgw,
            resolver_addr,
            expected_cache,
            catalog,
            last_tap: Vec::new(),
            telemetry: tel,
        }
    }

    /// Runs the whole schedule and returns per-query measurements plus
    /// the wireless/resolver split from the P-GW tap.
    pub fn run_measure(&mut self) -> (Vec<MeasuredQuery>, Vec<SplitLatency>) {
        self.net.run();
        let measured = self
            .net
            .behavior::<QueryClient>(self.client)
            .measured
            .clone();
        self.last_tap = self.net.take_tap(self.pgw);
        let split = crate::measurement::split_wireless(&self.last_tap, &measured);
        (measured, split)
    }
}

/// The far-cloud C-DNS used by deployments 4–6.
fn build_far_cdns(
    net: &mut Network,
    pgw: NodeId,
    router: TrafficRouterPlugin,
    cfg: &TestbedConfig,
    tel: &Telemetry,
) -> IpAddr {
    let addr: IpAddr = "192.0.2.30".parse().unwrap();
    let node = net.add_node(
        "cdns-cloud",
        [addr],
        DnsServer::new(mec_dns_config(cfg.ecs), vec![Box::new(router)]).with_telemetry(tel.clone()),
    );
    net.connect(pgw, node, link(dist::FAR_CLOUD));
    net.add_default_route(node, pgw);
    addr
}

/// A public anycast resolver at `resolver_dist` from the P-GW, with the
/// CDN's C-DNS `cdns_dist` farther on.
#[allow(clippy::too_many_arguments)]
fn build_public_resolver(
    net: &mut Network,
    pgw: NodeId,
    name: &str,
    addr: &str,
    resolver_dist: (f64, f64),
    cdns_dist: (f64, f64),
    router: TrafficRouterPlugin,
    cfg: &TestbedConfig,
    tel: &Telemetry,
) -> IpAddr {
    // The C-DNS, reachable from the resolver only (distances are from
    // the resolver's vantage point).
    let cdns_addr: IpAddr = "192.0.2.30".parse().unwrap();
    let cdns = net.add_node(
        &format!("{name}-cdns"),
        [cdns_addr],
        DnsServer::new(mec_dns_config(cfg.ecs), vec![Box::new(router)]).with_telemetry(tel.clone()),
    );
    let resolver_ip: IpAddr = addr.parse().unwrap();
    let resolver = net.add_node(
        name,
        [resolver_ip],
        DnsServer::new(
            public_resolver_config(cfg.ecs),
            vec![
                Box::new(CachePlugin::new(1 << 16)),
                Box::new(StubDomainPlugin::new(vec![(
                    Name::parse(MEC_CDN_ZONE).unwrap(),
                    cdns_addr,
                )])),
            ],
        )
        .with_telemetry(tel.clone()),
    );
    net.connect(pgw, resolver, link(resolver_dist));
    net.connect(resolver, cdns, link(cdns_dist));
    net.add_default_route(resolver, pgw);
    net.add_default_route(cdns, resolver);
    resolver_ip
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Samples;

    fn mean_of(kind: DeploymentKind, cfg: &TestbedConfig) -> (f64, f64, usize) {
        let mut d = Deployment::build(kind, cfg);
        let (measured, split) = d.run_measure();
        let mut total = Samples::new();
        let mut wireless = Samples::new();
        for s in &split {
            total.record(s.total);
            wireless.record(s.wireless);
        }
        let answered = measured.iter().filter(|m| !m.outcome.timed_out).count();
        (
            total
                .summarize()
                .map(|s| s.trimmed_mean_ms)
                .unwrap_or(f64::NAN),
            wireless
                .summarize()
                .map(|s| s.trimmed_mean_ms)
                .unwrap_or(f64::NAN),
            answered,
        )
    }

    #[test]
    fn all_deployments_resolve_every_query() {
        let cfg = TestbedConfig {
            queries: 12,
            ..TestbedConfig::default()
        };
        for kind in DeploymentKind::all() {
            let mut d = Deployment::build(kind, &cfg);
            let (measured, split) = d.run_measure();
            assert_eq!(measured.len(), 12, "{:?} lost queries", kind);
            assert!(
                measured.iter().all(|m| !m.outcome.timed_out),
                "{kind:?} had timeouts"
            );
            assert_eq!(split.len(), 12, "{kind:?} tap split incomplete");
        }
    }

    #[test]
    fn every_answer_names_the_mec_cache() {
        // §4: "the DNS query was always correctly resolved to the
        // appropriate CDN cache server at the MEC."
        let cfg = TestbedConfig {
            queries: 12,
            ..TestbedConfig::default()
        };
        for kind in [
            DeploymentKind::MecLdnsMecCdns,
            DeploymentKind::MecLdnsLanCdns,
            DeploymentKind::MecLdnsWanCdns,
        ] {
            let mut d = Deployment::build(kind, &cfg);
            let expected = d.expected_cache;
            let (measured, _) = d.run_measure();
            for m in &measured {
                assert_eq!(m.outcome.addrs, vec![expected], "{kind:?}");
            }
        }
    }

    #[test]
    fn figure5_ordering_holds() {
        let cfg = TestbedConfig::default();
        let means: Vec<(DeploymentKind, f64)> = DeploymentKind::all()
            .into_iter()
            .map(|k| (k, mean_of(k, &cfg).0))
            .collect();
        let get = |k: DeploymentKind| means.iter().find(|(kk, _)| *kk == k).unwrap().1;
        let mec = get(DeploymentKind::MecLdnsMecCdns);
        let lan_cdns = get(DeploymentKind::MecLdnsLanCdns);
        let wan_cdns = get(DeploymentKind::MecLdnsWanCdns);
        let lan_ldns = get(DeploymentKind::LanLdns);
        let google = get(DeploymentKind::GoogleDns);
        let cloudflare = get(DeploymentKind::CloudflareDns);
        assert!(mec < lan_cdns, "{mec} !< {lan_cdns}");
        assert!(lan_cdns < wan_cdns, "{lan_cdns} !< {wan_cdns}");
        assert!(wan_cdns < google, "{wan_cdns} !< {google}");
        assert!(wan_cdns < lan_ldns, "{wan_cdns} !< {lan_ldns}");
        assert!(google < cloudflare);
        assert!(lan_ldns < cloudflare);
        // Headline: up to ~9x vs the slowest current option.
        let speedup = cloudflare / mec;
        assert!(
            (7.0..13.0).contains(&speedup),
            "speedup {speedup} out of the paper's ballpark"
        );
        // MEC beats the ideal ETSI-style LAN C-DNS by ~5 ms.
        let gap = lan_cdns - mec;
        assert!((3.0..8.0).contains(&gap), "LAN gap {gap}ms");
    }

    #[test]
    fn means_land_near_paper_values() {
        let cfg = TestbedConfig::default();
        for kind in DeploymentKind::all() {
            let (mean, _, _) = mean_of(kind, &cfg);
            let target = kind.paper_mean_ms();
            let ratio = mean / target;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{kind:?}: measured {mean:.1}ms vs paper {target}ms (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn wireless_component_is_about_twenty_ms() {
        let cfg = TestbedConfig::default();
        let (total, wireless, _) = mean_of(DeploymentKind::MecLdnsMecCdns, &cfg);
        assert!(
            (18.0..26.0).contains(&wireless),
            "wireless component {wireless}ms should be ≈20ms"
        );
        assert!(wireless / total > 0.6, "LTE must dominate the MEC bar");
    }

    #[test]
    fn nr_projection_shrinks_the_mec_bar() {
        let lte = mean_of(DeploymentKind::MecLdnsMecCdns, &TestbedConfig::default()).0;
        let nr = mean_of(
            DeploymentKind::MecLdnsMecCdns,
            &TestbedConfig {
                radio: RadioProfile::Nr,
                ..TestbedConfig::default()
            },
        )
        .0;
        assert!(
            nr < lte / 2.0,
            "5G projection: NR {nr}ms should be far below LTE {lte}ms"
        );
        assert!(nr < 20.0, "NR MEC-CDN must fit the sub-20ms envelope");
    }

    #[test]
    fn ecs_factors_are_near_one() {
        for kind in [
            DeploymentKind::MecLdnsMecCdns,
            DeploymentKind::MecLdnsLanCdns,
            DeploymentKind::MecLdnsWanCdns,
        ] {
            let plain = mean_of(kind, &TestbedConfig::default()).0;
            let ecs = mean_of(
                kind,
                &TestbedConfig {
                    ecs: true,
                    ..TestbedConfig::default()
                },
            )
            .0;
            let factor = ecs / plain;
            assert!(
                (0.93..1.15).contains(&factor),
                "{kind:?} ECS factor {factor} outside the paper's ~1.0 band"
            );
        }
    }

    #[test]
    fn ecs_answers_remain_correct() {
        let cfg = TestbedConfig {
            ecs: true,
            queries: 12,
            ..TestbedConfig::default()
        };
        let mut d = Deployment::build(DeploymentKind::MecLdnsMecCdns, &cfg);
        let expected = d.expected_cache;
        let (measured, _) = d.run_measure();
        for m in &measured {
            assert_eq!(m.outcome.addrs, vec![expected]);
            assert_eq!(m.outcome.ecs_scope, Some(24), "C-DNS must scope the answer");
        }
    }
}
