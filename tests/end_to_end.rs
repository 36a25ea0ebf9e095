//! Cross-crate integration tests: the whole pipeline from UE radio to
//! cache content, spanning `ran-sim`, `mec-orch`, `dns-server`,
//! `cdn-sim` and `mec-cdn`.

use cdn_sim::{CacheServer, Catalog, FetchEngine, Origin, Selection, TrafficRouterPlugin};
use dns_server::plugins::KubernetesPlugin;
use dns_server::{DnsServer, SendStrategy, ServerConfig, StubEngine};
use dns_wire::{Name, Rcode, RrType};
use mec_cdn::{Deployment, DeploymentKind, TestbedConfig};
use mec_orch::{Cluster, ClusterConfig, Visibility};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, SimDuration, TimerToken,
};
use std::net::{IpAddr, Ipv4Addr};
use workload::sites::{MEC_CDN_DOMAIN, MEC_CDN_ZONE};

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// Resolve-then-fetch client used across these tests.
struct Consumer {
    resolver: IpAddr,
    names: Vec<Name>,
    dns: StubEngine,
    fetch: FetchEngine,
    start_delay: SimDuration,
    /// (domain, resolved addr) pairs in completion order.
    pub resolved: Vec<(Name, Ipv4Addr)>,
}

impl Consumer {
    fn new(resolver: IpAddr, names: Vec<Name>, start_delay: SimDuration) -> Self {
        Consumer {
            resolver,
            names,
            dns: StubEngine::new(),
            fetch: FetchEngine::new(),
            start_delay,
            resolved: Vec::new(),
        }
    }
}

impl NodeBehavior for Consumer {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.names.len() {
            ctx.set_timer(
                self.start_delay + SimDuration::from_millis(500 * i as u64),
                i as u64,
            );
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if StubEngine::owns_timer(data) {
            self.dns.on_timer(ctx, data);
            return;
        }
        let name = self.names[data as usize].clone();
        self.dns.issue(
            ctx,
            name,
            RrType::A,
            SendStrategy::Unicast(self.resolver),
            None,
            data,
        );
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        if let Some(outcome) = self.dns.on_datagram(ctx, &dgram) {
            if let Some(&addr) = outcome.addrs.first() {
                self.resolved.push((outcome.name.clone(), addr));
                let key = format!("{}/seg-0", outcome.name);
                self.fetch.fetch(ctx, IpAddr::V4(addr), &key, outcome.tag);
            }
            return;
        }
        self.fetch.on_datagram(ctx, &dgram);
    }
}

#[test]
fn ue_resolves_and_streams_from_the_edge_cache() {
    // The headline end-to-end flow on the proposal deployment: DNS at
    // the MEC, content from the MEC cache, second fetch warm.
    let cfg = TestbedConfig {
        queries: 3,
        spacing: SimDuration::from_secs(35),
        ..TestbedConfig::default()
    };
    let mut d = Deployment::build(DeploymentKind::MecLdnsMecCdns, &cfg);
    let (measured, _) = d.run_measure();
    assert_eq!(measured.len(), 3);
    let cache = measured[0].outcome.addrs[0];
    assert_eq!(cache, d.expected_cache);

    // Now stream from the answered address with a second client.
    let keys = d.catalog.keys();
    struct Streamer {
        cache: IpAddr,
        keys: Vec<String>,
        fetch: FetchEngine,
    }
    impl NodeBehavior for Streamer {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.keys.len() {
                ctx.set_timer(SimDuration::from_millis(400 * i as u64 + 300_000), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
            let key = self.keys[data as usize].clone();
            self.fetch.fetch(ctx, self.cache, &key, data);
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.fetch.on_datagram(ctx, &dgram);
        }
    }
    let streamer = d.net.add_node(
        "streamer",
        ["10.45.9.50".parse::<IpAddr>().unwrap()],
        Streamer {
            cache: IpAddr::V4(cache),
            keys: keys.clone(),
            fetch: FetchEngine::new(),
        },
    );
    d.net
        .connect(streamer, d.pgw, ran_sim::RadioProfile::Lte.link());
    d.net.add_default_route(streamer, d.pgw);
    d.net.run();
    let outcomes = &d.net.behavior::<Streamer>(streamer).fetch.outcomes;
    assert_eq!(outcomes.len(), keys.len(), "every segment fetched");
    assert!(
        outcomes.iter().all(|o| o.size == Some(200_000)),
        "all segments served with data"
    );
}

#[test]
fn trace_split_agrees_with_tap_split_on_every_deployment() {
    // The telemetry cross-check, end to end: the wireless/resolver
    // decomposition derived from the P-GW's breadcrumb traces must
    // match the one derived from the packet tap — two independent
    // observation paths over the same virtual packets, the simulator's
    // analogue of the paper validating `dig` timings against `tcpdump`.
    let cfg = TestbedConfig {
        queries: 12,
        ..TestbedConfig::default()
    };
    for kind in DeploymentKind::all() {
        let mut d = Deployment::build(kind, &cfg);
        let (measured, tap_split) = d.run_measure();
        let trace_split = mec_cdn::measurement::split_from_traces(&d.telemetry, &measured);
        assert_eq!(
            trace_split.len(),
            tap_split.len(),
            "{kind:?}: the two derivations must cover the same queries"
        );
        for (i, (t, p)) in trace_split.iter().zip(&tap_split).enumerate() {
            let delta = (t.wireless.as_millis_f64() - p.wireless.as_millis_f64()).abs();
            assert!(
                delta <= 1.0,
                "{kind:?} query {i}: trace wireless {:.3}ms vs tap wireless {:.3}ms (delta {delta:.3}ms)",
                t.wireless.as_millis_f64(),
                p.wireless.as_millis_f64()
            );
            assert_eq!(
                t.total, p.total,
                "{kind:?} query {i}: totals must be identical"
            );
        }
    }
}

#[test]
fn telemetry_counters_narrate_the_query_path() {
    // The counter side of the tentpole: after a run, the shared store
    // tells the deployment's story — UE queries issued, the L-DNS
    // redirecting the CDN zone upstream, the C-DNS answering, and the
    // P-GW seeing every crossing.
    let cfg = TestbedConfig {
        queries: 8,
        ..TestbedConfig::default()
    };
    let mut d = Deployment::build(DeploymentKind::LanLdns, &cfg);
    let (measured, _) = d.run_measure();
    let answered = measured.iter().filter(|m| !m.outcome.timed_out).count() as u64;
    let tel = &d.telemetry;
    assert_eq!(tel.counter("stub.query"), 8, "one stub issue per dig");
    assert_eq!(tel.counter("ran.attach"), 1, "exactly one UE attached");
    // The LAN L-DNS runs a cache; with 35 s spacing over a 30 s TTL
    // every query misses and rides the stub-domain redirect upstream.
    assert_eq!(tel.counter("dns.cache.miss"), 8);
    assert_eq!(tel.counter("dns.stub_domain.redirect"), 8);
    assert_eq!(tel.counter("dns.upstream.query"), 8);
    assert_eq!(tel.counter("cdns.answered"), answered);
    assert_eq!(
        tel.with_metrics(|m| m.histogram("stub.rtt").count()),
        answered,
        "one rtt observation per answered query"
    );
}

#[test]
fn internal_vnf_names_never_leak_to_the_ue() {
    // The split-namespace guarantee over the real network path: a UE
    // querying an internal VNF name gets NXDOMAIN, while a pod inside
    // the cluster can resolve it.
    let mut net = Network::new(11);
    let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
    cluster.add_namespace("epc", Visibility::Internal);
    cluster.add_namespace("cdn", Visibility::Public);

    struct Nop;
    impl NodeBehavior for Nop {}
    let mme_pod = cluster.launch_pod(&mut net, "epc", "mme", Nop);
    cluster.create_service(&mut net, "epc", "mme", &[mme_pod]);

    let ldns_pod = cluster.launch_pod(
        &mut net,
        "kube-system",
        "coredns",
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(KubernetesPlugin::new(
                cluster.registry(),
                vec![n("cluster.local")],
                vec![
                    "10.244.0.0/16".parse().unwrap(),
                    "10.96.0.0/16".parse().unwrap(),
                ],
            ))],
        ),
    );
    let ldns_svc = cluster.create_service(&mut net, "kube-system", "coredns", &[ldns_pod]);

    // External UE-ish client.
    let outside = net.add_node(
        "ue",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        Consumer::new(
            ldns_svc.cluster_ip,
            vec![n("mme.epc.svc.cluster.local")],
            SimDuration::ZERO,
        ),
    );
    cluster.attach_external(&mut net, outside, LinkProfile::lan());

    // A pod inside the cluster asking the same name.
    let insider = cluster.launch_pod(
        &mut net,
        "cdn",
        "insider",
        Consumer::new(
            ldns_svc.cluster_ip,
            vec![n("mme.epc.svc.cluster.local")],
            SimDuration::ZERO,
        ),
    );

    net.run();
    let ue = net.behavior::<Consumer>(outside);
    assert_eq!(ue.dns.outcomes.len(), 1);
    assert_eq!(
        ue.dns.outcomes[0].rcode,
        Rcode::NxDomain,
        "internal VNF name leaked to the public view"
    );
    let pod = net.behavior::<Consumer>(insider.node);
    assert_eq!(pod.dns.outcomes.len(), 1);
    assert_eq!(pod.dns.outcomes[0].rcode, Rcode::NoError);
    assert!(!pod.dns.outcomes[0].addrs.is_empty());
}

#[test]
fn scaling_the_cdns_mid_run_does_not_change_the_resolver_address() {
    // §3: "This ensures the C-DNS availability regardless of any scaling
    // event." Queries before and after a scale-up + scale-down keep
    // working against the same ClusterIP.
    let mut net = Network::new(12);
    let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
    cluster.add_namespace("cdn", Visibility::Public);

    let cache_ip = Ipv4Addr::new(10, 96, 0, 99);
    let mk_router = || {
        TrafficRouterPlugin::new(
            n(MEC_CDN_ZONE),
            vec![n(MEC_CDN_DOMAIN)],
            vec![cache_ip],
            Selection::ConsistentHash,
        )
    };
    let tr0 = cluster.launch_pod(
        &mut net,
        "cdn",
        "tr-0",
        DnsServer::new(ServerConfig::default(), vec![Box::new(mk_router())]),
    );
    let svc = cluster.create_service(&mut net, "cdn", "trafficrouter", std::slice::from_ref(&tr0));
    let resolver = svc.cluster_ip;

    let client = net.add_node(
        "client",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        Consumer::new(resolver, vec![n(MEC_CDN_DOMAIN); 6], SimDuration::ZERO),
    );
    cluster.attach_external(&mut net, client, LinkProfile::lan());

    // At t=1.2s scale up; at t=2.2s remove the original replica.
    net.run_until(netsim::SimTime::ZERO + SimDuration::from_millis(1200));
    let tr1 = cluster.launch_pod(
        &mut net,
        "cdn",
        "tr-1",
        DnsServer::new(ServerConfig::default(), vec![Box::new(mk_router())]),
    );
    cluster.add_endpoint(&svc, &tr1);
    net.run_until(netsim::SimTime::ZERO + SimDuration::from_millis(2200));
    cluster.remove_endpoint(&svc, &tr0);
    net.run();

    let c = net.behavior::<Consumer>(client);
    assert_eq!(c.dns.outcomes.len(), 6);
    for o in &c.dns.outcomes {
        assert!(!o.timed_out, "query lost across the scaling events");
        assert_eq!(o.addrs, vec![cache_ip]);
        assert_eq!(
            o.responder,
            Some(resolver),
            "answer must come from the ClusterIP"
        );
    }
}

#[test]
fn missing_content_refers_to_the_next_cdn_tier() {
    // §3/P2: "C-DNS simply returns the address of another C-DNS running
    // at a different CDN tier" — a domain not hosted at the edge
    // resolves through the mid-tier router to a mid-tier cache, at a
    // visibly higher latency.
    let mut net = Network::new(13);
    let edge_cache = Ipv4Addr::new(10, 96, 0, 20);
    let mid_cache = Ipv4Addr::new(198, 51, 100, 20);

    let mid_router = TrafficRouterPlugin::new(
        n(MEC_CDN_ZONE),
        vec![n("other.site.mycdn.ciab.test")],
        vec![mid_cache],
        Selection::ConsistentHash,
    );
    let mid_ip: IpAddr = "198.51.100.53".parse().unwrap();
    let mid = net.add_node(
        "mid-cdns",
        [mid_ip],
        DnsServer::new(ServerConfig::default(), vec![Box::new(mid_router)]),
    );

    let edge_router = TrafficRouterPlugin::new(
        n(MEC_CDN_ZONE),
        vec![n(MEC_CDN_DOMAIN)],
        vec![edge_cache],
        Selection::ConsistentHash,
    )
    .with_fallback(mid_ip);
    let edge_ip: IpAddr = "10.96.0.53".parse().unwrap();
    let edge = net.add_node(
        "edge-cdns",
        [edge_ip],
        DnsServer::new(ServerConfig::default(), vec![Box::new(edge_router)]),
    );
    net.connect(
        edge,
        mid,
        LinkProfile::with_latency(Latency::ConstantMs(20.0)),
    );
    net.add_default_route(mid, edge);

    let client = net.add_node(
        "client",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        Consumer::new(
            edge_ip,
            vec![n(MEC_CDN_DOMAIN), n("other.site.mycdn.ciab.test")],
            SimDuration::ZERO,
        ),
    );
    net.connect(
        client,
        edge,
        LinkProfile::with_latency(Latency::ConstantMs(1.0)),
    );
    net.run();

    let c = net.behavior::<Consumer>(client);
    let hosted = c
        .dns
        .outcomes
        .iter()
        .find(|o| o.name == n(MEC_CDN_DOMAIN))
        .unwrap();
    let referred = c
        .dns
        .outcomes
        .iter()
        .find(|o| o.name == n("other.site.mycdn.ciab.test"))
        .unwrap();
    assert_eq!(hosted.addrs, vec![edge_cache]);
    assert_eq!(referred.addrs, vec![mid_cache], "mid tier must answer");
    assert!(
        referred.rtt.as_millis_f64() > hosted.rtt.as_millis_f64() + 30.0,
        "tier referral must pay the WAN round trip: {} vs {}",
        referred.rtt,
        hosted.rtt
    );
}

#[test]
fn ip_reuse_serves_many_customers_from_one_address_end_to_end() {
    // Two customer domains, one Traffic Router ClusterIP, one cache
    // ClusterIP: both resolve to the same cache and both fetch their own
    // content through it.
    let mut net = Network::new(14);
    let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
    cluster.add_namespace("cdn", Visibility::Public);

    let catalog = Catalog::new();
    catalog.add("video.customer0.mycdn.ciab.test./seg-0", 10_000);
    catalog.add("video.customer1.mycdn.ciab.test./seg-0", 20_000);
    let origin_ip: IpAddr = "198.51.100.80".parse().unwrap();
    let origin = net.add_node("origin", [origin_ip], Origin::new(catalog));

    let cache_pod = cluster.launch_pod(
        &mut net,
        "cdn",
        "cache",
        CacheServer::new("0.0.0.0".parse().unwrap(), 1 << 20, Some(origin_ip)),
    );
    let cache_svc = cluster.create_service(&mut net, "cdn", "cache", &[cache_pod]);
    let IpAddr::V4(cache_v4) = cache_svc.cluster_ip else {
        panic!("v4 expected")
    };

    let domains = [
        n("video.customer0.mycdn.ciab.test"),
        n("video.customer1.mycdn.ciab.test"),
    ];
    let router = TrafficRouterPlugin::new(
        n(MEC_CDN_ZONE),
        domains.to_vec(),
        vec![cache_v4],
        Selection::ConsistentHash,
    );
    let tr_pod = cluster.launch_pod(
        &mut net,
        "cdn",
        "tr",
        DnsServer::new(ServerConfig::default(), vec![Box::new(router)]),
    );
    let tr_svc = cluster.create_service(&mut net, "cdn", "trafficrouter", &[tr_pod]);

    let client = net.add_node(
        "client",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        Consumer::new(tr_svc.cluster_ip, domains.to_vec(), SimDuration::ZERO),
    );
    cluster.attach_external(&mut net, client, LinkProfile::lan());
    net.connect(origin, cluster.fabric(), LinkProfile::wan());
    net.add_default_route(origin, cluster.fabric());
    net.run();

    let c = net.behavior::<Consumer>(client);
    assert_eq!(c.resolved.len(), 2);
    for (_, addr) in &c.resolved {
        assert_eq!(*addr, cache_v4, "both customers share one public address");
    }
    assert_eq!(c.fetch.outcomes.len(), 2);
    let sizes: Vec<Option<u32>> = c.fetch.outcomes.iter().map(|o| o.size).collect();
    assert!(sizes.contains(&Some(10_000)));
    assert!(sizes.contains(&Some(20_000)));
}

#[test]
fn mec_dns_outage_degrades_to_the_provider_and_recovers() {
    // Resilience: S3's "end users will observe only a degradation but
    // not unavailability". A client on the fallback policy keeps
    // resolving while the MEC DNS deployment is scaled to zero, and
    // gets fast again when it returns.
    use dns_server::plugins::AuthoritativePlugin;
    use dns_server::Zone;
    use mec_cdn::fallback::P1Policy;

    struct NopB;
    impl NodeBehavior for NopB {}

    let mut net = Network::new(41);
    let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
    cluster.add_namespace("cdn", Visibility::Public);
    let make_dns = |_i: usize| {
        let mut zone = Zone::new(n(MEC_CDN_ZONE));
        zone.add_a(n(MEC_CDN_DOMAIN), Ipv4Addr::new(10, 96, 0, 20), 0);
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
        )
    };
    let mut deployment = cluster.create_deployment(&mut net, "cdn", "mecdns", 1, make_dns);
    let svc = cluster.create_service(&mut net, "cdn", "dns", &deployment.pods);

    // Provider L-DNS, farther away, also authoritative for the zone.
    let mut zone = Zone::new(n(MEC_CDN_ZONE));
    zone.add_a(n(MEC_CDN_DOMAIN), Ipv4Addr::new(10, 96, 0, 20), 0);
    let provider_ip: IpAddr = "10.44.9.1".parse().unwrap();
    let provider = net.add_node(
        "provider",
        [provider_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
        ),
    );
    let gw = net.add_node("gw", ["10.44.0.9".parse::<IpAddr>().unwrap()], NopB);
    cluster.attach_external(
        &mut net,
        gw,
        LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6)),
    );
    net.connect(
        gw,
        provider,
        LinkProfile::with_latency(Latency::UniformMs(10.0, 14.0)),
    );
    net.add_default_route(provider, gw);

    // Client queries every 200 ms for 12 s with an 80 ms fallback.
    struct FallbackClient {
        strategy: SendStrategy,
        engine: StubEngine,
        count: usize,
    }
    impl NodeBehavior for FallbackClient {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(200 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
            if StubEngine::owns_timer(data) {
                self.engine.on_timer(ctx, data);
                return;
            }
            self.engine.issue(
                ctx,
                n(MEC_CDN_DOMAIN),
                RrType::A,
                self.strategy.clone(),
                None,
                data,
            );
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.engine.on_datagram(ctx, &dgram);
        }
    }
    let strategy =
        P1Policy::FallbackAfter(SimDuration::from_millis(80)).strategy(svc.cluster_ip, provider_ip);
    let client = net.add_node(
        "client",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        FallbackClient {
            strategy,
            engine: StubEngine::new(),
            count: 60,
        },
    );
    net.connect(
        client,
        gw,
        LinkProfile::with_latency(Latency::UniformMs(1.0, 2.0)),
    );
    net.add_default_route(client, gw);

    // Outage window: scale to 0 at t=4 s, back to 1 at t=8 s.
    net.run_until(netsim::SimTime::ZERO + SimDuration::from_secs(4));
    cluster.scale_deployment(&mut net, &mut deployment, &svc, 0, make_dns);
    net.run_until(netsim::SimTime::ZERO + SimDuration::from_secs(8));
    cluster.scale_deployment(&mut net, &mut deployment, &svc, 1, make_dns);
    net.run();

    let outcomes = &net.behavior::<FallbackClient>(client).engine.outcomes;
    assert_eq!(outcomes.len(), 60);
    let answered = outcomes.iter().filter(|o| !o.timed_out).count();
    assert_eq!(answered, 60, "degradation, never unavailability");
    // During the outage the fallback path answers (slower); outside it
    // the MEC path does (fast, no fallback flag).
    let during: Vec<_> = outcomes
        .iter()
        .filter(|o| (21..=39).contains(&o.tag))
        .collect();
    assert!(
        during.iter().all(|o| o.used_fallback),
        "outage queries must ride the provider"
    );
    let before: Vec<_> = outcomes.iter().filter(|o| o.tag < 15).collect();
    assert!(before.iter().all(|o| !o.used_fallback));
    let after: Vec<_> = outcomes.iter().filter(|o| o.tag > 45).collect();
    assert!(
        after.iter().all(|o| !o.used_fallback),
        "service must return to the MEC path after recovery"
    );
    let mean = |set: &[&dns_server::QueryOutcome]| {
        set.iter().map(|o| o.rtt.as_millis_f64()).sum::<f64>() / set.len() as f64
    };
    assert!(
        mean(&during) > mean(&before) + 50.0,
        "outage must cost the timeout"
    );
}

#[test]
fn hidden_resolver_breaks_ecs_localization() {
    // §1: ECS "is shown to be susceptible to problems related to hidden
    // resolvers". A geo-selecting C-DNS serves two sites; the client
    // (site 1) sends ECS, but its query passes through a forwarder
    // located at site 0. With the ECS propagated the client gets its
    // local cache; with a hidden resolver stripping ECS, the C-DNS
    // geo-locates the *forwarder* and hands out the wrong site's cache.
    use cdn_sim::GeoDb;
    use dns_wire::ClientSubnet;
    use std::collections::HashMap;

    fn run(strip_ecs: bool) -> Ipv4Addr {
        let mut net = Network::new(31);
        let mut db = GeoDb::new(2, 0.0);
        db.map("198.51.100.0/24".parse().unwrap(), 0); // forwarder's range
        db.map("203.0.113.0/24".parse().unwrap(), 1); // client's range
        let mut cache_sites = HashMap::new();
        let site0_cache = Ipv4Addr::new(10, 0, 0, 10);
        let site1_cache = Ipv4Addr::new(10, 0, 1, 10);
        cache_sites.insert(IpAddr::V4(site0_cache), 0);
        cache_sites.insert(IpAddr::V4(site1_cache), 1);
        let router = TrafficRouterPlugin::new(
            n(MEC_CDN_ZONE),
            vec![n(MEC_CDN_DOMAIN)],
            vec![site0_cache, site1_cache],
            Selection::Geo { db, cache_sites },
        );
        let cdns_ip: IpAddr = "192.0.2.53".parse().unwrap();
        let cdns = net.add_node(
            "cdns",
            [cdns_ip],
            DnsServer::new(ServerConfig::default(), vec![Box::new(router)]),
        );
        let fwd_ip: IpAddr = "198.51.100.7".parse().unwrap();
        let forwarder = net.add_node(
            "forwarder",
            [fwd_ip],
            DnsServer::new(
                ServerConfig {
                    strip_ecs,
                    ..ServerConfig::default()
                },
                vec![Box::new(dns_server::plugins::ForwardPlugin::new(cdns_ip))],
            ),
        );
        let client_ip: IpAddr = "203.0.113.9".parse().unwrap();
        let ecs = ClientSubnet::query(client_ip, 24);
        struct EcsClient {
            resolver: IpAddr,
            ecs: ClientSubnet,
            engine: StubEngine,
        }
        impl NodeBehavior for EcsClient {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                self.engine.issue(
                    ctx,
                    n(MEC_CDN_DOMAIN),
                    RrType::A,
                    SendStrategy::Unicast(self.resolver),
                    Some(self.ecs),
                    0,
                );
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
                if StubEngine::owns_timer(data) {
                    self.engine.on_timer(ctx, data);
                }
            }
            fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
                self.engine.on_datagram(ctx, &dgram);
            }
        }
        let client = net.add_node(
            "client",
            [client_ip],
            EcsClient {
                resolver: fwd_ip,
                ecs,
                engine: StubEngine::new(),
            },
        );
        net.connect(client, forwarder, LinkProfile::lan());
        net.connect(forwarder, cdns, LinkProfile::lan());
        net.add_default_route(cdns, forwarder);
        net.run();
        let outcomes = &net.behavior::<EcsClient>(client).engine.outcomes;
        assert_eq!(outcomes.len(), 1);
        outcomes[0].addrs[0]
    }

    let with_ecs = run(false);
    let hidden = run(true);
    assert_eq!(
        with_ecs,
        Ipv4Addr::new(10, 0, 1, 10),
        "propagated ECS must localize the client to its own site"
    );
    assert_eq!(
        hidden,
        Ipv4Addr::new(10, 0, 0, 10),
        "a hidden resolver must mislocate the client to the forwarder's site"
    );
}

#[test]
fn p1_fallback_degrades_but_never_fails_over_the_ran() {
    // The fallback policy on the real RAN path: MEC names fast, foreign
    // names via the provider after the timeout, nothing unanswered.
    use dns_server::plugins::{AuthoritativePlugin, ScopePlugin};
    use dns_server::Zone;

    let mut net = Network::new(15);
    let mut ran = ran_sim::Ran::build(&mut net, ran_sim::EpcConfig::default());
    ran.add_enb(&mut net);

    let mut mec_zone = Zone::new(n(MEC_CDN_ZONE));
    mec_zone.add_a(n(MEC_CDN_DOMAIN), Ipv4Addr::new(10, 96, 0, 20), 0);
    let mec_ip: IpAddr = "10.50.0.10".parse().unwrap();
    let mec = net.add_node(
        "mec-dns",
        [mec_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![
                Box::new(ScopePlugin::new(vec![n(MEC_CDN_ZONE)])),
                Box::new(AuthoritativePlugin::new(vec![mec_zone])),
            ],
        ),
    );
    net.connect(
        ran.epc.pgw,
        mec,
        LinkProfile::with_latency(Latency::UniformMs(0.3, 0.6)),
    );
    net.add_default_route(mec, ran.epc.pgw);

    let mut provider_zone = Zone::new(n("example.com"));
    provider_zone.add_a(n("www.example.com"), Ipv4Addr::new(93, 184, 216, 34), 0);
    let provider_ip: IpAddr = "10.44.9.1".parse().unwrap();
    let provider = net.add_node(
        "provider",
        [provider_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![provider_zone]))],
        ),
    );
    net.connect(
        ran.epc.pgw,
        provider,
        LinkProfile::with_latency(Latency::UniformMs(4.0, 6.0)),
    );
    net.add_default_route(provider, ran.epc.pgw);

    struct FallbackUe {
        engine: StubEngine,
        mec: IpAddr,
        provider: IpAddr,
    }
    impl NodeBehavior for FallbackUe {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            ctx.set_timer(SimDuration::from_millis(200), 0);
            ctx.set_timer(SimDuration::from_millis(400), 1);
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
            if StubEngine::owns_timer(data) {
                self.engine.on_timer(ctx, data);
                return;
            }
            let name = if data == 0 {
                n(MEC_CDN_DOMAIN)
            } else {
                n("www.example.com")
            };
            let strategy = mec_cdn::fallback::P1Policy::FallbackAfter(SimDuration::from_millis(80))
                .strategy(self.mec, self.provider);
            self.engine
                .issue(ctx, name, RrType::A, strategy, None, data);
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.engine.on_datagram(ctx, &dgram);
        }
    }
    let ue = ran.attach_ue(
        &mut net,
        "ue",
        FallbackUe {
            engine: StubEngine::new(),
            mec: mec_ip,
            provider: provider_ip,
        },
        0,
        ran_sim::RadioProfile::Lte,
    );
    net.run();

    let outcomes = &net.behavior::<FallbackUe>(ue.node).engine.outcomes;
    assert_eq!(outcomes.len(), 2);
    let mec_q = outcomes.iter().find(|o| o.tag == 0).unwrap();
    let other_q = outcomes.iter().find(|o| o.tag == 1).unwrap();
    assert!(!mec_q.used_fallback);
    assert_eq!(mec_q.addrs, vec![Ipv4Addr::new(10, 96, 0, 20)]);
    assert!(other_q.used_fallback, "non-MEC name must ride the fallback");
    assert_eq!(other_q.addrs, vec![Ipv4Addr::new(93, 184, 216, 34)]);
    assert!(
        other_q.rtt.as_millis_f64() > mec_q.rtt.as_millis_f64(),
        "fallback pays the timeout"
    );
}
