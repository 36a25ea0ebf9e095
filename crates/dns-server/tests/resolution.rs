//! End-to-end resolution tests over the simulator: stub → resolver →
//! (root → TLD → authoritative), CNAME chasing, caching, stub domains,
//! split-horizon kubernetes plugin, multicast and fallback strategies,
//! timeouts on lossy links, and ECS propagation.

use dns_server::plugins::{
    AuthoritativePlugin, CachePlugin, ForwardPlugin, KubernetesPlugin, RecursePlugin, ScopePlugin,
    StubDomainPlugin,
};
use dns_server::{
    DnsServer, Plugin, PluginDecision, QueryCtx, QueryOutcome, SendStrategy, ServerConfig,
    StubEngine, Zone,
};
use dns_wire::{ClientSubnet, Message, Name, Rcode, RrType};
use mec_orch::{ServiceRegistry, Visibility};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, NodeId, SimDuration,
    SimTime, TimerToken,
};
use std::net::{IpAddr, Ipv4Addr};

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// Instant processing so tests assert on pure topology latency.
fn fast_config() -> ServerConfig {
    ServerConfig {
        processing: Latency::ConstantMs(0.1),
        ecs_processing: Latency::ConstantMs(0.05),
        ..ServerConfig::default()
    }
}

/// A client that issues a fixed list of queries at 100 ms intervals.
struct Client {
    engine: StubEngine,
    queries: Vec<(Name, SendStrategy, Option<ClientSubnet>)>,
}

impl Client {
    fn new(queries: Vec<(Name, SendStrategy, Option<ClientSubnet>)>) -> Self {
        Client {
            engine: StubEngine::new(),
            queries,
        }
    }
}

impl NodeBehavior for Client {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.queries.len() {
            ctx.set_timer(SimDuration::from_millis(100 * i as u64), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if StubEngine::owns_timer(data) {
            self.engine.on_timer(ctx, data);
            return;
        }
        let (name, strategy, ecs) = self.queries[data as usize].clone();
        self.engine
            .issue(ctx, name, RrType::A, strategy, ecs, data);
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        self.engine.on_datagram(ctx, &dgram);
    }
}

fn outcomes(net: &Network, client: NodeId) -> &[QueryOutcome] {
    &net.behavior::<Client>(client).engine.outcomes
}

/// Builds the classic hierarchy of Figure 1: client → L-DNS (recursive)
/// with root, TLD and CDN authoritative servers behind it.
struct Hierarchy {
    net: Network,
    client: NodeId,
    ldns: NodeId,
}

fn build_hierarchy(queries: Vec<(Name, SendStrategy, Option<ClientSubnet>)>) -> Hierarchy {
    let mut net = Network::new(42);

    // Authoritative data: root delegates "test", "test" delegates
    // "mycdn.ciab.test" whose zone CNAMEs video → cache-1 (two A records).
    let mut root_zone = Zone::new(Name::root());
    root_zone.delegate(n("test"), n("ns.test"), Ipv4Addr::new(10, 50, 0, 2), 86400);
    let mut tld_zone = Zone::new(n("test"));
    tld_zone.delegate(
        n("mycdn.ciab.test"),
        n("ns1.mycdn.ciab.test"),
        Ipv4Addr::new(10, 50, 0, 3),
        3600,
    );
    let mut cdn_zone = Zone::new(n("mycdn.ciab.test"));
    cdn_zone
        .add_cname(n("video.demo1.mycdn.ciab.test"), n("cache-1.mycdn.ciab.test"), 60)
        .add_a(n("cache-1.mycdn.ciab.test"), Ipv4Addr::new(10, 60, 0, 11), 30);

    let root = net.add_node(
        "root",
        [ip("10.50.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![root_zone]))]),
    );
    let tld = net.add_node(
        "tld",
        [ip("10.50.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![tld_zone]))]),
    );
    let adns = net.add_node(
        "adns",
        [ip("10.50.0.3")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![cdn_zone]))]),
    );
    let ldns = net.add_node(
        "ldns",
        [ip("10.40.0.1")],
        DnsServer::new(
            fast_config(),
            vec![
                Box::new(CachePlugin::new(1024)),
                Box::new(RecursePlugin::new(vec![ip("10.50.0.1")])),
            ],
        ),
    );
    let client = net.add_node("client", [ip("192.168.1.10")], Client::new(queries));

    // Star topology around the L-DNS; authoritative servers 5 ms away,
    // client 2 ms away.
    for (node, ms) in [(root, 5.0), (tld, 5.0), (adns, 5.0)] {
        net.connect(ldns, node, LinkProfile::with_latency(Latency::ConstantMs(ms)));
        net.add_default_route(node, ldns);
    }
    net.connect(client, ldns, LinkProfile::with_latency(Latency::ConstantMs(2.0)));
    net.add_default_route(client, ldns);

    Hierarchy { net, client, ldns }
}

#[test]
fn full_iterative_resolution_with_cname_chase() {
    let mut h = build_hierarchy(vec![(
        n("video.demo1.mycdn.ciab.test"),
        SendStrategy::Unicast(ip("10.40.0.1")),
        None,
    )]);
    h.net.run();
    let out = outcomes(&h.net, h.client);
    assert_eq!(out.len(), 1);
    let o = &out[0];
    assert_eq!(o.rcode, Rcode::NoError);
    assert_eq!(o.addrs, vec![Ipv4Addr::new(10, 60, 0, 11)]);
    assert_eq!(o.cnames, vec![n("cache-1.mycdn.ciab.test")]);
    assert!(!o.timed_out);
    // Cold lookup walks client→L-DNS + L-DNS→{root,tld,adns} and back:
    // 2+2 + 3×(5+5) = 34 ms of links plus processing.
    assert!(o.rtt.as_millis_f64() > 34.0, "rtt {} too small", o.rtt);
    assert!(o.rtt.as_millis_f64() < 40.0, "rtt {} too large", o.rtt);
}

#[test]
fn second_lookup_hits_the_ldns_cache() {
    let mut h = build_hierarchy(vec![
        (
            n("video.demo1.mycdn.ciab.test"),
            SendStrategy::Unicast(ip("10.40.0.1")),
            None,
        ),
        (
            n("video.demo1.mycdn.ciab.test"),
            SendStrategy::Unicast(ip("10.40.0.1")),
            None,
        ),
    ]);
    h.net.run();
    let out = outcomes(&h.net, h.client).to_vec();
    assert_eq!(out.len(), 2);
    // The cached lookup needs only the client↔L-DNS round trip (~4.1 ms),
    // an order of magnitude below the cold one.
    assert!(out[1].rtt.as_millis_f64() < 6.0, "cache miss? rtt {}", out[1].rtt);
    assert!(out[0].rtt.as_millis_f64() > 30.0);
    let ldns = h.net.behavior::<DnsServer>(h.ldns);
    let cache: &CachePlugin = ldns.plugin(0).expect("cache plugin");
    assert_eq!(cache.hits(), 1);
    // Both answers identical.
    assert_eq!(out[0].addrs, out[1].addrs);
}

#[test]
fn nxdomain_propagates_and_is_negatively_cached() {
    let mut h = build_hierarchy(vec![
        (
            n("missing.mycdn.ciab.test"),
            SendStrategy::Unicast(ip("10.40.0.1")),
            None,
        ),
        (
            n("missing.mycdn.ciab.test"),
            SendStrategy::Unicast(ip("10.40.0.1")),
            None,
        ),
    ]);
    h.net.run();
    let out = outcomes(&h.net, h.client);
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].rcode, Rcode::NxDomain);
    assert_eq!(out[1].rcode, Rcode::NxDomain);
    assert!(out[1].rtt < out[0].rtt, "negative cache not used");
}

#[test]
fn multicast_takes_the_fastest_resolver() {
    // Two resolvers serving the same zone; one near, one far.
    let mut net = Network::new(7);
    let mut zone = Zone::new(n("mycdn.ciab.test"));
    zone.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(1, 1, 1, 1), 60);
    let near = net.add_node(
        "near",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone.clone()]))]),
    );
    let far = net.add_node(
        "far",
        [ip("10.0.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![(
            n("video.mycdn.ciab.test"),
            SendStrategy::Multicast(vec![ip("10.0.0.1"), ip("10.0.0.2")]),
            None,
        )]),
    );
    net.connect(client, near, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(client, far, LinkProfile::with_latency(Latency::ConstantMs(30.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1, "late duplicate answer must not double-complete");
    assert_eq!(out[0].responder, Some(ip("10.0.0.1")));
    assert!(out[0].rtt.as_millis_f64() < 5.0);
}

#[test]
fn fallback_engages_when_primary_is_dead() {
    let mut net = Network::new(8);
    let mut zone = Zone::new(n("example.com"));
    zone.add_a(n("www.example.com"), Ipv4Addr::new(9, 9, 9, 9), 60);
    // Primary exists but the link to it loses everything.
    let primary = net.add_node(
        "primary",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone.clone()]))]),
    );
    let fallback = net.add_node(
        "fallback",
        [ip("10.0.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![(
            n("www.example.com"),
            SendStrategy::FallbackOnTimeout {
                primary: ip("10.0.0.1"),
                fallback: ip("10.0.0.2"),
                timeout: SimDuration::from_millis(50),
            },
            None,
        )]),
    );
    net.connect(
        client,
        primary,
        LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_loss(1.0),
    );
    net.connect(client, fallback, LinkProfile::with_latency(Latency::ConstantMs(5.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(out[0].used_fallback);
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(9, 9, 9, 9)]);
    // 50 ms fallback trigger + 10 ms fallback round trip.
    assert!(out[0].rtt.as_millis_f64() >= 60.0);
    assert!(out[0].rtt.as_millis_f64() < 70.0);
}

#[test]
fn fallback_not_used_when_primary_answers() {
    let mut net = Network::new(9);
    let mut zone = Zone::new(n("example.com"));
    zone.add_a(n("www.example.com"), Ipv4Addr::new(9, 9, 9, 9), 60);
    let primary = net.add_node(
        "primary",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone.clone()]))]),
    );
    let fallback = net.add_node(
        "fallback",
        [ip("10.0.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![(
            n("www.example.com"),
            SendStrategy::FallbackOnTimeout {
                primary: ip("10.0.0.1"),
                fallback: ip("10.0.0.2"),
                timeout: SimDuration::from_millis(50),
            },
            None,
        )]),
    );
    net.connect(client, primary, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(client, fallback, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(!out[0].used_fallback);
    let fb = net.behavior::<DnsServer>(fallback);
    assert_eq!(fb.queries_received, 0, "fallback should never be asked");
}

/// Answers every query SERVFAIL: an affirmative "cannot resolve".
struct AlwaysServFail;

impl Plugin for AlwaysServFail {
    fn name(&self) -> &'static str {
        "servfail"
    }
    fn on_query(&mut self, _ctx: &QueryCtx, query: &Message) -> PluginDecision {
        PluginDecision::Respond(Message::response_to(query).with_rcode(Rcode::ServFail))
    }
}

#[test]
fn a_servfail_engaged_fallback_outlives_the_primarys_timer() {
    // The primary refuses at once, which engages the fallback; the timer
    // the primary's leg armed (500 ms) then fires while the fallback's
    // answer (800 ms round trip) is still on its way. That timer belongs
    // to the primary's leg and must not expire the fallback's.
    let mut net = Network::new(44);
    let mut zone = Zone::new(n("example.com"));
    zone.add_a(n("www.example.com"), Ipv4Addr::new(9, 9, 9, 9), 60);
    let primary = net.add_node(
        "primary",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AlwaysServFail)]),
    );
    let fallback = net.add_node(
        "fallback",
        [ip("10.0.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let mut client_b = Client::new(vec![(
        n("www.example.com"),
        SendStrategy::FallbackOnTimeout {
            primary: ip("10.0.0.1"),
            fallback: ip("10.0.0.2"),
            timeout: SimDuration::from_millis(500),
        },
        None,
    )]);
    client_b.engine.retries = 0;
    let client = net.add_node("client", [ip("192.168.1.10")], client_b);
    net.connect(client, primary, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(client, fallback, LinkProfile::with_latency(Latency::ConstantMs(400.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(!out[0].timed_out, "abandoned at {}", out[0].rtt);
    assert_eq!(out[0].rcode, Rcode::NoError);
    assert!(out[0].used_fallback);
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(9, 9, 9, 9)]);
    // The primary's SERVFAIL (~2 ms), then the fallback round trip.
    let rtt = out[0].rtt.as_millis_f64();
    assert!((802.0..805.0).contains(&rtt), "rtt {rtt}");
}

/// A raw client: sends one query at start and keeps every reply with its
/// arrival time.
struct Probe {
    server: IpAddr,
    query: Message,
    replies: Vec<(SimTime, Message)>,
}

impl NodeBehavior for Probe {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        ctx.send(self.server, 53, self.query.encode().unwrap());
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        if let Ok(m) = Message::decode(&dgram.payload) {
            self.replies.push((ctx.now(), m));
        }
    }
}

#[test]
fn a_slow_hop_is_not_timed_out_by_the_previous_hops_timer() {
    // Root, TLD and A-DNS are each 750 ms from the L-DNS: every hop
    // answers within the 2 s upstream timeout, but each hop's timer is
    // still pending when the next hop starts. Those timers belong to
    // attempts that already ended and must not count against the live one.
    let mut net = Network::new(43);
    let mut root_zone = Zone::new(Name::root());
    root_zone.delegate(n("test"), n("ns.test"), Ipv4Addr::new(10, 50, 0, 2), 86400);
    let mut tld_zone = Zone::new(n("test"));
    tld_zone.delegate(
        n("mycdn.ciab.test"),
        n("ns1.mycdn.ciab.test"),
        Ipv4Addr::new(10, 50, 0, 3),
        3600,
    );
    let mut cdn_zone = Zone::new(n("mycdn.ciab.test"));
    cdn_zone.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(10, 60, 0, 11), 30);
    let ldns = net.add_node(
        "ldns",
        [ip("10.40.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(RecursePlugin::new(vec![ip("10.50.0.1")]))]),
    );
    for (name, addr, zone) in [
        ("root", "10.50.0.1", root_zone),
        ("tld", "10.50.0.2", tld_zone),
        ("adns", "10.50.0.3", cdn_zone),
    ] {
        let node = net.add_node(
            name,
            [ip(addr)],
            DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
        );
        net.connect(ldns, node, LinkProfile::with_latency(Latency::ConstantMs(750.0)));
    }
    let probe = net.add_node(
        "probe",
        [ip("192.168.1.10")],
        Probe {
            server: ip("10.40.0.1"),
            query: Message::query(7, n("video.mycdn.ciab.test"), RrType::A),
            replies: Vec::new(),
        },
    );
    net.connect(probe, ldns, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.run();
    let replies = &net.behavior::<Probe>(probe).replies;
    assert_eq!(replies.len(), 1);
    let (at, reply) = &replies[0];
    assert_eq!(reply.header.rcode, Rcode::NoError);
    assert_eq!(reply.answer_a_addrs(), vec![Ipv4Addr::new(10, 60, 0, 11)]);
    // Three 1.5 s hops, the probe's 2 ms round trip and processing.
    let ms = at.as_millis_f64();
    assert!((4500.0..4505.0).contains(&ms), "answered at {ms} ms");
    assert_eq!(net.behavior::<DnsServer>(ldns).upstream_timeouts, 0);
}

/// The federated-anycast world the two `CloudOnServfail` tests share:
/// client → gateway → two MEC sites (each authoritative for the CDN
/// zone with a site-local answer) plus a cloud resolver for everything
/// else. Returns `(net, client, cloud_node)`.
fn build_anycast_world(
    queries: Vec<(Name, SendStrategy, Option<ClientSubnet>)>,
) -> (Network, netsim::AnycastCatchment, NodeId, NodeId) {
    use netsim::{AnycastCatchment, AnycastGateway, Cidr};
    let anycast = ip("198.18.0.53");
    let site_addrs = [ip("10.100.0.10"), ip("10.101.0.10")];
    let catchment = AnycastCatchment::new(anycast, site_addrs)
        .with_withdraw_delay(SimDuration::from_millis(100));
    catchment.set_preference(Cidr::v4_default(), vec![0, 1]);

    let mut net = Network::new(77);
    let site_zone = |a: Ipv4Addr| {
        let mut z = Zone::new(n("mycdn.ciab.test"));
        z.add_a(n("video.demo1.mycdn.ciab.test"), a, 30);
        z
    };
    let s0 = net.add_node(
        "site0",
        [site_addrs[0]],
        DnsServer::new(
            fast_config(),
            vec![Box::new(AuthoritativePlugin::new(vec![site_zone(Ipv4Addr::new(10, 100, 0, 20))]))],
        ),
    );
    let s1 = net.add_node(
        "site1",
        [site_addrs[1]],
        DnsServer::new(
            fast_config(),
            vec![Box::new(AuthoritativePlugin::new(vec![site_zone(Ipv4Addr::new(10, 101, 0, 20))]))],
        ),
    );
    let mut cloud_zone = Zone::new(n("example.test"));
    cloud_zone.add_a(n("www.example.test"), Ipv4Addr::new(9, 9, 9, 9), 60);
    let cloud = net.add_node(
        "cloud",
        [ip("10.44.9.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![cloud_zone]))]),
    );
    let gw = net.add_node("agg-gw", [ip("10.99.0.1")], AnycastGateway::new(catchment.clone()));
    let mut client_b = Client::new(queries);
    client_b.engine.query_timeout = SimDuration::from_millis(150);
    client_b.engine.retries = 3;
    let client = net.add_node("client", [ip("192.168.1.10")], client_b);

    let fast = LinkProfile::with_latency(Latency::ConstantMs(1.0));
    net.connect(client, gw, fast.clone());
    net.connect(gw, s0, fast.clone());
    net.connect(gw, s1, fast.clone());
    net.connect(gw, cloud, fast);
    for node in [client, s0, s1, cloud] {
        net.add_default_route(node, gw);
    }
    (net, catchment, client, cloud)
}

#[test]
fn cloud_on_servfail_rides_out_a_site_blackhole_by_reconverging() {
    // "My site died": the preferred catchment site crashes while still
    // advertised. The stub must keep retransmitting to the *anycast*
    // address — not flee to the cloud — and win once routing converges
    // to the surviving site.
    let strategy = SendStrategy::CloudOnServfail {
        anycast: ip("198.18.0.53"),
        cloud: ip("10.44.9.1"),
    };
    let (mut net, catchment, client, cloud) =
        build_anycast_world(vec![(n("video.demo1.mycdn.ciab.test"), strategy, None)]);
    let s0 = net.node_by_addr(ip("10.100.0.10")).unwrap();
    // Crash + withdraw announced at t=0, sequenced before the client's
    // first query; the withdrawal converges at 100 ms. The query at
    // t=0 blackholes at the dead-but-advertised site 0; its retry at
    // 150 ms lands after convergence and reconverges to site 1.
    net.schedule_call(SimDuration::from_millis(0), move |net| {
        net.set_node_up(s0, false);
    });
    let c = catchment.clone();
    net.schedule_call(SimDuration::from_millis(0), move |net| c.withdraw(net, 0));
    net.run();

    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(!out[0].timed_out);
    assert!(!out[0].used_fallback, "cloud must not be engaged on silence");
    assert_eq!(out[0].responder, Some(ip("198.18.0.53")), "answer appears from anycast");
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(10, 101, 0, 20)], "served by site 1");
    // Issued at 0 ms, retried at 150 ms, answered ~5 ms later: the
    // penalty is one timeout + reconvergence, never a cloud trip.
    assert!(out[0].rtt.as_millis_f64() >= 150.0, "rtt {:?}", out[0].rtt);
    assert!(out[0].rtt.as_millis_f64() < 200.0, "rtt {:?}", out[0].rtt);
    assert_eq!(net.behavior::<DnsServer>(cloud).queries_received, 0);
    assert_eq!(catchment.convergences(), 1);
}

#[test]
fn cloud_on_servfail_leaves_the_edge_only_on_refusal() {
    // "Resolution failed": the healthy catchment site answers SERVFAIL
    // for a non-federation name. That is an affirmative refusal — go to
    // the cloud immediately, without waiting out any timer.
    let strategy = SendStrategy::CloudOnServfail {
        anycast: ip("198.18.0.53"),
        cloud: ip("10.44.9.1"),
    };
    let (mut net, _catchment, client, cloud) =
        build_anycast_world(vec![(n("www.example.test"), strategy, None)]);
    net.run();

    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(out[0].used_fallback, "the cloud supplied the answer");
    assert_eq!(out[0].responder, Some(ip("10.44.9.1")));
    assert_eq!(out[0].rcode, Rcode::NoError);
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(9, 9, 9, 9)]);
    // Site refusal (~4 ms) + cloud round trip (~4 ms): far below the
    // 150 ms timer — refusal must not wait for silence handling.
    assert!(out[0].rtt.as_millis_f64() < 20.0, "rtt {:?}", out[0].rtt);
    assert_eq!(net.behavior::<DnsServer>(cloud).queries_received, 1);
}

#[test]
fn total_timeout_yields_servfail_outcome() {
    let mut net = Network::new(10);
    let dead = net.add_node(
        "dead",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![]),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![(
            n("www.example.com"),
            SendStrategy::Unicast(ip("10.0.0.1")),
            None,
        )]),
    );
    net.connect(
        client,
        dead,
        LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_loss(1.0),
    );
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert!(out[0].timed_out);
    assert_eq!(out[0].rcode, Rcode::ServFail);
    // 1 retry → two 3-second windows.
    assert!(out[0].rtt.as_millis_f64() >= 6000.0);
}

#[test]
fn stub_domain_redirects_cdn_zone_to_cdns() {
    // The paper's prototype wiring: CoreDNS-style L-DNS serving the
    // cluster registry, with the CDN zone stubbed to the C-DNS, and
    // everything else ignored (ScopePlugin).
    let mut net = Network::new(11);
    let registry = ServiceRegistry::new();
    registry.upsert("ldns.mec.svc.cluster.local", ip("10.96.0.1"), Visibility::Internal);
    let mut cdn_zone = Zone::new(n("mycdn.ciab.test"));
    cdn_zone.add_a(n("video.demo1.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 20), 30);
    let cdns = net.add_node(
        "cdns",
        [ip("10.96.0.9")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![cdn_zone]))]),
    );
    let ldns = net.add_node(
        "ldns",
        [ip("10.96.0.10")],
        DnsServer::new(
            fast_config(),
            vec![
                Box::new(KubernetesPlugin::new(
                    registry,
                    vec![n("cluster.local")],
                    vec!["10.96.0.0/16".parse().unwrap()],
                )),
                Box::new(StubDomainPlugin::new(vec![(
                    n("mycdn.ciab.test"),
                    ip("10.96.0.9"),
                )])),
                Box::new(ScopePlugin::new(vec![
                    n("cluster.local"),
                    n("mycdn.ciab.test"),
                ])),
            ],
        ),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![
            (
                n("video.demo1.mycdn.ciab.test"),
                SendStrategy::Unicast(ip("10.96.0.10")),
                None,
            ),
            (
                n("www.google.com"), // outside MEC scope → ignored → timeout
                SendStrategy::Unicast(ip("10.96.0.10")),
                None,
            ),
        ]),
    );
    net.connect(client, ldns, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(ldns, cdns, LinkProfile::with_latency(Latency::ConstantMs(0.2)));
    net.add_default_route(cdns, ldns);
    net.run();
    let out = outcomes(&net, client).to_vec();
    assert_eq!(out.len(), 2);
    let video = out.iter().find(|o| o.name == n("video.demo1.mycdn.ciab.test")).unwrap();
    assert_eq!(video.addrs, vec![Ipv4Addr::new(10, 96, 0, 20)]);
    let google = out.iter().find(|o| o.name == n("www.google.com")).unwrap();
    assert!(google.timed_out, "non-MEC query must be ignored by the MEC DNS");
    let server = net.behavior::<DnsServer>(ldns);
    assert_eq!(server.queries_ignored, 2, "initial + retry both ignored");
}

#[test]
fn forward_plugin_relays_and_caches() {
    let mut net = Network::new(12);
    let mut zone = Zone::new(n("example.com"));
    zone.add_a(n("www.example.com"), Ipv4Addr::new(3, 3, 3, 3), 300);
    let upstream = net.add_node(
        "upstream",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let forwarder = net.add_node(
        "forwarder",
        [ip("10.0.0.2")],
        DnsServer::new(
            fast_config(),
            vec![
                Box::new(CachePlugin::new(64)),
                Box::new(ForwardPlugin::new(ip("10.0.0.1"))),
            ],
        ),
    );
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![
            (n("www.example.com"), SendStrategy::Unicast(ip("10.0.0.2")), None),
            (n("www.example.com"), SendStrategy::Unicast(ip("10.0.0.2")), None),
        ]),
    );
    net.connect(client, forwarder, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(forwarder, upstream, LinkProfile::with_latency(Latency::ConstantMs(20.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(3, 3, 3, 3)]);
    assert_eq!(out[1].addrs, out[0].addrs);
    assert!(out[0].rtt.as_millis_f64() > 40.0);
    assert!(out[1].rtt.as_millis_f64() < 5.0, "second hit must come from cache");
    let up = net.behavior::<DnsServer>(upstream);
    assert_eq!(up.queries_received, 1);
}

#[test]
fn ecs_option_travels_up_and_back() {
    // Client attaches ECS; forwarder propagates it; both directions echo.
    let mut net = Network::new(13);
    let mut zone = Zone::new(n("example.com"));
    zone.add_a(n("www.example.com"), Ipv4Addr::new(3, 3, 3, 3), 300);
    let upstream = net.add_node(
        "upstream",
        [ip("10.0.0.1")],
        DnsServer::new(fast_config(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
    );
    let forwarder = net.add_node(
        "forwarder",
        [ip("10.0.0.2")],
        DnsServer::new(fast_config(), vec![Box::new(ForwardPlugin::new(ip("10.0.0.1")))]),
    );
    let ecs = ClientSubnet::query(ip("192.168.1.0"), 24);
    let client = net.add_node(
        "client",
        [ip("192.168.1.10")],
        Client::new(vec![(
            n("www.example.com"),
            SendStrategy::Unicast(ip("10.0.0.2")),
            Some(ecs),
        )]),
    );
    net.connect(client, forwarder, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
    net.connect(forwarder, upstream, LinkProfile::with_latency(Latency::ConstantMs(5.0)));
    net.run();
    let out = outcomes(&net, client);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].addrs, vec![Ipv4Addr::new(3, 3, 3, 3)]);
    assert_eq!(out[0].ecs_scope, Some(0), "ECS must be echoed in the response");
}

#[test]
fn single_worker_server_queues_concurrent_queries() {
    // A burst of 10 simultaneous queries at a single-worker server with
    // 1 ms processing: the k-th answer arrives ~k ms after the first —
    // load becomes queueing delay. A parallel server answers them all
    // at once.
    fn run(single_worker: bool) -> Vec<f64> {
        let mut net = Network::new(21);
        let mut zone = Zone::new(n("example.com"));
        zone.add_a(n("www.example.com"), Ipv4Addr::new(9, 9, 9, 9), 60);
        let cfg = ServerConfig {
            processing: Latency::ConstantMs(1.0),
            single_worker,
            ..ServerConfig::default()
        };
        let server = net.add_node(
            "server",
            [ip("10.0.0.1")],
            DnsServer::new(cfg, vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
        );
        // Ten queries at the same instant, as ten clients would.
        let client = net.add_node(
            "client",
            [ip("192.168.1.10")],
            Client::new(vec![
                (
                    n("www.example.com"),
                    SendStrategy::Unicast(ip("10.0.0.1")),
                    None,
                );
                10
            ]),
        );
        net.connect(client, server, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        // Override the client's 100 ms stagger by re-planning: issue all
        // at t=0 via timers set in on_start. Client spaces by 100 ms, so
        // instead drive with 10 distinct clients? Simpler: accept the
        // 100 ms spacing and use heavy processing so queueing persists.
        net.run();
        outcomes(&net, client)
            .iter()
            .map(|o| o.rtt.as_millis_f64())
            .collect()
    }
    // With 100 ms spacing and 1 ms work there is no queueing either way;
    // rebuild with 200 ms of work per query so the queue builds up.
    fn run_heavy(single_worker: bool) -> Vec<f64> {
        let mut net = Network::new(22);
        let mut zone = Zone::new(n("example.com"));
        zone.add_a(n("www.example.com"), Ipv4Addr::new(9, 9, 9, 9), 60);
        let cfg = ServerConfig {
            processing: Latency::ConstantMs(200.0),
            single_worker,
            ..ServerConfig::default()
        };
        let server = net.add_node(
            "server",
            [ip("10.0.0.1")],
            DnsServer::new(cfg, vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
        );
        let client = net.add_node(
            "client",
            [ip("192.168.1.10")],
            Client::new(vec![
                (
                    n("www.example.com"),
                    SendStrategy::Unicast(ip("10.0.0.1")),
                    None,
                );
                5
            ]),
        );
        net.connect(client, server, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.run();
        outcomes(&net, client)
            .iter()
            .map(|o| o.rtt.as_millis_f64())
            .collect()
    }
    let parallel = run_heavy(false);
    let serial = run_heavy(true);
    assert_eq!(parallel.len(), 5);
    assert_eq!(serial.len(), 5);
    // Parallel: every query ~202 ms regardless of position.
    for rtt in &parallel {
        assert!((200.0..210.0).contains(rtt), "parallel rtt {rtt}");
    }
    // Serial: queries arrive every 100 ms but take 200 ms each, so
    // waiting time grows ~100 ms per position.
    assert!(serial[4] > serial[0] + 300.0, "no queueing visible: {serial:?}");
    let _ = run; // the light-load helper documents the contrast
    let light = run(true);
    assert!(light.iter().all(|r| *r < 10.0), "no queueing under light load");
}

#[test]
fn ecs_processing_overhead_slows_resolution_slightly() {
    // Same topology, query with and without ECS; the ECS one pays the
    // configured extra processing at each server — the effect behind the
    // paper's ×1.01–1.08 measurements.
    fn run(with_ecs: bool) -> f64 {
        let mut net = Network::new(14);
        let mut zone = Zone::new(n("example.com"));
        zone.add_a(n("www.example.com"), Ipv4Addr::new(3, 3, 3, 3), 300);
        let cfg = ServerConfig {
            processing: Latency::ConstantMs(0.5),
            ecs_processing: Latency::ConstantMs(0.5),
            ..ServerConfig::default()
        };
        let upstream = net.add_node(
            "upstream",
            [ip("10.0.0.1")],
            DnsServer::new(cfg.clone(), vec![Box::new(AuthoritativePlugin::new(vec![zone]))]),
        );
        let forwarder = net.add_node(
            "forwarder",
            [ip("10.0.0.2")],
            DnsServer::new(cfg, vec![Box::new(ForwardPlugin::new(ip("10.0.0.1")))]),
        );
        let ecs = with_ecs.then(|| ClientSubnet::query(ip("192.168.1.0"), 24));
        let client = net.add_node(
            "client",
            [ip("192.168.1.10")],
            Client::new(vec![(
                n("www.example.com"),
                SendStrategy::Unicast(ip("10.0.0.2")),
                ecs,
            )]),
        );
        net.connect(client, forwarder, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.connect(forwarder, upstream, LinkProfile::with_latency(Latency::ConstantMs(5.0)));
        net.run();
        outcomes(&net, client)[0].rtt.as_millis_f64()
    }
    let plain = run(false);
    let with_ecs = run(true);
    assert!(with_ecs > plain, "ECS path must pay its processing cost");
    assert!(
        with_ecs / plain < 1.2,
        "ECS overhead should be small: {plain} vs {with_ecs}"
    );
}
