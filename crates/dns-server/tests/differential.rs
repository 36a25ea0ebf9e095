//! The simulator node and the serving engine run one resolver core, so
//! one query script must get the same answers from both: a netsim
//! `DnsServer` pair (a front node and a backend node at the backend
//! address) and a `ServeEngine` built from the same chains.

use dns_server::plugins::{
    AuthoritativePlugin, CachePlugin, ForwardPlugin, ScopePlugin, StubDomainPlugin,
};
use dns_server::{DnsServer, Plugin, ServeEngine, ServerConfig, Zone};
use dns_wire::{ClientSubnet, Message, Name, Rcode, RrType, CLASSIC_UDP_PAYLOAD};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, SimDuration, SimTime,
    TimerToken,
};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9));
const FRONT: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 53));
const BACKEND: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 96, 0, 53));
/// The forward plugin's primary: nothing answers there.
const DEAD: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 96, 0, 99));

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// Cache, then the CDN namespace (and `other.test`) stubbed to the
/// backend, then a scope that ignores everything else except `ext.test`,
/// which is forwarded to a dead primary with the backend as secondary.
fn front_chain() -> Vec<Box<dyn Plugin>> {
    vec![
        Box::new(CachePlugin::new(64)),
        Box::new(StubDomainPlugin::new(vec![
            (n("mycdn.ciab.test"), BACKEND),
            (n("other.test"), BACKEND),
        ])),
        Box::new(ScopePlugin::new(vec![
            n("mycdn.ciab.test"),
            n("other.test"),
            n("ext.test"),
        ])),
        Box::new(ForwardPlugin::new(DEAD).with_secondary(BACKEND)),
    ]
}

/// Authoritative for the CDN zone and `ext.test`, not for `other.test`.
fn backend_chain() -> Vec<Box<dyn Plugin>> {
    let mut cdn = Zone::new(n("mycdn.ciab.test"));
    cdn.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 10), 30)
        .add_a(n("edge.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 11), 30)
        .add_a(n("tv.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 12), 30);
    for i in 0..40 {
        // Forty A records: more than a 512-byte answer holds.
        cdn.add_a(n("big.mycdn.ciab.test"), Ipv4Addr::new(10, 97, 0, i), 30);
    }
    let mut ext = Zone::new(n("ext.test"));
    ext.add_a(n("www.ext.test"), Ipv4Addr::new(192, 0, 2, 80), 60);
    vec![Box::new(AuthoritativePlugin::new(vec![cdn, ext]))]
}

/// The script: when each query is asked (ms), what it asks, with which
/// ECS option.
fn script() -> Vec<(u64, Message)> {
    let ecs = ClientSubnet::query("172.16.0.0".parse().unwrap(), 12);
    let q = |id: u16, name: &str| Message::query(id, n(name), RrType::A);
    vec![
        (0, q(1, "video.mycdn.ciab.test")),     // miss
        (100, q(2, "video.mycdn.ciab.test")),   // hit
        (200, q(3, "missing.mycdn.ciab.test")), // NXDOMAIN from the backend
        (300, q(4, "www.other.test")),          // off the backend's chain: REFUSED
        (400, q(5, "www.elsewhere.org")),       // out of scope: ignored
        (500, q(6, "edge.mycdn.ciab.test").with_client_subnet(ecs)),
        (600, q(7, "Tv.MyCdn.CIAB.test")),  // echoed as sent
        (700, q(8, "big.mycdn.ciab.test")), // truncated at 512 bytes
        (800, q(9, "www.ext.test")),        // dead primary: SERVFAIL
        (1300, q(10, "www.ext.test")),      // again: SERVFAIL, held down
        (1800, q(11, "www.ext.test")),      // the secondary answers
    ]
}

/// Sends the script's queries at their times and keeps the replies by id.
struct Probe {
    script: Vec<(u64, Message)>,
    replies: HashMap<u16, Message>,
}

impl NodeBehavior for Probe {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for (i, (ms, _)) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(*ms), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        let query = &self.script[data as usize].1;
        ctx.send(FRONT, 53, query.encode().unwrap());
    }
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
        let reply = Message::decode(&dgram.payload).unwrap();
        self.replies.insert(reply.header.id, reply);
    }
}

fn simulated() -> Vec<Option<Message>> {
    let config = ServerConfig {
        processing: Latency::ConstantMs(0.1),
        upstream_timeout: SimDuration::from_millis(100),
        ..ServerConfig::default()
    };
    let mut net = Network::new(20);
    let front = net.add_node(
        "front",
        [FRONT],
        DnsServer::new(config.clone(), front_chain()),
    );
    let backend = net.add_node(
        "backend",
        [BACKEND],
        DnsServer::new(config, backend_chain()),
    );
    let probe = net.add_node(
        "probe",
        [CLIENT],
        Probe {
            script: script(),
            replies: HashMap::new(),
        },
    );
    let link = LinkProfile::with_latency(Latency::ConstantMs(1.0));
    net.connect(probe, front, link.clone());
    net.connect(front, backend, link);
    net.run();
    let replies = &net.behavior::<Probe>(probe).replies;
    script()
        .iter()
        .map(|(_, q)| replies.get(&q.header.id).cloned())
        .collect()
}

fn served() -> Vec<Option<Message>> {
    let mut engine = ServeEngine::new(front_chain()).with_backend(BACKEND, backend_chain());
    script()
        .iter()
        .map(|(ms, q)| {
            let now = SimTime::ZERO + SimDuration::from_millis(*ms);
            engine.resolve(now, CLIENT, 40_000, q)
        })
        .collect()
}

/// What both engines must agree on, as the client receives it after
/// `encode_bounded` at the query's payload budget: rcode, question as
/// sent, answer records, ECS option and TC bit.
fn summary(query: &Message, reply: &Message) -> String {
    let budget = query.edns.as_ref().map_or(CLASSIC_UDP_PAYLOAD, |o| {
        usize::from(o.udp_payload_size).max(CLASSIC_UDP_PAYLOAD)
    });
    let wire = Message::decode(&reply.encode_bounded(budget).unwrap()).unwrap();
    let answers: Vec<String> = wire
        .answers
        .iter()
        .map(|r| format!("{} {} {:?}", r.name, r.rrtype(), r.rdata))
        .collect();
    format!(
        "id {} {:?} q {:?} answers {:?} ecs {:?} tc {}",
        wire.header.id,
        wire.header.rcode,
        wire.questions
            .iter()
            .map(|q| q.qname.to_string())
            .collect::<Vec<_>>(),
        answers,
        wire.client_subnet(),
        wire.header.truncated,
    )
}

#[test]
fn simulator_and_serving_engine_answer_the_script_alike() {
    let script = script();
    let sim = simulated();
    let srv = served();
    for (((_, query), a), b) in script.iter().zip(&sim).zip(&srv) {
        let a = a.as_ref().map(|r| summary(query, r));
        let b = b.as_ref().map(|r| summary(query, r));
        assert_eq!(
            a, b,
            "query {} ({})",
            query.header.id, query.questions[0].qname
        );
    }
    // The script covers what it says it does.
    let rcode = |i: usize| srv[i].as_ref().map(|r| r.header.rcode);
    let expected = [
        Some(Rcode::NoError),
        Some(Rcode::NoError),
        Some(Rcode::NxDomain),
        Some(Rcode::Refused),
        None,
        Some(Rcode::NoError),
        Some(Rcode::NoError),
        Some(Rcode::NoError),
        Some(Rcode::ServFail),
        Some(Rcode::ServFail),
        Some(Rcode::NoError),
    ];
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(rcode(i), *want, "query {}", i + 1);
    }
    let ecs = srv[5].as_ref().and_then(|r| r.client_subnet().copied());
    assert_eq!(ecs, script[5].1.client_subnet().copied(), "ECS echoed");
    let tv = srv[6].as_ref().unwrap();
    assert_eq!(tv.questions[0].qname.to_string(), "Tv.MyCdn.CIAB.test.");
    // Upstream queries are rebuilt in reused buffers: the forward after
    // the ECS one carries no stale option, so none comes back.
    assert_eq!(tv.client_subnet(), None);
    let big = srv[7].as_ref().unwrap();
    assert_eq!(big.answers.len(), 40);
    let truncated = big.encode_bounded(CLASSIC_UDP_PAYLOAD).unwrap();
    assert!(Message::decode(&truncated).unwrap().header.truncated);
}
