//! The DNS server node behavior: the [`crate::resolver::Resolver`] core
//! behind a processing-delay model, as a simulator node.

use crate::plugin::Plugin;
use crate::resolver::{Action, Client, Resolver};
use dns_wire::{Message, Rcode};
use netsim::{
    Datagram, Latency, NodeBehavior, NodeContext, SimDuration, SimTime, Telemetry, TimerToken,
};
use std::collections::HashMap;

/// Timer-data tag for queued inbound queries.
const TAG_INBOX: u64 = 0x1 << 56;
/// Timer-data tag for upstream timeouts.
const TAG_PENDING: u64 = 0x2 << 56;
const TAG_MASK: u64 = 0xFF << 56;

/// Tuning for a DNS server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// UDP port served (53 everywhere in this workspace).
    pub port: u16,
    /// Per-query processing delay (lookup work, plugin chain).
    pub processing: Latency,
    /// Extra processing when the query carries an ECS option — the
    /// overhead whose end-to-end effect §4 measures at ×1.01–1.08.
    pub ecs_processing: Latency,
    /// Attach an ECS option (the client's /24) to upstream queries when
    /// the client did not send one — "ECS support at L-DNS".
    pub attach_ecs: bool,
    /// Drop any client-supplied ECS option instead of propagating it —
    /// the behaviour of a "hidden resolver" in a forwarding chain, which
    /// §1 cites as a way ECS-based localization breaks: the C-DNS then
    /// scopes its answer to the egress resolver, not the client.
    pub strip_ecs: bool,
    /// How long to wait for an upstream response before retrying.
    pub upstream_timeout: SimDuration,
    /// Retries per upstream server before giving up on it.
    pub upstream_retries: u8,
    /// When true, queries are processed by a single worker: each query's
    /// processing starts only after the previous one finishes, so load
    /// shows up as queueing delay. Realistic for a small containerized
    /// DNS pod; large shared resolvers stay `false` (parallel).
    pub single_worker: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 53,
            processing: Latency::UniformMs(0.1, 0.4),
            ecs_processing: Latency::UniformMs(0.05, 0.25),
            attach_ecs: false,
            upstream_timeout: SimDuration::from_millis(2000),
            upstream_retries: 2,
            single_worker: false,
            strip_ecs: false,
        }
    }
}

/// A DNS server as a simulator node behavior: the resolver core, with
/// forwarding, retries and recursion on virtual datagrams and timers,
/// behind a sampled processing delay (optionally queued on one worker),
/// the wire codec and the crash model of [`NodeBehavior::on_restart`].
pub struct DnsServer {
    core: Resolver,
    /// Queries waiting out their processing delay, decoded on arrival.
    inbox: HashMap<u64, (Client, Message)>,
    next_inbox: u64,
    /// When the single worker next becomes free (see
    /// [`ServerConfig::single_worker`]).
    busy_until: SimTime,
    actions: Vec<Action>,
    /// Queries received (valid DNS only).
    pub queries_received: u64,
    /// Responses sent to clients.
    pub responses_sent: u64,
    /// Queries dropped by a [`crate::PluginDecision::Ignore`].
    pub queries_ignored: u64,
    /// Upstream exchanges that timed out (per attempt).
    pub upstream_timeouts: u64,
    /// Datagrams that failed to parse.
    pub malformed: u64,
}

impl DnsServer {
    /// Creates a server with the given plugin chain.
    pub fn new(config: ServerConfig, plugins: Vec<Box<dyn Plugin>>) -> Self {
        DnsServer {
            core: Resolver::new(config, plugins),
            inbox: HashMap::new(),
            next_inbox: 0,
            busy_until: SimTime::ZERO,
            actions: Vec::new(),
            queries_received: 0,
            responses_sent: 0,
            queries_ignored: 0,
            upstream_timeouts: 0,
            malformed: 0,
        }
    }

    /// Routes this server's (and its plugins') telemetry into `t`.
    /// Builder-style so deployment code can chain it onto `new`.
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        self.core.telemetry = t;
        self
    }

    /// Immutable access to a plugin by index (for test assertions on
    /// plugin-internal counters).
    pub fn plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        self.core.plugin(index)
    }

    /// Carries out the core's actions in the order emitted; copies its counters.
    fn apply(&mut self, ctx: &mut NodeContext<'_>) {
        self.queries_ignored = self.core.ignored;
        self.upstream_timeouts = self.core.upstream_timeouts;
        let port = self.core.config.port;
        for action in self.actions.drain(..) {
            match action {
                Action::Reply { to, msg } => {
                    // Encoding failures are server bugs; surface as SERVFAIL.
                    let bytes = msg.encode().or_else(|_| {
                        Message::response_to(&msg)
                            .with_rcode(Rcode::ServFail)
                            .encode()
                    });
                    if let Ok(payload) = bytes {
                        ctx.send_datagram(Datagram {
                            src: to.local,
                            src_port: port,
                            dst: to.addr,
                            dst_port: to.port,
                            payload,
                        });
                        self.responses_sent += 1;
                    }
                }
                Action::Send { to, msg, at, timer } => {
                    // A query that does not encode is never sent; its timer
                    // still runs, so the attempt times out like a lost one.
                    if let Ok(payload) = msg.encode() {
                        ctx.send(to, 53, payload);
                    }
                    self.core.recycle(msg);
                    ctx.set_timer(at - ctx.now(), TAG_PENDING | timer);
                }
            }
        }
    }
}

impl NodeBehavior for DnsServer {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        // Responses to our upstream queries come back on ephemeral ports.
        if dgram.dst_port != self.core.config.port {
            match Message::decode(&dgram.payload) {
                Ok(msg) if msg.header.is_response => {
                    self.core.on_response(ctx.now(), msg, &mut self.actions);
                    self.apply(ctx);
                }
                _ => self.malformed += 1,
            }
            return;
        }
        // A query (or a response mistakenly sent to port 53 — ignore).
        let query = match Message::decode(&dgram.payload) {
            Ok(m) if !m.header.is_response => m,
            _ => {
                self.malformed += 1;
                return;
            }
        };
        self.queries_received += 1;
        let config = &self.core.config;
        let mut work = config.processing.sample(ctx.rng());
        if query.client_subnet().is_some() {
            work += config.ecs_processing.sample(ctx.rng());
        }
        let delay = if config.single_worker {
            // Queue behind whatever the worker is already doing.
            let now = ctx.now();
            let start = self.busy_until.max(now);
            self.busy_until = start + work;
            self.busy_until - now
        } else {
            work
        };
        let client = Client {
            addr: dgram.src,
            port: dgram.src_port,
            local: dgram.dst,
        };
        let key = self.next_inbox;
        self.next_inbox += 1;
        self.inbox.insert(key, (client, query));
        ctx.set_timer(delay, TAG_INBOX | key);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, data: u64) {
        let (now, payload) = (ctx.now(), data & !TAG_MASK);
        match data & TAG_MASK {
            TAG_INBOX => {
                if let Some((client, query)) = self.inbox.remove(&payload) {
                    self.core.on_query(now, client, &query, &mut self.actions);
                }
            }
            TAG_PENDING => self.core.on_timer(now, payload, &mut self.actions),
            _ => {}
        }
        self.apply(ctx);
    }

    fn on_restart(&mut self, _ctx: &mut NodeContext<'_>) {
        // Cold start after a crash: every queued query and in-flight
        // upstream exchange lived in process memory and is gone. The
        // cumulative counters survive — they model external scraping, not
        // process state — and clients see silence for anything dropped.
        self.inbox.clear();
        self.core.clear();
        self.busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::AuthoritativePlugin;
    use crate::zone::Zone;
    use dns_wire::{Name, RrType};
    use netsim::{Network, NodeId};
    use std::net::{IpAddr, Ipv4Addr};

    struct Probe {
        server: IpAddr,
        payloads: Vec<Vec<u8>>,
        replies: Vec<Message>,
    }
    impl NodeBehavior for Probe {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for p in self.payloads.clone() {
                ctx.send(self.server, 53, p);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if let Ok(m) = Message::decode(&dgram.payload) {
                self.replies.push(m);
            }
        }
    }

    fn world(plugins: Vec<Box<dyn Plugin>>, payloads: Vec<Vec<u8>>) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(5);
        let server = net.add_node(
            "server",
            ["10.0.0.1".parse::<IpAddr>().unwrap()],
            DnsServer::new(ServerConfig::default(), plugins),
        );
        let probe = net.add_node(
            "probe",
            ["10.0.0.2".parse::<IpAddr>().unwrap()],
            Probe {
                server: "10.0.0.1".parse().unwrap(),
                payloads,
                replies: vec![],
            },
        );
        net.connect(
            probe,
            server,
            netsim::LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        (net, server, probe)
    }

    #[test]
    fn garbage_counts_as_malformed_and_gets_no_reply() {
        let (net, server, probe) = world(vec![], vec![vec![0xDE, 0xAD], vec![]]);
        assert_eq!(net.behavior::<DnsServer>(server).malformed, 2);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn empty_plugin_chain_refuses() {
        let q = Message::query(7, Name::parse("x.test").unwrap(), RrType::A);
        let (net, server, probe) = world(vec![], vec![q.encode().unwrap()]);
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.rcode, Rcode::Refused);
        assert_eq!(replies[0].header.id, 7);
        assert_eq!(net.behavior::<DnsServer>(server).responses_sent, 1);
    }

    #[test]
    fn response_id_and_question_echo_the_query() {
        let mut zone = Zone::new(Name::parse("z.test").unwrap());
        zone.add_a(Name::parse("a.z.test").unwrap(), Ipv4Addr::new(4, 4, 4, 4), 60);
        let q = Message::query(0xABCD, Name::parse("a.z.test").unwrap(), RrType::A);
        let (net, _server, probe) = world(
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            vec![q.encode().unwrap()],
        );
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.id, 0xABCD);
        assert_eq!(replies[0].questions, q.questions);
        assert!(replies[0].header.is_response);
    }

    #[test]
    fn responses_sent_to_the_service_port_are_ignored() {
        // A spoofed "response" aimed at port 53 must not crash or be
        // treated as a query.
        let mut resp = Message::query(9, Name::parse("x.test").unwrap(), RrType::A);
        resp.header.is_response = true;
        let (net, server, probe) = world(vec![], vec![resp.encode().unwrap()]);
        let s = net.behavior::<DnsServer>(server);
        assert_eq!(s.queries_received, 0);
        assert_eq!(s.malformed, 1);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn plugin_accessor_downcasts_by_index() {
        let server = DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(crate::plugins::CachePlugin::new(8))],
        );
        assert!(server.plugin::<crate::plugins::CachePlugin>(0).is_some());
        assert!(server.plugin::<crate::plugins::ForwardPlugin>(0).is_none());
        assert!(server.plugin::<crate::plugins::CachePlugin>(1).is_none());
    }
}
