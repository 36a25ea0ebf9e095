//! A synchronous, transport-facing resolution engine.
//!
//! [`crate::server::DnsServer`] runs the plugin chain as a simulator
//! node: forwards become virtual datagrams, timeouts become virtual
//! timers. A real UDP server (the `mecdnsd` binary) needs the same
//! chain behind a plain function call instead: bytes in, a [`Message`]
//! out, no event loop. [`ServeEngine`] is that call. The paper's MEC
//! deployment co-locates the L-DNS and the C-DNS on one box, so the
//! "upstream" a front-chain [`PluginDecision::Forward`] names is served
//! by another in-process chain — no sockets, no retries, and cache
//! fills flow through the front chain's [`Plugin::on_response`] exactly
//! as they would for a wire response.
//!
//! The engine is on the resolution hot path (`hot-panic` / `hot-index`
//! apply): a malformed or hostile query must never panic the serving
//! thread.

use crate::plugin::{Plugin, PluginDecision, QueryCtx};
use dns_wire::{Message, Opt, Rcode};
use netsim::{SimTime, Telemetry};
use std::net::IpAddr;

/// Hops a query may take between in-process backends before the engine
/// declares a forwarding loop. Real deployments here are one hop
/// (L-DNS → C-DNS); the budget only guards against mis-wired configs.
const MAX_FORWARD_HOPS: usize = 4;

/// Responses tallied by rcode — the numbers behind the `--stats` line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RcodeCounts {
    /// NOERROR responses.
    pub noerror: u64,
    /// NXDOMAIN responses.
    pub nxdomain: u64,
    /// SERVFAIL responses.
    pub servfail: u64,
    /// REFUSED responses.
    pub refused: u64,
    /// Everything else.
    pub other: u64,
}

impl RcodeCounts {
    fn count(&mut self, rcode: Rcode) {
        match rcode {
            Rcode::NoError => self.noerror += 1,
            Rcode::NxDomain => self.nxdomain += 1,
            Rcode::ServFail => self.servfail += 1,
            Rcode::Refused => self.refused += 1,
            _ => self.other += 1,
        }
    }

    /// Total responses across all rcodes.
    pub fn total(&self) -> u64 {
        self.noerror + self.nxdomain + self.servfail + self.refused + self.other
    }

    /// Folds another tally into this one (per-shard merge at shutdown).
    pub fn merge(&mut self, other: &RcodeCounts) {
        self.noerror += other.noerror;
        self.nxdomain += other.nxdomain;
        self.servfail += other.servfail;
        self.refused += other.refused;
        self.other += other.other;
    }
}

/// The plugin chains of one serving process: a front chain that faces
/// clients, plus backend chains addressable by the IPs front-chain
/// plugins forward to.
pub struct ServeEngine {
    front: Vec<Box<dyn Plugin>>,
    /// In-process "upstreams", looked up linearly — deployments here
    /// have one or two. Ordered, so behaviour never depends on map
    /// iteration order.
    backends: Vec<(IpAddr, Vec<Box<dyn Plugin>>)>,
    telemetry: Telemetry,
    /// Responses tallied by rcode.
    pub rcodes: RcodeCounts,
    /// Queries accepted into the chain.
    pub queries: u64,
    /// Queries dropped by a [`PluginDecision::Ignore`].
    pub ignored: u64,
}

impl ServeEngine {
    /// An engine with the given client-facing chain and no backends.
    pub fn new(front: Vec<Box<dyn Plugin>>) -> Self {
        ServeEngine {
            front,
            backends: Vec::new(),
            telemetry: Telemetry::default(),
            rcodes: RcodeCounts::default(),
            queries: 0,
            ignored: 0,
        }
    }

    /// Registers the chain that answers forwards addressed to `addr`.
    /// Builder-style; a later chain on the same address replaces the
    /// earlier one.
    pub fn with_backend(mut self, addr: IpAddr, chain: Vec<Box<dyn Plugin>>) -> Self {
        if let Some(slot) = self.backends.iter_mut().find(|(ip, _)| *ip == addr) {
            slot.1 = chain;
        } else {
            self.backends.push((addr, chain));
        }
        self
    }

    /// Routes the engine's counters into `t` (per-shard registries are
    /// merged at shutdown).
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        self.telemetry = t;
        self
    }

    /// Immutable access to a front-chain plugin by index, downcast to
    /// its concrete type (test assertions on plugin-internal counters).
    pub fn front_plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        let p: &dyn Plugin = self.front.get(index)?.as_ref();
        (p as &dyn std::any::Any).downcast_ref::<P>()
    }

    /// Resolves one client query to the response that should go back on
    /// the wire, or `None` when a plugin chose to ignore it. `now` is
    /// whatever clock the transport runs on — virtual in tests, a
    /// wall-clock anchor in `mecdnsd` — and only feeds TTL bookkeeping.
    pub fn resolve(
        &mut self,
        now: SimTime,
        client: IpAddr,
        client_port: u16,
        query: &Message,
    ) -> Option<Message> {
        self.queries += 1;
        let ctx = QueryCtx {
            now,
            client,
            client_port,
            telemetry: self.telemetry.clone(),
        };
        let mut decision = PluginDecision::Continue;
        for p in &mut self.front {
            decision = p.on_query(&ctx, query);
            if !matches!(decision, PluginDecision::Continue) {
                break;
            }
        }
        let mut response = match decision {
            PluginDecision::Respond(mut resp) => {
                resp.header.id = query.header.id;
                resp
            }
            PluginDecision::Forward { upstream } => self.forward(&ctx, query, upstream),
            PluginDecision::Recurse { .. } => {
                // Iterative recursion needs upstream sockets this
                // in-process engine does not own; the transport layer
                // would have to provide them. Until it does: SERVFAIL,
                // never silence.
                Message::response_to(query).with_rcode(Rcode::ServFail)
            }
            PluginDecision::Ignore => {
                self.ignored += 1;
                return None;
            }
            PluginDecision::Continue => {
                // Off the end of the chain: refuse, like the simulator.
                Message::response_to(query).with_rcode(Rcode::Refused)
            }
        };
        // Echo the client's ECS option if the response does not already
        // scope itself (RFC 7871 §7.2.2).
        if response.edns.as_ref().and_then(|o| o.client_subnet()).is_none() {
            if let Some(cs) = query.client_subnet() {
                response.edns = Some(Opt::with_client_subnet(*cs));
            }
        }
        self.rcodes.count(response.header.rcode);
        Some(response)
    }

    /// Dispatches a forward to the in-process backend chain at
    /// `upstream`, following chained forwards up to the hop budget. The
    /// backend's answer is shown to the front chain's `on_response`
    /// (cache fill) before it is returned.
    fn forward(&mut self, ctx: &QueryCtx, query: &Message, mut upstream: IpAddr) -> Message {
        for _ in 0..MAX_FORWARD_HOPS {
            let Some(chain) = self
                .backends
                .iter_mut()
                .find(|(ip, _)| *ip == upstream)
                .map(|(_, c)| c)
            else {
                // Nothing answers at that address: the upstream is dead
                // as far as this process is concerned. Tell the front
                // chain (health trackers) and fail the query.
                self.telemetry.incr("serve.upstream.unreachable");
                for p in &mut self.front {
                    p.on_upstream_event(ctx.now, upstream, false);
                }
                return Message::response_to(query).with_rcode(Rcode::ServFail);
            };
            let mut decision = PluginDecision::Continue;
            for p in chain.iter_mut() {
                decision = p.on_query(ctx, query);
                if !matches!(decision, PluginDecision::Continue) {
                    break;
                }
            }
            let mut resp = match decision {
                PluginDecision::Respond(resp) => resp,
                PluginDecision::Forward { upstream: next } => {
                    upstream = next;
                    continue;
                }
                PluginDecision::Ignore => {
                    // The backend dropped the query: to the front chain
                    // that is indistinguishable from a dead upstream.
                    self.telemetry.incr("serve.upstream.silent");
                    for p in &mut self.front {
                        p.on_upstream_event(ctx.now, upstream, false);
                    }
                    return Message::response_to(query).with_rcode(Rcode::ServFail);
                }
                PluginDecision::Recurse { .. } => {
                    Message::response_to(query).with_rcode(Rcode::ServFail)
                }
                PluginDecision::Continue => {
                    Message::response_to(query).with_rcode(Rcode::Refused)
                }
            };
            resp.header.id = query.header.id;
            resp.questions = query.questions.clone();
            self.telemetry.incr("serve.upstream.answer");
            for p in &mut self.front {
                p.on_upstream_event(ctx.now, upstream, true);
            }
            for p in &mut self.front {
                p.on_response(ctx, &mut resp);
            }
            return resp;
        }
        // Hop budget exhausted: a forwarding loop among the backends.
        self.telemetry.incr("serve.upstream.loop");
        Message::response_to(query).with_rcode(Rcode::ServFail)
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("front", &self.front.len())
            .field("backends", &self.backends.len())
            .field("queries", &self.queries)
            .field("rcodes", &self.rcodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::{AuthoritativePlugin, CachePlugin, StubDomainPlugin};
    use crate::zone::Zone;
    use dns_wire::{Name, RrType};
    use netsim::SimDuration;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9));
    const CDNS: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 96, 0, 53));

    /// Front: cache → stub to the backend; backend: authoritative zone.
    fn engine() -> ServeEngine {
        let mut zone = Zone::new(n("mycdn.ciab.test"));
        zone.add_a(n("video.mycdn.ciab.test"), Ipv4Addr::new(10, 96, 0, 10), 30);
        ServeEngine::new(vec![
            Box::new(CachePlugin::new(64)),
            Box::new(StubDomainPlugin::new(vec![(n("mycdn.ciab.test"), CDNS)])),
        ])
        .with_backend(CDNS, vec![Box::new(AuthoritativePlugin::new(vec![zone]))])
    }

    #[test]
    fn forward_is_answered_by_the_backend_chain() {
        let mut e = engine();
        let q = Message::query(7, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.id, 7);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert_eq!(resp.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 10)]);
        assert_eq!(e.rcodes.noerror, 1);
    }

    #[test]
    fn backend_answer_fills_the_front_cache() {
        let mut e = engine();
        let q = Message::query(7, n("video.mycdn.ciab.test"), RrType::A);
        e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        let again = Message::query(8, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(1), CLIENT, 4000, &again).unwrap();
        assert_eq!(resp.header.id, 8);
        assert_eq!(resp.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 10)]);
        let cache = e.front_plugin::<CachePlugin>(0).unwrap();
        assert_eq!(cache.hits(), 1, "second query must be a cache hit");
    }

    #[test]
    fn unknown_upstream_servfails() {
        let mut e = ServeEngine::new(vec![Box::new(StubDomainPlugin::new(vec![(
            n("mycdn.ciab.test"),
            CDNS,
        )]))]);
        let q = Message::query(9, n("video.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::ServFail);
        assert_eq!(e.rcodes.servfail, 1);
    }

    #[test]
    fn off_chain_end_refuses() {
        let mut e = ServeEngine::new(vec![]);
        let q = Message::query(3, n("elsewhere.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::Refused);
        assert_eq!(e.rcodes.refused, 1);
    }

    #[test]
    fn nxdomain_from_backend_is_relayed_and_counted() {
        let mut e = engine();
        let q = Message::query(4, n("missing.mycdn.ciab.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert_eq!(e.rcodes.nxdomain, 1);
    }

    #[test]
    fn forwarding_loop_hits_the_hop_budget() {
        struct Bounce(IpAddr);
        impl Plugin for Bounce {
            fn name(&self) -> &'static str {
                "bounce"
            }
            fn on_query(&mut self, _ctx: &QueryCtx, _q: &Message) -> PluginDecision {
                PluginDecision::Forward { upstream: self.0 }
            }
        }
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b: IpAddr = "10.0.0.2".parse().unwrap();
        let mut e = ServeEngine::new(vec![Box::new(Bounce(a))])
            .with_backend(a, vec![Box::new(Bounce(b))])
            .with_backend(b, vec![Box::new(Bounce(a))]);
        let q = Message::query(5, n("loop.test"), RrType::A);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.header.rcode, Rcode::ServFail);
    }

    #[test]
    fn ecs_option_is_echoed_back() {
        let mut e = engine();
        let ecs = dns_wire::ClientSubnet::query("172.16.0.0".parse().unwrap(), 12);
        let q = Message::query(6, n("video.mycdn.ciab.test"), RrType::A)
            .with_client_subnet(ecs);
        let resp = e.resolve(at(0), CLIENT, 4000, &q).unwrap();
        assert_eq!(resp.client_subnet(), Some(&ecs));
    }

    #[test]
    fn rcode_counts_merge() {
        let mut a = RcodeCounts {
            noerror: 3,
            nxdomain: 1,
            ..RcodeCounts::default()
        };
        let b = RcodeCounts {
            noerror: 2,
            servfail: 5,
            refused: 1,
            other: 2,
            ..RcodeCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.noerror, 5);
        assert_eq!(a.servfail, 5);
        assert_eq!(a.total(), 14);
    }
}
