//! The resolver core behind a plain synchronous call — a decoded query in,
//! a [`Message`] out — for a real UDP server (the `mecdnsd` binary). The
//! paper's MEC box co-locates the L-DNS and the C-DNS, so the upstream a
//! front-chain forward names is another core in the same process: each
//! upstream query goes to the backend core at its address, and its answer
//! back to the front core (cache fills included). No backend there, or one
//! that ignores the query, is an immediate timeout, not retried: an
//! in-process backend would do the same again. On the resolution hot path
//! (`hot-panic` / `hot-index` apply): no query may panic the serving thread.

use crate::plugin::Plugin;
use crate::resolver::{Action, Client, Resolver};
use crate::server::ServerConfig;
use dns_wire::{Message, Rcode};
use netsim::{SimTime, Telemetry};
use std::net::{IpAddr, Ipv4Addr};

/// The front core's address: that is the transport's business.
const FRONT: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

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
    /// A core per chain: `cores[0]` faces clients, the rest answer upstream
    /// queries sent to their address (looked up linearly and in order).
    cores: Vec<(IpAddr, Resolver)>,
    actions: Vec<Action>,
    /// Responses tallied by rcode.
    pub rcodes: RcodeCounts,
    /// Queries accepted into the chain.
    pub queries: u64,
    /// Queries dropped by a [`crate::PluginDecision::Ignore`].
    pub ignored: u64,
}

impl ServeEngine {
    /// An engine with the given client-facing chain and no backends.
    pub fn new(front: Vec<Box<dyn Plugin>>) -> Self {
        let engine = ServeEngine {
            cores: Vec::new(),
            actions: Vec::with_capacity(4),
            rcodes: RcodeCounts::default(),
            queries: 0,
            ignored: 0,
        };
        // The first core registered is `cores[0]`, the client-facing one.
        engine.with_backend(FRONT, front)
    }

    /// Registers the chain that answers forwards addressed to `addr`.
    /// Builder-style; a later chain on the same address replaces the
    /// earlier one.
    pub fn with_backend(mut self, addr: IpAddr, chain: Vec<Box<dyn Plugin>>) -> Self {
        let config = ServerConfig {
            upstream_retries: 0,
            ..ServerConfig::default()
        };
        let mut core = Resolver::new(config, chain);
        if let Some((_, front)) = self.cores.first() {
            core.telemetry = front.telemetry.clone();
        }
        match self.cores.iter_mut().skip(1).find(|(a, _)| *a == addr) {
            Some(slot) => *slot = (addr, core),
            None => self.cores.push((addr, core)),
        }
        self
    }

    /// Routes the engine's counters into `t` (per-shard registries are
    /// merged at shutdown).
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        for (_, c) in &mut self.cores {
            c.telemetry = t.clone();
        }
        self
    }

    /// Immutable access to a front-chain plugin by index, downcast to
    /// its concrete type (test assertions on plugin-internal counters).
    pub fn front_plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        self.cores.first()?.1.plugin(index)
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
        let client = Client {
            addr: client,
            port: client_port,
            local: FRONT,
        };
        let response = self.exchange(0, 0, now, client, query);
        match &response {
            Some(r) => self.rcodes.count(r.header.rcode),
            None => self.ignored += 1,
        }
        response
    }

    /// Runs core `at` on `query` until it answers: each upstream query it
    /// sends goes to the backend core at that address, `hops` deep, and
    /// the backend's answer (or, when there is none, the attempt's
    /// timeout) goes back to it. `None` when the chain ignored the query.
    fn exchange(
        &mut self,
        at: usize,
        hops: usize,
        now: SimTime,
        client: Client,
        query: &Message,
    ) -> Option<Message> {
        let base = self.actions.len();
        let (_, core) = self.cores.get_mut(at)?;
        core.on_query(now, client, query, &mut self.actions);
        while self.actions.len() > base {
            match self.actions.remove(base) {
                Action::Reply { msg, .. } => {
                    // The core answers a query once.
                    self.actions.truncate(base);
                    return Some(msg);
                }
                Action::Send { to, msg, timer, .. } => {
                    let backend = self.cores.iter().skip(1).position(|(a, _)| *a == to);
                    let reply = match backend {
                        // The backend's chain sees the original client.
                        Some(i) if hops < MAX_FORWARD_HOPS => {
                            let client = Client {
                                local: to,
                                ..client
                            };
                            self.exchange(i + 1, hops + 1, now, client, &msg)
                        }
                        _ => None,
                    };
                    let Some((_, core)) = self.cores.get_mut(at) else {
                        break;
                    };
                    core.recycle(msg);
                    match reply {
                        Some(resp) => core.on_response(now, resp, &mut self.actions),
                        None => core.on_timer(now, timer, &mut self.actions),
                    }
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("backends", &self.cores.len().saturating_sub(1))
            .field("queries", &self.queries)
            .field("rcodes", &self.rcodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PluginDecision, QueryCtx};
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
