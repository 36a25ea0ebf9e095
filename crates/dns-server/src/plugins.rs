//! Built-in plugins: authoritative zones, cache, kubernetes registry,
//! stub domains, forwarding and recursion.

use crate::cache::DnsCache;
use crate::plugin::{Plugin, PluginDecision, QueryCtx};
use crate::zone::{LookupResult, Zone};
use dns_wire::{Message, Name, NameId, RData, Rcode, Record, RrClass, RrType};
use mec_orch::{ServiceRegistry, Visibility};
use netsim::{Cidr, SimTime};
use std::collections::HashMap;
use std::net::IpAddr;

/// Serves one or more authoritative zones — the root, TLD and A-DNS
/// servers of Figure 1 are all instances of this plugin over different
/// zone data.
pub struct AuthoritativePlugin {
    zones: Vec<Zone>,
    /// Negative-answer TTL (stands in for the SOA minimum).
    pub negative_ttl: u32,
}

impl AuthoritativePlugin {
    /// Serves the given zones.
    pub fn new(zones: Vec<Zone>) -> Self {
        AuthoritativePlugin {
            zones,
            negative_ttl: 30,
        }
    }

    /// The most specific zone containing `name`, if any.
    fn zone_for(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }
}

impl Plugin for AuthoritativePlugin {
    fn name(&self) -> &'static str {
        "authoritative"
    }

    fn on_query(&mut self, _ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Respond(
                Message::response_to(query).with_rcode(Rcode::FormErr),
            );
        };
        let Some(zone) = self.zone_for(&q.qname) else {
            return PluginDecision::Continue;
        };
        let mut resp = Message::response_to(query);
        resp.header.authoritative = true;
        match zone.lookup(&q.qname, q.qtype) {
            LookupResult::Answer(records) => {
                resp.answers = records;
            }
            LookupResult::Referral { ns, glue } => {
                resp.header.authoritative = false;
                resp.authorities = ns;
                resp.additionals = glue;
            }
            LookupResult::NoData => {}
            LookupResult::NxDomain => {
                resp.header.rcode = Rcode::NxDomain;
            }
            LookupResult::NotAuthoritative => return PluginDecision::Continue,
        }
        PluginDecision::Respond(resp)
    }
}

/// TTL/LRU answer cache. Consult first; fills from upstream responses.
pub struct CachePlugin {
    cache: DnsCache,
}

impl CachePlugin {
    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        CachePlugin {
            cache: DnsCache::new(capacity),
        }
    }

    /// Cache hit count (for tests and ablations).
    pub fn hits(&self) -> u64 {
        self.cache.hits
    }

    /// Cache miss count.
    pub fn misses(&self) -> u64 {
        self.cache.misses
    }
}

impl Plugin for CachePlugin {
    fn name(&self) -> &'static str {
        "cache"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Continue;
        };
        match self.cache.get(&q.qname, q.qtype, ctx.now) {
            Some((records, rcode)) => {
                ctx.telemetry.incr("dns.cache.hit");
                ctx.telemetry
                    .mark(u64::from(query.header.id), ctx.now, "cache.hit", || {
                        q.qname.canonical()
                    });
                let mut resp = Message::response_to(query).with_rcode(rcode);
                resp.answers = records;
                resp.header.recursion_available = true;
                PluginDecision::Respond(resp)
            }
            None => {
                ctx.telemetry.incr("dns.cache.miss");
                PluginDecision::Continue
            }
        }
    }

    fn on_response(&mut self, ctx: &QueryCtx, response: &mut Message) {
        let Some(q) = response.question().cloned() else {
            return;
        };
        if response.header.rcode == Rcode::NoError && !response.answers.is_empty() {
            self.cache
                .insert(&q.qname, q.qtype, response.answers.clone(), ctx.now);
        } else if response.header.rcode == Rcode::NxDomain {
            self.cache
                .insert_negative(&q.qname, q.qtype, Rcode::NxDomain, 30, ctx.now);
        }
    }
}

/// Serves names from the orchestrator's service registry — the CoreDNS
/// `kubernetes` plugin. The visibility view is chosen per query: clients
/// inside `internal_cidrs` see internal VNF names, everyone else sees
/// only the public MEC-CDN namespace (the split-namespace design of §3).
pub struct KubernetesPlugin {
    registry: ServiceRegistry,
    /// Zones this plugin is authoritative for (e.g. `cluster.local` and
    /// the MEC-CDN public domain).
    zones: Vec<Name>,
    /// Clients within these prefixes get the internal view.
    internal_cidrs: Vec<Cidr>,
    /// TTL on served records (CoreDNS default is 5 s).
    pub ttl: u32,
}

impl KubernetesPlugin {
    /// Serves `zones` from `registry`.
    pub fn new(registry: ServiceRegistry, zones: Vec<Name>, internal_cidrs: Vec<Cidr>) -> Self {
        KubernetesPlugin {
            registry,
            zones,
            internal_cidrs,
            ttl: 5,
        }
    }

    fn view_for(&self, client: IpAddr) -> Visibility {
        if self.internal_cidrs.iter().any(|c| c.contains(client)) {
            Visibility::Internal
        } else {
            Visibility::Public
        }
    }
}

impl Plugin for KubernetesPlugin {
    fn name(&self) -> &'static str {
        "kubernetes"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Continue;
        };
        if !self.zones.iter().any(|z| q.qname.is_subdomain_of(z)) {
            return PluginDecision::Continue;
        }
        let view = self.view_for(ctx.client);
        let mut resp = Message::response_to(query);
        resp.header.authoritative = true;
        match self.registry.lookup(&q.qname.to_string(), view) {
            Some(IpAddr::V4(addr)) if q.qtype == RrType::A => {
                resp.answers.push(Record::new(
                    q.qname.clone(),
                    RrClass::In,
                    self.ttl,
                    RData::A(addr),
                ));
            }
            Some(IpAddr::V6(addr)) if q.qtype == RrType::Aaaa => {
                resp.answers.push(Record::new(
                    q.qname.clone(),
                    RrClass::In,
                    self.ttl,
                    RData::Aaaa(addr),
                ));
            }
            Some(_) => {} // name exists, wrong type: NoData
            None => {
                resp.header.rcode = Rcode::NxDomain;
            }
        }
        PluginDecision::Respond(resp)
    }
}

/// Redirects zones to specific upstream servers — the CoreDNS
/// stub-domain mechanism the prototype uses: *"we update the
/// configuration of L-DNS with the sub-domain and upstream server to
/// ensure that L-DNS redirects queries for this CDN domain to C-DNS."*
pub struct StubDomainPlugin {
    /// Interned stub zone → upstream. Matching walks the query name's
    /// parent chain in id space instead of scanning every stub with a
    /// string-comparing `is_subdomain_of`.
    stubs: HashMap<NameId, IpAddr>,
}

impl StubDomainPlugin {
    /// Creates the plugin from (zone, upstream) pairs.
    pub fn new(pairs: Vec<(Name, IpAddr)>) -> Self {
        let mut map = HashMap::new();
        for (zone, upstream) in pairs {
            // Later duplicates win, matching the old `max_by_key` scan.
            map.insert(zone.id(), upstream);
        }
        StubDomainPlugin { stubs: map }
    }
}

impl Plugin for StubDomainPlugin {
    fn name(&self) -> &'static str {
        "stub-domain"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Continue;
        };
        // Most specific stub wins: the first hit walking from the query
        // name toward the root.
        let mut best = None;
        let mut cur = Some(q.qname.id());
        while let Some(id) = cur {
            if let Some(&upstream) = self.stubs.get(&id) {
                best = Some(upstream);
                break;
            }
            cur = id.parent();
        }
        match best {
            Some(upstream) => {
                ctx.telemetry.incr("dns.stub_domain.redirect");
                ctx.telemetry.mark(
                    u64::from(query.header.id),
                    ctx.now,
                    "stub_domain.redirect",
                    || upstream.to_string(),
                );
                PluginDecision::Forward { upstream }
            }
            None => PluginDecision::Continue,
        }
    }
}

/// Health state of one forward upstream.
#[derive(Debug, Clone, Copy)]
struct UpstreamHealth {
    addr: IpAddr,
    /// Silent failures in a row; an answer resets it.
    consecutive_failures: u32,
    /// While set and in the future, the upstream is skipped.
    unhealthy_until: Option<SimTime>,
}

impl UpstreamHealth {
    fn new(addr: IpAddr) -> Self {
        UpstreamHealth {
            addr,
            consecutive_failures: 0,
            unhealthy_until: None,
        }
    }

    fn healthy(&self, now: SimTime) -> bool {
        match self.unhealthy_until {
            Some(until) => now >= until,
            None => true,
        }
    }
}

/// Forwards everything to an upstream resolver (the CoreDNS `forward`
/// plugin) — how a MEC L-DNS hands non-MEC names to the provider's
/// resolver.
///
/// With [`ForwardPlugin::with_secondary`], the plugin tracks each
/// upstream's health from the server's upstream events (see
/// [`Plugin::on_upstream_event`]): after
/// [`ForwardPlugin::failure_threshold`] consecutive silent failures an
/// upstream is held down for [`ForwardPlugin::hold_down`] and queries
/// deterministically fail over to the first healthy upstream in
/// declaration order. When every upstream is held down the primary is
/// used anyway (there is nothing better to try), which also probes it
/// for recovery once the hold-down lapses.
pub struct ForwardPlugin {
    upstreams: Vec<UpstreamHealth>,
    /// Consecutive silent failures before an upstream is held down.
    pub failure_threshold: u32,
    /// How long a tripped upstream is skipped before it is probed again.
    pub hold_down: netsim::SimDuration,
}

impl ForwardPlugin {
    /// Forwards to `upstream`.
    pub fn new(upstream: IpAddr) -> Self {
        ForwardPlugin {
            upstreams: vec![UpstreamHealth::new(upstream)],
            failure_threshold: 2,
            hold_down: netsim::SimDuration::from_secs(5),
        }
    }

    /// Adds a lower-priority upstream to fail over to (builder style).
    pub fn with_secondary(mut self, upstream: IpAddr) -> Self {
        self.upstreams.push(UpstreamHealth::new(upstream));
        self
    }

    /// The upstream a query issued at `now` would be forwarded to.
    pub fn active_upstream(&self, now: SimTime) -> IpAddr {
        self.upstreams
            .iter()
            .find(|u| u.healthy(now))
            // detlint: allow(hot-index) — constructors seed `upstreams`
            // with one entry and it only ever grows, so index 0 exists.
            .unwrap_or(&self.upstreams[0])
            .addr
    }
}

impl Plugin for ForwardPlugin {
    fn name(&self) -> &'static str {
        "forward"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let upstream = self.active_upstream(ctx.now);
        if self.upstreams.first().is_some_and(|u0| upstream != u0.addr) {
            ctx.telemetry.incr("dns.forward.failover");
            ctx.telemetry.mark(
                u64::from(query.header.id),
                ctx.now,
                "forward.failover",
                || upstream.to_string(),
            );
        }
        PluginDecision::Forward { upstream }
    }

    fn on_upstream_event(&mut self, now: SimTime, upstream: IpAddr, ok: bool) {
        let threshold = self.failure_threshold;
        let hold_down = self.hold_down;
        let Some(u) = self.upstreams.iter_mut().find(|u| u.addr == upstream) else {
            return;
        };
        if ok {
            u.consecutive_failures = 0;
            u.unhealthy_until = None;
        } else {
            u.consecutive_failures += 1;
            if u.consecutive_failures >= threshold {
                u.unhealthy_until = Some(now + hold_down);
            }
        }
    }
}

/// Full iterative resolution from root hints — what the provider L-DNS,
/// Google DNS and Cloudflare DNS deployments in Figure 5 do.
pub struct RecursePlugin {
    roots: Vec<IpAddr>,
}

impl RecursePlugin {
    /// Recurse starting from these root servers.
    pub fn new(roots: Vec<IpAddr>) -> Self {
        assert!(!roots.is_empty(), "recursion needs at least one root hint");
        RecursePlugin { roots }
    }
}

impl Plugin for RecursePlugin {
    fn name(&self) -> &'static str {
        "recurse"
    }

    fn on_query(&mut self, _ctx: &QueryCtx, _query: &Message) -> PluginDecision {
        PluginDecision::Recurse {
            roots: self.roots.clone(),
        }
    }
}

/// Drops queries outside the given zones — the access-control half of
/// the "MEC DNS ignores queries not related to MEC-CDN" workaround. Put
/// it *after* the plugins that should answer and before any forwarder
/// you do not want non-MEC traffic to reach.
pub struct ScopePlugin {
    zones: Vec<Name>,
}

impl ScopePlugin {
    /// Ignore queries for names outside `zones`.
    pub fn new(zones: Vec<Name>) -> Self {
        ScopePlugin { zones }
    }
}

impl Plugin for ScopePlugin {
    fn name(&self) -> &'static str {
        "scope"
    }

    fn on_query(&mut self, _ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Ignore;
        };
        if self.zones.iter().any(|z| q.qname.is_subdomain_of(z)) {
            PluginDecision::Continue
        } else {
            PluginDecision::Ignore
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ctx() -> QueryCtx {
        QueryCtx {
            now: SimTime::ZERO,
            client: "192.168.1.50".parse().unwrap(),
            client_port: 40000,
            telemetry: netsim::Telemetry::default(),
        }
    }

    fn internal_ctx() -> QueryCtx {
        QueryCtx {
            client: "10.244.0.7".parse().unwrap(),
            ..ctx()
        }
    }

    fn q(name: &str) -> Message {
        Message::query(7, n(name), RrType::A)
    }

    #[test]
    fn authoritative_answers_and_falls_through() {
        let mut zone = Zone::new(n("mycdn.ciab.test"));
        zone.add_a(n("c.mycdn.ciab.test"), Ipv4Addr::new(1, 2, 3, 4), 30);
        let mut p = AuthoritativePlugin::new(vec![zone]);
        match p.on_query(&ctx(), &q("c.mycdn.ciab.test")) {
            PluginDecision::Respond(r) => {
                assert!(r.header.authoritative);
                assert_eq!(r.answer_a_addrs(), vec![Ipv4Addr::new(1, 2, 3, 4)]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p.on_query(&ctx(), &q("other.example")),
            PluginDecision::Continue
        ));
    }

    #[test]
    fn authoritative_nxdomain() {
        let zone = Zone::new(n("mycdn.ciab.test"));
        let mut p = AuthoritativePlugin::new(vec![zone]);
        match p.on_query(&ctx(), &q("missing.mycdn.ciab.test")) {
            PluginDecision::Respond(r) => assert_eq!(r.header.rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut parent = Zone::new(n("test"));
        parent.add_a(n("x.sub.test"), Ipv4Addr::new(9, 9, 9, 9), 30);
        let mut child = Zone::new(n("sub.test"));
        child.add_a(n("x.sub.test"), Ipv4Addr::new(1, 1, 1, 1), 30);
        let mut p = AuthoritativePlugin::new(vec![parent, child]);
        match p.on_query(&ctx(), &q("x.sub.test")) {
            PluginDecision::Respond(r) => {
                assert_eq!(r.answer_a_addrs(), vec![Ipv4Addr::new(1, 1, 1, 1)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cache_fills_from_responses_and_serves_hits() {
        let mut p = CachePlugin::new(16);
        assert!(matches!(
            p.on_query(&ctx(), &q("a.test")),
            PluginDecision::Continue
        ));
        let mut resp = Message::response_to(&q("a.test"));
        resp.answers.push(Record::new(
            n("a.test"),
            RrClass::In,
            30,
            RData::A(Ipv4Addr::new(5, 5, 5, 5)),
        ));
        p.on_response(&ctx(), &mut resp);
        match p.on_query(&ctx(), &q("a.test")) {
            PluginDecision::Respond(r) => {
                assert_eq!(r.answer_a_addrs(), vec![Ipv4Addr::new(5, 5, 5, 5)]);
                assert!(r.header.recursion_available);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn cache_negative_answers() {
        let mut p = CachePlugin::new(16);
        let mut resp = Message::response_to(&q("gone.test")).with_rcode(Rcode::NxDomain);
        p.on_response(&ctx(), &mut resp);
        match p.on_query(&ctx(), &q("gone.test")) {
            PluginDecision::Respond(r) => assert_eq!(r.header.rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kubernetes_split_horizon() {
        let reg = ServiceRegistry::new();
        reg.upsert(
            "video.mycdn.ciab.test",
            "10.96.0.5".parse().unwrap(),
            Visibility::Public,
        );
        reg.upsert(
            "mme.epc.svc.cluster.local",
            "10.96.0.2".parse().unwrap(),
            Visibility::Internal,
        );
        let mut p = KubernetesPlugin::new(
            reg,
            vec![n("cluster.local"), n("mycdn.ciab.test")],
            vec!["10.244.0.0/16".parse().unwrap()],
        );
        // Public client resolves the CDN name…
        match p.on_query(&ctx(), &q("video.mycdn.ciab.test")) {
            PluginDecision::Respond(r) => {
                assert_eq!(r.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 5)]);
                assert_eq!(r.answers[0].ttl, 5);
            }
            other => panic!("{other:?}"),
        }
        // …but not the internal VNF name.
        match p.on_query(&ctx(), &q("mme.epc.svc.cluster.local")) {
            PluginDecision::Respond(r) => assert_eq!(r.header.rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
        // A pod sees the internal name.
        match p.on_query(&internal_ctx(), &q("mme.epc.svc.cluster.local")) {
            PluginDecision::Respond(r) => {
                assert_eq!(r.answer_a_addrs(), vec![Ipv4Addr::new(10, 96, 0, 2)])
            }
            other => panic!("{other:?}"),
        }
        // Names outside its zones fall through.
        assert!(matches!(
            p.on_query(&ctx(), &q("www.google.com")),
            PluginDecision::Continue
        ));
    }

    #[test]
    fn stub_domain_picks_most_specific() {
        let mut p = StubDomainPlugin::new(vec![
            (n("ciab.test"), "10.0.0.1".parse().unwrap()),
            (n("mycdn.ciab.test"), "10.96.0.9".parse().unwrap()),
        ]);
        match p.on_query(&ctx(), &q("video.demo1.mycdn.ciab.test")) {
            PluginDecision::Forward { upstream } => {
                assert_eq!(upstream, "10.96.0.9".parse::<IpAddr>().unwrap());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p.on_query(&ctx(), &q("www.example.com")),
            PluginDecision::Continue
        ));
    }

    #[test]
    fn forward_always_forwards() {
        let mut p = ForwardPlugin::new("8.8.8.8".parse().unwrap());
        assert!(matches!(
            p.on_query(&ctx(), &q("anything.at.all")),
            PluginDecision::Forward { .. }
        ));
    }

    #[test]
    fn forward_fails_over_after_threshold_and_recovers() {
        use netsim::{SimDuration, SimTime};
        let primary: IpAddr = "8.8.8.8".parse().unwrap();
        let secondary: IpAddr = "1.1.1.1".parse().unwrap();
        let mut p = ForwardPlugin::new(primary).with_secondary(secondary);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        assert_eq!(p.active_upstream(t(0)), primary);
        // One silent failure is not enough (threshold 2).
        p.on_upstream_event(t(1), primary, false);
        assert_eq!(p.active_upstream(t(1)), primary);
        p.on_upstream_event(t(2), primary, false);
        assert_eq!(p.active_upstream(t(2)), secondary, "held down");
        // Hold-down (5 s) lapses: the primary is probed again.
        assert_eq!(p.active_upstream(t(7)), primary);
        // An answer clears the failure streak entirely.
        p.on_upstream_event(t(7), primary, true);
        p.on_upstream_event(t(8), primary, false);
        assert_eq!(p.active_upstream(t(8)), primary);
        // Events for servers we do not forward to are ignored.
        p.on_upstream_event(t(8), "9.9.9.9".parse().unwrap(), false);
        assert_eq!(p.active_upstream(t(8)), primary);
    }

    #[test]
    fn forward_with_all_upstreams_down_uses_the_primary() {
        use netsim::{SimDuration, SimTime};
        let primary: IpAddr = "8.8.8.8".parse().unwrap();
        let secondary: IpAddr = "1.1.1.1".parse().unwrap();
        let mut p = ForwardPlugin::new(primary).with_secondary(secondary);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        for i in 0..2 {
            p.on_upstream_event(t(i), primary, false);
            p.on_upstream_event(t(i), secondary, false);
        }
        assert_eq!(p.active_upstream(t(2)), primary, "nothing better to try");
    }

    #[test]
    fn scope_ignores_foreign_names() {
        let mut p = ScopePlugin::new(vec![n("mycdn.ciab.test")]);
        assert!(matches!(
            p.on_query(&ctx(), &q("video.mycdn.ciab.test")),
            PluginDecision::Continue
        ));
        assert!(matches!(
            p.on_query(&ctx(), &q("www.google.com")),
            PluginDecision::Ignore
        ));
    }

    #[test]
    #[should_panic(expected = "root hint")]
    fn recurse_requires_roots() {
        RecursePlugin::new(vec![]);
    }
}
