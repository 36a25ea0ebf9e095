//! The Traffic Router: ATC's C-DNS, as a `dns-server` plugin.

use crate::content::ContentIndex;
use crate::geo::{GeoDb, SiteId};
use dns_server::{Plugin, PluginDecision, QueryCtx};
use dns_wire::{ClientSubnet, Message, Name, Opt, RData, Rcode, Record, RrClass, RrType};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::net::{IpAddr, Ipv4Addr};

/// Cache-selection strategy.
pub enum Selection {
    /// Rotate through the cache list.
    RoundRobin,
    /// Hash the queried name onto a cache — stable content → cache
    /// affinity, ATC's default-ish behaviour.
    ConsistentHash,
    /// Pick the cache this router has assigned least often.
    LeastAssigned,
    /// Geo-proximity: locate the client (ECS address when present,
    /// otherwise the querying resolver — which behind a P-GW NAT is the
    /// gateway, with all the inaccuracy §1 describes) and prefer caches
    /// at that site.
    Geo {
        /// The (imperfect) IP → site database.
        db: GeoDb,
        /// Site of each cache.
        cache_sites: HashMap<IpAddr, SiteId>,
    },
}

/// The C-DNS. Answers A queries for its hosted domains with a cache
/// address; refers other domains under its CDN suffix to the next tier.
pub struct TrafficRouterPlugin {
    /// The CDN's whole namespace (e.g. `mycdn.ciab.test`).
    suffix: Name,
    /// Domains hosted at *this* tier (e.g. `video.demo1.mycdn.ciab.test`).
    hosted: Vec<Name>,
    /// Cache servers at this tier (IPv4: the testbed's family).
    caches: Vec<Ipv4Addr>,
    selection: Selection,
    /// Optional live content index for content-affine selection.
    index: Option<ContentIndex>,
    /// Next-tier C-DNS for domains not hosted here.
    fallback: Option<IpAddr>,
    /// Answer TTL.
    pub ttl: u32,
    rr_counter: u64,
    assigned: HashMap<Ipv4Addr, u64>,
    /// Queries answered with a cache address.
    pub answered: u64,
    /// Queries referred to the next tier.
    pub referred: u64,
}

impl TrafficRouterPlugin {
    /// A router for `suffix`, hosting `hosted` domains on `caches`.
    pub fn new(
        suffix: Name,
        hosted: Vec<Name>,
        caches: Vec<Ipv4Addr>,
        selection: Selection,
    ) -> Self {
        assert!(!caches.is_empty(), "a traffic router needs cache servers");
        TrafficRouterPlugin {
            suffix,
            hosted,
            caches,
            selection,
            index: None,
            fallback: None,
            ttl: 30,
            rr_counter: 0,
            assigned: HashMap::new(),
            answered: 0,
            referred: 0,
        }
    }

    /// Content-affine selection from a shared index (builder style).
    pub fn with_index(mut self, index: ContentIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Next-tier C-DNS for non-hosted domains (builder style).
    pub fn with_fallback(mut self, fallback: IpAddr) -> Self {
        self.fallback = Some(fallback);
        self
    }

    fn is_hosted(&self, qname: &Name) -> bool {
        self.hosted.iter().any(|d| qname.is_subdomain_of(d))
    }

    /// Picks a cache for `qname` on behalf of `client`.
    // detlint: allow-item(hot-index, hot-panic) — every indexing and
    // unwrap here is `x % candidates.len()`-style over a non-empty
    // candidate list: the router is constructed with at least one cache
    // and `holding` falls back to the full list when empty.
    fn select(&mut self, qname: &Name, client: IpAddr) -> Ipv4Addr {
        // Content affinity first: caches already holding objects of this
        // domain keep getting it (better hit rate, the P2 requirement).
        let holding: Vec<Ipv4Addr> = match &self.index {
            Some(index) => {
                let prefix = format!("{qname}/");
                let holders = index.domain_holders(&prefix);
                self.caches
                    .iter()
                    .copied()
                    .filter(|c| holders.contains(&IpAddr::V4(*c)))
                    .collect()
            }
            None => Vec::new(),
        };
        // Borrow the cache list in place — no clone per query when no
        // content affinity applies (the common, index-less path).
        let candidates: &[Ipv4Addr] = if holding.is_empty() {
            &self.caches
        } else {
            &holding
        };
        let pick = match &self.selection {
            Selection::RoundRobin => candidates[(self.rr_counter as usize) % candidates.len()],
            Selection::ConsistentHash => {
                let mut h = DefaultHasher::new();
                // Digest-identical to hashing `canonical()` — the chosen
                // cache is an experiment output.
                qname.hash_canonical(&mut h);
                candidates[(h.finish() as usize) % candidates.len()]
            }
            Selection::LeastAssigned => *candidates
                .iter()
                .min_by_key(|c| self.assigned.get(c).copied().unwrap_or(0))
                .unwrap(),
            Selection::Geo { db, cache_sites } => {
                let site = db.locate(client);
                let is_local = |c: &Ipv4Addr| cache_sites.get(&IpAddr::V4(*c)) == Some(&site);
                let local_n = candidates.iter().copied().filter(|c| is_local(c)).count();
                let mut h = DefaultHasher::new();
                qname.hash_canonical(&mut h);
                if local_n == 0 {
                    candidates[(h.finish() as usize) % candidates.len()]
                } else {
                    candidates
                        .iter()
                        .copied()
                        .filter(|c| is_local(c))
                        .nth((h.finish() as usize) % local_n)
                        .expect("index within filtered count")
                }
            }
        };
        if matches!(self.selection, Selection::RoundRobin) {
            self.rr_counter += 1;
        }
        *self.assigned.entry(pick).or_insert(0) += 1;
        pick
    }
}

impl Plugin for TrafficRouterPlugin {
    fn name(&self) -> &'static str {
        "traffic-router"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Continue;
        };
        if !q.qname.is_subdomain_of(&self.suffix) {
            return PluginDecision::Continue;
        }
        if !self.is_hosted(&q.qname) {
            // Not at this tier: hand the query to the next-tier C-DNS —
            // the client transparently gets a farther cache.
            self.referred += 1;
            ctx.telemetry.incr("cdns.referred");
            return match self.fallback {
                Some(upstream) => PluginDecision::Forward { upstream },
                None => {
                    PluginDecision::Respond(Message::response_to(query).with_rcode(Rcode::NxDomain))
                }
            };
        }
        let mut resp = Message::response_to(query);
        resp.header.authoritative = true;
        if q.qtype == RrType::A {
            // The "client" for selection purposes: ECS address when the
            // resolver forwarded one, else the resolver itself.
            let (client, ecs) = match query.client_subnet() {
                Some(cs) => (cs.addr, Some(*cs)),
                None => (ctx.client, None),
            };
            let cache = self.select(&q.qname, client);
            ctx.telemetry.incr("cdns.answered");
            ctx.telemetry
                .mark(u64::from(query.header.id), ctx.now, "cdns.select", || {
                    cache.to_string()
                });
            resp.answers.push(Record::new(
                q.qname.clone(),
                RrClass::In,
                self.ttl,
                RData::A(cache),
            ));
            // Scope the answer to the prefix we actually used (RFC 7871).
            if let Some(cs) = ecs {
                resp.edns = Some(Opt::with_client_subnet(ClientSubnet {
                    scope_prefix: cs.source_prefix,
                    ..cs
                }));
            }
            self.answered += 1;
        }
        PluginDecision::Respond(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ctx_from(client: &str) -> QueryCtx {
        QueryCtx {
            now: SimTime::ZERO,
            client: client.parse().unwrap(),
            client_port: 40000,
            telemetry: netsim::Telemetry::default(),
        }
    }

    fn caches() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::new(10, 0, 0, 11),
            Ipv4Addr::new(10, 0, 0, 12),
            Ipv4Addr::new(10, 0, 0, 13),
        ]
    }

    fn router(selection: Selection) -> TrafficRouterPlugin {
        TrafficRouterPlugin::new(
            n("mycdn.ciab.test"),
            vec![n("video.demo1.mycdn.ciab.test")],
            caches(),
            selection,
        )
    }

    fn ask(r: &mut TrafficRouterPlugin, name: &str, client: &str) -> Option<Ipv4Addr> {
        let q = Message::query(1, n(name), RrType::A);
        match r.on_query(&ctx_from(client), &q) {
            PluginDecision::Respond(resp) => resp.answer_a_addrs().first().copied(),
            _ => None,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = router(Selection::RoundRobin);
        let a = ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap();
        let b = ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap();
        let c = ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap();
        let d = ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, d, "period 3 rotation");
    }

    #[test]
    fn consistent_hash_is_stable_per_name() {
        let mut r = router(Selection::ConsistentHash);
        let first = ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap();
        for _ in 0..10 {
            assert_eq!(
                ask(&mut r, "video.demo1.mycdn.ciab.test", "2.2.2.2").unwrap(),
                first
            );
        }
    }

    #[test]
    fn least_assigned_balances() {
        let mut r = router(Selection::LeastAssigned);
        let mut counts: HashMap<Ipv4Addr, u32> = HashMap::new();
        for _ in 0..9 {
            *counts
                .entry(ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 3);
        assert!(counts.values().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn geo_prefers_local_site_and_ecs_address() {
        let mut db = GeoDb::new(2, 0.0);
        db.map("203.0.113.0/24".parse().unwrap(), 0);
        db.map("198.51.100.0/24".parse().unwrap(), 1);
        let mut cache_sites = HashMap::new();
        cache_sites.insert("10.0.0.11".parse::<IpAddr>().unwrap(), 0);
        cache_sites.insert("10.0.0.12".parse::<IpAddr>().unwrap(), 1);
        cache_sites.insert("10.0.0.13".parse::<IpAddr>().unwrap(), 1);
        let mut r = router(Selection::Geo { db, cache_sites });
        // Resolver in site 0 → the site-0 cache.
        assert_eq!(
            ask(&mut r, "video.demo1.mycdn.ciab.test", "203.0.113.9").unwrap(),
            Ipv4Addr::new(10, 0, 0, 11)
        );
        // Same resolver but ECS pointing at site 1 → a site-1 cache.
        let q = Message::query(1, n("video.demo1.mycdn.ciab.test"), RrType::A)
            .with_client_subnet(ClientSubnet::query("198.51.100.0".parse().unwrap(), 24));
        match r.on_query(&ctx_from("203.0.113.9"), &q) {
            PluginDecision::Respond(resp) => {
                let got = resp.answer_a_addrs()[0];
                assert_ne!(got, Ipv4Addr::new(10, 0, 0, 11));
                // Response must be scoped.
                assert_eq!(resp.client_subnet().unwrap().scope_prefix, 24);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_hosted_domain_refers_to_fallback_tier() {
        let mut r = router(Selection::RoundRobin).with_fallback("10.99.0.1".parse().unwrap());
        let q = Message::query(1, n("other.site.mycdn.ciab.test"), RrType::A);
        match r.on_query(&ctx_from("1.1.1.1"), &q) {
            PluginDecision::Forward { upstream } => {
                assert_eq!(upstream, "10.99.0.1".parse::<IpAddr>().unwrap());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.referred, 1);
    }

    #[test]
    fn non_hosted_without_fallback_is_nxdomain() {
        let mut r = router(Selection::RoundRobin);
        let q = Message::query(1, n("other.site.mycdn.ciab.test"), RrType::A);
        match r.on_query(&ctx_from("1.1.1.1"), &q) {
            PluginDecision::Respond(resp) => assert_eq!(resp.header.rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn names_outside_the_cdn_suffix_fall_through() {
        let mut r = router(Selection::RoundRobin);
        let q = Message::query(1, n("www.google.com"), RrType::A);
        assert!(matches!(
            r.on_query(&ctx_from("1.1.1.1"), &q),
            PluginDecision::Continue
        ));
    }

    #[test]
    fn content_affinity_prefers_holding_caches() {
        let index = ContentIndex::new();
        index.insert(
            "video.demo1.mycdn.ciab.test./seg-1",
            "10.0.0.12".parse().unwrap(),
        );
        let mut r = router(Selection::RoundRobin).with_index(index);
        for _ in 0..5 {
            assert_eq!(
                ask(&mut r, "video.demo1.mycdn.ciab.test", "1.1.1.1").unwrap(),
                Ipv4Addr::new(10, 0, 0, 12),
                "router must stick to the cache that has the content"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs cache servers")]
    fn empty_cache_list_rejected() {
        TrafficRouterPlugin::new(n("x.test"), vec![], vec![], Selection::RoundRobin);
    }
}
