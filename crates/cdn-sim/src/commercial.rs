//! The commercial multi-CDN routing model behind Figures 2 and 3.
//!
//! §2's measurements show that for a fixed CDN domain queried from one
//! geographic location, the answering cache server's CIDR range varies
//! *by access network* (Figure 3) — Akamai, Fastly and CloudFront pools
//! appear with different frequencies over campus wired, home Wi-Fi and
//! cellular paths. The paper hypothesises (§2/Q3) that this comes from
//! per-resolver load-balancing decisions, cascading CNAMEs and broker
//! indirection, all opaque to the client.
//!
//! [`MultiCdnRouter`] reproduces the *mechanism*: for each (domain,
//! querying resolver) pair it holds a weighted set of provider CIDR
//! pools and rotates deterministically through them (smooth weighted
//! round-robin), so the distribution of answers per resolver converges
//! to the configured weights — the knobs Figure 3's per-network
//! percentages map onto.

use dns_server::{Plugin, PluginDecision, QueryCtx};
use dns_wire::{Message, Name, NameId, RData, Rcode, Record, RrClass, RrType};
use netsim::Cidr;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr};

/// One provider pool with a selection weight.
#[derive(Debug, Clone)]
pub struct PoolChoice {
    /// Human-readable provider ("Akamai", "Fastly", …).
    pub provider: &'static str,
    /// The pool's CIDR — the classification unit of Figure 3.
    pub pool: Cidr,
    /// Relative selection weight (per-resolver percentages).
    pub weight: f64,
}

impl PoolChoice {
    /// Creates a choice.
    pub fn new(provider: &'static str, pool: &str, weight: f64) -> Self {
        PoolChoice {
            provider,
            pool: pool.parse().expect("valid pool CIDR"),
            weight,
        }
    }
}

#[derive(Debug)]
struct WeightedState {
    choices: Vec<PoolChoice>,
    /// Smooth weighted round-robin accumulators.
    current: Vec<f64>,
}

impl WeightedState {
    fn new(choices: Vec<PoolChoice>) -> Self {
        let n = choices.len();
        WeightedState {
            choices,
            current: vec![0.0; n],
        }
    }

    /// Nginx-style smooth WRR: deterministic, and over N picks the
    /// frequencies match the weights exactly in the limit.
    fn pick(&mut self) -> usize {
        let total: f64 = self.choices.iter().map(|c| c.weight).sum();
        let mut best = 0;
        for i in 0..self.choices.len() {
            self.current[i] += self.choices[i].weight;
            if self.current[i] > self.current[best] {
                best = i;
            }
        }
        self.current[best] -= total;
        best
    }
}

/// The commercial C-DNS: per-(domain, resolver) weighted pool rotation.
pub struct MultiCdnRouter {
    /// (interned domain, resolver addr) → weighted pools. Ordered map:
    /// `classify` walks it, and the most-specific-pool tie-break must
    /// not depend on hash order.
    per_resolver: BTreeMap<(NameId, IpAddr), WeightedState>,
    /// Interned domain → default pools (resolvers with no override).
    defaults: BTreeMap<NameId, Vec<PoolChoice>>,
    /// Instantiated default states per (domain, resolver).
    instantiated: BTreeMap<(NameId, IpAddr), WeightedState>,
    /// Answer TTL. Commercial CDN A records are short-lived.
    pub ttl: u32,
    counter: u64,
}

impl MultiCdnRouter {
    /// An empty router.
    pub fn new() -> Self {
        MultiCdnRouter {
            per_resolver: BTreeMap::new(),
            defaults: BTreeMap::new(),
            instantiated: BTreeMap::new(),
            ttl: 30,
            counter: 0,
        }
    }

    /// Sets the pool weights a specific resolver sees for `domain` —
    /// how the per-access-network distributions of Figure 3 are wired.
    pub fn set_policy(&mut self, domain: &Name, resolver: IpAddr, pools: Vec<PoolChoice>) {
        assert!(!pools.is_empty(), "policy needs at least one pool");
        self.per_resolver
            .insert((domain.id(), resolver), WeightedState::new(pools));
    }

    /// Sets the default pools for `domain` (any other resolver).
    pub fn set_default(&mut self, domain: &Name, pools: Vec<PoolChoice>) {
        assert!(!pools.is_empty(), "policy needs at least one pool");
        self.defaults.insert(domain.id(), pools);
    }

    /// Classifies an answer address into its provider pool, if known.
    pub fn classify(&self, domain: &Name, addr: Ipv4Addr) -> Option<(&'static str, Cidr)> {
        let key = domain.id();
        let all = self
            .per_resolver
            .iter()
            .filter(|((d, _), _)| *d == key)
            .flat_map(|(_, s)| s.choices.iter())
            .chain(self.defaults.get(&key).into_iter().flatten());
        // Most specific matching pool wins (Akamai /24 inside the /8).
        all.filter(|c| c.pool.contains(IpAddr::V4(addr)))
            .max_by_key(|c| c.pool.prefix_len())
            .map(|c| (c.provider, c.pool))
    }
}

impl Default for MultiCdnRouter {
    fn default() -> Self {
        MultiCdnRouter::new()
    }
}

impl Plugin for MultiCdnRouter {
    fn name(&self) -> &'static str {
        "multi-cdn"
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        let Some(q) = query.question() else {
            return PluginDecision::Continue;
        };
        // A name nobody configured was never interned: alloc-free reject.
        let Some(qid) = q.qname.lookup_id() else {
            return PluginDecision::Continue;
        };
        let key = (qid, ctx.client);
        // Single lookup: a specific per-resolver policy wins; otherwise
        // lazily instantiate the domain default for this resolver. The
        // picked choice is copied out so neither map borrow outlives the
        // match (`Cidr` is `Copy`, the provider is `&'static`).
        let (provider, pool) = match self.per_resolver.get_mut(&key) {
            Some(state) => {
                let idx = state.pick();
                (state.choices[idx].provider, state.choices[idx].pool)
            }
            None => {
                let Some(defaults) = self.defaults.get(&key.0) else {
                    return PluginDecision::Continue;
                };
                let defaults = defaults.clone();
                let state = self
                    .instantiated
                    .entry(key)
                    .or_insert_with(|| WeightedState::new(defaults));
                let idx = state.pick();
                (state.choices[idx].provider, state.choices[idx].pool)
            }
        };
        ctx.telemetry.incr("cdns.multi.answer");
        ctx.telemetry.mark(
            u64::from(query.header.id),
            ctx.now,
            "cdns.pool_select",
            || format!("{provider} {pool}"),
        );
        // Address within the pool: rotate deterministically so repeated
        // answers exercise several cache hosts per range.
        let mut h = DefaultHasher::new();
        // Digest-identical to `canonical().hash(&h)` without building the
        // string — the selected address (an experiment output) depends on
        // this hash, so the stream must match byte for byte.
        q.qname.hash_canonical(&mut h);
        self.counter.hash(&mut h);
        self.counter += 1;
        let addr = match pool.nth_host(h.finish() % 512) {
            IpAddr::V4(v4) => v4,
            IpAddr::V6(_) => return PluginDecision::Continue, // v4-only model
        };
        let mut resp = Message::response_to(query);
        resp.header.authoritative = true;
        if q.qtype == RrType::A {
            resp.answers.push(Record::new(
                q.qname.clone(),
                RrClass::In,
                self.ttl,
                RData::A(addr),
            ));
        } else {
            resp.header.rcode = Rcode::NoError; // NoData for other types
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

    fn ask(r: &mut MultiCdnRouter, name: &str, resolver: &str) -> Ipv4Addr {
        let q = Message::query(1, n(name), RrType::A);
        match r.on_query(&ctx_from(resolver), &q) {
            PluginDecision::Respond(resp) => resp.answer_a_addrs()[0],
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn weights_converge_to_configured_distribution() {
        let mut r = MultiCdnRouter::new();
        let domain = n("q-cf.bstatic.com");
        r.set_policy(
            &domain,
            "10.1.0.1".parse().unwrap(),
            vec![
                PoolChoice::new("CloudFront", "13.249.0.0/16", 0.75),
                PoolChoice::new("CloudFront", "54.230.0.0/16", 0.25),
            ],
        );
        let mut counts: BTreeMap<&'static str, u32> = BTreeMap::new();
        let pool_a: Cidr = "13.249.0.0/16".parse().unwrap();
        for _ in 0..100 {
            let a = ask(&mut r, "q-cf.bstatic.com", "10.1.0.1");
            let label = if pool_a.contains(IpAddr::V4(a)) { "a" } else { "b" };
            *counts.entry(label).or_insert(0) += 1;
        }
        assert_eq!(counts["a"], 75);
        assert_eq!(counts["b"], 25);
    }

    #[test]
    fn different_resolvers_see_different_distributions() {
        let mut r = MultiCdnRouter::new();
        let domain = n("static.tacdn.com");
        r.set_policy(
            &domain,
            "10.1.0.1".parse().unwrap(), // campus resolver
            vec![PoolChoice::new("Fastly", "151.101.0.0/16", 1.0)],
        );
        r.set_policy(
            &domain,
            "10.2.0.1".parse().unwrap(), // cellular resolver
            vec![PoolChoice::new("Akamai", "23.0.0.0/8", 1.0)],
        );
        let fastly: Cidr = "151.101.0.0/16".parse().unwrap();
        let akamai: Cidr = "23.0.0.0/8".parse().unwrap();
        for _ in 0..10 {
            assert!(fastly.contains(IpAddr::V4(ask(&mut r, "static.tacdn.com", "10.1.0.1"))));
            assert!(akamai.contains(IpAddr::V4(ask(&mut r, "static.tacdn.com", "10.2.0.1"))));
        }
    }

    #[test]
    fn default_policy_covers_unknown_resolvers() {
        let mut r = MultiCdnRouter::new();
        let domain = n("cdn0.agoda.net");
        r.set_default(
            &domain,
            vec![PoolChoice::new("Akamai", "23.55.124.0/24", 1.0)],
        );
        let pool: Cidr = "23.55.124.0/24".parse().unwrap();
        assert!(pool.contains(IpAddr::V4(ask(&mut r, "cdn0.agoda.net", "192.0.2.99"))));
    }

    #[test]
    fn unknown_domain_falls_through() {
        let mut r = MultiCdnRouter::new();
        let q = Message::query(1, n("unknown.example"), RrType::A);
        assert!(matches!(
            r.on_query(&ctx_from("1.1.1.1"), &q),
            PluginDecision::Continue
        ));
    }

    #[test]
    fn classify_picks_most_specific_pool() {
        let mut r = MultiCdnRouter::new();
        let domain = n("cdn0.agoda.net");
        r.set_default(
            &domain,
            vec![
                PoolChoice::new("Akamai", "23.0.0.0/8", 0.5),
                PoolChoice::new("Akamai-site", "23.55.124.0/24", 0.5),
            ],
        );
        let (provider, pool) = r
            .classify(&domain, Ipv4Addr::new(23, 55, 124, 9))
            .unwrap();
        assert_eq!(provider, "Akamai-site");
        assert_eq!(pool, "23.55.124.0/24".parse().unwrap());
        let (provider, _) = r.classify(&domain, Ipv4Addr::new(23, 9, 9, 9)).unwrap();
        assert_eq!(provider, "Akamai");
        assert!(r.classify(&domain, Ipv4Addr::new(151, 101, 0, 1)).is_none());
    }

    #[test]
    fn answers_rotate_within_a_pool() {
        let mut r = MultiCdnRouter::new();
        let domain = n("a0.muscache.com");
        r.set_default(
            &domain,
            vec![PoolChoice::new("Fastly", "151.101.0.0/16", 1.0)],
        );
        let a = ask(&mut r, "a0.muscache.com", "9.9.9.9");
        let b = ask(&mut r, "a0.muscache.com", "9.9.9.9");
        assert_ne!(a, b, "pool rotation should vary the host");
    }
}
