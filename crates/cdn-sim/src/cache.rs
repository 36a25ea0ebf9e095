//! Cache servers: byte-bounded LRU with fill-through to a parent tier.

use crate::content::ContentIndex;
use crate::protocol::{CdnMsg, CONTENT_PORT};
use netsim::{Datagram, NodeBehavior, NodeContext};
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;

/// An LRU object store bounded by total bytes.
#[derive(Debug)]
struct LruStore {
    capacity_bytes: u64,
    used_bytes: u64,
    /// key → (size, last-use counter). Ordered map so LRU-tick ties
    /// evict the lexicographically first key, not a hash-order one.
    objects: BTreeMap<String, (u32, u64)>,
    tick: u64,
}

impl LruStore {
    fn new(capacity_bytes: u64) -> Self {
        LruStore {
            capacity_bytes,
            used_bytes: 0,
            objects: BTreeMap::new(),
            tick: 0,
        }
    }

    fn touch(&mut self, key: &str) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        self.objects.get_mut(key).map(|(size, last)| {
            *last = tick;
            *size
        })
    }

    /// Inserts, evicting LRU objects as needed. Returns evicted keys.
    fn insert(&mut self, key: String, size: u32) -> Vec<String> {
        let mut evicted = Vec::new();
        if u64::from(size) > self.capacity_bytes {
            return evicted; // object larger than the cache: don't store
        }
        if let Some((old, _)) = self.objects.remove(&key) {
            self.used_bytes -= u64::from(old);
        }
        while self.used_bytes + u64::from(size) > self.capacity_bytes {
            let victim = self
                .objects
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k.clone())
                .expect("used_bytes > 0 implies an object exists");
            let (vsize, _) = self.objects.remove(&victim).unwrap();
            self.used_bytes -= u64::from(vsize);
            evicted.push(victim);
        }
        self.tick += 1;
        self.objects.insert(key, (size, self.tick));
        self.used_bytes += u64::from(size);
        evicted
    }
}

/// A CDN cache server node.
///
/// On a hit it answers immediately; on a miss it fetches from `parent`
/// (another cache tier or the origin), stores the object, updates the
/// shared [`ContentIndex`], and then answers every client waiting on
/// that object (request coalescing). With no parent, misses answer MISS.
pub struct CacheServer {
    addr: IpAddr,
    store: LruStore,
    parent: Option<IpAddr>,
    index: Option<ContentIndex>,
    /// Clients waiting per in-flight key.
    waiting: HashMap<String, Vec<Datagram>>,
    /// Cache hits served.
    pub hits: u64,
    /// Misses (triggering a parent fetch or MISS reply).
    pub misses: u64,
    /// Objects evicted over the lifetime.
    pub evictions: u64,
}

impl CacheServer {
    /// A cache at `addr` with the given byte capacity.
    pub fn new(addr: IpAddr, capacity_bytes: u64, parent: Option<IpAddr>) -> Self {
        CacheServer {
            addr,
            store: LruStore::new(capacity_bytes),
            parent,
            index: None,
            waiting: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Publishes fills/evictions to a shared content index (builder
    /// style).
    pub fn with_index(mut self, index: ContentIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.store.used_bytes
    }

    fn answer(&mut self, ctx: &mut NodeContext<'_>, request: &Datagram, key: String, size: u32) {
        let reply = CdnMsg::Data { key, size };
        ctx.send_datagram(request.reply_with(reply.encode()));
    }

    fn store_object(&mut self, key: &str, size: u32) {
        let evicted = self.store.insert(key.to_string(), size);
        self.evictions += evicted.len() as u64;
        if let Some(index) = &self.index {
            for victim in &evicted {
                index.remove(victim, self.addr);
            }
            index.insert(key, self.addr);
        }
    }
}

impl NodeBehavior for CacheServer {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        match CdnMsg::decode(&dgram.payload) {
            Some(CdnMsg::Get { key }) => {
                if let Some(size) = self.store.touch(&key) {
                    self.hits += 1;
                    self.answer(ctx, &dgram, key, size);
                    return;
                }
                self.misses += 1;
                match self.parent {
                    Some(parent) => {
                        let first = !self.waiting.contains_key(&key);
                        self.waiting.entry(key.clone()).or_default().push(dgram);
                        if first {
                            ctx.send(parent, CONTENT_PORT, CdnMsg::Get { key }.encode());
                        }
                    }
                    None => {
                        ctx.send_datagram(dgram.reply_with(CdnMsg::Miss { key }.encode()));
                    }
                }
            }
            Some(CdnMsg::Data { key, size }) => {
                // Parent fill: store and drain waiters.
                self.store_object(&key, size);
                if let Some(waiters) = self.waiting.remove(&key) {
                    for w in waiters {
                        self.answer(ctx, &w, key.clone(), size);
                    }
                }
            }
            Some(CdnMsg::Miss { key }) => {
                if let Some(waiters) = self.waiting.remove(&key) {
                    for w in waiters {
                        ctx.send_datagram(w.reply_with(CdnMsg::Miss { key: key.clone() }.encode()));
                    }
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Catalog;
    use crate::origin::Origin;
    use netsim::{Latency, LinkProfile, Network, SimDuration, SimTime, TimerToken};

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    struct Fetcher {
        cache: IpAddr,
        keys: Vec<String>,
        got: Vec<(String, CdnMsg, SimDuration)>,
        sent_at: HashMap<String, SimTime>,
    }
    impl Fetcher {
        fn new(cache: IpAddr, keys: Vec<String>) -> Self {
            Fetcher {
                cache,
                keys,
                got: vec![],
                sent_at: HashMap::new(),
            }
        }
    }
    impl NodeBehavior for Fetcher {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.keys.len() {
                ctx.set_timer(SimDuration::from_millis(50 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, i: u64) {
            let key = self.keys[i as usize].clone();
            self.sent_at.insert(key.clone(), ctx.now());
            ctx.send(self.cache, CONTENT_PORT, CdnMsg::Get { key }.encode());
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if let Some(m) = CdnMsg::decode(&dgram.payload) {
                let key = match &m {
                    CdnMsg::Data { key, .. } | CdnMsg::Miss { key } | CdnMsg::Get { key } => {
                        key.clone()
                    }
                };
                let rtt = ctx.now() - self.sent_at[&key];
                self.got.push((key, m, rtt));
            }
        }
    }

    /// client —1ms— cache —20ms— origin
    fn build(keys: Vec<&str>, capacity: u64) -> (Network, netsim::NodeId, netsim::NodeId) {
        let catalog = Catalog::new();
        catalog.add("a", 1000);
        catalog.add("b", 1000);
        catalog.add("big", 4000);
        let mut net = Network::new(3);
        let origin = net.add_node("origin", [ip("10.0.0.1")], Origin::new(catalog));
        let cache = net.add_node(
            "cache",
            [ip("10.0.0.2")],
            CacheServer::new(ip("10.0.0.2"), capacity, Some(ip("10.0.0.1"))),
        );
        let client = net.add_node(
            "client",
            [ip("10.0.0.3")],
            Fetcher::new(ip("10.0.0.2"), keys.into_iter().map(String::from).collect()),
        );
        net.connect(
            cache,
            origin,
            LinkProfile::with_latency(Latency::ConstantMs(20.0)),
        );
        net.connect(
            client,
            cache,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        (net, client, cache)
    }

    #[test]
    fn miss_fills_from_origin_then_hits_locally() {
        let (mut net, client, cache) = build(vec!["a", "a"], 10_000);
        net.run();
        let got = &net.behavior::<Fetcher>(client).got;
        assert_eq!(got.len(), 2);
        // First fetch pays the origin round trip (>40 ms), second is ~2 ms.
        assert!(got[0].2.as_millis_f64() > 40.0);
        assert!(got[1].2.as_millis_f64() < 5.0);
        let c = net.behavior::<CacheServer>(cache);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.used_bytes(), 1000);
    }

    #[test]
    fn eviction_under_capacity_pressure_updates_index() {
        let catalog = Catalog::new();
        catalog.add("a", 1000);
        catalog.add("b", 1000);
        let index = ContentIndex::new();
        let mut net = Network::new(4);
        let origin = net.add_node("origin", [ip("10.0.0.1")], Origin::new(catalog));
        let cache = net.add_node(
            "cache",
            [ip("10.0.0.2")],
            CacheServer::new(ip("10.0.0.2"), 1500, Some(ip("10.0.0.1"))).with_index(index.clone()),
        );
        let client = net.add_node(
            "client",
            [ip("10.0.0.3")],
            Fetcher::new(ip("10.0.0.2"), vec!["a".into(), "b".into()]),
        );
        net.connect(
            cache,
            origin,
            LinkProfile::with_latency(Latency::ConstantMs(5.0)),
        );
        net.connect(
            client,
            cache,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        // Capacity 1500 holds one 1000-byte object: `a` evicted for `b`.
        let c = net.behavior::<CacheServer>(cache);
        assert_eq!(c.evictions, 1);
        assert!(index.holders("a").is_empty());
        assert_eq!(index.holders("b"), vec![ip("10.0.0.2")]);
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_parent_fetch() {
        struct Burst {
            cache: IpAddr,
            replies: usize,
        }
        impl NodeBehavior for Burst {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                for _ in 0..3 {
                    ctx.send(
                        self.cache,
                        CONTENT_PORT,
                        CdnMsg::Get { key: "a".into() }.encode(),
                    );
                }
            }
            fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _d: Datagram) {
                self.replies += 1;
            }
        }
        let catalog = Catalog::new();
        catalog.add("a", 1000);
        let mut net = Network::new(5);
        let origin_node = net.add_node("origin", [ip("10.0.0.1")], Origin::new(catalog));
        let cache = net.add_node(
            "cache",
            [ip("10.0.0.2")],
            CacheServer::new(ip("10.0.0.2"), 10_000, Some(ip("10.0.0.1"))),
        );
        let client = net.add_node(
            "client",
            [ip("10.0.0.3")],
            Burst {
                cache: ip("10.0.0.2"),
                replies: 0,
            },
        );
        net.connect(
            cache,
            origin_node,
            LinkProfile::with_latency(Latency::ConstantMs(5.0)),
        );
        net.connect(
            client,
            cache,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        assert_eq!(net.behavior::<Burst>(client).replies, 3);
        assert_eq!(
            net.behavior::<Origin>(origin_node).served,
            1,
            "fetches must coalesce"
        );
    }

    #[test]
    fn cache_without_parent_answers_miss() {
        let mut net = Network::new(6);
        let cache = net.add_node(
            "cache",
            [ip("10.0.0.2")],
            CacheServer::new(ip("10.0.0.2"), 10_000, None),
        );
        let client = net.add_node(
            "client",
            [ip("10.0.0.3")],
            Fetcher::new(ip("10.0.0.2"), vec!["nope".into()]),
        );
        net.connect(
            client,
            cache,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        let got = &net.behavior::<Fetcher>(client).got;
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].1, CdnMsg::Miss { .. }));
    }

    #[test]
    fn object_bigger_than_cache_is_served_but_not_stored() {
        let (mut net, client, cache) = build(vec!["big", "big"], 2000);
        net.run();
        let got = &net.behavior::<Fetcher>(client).got;
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0].1, CdnMsg::Data { .. }));
        let c = net.behavior::<CacheServer>(cache);
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.misses, 2, "both requests must miss");
    }
}
