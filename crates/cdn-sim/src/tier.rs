//! Tiered cache topologies: edge → mid → far → origin.
//!
//! §3/P2 of the paper describes the CDN as tiers: the edge at the MEC,
//! *"a mid-tier running alongside the mobile network core, or a far-tier
//! running in the cloud, accessible over WAN"*. [`CdnHierarchy::build`]
//! assembles that chain: each tier's caches fill through a parent in
//! the next tier, the last tier fills from the origin, and misses ripple
//! upward exactly once thanks to request coalescing in
//! [`crate::CacheServer`].

use crate::cache::CacheServer;
use crate::content::{Catalog, ContentIndex};
use crate::origin::Origin;
use netsim::{LinkProfile, Network, NodeId};
use std::net::IpAddr;

/// One tier's shape.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Human label ("edge", "mid", "far").
    pub name: &'static str,
    /// Number of cache servers in the tier.
    pub caches: usize,
    /// Per-cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Link between this tier and its parent tier (or the origin for
    /// the last tier).
    pub uplink: LinkProfile,
}

/// A built hierarchy.
pub struct CdnHierarchy {
    /// Cache nodes per tier, index 0 = edge.
    pub tiers: Vec<Vec<NodeId>>,
    /// Cache addresses per tier.
    pub addrs: Vec<Vec<IpAddr>>,
    /// The origin node.
    pub origin: NodeId,
    /// The shared content index updated by every cache.
    pub index: ContentIndex,
}

impl CdnHierarchy {
    /// Builds `specs` tiers (index 0 = edge) over `catalog`, with each
    /// cache parented to the next tier's cache `i % parent_count`, and
    /// the deepest tier parented to a fresh origin at `origin_addr`.
    /// Tier addresses are allocated as `10.(200+tier).0.x`.
    ///
    /// # Panics
    /// Panics if `specs` is empty or any tier has zero caches.
    pub fn build(
        net: &mut Network,
        catalog: Catalog,
        origin_addr: IpAddr,
        specs: &[TierSpec],
    ) -> CdnHierarchy {
        assert!(!specs.is_empty(), "need at least one tier");
        assert!(
            specs.iter().all(|s| s.caches > 0),
            "every tier needs at least one cache"
        );
        let origin = net.add_node("origin", [origin_addr], Origin::new(catalog));
        let index = ContentIndex::new();

        // Build from the deepest tier toward the edge so parents exist.
        let mut tiers_rev: Vec<Vec<NodeId>> = Vec::new();
        let mut addrs_rev: Vec<Vec<IpAddr>> = Vec::new();
        for (depth_from_far, (tier_idx, spec)) in specs.iter().enumerate().rev().enumerate() {
            let _ = depth_from_far;
            let parent_addrs: Option<&Vec<IpAddr>> = addrs_rev.last();
            let mut nodes = Vec::new();
            let mut addrs = Vec::new();
            for i in 0..spec.caches {
                let addr: IpAddr = format!("10.{}.0.{}", 200 + tier_idx, 10 + i)
                    .parse()
                    .expect("tier address");
                let parent = match parent_addrs {
                    Some(parents) => parents[i % parents.len()],
                    None => origin_addr,
                };
                let node = net.add_node(
                    &format!("{}-cache-{i}", spec.name),
                    [addr],
                    CacheServer::new(addr, spec.capacity_bytes, Some(parent))
                        .with_index(index.clone()),
                );
                // Uplink to the parent node.
                let parent_node = net.node_by_addr(parent).expect("parent was just created");
                net.connect(node, parent_node, spec.uplink.clone());
                net.add_default_route(node, parent_node);
                nodes.push(node);
                addrs.push(addr);
            }
            tiers_rev.push(nodes);
            addrs_rev.push(addrs);
        }
        tiers_rev.reverse();
        addrs_rev.reverse();
        CdnHierarchy {
            tiers: tiers_rev,
            addrs: addrs_rev,
            origin,
            index,
        }
    }

    /// The edge tier's cache addresses (what a Traffic Router serves).
    pub fn edge_addrs(&self) -> &[IpAddr] {
        &self.addrs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CdnMsg, CONTENT_PORT};
    use netsim::{Datagram, Latency, NodeBehavior, NodeContext, SimDuration, TimerToken};

    fn specs() -> Vec<TierSpec> {
        vec![
            TierSpec {
                name: "edge",
                caches: 2,
                capacity_bytes: 1 << 20,
                uplink: LinkProfile::with_latency(Latency::ConstantMs(5.0)),
            },
            TierSpec {
                name: "mid",
                caches: 1,
                capacity_bytes: 1 << 22,
                uplink: LinkProfile::with_latency(Latency::ConstantMs(20.0)),
            },
        ]
    }

    struct Fetcher {
        target: IpAddr,
        key: String,
        times: Vec<u64>,
        latencies_ms: Vec<f64>,
        sent_at: Option<netsim::SimTime>,
    }
    impl NodeBehavior for Fetcher {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for (i, &t) in self.times.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(t), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
            self.sent_at = Some(ctx.now());
            ctx.send(
                self.target,
                CONTENT_PORT,
                CdnMsg::Get {
                    key: self.key.clone(),
                }
                .encode(),
            );
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if matches!(CdnMsg::decode(&dgram.payload), Some(CdnMsg::Data { .. })) {
                let s = self.sent_at.expect("in flight");
                self.latencies_ms.push((ctx.now() - s).as_millis_f64());
            }
        }
    }

    #[test]
    fn builds_the_requested_shape() {
        let mut net = Network::new(1);
        let catalog = Catalog::new();
        catalog.add("k", 1000);
        let h = CdnHierarchy::build(
            &mut net,
            catalog,
            "198.51.100.80".parse().unwrap(),
            &specs(),
        );
        assert_eq!(h.tiers.len(), 2);
        assert_eq!(h.tiers[0].len(), 2);
        assert_eq!(h.tiers[1].len(), 1);
        assert_eq!(h.edge_addrs().len(), 2);
    }

    #[test]
    fn miss_ripples_to_origin_then_each_tier_serves_warm() {
        let mut net = Network::new(2);
        let catalog = Catalog::new();
        catalog.add("movie/seg", 10_000);
        let h = CdnHierarchy::build(
            &mut net,
            catalog,
            "198.51.100.80".parse().unwrap(),
            &specs(),
        );
        let edge0 = h.edge_addrs()[0];
        let edge1 = h.edge_addrs()[1];
        // Client fetches through edge-0 twice, then edge-1 once.
        let client = net.add_node(
            "client",
            ["172.16.0.9".parse::<IpAddr>().unwrap()],
            Fetcher {
                target: edge0,
                key: "movie/seg".into(),
                times: vec![0, 1000],
                latencies_ms: vec![],
                sent_at: None,
            },
        );
        let edge0_node = net.node_by_addr(edge0).unwrap();
        net.connect(
            client,
            edge0_node,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        let client2 = net.add_node(
            "client2",
            ["172.16.0.10".parse::<IpAddr>().unwrap()],
            Fetcher {
                target: edge1,
                key: "movie/seg".into(),
                times: vec![2000],
                latencies_ms: vec![],
                sent_at: None,
            },
        );
        let edge1_node = net.node_by_addr(edge1).unwrap();
        net.connect(
            client2,
            edge1_node,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();

        let c1 = &net.behavior::<Fetcher>(client).latencies_ms;
        assert_eq!(c1.len(), 2);
        // Cold: client→edge(1) + edge→mid(5) + mid→origin(20) round
        // trips ≈ 52 ms. Warm at edge: ≈ 2 ms.
        assert!(c1[0] > 50.0, "cold fetch {} too fast", c1[0]);
        assert!(c1[1] < 5.0, "warm fetch {} too slow", c1[1]);
        // The second edge misses locally but hits the *mid* tier, so it
        // pays edge+mid, not the origin WAN.
        let c2 = &net.behavior::<Fetcher>(client2).latencies_ms;
        assert_eq!(c2.len(), 1);
        assert!(
            c2[0] > 10.0 && c2[0] < 20.0,
            "mid-tier hit expected: {}",
            c2[0]
        );
        // The index saw every fill.
        assert_eq!(h.index.holders("movie/seg").len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_specs_rejected() {
        let mut net = Network::new(3);
        CdnHierarchy::build(
            &mut net,
            Catalog::new(),
            "198.51.100.80".parse().unwrap(),
            &[],
        );
    }
}
