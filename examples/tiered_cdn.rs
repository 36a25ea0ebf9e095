//! The CDN tier story of §3/P2: an edge tier at the MEC, a mid tier by
//! the core, a far tier in the cloud — misses ripple upward once, and
//! the Traffic Router refers domains that are not at the edge to the
//! next tier's C-DNS.
//!
//! ```text
//! cargo run --example tiered_cdn
//! ```

use cdn_sim::protocol::{CdnMsg, CONTENT_PORT};
use cdn_sim::{Catalog, CdnHierarchy, TierSpec};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, SimDuration, TimerToken,
};
use std::net::IpAddr;

struct Viewer {
    edge: IpAddr,
    keys: Vec<String>,
    next: usize,
    sent: Option<netsim::SimTime>,
    report: Vec<(String, f64)>,
}

impl NodeBehavior for Viewer {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
        if self.next >= self.keys.len() {
            return;
        }
        let key = self.keys[self.next].clone();
        self.next += 1;
        self.sent = Some(ctx.now());
        ctx.send(self.edge, CONTENT_PORT, CdnMsg::Get { key }.encode());
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        if let Some(CdnMsg::Data { key, .. }) = CdnMsg::decode(&dgram.payload) {
            let latency = (ctx.now() - self.sent.unwrap()).as_millis_f64();
            self.report.push((key, latency));
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }
}

fn main() {
    let mut net = Network::new(42);
    let catalog = Catalog::new();
    for i in 0..4 {
        catalog.add(&format!("vod/ep-{i}"), 150_000);
    }
    let hierarchy = CdnHierarchy::build(
        &mut net,
        catalog.clone(),
        "198.51.100.80".parse().unwrap(),
        &[
            TierSpec {
                name: "edge",
                caches: 2,
                capacity_bytes: 400_000, // holds ~2 episodes: eviction visible
                uplink: LinkProfile::with_latency(Latency::UniformMs(4.0, 6.0)),
            },
            TierSpec {
                name: "mid",
                caches: 1,
                capacity_bytes: 4 << 20,
                uplink: LinkProfile::with_latency(Latency::UniformMs(18.0, 22.0)),
            },
        ],
    );
    println!(
        "built {} edge caches -> 1 mid cache -> origin (40ms uplinks total)",
        hierarchy.edge_addrs().len()
    );

    // Watch the same episode list twice through edge cache 0.
    let keys: Vec<String> = catalog.keys();
    let mut playlist = keys.clone();
    playlist.extend(keys.clone());
    let viewer = net.add_node(
        "viewer",
        ["172.16.0.9".parse::<IpAddr>().unwrap()],
        Viewer {
            edge: hierarchy.edge_addrs()[0],
            keys: playlist,
            next: 0,
            sent: None,
            report: vec![],
        },
    );
    let edge_node = net.node_by_addr(hierarchy.edge_addrs()[0]).unwrap();
    net.connect(
        viewer,
        edge_node,
        LinkProfile::with_latency(Latency::UniformMs(0.8, 1.2)),
    );
    net.run();

    println!("\n{:<12} {:>12}  source", "object", "latency(ms)");
    for (key, ms) in &net.behavior::<Viewer>(viewer).report {
        let source = if *ms < 5.0 {
            "edge hit"
        } else if *ms < 30.0 {
            "mid-tier fill"
        } else {
            "origin fill"
        };
        println!("{key:<12} {ms:>12.1}  {source}");
    }
    println!(
        "\nsecond pass mixes edge hits with re-fills: the 400kB edge cache \
         only holds two episodes, so the LRU churns — capacity planning matters \
         as much as placement."
    );
}
