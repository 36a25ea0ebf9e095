//! Edge video delivery: the end-to-end flow the paper's intro motivates
//! — resolve the CDN domain at the MEC, then stream segments from the
//! edge cache, comparing cold (origin fill over the WAN) and warm (edge
//! hit) segment fetch times.
//!
//! ```text
//! cargo run --example edge_video
//! ```

use cdn_sim::{FetchEngine, FetchOutcome};
use dns_server::{SendStrategy, StubEngine};
use dns_wire::{Name, RrType};
use mec_cdn::{Deployment, DeploymentKind, TestbedConfig};
use netsim::{Datagram, NodeBehavior, NodeContext, SimDuration, TimerToken};
use std::net::IpAddr;

/// A video player: one DNS lookup, then sequential segment fetches.
struct Player {
    resolver: IpAddr,
    dns: StubEngine,
    fetch: FetchEngine,
    cache: Option<IpAddr>,
    segments: Vec<String>,
    next_segment: usize,
}

impl NodeBehavior for Player {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        // Give the LTE attach procedure time to finish.
        ctx.set_timer(SimDuration::from_millis(200), 1);
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if StubEngine::owns_timer(data) {
            self.dns.on_timer(ctx, data);
            return;
        }
        let name = Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap();
        self.dns.issue(
            ctx,
            name,
            RrType::A,
            SendStrategy::Unicast(self.resolver),
            None,
            0,
        );
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        if let Some(outcome) = self.dns.on_datagram(ctx, &dgram) {
            let cache = IpAddr::V4(outcome.addrs[0]);
            println!(
                "DNS: {} -> {cache} in {:.1} ms",
                outcome.name,
                outcome.rtt.as_millis_f64()
            );
            self.cache = Some(cache);
            let key = self.segments[self.next_segment].clone();
            self.fetch.fetch(ctx, cache, &key, self.next_segment as u64);
            return;
        }
        if let Some(done) = self.fetch.on_datagram(ctx, &dgram) {
            report(&done);
            self.next_segment += 1;
            if self.next_segment < self.segments.len() {
                let key = self.segments[self.next_segment].clone();
                let cache = self.cache.expect("resolved before fetching");
                self.fetch.fetch(ctx, cache, &key, self.next_segment as u64);
            }
        }
    }
}

fn report(o: &FetchOutcome) {
    println!(
        "GET {:<44} {:>8.1} ms  {}",
        o.key,
        o.latency.as_millis_f64(),
        match o.size {
            Some(s) => format!("{} KiB", s / 1024),
            None => "MISS".to_string(),
        }
    );
}

fn main() {
    let cfg = TestbedConfig::default();
    let mut d = Deployment::build(DeploymentKind::MecLdnsMecCdns, &cfg);

    let segments: Vec<String> = d.catalog.keys();
    println!("catalog has {} segments at the origin\n", segments.len());
    let resolver = d.resolver_addr;

    // Attach the player as a second UE in the built world (the stock
    // deployment's scripted UE keeps running in the background).
    let mut net = std::mem::replace(&mut d.net, netsim::Network::new(0));
    let player = net.add_node(
        "player-ue",
        ["10.45.9.9".parse::<IpAddr>().unwrap()],
        Player {
            resolver,
            dns: StubEngine::new(),
            fetch: FetchEngine::new(),
            cache: None,
            // Fetch the same first segment twice: cold then warm.
            segments: vec![
                segments[0].clone(),
                segments[0].clone(),
                segments[1].clone(),
            ],
            next_segment: 0,
        },
    );
    // Wire the player into the RAN-side of the P-GW directly (a second
    // bearer): link with LTE-like latency.
    net.connect(player, d.pgw, ran_sim::RadioProfile::Lte.link());
    net.add_default_route(player, d.pgw);
    net.run();

    let p = net.behavior::<Player>(player);
    let outcomes = &p.fetch.outcomes;
    assert_eq!(outcomes.len(), 3, "all segments fetched");
    println!(
        "\ncold fetch {:.1} ms (origin fill over the WAN) vs warm fetch {:.1} ms (edge hit): {:.1}x",
        outcomes[0].latency.as_millis_f64(),
        outcomes[1].latency.as_millis_f64(),
        outcomes[0].latency.as_millis_f64() / outcomes[1].latency.as_millis_f64()
    );
}
