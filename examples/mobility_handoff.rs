//! Mobility: a UE is handed off between two eNBs mid-session. The §3
//! design switches the UE's DNS target "as part of the cellular
//! hand-off process"; here both eNBs feed the same MEC, so the same
//! ClusterIP keeps resolving across the gap, and resolution latency
//! recovers as soon as the new radio is up.
//!
//! ```text
//! cargo run --example mobility_handoff
//! ```

use dns_server::plugins::AuthoritativePlugin;
use dns_server::{DnsServer, SendStrategy, ServerConfig, StubEngine, Zone};
use dns_wire::{Name, RrType};
use netsim::{Datagram, NodeBehavior, NodeContext, SimDuration, SimTime, TimerToken};
use ran_sim::{EpcConfig, RadioProfile, Ran};
use std::net::{IpAddr, Ipv4Addr};

struct Roamer {
    resolver: IpAddr,
    engine: StubEngine,
    count: usize,
}

impl NodeBehavior for Roamer {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.count {
            ctx.set_timer(SimDuration::from_millis(200 + 50 * i as u64), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if StubEngine::owns_timer(data) {
            self.engine.on_timer(ctx, data);
            return;
        }
        self.engine.issue(
            ctx,
            Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap(),
            RrType::A,
            SendStrategy::Unicast(self.resolver),
            None,
            data,
        );
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        self.engine.on_datagram(ctx, &dgram);
    }
}

fn main() {
    let mut net = netsim::Network::new(7);
    let mut ran = Ran::build(&mut net, EpcConfig::default());
    let cell_a = ran.add_enb(&mut net);
    let cell_b = ran.add_enb(&mut net);

    // A MEC DNS behind the P-GW answering the CDN zone.
    let mut zone = Zone::new(Name::parse(workload::sites::MEC_CDN_ZONE).unwrap());
    zone.add_a(
        Name::parse(workload::sites::MEC_CDN_DOMAIN).unwrap(),
        Ipv4Addr::new(10, 96, 0, 20),
        0,
    );
    let mec_dns_ip: IpAddr = "10.96.0.10".parse().unwrap();
    let mec_dns = net.add_node(
        "mec-dns",
        [mec_dns_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
        ),
    );
    net.connect(
        ran.epc.pgw,
        mec_dns,
        netsim::LinkProfile::with_latency(netsim::Latency::UniformMs(0.3, 0.6)),
    );
    net.add_default_route(mec_dns, ran.epc.pgw);

    // UE attaches to cell A, queries every 50 ms.
    let mut ue = ran.attach_ue(
        &mut net,
        "ue",
        Roamer {
            resolver: mec_dns_ip,
            engine: StubEngine::new(),
            count: 40,
        },
        cell_a,
        RadioProfile::Lte,
    );

    // Hand off to cell B one second in.
    net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    println!("t=1.000s  handoff {} -> {}", cell_a, cell_b);
    ue = ran.handoff(&mut net, ue, cell_b, RadioProfile::Lte);
    let _ = ue;
    net.run();

    let roamer = net.behavior::<Roamer>(ue.node);
    let mut answered = 0;
    let mut lost = 0;
    println!("{:>6} {:>10}  outcome", "query", "rtt(ms)");
    for o in &roamer.engine.outcomes {
        if o.timed_out {
            lost += 1;
            println!("{:>6} {:>10}  lost in the handoff gap", o.tag, "-");
        } else {
            answered += 1;
            if o.tag % 5 == 0 {
                println!(
                    "{:>6} {:>10.1}  {}",
                    o.tag,
                    o.rtt.as_millis_f64(),
                    o.addrs[0]
                );
            }
        }
    }
    println!(
        "\n{answered} answered, {lost} timed out during the {}ms interruption; \
         service resumed at the same resolver address — no re-discovery needed",
        ran.handoff_interruption.as_millis_f64()
    );
    assert!(answered > 25, "most queries must survive the handoff");
}
