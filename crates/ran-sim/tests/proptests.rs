//! Property-based tests for the RAN/EPC: NAT correctness under
//! arbitrary flows, attach/handoff invariants, and profile calibration
//! bounds.

use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, SimDuration, TimerToken,
};
use proptest::prelude::*;
use ran_sim::{EpcConfig, PgwNat, RadioProfile, Ran};
use std::collections::HashMap;
use std::net::IpAddr;

/// Echo that records every (src, src_port) it saw.
struct Recorder {
    seen: Vec<(IpAddr, u16)>,
}
impl NodeBehavior for Recorder {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        self.seen.push((dgram.src, dgram.src_port));
        ctx.send_datagram(dgram.reply_with(dgram.payload.clone()));
    }
}

/// Sends `flows` distinct flows (unique source ports), counts replies
/// per flow.
struct MultiFlow {
    server: IpAddr,
    flows: u16,
    replies: HashMap<u16, usize>,
}
impl NodeBehavior for MultiFlow {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.flows {
            ctx.set_timer(SimDuration::from_millis(5 * u64::from(i)), u64::from(i));
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        let me = ctx.primary_addr();
        ctx.send_datagram(Datagram {
            src: me,
            src_port: 10_000 + data as u16,
            dst: self.server,
            dst_port: 80,
            payload: vec![data as u8; 8],
        });
    }
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
        *self.replies.entry(dgram.dst_port).or_insert(0) += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nat_gives_each_flow_a_distinct_public_port_and_reverses_all(
        flows in 1u16..40,
        seed in any::<u64>(),
    ) {
        let mut net = Network::new(seed);
        let cfg = EpcConfig::default();
        let epc = ran_sim::Epc::build(&mut net, &cfg);
        let ue_ip = cfg.ue_pool.nth_host(1);
        let ue = net.add_node(
            "ue",
            [ue_ip],
            MultiFlow {
                server: "198.51.100.10".parse().unwrap(),
                flows,
                replies: HashMap::new(),
            },
        );
        net.connect(ue, epc.sgw, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.add_default_route(ue, epc.sgw);
        let server = net.add_node(
            "server",
            ["198.51.100.10".parse::<IpAddr>().unwrap()],
            Recorder { seen: vec![] },
        );
        net.connect(epc.pgw, server, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.add_default_route(server, epc.pgw);
        net.run();

        let seen = &net.behavior::<Recorder>(server).seen;
        prop_assert_eq!(seen.len(), usize::from(flows));
        // Never the UE address, always the gateway.
        prop_assert!(seen.iter().all(|(src, _)| *src == cfg.pgw_public_ip));
        // Distinct flows map to distinct public ports.
        let ports: std::collections::HashSet<u16> = seen.iter().map(|&(_, p)| p).collect();
        prop_assert_eq!(ports.len(), usize::from(flows));
        // Every flow's reply came back to its own source port.
        let replies = &net.behavior::<MultiFlow>(ue).replies;
        prop_assert_eq!(replies.len(), usize::from(flows));
        for i in 0..flows {
            prop_assert_eq!(replies.get(&(10_000 + i)).copied(), Some(1));
        }
    }

    #[test]
    fn attach_opens_the_bearer_after_the_configured_delay(
        delay_ms in 20u64..300,
        seed in any::<u64>(),
    ) {
        struct ProbeAt {
            server: IpAddr,
            times: Vec<u64>,
            replies: Vec<u64>,
        }
        impl NodeBehavior for ProbeAt {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                for (i, &t) in self.times.iter().enumerate() {
                    ctx.set_timer(SimDuration::from_millis(t), i as u64);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
                ctx.send(self.server, 80, data.to_be_bytes().to_vec());
            }
            fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
                let mut b = [0u8; 8];
                b.copy_from_slice(&dgram.payload);
                self.replies.push(u64::from_be_bytes(b));
            }
        }
        let mut net = Network::new(seed);
        let mut ran = Ran::build(&mut net, EpcConfig::default());
        ran.attach_delay = SimDuration::from_millis(delay_ms);
        ran.add_enb(&mut net);
        let server = net.add_node(
            "server",
            ["198.51.100.10".parse::<IpAddr>().unwrap()],
            Recorder { seen: vec![] },
        );
        net.connect(ran.epc.pgw, server, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.add_default_route(server, ran.epc.pgw);
        // Probe well before and well after the attach delay.
        let before = delay_ms / 2;
        let after = delay_ms + 50;
        let ue = ran.attach_ue(
            &mut net,
            "ue",
            ProbeAt {
                server: "198.51.100.10".parse().unwrap(),
                times: vec![before, after],
                replies: vec![],
            },
            0,
            RadioProfile::Lte,
        );
        net.run();
        let probe = net.behavior::<ProbeAt>(ue.node);
        prop_assert!(!probe.replies.contains(&0), "pre-attach probe must be lost");
        prop_assert!(probe.replies.contains(&1), "post-attach probe must succeed");
    }

    #[test]
    fn radio_profiles_sample_within_sane_bounds(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let lte = RadioProfile::Lte.link().latency.sample(&mut rng).as_millis_f64();
            prop_assert!((8.0..120.0).contains(&lte), "LTE sample {lte}");
            let nr = RadioProfile::Nr.link().latency.sample(&mut rng).as_millis_f64();
            prop_assert!((0.8..30.0).contains(&nr), "NR sample {nr}");
            prop_assert!(nr < lte * 3.0);
        }
    }
}

#[test]
fn nat_port_allocation_survives_many_flows() {
    // Direct unit-style stress on the NAT table via the network.
    let mut net = Network::new(77);
    let cfg = EpcConfig::default();
    let epc = ran_sim::Epc::build(&mut net, &cfg);
    let ue = net.add_node(
        "ue",
        [cfg.ue_pool.nth_host(1)],
        MultiFlow {
            server: "198.51.100.10".parse().unwrap(),
            flows: 500,
            replies: HashMap::new(),
        },
    );
    net.connect(
        ue,
        epc.sgw,
        LinkProfile::with_latency(Latency::ConstantMs(0.5)),
    );
    net.add_default_route(ue, epc.sgw);
    let server = net.add_node(
        "server",
        ["198.51.100.10".parse::<IpAddr>().unwrap()],
        Recorder { seen: vec![] },
    );
    net.connect(
        epc.pgw,
        server,
        LinkProfile::with_latency(Latency::ConstantMs(0.5)),
    );
    net.add_default_route(server, epc.pgw);
    net.run();
    let nat = net.behavior::<PgwNat>(epc.pgw);
    assert_eq!(nat.translated_out, 500);
    assert_eq!(nat.translated_in, 500);
    assert_eq!(net.behavior::<MultiFlow>(ue).replies.len(), 500);
}
