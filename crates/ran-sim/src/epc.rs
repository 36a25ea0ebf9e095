//! The evolved packet core: MME, S-GW and a NATing P-GW.

use netsim::{
    Cidr, Datagram, ForwardAction, Latency, LinkProfile, Network, NodeBehavior, NodeContext,
    NodeId, SimTime, TapRecord, Telemetry,
};
use std::collections::HashMap;
use std::net::IpAddr;

/// Core-network layout and addressing.
#[derive(Debug, Clone)]
pub struct EpcConfig {
    /// Address pool UEs are assigned bearers from.
    pub ue_pool: Cidr,
    /// The P-GW's public (SGi) address — what every external server sees
    /// as the "client".
    pub pgw_public_ip: IpAddr,
    /// P-GW address on the core side.
    pub pgw_core_ip: IpAddr,
    /// S-GW address.
    pub sgw_ip: IpAddr,
    /// MME address.
    pub mme_ip: IpAddr,
    /// eNB ↔ S-GW backhaul link (S1-U).
    pub backhaul: LinkProfile,
    /// S-GW ↔ P-GW link (S5/S8).
    pub core_link: LinkProfile,
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig {
            ue_pool: "10.45.0.0/16".parse().unwrap(),
            pgw_public_ip: "203.0.113.1".parse().unwrap(),
            pgw_core_ip: "10.44.0.2".parse().unwrap(),
            sgw_ip: "10.44.0.1".parse().unwrap(),
            mme_ip: "10.44.0.3".parse().unwrap(),
            // Containerized NextEPC on collocated machines: sub-ms hops.
            backhaul: LinkProfile::with_latency(Latency::UniformMs(0.3, 0.8)),
            core_link: LinkProfile::with_latency(Latency::UniformMs(0.2, 0.6)),
        }
    }
}

/// The P-GW data-plane behavior: source NAT for UE traffic.
///
/// Outbound packets from the UE pool have their source rewritten to the
/// P-GW's public address with a fresh port; inbound packets to the
/// public address are mapped back. This is why, in the paper's words,
/// *"CDN servers see the public gateway's IP, not the end client's"* —
/// and why GeoIP-based cache selection mislocates mobile clients.
pub struct PgwNat {
    ue_pool: Cidr,
    public_ip: IpAddr,
    next_port: u16,
    /// public port → (ue addr, ue port)
    inbound: HashMap<u16, (IpAddr, u16)>,
    /// (ue addr, ue port, dst, dst port) → public port
    outbound: HashMap<(IpAddr, u16, IpAddr, u16), u16>,
    telemetry: Telemetry,
    /// First uplink DNS crossing per transaction id, for the
    /// `pgw.behind_gw` histogram (time spent beyond the gateway).
    first_uplink: HashMap<u64, SimTime>,
    /// Packets translated outbound.
    pub translated_out: u64,
    /// Packets translated inbound.
    pub translated_in: u64,
}

impl PgwNat {
    /// NAT for `ue_pool` onto `public_ip`.
    pub fn new(ue_pool: Cidr, public_ip: IpAddr) -> Self {
        PgwNat {
            ue_pool,
            public_ip,
            next_port: 20000,
            inbound: HashMap::new(),
            outbound: HashMap::new(),
            telemetry: Telemetry::default(),
            first_uplink: HashMap::new(),
            translated_out: 0,
            translated_in: 0,
        }
    }

    /// Routes this gateway's DNS-crossing breadcrumbs into `t`.
    ///
    /// The marks mirror the packet tap exactly — `pgw.uplink` when a
    /// DNS query (dst port 53) is forwarded out, `pgw.downlink` when a
    /// DNS answer (src port 53) crosses back — and they carry the same
    /// virtual timestamps the tap records, so a trace-derived
    /// wireless/resolver split can be cross-checked against the
    /// tap-derived one.
    pub fn set_telemetry(&mut self, t: Telemetry) {
        self.telemetry = t;
    }

    /// Drops DNS-crossing breadcrumbs for `dgram`, keyed by the DNS
    /// transaction id in its payload (the tap's `id_hint`).
    fn mark_dns_crossing(&mut self, now: SimTime, dgram: &Datagram) {
        let Some(id) = TapRecord::hint_of(&dgram.payload) else {
            return;
        };
        let id = u64::from(id);
        if dgram.dst_port == 53 {
            self.telemetry
                .mark(id, now, "pgw.uplink", || dgram.dst.to_string());
            self.first_uplink.entry(id).or_insert(now);
        }
        if dgram.src_port == 53 {
            self.telemetry
                .mark(id, now, "pgw.downlink", || dgram.src.to_string());
            if let Some(&up) = self.first_uplink.get(&id) {
                self.telemetry.observe("pgw.behind_gw", now.since(up));
            }
        }
    }

    fn alloc_port(&mut self) -> u16 {
        for _ in 0..u16::MAX {
            let p = self.next_port;
            self.next_port = if p == u16::MAX { 20000 } else { p + 1 };
            if !self.inbound.contains_key(&p) {
                return p;
            }
        }
        // detlint: allow(hot-panic) — 45k simultaneous NAT bindings
        // exhausted: a broken workload, and reusing a bound port would
        // silently mis-route responses.
        panic!("NAT port pool exhausted");
    }
}

impl NodeBehavior for PgwNat {
    /// Outbound translation happens on forwarded packets.
    fn on_forward(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) -> ForwardAction {
        // Breadcrumbs before translation, at the same instant the tap
        // recorded this packet (taps fire just before this hook).
        self.mark_dns_crossing(ctx.now(), &dgram);
        if self.ue_pool.contains(dgram.src) && !self.ue_pool.contains(dgram.dst) {
            let key = (dgram.src, dgram.src_port, dgram.dst, dgram.dst_port);
            let port = match self.outbound.get(&key) {
                Some(&p) => p,
                None => {
                    let p = self.alloc_port();
                    self.outbound.insert(key, p);
                    self.inbound.insert(p, (dgram.src, dgram.src_port));
                    p
                }
            };
            self.translated_out += 1;
            return ForwardAction::Forward(Datagram {
                src: self.public_ip,
                src_port: port,
                ..dgram
            });
        }
        ForwardAction::Forward(dgram)
    }

    /// Inbound: packets addressed to the public IP are delivered here,
    /// un-NATed and re-sent toward the UE.
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        if dgram.dst == self.public_ip {
            self.mark_dns_crossing(ctx.now(), &dgram);
            if let Some(&(ue, ue_port)) = self.inbound.get(&dgram.dst_port) {
                self.translated_in += 1;
                ctx.send_datagram(Datagram {
                    dst: ue,
                    dst_port: ue_port,
                    ..dgram
                });
            }
            // No mapping: unsolicited inbound, drop silently.
        }
    }
}

/// The built core: node ids for each function.
#[derive(Debug, Clone, Copy)]
pub struct Epc {
    /// Mobility management entity (control plane only).
    pub mme: NodeId,
    /// Serving gateway.
    pub sgw: NodeId,
    /// Packet gateway (NAT boundary).
    pub pgw: NodeId,
}

/// Control-plane anchor; inert in the data plane.
struct MmeBehavior;
impl NodeBehavior for MmeBehavior {}

/// Plain forwarding node.
struct Relay;
impl NodeBehavior for Relay {}

impl Epc {
    /// Builds MME, S-GW and P-GW and links them per `config`.
    pub fn build(net: &mut Network, config: &EpcConfig) -> Epc {
        let sgw = net.add_node("sgw", [config.sgw_ip], Relay);
        let pgw = net.add_node(
            "pgw",
            [config.pgw_core_ip, config.pgw_public_ip],
            PgwNat::new(config.ue_pool, config.pgw_public_ip),
        );
        let mme = net.add_node("mme", [config.mme_ip], MmeBehavior);
        net.connect(sgw, pgw, config.core_link.clone());
        net.connect(mme, sgw, config.core_link.clone());
        // Everything the S-GW cannot match locally goes up to the P-GW.
        net.add_default_route(sgw, pgw);
        // Downlink: the UE pool lives behind the S-GW.
        net.add_route(pgw, config.ue_pool, sgw);
        Epc { mme, sgw, pgw }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    struct Echo {
        pub from: Vec<(IpAddr, u16)>,
    }
    impl NodeBehavior for Echo {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.from.push((dgram.src, dgram.src_port));
            ctx.send_datagram(dgram.reply_with(b"pong".to_vec()));
        }
    }

    struct UeApp {
        server: IpAddr,
        replies: usize,
    }
    impl NodeBehavior for UeApp {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: netsim::TimerToken, _d: u64) {
            ctx.send(self.server, 53, b"ping".to_vec());
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _d: Datagram) {
            self.replies += 1;
        }
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn pgw_nat_hides_ue_address_and_reverses_replies() {
        let mut net = Network::new(5);
        let cfg = EpcConfig::default();
        let epc = Epc::build(&mut net, &cfg);
        // UE directly on the S-GW for this NAT-focused test.
        let ue = net.add_node(
            "ue",
            [cfg.ue_pool.nth_host(1)],
            UeApp {
                server: ip("198.51.100.10"),
                replies: 0,
            },
        );
        net.connect(
            ue,
            epc.sgw,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.add_default_route(ue, epc.sgw);
        let server = net.add_node("server", [ip("198.51.100.10")], Echo { from: vec![] });
        net.connect(
            epc.pgw,
            server,
            LinkProfile::with_latency(Latency::ConstantMs(2.0)),
        );
        net.add_default_route(server, epc.pgw);
        net.run();
        let seen = &net.behavior::<Echo>(server).from;
        assert_eq!(seen.len(), 1);
        assert_eq!(
            seen[0].0, cfg.pgw_public_ip,
            "server must see the gateway, not the UE"
        );
        assert_eq!(
            net.behavior::<UeApp>(ue).replies,
            1,
            "reply must be un-NATed"
        );
        let nat = net.behavior::<PgwNat>(epc.pgw);
        assert_eq!(nat.translated_out, 1);
        assert_eq!(nat.translated_in, 1);
    }

    #[test]
    fn repeated_flow_reuses_the_same_nat_port() {
        let mut net = Network::new(6);
        let cfg = EpcConfig::default();
        let epc = Epc::build(&mut net, &cfg);
        struct TwoShots {
            server: IpAddr,
        }
        impl NodeBehavior for TwoShots {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                // Same source port for both packets: one flow.
                let me = ctx.primary_addr();
                for _ in 0..2 {
                    ctx.send_datagram(Datagram {
                        src: me,
                        src_port: 5555,
                        dst: self.server,
                        dst_port: 53,
                        payload: b"x".to_vec(),
                    });
                }
            }
        }
        let ue = net.add_node(
            "ue",
            [cfg.ue_pool.nth_host(1)],
            TwoShots {
                server: ip("198.51.100.10"),
            },
        );
        net.connect(
            ue,
            epc.sgw,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.add_default_route(ue, epc.sgw);
        let server = net.add_node("server", [ip("198.51.100.10")], Echo { from: vec![] });
        net.connect(
            epc.pgw,
            server,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.add_default_route(server, epc.pgw);
        net.run();
        let seen = &net.behavior::<Echo>(server).from;
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], seen[1], "one flow must keep one NAT port");
    }

    #[test]
    fn unsolicited_inbound_is_dropped() {
        let mut net = Network::new(7);
        let cfg = EpcConfig::default();
        let epc = Epc::build(&mut net, &cfg);
        struct Attacker {
            target: IpAddr,
        }
        impl NodeBehavior for Attacker {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                ctx.send(self.target, 12345, b"scan".to_vec());
            }
        }
        let attacker = net.add_node(
            "attacker",
            [ip("198.51.100.66")],
            Attacker {
                target: cfg.pgw_public_ip,
            },
        );
        net.connect(
            epc.pgw,
            attacker,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        let nat = net.behavior::<PgwNat>(epc.pgw);
        assert_eq!(nat.translated_in, 0);
    }
}
