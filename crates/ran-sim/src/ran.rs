//! eNBs, UE attach and handoff.

use crate::epc::{Epc, EpcConfig};
use crate::profiles::RadioProfile;
use netsim::{Latency, LinkId, LinkProfile, Network, NodeBehavior, NodeId, SimDuration, Telemetry};
use std::net::IpAddr;

/// A UE's current attachment.
#[derive(Debug, Clone, Copy)]
pub struct UeAttachment {
    /// The UE's simulator node.
    pub node: NodeId,
    /// Bearer address from the EPC pool.
    pub ip: IpAddr,
    /// Serving eNB index.
    pub enb: usize,
    /// Radio link in use.
    pub radio_link: LinkId,
}

/// An eNB (plain forwarder between the radio and the backhaul).
struct EnbBehavior;
impl NodeBehavior for EnbBehavior {}

/// The radio access network: one EPC, one or more eNBs, attached UEs.
///
/// In a federated deployment eNBs belong to *MEC sites* (the metro
/// region whose edge cloud serves their traffic). Intra-site handoffs
/// are the fast X2 kind; handoffs *between* sites relocate the S1
/// bearer and pay a longer interruption — and, because the new site's
/// caches have never seen this UE, any cache-state locality is lost
/// (measured by the federation experiment, not simulated here).
pub struct Ran {
    /// The core this RAN feeds into.
    pub epc: Epc,
    config: EpcConfig,
    enbs: Vec<NodeId>,
    backhaul_links: Vec<LinkId>,
    /// Which MEC site each eNB belongs to (same index as `enbs`).
    enb_sites: Vec<usize>,
    next_ue: u64,
    telemetry: Telemetry,
    /// Control-plane attach latency (RACH + RRC setup + NAS attach over
    /// the air): folded into a single delay before the bearer carries
    /// data. srsLTE/NextEPC attach takes on the order of 100 ms.
    pub attach_delay: SimDuration,
    /// Data-plane interruption during an X2 handoff (typical LTE
    /// interruption is a few tens of ms).
    pub handoff_interruption: SimDuration,
    /// Data-plane interruption during an *inter-site* handoff: S1-based
    /// relocation through the core, several times the X2 cost.
    pub inter_site_interruption: SimDuration,
}

impl Ran {
    /// Builds the EPC and a RAN with no eNBs yet.
    pub fn build(net: &mut Network, config: EpcConfig) -> Ran {
        let epc = Epc::build(net, &config);
        Ran {
            epc,
            config,
            enbs: Vec::new(),
            backhaul_links: Vec::new(),
            enb_sites: Vec::new(),
            next_ue: 0,
            telemetry: Telemetry::default(),
            attach_delay: SimDuration::from_millis(100),
            handoff_interruption: SimDuration::from_millis(50),
            inter_site_interruption: SimDuration::from_millis(150),
        }
    }

    /// Routes attach/handoff metrics into `t`.
    pub fn set_telemetry(&mut self, t: Telemetry) {
        self.telemetry = t;
    }

    /// Adds an eNB (at MEC site 0) connected to the S-GW over the
    /// configured backhaul. Returns its index.
    pub fn add_enb(&mut self, net: &mut Network) -> usize {
        self.add_enb_at_site(net, 0)
    }

    /// Adds an eNB belonging to MEC site `site`, connected to the S-GW
    /// over the configured backhaul. Returns its index.
    pub fn add_enb_at_site(&mut self, net: &mut Network, site: usize) -> usize {
        let idx = self.enbs.len();
        // eNB addresses live outside the UE pool, in a RAN segment.
        let addr: IpAddr = format!("10.43.0.{}", idx + 1).parse().unwrap();
        let enb = net.add_node(&format!("enb-{idx}"), [addr], EnbBehavior);
        let link = net.connect(enb, self.epc.sgw, self.config.backhaul.clone());
        net.add_default_route(enb, self.epc.sgw);
        self.enbs.push(enb);
        self.backhaul_links.push(link);
        self.enb_sites.push(site);
        idx
    }

    /// eNB node by index.
    pub fn enb(&self, idx: usize) -> NodeId {
        self.enbs[idx]
    }

    /// Which MEC site eNB `idx` belongs to.
    pub fn enb_site(&self, idx: usize) -> usize {
        self.enb_sites[idx]
    }

    /// The eNB indices belonging to MEC site `site` (the handle a
    /// region-outage schedule starts from).
    pub fn enbs_at_site(&self, site: usize) -> Vec<usize> {
        self.enb_sites
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == site)
            .map(|(i, _)| i)
            .collect()
    }

    /// The eNB↔S-GW backhaul link by eNB index — the handle a fault
    /// schedule needs to partition or degrade one cell's backhaul
    /// without touching its neighbours.
    pub fn backhaul_link(&self, idx: usize) -> LinkId {
        self.backhaul_links[idx]
    }

    /// The P-GW's public address (what servers see as the client).
    pub fn pgw_public_ip(&self) -> IpAddr {
        self.config.pgw_public_ip
    }

    /// Attaches a UE behavior to an eNB. The radio link starts fully
    /// lossy and opens after [`Ran::attach_delay`], modelling the
    /// control-plane attach procedure; traffic the UE sends before then
    /// is lost, exactly as frames sent before the bearer exists would
    /// be.
    pub fn attach_ue<B: NodeBehavior + 'static>(
        &mut self,
        net: &mut Network,
        name: &str,
        behavior: B,
        enb_idx: usize,
        radio: RadioProfile,
    ) -> UeAttachment {
        self.next_ue += 1;
        let ip = self.config.ue_pool.nth_host(self.next_ue);
        let node = net.add_node(name, [ip], behavior);
        let enb = self.enbs[enb_idx];
        // Closed radio during attach.
        let radio_link = net.connect(node, enb, radio.link().with_loss(1.0));
        net.add_default_route(node, enb);
        // Serving route: S-GW reaches this UE via its eNB.
        net.add_route(self.epc.sgw, netsim::Cidr::host(ip), enb);
        let profile = radio.link();
        net.schedule_call(self.attach_delay, move |n| {
            n.set_link_profile(radio_link, profile);
        });
        self.telemetry.incr("ran.attach");
        self.telemetry
            .observe("ran.attach_delay", self.attach_delay);
        UeAttachment {
            node,
            ip,
            enb: enb_idx,
            radio_link,
        }
    }

    /// Handoff to another cell: the old radio closes immediately, the
    /// new one opens after the interruption, and the S-GW's serving
    /// route follows. Within one MEC site this is the X2 procedure
    /// ([`Ran::handoff_interruption`]); *between* sites the bearer
    /// relocates over S1 and pays [`Ran::inter_site_interruption`].
    /// Returns the updated attachment.
    pub fn handoff(
        &mut self,
        net: &mut Network,
        att: UeAttachment,
        to_enb: usize,
        radio: RadioProfile,
    ) -> UeAttachment {
        assert_ne!(att.enb, to_enb, "handoff to the serving cell");
        let inter_site = self.enb_sites.get(att.enb) != self.enb_sites.get(to_enb);
        let interruption = if inter_site {
            self.inter_site_interruption
        } else {
            self.handoff_interruption
        };
        // Tear down the old radio.
        net.set_link_profile(
            att.radio_link,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_loss(1.0),
        );
        let new_enb = self.enbs[to_enb];
        let new_link = net.connect(att.node, new_enb, radio.link().with_loss(1.0));
        let profile = radio.link();
        let ue_node = att.node;
        let ue_ip = att.ip;
        let sgw = self.epc.sgw;
        net.schedule_call(interruption, move |n| {
            n.set_link_profile(new_link, profile);
            n.add_default_route(ue_node, new_enb);
            n.add_route(sgw, netsim::Cidr::host(ue_ip), new_enb);
        });
        self.telemetry.incr("ran.handoff");
        if inter_site {
            self.telemetry.incr("ran.handoff.inter_site");
        }
        self.telemetry
            .observe("ran.handoff_interruption", interruption);
        UeAttachment {
            node: att.node,
            ip: att.ip,
            enb: to_enb,
            radio_link: new_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Datagram, NodeContext, SimTime, TimerToken};

    struct Echo;
    impl NodeBehavior for Echo {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            ctx.send_datagram(dgram.reply_with(dgram.payload.clone()));
        }
    }

    /// Pings a server every 20 ms, recording send time → rtt.
    struct Pinger {
        server: IpAddr,
        sent: Vec<SimTime>,
        got: Vec<(u64, SimTime)>, // (probe index from payload, arrival)
        count: u64,
    }
    impl Pinger {
        fn new(server: IpAddr, count: u64) -> Self {
            Pinger {
                server,
                sent: vec![],
                got: vec![],
                count,
            }
        }
    }
    impl NodeBehavior for Pinger {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(20 * i), i);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, i: u64) {
            self.sent.push(ctx.now());
            ctx.send(self.server, 7, i.to_be_bytes().to_vec());
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            let mut b = [0u8; 8];
            b.copy_from_slice(&dgram.payload);
            self.got.push((u64::from_be_bytes(b), ctx.now()));
        }
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn build_world(seed: u64, probes: u64) -> (Network, Ran, UeAttachment, NodeId) {
        let mut net = Network::new(seed);
        let mut ran = Ran::build(&mut net, EpcConfig::default());
        ran.add_enb(&mut net);
        ran.add_enb(&mut net);
        let server = net.add_node("server", [ip("198.51.100.10")], Echo);
        net.connect(
            ran.epc.pgw,
            server,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.add_default_route(server, ran.epc.pgw);
        let ue = ran.attach_ue(
            &mut net,
            "ue",
            Pinger::new(ip("198.51.100.10"), probes),
            0,
            RadioProfile::Lte,
        );
        (net, ran, ue, server)
    }

    #[test]
    fn packets_before_attach_complete_are_lost() {
        let (mut net, _ran, ue, _server) = build_world(1, 3);
        // Probes at 0, 20, 40 ms; attach completes at 100 ms → all lost.
        net.run();
        assert!(net.behavior::<Pinger>(ue.node).got.is_empty());
        assert!(net.dropped_packets >= 3);
    }

    #[test]
    fn rtt_through_the_ran_is_dominated_by_the_air_interface() {
        let (mut net, _ran, ue, _server) = build_world(2, 20);
        net.run();
        let p = net.behavior::<Pinger>(ue.node);
        // Probes 0..4 (t<100ms) lost to attach; later ones complete.
        assert!(p.got.len() >= 10, "only {} probes returned", p.got.len());
        for &(i, arrived) in &p.got {
            let rtt = arrived - p.sent[i as usize];
            let ms = rtt.as_millis_f64();
            // 2×(air ≈ 8..) + backhaul + core + server hop.
            assert!(ms > 16.0, "rtt {ms} below the physical floor");
            assert!(ms < 80.0, "rtt {ms} absurdly high");
        }
    }

    #[test]
    fn handoff_interrupts_then_restores_connectivity() {
        let (mut net, mut ran, ue, _server) = build_world(3, 40);
        // Let attach finish and traffic flow, then hand off at 300 ms.
        net.run_until(SimTime::ZERO + SimDuration::from_millis(300));
        let before = net.behavior::<Pinger>(ue.node).got.len();
        assert!(before > 0, "no traffic before handoff");
        let _new_att = ran.handoff(&mut net, ue, 1, RadioProfile::Lte);
        net.run();
        let p = net.behavior::<Pinger>(ue.node);
        let after = p.got.len();
        assert!(after > before, "no traffic after handoff completed");
        // Some probes during the interruption were lost.
        assert!((after as u64) < 40, "handoff lost no packets at all?");
        // Replies keep arriving for probes sent after the gap.
        let last_probe = p.got.iter().map(|&(i, _)| i).max().unwrap();
        assert!(last_probe >= 35, "late probes never returned");
    }

    #[test]
    fn ue_addresses_are_unique_and_from_the_pool() {
        let mut net = Network::new(4);
        let mut ran = Ran::build(&mut net, EpcConfig::default());
        ran.add_enb(&mut net);
        let a = ran.attach_ue(&mut net, "ue-a", Echo, 0, RadioProfile::Lte);
        let b = ran.attach_ue(&mut net, "ue-b", Echo, 0, RadioProfile::Lte);
        assert_ne!(a.ip, b.ip);
        let pool: netsim::Cidr = "10.45.0.0/16".parse().unwrap();
        assert!(pool.contains(a.ip));
        assert!(pool.contains(b.ip));
    }

    #[test]
    fn handoff_escapes_a_partitioned_backhaul() {
        let (mut net, mut ran, ue, _server) = build_world(6, 40);
        // The serving cell's backhaul partitions at 200 ms and never
        // heals; the neighbour's backhaul is untouched.
        netsim::FaultSchedule::new()
            .partition_link(
                ran.backhaul_link(0),
                SimDuration::from_millis(200)..SimDuration::from_secs(100),
            )
            .install(&mut net);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(400));
        let p = net.behavior::<Pinger>(ue.node);
        let before_handoff = p.got.len();
        assert!(before_handoff > 0, "no traffic before the partition");
        // Nothing has returned since the partition opened at 200 ms.
        let last = p.got.iter().map(|&(_, at)| at).max().unwrap();
        assert!(last < SimTime::ZERO + SimDuration::from_millis(210));
        // Hand off to the healthy cell: connectivity resumes.
        let _att = ran.handoff(&mut net, ue, 1, RadioProfile::Lte);
        net.run();
        let p = net.behavior::<Pinger>(ue.node);
        assert!(
            p.got.len() > before_handoff,
            "handoff to the healthy cell restored nothing"
        );
        let last_probe = p.got.iter().map(|&(i, _)| i).max().unwrap();
        assert!(last_probe >= 35, "late probes never returned");
    }

    #[test]
    #[should_panic(expected = "serving cell")]
    fn handoff_to_same_cell_rejected() {
        let (mut net, mut ran, ue, _server) = build_world(5, 1);
        ran.handoff(&mut net, ue, 0, RadioProfile::Lte);
    }

    #[test]
    fn inter_site_handoff_pays_the_longer_interruption() {
        // Two worlds, identical except for the target cell's site: the
        // S1 relocation must lose strictly more probes than X2.
        fn run(seed: u64, inter_site: bool) -> (usize, Telemetry) {
            let mut net = Network::new(seed);
            let mut ran = Ran::build(&mut net, EpcConfig::default());
            let t = Telemetry::default();
            ran.set_telemetry(t.clone());
            ran.add_enb_at_site(&mut net, 0);
            ran.add_enb_at_site(&mut net, usize::from(inter_site));
            assert_eq!(ran.enb_site(0), 0);
            assert_eq!(ran.enbs_at_site(0).len(), if inter_site { 1 } else { 2 });
            let server = net.add_node("server", [ip("198.51.100.10")], Echo);
            net.connect(
                ran.epc.pgw,
                server,
                LinkProfile::with_latency(Latency::ConstantMs(1.0)),
            );
            net.add_default_route(server, ran.epc.pgw);
            // A dense probe train so the interruption length is visible
            // in the loss count: one probe every 5 ms.
            struct Dense(Pinger);
            impl NodeBehavior for Dense {
                fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                    for i in 0..self.0.count {
                        ctx.set_timer(SimDuration::from_millis(5 * i), i);
                    }
                }
                fn on_timer(&mut self, ctx: &mut NodeContext<'_>, t: TimerToken, i: u64) {
                    self.0.on_timer(ctx, t, i);
                }
                fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
                    self.0.on_datagram(ctx, dgram);
                }
            }
            let ue = ran.attach_ue(
                &mut net,
                "ue",
                Dense(Pinger::new(ip("198.51.100.10"), 160)),
                0,
                RadioProfile::Lte,
            );
            net.run_until(SimTime::ZERO + SimDuration::from_millis(300));
            ran.handoff(&mut net, ue, 1, RadioProfile::Lte);
            net.run();
            (net.behavior::<Dense>(ue.node).0.got.len(), t)
        }
        let (intra, t_intra) = run(9, false);
        let (inter, t_inter) = run(9, true);
        assert!(
            inter < intra,
            "S1 relocation ({inter} echoes) must lose more than X2 ({intra})"
        );
        assert_eq!(t_intra.counter("ran.handoff"), 1);
        assert_eq!(t_intra.counter("ran.handoff.inter_site"), 0);
        assert_eq!(t_inter.counter("ran.handoff.inter_site"), 1);
    }
}
