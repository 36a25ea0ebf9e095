//! Deterministic fault injection: a schedule of link and node faults any
//! simulation can attach.
//!
//! The paper's resilience story (§3: queries the MEC DNS cannot serve
//! "fall back to the provider's L-DNS"; P2's stability under churn) only
//! means something if the simulated world can actually misbehave. This
//! module provides the misbehavior as *data*: a [`FaultSchedule`] lists
//! timed windows of packet loss, extra delay, hard partitions and node
//! crashes, and [`FaultSchedule::install`] compiles them onto a
//! [`Network`] as scheduled calls. Everything is driven by the
//! simulation's virtual clock and seeded RNG — the same seed and schedule
//! always produce the same timeline, so chaos runs are reproducible and
//! byte-identical across thread counts.
//!
//! Faults draw no randomness when they fire (loss inside a window is
//! still drawn per-packet by the link, exactly as a permanently-lossy
//! link would), so installing a schedule perturbs nothing outside its
//! windows.
//!
//! ```
//! use netsim::faults::FaultSchedule;
//! use netsim::SimDuration;
//! # use netsim::{Network, LinkProfile, Latency, NodeBehavior};
//! # struct Nop;
//! # impl NodeBehavior for Nop {}
//! # let mut net = Network::new(7);
//! # let a = net.add_node("a", ["10.0.0.1".parse::<std::net::IpAddr>().unwrap()], Nop);
//! # let b = net.add_node("b", ["10.0.0.2".parse::<std::net::IpAddr>().unwrap()], Nop);
//! # let link = net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
//! let s = |secs| SimDuration::from_secs(secs);
//! FaultSchedule::new()
//!     .degrade_link(link, s(2)..s(4), 0.3, 5.0, 2.0) // 30% loss, +5 ms, +2 ms jitter
//!     .partition_link(link, s(6)..s(7))
//!     .crash_node(b, s(8), Some(s(9)))
//!     .install(&mut net);
//! net.run();
//! ```

use crate::catchment::AnycastCatchment;
use crate::network::{LinkId, LinkProfile, Network, NodeId};
use crate::time::SimDuration;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// One timed fault. Times are offsets from the moment the schedule is
/// installed (normally simulation start).
#[derive(Debug, Clone)]
pub enum Fault {
    /// Both directions of `link` lose packets / slow down over `window`.
    /// The link's own profile is snapshotted at window start and restored
    /// exactly at window end.
    LinkDegrade {
        /// The link to degrade.
        link: LinkId,
        /// When the degradation starts and ends.
        window: Range<SimDuration>,
        /// Extra loss probability, combined with the link's own loss as
        /// independent drop chances.
        extra_loss: f64,
        /// Constant extra one-way delay in milliseconds.
        extra_latency_ms: f64,
        /// Up to this much additional uniform delay per packet.
        extra_jitter_ms: f64,
    },
    /// Hard partition: 100% loss in both directions over `window`.
    Partition {
        /// The link to sever.
        link: LinkId,
        /// When the partition starts and heals.
        window: Range<SimDuration>,
    },
    /// Crash a node at `at`; restart it at `until` (`None` = it stays
    /// down). See [`Network::set_node_up`] for crash semantics.
    NodeDown {
        /// The node to crash.
        node: NodeId,
        /// When the crash happens.
        at: SimDuration,
        /// When the node restarts, if ever.
        until: Option<SimDuration>,
    },
    /// Anycast catchment flap: site `site` withdraws its advertisement
    /// at `window.start` and re-advertises at `window.end`. Each flip
    /// propagates only after the catchment's configured
    /// withdraw/advertise delay, so traffic keeps landing on (and
    /// blackholing at) a dead site for a bounded reconvergence window.
    CatchmentFlap {
        /// Shared handle on the catchment being flapped.
        catchment: AnycastCatchment,
        /// The site index withdrawing.
        site: usize,
        /// When the withdrawal is announced and when the site returns.
        window: Range<SimDuration>,
    },
}

/// A builder-style list of [`Fault`]s plus the installer that compiles
/// them onto a network as scheduled calls.
///
/// Windows touching the *same link* must not overlap (each window
/// snapshots the profile at its start and restores it at its end, so
/// overlapping windows would restore a degraded profile). Windows on
/// different links, and node crashes, compose freely.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule { faults: Vec::new() }
    }

    /// Adds a loss/latency/jitter degradation window on a link.
    pub fn degrade_link(
        mut self,
        link: LinkId,
        window: Range<SimDuration>,
        extra_loss: f64,
        extra_latency_ms: f64,
        extra_jitter_ms: f64,
    ) -> Self {
        self.faults.push(Fault::LinkDegrade {
            link,
            window,
            extra_loss: extra_loss.clamp(0.0, 1.0),
            extra_latency_ms,
            extra_jitter_ms,
        });
        self
    }

    /// Adds a hard partition window on a link.
    pub fn partition_link(mut self, link: LinkId, window: Range<SimDuration>) -> Self {
        self.faults.push(Fault::Partition { link, window });
        self
    }

    /// Crashes `node` at `at`, restarting it at `until` (`None` = never).
    pub fn crash_node(mut self, node: NodeId, at: SimDuration, until: Option<SimDuration>) -> Self {
        self.faults.push(Fault::NodeDown { node, at, until });
        self
    }

    /// Flaps `site`'s anycast advertisement: withdraw announced at
    /// `window.start`, re-advertisement at `window.end`, each subject to
    /// the catchment's propagation delay.
    pub fn flap_catchment(
        mut self,
        catchment: &AnycastCatchment,
        site: usize,
        window: Range<SimDuration>,
    ) -> Self {
        self.faults.push(Fault::CatchmentFlap {
            catchment: catchment.clone(),
            site,
            window,
        });
        self
    }

    /// A whole-region outage over `window`: every node in `nodes`
    /// crashes (restarting at the window's end), every backhaul link in
    /// `links` partitions, and — if the region is a federated site —
    /// its anycast advertisement flaps. This is the composed fault the
    /// federation capstone drives: the pieces are the ordinary
    /// `NodeDown`/`Partition`/`CatchmentFlap` plane, just aligned.
    pub fn region_outage(
        mut self,
        nodes: &[NodeId],
        links: &[LinkId],
        catchment: Option<(&AnycastCatchment, usize)>,
        window: Range<SimDuration>,
    ) -> Self {
        for &node in nodes {
            self = self.crash_node(node, window.start, Some(window.end));
        }
        for &link in links {
            self = self.partition_link(link, window.clone());
        }
        if let Some((catchment, site)) = catchment {
            self = self.flap_catchment(catchment, site, window);
        }
        self
    }

    /// Adds an already-built [`Fault`] (for schedules assembled from
    /// config data rather than builder calls).
    pub fn push(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Compiles the schedule onto `net` as [`Network::schedule_call`]
    /// events, offset from the network's current time.
    pub fn install(self, net: &mut Network) {
        for fault in self.faults {
            match fault {
                Fault::LinkDegrade {
                    link,
                    window,
                    extra_loss,
                    extra_latency_ms,
                    extra_jitter_ms,
                } => {
                    install_window(net, link, window, move |p| degrade_direction(
                        p,
                        extra_loss,
                        extra_latency_ms,
                        extra_jitter_ms,
                    ));
                }
                Fault::Partition { link, window } => {
                    install_window(net, link, window, |p| p.with_loss(1.0));
                }
                Fault::NodeDown { node, at, until } => {
                    net.schedule_call(at, move |net| net.set_node_up(node, false));
                    if let Some(until) = until {
                        assert!(until > at, "restart must come after the crash");
                        net.schedule_call(until, move |net| net.set_node_up(node, true));
                    }
                }
                Fault::CatchmentFlap {
                    catchment,
                    site,
                    window,
                } => {
                    assert!(window.end > window.start, "empty flap window");
                    let down = catchment.clone();
                    net.schedule_call(window.start, move |net| down.withdraw(net, site));
                    net.schedule_call(window.end, move |net| catchment.advertise(net, site));
                }
            }
        }
    }
}

/// Applies `degrade` to both directions of `link` for `window`,
/// snapshotting the profiles at window start and restoring them at the
/// end. The snapshot is shared between the two scheduled calls through an
/// `Rc` (one trial runs single-threaded), so a window sees whatever
/// profile the link has *when the window opens* — including changes made
/// by handoffs after the schedule was installed.
fn install_window<F>(net: &mut Network, link: LinkId, window: Range<SimDuration>, degrade: F)
where
    F: Fn(LinkProfile) -> LinkProfile + 'static,
{
    assert!(window.end > window.start, "empty fault window");
    let saved: Rc<RefCell<Option<(LinkProfile, LinkProfile)>>> = Rc::new(RefCell::new(None));
    let saved_for_restore = Rc::clone(&saved);
    net.schedule_call(window.start, move |net| {
        let (ab, ba) = net.link_profiles(link);
        *saved.borrow_mut() = Some((ab.clone(), ba.clone()));
        net.set_link_profiles(link, degrade(ab), degrade(ba));
    });
    net.schedule_call(window.end, move |net| {
        if let Some((ab, ba)) = saved_for_restore.borrow_mut().take() {
            net.set_link_profiles(link, ab, ba);
        }
    });
}

/// One direction's degraded profile: stack loss as independent drop
/// chances, then shift and widen the latency distribution.
fn degrade_direction(
    p: LinkProfile,
    extra_loss: f64,
    extra_latency_ms: f64,
    extra_jitter_ms: f64,
) -> LinkProfile {
    let combined_loss = 1.0 - (1.0 - p.loss) * (1.0 - extra_loss);
    let latency = p
        .latency
        .shifted_ms(extra_latency_ms)
        .widened_ms(extra_jitter_ms);
    LinkProfile {
        latency,
        loss: combined_loss.clamp(0.0, 1.0),
        ..p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Latency;
    use crate::node::{Datagram, NodeBehavior, NodeContext, TimerToken};
    use crate::time::SimTime;
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// Sends one probe every 100 ms and records the arrival times of the
    /// echoes.
    struct Prober {
        target: IpAddr,
        count: usize,
        sent: Vec<SimTime>,
        echoed: Vec<(u64, SimTime)>,
    }
    impl NodeBehavior for Prober {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(100 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
            self.sent.push(ctx.now());
            ctx.send(self.target, 7, data.to_be_bytes().to_vec());
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            let data = u64::from_be_bytes(dgram.payload.as_slice().try_into().unwrap());
            self.echoed.push((data, ctx.now()));
        }
    }

    struct Echo {
        restarted: usize,
    }
    impl NodeBehavior for Echo {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            let reply = dgram.reply_with(dgram.payload.clone());
            ctx.send_datagram(reply);
        }
        fn on_restart(&mut self, _ctx: &mut NodeContext<'_>) {
            self.restarted += 1;
        }
    }

    fn probe_world(seed: u64) -> (Network, crate::network::NodeId, LinkId) {
        let mut net = Network::new(seed);
        let a = net.add_node(
            "probe",
            [ip("10.0.0.1")],
            Prober {
                target: ip("10.0.0.2"),
                count: 20,
                sent: vec![],
                echoed: vec![],
            },
        );
        let b = net.add_node("echo", [ip("10.0.0.2")], Echo { restarted: 0 });
        let link = net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        (net, a, link)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn partition_window_drops_only_inside_the_window() {
        let (mut net, a, link) = probe_world(1);
        // Probes at 0,100,...,1900 ms; partition [450, 1050) eats 500..1000.
        FaultSchedule::new()
            .partition_link(link, ms(450)..ms(1050))
            .install(&mut net);
        net.run();
        let echoed: Vec<u64> = net
            .behavior::<Prober>(a)
            .echoed
            .iter()
            .map(|&(d, _)| d)
            .collect();
        let lost: Vec<u64> = (0..20).filter(|d| !echoed.contains(d)).collect();
        assert_eq!(lost, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(net.dropped_packets, 6);
    }

    #[test]
    fn degrade_window_restores_the_original_profile() {
        let (mut net, a, link) = probe_world(2);
        FaultSchedule::new()
            .degrade_link(link, ms(450)..ms(1050), 0.0, 40.0, 0.0)
            .install(&mut net);
        net.run();
        let echoed = &net.behavior::<Prober>(a).echoed;
        assert_eq!(echoed.len(), 20, "no loss configured — everything echoes");
        for &(d, at) in echoed {
            let rtt = at - (SimTime::ZERO + ms(100 * d));
            if (5..=9).contains(&d) {
                // Both directions pay +40 ms inside the window. Probe 10
                // departs at 1000 ms (inside) but is excluded: its echo
                // leg crosses the window edge.
                assert_eq!(rtt, ms(82), "probe {d} inside the window");
            } else if !(5..=10).contains(&d) {
                assert_eq!(rtt, ms(2), "probe {d} outside the window");
            }
        }
    }

    #[test]
    fn degraded_loss_stacks_with_existing_loss() {
        let p = LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_loss(0.5);
        let d = degrade_direction(p, 0.5, 0.0, 0.0);
        assert!((d.loss - 0.75).abs() < 1e-12);
    }

    #[test]
    fn crashed_node_blackholes_then_restarts() {
        let (mut net, a, _link) = probe_world(3);
        let b = net.node_by_addr(ip("10.0.0.2")).unwrap();
        FaultSchedule::new()
            .crash_node(b, ms(450), Some(ms(1050)))
            .install(&mut net);
        net.run();
        let echoed: Vec<u64> = net
            .behavior::<Prober>(a)
            .echoed
            .iter()
            .map(|&(d, _)| d)
            .collect();
        let lost: Vec<u64> = (0..20).filter(|d| !echoed.contains(d)).collect();
        assert_eq!(lost, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(net.node_down_drops, 6);
        assert_eq!(net.dropped_packets, 0, "silence is not link loss");
        assert_eq!(net.behavior::<Echo>(b).restarted, 1);
        assert!(net.node_is_up(b));
    }

    #[test]
    fn timers_armed_before_a_crash_never_fire() {
        struct Ticker {
            fired: Vec<SimTime>,
        }
        impl NodeBehavior for Ticker {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                for i in 0..10 {
                    ctx.set_timer(ms(100 * i), i);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
                self.fired.push(ctx.now());
            }
        }
        let mut net = Network::new(4);
        let n = net.add_node("t", [ip("10.0.0.1")], Ticker { fired: vec![] });
        // Crash at 250 ms, restart at 400 ms: ticks 0–2 fire; ticks 3–9
        // were armed before the crash so they are all void, even the ones
        // that would fire after the restart.
        FaultSchedule::new()
            .crash_node(n, ms(250), Some(ms(400)))
            .install(&mut net);
        net.run();
        assert_eq!(net.behavior::<Ticker>(n).fired.len(), 3);
    }

    #[test]
    fn same_seed_same_schedule_same_timeline() {
        fn run(seed: u64) -> Vec<(u64, SimTime)> {
            let (mut net, a, link) = probe_world(seed);
            FaultSchedule::new()
                .degrade_link(link, ms(300)..ms(900), 0.5, 10.0, 5.0)
                .install(&mut net);
            net.run();
            net.behavior::<Prober>(a).echoed.clone()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Regression: a `NodeDown` and a `Partition` overlapping on the
    /// same node/link must compose — the partition eats packets on the
    /// wire (`dropped_packets`), the crash eats packets that *reach*
    /// the dead node (`node_down_drops`), and both restores land
    /// deterministically in their own order.
    #[test]
    fn overlapping_node_down_and_partition_compose_and_restore() {
        fn run(seed: u64) -> (Vec<u64>, u64, u64, usize) {
            let (mut net, a, link) = probe_world(seed);
            let b = net.node_by_addr(ip("10.0.0.2")).unwrap();
            // Probes at 0,100,...,1900 ms. Crash window [350, 1250),
            // partition window [550, 1050) fully inside it.
            FaultSchedule::new()
                .crash_node(b, ms(350), Some(ms(1250)))
                .partition_link(link, ms(550)..ms(1050))
                .install(&mut net);
            net.run();
            let echoed: Vec<u64> = net
                .behavior::<Prober>(a)
                .echoed
                .iter()
                .map(|&(d, _)| d)
                .collect();
            let restarted = net.behavior::<Echo>(b).restarted;
            assert!(net.node_is_up(b));
            (echoed, net.dropped_packets, net.node_down_drops, restarted)
        }
        let (echoed, dropped, blackholed, restarted) = run(5);
        let lost: Vec<u64> = (0..20).filter(|d| !echoed.contains(d)).collect();
        // 4,5 and 11,12 die at the crashed node; 6..=10 die on the
        // partitioned wire before ever reaching it.
        assert_eq!(lost, vec![4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(dropped, 5, "partition drops are link drops");
        assert_eq!(blackholed, 4, "crash drops are node drops");
        assert_eq!(restarted, 1, "one cold restart after both restores");
        // The composed restore order is deterministic.
        assert_eq!(run(5), run(5));
    }

    /// Regression: when the partition heals at the *same instant* the
    /// node restarts, the restore order is fixed by schedule insertion
    /// order and the epoch bump still voids pre-crash timers.
    #[test]
    fn simultaneous_restore_is_deterministic_and_epoch_correct() {
        struct TickingEcho {
            restarted: usize,
            stale_fires: usize,
        }
        impl NodeBehavior for TickingEcho {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                // Armed pre-crash: must never fire, even after restore.
                ctx.set_timer(ms(700), 99);
            }
            fn on_timer(&mut self, _ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
                self.stale_fires += 1;
            }
            fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
                ctx.send_datagram(dgram.reply_with(dgram.payload.clone()));
            }
            fn on_restart(&mut self, _ctx: &mut NodeContext<'_>) {
                self.restarted += 1;
            }
        }
        fn run(seed: u64) -> Vec<u64> {
            let mut net = Network::new(seed);
            let a = net.add_node(
                "probe",
                [ip("10.0.0.1")],
                Prober {
                    target: ip("10.0.0.2"),
                    count: 12,
                    sent: vec![],
                    echoed: vec![],
                },
            );
            let b = net.add_node(
                "echo",
                [ip("10.0.0.2")],
                TickingEcho {
                    restarted: 0,
                    stale_fires: 0,
                },
            );
            let link = net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
            // Both faults restore at exactly 850 ms.
            FaultSchedule::new()
                .crash_node(b, ms(450), Some(ms(850)))
                .partition_link(link, ms(250)..ms(850))
                .install(&mut net);
            net.run();
            let echo = net.behavior::<TickingEcho>(b);
            assert_eq!(echo.restarted, 1);
            assert_eq!(echo.stale_fires, 0, "pre-crash timer must stay void");
            net.behavior::<Prober>(a)
                .echoed
                .iter()
                .map(|&(d, _)| d)
                .collect()
        }
        let echoed = run(6);
        // 3..=8 are lost (partition from 250 ms, crash inside it);
        // service resumes with probe 9 at 900 ms.
        assert_eq!(echoed, vec![0, 1, 2, 9, 10, 11]);
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn region_outage_composes_crash_partition_and_catchment_flap() {
        use crate::catchment::AnycastCatchment;
        let (mut net, a, link) = probe_world(8);
        let b = net.node_by_addr(ip("10.0.0.2")).unwrap();
        let catchment = AnycastCatchment::new(ip("198.18.0.53"), [ip("10.0.0.2")])
            .with_withdraw_delay(ms(100))
            .with_advertise_delay(ms(100));
        FaultSchedule::new()
            .region_outage(&[b], &[link], Some((&catchment, 0)), ms(450)..ms(1050))
            .install(&mut net);
        assert!(catchment.is_advertised(0));
        net.run_until(SimTime::ZERO + ms(540));
        // Withdraw announced at 450 ms converges at 550 ms.
        assert!(catchment.is_advertised(0), "withdraw still propagating");
        net.run_until(SimTime::ZERO + ms(560));
        assert!(!catchment.is_advertised(0), "withdraw converged");
        net.run_until(SimTime::ZERO + ms(1160));
        assert!(catchment.is_advertised(0), "re-advertised after the window");
        net.run();
        // The node crash and the partition both took effect: probes
        // 5..=10 are gone, split across the two drop counters.
        let echoed: Vec<u64> = net
            .behavior::<Prober>(a)
            .echoed
            .iter()
            .map(|&(d, _)| d)
            .collect();
        let lost: Vec<u64> = (0..20).filter(|d| !echoed.contains(d)).collect();
        assert_eq!(lost, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(net.dropped_packets, 6, "partition claims them on the wire");
        assert_eq!(net.node_down_drops, 0, "nothing survives to reach the node");
        assert_eq!(catchment.convergences(), 2);
    }
}
