//! Deterministic anycast catchment: one virtual address, many sites,
//! BGP-like per-client site selection with bounded reconvergence.
//!
//! The paper's single-MEC world answers "which resolver?" trivially —
//! there is one. A federated deployment advertises *one* anycast C-DNS
//! address from every MEC site and lets routing pick the site. Real
//! anycast catchments are shaped by BGP preference and converge only
//! after withdraw/advertise propagation; this module reproduces both
//! properties deterministically:
//!
//! * [`AnycastCatchment`] is the shared routing state: the anycast
//!   address, the per-site unicast addresses, which sites currently
//!   advertise, per-client preference tables, and the configured
//!   withdraw/advertise propagation delays. Site selection
//!   ([`AnycastCatchment::select`]) is a **pure function** of
//!   `(client, advertised-site set)` — no RNG, no ambient state — so
//!   the same trace always lands in the same catchment.
//! * [`AnycastGateway`] is the data plane: a [`NodeBehavior`] for the
//!   aggregation router that rewrites anycast-destined packets to the
//!   selected site (and site replies back to the anycast source), the
//!   same `on_forward` NAT mechanism the P-GW uses.
//! * [`AnycastCatchment::withdraw`] / [`AnycastCatchment::advertise`]
//!   model route propagation: the flip takes effect only after the
//!   configured delay, so a freshly-dead site keeps attracting (and
//!   blackholing) its catchment for a bounded window — the
//!   time-to-reconverge the federation experiment measures.
//!
//! Clients with no explicit preference entry get a pseudorandom but
//! client-keyed site permutation (splitmix64 over the client address),
//! mirroring how unrelated networks land in effectively arbitrary but
//! *stable* catchments.

use crate::addr::Cidr;
use crate::network::Network;
use crate::node::{Datagram, ForwardAction, NodeBehavior, NodeContext};
use crate::time::SimDuration;
use std::cell::RefCell;
use std::fmt;
use std::net::IpAddr;
use std::rc::Rc;

/// One federated site as the catchment layer sees it.
#[derive(Debug, Clone)]
struct SiteEntry {
    /// The site's unicast service address (where anycast traffic is
    /// actually delivered).
    addr: IpAddr,
    /// Whether the site currently advertises the anycast prefix.
    advertised: bool,
}

#[derive(Debug)]
struct CatchmentState {
    anycast: IpAddr,
    sites: Vec<SiteEntry>,
    withdraw_delay: SimDuration,
    advertise_delay: SimDuration,
    /// Explicit per-client preference tables: first matching prefix
    /// (longest wins) supplies the site order. Insertion order breaks
    /// prefix-length ties, so lookups are fully deterministic.
    preferences: Vec<(Cidr, Vec<usize>)>,
    /// Packets to the anycast address while no site advertised.
    blackholed: u64,
    /// Anycast packets rewritten toward a site.
    delivered: u64,
    /// Advertisement flips that actually changed state.
    convergences: u64,
}

/// Shared handle on the catchment state. Cloning shares (does not copy)
/// the state, like `ResolverDirective`: the gateway's data plane, the
/// fault plane and the experiment all observe the same routing table.
#[derive(Clone)]
pub struct AnycastCatchment {
    inner: Rc<RefCell<CatchmentState>>,
}

impl fmt::Debug for AnycastCatchment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("AnycastCatchment")
            .field("anycast", &st.anycast)
            .field("sites", &st.sites)
            .finish()
    }
}

/// splitmix64's output mixing function — the client-keyed hash behind
/// default preference orders.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A client address folded to the u64 key its default preference
/// permutation is derived from.
fn ip_key(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => u64::from(u32::from(v4)),
        IpAddr::V6(v6) => {
            let o = v6.octets();
            o.iter().fold(0u64, |h, &b| splitmix64(h ^ u64::from(b)))
        }
    }
}

impl AnycastCatchment {
    /// A catchment over `sites` (all advertising) behind `anycast`,
    /// with default 200 ms withdraw and advertise propagation delays.
    pub fn new<I>(anycast: IpAddr, sites: I) -> Self
    where
        I: IntoIterator<Item = IpAddr>,
    {
        let sites = sites
            .into_iter()
            .map(|addr| SiteEntry {
                addr,
                advertised: true,
            })
            .collect();
        AnycastCatchment {
            inner: Rc::new(RefCell::new(CatchmentState {
                anycast,
                sites,
                withdraw_delay: SimDuration::from_millis(200),
                advertise_delay: SimDuration::from_millis(200),
                preferences: Vec::new(),
                blackholed: 0,
                delivered: 0,
                convergences: 0,
            })),
        }
    }

    /// Sets how long a withdrawal takes to propagate (the reconvergence
    /// bound the federation experiment reports against).
    pub fn with_withdraw_delay(self, delay: SimDuration) -> Self {
        self.inner.borrow_mut().withdraw_delay = delay;
        self
    }

    /// Sets how long a re-advertisement takes to propagate.
    pub fn with_advertise_delay(self, delay: SimDuration) -> Self {
        self.inner.borrow_mut().advertise_delay = delay;
        self
    }

    /// Pins clients in `prefix` to trying sites in `order` (site
    /// indices; sites not listed are never selected for these clients).
    /// Longest matching prefix wins; insertion order breaks ties.
    pub fn set_preference(&self, prefix: Cidr, order: Vec<usize>) {
        let mut st = self.inner.borrow_mut();
        if let Some(slot) = st.preferences.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = order;
        } else {
            st.preferences.push((prefix, order));
        }
    }

    /// The anycast service address.
    pub fn anycast_addr(&self) -> IpAddr {
        self.inner.borrow().anycast
    }

    /// The unicast address of site `idx`, if it exists.
    pub fn site_addr(&self, idx: usize) -> Option<IpAddr> {
        self.inner.borrow().sites.get(idx).map(|s| s.addr)
    }

    /// The number of federated sites.
    pub fn site_count(&self) -> usize {
        self.inner.borrow().sites.len()
    }

    /// Whether site `idx` currently advertises the anycast prefix.
    pub fn is_advertised(&self, idx: usize) -> bool {
        self.inner
            .borrow()
            .sites
            .get(idx)
            .is_some_and(|s| s.advertised)
    }

    /// The currently advertised site indices, ascending.
    pub fn advertised_sites(&self) -> Vec<usize> {
        self.inner
            .borrow()
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.advertised)
            .map(|(i, _)| i)
            .collect()
    }

    /// The configured withdraw propagation delay.
    pub fn withdraw_delay(&self) -> SimDuration {
        self.inner.borrow().withdraw_delay
    }

    /// Anycast packets that arrived while no site advertised.
    pub fn blackholed(&self) -> u64 {
        self.inner.borrow().blackholed
    }

    /// Anycast packets rewritten toward a site.
    pub fn delivered(&self) -> u64 {
        self.inner.borrow().delivered
    }

    /// Advertisement flips that actually changed routing state.
    pub fn convergences(&self) -> u64 {
        self.inner.borrow().convergences
    }

    /// `client`'s site preference order: the longest explicit prefix
    /// match if one exists, otherwise a client-keyed splitmix64
    /// permutation of all sites. Pure in `(client, preference tables)`.
    pub fn preference(&self, client: IpAddr) -> Vec<usize> {
        let st = self.inner.borrow();
        let explicit = st
            .preferences
            .iter()
            .filter(|(p, _)| p.contains(client))
            .max_by_key(|(p, _)| p.prefix_len());
        if let Some((_, order)) = explicit {
            return order.clone();
        }
        // Fisher–Yates keyed on the client address: stable per client,
        // spread across clients, zero ambient randomness.
        let mut order: Vec<usize> = (0..st.sites.len()).collect();
        let mut key = splitmix64(ip_key(client));
        for i in (1..order.len()).rev() {
            key = splitmix64(key);
            let j = (key % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// The site `client`'s traffic lands on right now: the first
    /// *advertised* site in the client's preference order. `None` while
    /// no preferred site advertises (anycast blackhole). Pure in
    /// `(client, advertised-site set)` — the proptest invariant.
    pub fn select(&self, client: IpAddr) -> Option<usize> {
        let order = self.preference(client);
        let st = self.inner.borrow();
        order
            .into_iter()
            .find(|&i| st.sites.get(i).is_some_and(|s| s.advertised))
    }

    /// Flips site `idx`'s advertisement immediately (the propagated
    /// end-state of [`withdraw`](Self::withdraw) /
    /// [`advertise`](Self::advertise)).
    pub fn set_advertised(&self, idx: usize, advertised: bool) {
        let mut st = self.inner.borrow_mut();
        if let Some(site) = st.sites.get_mut(idx) {
            if site.advertised != advertised {
                site.advertised = advertised;
                st.convergences += 1;
            }
        }
    }

    /// Withdraws site `idx`'s advertisement, taking effect after the
    /// configured withdraw delay. Until then the site keeps attracting
    /// its catchment — a dead site blackholes exactly that long.
    pub fn withdraw(&self, net: &mut Network, idx: usize) {
        let delay = self.inner.borrow().withdraw_delay;
        let handle = self.clone();
        net.schedule_call(delay, move |_net| handle.set_advertised(idx, false));
    }

    /// Re-advertises site `idx`, taking effect after the configured
    /// advertise delay.
    pub fn advertise(&self, net: &mut Network, idx: usize) {
        let delay = self.inner.borrow().advertise_delay;
        let handle = self.clone();
        net.schedule_call(delay, move |_net| handle.set_advertised(idx, true));
    }

    /// Which site `addr` belongs to, if any.
    fn site_index_of(&self, addr: IpAddr) -> Option<usize> {
        self.inner
            .borrow()
            .sites
            .iter()
            .position(|s| s.addr == addr)
    }
}

/// The anycast data plane: install this behavior on the aggregation
/// router every client-to-site path crosses. Transit packets addressed
/// to the anycast address are rewritten to the selected site's unicast
/// address; site replies crossing back are rewritten to appear from the
/// anycast address, so clients see one stable resolver.
///
/// The anycast address itself is *unowned* — no node binds it — so the
/// experiment routes the anycast prefix at this gateway and the rewrite
/// happens in `on_forward`, exactly like the P-GW's NAT.
pub struct AnycastGateway {
    catchment: AnycastCatchment,
}

impl AnycastGateway {
    /// A gateway over `catchment`.
    pub fn new(catchment: AnycastCatchment) -> Self {
        AnycastGateway { catchment }
    }

    /// The shared catchment handle.
    pub fn catchment(&self) -> &AnycastCatchment {
        &self.catchment
    }
}

impl NodeBehavior for AnycastGateway {
    fn on_forward(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) -> ForwardAction {
        if dgram.dst == self.catchment.anycast_addr() {
            match self.catchment.select(dgram.src) {
                Some(idx) => match self.catchment.site_addr(idx) {
                    Some(site) => {
                        self.catchment.inner.borrow_mut().delivered += 1;
                        ForwardAction::Forward(Datagram { dst: site, ..dgram })
                    }
                    None => {
                        self.catchment.inner.borrow_mut().blackholed += 1;
                        ForwardAction::Consume
                    }
                },
                None => {
                    self.catchment.inner.borrow_mut().blackholed += 1;
                    ForwardAction::Consume
                }
            }
        } else if self.catchment.site_index_of(dgram.src).is_some() {
            ForwardAction::Forward(Datagram {
                src: self.catchment.anycast_addr(),
                ..dgram
            })
        } else {
            ForwardAction::Forward(dgram)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Latency;
    use crate::network::LinkProfile;
    use crate::node::TimerToken;
    use crate::time::SimTime;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn three_sites() -> AnycastCatchment {
        AnycastCatchment::new(
            ip("198.18.0.53"),
            [ip("10.100.0.10"), ip("10.101.0.10"), ip("10.102.0.10")],
        )
    }

    #[test]
    fn selection_is_stable_per_client_and_spread_across_clients() {
        let c = three_sites();
        let a = ip("172.16.0.9");
        assert_eq!(c.select(a), c.select(a), "same client, same catchment");
        // Across a swath of clients every site catches someone.
        let mut seen = [false; 3];
        for i in 0..64u32 {
            let client = IpAddr::V4(std::net::Ipv4Addr::from(0xac10_0000 + i));
            seen[c.select(client).unwrap()] = true;
        }
        assert_eq!(seen, [true, true, true], "all sites attract catchment");
    }

    #[test]
    fn explicit_preference_beats_the_hash_and_longest_prefix_wins() {
        let c = three_sites();
        c.set_preference(Cidr::new(ip("172.16.0.0"), 16), vec![2, 0, 1]);
        c.set_preference(Cidr::new(ip("172.16.9.0"), 24), vec![1, 2, 0]);
        assert_eq!(c.select(ip("172.16.1.1")), Some(2), "/16 entry");
        assert_eq!(c.select(ip("172.16.9.1")), Some(1), "/24 shadows /16");
        // Re-pinning an existing prefix replaces, not duplicates.
        c.set_preference(Cidr::new(ip("172.16.0.0"), 16), vec![0]);
        assert_eq!(c.select(ip("172.16.1.1")), Some(0));
    }

    #[test]
    fn selection_walks_the_preference_order_as_sites_withdraw() {
        let c = three_sites();
        c.set_preference(Cidr::v4_default(), vec![1, 0, 2]);
        let client = ip("172.16.0.9");
        assert_eq!(c.select(client), Some(1));
        c.set_advertised(1, false);
        assert_eq!(c.select(client), Some(0));
        c.set_advertised(0, false);
        assert_eq!(c.select(client), Some(2));
        c.set_advertised(2, false);
        assert_eq!(c.select(client), None, "nothing advertised: blackhole");
        assert_eq!(c.convergences(), 3);
        c.set_advertised(1, true);
        assert_eq!(c.select(client), Some(1), "re-advertised site recaptures");
        // Preference lists can exclude sites entirely.
        c.set_preference(Cidr::v4_default(), vec![0]);
        assert_eq!(c.select(client), None, "pinned to a withdrawn site only");
    }

    #[test]
    fn withdraw_takes_effect_only_after_the_configured_delay() {
        let mut net = Network::new(7);
        let c = three_sites().with_withdraw_delay(SimDuration::from_millis(250));
        c.set_preference(Cidr::v4_default(), vec![0, 1, 2]);
        let client = ip("172.16.0.9");
        c.withdraw(&mut net, 0);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(249));
        assert_eq!(c.select(client), Some(0), "still converging");
        net.run_until(SimTime::ZERO + SimDuration::from_millis(251));
        assert_eq!(c.select(client), Some(1), "converged to next preference");
        c.advertise(&mut net, 0);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(460));
        assert_eq!(c.select(client), Some(0), "re-advertisement propagated");
    }

    /// A client that fires one query per timer tick at the anycast
    /// address and records which *site* answered (sites echo their own
    /// unicast address in the payload; the gateway hides it in `src`).
    struct AnycastProbe {
        anycast: IpAddr,
        count: usize,
        replies: Vec<(IpAddr, Vec<u8>)>,
    }
    impl NodeBehavior for AnycastProbe {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(100 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
            ctx.send(self.anycast, 53, b"who".to_vec());
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.replies.push((dgram.src, dgram.payload));
        }
    }

    /// Answers every datagram with its own unicast address.
    struct SiteEcho {
        me: IpAddr,
    }
    impl NodeBehavior for SiteEcho {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            let me = match self.me {
                IpAddr::V4(v4) => v4.octets().to_vec(),
                IpAddr::V6(v6) => v6.octets().to_vec(),
            };
            ctx.send_datagram(dgram.reply_with(me));
        }
    }

    #[test]
    fn gateway_nats_anycast_to_the_catchment_site_and_hides_the_reply_src() {
        let anycast = ip("198.18.0.53");
        let sites = [ip("10.100.0.10"), ip("10.101.0.10")];
        let c = AnycastCatchment::new(anycast, sites)
            .with_withdraw_delay(SimDuration::from_millis(150));
        c.set_preference(Cidr::v4_default(), vec![0, 1]);

        let mut net = Network::new(11);
        let client = net.add_node(
            "client",
            [ip("172.16.0.9")],
            AnycastProbe {
                anycast,
                count: 8,
                replies: vec![],
            },
        );
        let gw = net.add_node("agg-gw", [ip("10.99.0.1")], AnycastGateway::new(c.clone()));
        let s0 = net.add_node("site0", [sites[0]], SiteEcho { me: sites[0] });
        let s1 = net.add_node("site1", [sites[1]], SiteEcho { me: sites[1] });
        let fast = LinkProfile::with_latency(Latency::ConstantMs(1.0));
        net.connect(client, gw, fast.clone());
        net.connect(gw, s0, fast.clone());
        net.connect(gw, s1, fast);
        // The anycast address is unowned: route it (and the sites) at
        // the gateway.
        net.add_default_route(client, gw);
        net.add_default_route(s0, gw);
        net.add_default_route(s1, gw);

        // Site 0 dies at 350 ms and is withdrawn; convergence at 500 ms.
        net.schedule_call(SimDuration::from_millis(350), move |net| {
            net.set_node_up(s0, false);
        });
        let c2 = c.clone();
        net.schedule_call(SimDuration::from_millis(350), move |net| {
            c2.withdraw(net, 0);
        });
        net.run();

        let probe = net.behavior::<AnycastProbe>(client);
        // Probes 0-3 (0..300 ms) reach site 0; probes 4 (400 ms) is
        // blackholed at the dead-but-advertised site 0; probes 5-7
        // (500+ ms) land on site 1 after convergence.
        assert_eq!(probe.replies.len(), 7);
        let site0_octets = vec![10, 100, 0, 10];
        let site1_octets = vec![10, 101, 0, 10];
        for (i, (src, payload)) in probe.replies.iter().enumerate() {
            assert_eq!(*src, anycast, "reply {i} must appear from the anycast addr");
            if i < 4 {
                assert_eq!(payload, &site0_octets, "reply {i} served by site 0");
            } else {
                assert_eq!(payload, &site1_octets, "reply {i} served by site 1");
            }
        }
        assert_eq!(net.node_down_drops, 1, "probe 4 blackholed at dead site 0");
        assert_eq!(c.delivered(), 8);
        assert_eq!(c.convergences(), 1);
    }

    #[test]
    fn unrouted_anycast_packets_are_consumed_and_counted() {
        let anycast = ip("198.18.0.53");
        let c = AnycastCatchment::new(anycast, [ip("10.100.0.10")]);
        c.set_advertised(0, false);
        let mut net = Network::new(3);
        let client = net.add_node(
            "client",
            [ip("172.16.0.9")],
            AnycastProbe {
                anycast,
                count: 3,
                replies: vec![],
            },
        );
        let gw = net.add_node("agg-gw", [ip("10.99.0.1")], AnycastGateway::new(c.clone()));
        net.connect(
            client,
            gw,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.add_default_route(client, gw);
        net.run();
        assert_eq!(net.behavior::<AnycastProbe>(client).replies.len(), 0);
        assert_eq!(c.blackholed(), 3);
        assert_eq!(c.delivered(), 0);
    }
}
