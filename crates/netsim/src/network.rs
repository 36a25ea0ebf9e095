//! The network engine: nodes, links, routing, the event loop.

use crate::addr::Cidr;
use crate::dist::Latency;
use crate::node::{Datagram, ForwardAction, NodeBehavior, NodeContext, TimerToken};
use crate::sched::TimerWheel;
use crate::stats::SchedStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TapDirection, TapRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::IpAddr;

/// Handle to a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Handle to a (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(usize);

/// Delay, loss and capacity model of one link direction (applied to both
/// directions of a connection unless [`Network::connect_asymmetric`] is
/// used).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation + processing delay distribution.
    pub latency: Latency,
    /// Probability a packet is silently dropped (fault injection).
    pub loss: f64,
    /// Probability one payload byte is flipped (fault injection).
    pub corrupt: f64,
    /// Bits per second for serialization delay and FIFO queueing;
    /// `None` models an uncongested link with zero serialization delay.
    pub bandwidth_bps: Option<u64>,
}

impl LinkProfile {
    /// A clean link with the given latency and no loss, corruption or
    /// bandwidth limit.
    pub fn with_latency(latency: Latency) -> Self {
        LinkProfile {
            latency,
            loss: 0.0,
            corrupt: 0.0,
            bandwidth_bps: None,
        }
    }

    /// Datacenter / same-rack LAN: ~0.2–0.5 ms, gigabit.
    pub fn lan() -> Self {
        LinkProfile {
            latency: Latency::UniformMs(0.2, 0.5),
            loss: 0.0,
            corrupt: 0.0,
            bandwidth_bps: Some(1_000_000_000),
        }
    }

    /// Intra-cluster (same Kubernetes host / kube-proxy hop): tens of µs.
    pub fn intra_cluster() -> Self {
        LinkProfile {
            latency: Latency::UniformMs(0.02, 0.08),
            loss: 0.0,
            corrupt: 0.0,
            bandwidth_bps: Some(10_000_000_000),
        }
    }

    /// Metro / regional WAN hop: ~10–20 ms one way with mild skew.
    pub fn wan() -> Self {
        LinkProfile {
            latency: Latency::skewed(9.0, 14.0, 4.0),
            loss: 0.0,
            corrupt: 0.0,
            bandwidth_bps: Some(100_000_000),
        }
    }

    /// Sets the loss probability (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets the corruption probability (builder style).
    pub fn with_corruption(mut self, corrupt: f64) -> Self {
        self.corrupt = corrupt.clamp(0.0, 1.0);
        self
    }

    /// Sets the bandwidth (builder style).
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        self.bandwidth_bps = Some(bps);
        self
    }
}

struct DirectionState {
    profile: LinkProfile,
    /// When the transmitter is next free (FIFO serialization queue).
    next_free: SimTime,
}

struct Link {
    a: NodeId,
    b: NodeId,
    /// Direction a→b.
    ab: DirectionState,
    /// Direction b→a.
    ba: DirectionState,
}

struct Node {
    name: String,
    addrs: Vec<IpAddr>,
    behavior: Option<Box<dyn NodeBehavior>>,
    /// Longest-prefix-match routing table: (prefix, neighbor).
    routes: Vec<(Cidr, NodeId)>,
    tap: Option<Vec<TapRecord>>,
    tap_payloads: bool,
    /// False while the node is crashed: packets addressed to or routed
    /// through it are blackholed and its timers do not fire.
    up: bool,
    /// Bumped on every crash so timers armed before the crash can be
    /// recognised (and discarded) if they fire after a restart.
    epoch: u64,
    /// Next ephemeral source port for this node. Per-node, so a million
    /// UEs behind one simulation don't share (and exhaust) one 16-bit
    /// port sequence.
    next_ephemeral: u16,
}

/// The queued-event payload. Datagrams are boxed: at city scale millions
/// of events are pending at once, and a slim `Event` (the common `Timer`
/// variant carries four words) keeps every queued cell small — see the
/// `event_size_budget` test.
enum Event {
    /// Packet arrives at `node` after traversing a link.
    Arrive {
        node: NodeId,
        dgram: Box<Datagram>,
        ttl: u8,
    },
    /// Locally-originated packet enters the network at `node`.
    Depart { node: NodeId, dgram: Box<Datagram> },
    /// Timer fires at `node`.
    Timer {
        node: NodeId,
        token: TimerToken,
        data: u64,
        /// The node's crash epoch when the timer was armed; a stale epoch
        /// means the node crashed in between and the timer is void.
        epoch: u64,
    },
    /// `on_start` for `node`.
    Start { node: NodeId },
    /// An experiment-level callback (topology changes mid-run: handoffs,
    /// scaling events, load ramps).
    Call(Box<dyn FnOnce(&mut Network)>),
}

/// Initial IP TTL; packets caught in a routing loop die after this many
/// hops instead of looping forever.
const INITIAL_TTL: u8 = 64;

/// The simulated network: nodes, links, routes and the event queue.
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: HashMap<(NodeId, NodeId), LinkId>,
    addr_index: HashMap<IpAddr, NodeId>,
    /// The event scheduler — a hierarchical timing wheel preserving
    /// exact `(time, seq)` FIFO order (see [`crate::sched`]).
    wheel: TimerWheel<Event>,
    now: SimTime,
    rng: StdRng,
    next_timer: u64,
    /// Count of packets dropped by fault injection (observability).
    pub dropped_packets: u64,
    /// Count of packets that exceeded the hop limit.
    pub ttl_expired_packets: u64,
    /// Count of packets with no matching route at some hop.
    pub unroutable_packets: u64,
    /// Count of packets blackholed because the node they reached (for
    /// delivery or forwarding) was down. Distinct from link loss: a
    /// crashed server answers with silence, not SERVFAIL.
    pub node_down_drops: u64,
}

// detlint: allow-item(hot-index) — `NodeId`/`LinkId` are only minted by
// `add_node`/`connect` from the vector lengths, nodes and links are
// never removed, and ids are not forgeable outside the crate, so every
// `self.nodes[..]`/`self.links[..]` access is in bounds; `payload[idx]`
// draws `idx` from `0..payload.len()`.
impl Network {
    /// Creates an empty network with a seeded RNG. The same seed always
    /// produces the same simulation.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: HashMap::new(),
            addr_index: HashMap::new(),
            wheel: TimerWheel::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            next_timer: 0,
            dropped_packets: 0,
            ttl_expired_packets: 0,
            unroutable_packets: 0,
            node_down_drops: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Adds a node with the given addresses and behavior. Schedules its
    /// `on_start` at the current time.
    pub fn add_node<B, I>(&mut self, name: &str, addrs: I, behavior: B) -> NodeId
    where
        B: NodeBehavior + 'static,
        I: IntoIterator<Item = IpAddr>,
    {
        let id = NodeId(self.nodes.len());
        let addrs: Vec<IpAddr> = addrs.into_iter().collect();
        assert!(!addrs.is_empty(), "node {name} needs at least one address");
        for &a in &addrs {
            let prev = self.addr_index.insert(a, id);
            assert!(prev.is_none(), "address {a} already assigned");
        }
        self.nodes.push(Node {
            name: name.to_string(),
            addrs,
            behavior: Some(Box::new(behavior)),
            routes: Vec::new(),
            tap: None,
            tap_payloads: false,
            up: true,
            epoch: 0,
            next_ephemeral: 49152,
        });
        self.schedule(self.now, Event::Start { node: id });
        id
    }

    /// Adds an extra address to an existing node — how the orchestrator
    /// hands out ClusterIPs and reused public IPs.
    pub fn add_addr(&mut self, node: NodeId, addr: IpAddr) {
        let prev = self.addr_index.insert(addr, node);
        assert!(prev.is_none(), "address {addr} already assigned");
        self.nodes[node.0].addrs.push(addr);
    }

    /// Removes an address from a node (IP reuse / reassignment).
    pub fn remove_addr(&mut self, node: NodeId, addr: IpAddr) {
        if self.addr_index.get(&addr) == Some(&node) {
            self.addr_index.remove(&addr);
            self.nodes[node.0].addrs.retain(|&a| a != addr);
        }
    }

    /// The node's first (primary) address.
    pub fn primary_addr(&self, node: NodeId) -> IpAddr {
        self.nodes[node.0].addrs[0]
    }

    /// The node's display name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Which node owns `addr`, if any.
    pub fn node_by_addr(&self, addr: IpAddr) -> Option<NodeId> {
        self.addr_index.get(&addr).copied()
    }

    /// Connects two nodes with the same profile both ways, and installs
    /// host routes for each other's current addresses.
    pub fn connect(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) -> LinkId {
        self.connect_asymmetric(a, b, profile.clone(), profile)
    }

    /// Connects two nodes with distinct per-direction profiles (e.g. an
    /// asymmetric uplink/downlink radio bearer).
    pub fn connect_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkProfile,
        ba: LinkProfile,
    ) -> LinkId {
        assert_ne!(a, b, "cannot link a node to itself");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            ab: DirectionState {
                profile: ab,
                next_free: SimTime::ZERO,
            },
            ba: DirectionState {
                profile: ba,
                next_free: SimTime::ZERO,
            },
        });
        self.adjacency.insert((a, b), id);
        self.adjacency.insert((b, a), id);
        // Neighbors can always reach each other's current addresses.
        let b_addrs = self.nodes[b.0].addrs.clone();
        for addr in b_addrs {
            self.add_route(a, Cidr::host(addr), b);
        }
        let a_addrs = self.nodes[a.0].addrs.clone();
        for addr in a_addrs {
            self.add_route(b, Cidr::host(addr), a);
        }
        id
    }

    /// Replaces both directions' profiles on an existing link — used for
    /// handoff (radio quality change) and fault injection mid-run.
    pub fn set_link_profile(&mut self, link: LinkId, profile: LinkProfile) {
        let l = &mut self.links[link.0];
        l.ab.profile = profile.clone();
        l.ba.profile = profile;
    }

    /// Both directions' current profiles (a→b, b→a) — what a fault window
    /// snapshots before degrading a link so it can restore exactly what
    /// was there, including asymmetric bearers.
    pub fn link_profiles(&self, link: LinkId) -> (LinkProfile, LinkProfile) {
        let l = &self.links[link.0];
        (l.ab.profile.clone(), l.ba.profile.clone())
    }

    /// Replaces the per-direction profiles (a→b, b→a) on an existing link.
    pub fn set_link_profiles(&mut self, link: LinkId, ab: LinkProfile, ba: LinkProfile) {
        let l = &mut self.links[link.0];
        l.ab.profile = ab;
        l.ba.profile = ba;
    }

    /// Whether the node is currently up (not crashed).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.nodes[node.0].up
    }

    /// Crashes (`up = false`) or restarts (`up = true`) a node. While
    /// down, packets addressed to or forwarded through the node are
    /// blackholed (counted in [`Network::node_down_drops`]) and its timers
    /// are void — including timers armed *before* the crash that would
    /// have fired after the restart, modelling lost in-memory state. On
    /// the down→up transition the behavior's
    /// [`NodeBehavior::on_restart`] hook runs so it can re-arm timers and
    /// reset transaction state. Draws no randomness, so injecting a crash
    /// never perturbs the RNG timeline of unrelated traffic.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        if self.nodes[node.0].up == up {
            return;
        }
        self.nodes[node.0].up = up;
        if up {
            self.with_behavior(node, |beh, ctx| beh.on_restart(ctx));
        } else {
            self.nodes[node.0].epoch += 1;
        }
    }

    /// Adds a routing-table entry: packets at `node` matching `prefix` go
    /// to `via` (which must be a connected neighbor when the packet is
    /// forwarded).
    pub fn add_route(&mut self, node: NodeId, prefix: Cidr, via: NodeId) {
        let routes = &mut self.nodes[node.0].routes;
        // Replace an identical prefix if present (route updates).
        if let Some(slot) = routes.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = via;
            return;
        }
        // Longest prefix first so lookup can take the first match. A
        // positional insert keeps the table sorted without re-sorting the
        // whole table on every added route; inserting after all equal
        // prefix lengths preserves the stable-sort (first-match-wins)
        // order the old push-then-sort produced.
        let pos = routes.partition_point(|(p, _)| p.prefix_len() >= prefix.prefix_len());
        routes.insert(pos, (prefix, via));
    }

    /// Convenience: default route (0.0.0.0/0) via a neighbor.
    pub fn add_default_route(&mut self, node: NodeId, via: NodeId) {
        self.add_route(node, Cidr::v4_default(), via);
    }

    /// Enables packet capture on a node.
    pub fn enable_tap(&mut self, node: NodeId) {
        self.nodes[node.0].tap.get_or_insert_with(Vec::new);
    }

    /// Enables packet capture with full payloads — what
    /// [`crate::pcap::write_pcap`] consumes.
    pub fn enable_tap_with_payloads(&mut self, node: NodeId) {
        self.enable_tap(node);
        self.nodes[node.0].tap_payloads = true;
    }

    /// Drains captured records from a tapped node.
    pub fn take_tap(&mut self, node: NodeId) -> Vec<TapRecord> {
        self.nodes[node.0]
            .tap
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// A fresh ephemeral source port for `node`. Allocation is
    /// per-source-node: each node cycles its own 49152..=65535 range and
    /// wraps back to 49152, so one chatty node cannot exhaust or collide
    /// with another node's port sequence.
    pub(crate) fn ephemeral_port(&mut self, node: NodeId) -> u16 {
        let p = self.nodes[node.0].next_ephemeral;
        self.nodes[node.0].next_ephemeral = if p == u16::MAX { 49152 } else { p + 1 };
        p
    }

    pub(crate) fn set_timer(
        &mut self,
        node: NodeId,
        delay: SimDuration,
        data: u64,
    ) -> TimerToken {
        let token = TimerToken(self.next_timer);
        self.next_timer += 1;
        let epoch = self.nodes[node.0].epoch;
        self.schedule(
            self.now + delay,
            Event::Timer {
                node,
                token,
                data,
                epoch,
            },
        );
        token
    }

    /// Entry point for locally-originated traffic (from behaviors).
    pub(crate) fn inject(&mut self, node: NodeId, dgram: Datagram) {
        self.tap_record(node, TapDirection::Originate, &dgram);
        self.schedule(
            self.now,
            Event::Depart {
                node,
                dgram: Box::new(dgram),
            },
        );
    }

    fn schedule(&mut self, time: SimTime, event: Event) {
        self.wheel.schedule(time, event);
    }

    /// Scheduler counters accumulated so far (depth high-water mark,
    /// cascades, executed events) — what `city` folds into its report
    /// without ad-hoc instrumentation.
    pub fn sched_stats(&self) -> SchedStats {
        *self.wheel.stats()
    }

    /// Events currently pending in the scheduler.
    pub fn pending_events(&self) -> usize {
        self.wheel.len()
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or virtual time would pass
    /// `deadline`; events after the deadline stay queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.wheel.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Processes one event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.wheel.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        match event {
            Event::Start { node } => self.with_behavior(node, |beh, ctx| beh.on_start(ctx)),
            Event::Timer {
                node,
                token,
                data,
                epoch,
            } => {
                // Timers armed before a crash die with the crash; timers
                // for a currently-down node are likewise void.
                if self.nodes[node.0].up && self.nodes[node.0].epoch == epoch {
                    self.with_behavior(node, |beh, ctx| beh.on_timer(ctx, token, data))
                }
            }
            Event::Depart { node, dgram } => self.route_from(node, *dgram, INITIAL_TTL),
            Event::Arrive { node, dgram, ttl } => self.arrive(node, *dgram, ttl),
            Event::Call(f) => f(self),
        }
        true
    }

    /// Schedules `f` to run against the network after `delay` — the hook
    /// experiments use to change topology mid-run (handoff link swaps,
    /// scaling events, attack ramps).
    pub fn schedule_call<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut Network) + 'static,
    {
        let t = self.now + delay;
        self.schedule(t, Event::Call(Box::new(f)));
    }

    fn arrive(&mut self, node: NodeId, dgram: Datagram, ttl: u8) {
        if !self.nodes[node.0].up {
            // A crashed host neither answers nor forwards; the sender
            // sees silence (timeout), not an error response.
            self.node_down_drops += 1;
            return;
        }
        if self.nodes[node.0].addrs.contains(&dgram.dst) {
            self.tap_record(node, TapDirection::Deliver, &dgram);
            self.with_behavior(node, |beh, ctx| beh.on_datagram(ctx, dgram));
            return;
        }
        // Transit packet: give the forwarding hook a chance (NAT etc.),
        // then route on.
        self.tap_record(node, TapDirection::Forward, &dgram);
        let mut forwarded: Option<Datagram> = None;
        self.with_behavior(node, |beh, ctx| {
            forwarded = match beh.on_forward(ctx, dgram) {
                ForwardAction::Forward(d) => Some(d),
                ForwardAction::Consume => None,
            };
        });
        if let Some(d) = forwarded {
            if ttl == 0 {
                self.ttl_expired_packets += 1;
                return;
            }
            self.route_from(node, d, ttl - 1);
        }
    }

    /// Looks up the next hop at `node` and puts the packet on that link.
    fn route_from(&mut self, node: NodeId, dgram: Datagram, ttl: u8) {
        // Local destination (possibly one of our own addresses): loopback.
        if self.nodes[node.0].addrs.contains(&dgram.dst) {
            let t = self.now + SimDuration::from_micros(10);
            self.schedule(
                t,
                Event::Arrive {
                    node,
                    dgram: Box::new(dgram),
                    ttl,
                },
            );
            return;
        }
        let next = self.nodes[node.0]
            .routes
            .iter()
            .find(|(p, _)| p.contains(dgram.dst))
            .map(|&(_, via)| via);
        let Some(via) = next else {
            self.unroutable_packets += 1;
            return;
        };
        let Some(&link) = self.adjacency.get(&(node, via)) else {
            // Route points at a non-neighbor: configuration bug.
            self.unroutable_packets += 1;
            return;
        };
        self.transmit(link, node, via, dgram, ttl);
    }

    fn transmit(&mut self, link: LinkId, from: NodeId, to: NodeId, mut dgram: Datagram, ttl: u8) {
        let now = self.now;
        let wire_len = dgram.wire_len();
        // Split borrows: the profile stays borrowed from `self.links`
        // while the RNG and counters (disjoint fields) are used — no
        // per-packet profile clone. The RNG draw order (loss, corrupt,
        // latency) is load-bearing for determinism; keep it.
        let l = &self.links[link.0];
        debug_assert!(l.a == from || l.b == from, "transmit from non-endpoint");
        let dir_is_ab = l.a == from;
        let profile = if dir_is_ab { &l.ab.profile } else { &l.ba.profile };
        if profile.loss > 0.0 && self.rng.gen_bool(profile.loss) {
            self.dropped_packets += 1;
            return;
        }
        if profile.corrupt > 0.0 && !dgram.payload.is_empty() && self.rng.gen_bool(profile.corrupt)
        {
            let idx = self.rng.gen_range(0..dgram.payload.len());
            dgram.payload[idx] ^= 0xFF;
        }
        let propagation = profile.latency.sample(&mut self.rng);
        let serialization = match profile.bandwidth_bps {
            Some(bps) if bps > 0 => {
                SimDuration::from_nanos((wire_len as u64 * 8).saturating_mul(1_000_000_000) / bps)
            }
            _ => SimDuration::ZERO,
        };
        let dir = if dir_is_ab {
            &mut self.links[link.0].ab
        } else {
            &mut self.links[link.0].ba
        };
        let start = now.max(dir.next_free);
        let done_serializing = start + serialization;
        dir.next_free = done_serializing;
        let arrival = done_serializing + propagation;
        self.schedule(
            arrival,
            Event::Arrive {
                node: to,
                dgram: Box::new(dgram),
                ttl,
            },
        );
    }

    fn tap_record(&mut self, node: NodeId, direction: TapDirection, dgram: &Datagram) {
        let now = self.now;
        let n = &mut self.nodes[node.0];
        let with_payload = n.tap_payloads;
        if let Some(tap) = n.tap.as_mut() {
            tap.push(TapRecord {
                time: now,
                node,
                direction,
                src: dgram.src,
                src_port: dgram.src_port,
                dst: dgram.dst,
                dst_port: dgram.dst_port,
                len: dgram.payload.len(),
                id_hint: TapRecord::hint_of(&dgram.payload),
                payload: with_payload.then(|| dgram.payload.clone()),
            });
        }
    }

    /// Runs `f` with the node's behavior temporarily taken out, so the
    /// behavior can freely use a context that borrows the network.
    fn with_behavior<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn NodeBehavior>, &mut NodeContext<'_>),
    {
        let Some(mut beh) = self.nodes[node.0].behavior.take() else {
            // Reentrant dispatch on one node, or a node added without a
            // behavior: drop the datagram rather than crash mid-run.
            debug_assert!(false, "dispatch with behavior absent");
            return;
        };
        let mut ctx = NodeContext { net: self, node };
        f(&mut beh, &mut ctx);
        self.nodes[node.0].behavior = Some(beh);
    }

    /// Immutable access to a node's behavior, downcast to its concrete
    /// type. Panics if the type does not match — a test-harness bug.
    // detlint: allow-item(hot-panic) — test-harness accessor with a
    // documented panic contract; never called from dispatch itself.
    pub fn behavior<B: NodeBehavior>(&self, node: NodeId) -> &B {
        let beh: &dyn NodeBehavior = &**self.nodes[node.0]
            .behavior
            .as_ref()
            .expect("behavior taken");
        (beh as &dyn std::any::Any)
            .downcast_ref::<B>()
            .expect("behavior type mismatch")
    }

    /// Mutable access to a node's behavior, downcast to its concrete type.
    // detlint: allow-item(hot-panic) — same contract as [`Self::behavior`].
    pub fn behavior_mut<B: NodeBehavior>(&mut self, node: NodeId) -> &mut B {
        let beh: &mut dyn NodeBehavior = &mut **self.nodes[node.0]
            .behavior
            .as_mut()
            .expect("behavior taken");
        (beh as &mut dyn std::any::Any)
            .downcast_mut::<B>()
            .expect("behavior type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server used across the tests.
    struct Echo {
        seen: usize,
    }
    impl NodeBehavior for Echo {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.seen += 1;
            let reply = dgram.reply_with(dgram.payload.clone());
            ctx.send_datagram(reply);
        }
    }

    struct Pinger {
        target: IpAddr,
        sent_at: Option<SimTime>,
        rtt: Option<SimDuration>,
    }
    impl NodeBehavior for Pinger {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            self.sent_at = Some(ctx.now());
            ctx.send(self.target, 7, vec![0xAB; 20]);
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, _dgram: Datagram) {
            self.rtt = Some(ctx.now() - self.sent_at.unwrap());
        }
    }

    struct Nop;
    impl NodeBehavior for Nop {
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn direct_ping_rtt_matches_profile() {
        let mut net = Network::new(1);
        let a = net.add_node(
            "a",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("10.0.0.2"),
                sent_at: None,
                rtt: None,
            },
        );
        let b = net.add_node("b", [ip("10.0.0.2")], Echo { seen: 0 });
        net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(5.0)));
        net.run();
        let rtt = net.behavior::<Pinger>(a).rtt.expect("no reply");
        assert_eq!(rtt, SimDuration::from_millis(10));
        assert_eq!(net.behavior::<Echo>(b).seen, 1);
    }

    #[test]
    fn multi_hop_forwarding_accumulates_latency() {
        let mut net = Network::new(2);
        let a = net.add_node(
            "ue",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("10.2.0.1"),
                sent_at: None,
                rtt: None,
            },
        );
        let r = net.add_node("router", [ip("10.1.0.1")], Nop);
        let b = net.add_node("server", [ip("10.2.0.1")], Echo { seen: 0 });
        net.connect(a, r, LinkProfile::with_latency(Latency::ConstantMs(3.0)));
        net.connect(r, b, LinkProfile::with_latency(Latency::ConstantMs(4.0)));
        net.add_default_route(a, r);
        net.add_route(a, Cidr::host(ip("10.2.0.1")), r); // explicit too
        net.add_default_route(b, r);
        net.run();
        let rtt = net.behavior::<Pinger>(a).rtt.expect("no reply");
        assert_eq!(rtt, SimDuration::from_millis(14));
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut net = Network::new(3);
        let a = net.add_node(
            "a",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("192.168.5.5"),
                sent_at: None,
                rtt: None,
            },
        );
        let wrong = net.add_node("wrong", [ip("10.0.0.2")], Nop);
        let right = net.add_node("right", [ip("10.0.0.3")], Nop);
        let dst = net.add_node("dst", [ip("192.168.5.5")], Echo { seen: 0 });
        net.connect(a, wrong, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.connect(a, right, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.connect(right, dst, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.connect(wrong, dst, LinkProfile::with_latency(Latency::ConstantMs(50.0)));
        net.add_default_route(a, wrong);
        net.add_route(a, "192.168.5.0/24".parse().unwrap(), right);
        net.add_default_route(dst, right);
        net.run();
        let rtt = net.behavior::<Pinger>(a).rtt.expect("no reply");
        // 1+1 out, 1+1 back through `right`; `wrong` would cost 51 each way.
        assert_eq!(rtt, SimDuration::from_millis(4));
    }

    #[test]
    fn lossy_link_drops_everything_at_probability_one() {
        let mut net = Network::new(4);
        let a = net.add_node(
            "a",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("10.0.0.2"),
                sent_at: None,
                rtt: None,
            },
        );
        let b = net.add_node("b", [ip("10.0.0.2")], Echo { seen: 0 });
        net.connect(
            a,
            b,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_loss(1.0),
        );
        net.run();
        assert!(net.behavior::<Pinger>(a).rtt.is_none());
        assert_eq!(net.behavior::<Echo>(b).seen, 0);
        assert_eq!(net.dropped_packets, 1);
    }

    #[test]
    fn corruption_flips_a_payload_byte() {
        struct Collect {
            got: Option<Vec<u8>>,
        }
        impl NodeBehavior for Collect {
            fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
                self.got = Some(dgram.payload);
            }
        }
        struct SendOnce {
            target: IpAddr,
        }
        impl NodeBehavior for SendOnce {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                ctx.send(self.target, 9, vec![0u8; 8]);
            }
        }
        let mut net = Network::new(5);
        let a = net.add_node("a", [ip("10.0.0.1")], SendOnce { target: ip("10.0.0.2") });
        let b = net.add_node("b", [ip("10.0.0.2")], Collect { got: None });
        net.connect(
            a,
            b,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_corruption(1.0),
        );
        net.run();
        let got = net.behavior::<Collect>(b).got.clone().expect("delivered");
        assert_eq!(got.iter().filter(|&&x| x == 0xFF).count(), 1);
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        struct Burst {
            target: IpAddr,
        }
        impl NodeBehavior for Burst {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                for _ in 0..2 {
                    ctx.send(self.target, 9, vec![0u8; 972]); // 1000B wire
                }
            }
        }
        struct Arrivals {
            times: Vec<SimTime>,
        }
        impl NodeBehavior for Arrivals {
            fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, _d: Datagram) {
                self.times.push(ctx.now());
            }
        }
        let mut net = Network::new(6);
        let a = net.add_node("a", [ip("10.0.0.1")], Burst { target: ip("10.0.0.2") });
        let b = net.add_node("b", [ip("10.0.0.2")], Arrivals { times: vec![] });
        // 1 Mbps: a 1000-byte frame takes 8 ms to serialize.
        net.connect(
            a,
            b,
            LinkProfile::with_latency(Latency::ConstantMs(0.0)).with_bandwidth_bps(1_000_000),
        );
        net.run();
        let times = &net.behavior::<Arrivals>(b).times;
        assert_eq!(times.len(), 2);
        let gap = times[1] - times[0];
        assert_eq!(gap, SimDuration::from_millis(8));
    }

    #[test]
    fn unroutable_packets_are_counted_not_panicked() {
        struct SendNowhere;
        impl NodeBehavior for SendNowhere {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                ctx.send(ip("203.0.113.9"), 53, vec![1, 2]);
            }
        }
        let mut net = Network::new(7);
        net.add_node("a", [ip("10.0.0.1")], SendNowhere);
        net.run();
        assert_eq!(net.unroutable_packets, 1);
    }

    #[test]
    fn routing_loop_expires_ttl() {
        struct SendOnce;
        impl NodeBehavior for SendOnce {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                ctx.send(ip("203.0.113.9"), 53, vec![1]);
            }
        }
        let mut net = Network::new(8);
        let a = net.add_node("a", [ip("10.0.0.1")], SendOnce);
        let b = net.add_node("b", [ip("10.0.0.2")], Nop);
        net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(0.1)));
        // a and b point the destination at each other: a loop.
        net.add_default_route(a, b);
        net.add_default_route(b, a);
        net.run();
        assert_eq!(net.ttl_expired_packets, 1);
    }

    #[test]
    fn taps_capture_forwarded_packets_with_id_hint() {
        let mut net = Network::new(9);
        let a = net.add_node(
            "ue",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("10.2.0.1"),
                sent_at: None,
                rtt: None,
            },
        );
        let pgw = net.add_node("pgw", [ip("10.1.0.1")], Nop);
        let b = net.add_node("dns", [ip("10.2.0.1")], Echo { seen: 0 });
        net.connect(a, pgw, LinkProfile::with_latency(Latency::ConstantMs(10.0)));
        net.connect(pgw, b, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.add_default_route(a, pgw);
        net.add_default_route(b, pgw);
        net.enable_tap(pgw);
        net.run();
        let tap = net.take_tap(pgw);
        // Query out + response back, both forwarded through the P-GW.
        assert_eq!(tap.len(), 2);
        assert!(tap.iter().all(|t| t.direction == TapDirection::Forward));
        assert_eq!(tap[0].id_hint, Some(0xABAB));
        assert!(tap[0].time < tap[1].time);
        // Subsequent take returns nothing.
        assert!(net.take_tap(pgw).is_empty());
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        fn run_once(seed: u64) -> SimDuration {
            let mut net = Network::new(seed);
            let a = net.add_node(
                "a",
                [ip("10.0.0.1")],
                Pinger {
                    target: ip("10.0.0.2"),
                    sent_at: None,
                    rtt: None,
                },
            );
            let b = net.add_node("b", [ip("10.0.0.2")], Echo { seen: 0 });
            net.connect(a, b, LinkProfile::with_latency(Latency::skewed(1.0, 5.0, 3.0)));
            net.run();
            net.behavior::<Pinger>(a).rtt.unwrap()
        }
        assert_eq!(run_once(77), run_once(77));
        assert_ne!(run_once(77), run_once(78));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Periodic {
            fired: usize,
        }
        impl NodeBehavior for Periodic {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
                self.fired += 1;
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        let mut net = Network::new(10);
        let n = net.add_node("t", [ip("10.0.0.1")], Periodic { fired: 0 });
        net.run_until(SimTime::ZERO + SimDuration::from_millis(35));
        assert_eq!(net.behavior::<Periodic>(n).fired, 3);
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(35));
    }

    #[test]
    fn self_addressed_packets_loop_back() {
        struct SelfSend {
            got: bool,
        }
        impl NodeBehavior for SelfSend {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                let me = ctx.primary_addr();
                ctx.send(me, 53, vec![9]);
            }
            fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _d: Datagram) {
                self.got = true;
            }
        }
        let mut net = Network::new(11);
        let n = net.add_node("n", [ip("10.0.0.1")], SelfSend { got: false });
        net.run();
        assert!(net.behavior::<SelfSend>(n).got);
    }

    #[test]
    fn added_addresses_receive_traffic_and_can_be_removed() {
        let mut net = Network::new(12);
        let a = net.add_node(
            "a",
            [ip("10.0.0.1")],
            Pinger {
                target: ip("10.96.0.10"), // ClusterIP added below
                sent_at: None,
                rtt: None,
            },
        );
        let b = net.add_node("b", [ip("10.0.0.2")], Echo { seen: 0 });
        net.add_addr(b, ip("10.96.0.10"));
        net.connect(a, b, LinkProfile::with_latency(Latency::ConstantMs(1.0)));
        net.run();
        assert!(net.behavior::<Pinger>(a).rtt.is_some());
        assert_eq!(net.node_by_addr(ip("10.96.0.10")), Some(b));
        net.remove_addr(b, ip("10.96.0.10"));
        assert_eq!(net.node_by_addr(ip("10.96.0.10")), None);
    }

    #[test]
    fn scheduled_calls_fire_at_their_time_and_in_order() {
        struct Counter {
            ticks: Vec<SimTime>,
        }
        impl NodeBehavior for Counter {}
        let mut net = Network::new(20);
        let n = net.add_node("n", [ip("10.0.0.1")], Counter { ticks: vec![] });
        // Schedule out of order; they must run in time order, mutating
        // the world they were given.
        net.schedule_call(SimDuration::from_millis(20), move |net| {
            let now = net.now();
            net.behavior_mut::<Counter>(n).ticks.push(now);
        });
        net.schedule_call(SimDuration::from_millis(5), move |net| {
            let now = net.now();
            net.behavior_mut::<Counter>(n).ticks.push(now);
        });
        net.run();
        let ticks = &net.behavior::<Counter>(n).ticks;
        assert_eq!(
            ticks,
            &vec![
                SimTime::ZERO + SimDuration::from_millis(5),
                SimTime::ZERO + SimDuration::from_millis(20),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn duplicate_addresses_panic() {
        let mut net = Network::new(13);
        net.add_node("a", [ip("10.0.0.1")], Nop);
        net.add_node("b", [ip("10.0.0.1")], Nop);
    }

    /// Budget test: at city scale millions of events sit queued at once,
    /// so a fat new `Event` variant (or an unboxed datagram) multiplies
    /// across all of them. If you trip this, box the new variant's
    /// payload instead of raising the bound.
    #[test]
    fn event_size_budget() {
        assert!(
            std::mem::size_of::<Event>() <= 40,
            "Event grew to {} bytes (budget 40)",
            std::mem::size_of::<Event>()
        );
        assert!(
            TimerWheel::<Event>::cell_size() <= 64,
            "scheduler cell grew to {} bytes (budget 64: one cache line)",
            TimerWheel::<Event>::cell_size()
        );
    }

    #[test]
    fn ephemeral_ports_are_per_node() {
        let mut net = Network::new(14);
        let a = net.add_node("a", [ip("10.0.0.1")], Nop);
        let b = net.add_node("b", [ip("10.0.0.2")], Nop);
        // Each node starts its own sequence at 49152: heavy allocation on
        // one node must not advance (or collide with) the other's.
        for i in 0..1000u16 {
            assert_eq!(net.ephemeral_port(a), 49152 + i);
        }
        assert_eq!(net.ephemeral_port(b), 49152);
        assert_eq!(net.ephemeral_port(b), 49153);
        assert_eq!(net.ephemeral_port(a), 50152);
    }

    #[test]
    fn ephemeral_ports_wrap_to_dynamic_range_start() {
        // Regression: the old global allocator wrapped 65535 → 49152 for
        // the whole network; per-node allocation must keep the same
        // wrap *per node* and never wander below 49152 (the reserved
        // range, where servers listen).
        let mut net = Network::new(15);
        let a = net.add_node("a", [ip("10.0.0.1")], Nop);
        net.nodes[a.0].next_ephemeral = 65534;
        assert_eq!(net.ephemeral_port(a), 65534);
        assert_eq!(net.ephemeral_port(a), 65535);
        assert_eq!(net.ephemeral_port(a), 49152, "wrap must return to 49152");
        assert_eq!(net.ephemeral_port(a), 49153);
    }

    #[test]
    fn stale_epoch_timers_die_with_the_crash_under_the_wheel() {
        // The wheel knows nothing about node epochs; the dispatch-time
        // epoch check must keep voiding pre-crash timers exactly as the
        // old heap did.
        struct Rearm {
            fired: usize,
        }
        impl NodeBehavior for Rearm {
            fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
                // Far enough out to land beyond the crash/restart window.
                ctx.set_timer(SimDuration::from_millis(50), 7);
            }
            fn on_timer(&mut self, _ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
                self.fired += 1;
            }
        }
        let mut net = Network::new(16);
        let n = net.add_node("n", [ip("10.0.0.1")], Rearm { fired: 0 });
        // Crash at 10 ms, restart at 20 ms: the 50 ms timer was armed in
        // epoch 0 and must NOT fire after the epoch-1 restart.
        net.schedule_call(SimDuration::from_millis(10), move |net| {
            net.set_node_up(n, false);
        });
        net.schedule_call(SimDuration::from_millis(20), move |net| {
            net.set_node_up(n, true);
        });
        net.run();
        assert_eq!(net.behavior::<Rearm>(n).fired, 0);
        // A timer armed after the restart fires normally.
        net.with_behavior(n, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 8);
        });
        net.run();
        assert_eq!(net.behavior::<Rearm>(n).fired, 1);
    }
}
