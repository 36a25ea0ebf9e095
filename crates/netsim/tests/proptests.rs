//! Property-based tests for the simulator's core invariants:
//! determinism, monotone virtual time, statistics correctness and
//! prefix-routing behaviour.

use netsim::{
    Cidr, Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, Samples, SimDuration,
    SimTime,
};
use proptest::prelude::*;
use std::net::IpAddr;

struct Echo;
impl NodeBehavior for Echo {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        let reply = dgram.reply_with(dgram.payload.clone());
        ctx.send_datagram(reply);
    }
}

struct Prober {
    target: IpAddr,
    count: usize,
    interval: SimDuration,
    sent_at: Vec<SimTime>,
    rtts: Vec<SimDuration>,
}

impl Prober {
    fn new(target: IpAddr, count: usize, interval: SimDuration) -> Self {
        Prober {
            target,
            count,
            interval,
            sent_at: Vec::new(),
            rtts: Vec::new(),
        }
    }
}

impl NodeBehavior for Prober {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        for i in 0..self.count {
            ctx.set_timer(self.interval.mul_f64(i as f64), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: netsim::TimerToken, _d: u64) {
        self.sent_at.push(ctx.now());
        ctx.send(self.target, 7, vec![0x55; 32]);
    }
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, _dgram: Datagram) {
        // Replies arrive in order on a FIFO link.
        let idx = self.rtts.len();
        self.rtts.push(ctx.now() - self.sent_at[idx]);
    }
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn run_probes(seed: u64, n: usize, latency: Latency, loss: f64) -> Vec<SimDuration> {
    let mut net = Network::new(seed);
    let a = net.add_node(
        "probe",
        [ip("10.0.0.1")],
        Prober::new(ip("10.0.0.2"), n, SimDuration::from_millis(200)),
    );
    let b = net.add_node("echo", [ip("10.0.0.2")], Echo);
    net.connect(a, b, LinkProfile::with_latency(latency).with_loss(loss));
    net.run();
    net.behavior::<Prober>(a).rtts.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_seed_identical_run(seed in any::<u64>(), n in 1usize..20) {
        let lat = Latency::skewed(1.0, 8.0, 5.0);
        prop_assert_eq!(
            run_probes(seed, n, lat.clone(), 0.1),
            run_probes(seed, n, lat, 0.1)
        );
    }

    #[test]
    fn rtt_is_at_least_twice_the_floor(
        seed in any::<u64>(),
        floor_ms in 1.0f64..20.0,
        n in 1usize..12,
    ) {
        let lat = Latency::skewed(floor_ms, floor_ms + 5.0, 3.0);
        for rtt in run_probes(seed, n, lat, 0.0) {
            prop_assert!(rtt.as_millis_f64() >= 2.0 * floor_ms - 1e-6);
        }
    }

    #[test]
    fn lossless_link_answers_every_probe(seed in any::<u64>(), n in 1usize..25) {
        let got = run_probes(seed, n, Latency::ConstantMs(2.0), 0.0);
        prop_assert_eq!(got.len(), n);
    }

    #[test]
    fn constant_latency_means_constant_rtt(seed in any::<u64>(), ms in 1u64..50) {
        let rtts = run_probes(seed, 5, Latency::ConstantMs(ms as f64), 0.0);
        for rtt in rtts {
            prop_assert_eq!(rtt, SimDuration::from_millis(2 * ms));
        }
    }

    #[test]
    fn summary_bounds_hold(values in proptest::collection::vec(0.0f64..10_000.0, 1..200)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record_ms(v);
        }
        let sum = s.summarize().unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(sum.min_ms, lo);
        prop_assert_eq!(sum.max_ms, hi);
        prop_assert!(sum.trimmed_mean_ms >= lo - 1e-9);
        prop_assert!(sum.trimmed_mean_ms <= hi + 1e-9);
        prop_assert!(sum.p50_ms >= lo && sum.p50_ms <= hi);
        prop_assert_eq!(sum.samples, values.len());
    }

    #[test]
    fn percentiles_are_monotone(values in proptest::collection::vec(0.0f64..1000.0, 1..100)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record_ms(v);
        }
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 8.0, 25.0, 50.0, 75.0, 92.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn merging_any_partition_equals_recording_serially(
        values in proptest::collection::vec(0.0f64..10_000.0, 0..200),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        // Reference: record every value into one collection serially.
        let mut serial = Samples::new();
        for &v in &values {
            serial.record_ms(v);
        }

        // Split the same values into contiguous chunks at arbitrary cut
        // points (the shape a per-trial parallel run produces), record
        // each chunk into its own Samples, then merge in order.
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&c| if values.is_empty() { 0 } else { c as usize % (values.len() + 1) })
            .collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        let mut merged = Samples::new();
        for w in bounds.windows(2) {
            let mut part = Samples::new();
            for &v in &values[w[0]..w[1]] {
                part.record_ms(v);
            }
            merged.merge(&part);
        }

        // merge preserves order exactly, so the collections are
        // indistinguishable: raw values and every derived statistic.
        prop_assert_eq!(merged.values_ms(), serial.values_ms());
        prop_assert_eq!(merged.len(), serial.len());
        match (serial.summarize(), merged.summarize()) {
            (None, None) => prop_assert!(values.is_empty()),
            (Some(s), Some(m)) => {
                prop_assert_eq!(s.trimmed_mean_ms, m.trimmed_mean_ms);
                prop_assert_eq!(s.min_ms, m.min_ms);
                prop_assert_eq!(s.max_ms, m.max_ms);
                prop_assert_eq!(s.p50_ms, m.p50_ms);
                prop_assert_eq!(s.samples, m.samples);
            }
            _ => prop_assert!(false, "summaries disagree on emptiness"),
        }
        for p in [0.0, 8.0, 50.0, 92.0, 100.0] {
            prop_assert_eq!(serial.percentile(p), merged.percentile(p));
        }
    }

    #[test]
    fn merge_is_associative_over_three_parts(
        a in proptest::collection::vec(0.0f64..1000.0, 0..50),
        b in proptest::collection::vec(0.0f64..1000.0, 0..50),
        c in proptest::collection::vec(0.0f64..1000.0, 0..50),
    ) {
        let as_samples = |vs: &[f64]| {
            let mut s = Samples::new();
            for &v in vs {
                s.record_ms(v);
            }
            s
        };
        // (a + b) + c
        let mut left = as_samples(&a);
        left.merge(&as_samples(&b));
        left.merge(&as_samples(&c));
        // a + (b + c)
        let mut bc = as_samples(&b);
        bc.merge(&as_samples(&c));
        let mut right = as_samples(&a);
        right.merge(&bc);
        prop_assert_eq!(left.values_ms(), right.values_ms());
    }

    #[test]
    fn cidr_contains_its_own_hosts(a in any::<u32>(), prefix in 0u8..=32, i in any::<u16>()) {
        let c = Cidr::new(IpAddr::V4(a.into()), prefix);
        prop_assert!(c.contains(c.nth_host(u64::from(i))));
        prop_assert!(c.contains(c.network()));
    }

    #[test]
    fn cidr_parse_display_roundtrip(a in any::<u32>(), prefix in 0u8..=32) {
        let c = Cidr::new(IpAddr::V4(a.into()), prefix);
        let back: Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(back, c);
    }

    /// Anycast site selection is a pure function of
    /// `(client, advertised-site set)`: rebuilding the catchment from
    /// scratch with the same advertisement mask gives the same site for
    /// every client, the selected site is always advertised, and the
    /// selection never depends on the order withdrawals happened.
    #[test]
    fn catchment_selection_is_pure_in_client_and_advertised_set(
        clients in proptest::collection::vec(any::<u32>(), 1..20),
        n_sites in 1usize..6,
        mask in any::<u8>(),
        withdraw_order in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        use netsim::AnycastCatchment;
        let anycast = ip("198.18.0.53");
        let site_addrs: Vec<IpAddr> =
            (0..n_sites).map(|i| IpAddr::V4((0x0a64_000a + ((i as u32) << 8)).into())).collect();
        let advertised: Vec<bool> = (0..n_sites).map(|i| mask & (1 << i) != 0).collect();

        // World A: apply the mask directly, ascending.
        let a = AnycastCatchment::new(anycast, site_addrs.iter().copied());
        for (i, &adv) in advertised.iter().enumerate() {
            a.set_advertised(i, adv);
        }
        // World B: reach the same advertised set via an arbitrary
        // sequence of redundant withdraw/advertise flips.
        let b = AnycastCatchment::new(anycast, site_addrs.iter().copied());
        for &step in &withdraw_order {
            b.set_advertised(usize::from(step) % n_sites, step & 0x80 != 0);
        }
        for (i, &adv) in advertised.iter().enumerate() {
            b.set_advertised(i, adv);
        }

        for &c in &clients {
            let client = IpAddr::V4(c.into());
            let sel_a = a.select(client);
            prop_assert_eq!(sel_a, b.select(client), "history must not matter");
            prop_assert_eq!(sel_a, a.select(client), "re-asking must not matter");
            match sel_a {
                Some(i) => prop_assert!(advertised[i], "selected site is advertised"),
                None => prop_assert!(
                    advertised.iter().all(|&adv| !adv),
                    "None only when nothing advertises"
                ),
            }
        }
    }
}

#[test]
fn probes_through_queueing_link_preserve_fifo() {
    // With bandwidth queueing and constant latency, replies must come
    // back in the order the probes were sent.
    let mut net = Network::new(99);
    let a = net.add_node(
        "probe",
        [ip("10.0.0.1")],
        Prober::new(ip("10.0.0.2"), 10, SimDuration::from_micros(50)),
    );
    let b = net.add_node("echo", [ip("10.0.0.2")], Echo);
    net.connect(
        a,
        b,
        LinkProfile::with_latency(Latency::ConstantMs(1.0)).with_bandwidth_bps(1_000_000),
    );
    net.run();
    let prober = net.behavior::<Prober>(a);
    assert_eq!(prober.rtts.len(), 10);
    // Later probes queue behind earlier ones, so RTT is non-decreasing.
    for w in prober.rtts.windows(2) {
        assert!(w[1] >= w[0], "FIFO violated: {:?}", prober.rtts);
    }
}
