//! The orchestrator's DoS switch.
//!
//! §3: *"The MEC orchestrator, which has access to monitoring statistics
//! of the ingress network load to the MEC DNS, can simply switch (or
//! only unicast) to the provider's L-DNS during high ingress (above a
//! threshold)."* [`DosPolicy`] is that controller: it samples the
//! cluster's [`mec_orch::IngressMonitor`] on a fixed period and writes
//! the resolver clients should use into a shared
//! [`ResolverDirective`].

use mec_orch::IngressMonitor;
use netsim::{NodeBehavior, NodeContext, SimDuration, TimerToken};
use std::cell::RefCell;
use std::net::IpAddr;
use std::rc::Rc;

/// The resolver clients should currently use — published by the
/// orchestrator, consulted by UEs at each query (e.g. by
/// [`DirectedClient`]).
#[derive(Debug, Clone)]
pub struct ResolverDirective {
    inner: Rc<RefCell<IpAddr>>,
}

impl ResolverDirective {
    /// A directive initially pointing at `resolver`.
    pub fn new(resolver: IpAddr) -> Self {
        ResolverDirective {
            inner: Rc::new(RefCell::new(resolver)),
        }
    }

    /// The current resolver.
    pub fn get(&self) -> IpAddr {
        *self.inner.borrow()
    }

    /// Publishes a new resolver.
    pub fn set(&self, resolver: IpAddr) {
        *self.inner.borrow_mut() = resolver;
    }
}

/// The ingress-threshold controller, run as a node inside the MEC.
pub struct DosPolicy {
    monitor: IngressMonitor,
    /// Monitoring key of the MEC DNS service (`namespace/name`).
    service_key: String,
    directive: ResolverDirective,
    mec_dns: IpAddr,
    provider_ldns: IpAddr,
    /// Queries/second above which the MEC DNS is considered under
    /// attack.
    pub threshold_qps: f64,
    /// Rate below which service returns to the MEC DNS (hysteresis;
    /// must be ≤ `threshold_qps`).
    pub recover_qps: f64,
    /// Sampling period.
    pub period: SimDuration,
    /// Window the rate is computed over.
    pub window: SimDuration,
    /// Consecutive over-threshold samples required before mitigating.
    /// The default of 1 reacts on the first hot sample; raise it so a
    /// single bursty window (or a fault-induced retry storm) does not
    /// flap every UE over to the provider L-DNS.
    pub arm_after: u32,
    /// Consecutive under-`recover_qps` samples required before moving
    /// service back to the MEC DNS.
    pub disarm_after: u32,
    /// Number of mitigations activated.
    pub activations: u64,
    /// Number of recoveries.
    pub recoveries: u64,
    mitigating: bool,
    over_streak: u32,
    under_streak: u32,
}

impl DosPolicy {
    /// A policy switching `directive` between `mec_dns` and
    /// `provider_ldns` based on the ingress rate of `service_key`.
    pub fn new(
        monitor: IngressMonitor,
        service_key: &str,
        directive: ResolverDirective,
        mec_dns: IpAddr,
        provider_ldns: IpAddr,
        threshold_qps: f64,
    ) -> Self {
        DosPolicy {
            monitor,
            service_key: service_key.to_string(),
            directive,
            mec_dns,
            provider_ldns,
            threshold_qps,
            recover_qps: threshold_qps * 0.5,
            period: SimDuration::from_millis(500),
            window: SimDuration::from_secs(2),
            arm_after: 1,
            disarm_after: 1,
            activations: 0,
            recoveries: 0,
            mitigating: false,
            over_streak: 0,
            under_streak: 0,
        }
    }

    /// Is the policy currently directing UEs at the provider L-DNS?
    pub fn mitigating(&self) -> bool {
        self.mitigating
    }
}

impl NodeBehavior for DosPolicy {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
        let rate = self
            .monitor
            .rate_per_sec(&self.service_key, ctx.now(), self.window);
        if !self.mitigating {
            if rate > self.threshold_qps {
                self.over_streak += 1;
                if self.over_streak >= self.arm_after {
                    self.over_streak = 0;
                    self.mitigating = true;
                    self.activations += 1;
                    self.directive.set(self.provider_ldns);
                }
            } else {
                self.over_streak = 0;
            }
        } else if rate < self.recover_qps {
            self.under_streak += 1;
            if self.under_streak >= self.disarm_after {
                self.under_streak = 0;
                self.mitigating = false;
                self.recoveries += 1;
                self.directive.set(self.mec_dns);
            }
        } else {
            self.under_streak = 0;
        }
        ctx.set_timer(self.period, 0);
    }
}

/// A UE client that consults the directive at every query — the
/// directive-following counterpart of [`crate::QueryClient`].
pub struct DirectedClient {
    engine: dns_server::StubEngine,
    directive: ResolverDirective,
    name: dns_wire::Name,
    interval: SimDuration,
    remaining: usize,
    /// (issue time, resolver used) per query, in issue order.
    pub issued_to: Vec<(netsim::SimTime, IpAddr)>,
}

impl DirectedClient {
    /// Queries `name` every `interval`, `count` times, at whichever
    /// resolver the directive names.
    pub fn new(
        directive: ResolverDirective,
        name: dns_wire::Name,
        interval: SimDuration,
        count: usize,
    ) -> Self {
        DirectedClient {
            engine: dns_server::StubEngine::new(),
            directive,
            name,
            interval,
            remaining: count,
            issued_to: Vec::new(),
        }
    }

    /// Completed outcomes.
    pub fn outcomes(&self) -> &[dns_server::QueryOutcome] {
        &self.engine.outcomes
    }
}

impl NodeBehavior for DirectedClient {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        ctx.set_timer(self.interval, 1);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, data: u64) {
        if dns_server::StubEngine::owns_timer(data) {
            self.engine.on_timer(ctx, data);
            return;
        }
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let resolver = self.directive.get();
        self.issued_to.push((ctx.now(), resolver));
        let tag = self.issued_to.len() as u64 - 1;
        self.engine.issue(
            ctx,
            self.name.clone(),
            dns_wire::RrType::A,
            dns_server::SendStrategy::Unicast(resolver),
            None,
            tag,
        );
        ctx.set_timer(self.interval, 1);
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: netsim::Datagram) {
        self.engine.on_datagram(ctx, &dgram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    #[test]
    fn directive_is_shared() {
        let d = ResolverDirective::new("10.0.0.1".parse().unwrap());
        let d2 = d.clone();
        d.set("10.0.0.2".parse().unwrap());
        assert_eq!(d2.get(), "10.0.0.2".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn policy_switches_and_recovers_on_rates() {
        // Drive the policy directly (no network needed): feed the
        // monitor a burst, then silence.
        let monitor = IngressMonitor::default();
        let directive = ResolverDirective::new("10.96.0.1".parse().unwrap());
        let mec: IpAddr = "10.96.0.1".parse().unwrap();
        let provider: IpAddr = "10.44.9.1".parse().unwrap();
        let mut policy = DosPolicy::new(
            monitor.clone(),
            "cdn/dns",
            directive.clone(),
            mec,
            provider,
            100.0,
        );
        // 500 arrivals in 1 s → 250 qps over the 2 s window.
        for i in 0..500 {
            monitor.record("cdn/dns", SimTime::ZERO + SimDuration::from_millis(i * 2));
        }
        // Emulate a tick at t=1 s.
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let rate = monitor.rate_per_sec("cdn/dns", now, policy.window);
        assert!(rate > policy.threshold_qps);
        // Tick logic, extracted: rates above threshold mitigate.
        policy.mitigating = false;
        if rate > policy.threshold_qps {
            policy.mitigating = true;
            policy.activations += 1;
            policy.directive.set(policy.provider_ldns);
        }
        assert_eq!(directive.get(), provider);
        // After quiet time the window rate drops and service recovers.
        let later = now + SimDuration::from_secs(10);
        let rate = monitor.rate_per_sec("cdn/dns", later, policy.window);
        assert!(rate < policy.recover_qps);
        if policy.mitigating && rate < policy.recover_qps {
            policy.mitigating = false;
            policy.recoveries += 1;
            policy.directive.set(policy.mec_dns);
        }
        assert_eq!(directive.get(), mec);
        assert_eq!(policy.activations, 1);
        assert_eq!(policy.recoveries, 1);
    }

    #[test]
    fn arming_hysteresis_needs_consecutive_hot_samples() {
        let monitor = IngressMonitor::default();
        let mec: IpAddr = "10.96.0.1".parse().unwrap();
        let provider: IpAddr = "10.44.9.1".parse().unwrap();
        let directive = ResolverDirective::new(mec);
        let mut policy = DosPolicy::new(
            monitor.clone(),
            "cdn/dns",
            directive.clone(),
            mec,
            provider,
            100.0,
        );
        policy.period = SimDuration::from_millis(100);
        policy.window = SimDuration::from_secs(1);
        policy.arm_after = 3;
        policy.disarm_after = 2;

        // 200 arrivals in the first 100 ms → 200 qps over the 1 s
        // window until they age out at t ≈ 1.1 s, then 0 qps.
        for i in 0..200u64 {
            monitor.record("cdn/dns", SimTime::ZERO + SimDuration::from_micros(i * 500));
        }

        let mut net = netsim::Network::new(3);
        let node = net.add_node("dos", ["10.96.2.1".parse::<IpAddr>().unwrap()], policy);

        // Sample the directive between ticks (ticks land on multiples of
        // 100 ms, samples on odd 50 ms offsets).
        let samples: Rc<RefCell<Vec<IpAddr>>> = Rc::new(RefCell::new(Vec::new()));
        for at_ms in [250u64, 350, 1150, 1250] {
            let samples = Rc::clone(&samples);
            let directive = directive.clone();
            net.schedule_call(SimDuration::from_millis(at_ms), move |_| {
                samples.borrow_mut().push(directive.get());
            });
        }
        net.run_until(netsim::SimTime::ZERO + SimDuration::from_millis(1300));

        // Two hot ticks (100, 200 ms) are not enough; the third (300 ms)
        // arms. One cold tick (1.1 s) is not enough; the second (1.2 s)
        // recovers.
        assert_eq!(*samples.borrow(), vec![mec, provider, provider, mec]);
        let policy = net.behavior::<DosPolicy>(node);
        assert_eq!(policy.activations, 1);
        assert_eq!(policy.recoveries, 1);
        assert!(!policy.mitigating());
    }
}
