//! Ingress-load monitoring.
//!
//! §3 of the paper: *"The MEC orchestrator, which has access to monitoring
//! statistics of the ingress network load to the MEC DNS, can simply
//! switch (or only unicast) to the provider's L-DNS during high ingress
//! (above a threshold), or deploy other more sophisticated mitigation
//! policies."* [`IngressMonitor`] provides those statistics: a sliding
//! window of per-service arrival timestamps with a queries-per-second
//! view.

use netsim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

#[derive(Debug, Default)]
struct MonitorInner {
    /// Service key → arrival timestamps within the retention window.
    arrivals: HashMap<String, VecDeque<SimTime>>,
    /// Total arrivals per service, while the service stays live (see
    /// the eviction note on [`IngressMonitor::record`]).
    totals: HashMap<String, u64>,
    retention: SimDuration,
    /// Last time the idle-service sweep ran.
    last_sweep: SimTime,
}

/// Sliding-window ingress statistics, shared between the fabric (which
/// records arrivals) and policy code (which reads rates).
#[derive(Debug, Clone)]
pub struct IngressMonitor {
    inner: Rc<RefCell<MonitorInner>>,
}

impl Default for IngressMonitor {
    fn default() -> Self {
        IngressMonitor::new(SimDuration::from_secs(10))
    }
}

impl IngressMonitor {
    /// Creates a monitor that retains arrivals for `retention`.
    pub fn new(retention: SimDuration) -> Self {
        IngressMonitor {
            inner: Rc::new(RefCell::new(MonitorInner {
                arrivals: HashMap::new(),
                totals: HashMap::new(),
                retention,
                last_sweep: SimTime::ZERO,
            })),
        }
    }

    /// Records one arrival for `service` at `now`.
    ///
    /// Memory stays bounded by the set of *live* services: at most once
    /// per retention period, services whose newest arrival is older than
    /// the retention window are evicted entirely — arrivals *and* totals
    /// — so a chaos run that churns through short-lived services does not
    /// grow without limit. A live service keeps its lifetime total.
    pub fn record(&self, service: &str, now: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let retention = inner.retention;
        *inner.totals.entry(service.to_string()).or_insert(0) += 1;
        let q = inner.arrivals.entry(service.to_string()).or_default();
        q.push_back(now);
        let cutoff = now.as_nanos().saturating_sub(retention.as_nanos());
        while q.front().is_some_and(|t| t.as_nanos() < cutoff) {
            q.pop_front();
        }
        if now.as_nanos().saturating_sub(inner.last_sweep.as_nanos()) >= retention.as_nanos() {
            let m = &mut *inner;
            m.last_sweep = now;
            m.arrivals
                .retain(|_, q| q.back().is_some_and(|t| t.as_nanos() >= cutoff));
            let live = &m.arrivals;
            m.totals.retain(|k, _| live.contains_key(k));
        }
    }

    /// Arrivals for `service` within the last `window` before `now`.
    pub fn count_in_window(&self, service: &str, now: SimTime, window: SimDuration) -> usize {
        let inner = self.inner.borrow();
        let Some(q) = inner.arrivals.get(service) else {
            return 0;
        };
        let cutoff = now.as_nanos().saturating_sub(window.as_nanos());
        q.iter().filter(|t| t.as_nanos() >= cutoff).count()
    }

    /// Arrival rate in queries/second over the last `window` before `now`.
    pub fn rate_per_sec(&self, service: &str, now: SimTime, window: SimDuration) -> f64 {
        let n = self.count_in_window(service, now, window);
        let secs = window.as_millis_f64() / 1000.0;
        if secs <= 0.0 {
            return 0.0;
        }
        n as f64 / secs
    }

    /// Lifetime arrival count for `service`.
    pub fn total(&self, service: &str) -> u64 {
        self.inner
            .borrow()
            .totals
            .get(service)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn counts_and_rates() {
        let m = IngressMonitor::new(SimDuration::from_secs(60));
        for i in 0..10 {
            m.record("dns", t(i * 100)); // 10 arrivals over 0.9s
        }
        assert_eq!(m.total("dns"), 10);
        assert_eq!(
            m.count_in_window("dns", t(1000), SimDuration::from_secs(1)),
            10
        );
        let rate = m.rate_per_sec("dns", t(1000), SimDuration::from_secs(1));
        assert!((rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_excludes_old_arrivals() {
        let m = IngressMonitor::new(SimDuration::from_secs(60));
        m.record("dns", t(0));
        m.record("dns", t(5000));
        assert_eq!(
            m.count_in_window("dns", t(5000), SimDuration::from_secs(1)),
            1
        );
    }

    #[test]
    fn retention_bounds_memory_but_not_totals() {
        let m = IngressMonitor::new(SimDuration::from_millis(100));
        for i in 0..1000 {
            m.record("dns", t(i * 10));
        }
        assert_eq!(m.total("dns"), 1000);
        // Only arrivals in the final 100 ms are retained (plus boundary).
        assert!(m.count_in_window("dns", t(9990), SimDuration::from_secs(60)) <= 12);
    }

    #[test]
    fn unknown_service_is_zero() {
        let m = IngressMonitor::default();
        assert_eq!(m.total("nope"), 0);
        assert_eq!(
            m.count_in_window("nope", t(1), SimDuration::from_secs(1)),
            0
        );
        assert_eq!(m.rate_per_sec("nope", t(1), SimDuration::from_secs(1)), 0.0);
    }

    #[test]
    fn idle_services_are_evicted_live_ones_are_not() {
        let m = IngressMonitor::new(SimDuration::from_secs(1));
        m.record("short-lived", t(0));
        // "dns" stays active well past "short-lived"'s retention.
        for i in 0..50 {
            m.record("dns", t(i * 100));
        }
        assert_eq!(m.total("dns"), 50, "live service keeps its total");
        assert_eq!(m.total("short-lived"), 0, "idle service evicted");
        assert_eq!(
            m.count_in_window("short-lived", t(5000), SimDuration::from_secs(60)),
            0
        );
        // The evicted service can come back as a fresh entry.
        m.record("short-lived", t(5000));
        assert_eq!(m.total("short-lived"), 1);
    }

    #[test]
    fn services_are_independent() {
        let m = IngressMonitor::default();
        m.record("a", t(0));
        m.record("b", t(0));
        m.record("a", t(1));
        assert_eq!(m.total("a"), 2);
        assert_eq!(m.total("b"), 1);
    }
}
