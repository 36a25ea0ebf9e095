//! Query-path telemetry: counters, latency histograms and per-query
//! resolution traces.
//!
//! The paper's Figure 5 methodology observes every lookup from two
//! vantage points at once — `dig` at the UE and `tcpdump` at the P-GW —
//! and derives the wireless/resolver split from their agreement. This
//! module is the in-simulator analogue of that discipline: components
//! along the query path (stub engines, DNS servers and their plugins,
//! the P-GW NAT, the RAN) share one [`Telemetry`] handle and record
//!
//! * **counters** — monotonically increasing event counts keyed by
//!   static names (`"dns.cache.hit"`, `"stub.retry"`, …);
//! * **histograms** — fixed-memory [`Histogram`]s of [`SimDuration`]
//!   observations keyed the same way (`"stub.rtt"`, `"pgw.behind_gw"`);
//! * **traces** — a span-like [`ResolutionTrace`] per DNS transaction
//!   id: timestamped [`Breadcrumb`]s dropped at each hop, from which a
//!   latency decomposition can be re-derived *independently* of the
//!   packet tap and cross-checked against it.
//!
//! Counters and histograms are always kept: both are bounded, whatever
//! the query count. Traces are not — a trace store grows with every
//! query — so only a handle built with [`Telemetry::recording`] keeps
//! them, and only the Figure 5 deployments (`repro fig5` / `telemetry`)
//! build one. On a [`Telemetry::default`] handle [`Telemetry::mark`]
//! returns before it calls its detail closure, so a breadcrumb nobody
//! reads costs neither a string nor a map insert.
//!
//! Everything is keyed by [`BTreeMap`], so iteration order — and any
//! serialization built on it — is deterministic. The handle is an
//! `Rc<RefCell<…>>`: a simulated world runs on one thread, and parallel
//! experiment campaigns give every trial its own world (and therefore
//! its own `Telemetry`), so no cross-thread state is ever shared.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per power of two: a bucket above 128 ns spans 1/64 of the
/// power of two it lies in.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// A log-linear histogram of durations in fixed memory.
///
/// Nanosecond values below 128 each get a bucket of their own, so they
/// are recorded exactly; above that, every power of two is split into 64
/// equal buckets. Any `u64` nanosecond count fits in 3,776 buckets
/// (under 30 KB), however many values are recorded, and
/// [`Histogram::quantile`] is within 1/64 of the exact value. Count, min
/// and max are exact, and so is the mean: it divides a running sum of
/// every value in milliseconds, added in recording order, so it is
/// bit-equal to summing the samples themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Count per bucket, grown on demand up to the highest bucket used.
    buckets: Vec<u64>,
    count: u64,
    /// Smallest and largest value, ns; `u64::MAX` and 0 while empty.
    min: u64,
    max: u64,
    /// Sum of [`SimDuration::as_millis_f64`] over every value.
    sum_ms: f64,
}

/// Returned for a histogram that was never observed.
static EMPTY: Histogram = Histogram::new();

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
            sum_ms: 0.0,
        }
    }

    /// The bucket `ns` falls in.
    fn bucket_of(ns: u64) -> usize {
        if ns < 2 * SUB_BUCKETS {
            return ns as usize;
        }
        // ns lies in [2^k, 2^(k+1)) with k >= 7; its bucket width is
        // 2^shift, and ns >> shift is in [64, 128).
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((u64::from(shift) << SUB_BITS) + (ns >> shift)) as usize
    }

    /// The smallest value in bucket `index`, and the bucket's width.
    fn bucket_span(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < 2 * SUB_BUCKETS {
            return (index, 1);
        }
        let shift = (index >> SUB_BITS) - 1;
        let low = (SUB_BUCKETS + (index & (SUB_BUCKETS - 1))) << shift;
        (low, 1 << shift)
    }

    /// Makes room for `len` buckets, allocating no more than that so the
    /// storage bound holds for capacity too.
    fn grow_to(&mut self, len: usize) {
        if self.buckets.len() < len {
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: SimDuration) {
        let ns = value.as_nanos();
        let index = Self::bucket_of(ns);
        self.grow_to(index + 1);
        if let Some(slot) = self.buckets.get_mut(index) {
            *slot += 1;
        }
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.count += 1;
        self.sum_ms += value.as_millis_f64();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then_some(SimDuration::from_nanos(self.min))
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then_some(SimDuration::from_nanos(self.max))
    }

    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.sum_ms / self.count.max(1) as f64
    }

    /// The observation at rank `round((count - 1) * p)` in sorted order,
    /// `p` clamped to `[0, 1]`: the midpoint of its bucket, clamped to
    /// `[min, max]`, so within 1/64 of the exact value. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        let index = self.buckets.iter().position(|&n| {
            seen += n;
            seen > rank
        })?;
        let (low, width) = Self::bucket_span(index);
        let mid = (low + width / 2).clamp(self.min, self.max);
        Some(SimDuration::from_nanos(mid))
    }

    /// Folds `other` into this histogram: counts and sums add, min and
    /// max combine.
    pub fn merge(&mut self, other: &Histogram) {
        self.grow_to(other.buckets.len());
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum_ms += other.sum_ms;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Counter and histogram store keyed by static metric names.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments `name` by `delta`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one duration observation in the `name` histogram.
    pub fn observe(&mut self, name: &'static str, value: SimDuration) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The `name` histogram (empty when never observed).
    pub fn histogram(&self, name: &str) -> &Histogram {
        self.histograms.get(name).unwrap_or(&EMPTY)
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Folds another registry into this one (counters add, histograms
    /// merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (name, histogram) in other.histograms() {
            self.histograms.entry(name).or_default().merge(histogram);
        }
    }
}

/// One timestamped event on a query's path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breadcrumb {
    /// Virtual time the event happened.
    pub at: SimTime,
    /// Where on the path (`"stub.issue"`, `"pgw.uplink"`, …).
    pub point: &'static str,
    /// Free-form context (upstream address, chosen cache, …).
    pub detail: String,
}

/// The span-like record of one DNS transaction: every breadcrumb
/// components dropped for its id, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionTrace {
    /// The DNS transaction id the crumbs were recorded under.
    pub id: u64,
    /// Breadcrumbs in the order they were recorded (which, under a
    /// deterministic simulator, is also timestamp order per point).
    pub crumbs: Vec<Breadcrumb>,
}

impl ResolutionTrace {
    /// A trace for `id` with no crumbs yet.
    pub fn new(id: u64) -> Self {
        ResolutionTrace {
            id,
            crumbs: Vec::new(),
        }
    }

    /// Appends a breadcrumb.
    pub fn mark(&mut self, at: SimTime, point: &'static str, detail: impl Into<String>) {
        self.crumbs.push(Breadcrumb {
            at,
            point,
            detail: detail.into(),
        });
    }

    /// Timestamps of every crumb at `point`, optionally restricted to a
    /// `[from, to]` window.
    pub fn times_at<'a>(
        &'a self,
        point: &'a str,
        window: Option<(SimTime, SimTime)>,
    ) -> impl Iterator<Item = SimTime> + 'a {
        self.crumbs
            .iter()
            .filter(move |c| c.point == point)
            .map(|c| c.at)
            .filter(move |&t| match window {
                Some((from, to)) => t >= from && t <= to,
                None => true,
            })
    }

    /// Earliest crumb at `point` within the optional window.
    pub fn first_at(&self, point: &str, window: Option<(SimTime, SimTime)>) -> Option<SimTime> {
        self.times_at(point, window).min()
    }

    /// Latest crumb at `point` within the optional window.
    pub fn last_at(&self, point: &str, window: Option<(SimTime, SimTime)>) -> Option<SimTime> {
        self.times_at(point, window).max()
    }
}

#[derive(Debug, Default)]
struct TelemetryInner {
    metrics: MetricsRegistry,
    traces: BTreeMap<u64, ResolutionTrace>,
}

/// The shared telemetry handle components along one query path hold.
///
/// Cloning is cheap (reference-counted) and every clone records into the
/// same registry and trace store. A default handle is a fresh, private
/// store that keeps counters and histograms but no traces, so
/// instrumented components work unchanged, at bounded cost, when nobody
/// asked for telemetry; [`Telemetry::recording`] keeps traces too.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<TelemetryInner>>,
    /// Whether [`Telemetry::mark`] keeps breadcrumbs; fixed at
    /// construction and shared by every clone.
    recording: bool,
}

impl Telemetry {
    /// A fresh store that also keeps every breadcrumb, for a reader of
    /// [`Telemetry::trace`]. Its trace store grows with every query.
    pub fn recording() -> Self {
        Telemetry {
            recording: true,
            ..Telemetry::default()
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.inner.borrow_mut().metrics.incr(name);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().metrics.add(name, delta);
    }

    /// Records one duration observation under `name`.
    pub fn observe(&self, name: &'static str, value: SimDuration) {
        self.inner.borrow_mut().metrics.observe(name, value);
    }

    /// Current value of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().metrics.counter(name)
    }

    /// Drops a breadcrumb on the trace for transaction `id` when this
    /// handle is [`Telemetry::recording`]; `detail` is called only then.
    pub fn mark(&self, id: u64, at: SimTime, point: &'static str, detail: impl FnOnce() -> String) {
        if !self.recording {
            return;
        }
        self.inner
            .borrow_mut()
            .traces
            .entry(id)
            .or_insert_with(|| ResolutionTrace::new(id))
            .mark(at, point, detail());
    }

    /// Runs `f` against the metrics registry (read-only harvest).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// The trace recorded for transaction `id`, if any crumbs exist.
    pub fn trace(&self, id: u64) -> Option<ResolutionTrace> {
        self.inner.borrow().traces.get(&id).cloned()
    }

    /// Every recorded trace, in transaction-id order.
    pub fn traces(&self) -> Vec<ResolutionTrace> {
        self.inner.borrow().traces.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Buckets needed to hold any `u64` nanosecond value: 128 exact ones,
    /// then 64 for each power of two from 2^7 to 2^63.
    const MAX_BUCKETS: usize = 3_776;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Seeded durations from a few ns up to about five hours, spread
    /// evenly over the powers of two.
    fn samples(seed: u64, n: usize) -> Vec<SimDuration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let bits = rng.gen_range(0u32..=44);
                SimDuration::from_nanos(rng.gen_range(0..=(1u64 << bits)))
            })
            .collect()
    }

    fn histogram_of(values: &[SimDuration]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let t = Telemetry::default();
        assert_eq!(t.counter("dns.cache.hit"), 0);
        t.incr("dns.cache.hit");
        t.add("dns.cache.hit", 2);
        assert_eq!(t.counter("dns.cache.hit"), 3);
    }

    #[test]
    fn clones_share_one_store() {
        let t = Telemetry::default();
        let c = t.clone();
        c.incr("x");
        assert_eq!(t.counter("x"), 1);
    }

    #[test]
    fn registry_iteration_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.incr("zebra");
        m.incr("alpha");
        m.incr("middle");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "middle", "zebra"]);
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("n", 2);
        a.observe("h", SimDuration::from_millis(1));
        let mut b = MetricsRegistry::new();
        b.add("n", 3);
        b.observe("h", SimDuration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        let h = a.histogram("h");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(2)));
        assert_eq!(a.histogram("never").count(), 0);
    }

    #[test]
    fn quantiles_are_within_a_64th_of_the_exact_sorted_value() {
        for seed in 0..4 {
            let values = samples(seed, 20_000);
            let h = histogram_of(&values);
            let mut sorted: Vec<u64> = values.iter().map(|v| v.as_nanos()).collect();
            sorted.sort_unstable();
            for p in [0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
                let exact = sorted[rank];
                let got = h.quantile(p).unwrap().as_nanos();
                assert!(
                    got.abs_diff(exact) * 64 <= exact,
                    "seed {seed} p {p}: {got} vs exact {exact}"
                );
            }
        }
        // Below 128 ns every value has its own bucket.
        let small: Vec<SimDuration> = (0..128).map(SimDuration::from_nanos).collect();
        let h = histogram_of(&small);
        for ns in 0..128u64 {
            let p = ns as f64 / 127.0;
            assert_eq!(h.quantile(p), Some(SimDuration::from_nanos(ns)));
        }
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn count_min_max_are_exact_and_the_mean_is_bit_equal_to_the_sample_mean() {
        let values = samples(9, 5_000);
        let h = histogram_of(&values);
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), values.iter().copied().min());
        assert_eq!(h.max(), values.iter().copied().max());
        let ms: Vec<f64> = values.iter().map(|v| v.as_millis_f64()).collect();
        let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        assert_eq!(h.mean_ms().to_bits(), mean.to_bits());
        assert_eq!(Histogram::new().mean_ms(), 0.0);
        assert_eq!(Histogram::new().min(), None);
    }

    #[test]
    fn merge_equals_recording_the_concatenation() {
        let (a, b) = (samples(1, 3_000), samples(2, 7_000));
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        merged.merge(&Histogram::new());
        let whole = histogram_of(&[a, b].concat());
        assert_eq!(merged.buckets, whole.buckets);
        assert_eq!(
            (merged.count(), merged.min(), merged.max()),
            (whole.count(), whole.min(), whole.max())
        );
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(merged.quantile(p), whole.quantile(p));
        }
        let drift = (merged.mean_ms() - whole.mean_ms()).abs();
        assert!(drift <= whole.mean_ms() * 1e-12, "{drift}");
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn bucket_storage_stays_within_its_bound() {
        let mut h = Histogram::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000_000 {
            let ns = rng.next_u64() >> rng.gen_range(0..64u32);
            h.record(SimDuration::from_nanos(ns));
        }
        h.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 1_000_001);
        assert_eq!(h.buckets.len(), MAX_BUCKETS);
        assert!(h.buckets.capacity() <= MAX_BUCKETS);
        for index in 0..MAX_BUCKETS {
            let (low, width) = Histogram::bucket_span(index);
            assert_eq!(Histogram::bucket_of(low), index);
            assert_eq!(Histogram::bucket_of(low + (width - 1)), index);
        }
    }

    #[test]
    fn a_default_handle_counts_and_observes_but_keeps_no_trace() {
        let t = Telemetry::default();
        t.mark(7, at(10), "pgw.uplink", || panic!("detail built"));
        t.incr("stub.query");
        t.observe("stub.rtt", SimDuration::from_millis(3));
        assert!(t.trace(7).is_none());
        assert!(t.traces().is_empty());
        assert_eq!(t.counter("stub.query"), 1);
        assert_eq!(t.with_metrics(|m| m.histogram("stub.rtt").count()), 1);
    }

    #[test]
    fn trace_marks_and_window_queries() {
        let t = Telemetry::recording();
        t.mark(7, at(10), "pgw.uplink", String::new);
        t.mark(7, at(30), "pgw.uplink", || "retry".to_string());
        t.mark(7, at(50), "pgw.downlink", String::new);
        let trace = t.trace(7).unwrap();
        assert_eq!(trace.id, 7);
        assert_eq!(trace.crumbs.len(), 3);
        assert_eq!(trace.crumbs[1].detail, "retry");
        assert_eq!(trace.first_at("pgw.uplink", None), Some(at(10)));
        assert_eq!(trace.last_at("pgw.uplink", None), Some(at(30)));
        assert_eq!(
            trace.first_at("pgw.uplink", Some((at(20), at(60)))),
            Some(at(30)),
            "window must exclude the early crumb"
        );
        assert_eq!(trace.first_at("missing", None), None);
        assert!(t.trace(8).is_none());
    }

    #[test]
    fn traces_come_back_in_id_order() {
        let t = Telemetry::recording();
        t.clone().mark(9, at(1), "a", String::new);
        t.mark(2, at(2), "a", String::new);
        t.mark(5, at(3), "a", String::new);
        let ids: Vec<u64> = t.traces().iter().map(|tr| tr.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
