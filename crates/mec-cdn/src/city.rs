//! The `city` experiment: a million UEs against the MEC L-DNS.
//!
//! Everything before this experiment attached a handful of UEs and ran
//! tens of queries; the paper's argument is metro-scale. Here a
//! [`workload::UeFleet`] of flow-level UEs (compact per-UE state, Zipf
//! content popularity, diurnal arrival thinning) multiplexes through a
//! bounded set of eNB ingress nodes, each eNB batching thousands of UEs
//! behind one simulator node. Two deployments face the same city:
//!
//! * **mec-ldns** — the paper's P1: a resolver *in* the MEC, one radio
//!   hop from the eNBs, forwarding cache misses across the WAN to the
//!   CDN's authoritative DNS.
//! * **cloud-resolver** — the baseline: the same resolver software
//!   across the WAN (a cloud public resolver), close to the
//!   authoritative but far from the UEs.
//!
//! The report carries the paper-facing metrics (cache hit ratio, p50/
//! p99/max resolution latency) plus the scheduler counters threaded out
//! of `netsim::stats` (events executed, peak pending, wheel cascades) so
//! a benchmark can derive events/sec without ad-hoc instrumentation.
//! Deployments run as independent trials on the [`Runner`], so the
//! report is byte-identical at any `--threads N`.

use crate::runner::Runner;
use dns_server::plugins::{AuthoritativePlugin, CachePlugin, ForwardPlugin};
use dns_server::{DnsServer, ServerConfig, Zone};
use dns_wire::{Message, Name, Rcode, RrType};
use netsim::{
    Datagram, Latency, LinkProfile, Network, NodeBehavior, NodeContext, Samples, SimDuration,
    SimTime, TimerToken,
};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use workload::{DiurnalCurve, UeAction, UeConfig, UeFleet};

/// First ephemeral port (`netsim` allocates 49152..=65535 per node).
const EPHEMERAL_BASE: u16 = 49152;
/// Ephemeral ports per node — the eNB's outstanding-query table size.
const EPHEMERAL_SPAN: usize = 16384;

/// Knobs of the city campaign.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// UEs in the city.
    pub ues: u32,
    /// eNB ingress nodes the UEs multiplex through.
    pub enbs: u32,
    /// Distinct content names the city requests.
    pub catalog: u32,
    /// Zipf exponent of content popularity.
    pub alpha: f64,
    /// Mean per-UE candidate interarrival at the diurnal peak.
    pub peak_interarrival: SimDuration,
    /// Simulated window (one compressed diurnal "day").
    pub window: SimDuration,
    /// Resolver cache capacity, entries.
    pub cache_entries: usize,
}

impl CityConfig {
    /// The committed campaign: 1M UEs, 32 eNBs, a 120 s compressed day.
    pub fn full() -> Self {
        CityConfig {
            ues: 1_000_000,
            enbs: 32,
            catalog: 120_000,
            alpha: 1.0,
            peak_interarrival: SimDuration::from_secs(60),
            window: SimDuration::from_secs(120),
            cache_entries: 65_536,
        }
    }

    /// CI smoke: 20k UEs, same shape, seconds of wall time.
    pub fn quick() -> Self {
        CityConfig {
            ues: 20_000,
            enbs: 8,
            catalog: 5_000,
            alpha: 1.0,
            peak_interarrival: SimDuration::from_secs(5),
            window: SimDuration::from_secs(10),
            cache_entries: 4_096,
        }
    }
}

/// One deployment's results.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CityDeployment {
    /// `mec-ldns` or `cloud-resolver`.
    pub name: String,
    /// DNS queries the city issued.
    pub queries: u64,
    /// Queries answered NOERROR.
    pub answered: u64,
    /// Queries answered SERVFAIL (or any non-NOERROR rcode).
    pub servfail: u64,
    /// Replies that no longer matched an outstanding query (late reply
    /// after its ephemeral port was reused) plus overwritten slots.
    pub lost: u64,
    /// Candidate arrivals thinned out by the diurnal trough (detached).
    pub thinned: u64,
    /// Resolver cache hits.
    pub cache_hits: u64,
    /// Resolver cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_ratio: f64,
    /// Median resolution latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile resolution latency, ms.
    pub p99_ms: f64,
    /// Worst resolution latency, ms.
    pub max_ms: f64,
    /// Simulator events executed (from [`netsim::SchedStats`]).
    pub sim_events: u64,
    /// Peak concurrently-pending events — ≈ the UE count, since every
    /// UE always holds its next-arrival timer.
    pub max_pending_events: u64,
    /// Timing-wheel upper-level cascades over the run.
    pub wheel_cascades: u64,
}

/// The city campaign's result: config echo + one entry per deployment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CityReport {
    /// Root seed the per-deployment trials were derived from.
    pub seed: u64,
    /// UEs in the city.
    pub ues: u32,
    /// eNB ingress nodes.
    pub enbs: u32,
    /// Content catalogue size.
    pub catalog: u32,
    /// Zipf exponent.
    pub alpha: f64,
    /// Peak mean interarrival, ms.
    pub peak_interarrival_ms: f64,
    /// Simulated window, ms.
    pub window_ms: f64,
    /// Resolver cache capacity.
    pub cache_entries: u64,
    /// `mec-ldns` then `cloud-resolver`.
    pub deployments: Vec<CityDeployment>,
}

impl CityReport {
    /// Plain-text rendering for `repro city`.
    pub fn render(&self) -> String {
        let mut out = String::from("== city — a metro of UEs against MEC vs cloud resolution ==\n");
        out.push_str(&format!(
            "{} UEs on {} eNBs, {}-name catalogue (Zipf {:.1}), {:.0}s window\n",
            self.ues,
            self.enbs,
            self.catalog,
            self.alpha,
            self.window_ms / 1000.0,
        ));
        out.push_str(&format!(
            "{:<15} {:>9} {:>8} {:>8} {:>8} {:>10} {:>12}\n",
            "deployment", "queries", "hit%", "p50(ms)", "p99(ms)", "events", "peak-pending"
        ));
        for d in &self.deployments {
            out.push_str(&format!(
                "{:<15} {:>9} {:>8.1} {:>8.2} {:>8.2} {:>10} {:>12}\n",
                d.name,
                d.queries,
                d.cache_hit_ratio * 100.0,
                d.p50_ms,
                d.p99_ms,
                d.sim_events,
                d.max_pending_events,
            ));
        }
        out
    }
}

/// One in-flight query slot, keyed by the eNB's ephemeral port.
#[derive(Clone, Copy)]
struct Outstanding {
    sent: SimTime,
    live: bool,
}

/// An eNB ingress node: hosts a contiguous slice of the shared fleet,
/// drives each UE's arrival timer, crafts the DNS queries and matches
/// replies back by ephemeral port.
struct Enb {
    fleet: Rc<RefCell<UeFleet>>,
    names: Rc<Vec<Name>>,
    resolver: IpAddr,
    lo: u32,
    hi: u32,
    outstanding: Vec<Outstanding>,
    samples: Samples,
    queries: u64,
    answered: u64,
    servfail: u64,
    lost: u64,
    thinned: u64,
}

impl Enb {
    fn new(fleet: Rc<RefCell<UeFleet>>, names: Rc<Vec<Name>>, resolver: IpAddr, lo: u32, hi: u32) -> Self {
        Enb {
            fleet,
            names,
            resolver,
            lo,
            hi,
            outstanding: vec![
                Outstanding {
                    sent: SimTime::ZERO,
                    live: false,
                };
                EPHEMERAL_SPAN
            ],
            samples: Samples::new(),
            queries: 0,
            answered: 0,
            servfail: 0,
            lost: 0,
            thinned: 0,
        }
    }
}

impl NodeBehavior for Enb {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        let mut fleet = self.fleet.borrow_mut();
        for ue in self.lo..self.hi {
            let dt = fleet.first_arrival(ue);
            ctx.set_timer(dt, u64::from(ue));
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, data: u64) {
        let ue = data as u32;
        let action = self.fleet.borrow_mut().next_action(ue, ctx.now());
        match action {
            UeAction::Query { content, next_in } => {
                let name = self.names[content as usize].clone();
                // Transaction id = low 16 bits of the query count; the
                // reply is matched by ephemeral port, the id is cosmetic.
                let query = Message::query(self.queries as u16, name, RrType::A);
                let bytes = query.encode().expect("city query encodes");
                let port = ctx.send(self.resolver, 53, bytes);
                let slot = &mut self.outstanding[(port - EPHEMERAL_BASE) as usize];
                if slot.live {
                    // 16384 in-flight queries on one eNB: the reply to
                    // the evicted slot will be counted lost.
                    self.lost += 1;
                }
                *slot = Outstanding {
                    sent: ctx.now(),
                    live: true,
                };
                self.queries += 1;
                ctx.set_timer(next_in, u64::from(ue));
            }
            UeAction::Detached { next_in } => {
                self.thinned += 1;
                ctx.set_timer(next_in, u64::from(ue));
            }
            UeAction::Done => {}
        }
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        let Some(idx) = dgram.dst_port.checked_sub(EPHEMERAL_BASE) else {
            self.lost += 1;
            return;
        };
        let Some(slot) = self.outstanding.get_mut(idx as usize) else {
            self.lost += 1;
            return;
        };
        if !slot.live {
            self.lost += 1;
            return;
        }
        slot.live = false;
        match Message::decode(&dgram.payload) {
            Ok(m) if m.header.rcode == Rcode::NoError => {
                self.answered += 1;
                self.samples.record(ctx.now() - slot.sent);
            }
            _ => self.servfail += 1,
        }
    }
}

/// Builds and runs one deployment; `mec` selects resolver placement.
fn run_deployment(mec: bool, trial_seed: u64, cfg: &CityConfig) -> CityDeployment {
    // Shared structure: the content namespace and the fleet.
    let names: Vec<Name> = (0..cfg.catalog)
        .map(|i| Name::parse(&format!("c{i}.cdn.city.test")).expect("catalog name parses"))
        .collect();
    let names = Rc::new(names);
    let fleet = Rc::new(RefCell::new(UeFleet::new(
        UeConfig {
            ues: cfg.ues,
            catalog: cfg.catalog,
            alpha: cfg.alpha,
            peak_interarrival: cfg.peak_interarrival,
            window: cfg.window,
            curve: DiurnalCurve::metro_day(cfg.window),
        },
        trial_seed,
    )));

    let mut net = Network::new(trial_seed);

    // The CDN's authoritative DNS, answering every catalogue name.
    let mut zone = Zone::new(Name::parse("cdn.city.test").expect("apex parses"));
    for (i, name) in names.iter().enumerate() {
        let i = i as u32;
        zone.add_a(
            name.clone(),
            Ipv4Addr::new(198, 18, (i >> 8) as u8, i as u8),
            300,
        );
    }
    let origin_ip: IpAddr = "203.0.113.53".parse().expect("origin ip");
    let origin = net.add_node(
        "cdn-adns",
        [origin_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
        ),
    );

    // The resolver under test: cache + forward-to-authoritative.
    let resolver_ip: IpAddr = "10.96.0.10".parse().expect("resolver ip");
    let resolver = net.add_node(
        if mec { "mec-ldns" } else { "cloud-resolver" },
        [resolver_ip],
        DnsServer::new(
            ServerConfig::default(),
            vec![
                Box::new(CachePlugin::new(cfg.cache_entries)),
                Box::new(ForwardPlugin::new(origin_ip)),
            ],
        ),
    );
    // Placement: the MEC resolver sits a metro hop from the authoritative
    // and one radio+backhaul hop from the eNBs; the cloud resolver sits
    // next to the authoritative but a WAN away from the city.
    let resolver_origin = if mec {
        LinkProfile::with_latency(Latency::skewed(18.0, 24.0, 5.0))
    } else {
        LinkProfile::with_latency(Latency::skewed(2.0, 4.0, 1.0))
    };
    net.connect(resolver, origin, resolver_origin);

    // eNBs, each hosting a contiguous slice of the fleet.
    let enb_access = if mec {
        // LTE air + S1 into the collocated MEC: the paper's P1 premise.
        LinkProfile::with_latency(Latency::skewed(9.0, 13.0, 3.0))
    } else {
        // The same air interface, then the WAN to the cloud resolver.
        LinkProfile::with_latency(Latency::skewed(28.0, 36.0, 6.0))
    };
    let per_enb = cfg.ues.div_ceil(cfg.enbs);
    let mut enbs = Vec::new();
    for e in 0..cfg.enbs {
        let lo = e * per_enb;
        let hi = ((e + 1) * per_enb).min(cfg.ues);
        if lo >= hi {
            break;
        }
        let ip: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 128, (e >> 8) as u8, (e & 0xFF) as u8 + 1));
        let enb = net.add_node(
            &format!("enb-{e}"),
            [ip],
            Enb::new(fleet.clone(), names.clone(), resolver_ip, lo, hi),
        );
        net.connect(enb, resolver, enb_access.clone());
        enbs.push(enb);
    }

    net.run();

    // Harvest.
    let mut samples = Samples::new();
    let (mut queries, mut answered, mut servfail, mut lost, mut thinned) = (0u64, 0, 0, 0, 0);
    for &enb in &enbs {
        let b = net.behavior::<Enb>(enb);
        samples.merge(&b.samples);
        queries += b.queries;
        answered += b.answered;
        servfail += b.servfail;
        lost += b.lost;
        thinned += b.thinned;
    }
    // Cross-validate before reporting: every query must be accounted for
    // (the topology has no loss, so silence would be a simulator bug),
    // and the resolver must have seen exactly the queries the eNBs sent.
    assert_eq!(
        answered + servfail + lost,
        queries,
        "city: unaccounted queries"
    );
    let server = net.behavior::<DnsServer>(resolver);
    assert_eq!(server.queries_received, queries, "resolver missed queries");
    let cache = server
        .plugin::<CachePlugin>(0)
        .expect("cache plugin at index 0");
    let (hits, misses) = (cache.hits(), cache.misses());
    assert_eq!(hits + misses, queries, "cache consulted once per query");

    let sched = net.sched_stats();
    let p = |q: f64| samples.percentile(q).unwrap_or(0.0);
    CityDeployment {
        name: if mec { "mec-ldns" } else { "cloud-resolver" }.to_string(),
        queries,
        answered,
        servfail,
        lost,
        thinned,
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_ratio: if queries == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        p50_ms: p(50.0),
        p99_ms: p(99.0),
        max_ms: p(100.0),
        sim_events: sched.executed,
        max_pending_events: sched.max_pending,
        wheel_cascades: sched.cascades,
    }
}

/// Runs the city campaign serially. See [`city_experiment_with`].
pub fn city_experiment(seed: u64, cfg: &CityConfig) -> CityReport {
    city_experiment_with(seed, &Runner::default(), cfg)
}

/// Runs the two deployments as independent trials on `runner` (derived
/// seeds, index-ordered merge — byte-identical at any thread count) and
/// assembles the [`CityReport`].
pub fn city_experiment_with(seed: u64, runner: &Runner, cfg: &CityConfig) -> CityReport {
    let deployments = runner.run_seeded(2, seed, |idx, trial_seed| {
        run_deployment(idx == 0, trial_seed, cfg)
    });
    CityReport {
        seed,
        ues: cfg.ues,
        enbs: cfg.enbs,
        catalog: cfg.catalog,
        alpha: cfg.alpha,
        peak_interarrival_ms: cfg.peak_interarrival.as_millis_f64(),
        window_ms: cfg.window.as_millis_f64(),
        cache_entries: cfg.cache_entries as u64,
        deployments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CityConfig {
        CityConfig {
            ues: 400,
            enbs: 4,
            catalog: 200,
            alpha: 1.0,
            peak_interarrival: SimDuration::from_millis(800),
            window: SimDuration::from_secs(4),
            cache_entries: 256,
        }
    }

    #[test]
    fn tiny_city_resolves_everything() {
        let r = city_experiment(2020, &tiny());
        assert_eq!(r.deployments.len(), 2);
        for d in &r.deployments {
            assert!(d.queries > 100, "{}: only {} queries", d.name, d.queries);
            assert_eq!(d.answered, d.queries, "{}: unanswered queries", d.name);
            assert_eq!(d.servfail, 0);
            assert_eq!(d.lost, 0);
            assert!(d.cache_hit_ratio > 0.0 && d.cache_hit_ratio < 1.0);
            assert!(d.p99_ms > d.p50_ms);
            assert!(d.sim_events > d.queries);
            // Every UE holds a pending timer at once at some point.
            assert!(d.max_pending_events >= 400);
        }
    }

    #[test]
    fn mec_beats_cloud_on_latency() {
        let r = city_experiment(2020, &tiny());
        let mec = &r.deployments[0];
        let cloud = &r.deployments[1];
        assert_eq!(mec.name, "mec-ldns");
        assert_eq!(cloud.name, "cloud-resolver");
        assert!(
            mec.p50_ms < cloud.p50_ms,
            "MEC p50 {} !< cloud p50 {}",
            mec.p50_ms,
            cloud.p50_ms
        );
        assert!(mec.p99_ms < cloud.p99_ms);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let serial = city_experiment_with(77, &Runner::new(1), &tiny());
        let parallel = city_experiment_with(77, &Runner::new(4), &tiny());
        assert_eq!(serial, parallel);
        let a = serde_json::to_string_pretty(&serial).unwrap();
        let b = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(a, b);
    }
}
