//! `city`: the metro-scale simulator, `mec_cdn::city_experiment_with` on a
//! one-thread `Runner` (what `repro city` runs by default).
//!
//! Every round runs the same seeded city. netsim's scheduler and links,
//! the per-hop DNS codec, the `DnsServer` plugins and the UE arrivals do
//! the work; mecdnsd does none. A round's operations are the simulated
//! queries of both deployments. A simulated query has no wall-clock
//! latency of its own, so both latency figures read the round's wall time
//! per simulated query. Setup is building the same world with one UE per
//! eNB: the catalogue zone, both deployments' nodes and tables, and a
//! near-empty simulation.

use crate::metrics::{self, Round, RunReport, Setup};
use crate::procfs;
use crate::reference::time_reference;
use crate::rng::Rng;
use crate::serve::REFERENCE_SAMPLES;
use crate::stats;
use dns_wire::{Message, Name, RData, Record, RrClass, RrType};
use mec_cdn::{city_experiment_with, CityConfig, CityReport, Runner};
use netsim::{SimDuration, SimTime, TimerWheel};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};
use workload::{DiurnalCurve, UeConfig, UeFleet};

/// The city's shape: the committed campaign's (32 eNBs, Zipf 1.0, a
/// 120 s window, a 60 s peak interarrival) at about a tenth of its
/// catalogue and cache and a twentieth of its UEs. With a tenth of its
/// UEs a round took about 2.4 s, and a 25 s run of ten rounds had too few
/// for its fastest ones to skip a host slow period.
pub fn config() -> CityConfig {
    CityConfig {
        ues: 50_000,
        enbs: 32,
        catalog: 12_000,
        alpha: 1.0,
        peak_interarrival: SimDuration::from_secs(60),
        window: SimDuration::from_secs(120),
        cache_entries: 8_192,
    }
}

/// The city's world with one UE per eNB: what building the world costs
/// without the traffic.
fn setup_config(cfg: &CityConfig) -> CityConfig {
    CityConfig {
        ues: cfg.enbs,
        ..cfg.clone()
    }
}

/// Codec calls one simulated query makes on a cache hit: the eNB encodes
/// the query; the resolver decodes it twice (ECS probe, then serving),
/// decodes it again to echo ECS and encodes the answer; the eNB decodes
/// the answer.
const CODEC_CALLS_PER_QUERY: u64 = 6;
/// Further codec calls of a cache miss: the resolver encodes the forward;
/// the authoritative decodes it three times and encodes its answer; the
/// resolver decodes that answer.
const CODEC_CALLS_PER_MISS: u64 = 6;

/// Simulated queries of both deployments, and how many failed.
fn ops(report: &CityReport) -> (u64, u64) {
    report.deployments.iter().fold((0, 0), |(q, f), d| {
        (
            q + d.queries,
            f + d.servfail + d.lost + d.queries.saturating_sub(d.answered + d.servfail + d.lost),
        )
    })
}

/// The checks one report must pass, and that every round's report equals
/// the first.
fn check(run: &mut RunReport, report: &CityReport, first: &CityReport) {
    run.check(report == first, || {
        "a round's CityReport differs from the first".into()
    });
    for d in &report.deployments {
        run.check(
            d.queries > 0 && d.answered == d.queries && d.servfail == 0 && d.lost == 0,
            || {
                format!(
                    "{}: {} queries, {} answered, {} servfail, {} lost",
                    d.name, d.queries, d.answered, d.servfail, d.lost
                )
            },
        );
    }
    let p50 = |name: &str| {
        report
            .deployments
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.p50_ms)
    };
    match (p50("mec-ldns"), p50("cloud-resolver")) {
        (Some(mec), Some(cloud)) => run.check(mec < cloud, || {
            format!("MEC p50 {mec} ms does not beat cloud p50 {cloud} ms")
        }),
        _ => run
            .violations
            .push("a deployment is missing from the report".into()),
    }
}

/// The reference loop's time right after a round, which cannot pause to
/// sample it: the median of [`REFERENCE_SAMPLES`] runs.
fn reference_after() -> f64 {
    let samples: Vec<f64> = (0..REFERENCE_SAMPLES).map(|_| time_reference()).collect();
    stats::median(&samples)
}

/// One timed round: the city once, then the reference loop.
fn round(seed: u64, runner: &Runner, cfg: &CityConfig) -> (Round, CityReport) {
    let start = Instant::now();
    let report = city_experiment_with(seed, runner, cfg);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let (queries, failed) = ops(&report);
    let per_query = wall_ns / queries.max(1) as f64;
    let round = Round {
        ops: queries,
        failed,
        wall_ns,
        p50_ns: per_query,
        p99_ns: per_query,
        reference_ns: reference_after(),
    };
    (round, report)
}

/// The end-to-end run: rounds until `seconds` have passed, each after a
/// timed world build, so that setups sample the whole run.
pub fn run(seed: u64, seconds: u64) -> RunReport {
    let mut run = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (cfg, runner) = (config(), Runner::new(1));
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<CityReport> = None;
    loop {
        let (s, _) = round(seed, &runner, &setup_config(&cfg));
        setups.push(Setup {
            wall_ns: s.wall_ns,
            reference_ns: s.reference_ns,
        });
        let (r, report) = round(seed, &runner, &cfg);
        match &first {
            Some(first) => check(&mut run, &report, first),
            None => {
                check(&mut run, &report, &report);
                first = Some(report);
            }
        }
        rounds.push(r);
        if Instant::now() >= deadline {
            break;
        }
    }
    run.count(&rounds);
    run.figures = metrics::end_to_end(&rounds, &setups);
    run.notes.push(metrics::round_summary(&rounds));
    run.notes.push(format!(
        "city: {} UEs, {} rounds of {} simulated queries",
        cfg.ues,
        rounds.len(),
        rounds.first().map_or(0, |r| r.ops)
    ));
    run
}

/// Mean ns per codec call over city-shaped messages: a query and a
/// one-answer response for each of the first 4,096 catalogue names, each
/// encoded and decoded.
fn codec_ns(cfg: &CityConfig) -> f64 {
    let messages: Vec<Message> = (0..cfg.catalog.min(4096))
        .flat_map(|i| {
            let name = Name::parse(&format!("c{i}.cdn.city.test")).expect("city name parses");
            let query = Message::query(i as u16, name.clone(), RrType::A);
            let mut response = Message::response_to(&query);
            response.answers.push(Record::new(
                name,
                RrClass::In,
                300,
                RData::A(Ipv4Addr::new(198, 18, (i >> 8) as u8, i as u8)),
            ));
            [query, response]
        })
        .collect();
    let start = Instant::now();
    let wire: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| black_box(m.encode().expect("city message encodes")))
        .collect();
    for bytes in &wire {
        black_box(Message::decode(bytes).ok());
    }
    start.elapsed().as_nanos() as f64 / (2 * messages.len()) as f64
}

/// ns per event the timing wheel handles at `depth` pending timers: one
/// pop and one schedule, with delays spread over the city's window.
fn wheel_ns(depth: u64, cfg: &CityConfig, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let horizon = cfg.window.as_nanos();
    let mut wheel = TimerWheel::new();
    for i in 0..depth {
        wheel.schedule(SimTime::from_nanos(rng.below(horizon)), i);
    }
    let events = 4 * depth.max(1);
    let start = Instant::now();
    for _ in 0..events {
        if let Some((at, v)) = wheel.pop() {
            wheel.schedule(
                at + SimDuration::from_nanos(rng.below(horizon)),
                black_box(v),
            );
        }
    }
    start.elapsed().as_nanos() as f64 / events as f64
}

/// ns per `UeFleet::next_action` call on the city's fleet, over every UE
/// at instants spread across the window.
fn next_action_ns(cfg: &CityConfig, seed: u64) -> f64 {
    let mut fleet = UeFleet::new(
        UeConfig {
            ues: cfg.ues,
            catalog: cfg.catalog,
            alpha: cfg.alpha,
            peak_interarrival: cfg.peak_interarrival,
            window: cfg.window,
            curve: DiurnalCurve::metro_day(cfg.window),
        },
        seed,
    );
    let calls = 4 * u64::from(cfg.ues);
    let step = cfg.window.as_nanos() / calls;
    let start = Instant::now();
    for i in 0..calls {
        let ue = (i % u64::from(cfg.ues)) as u32;
        black_box(fleet.next_action(ue, SimTime::from_nanos(i * step)));
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The traced run: scheduler and cache counters from the report, each
/// layer's public call timed alone on city-shaped inputs, and the share
/// of a round each layer accounts for (count × cost ÷ round wall time).
pub fn run_traced(seed: u64, seconds: u64) -> RunReport {
    let mut run = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds / 2);
    let (cfg, runner) = (config(), Runner::new(1));
    let rss_before = procfs::rss_bytes();
    let (cold, first) = round(seed, &runner, &cfg);
    let rss_per_ue =
        (procfs::status_bytes("VmHWM").unwrap_or(0.0) - rss_before) / f64::from(cfg.ues);
    check(&mut run, &first, &first);
    let mut rounds = vec![cold];
    while Instant::now() < deadline {
        let (r, report) = round(seed, &runner, &cfg);
        check(&mut run, &report, &first);
        rounds.push(r);
    }
    run.count(&rounds);
    let wall_ns = stats::median(&rounds.iter().map(|r| r.wall_ns).collect::<Vec<_>>());

    let sum =
        |f: &dyn Fn(&mec_cdn::CityDeployment) -> u64| first.deployments.iter().map(f).sum::<u64>();
    let queries = sum(&|d| d.queries);
    let events = sum(&|d| d.sim_events);
    let misses = sum(&|d| d.cache_misses);
    let fleet_calls = sum(&|d| d.queries + d.thinned) + 2 * u64::from(cfg.ues);
    let max_pending = first
        .deployments
        .iter()
        .map(|d| d.max_pending_events)
        .max()
        .unwrap_or(0);
    let codec = codec_ns(&cfg);
    let wheel = wheel_ns(max_pending, &cfg, seed);
    let next_action = next_action_ns(&cfg, seed);
    let mec_hit_ratio = first
        .deployments
        .iter()
        .find(|d| d.name == "mec-ldns")
        .map_or(0.0, |d| d.cache_hit_ratio);
    let codec_calls = CODEC_CALLS_PER_QUERY * queries + CODEC_CALLS_PER_MISS * misses;
    for (name, value) in [
        (
            "netsim.events_per_query",
            events as f64 / queries.max(1) as f64,
        ),
        ("netsim.events_per_s", events as f64 / (wall_ns / 1e9)),
        ("netsim.max_pending", max_pending as f64),
        (
            "netsim.cascades_per_event",
            sum(&|d| d.wheel_cascades) as f64 / events.max(1) as f64,
        ),
        ("dns-server.city_hit_ratio", mec_hit_ratio),
        ("dns-wire.city_codec_ns", codec),
        ("netsim.wheel_ns", wheel),
        ("workload.next_action_ns", next_action),
        ("city.share_codec", codec_calls as f64 * codec / wall_ns),
        ("city.share_wheel", events as f64 * wheel / wall_ns),
        (
            "city.share_fleet",
            fleet_calls as f64 * next_action / wall_ns,
        ),
        ("city.rss_b_per_ue", rss_per_ue),
    ] {
        run.layer(name, value);
    }
    run
}
