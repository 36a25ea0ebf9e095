//! The in-process serving workloads, `serve-hit` and `serve-miss`.
//!
//! Each query takes the three calls a mecdnsd shard makes per datagram,
//! back to back on one thread: `Message::decode` → `ServeEngine::resolve`
//! → `Message::encode_bounded` at the query's EDNS budget. Virtual time
//! advances a fixed step per query. Every name is encoded once per world
//! and rounds replay the encodings by index, so the inputs stay small.
//!
//! A run serves a series of rounds over a world (topology, encoded
//! queries): each round gets a fresh engine, warms its cache from the
//! world's first query and times a fixed number of queries. Every round
//! therefore does the same work from the same state; and since the
//! engine keeps memory per query, a fresh engine per round bounds what a
//! run holds whatever its speed. Every few rounds the world is built
//! anew, and that build and its engine's warm-up are timed as a setup.

use crate::metrics::{self, Round, RunReport, Setup};
use crate::procfs;
use crate::reference::time_reference;
use crate::rng::Rng;
use crate::stats::{self, Better, Kind};
use crate::trace::{self, Layer, LayerCosts, SharedTracer, Tracer};
use cdn_sim::ServeTopology;
use dns_server::plugins::CachePlugin;
use dns_server::ServeEngine;
use dns_wire::{Message, Name, Opt, Rcode, RrType, CLASSIC_UDP_PAYLOAD};
use netsim::{SimDuration, SimTime};
use std::net::{IpAddr, Ipv4Addr};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::Zipf;

/// A query mix against one topology.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Workload name.
    pub workload: &'static str,
    /// Distinct content names queried.
    pub names: usize,
    /// Zipf skew over the names; `None` draws them uniformly.
    pub zipf_alpha: Option<f64>,
    /// L-DNS cache capacity, entries.
    pub cache_capacity: usize,
    /// Names resolved, in order, before any round: the cache warm-up.
    pub warm_names: usize,
    /// The band the timed rounds' cache hit ratio must fall in.
    pub hit_band: (f64, f64),
}

/// `serve-hit`: the loadgen's Zipf α=1.1 over 512 names, all of them in
/// the warmed cache. Decode, the cache hit and encode do the work.
pub const HIT: Mix = Mix {
    workload: "serve-hit",
    names: 512,
    zipf_alpha: Some(1.1),
    cache_capacity: 4096,
    warm_names: 512,
    hit_band: (0.99, 1.0),
};

/// `serve-miss`: uniform over 262,144 names, 64× the 4,096-entry cache,
/// which is full before timing. Nearly every query forwards through the
/// stub domain to the Traffic Router and inserts into the cache, evicting.
pub const MISS: Mix = Mix {
    workload: "serve-miss",
    names: 262_144,
    zipf_alpha: None,
    cache_capacity: 4096,
    warm_names: 4096,
    hit_band: (0.0, 0.05),
};

/// Queries per timed round.
pub const ROUND_QUERIES: usize = 50_000;
/// Rounds per timed setup.
const SETUP_EVERY: usize = 4;
/// Reference-loop samples per round, spread evenly through it.
pub const REFERENCE_SAMPLES: usize = 8;
/// One query in this many is decoded in full and checked, after its round.
const FULL_CHECK_EVERY: u64 = 1024;
/// One query in this many is traced in a traced round.
pub const TRACE_EVERY: u64 = 64;
/// Virtual time between queries.
const STEP_NS: u64 = 10_000;
const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);
const CLIENT_PORT: u16 = 53_000;

impl Mix {
    /// The served world: the default topology with this mix's cache.
    pub fn topology(&self) -> ServeTopology {
        ServeTopology {
            cache_capacity: self.cache_capacity,
            ..ServeTopology::default()
        }
    }

    /// The seeded name stream: the name index each query asks for.
    pub fn stream(&self, seed: u64, len: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        match self.zipf_alpha {
            Some(alpha) => {
                let zipf = Zipf::new(self.names, alpha);
                (0..len)
                    .map(|_| zipf.sample_u01(rng.u01()) as u32)
                    .collect()
            }
            None => (0..len)
                .map(|_| rng.below(self.names as u64) as u32)
                .collect(),
        }
    }
}

/// Every query of a mix, encoded once (EDNS on, id 0) into one buffer.
pub struct Queries {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Queries {
    /// Encodes a query for each of the first `names` content names.
    pub fn encode(topo: &ServeTopology, names: usize) -> Queries {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(names);
        for k in 0..names {
            let mut query = Message::query(0, topo.content_name(k), RrType::A);
            query.edns = Some(Opt::default());
            bytes.extend_from_slice(&query.encode().expect("benchmark query encodes"));
            ends.push(bytes.len());
        }
        Queries { bytes, ends }
    }

    /// The encoded query for name `k`.
    pub fn get(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }

    /// The datagram a client sends: query `k` with transaction id `id`,
    /// written into `buf`.
    pub fn datagram<'a>(&self, k: usize, id: u16, buf: &'a mut Vec<u8>) -> &'a [u8] {
        buf.clear();
        buf.extend_from_slice(self.get(k));
        buf[..2].copy_from_slice(&id.to_be_bytes());
        buf
    }
}

/// The largest answer a client takes, as mecdnsd's shard computes it: the
/// advertised EDNS payload size, never below 512; 512 without EDNS.
pub fn payload_budget(query: &Message) -> usize {
    query
        .edns
        .as_ref()
        .map(|opt| usize::from(opt.udp_payload_size).max(CLASSIC_UDP_PAYLOAD))
        .unwrap_or(CLASSIC_UDP_PAYLOAD)
}

/// Virtual time of query `seq`.
pub fn now_at(seq: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(STEP_NS * seq)
}

/// Decode → resolve → bounded encode: what a shard does with one
/// datagram. `None` when a call failed or the chain ignored the query.
/// With a tracer, each of the three calls is a span; traced and untraced
/// queries run the same code, so sampling does not leave the traced ones
/// on a cold path.
pub fn serve_datagram(
    engine: &mut ServeEngine,
    now: SimTime,
    dgram: &[u8],
    tracer: Option<&SharedTracer>,
) -> Option<Vec<u8>> {
    let start = trace::open(tracer);
    let query = Message::decode(dgram);
    trace::close(tracer, Layer::Decode, start);
    let query = query.ok()?;
    let start = trace::open(tracer);
    let response = engine.resolve(now, CLIENT, CLIENT_PORT, &query);
    trace::close(tracer, Layer::Resolve, start);
    let start = trace::open(tracer);
    let answer = response.map(|r| r.encode_bounded(payload_budget(&query)));
    drop(query);
    trace::close(tracer, Layer::Encode, start);
    answer?.ok()
}

/// True when an answer's header bytes hold: the query's id, a response,
/// no TC bit, NOERROR, at least one answer record.
pub fn header_ok(answer: &[u8], id: u16) -> bool {
    answer.len() >= 12
        && answer[..2] == id.to_be_bytes()
        && answer[2] & 0x80 != 0
        && answer[2] & 0x02 == 0
        && answer[3] & 0x0F == 0
        && u16::from_be_bytes([answer[6], answer[7]]) >= 1
}

/// True when the answer decodes to a full NOERROR answer for `name`
/// whose every A record is one of the topology's caches.
pub fn answer_ok(answer: &[u8], id: u16, name: &Name, topo: &ServeTopology) -> bool {
    let Ok(msg) = Message::decode(answer) else {
        return false;
    };
    let addrs = msg.answer_a_addrs();
    msg.header.id == id
        && msg.header.is_response
        && !msg.header.truncated
        && msg.header.rcode == Rcode::NoError
        && msg.question().is_some_and(|q| q.qname == *name)
        && !addrs.is_empty()
        && addrs.iter().all(|a| topo.caches.contains(a))
}

/// One round's world.
pub struct World {
    /// The topology served.
    pub topo: ServeTopology,
    /// Every name's encoded query.
    pub queries: Queries,
    /// The names the round's timed queries ask for.
    pub stream: Vec<u32>,
    /// Next query sequence number (the id is its low 16 bits).
    pub seq: u64,
}

impl World {
    /// Encodes the inputs of `mix` for one round.
    pub fn build(mix: &Mix, seed: u64) -> World {
        let topo = mix.topology();
        let queries = Queries::encode(&topo, mix.names);
        World {
            stream: mix.stream(seed, ROUND_QUERIES),
            topo,
            queries,
            seq: 0,
        }
    }

    /// Resolves the first `mix.warm_names` names once each; returns how
    /// many answers failed the header check.
    pub fn warm(&mut self, mix: &Mix, engine: &mut ServeEngine) -> u64 {
        let mut buf = Vec::new();
        let mut failed = 0;
        for k in 0..mix.warm_names {
            let id = self.seq as u16;
            let dgram = self.queries.datagram(k, id, &mut buf);
            let ok = serve_datagram(engine, now_at(self.seq), dgram, None)
                .is_some_and(|a| header_ok(&a, id));
            failed += u64::from(!ok);
            self.seq += 1;
        }
        failed
    }
}

/// Buffers reused across rounds, allocated before any timing.
pub struct Scratch {
    buf: Vec<u8>,
    latencies: Vec<f64>,
    /// `(name, id, answer)` of the queries picked for a full check.
    full: Vec<(u32, u16, Vec<u8>)>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            buf: Vec::with_capacity(512),
            latencies: Vec::with_capacity(ROUND_QUERIES),
            full: Vec::with_capacity(ROUND_QUERIES / FULL_CHECK_EVERY as usize + 1),
        }
    }
}

/// Times the world's stream through `engine`. When `tracer` is given, one
/// query in [`TRACE_EVERY`] is served with spans.
pub fn run_round(
    engine: &mut ServeEngine,
    world: &mut World,
    scratch: &mut Scratch,
    tracer: Option<&SharedTracer>,
) -> Round {
    let names = &world.stream;
    scratch.latencies.clear();
    let mut failed = 0;
    let mut references = Vec::with_capacity(REFERENCE_SAMPLES);
    let every = (names.len() / REFERENCE_SAMPLES).max(1);
    let mut wall_ns = 0.0;
    let mut start = Instant::now();
    let mut prev = start;
    for (i, &k) in names.iter().enumerate() {
        if i > 0 && i % every == 0 {
            // The reference loop runs between queries, outside the round's
            // clock, so it samples the host's speed during the round.
            wall_ns += (prev - start).as_nanos() as f64;
            references.push(time_reference());
            start = Instant::now();
            prev = start;
        }
        let seq = world.seq;
        world.seq += 1;
        let id = seq as u16;
        let dgram = world.queries.datagram(k as usize, id, &mut scratch.buf);
        let sampled = tracer.filter(|_| seq.is_multiple_of(TRACE_EVERY));
        if let Some(t) = sampled {
            t.borrow_mut().begin(seq);
        }
        let span = trace::open(sampled);
        let answer = serve_datagram(engine, now_at(seq), dgram, sampled);
        trace::close(sampled, Layer::Query, span);
        if let Some(t) = sampled {
            t.borrow_mut().end();
        }
        match answer {
            Some(a) if header_ok(&a, id) => {
                if seq.is_multiple_of(FULL_CHECK_EVERY) {
                    scratch.full.push((k, id, a));
                }
            }
            _ => failed += 1,
        }
        let now = Instant::now();
        scratch.latencies.push((now - prev).as_nanos() as f64);
        prev = now;
    }
    wall_ns += (prev - start).as_nanos() as f64;
    references.push(time_reference());
    stats::sort(&mut scratch.latencies);
    Round {
        ops: names.len() as u64,
        failed,
        wall_ns,
        p50_ns: stats::quantile_sorted(&scratch.latencies, 0.50),
        p99_ns: stats::quantile_sorted(&scratch.latencies, 0.99),
        reference_ns: stats::median(&references),
    }
}

/// Decodes and checks the answers set aside for a full check.
fn check_full(report: &mut RunReport, world: &World, scratch: &mut Scratch) {
    for (k, id, answer) in scratch.full.drain(..) {
        let name = world.topo.content_name(k as usize);
        report.check(answer_ok(&answer, id, &name, &world.topo), || {
            format!("answer for {name} (id {id}) failed the full check")
        });
    }
}

/// Cache `(hits, misses)` of an engine whose front plugin 0 is the cache.
fn cache_counts(engine: &ServeEngine) -> Option<(u64, u64)> {
    engine
        .front_plugin::<CachePlugin>(0)
        .map(|c| (c.hits(), c.misses()))
}

/// Hit and lookup totals of timed rounds.
#[derive(Debug, Default)]
struct HitRatio {
    hits: u64,
    lookups: u64,
}

impl HitRatio {
    fn add(&mut self, before: Option<(u64, u64)>, after: Option<(u64, u64)>) {
        if let (Some((h0, m0)), Some((h1, m1))) = (before, after) {
            self.hits += h1 - h0;
            self.lookups += (h1 - h0) + (m1 - m0);
        }
    }

    fn ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }

    fn check(&self, report: &mut RunReport, mix: &Mix) {
        let ratio = self.ratio();
        let (lo, hi) = mix.hit_band;
        report.check(self.lookups > 0 && ratio >= lo && ratio <= hi, || {
            format!("cache hit ratio {ratio:.4} outside [{lo}, {hi}]")
        });
    }
}

/// A fresh engine made by `make`, warmed on `world` from its first query:
/// every round then does the same work from the same state.
fn fresh_engine(
    mix: &Mix,
    world: &mut World,
    report: &mut RunReport,
    make: impl FnOnce(&ServeTopology) -> ServeEngine,
) -> ServeEngine {
    world.seq = 0;
    let mut engine = make(&world.topo);
    let warm_failed = world.warm(mix, &mut engine);
    report.check(warm_failed == 0, || {
        format!("{warm_failed} warm-up queries failed")
    });
    engine
}

/// Builds the world and a warm engine, timing both.
fn setup(mix: &Mix, seed: u64, report: &mut RunReport) -> (World, ServeEngine, Setup) {
    let start = Instant::now();
    let mut world = World::build(mix, seed);
    let engine = fresh_engine(mix, &mut world, report, |t| t.engine());
    let wall_ns = start.elapsed().as_nanos() as f64;
    let setup = Setup {
        wall_ns,
        reference_ns: time_reference(),
    };
    (world, engine, setup)
}

/// The end-to-end run: rounds until `seconds` have passed, each with a
/// fresh engine. Every [`SETUP_EVERY`]th round starts from a timed setup
/// (a new world and its engine), so that setups sample the whole run; the
/// rounds between reuse that world.
pub fn run(mix: &Mix, seed: u64, seconds: u64) -> RunReport {
    let mut report = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut scratch = Scratch::default();
    let mut last_world = None;
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    let mut hits = HitRatio::default();
    loop {
        let (mut world, mut engine) = match last_world.take() {
            Some(mut world) if rounds.len() % SETUP_EVERY != 0 => {
                let engine = fresh_engine(mix, &mut world, &mut report, |t| t.engine());
                (world, engine)
            }
            old => {
                // The old world goes before the new one is built, so a run
                // never holds two.
                drop(old);
                let (world, engine, setup) = setup(mix, seed, &mut report);
                setups.push(setup);
                (world, engine)
            }
        };
        let before = cache_counts(&engine);
        rounds.push(run_round(&mut engine, &mut world, &mut scratch, None));
        hits.add(before, cache_counts(&engine));
        check_full(&mut report, &world, &mut scratch);
        drop(engine);
        last_world = Some(world);
        if Instant::now() >= deadline {
            break;
        }
    }
    hits.check(&mut report, mix);
    report.count(&rounds);
    report.figures = metrics::end_to_end(&rounds, &setups);
    report.notes.push(metrics::round_summary(&rounds));
    report.notes.push(format!(
        "{}: {} rounds of {ROUND_QUERIES} queries, hit ratio {:.4}",
        mix.workload,
        rounds.len(),
        hits.ratio()
    ));
    report
}

/// Median over `rounds` of the wall time per query, ns.
fn per_query_ns(rounds: &[Round]) -> f64 {
    let per: Vec<f64> = rounds.iter().map(|r| r.wall_ns / r.ops as f64).collect();
    stats::median(&per)
}

/// The traced run: per-layer costs from sampled spans, allocation counts,
/// memory growth per query, and the cost of tracing itself.
///
/// It first serves one round untraced to measure resident-set growth per
/// query, then one round traced with allocation counting on. Then it
/// times a plain round and a traced round alternately, each on a fresh
/// engine, until `seconds` have passed; span times come from these.
pub fn run_traced(mix: &Mix, seed: u64, seconds: u64, spans_out: &Path) -> RunReport {
    let mut report = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut scratch = Scratch::default();
    let mut world = World::build(mix, seed);

    let mut engine = fresh_engine(mix, &mut world, &mut report, |t| t.engine());
    let rss_before = procfs::rss_bytes();
    let mut untimed = vec![run_round(&mut engine, &mut world, &mut scratch, None)];
    let growth = (procfs::rss_bytes() - rss_before) / ROUND_QUERIES as f64;
    check_full(&mut report, &world, &mut scratch);
    drop(engine);

    let counter = Tracer::shared(true);
    let mut engine = fresh_engine(mix, &mut world, &mut report, |t| {
        trace::traced_engine(t, &counter)
    });
    untimed.push(run_round(
        &mut engine,
        &mut world,
        &mut scratch,
        Some(&counter),
    ));
    check_full(&mut report, &world, &mut scratch);
    drop(engine);
    report.count(&untimed);
    let allocs = LayerCosts::from_spans(counter.borrow().spans());

    let tracer = Tracer::shared(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut hits = HitRatio::default();
    loop {
        let mut engine = fresh_engine(mix, &mut world, &mut report, |t| t.engine());
        let before = cache_counts(&engine);
        plain.push(run_round(&mut engine, &mut world, &mut scratch, None));
        hits.add(before, cache_counts(&engine));
        check_full(&mut report, &world, &mut scratch);
        drop(engine);
        let mut engine = fresh_engine(mix, &mut world, &mut report, |t| {
            trace::traced_engine(t, &tracer)
        });
        traced.push(run_round(
            &mut engine,
            &mut world,
            &mut scratch,
            Some(&tracer),
        ));
        check_full(&mut report, &world, &mut scratch);
        if Instant::now() >= deadline {
            break;
        }
    }
    hits.check(&mut report, mix);
    report.count(&plain);
    report.count(&traced);

    let tracer = tracer.borrow();
    let costs = LayerCosts::from_spans(tracer.spans());
    if let Err(e) = tracer.write(spans_out) {
        report
            .notes
            .push(format!("spans not written to {}: {e}", spans_out.display()));
    }
    let plain_ns = per_query_ns(&plain);
    let traced_ns = per_query_ns(&traced);
    let (_, p99_us) = stats::run_figure(
        &plain.iter().map(|r| r.p99_ns / 1e3).collect::<Vec<_>>(),
        &plain.iter().map(|r| r.reference_ns).collect::<Vec<_>>(),
        Kind::Time,
        Better::Lower,
    );
    for (name, value) in [
        ("dns-wire.decode_ns", costs.decode.0),
        ("dns-wire.decode_allocs", allocs.decode.1),
        ("dns-wire.encode_ns", costs.encode.0),
        ("dns-wire.encode_allocs", allocs.encode.1),
        ("dns-server.engine_ns", costs.engine.0),
        ("dns-server.engine_allocs", allocs.engine.1),
        ("dns-server.cache_ns", costs.cache.0),
        ("dns-server.cache_allocs", allocs.cache.1),
        ("dns-server.stub_ns", costs.stub.0),
        ("cdn-sim.router_ns", costs.router.0),
        ("cdn-sim.router_allocs", allocs.router.1),
        ("dns-server.cache_hit_ratio", hits.ratio()),
        ("serve.rss_growth_b_per_query", growth),
        ("serve.latency_p99_us", p99_us),
        (
            "trace.overhead_pct",
            100.0 * (traced_ns - plain_ns) / plain_ns,
        ),
        ("trace.reconcile_pct", costs.reconcile_pct()),
    ] {
        report.layer(name, value);
    }
    report.notes.push(format!(
        "{}: {} sampled queries; per query: untraced {plain_ns:.0} ns, traced {traced_ns:.0} ns; \
         sampled query span {:.0} ns, layer sum {:.0} ns (decode {:.0}, engine {:.0}, cache {:.0}, \
         stub {:.0}, router {:.0}, encode {:.0})",
        mix.workload,
        costs.queries,
        costs.query.0,
        costs.total_ns(),
        costs.decode.0,
        costs.engine.0,
        costs.cache.0,
        costs.stub.0,
        costs.router.0,
        costs.encode.0,
    ));
    report
}
