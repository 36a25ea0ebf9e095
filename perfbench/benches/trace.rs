//! Spans for the traced run, recorded from the benchmark's own files.
//!
//! The benchmark stamps its calls into dns-wire (`decode`,
//! `encode_bounded`) and dns-server (`ServeEngine::resolve`), and a
//! [`Traced`] wrapper around each plugin of the serving chains stamps the
//! plugin calls the engine makes. Only queries the run marks as sampled
//! are stamped; the others pass through the wrapper untouched. Spans stay
//! in memory and are written out when the run ends.

use crate::alloc;
use cdn_sim::ServeTopology;
use dns_server::{Plugin, PluginDecision, QueryCtx, ServeEngine};
use dns_wire::Message;
use netsim::SimTime;
use std::cell::RefCell;
use std::io::{self, Write};
use std::net::IpAddr;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// A layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layer {
    /// The whole of one query's three calls, timed from outside them.
    #[default]
    Query,
    /// `Message::decode`.
    Decode,
    /// `ServeEngine::resolve`, including the plugin calls it makes.
    Resolve,
    /// The L-DNS cache plugin.
    Cache,
    /// The stub-domain plugin.
    Stub,
    /// The Traffic Router plugin (C-DNS backend chain).
    Router,
    /// `Message::encode_bounded`, and freeing the query and response.
    Encode,
}

impl Layer {
    /// Span name in the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "query",
            Layer::Decode => "dns-wire.decode",
            Layer::Resolve => "dns-server.resolve",
            Layer::Cache => "dns-server.cache",
            Layer::Stub => "dns-server.stub",
            Layer::Router => "cdn-sim.router",
            Layer::Encode => "dns-wire.encode",
        }
    }

    /// The layer a plugin's calls belong to, by the plugin's name; `None`
    /// leaves a plugin unwrapped, so its time stays in the engine's own.
    fn of_plugin(name: &str) -> Option<Layer> {
        match name {
            "cache" => Some(Layer::Cache),
            "stub-domain" => Some(Layer::Stub),
            "traffic-router" => Some(Layer::Router),
            _ => None,
        }
    }

    fn parent(self) -> &'static str {
        match self {
            Layer::Query => "-",
            Layer::Cache | Layer::Stub | Layer::Router => Layer::Resolve.name(),
            _ => Layer::Query.name(),
        }
    }
}

/// Spans a tracer has room for before its store grows.
const SPAN_RESERVE: usize = 1 << 18;

/// One recorded span: a layer's call for one sampled query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// The query's sequence number, shared by all its spans.
    pub query: u64,
    /// The layer.
    pub layer: Layer,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Allocations made inside the span.
    pub allocs: u64,
}

/// A span's start: clock and allocation count.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    ns: u64,
    allocs: u64,
}

/// The span clock: the CPU's time-stamp counter, a few ns per read
/// against about 50 for `Instant::now` on the host the benchmark was
/// tuned on. Each span pays for two reads, so a cheap clock keeps the
/// layer self times close to the untraced cost.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter into registers;
    // it touches no memory and has no preconditions.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// The span clock where there is no time-stamp counter: ns since the
/// first read.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick of [`ticks`], measured against `Instant` over
/// 20 ms.
fn ns_per_tick() -> f64 {
    let (start, t0) = (Instant::now(), ticks());
    while start.elapsed() < std::time::Duration::from_millis(20) {
        std::hint::spin_loop();
    }
    let (elapsed, t1) = (start.elapsed(), ticks());
    elapsed.as_nanos() as f64 / t1.saturating_sub(t0).max(1) as f64
}

/// The in-memory span store, shared by the run and every wrapper.
#[derive(Debug)]
pub struct Tracer {
    origin: u64,
    ns_per_tick: f64,
    sampled: Option<u64>,
    count_allocs: bool,
    spans: Vec<Span>,
}

/// A tracer shared between the run and the wrapped plugins.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh tracer, shared. With `count_allocs`, the allocator counts
    /// while a sampled query is served; the atomic add that costs is why
    /// a run takes its span times and its allocation counts from two
    /// separate tracers.
    pub fn shared(count_allocs: bool) -> SharedTracer {
        // Touch the span store's pages up front, so recording a span does
        // not page-fault inside the next one.
        let mut spans = vec![Span::default(); SPAN_RESERVE];
        spans.clear();
        Rc::new(RefCell::new(Tracer {
            ns_per_tick: ns_per_tick(),
            origin: ticks(),
            sampled: None,
            count_allocs,
            spans,
        }))
    }

    /// Starts stamping query `query`.
    pub fn begin(&mut self, query: u64) {
        self.sampled = Some(query);
        alloc::set_counting(self.count_allocs);
    }

    /// Stops stamping.
    pub fn end(&mut self) {
        self.sampled = None;
        alloc::set_counting(false);
    }

    /// True while a sampled query is being served.
    pub fn active(&self) -> bool {
        self.sampled.is_some()
    }

    /// Opens a span.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            ns: (ticks().wrapping_sub(self.origin) as f64 * self.ns_per_tick) as u64,
            allocs: alloc::allocations(),
        }
    }

    /// Closes a span opened at `start` for the current sampled query.
    pub fn record(&mut self, layer: Layer, start: Stamp) {
        let end = self.stamp();
        if let Some(query) = self.sampled {
            self.spans.push(Span {
                query,
                layer,
                start_ns: start.ns,
                end_ns: end.ns.max(start.ns),
                allocs: end.allocs - start.allocs,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "query\tspan\tparent\tstart_ns\tend_ns\tallocs")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.query,
                s.layer.name(),
                s.layer.parent(),
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// A plugin wrapped so the engine's calls into it are stamped as spans
/// of its layer. It forwards every `Plugin` method unchanged.
pub struct Traced {
    inner: Box<dyn Plugin>,
    layer: Layer,
    tracer: SharedTracer,
}

impl Traced {
    /// Wraps `inner`, stamping its calls as spans of `layer`.
    pub fn new(inner: Box<dyn Plugin>, layer: Layer, tracer: &SharedTracer) -> Self {
        Traced {
            inner,
            layer,
            tracer: Rc::clone(tracer),
        }
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut dyn Plugin) -> R) -> R {
        let start = {
            let tracer = self.tracer.borrow();
            tracer.active().then(|| tracer.stamp())
        };
        let out = call(self.inner.as_mut());
        if let Some(start) = start {
            self.tracer.borrow_mut().record(self.layer, start);
        }
        out
    }
}

/// Opens a span when there is a tracer.
pub fn open(tracer: Option<&SharedTracer>) -> Option<Stamp> {
    tracer.map(|t| t.borrow().stamp())
}

/// Closes a span opened by [`open`].
pub fn close(tracer: Option<&SharedTracer>, layer: Layer, start: Option<Stamp>) {
    if let (Some(t), Some(start)) = (tracer, start) {
        t.borrow_mut().record(layer, start);
    }
}

impl Plugin for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_query(&mut self, ctx: &QueryCtx, query: &Message) -> PluginDecision {
        self.timed(|p| p.on_query(ctx, query))
    }

    fn on_response(&mut self, ctx: &QueryCtx, response: &mut Message) {
        self.timed(|p| p.on_response(ctx, response))
    }

    fn on_upstream_event(&mut self, now: SimTime, upstream: IpAddr, ok: bool) {
        self.timed(|p| p.on_upstream_event(now, upstream, ok))
    }
}

/// Wraps every plugin of `chain` whose layer is known.
pub fn wrap_chain(chain: Vec<Box<dyn Plugin>>, tracer: &SharedTracer) -> Vec<Box<dyn Plugin>> {
    chain
        .into_iter()
        .map(|inner| match Layer::of_plugin(inner.name()) {
            Some(layer) => Box::new(Traced::new(inner, layer, tracer)) as Box<dyn Plugin>,
            None => inner,
        })
        .collect()
}

/// The engine `ServeTopology::engine` builds, with every chain wrapped.
pub fn traced_engine(topo: &ServeTopology, tracer: &SharedTracer) -> ServeEngine {
    ServeEngine::new(wrap_chain(topo.front_chain(), tracer))
        .with_backend(topo.cdns_addr, wrap_chain(topo.cdns_chain(), tracer))
}

/// Per-query mean self time (ns) and allocations of each layer over the
/// sampled queries in `spans`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// Sampled queries.
    pub queries: u64,
    /// `(ns, allocs)` per query of the whole query span.
    pub query: (f64, f64),
    /// `(ns, allocs)` per query for decode, engine (resolve minus its
    /// plugin spans), cache, stub, router and encode.
    pub decode: (f64, f64),
    /// See [`LayerCosts::decode`].
    pub engine: (f64, f64),
    /// See [`LayerCosts::decode`].
    pub cache: (f64, f64),
    /// See [`LayerCosts::decode`].
    pub stub: (f64, f64),
    /// See [`LayerCosts::decode`].
    pub router: (f64, f64),
    /// See [`LayerCosts::decode`].
    pub encode: (f64, f64),
}

impl LayerCosts {
    /// Sums the spans by layer. Plugin spans all fall inside their
    /// query's resolve span, so the engine's self time is the resolve
    /// total minus the plugin totals.
    pub fn from_spans(spans: &[Span]) -> LayerCosts {
        let mut total = [(0u64, 0u64); 7];
        let mut queries = 0u64;
        for s in spans {
            let slot = match s.layer {
                Layer::Query => {
                    queries += 1;
                    6
                }
                Layer::Decode => 0,
                Layer::Resolve => 1,
                Layer::Cache => 2,
                Layer::Stub => 3,
                Layer::Router => 4,
                Layer::Encode => 5,
            };
            total[slot].0 += s.end_ns - s.start_ns;
            total[slot].1 += s.allocs;
        }
        let n = queries.max(1) as f64;
        let mean = |(ns, allocs): (u64, u64)| (ns as f64 / n, allocs as f64 / n);
        let plugins = (
            total[2].0 + total[3].0 + total[4].0,
            total[2].1 + total[3].1 + total[4].1,
        );
        LayerCosts {
            queries,
            query: mean(total[6]),
            decode: mean(total[0]),
            engine: mean((
                total[1].0.saturating_sub(plugins.0),
                total[1].1.saturating_sub(plugins.1),
            )),
            cache: mean(total[2]),
            stub: mean(total[3]),
            router: mean(total[4]),
            encode: mean(total[5]),
        }
    }

    /// Sum of every layer's self time per query, ns.
    pub fn total_ns(&self) -> f64 {
        self.decode.0 + self.engine.0 + self.cache.0 + self.stub.0 + self.router.0 + self.encode.0
    }

    /// How far the layers' self times miss the query span they make up,
    /// as a percentage of it.
    pub fn reconcile_pct(&self) -> f64 {
        100.0 * (self.total_ns() - self.query.0) / self.query.0
    }
}
