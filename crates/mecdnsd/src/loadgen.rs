//! Closed-loop load generator for the serving fleet.
//!
//! Each client thread owns one socket and plays a strict closed loop:
//! send a query, wait for the matching response (or a timeout), record
//! the round-trip, repeat. A reply that arrives after its query timed
//! out is dropped when it turns up, so one slow answer costs one
//! timeout, not every later query of that client. Queries draw content
//! ranks from a Zipf distribution — the workload crate's model of
//! content popularity — over the topology's hosted namespace, so the
//! L-DNS cache sees a realistic hit/miss mix. Clients are seeded deterministically
//! (`seed + client index`), so two runs issue the same query streams;
//! only the timings differ.
//!
//! Latency is measured against the shared [`WallClock`], the same
//! transport-edge clock the server uses, keeping every wall-clock read
//! in `clock.rs`.

use crate::clock::WallClock;
use cdn_sim::ServeTopology;
use dns_wire::{Message, Opt, RrType};
use netsim::{Histogram, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;
use workload::Zipf;

/// Configuration for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server addresses; client `i` targets `targets[i % len]`.
    pub targets: Vec<SocketAddr>,
    /// Total queries across all clients.
    pub queries: u64,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Distinct content names in the query population.
    pub names: usize,
    /// Zipf skew of the content popularity.
    pub alpha: f64,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// Per-query receive timeout in milliseconds.
    pub timeout_ms: u64,
    /// The namespace to query (must match the server's).
    pub topology: ServeTopology,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            targets: Vec::new(),
            queries: 10_000,
            clients: 4,
            names: 512,
            alpha: 1.1,
            seed: 7,
            timeout_ms: 1_000,
            topology: ServeTopology::default(),
        }
    }
}

/// What the clients observed, merged across all of them.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Queries put on the wire.
    pub sent: u64,
    /// Responses received with a matching transaction id.
    pub received: u64,
    /// Queries that timed out waiting.
    pub timeouts: u64,
    /// Responses that did not parse.
    pub decode_errors: u64,
    /// Responses whose transaction id matches neither the query in
    /// flight nor an earlier query of this client that timed out.
    pub mismatches: u64,
    /// Responses with the TC bit set.
    pub truncated: u64,
    /// Wall time of the whole run.
    pub elapsed_ns: u64,
    /// Round-trip time of every received response, in fixed memory.
    pub latencies: Histogram,
}

impl LoadReport {
    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.received += other.received;
        self.timeouts += other.timeouts;
        self.decode_errors += other.decode_errors;
        self.mismatches += other.mismatches;
        self.truncated += other.truncated;
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
        self.latencies.merge(&other.latencies);
    }

    /// Completed queries per second over the whole run.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.received as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Round-trip percentile in nanoseconds (`p` in `[0, 1]`), within
    /// 1/64 of the exact value; `None` before any response arrived.
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        self.latencies.quantile(p).map(SimDuration::as_nanos)
    }
}

/// Runs the configured clients to completion and merges their reports.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadReport> {
    if config.targets.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "loadgen needs at least one target address",
        ));
    }
    let clients = config.clients.max(1);
    let clock = WallClock::start();
    let per_client = config.queries / clients as u64;
    let remainder = config.queries % clients as u64;
    let mut merged = LoadReport::default();
    let outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for i in 0..clients {
            let quota = per_client + u64::from((i as u64) < remainder);
            handles.push(scope.spawn(move || client_loop(i, quota, config, clock)));
        }
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    for outcome in outcomes {
        match outcome {
            Ok(Ok(report)) => merged.merge(report),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(io::Error::other("a loadgen client thread panicked")),
        }
    }
    merged.elapsed_ns = clock.elapsed_ns();
    Ok(merged)
}

/// One closed-loop client: its whole quota, one query in flight.
fn client_loop(
    index: usize,
    quota: u64,
    config: &LoadgenConfig,
    clock: WallClock,
) -> io::Result<LoadReport> {
    let target = config.targets[index % config.targets.len()];
    let sock = UdpSocket::bind(("0.0.0.0", 0))?;
    sock.connect(target)?;
    let timeout = Duration::from_millis(config.timeout_ms.max(1));
    sock.set_read_timeout(Some(timeout))?;
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
    let zipf = Zipf::new(config.names.max(1), config.alpha);
    let mut report = LoadReport::default();
    let mut buf = vec![0u8; 65_535];
    // Ids of this client's queries that timed out, until they are reused.
    let mut timed_out = HashSet::new();
    for seq in 0..quota {
        let rank = zipf.sample(&mut rng);
        let id = (seq as u16).wrapping_add((index as u16) << 12);
        let mut query = Message::query(id, config.topology.content_name(rank), RrType::A);
        query.edns = Some(Opt::default());
        let bytes = query
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        timed_out.remove(&id);
        let t0 = clock.elapsed_ns();
        let deadline = t0 + timeout.as_nanos() as u64;
        sock.send(&bytes)?;
        report.sent += 1;
        // Wait for this query's id until its deadline, whatever else
        // arrives first.
        let mut shortened = false;
        loop {
            let reply = match sock.recv(&mut buf) {
                Ok(len) => buf.get(..len),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    None
                }
                Err(e) => return Err(e),
            };
            let now = clock.elapsed_ns();
            match reply.map(Message::decode) {
                Some(Ok(resp)) if resp.header.id == id => {
                    report.received += 1;
                    report
                        .latencies
                        .record(SimDuration::from_nanos(now.saturating_sub(t0)));
                    if resp.header.truncated {
                        report.truncated += 1;
                    }
                    break;
                }
                // A late reply to an earlier query: `timeouts` counts it.
                Some(Ok(resp)) if timed_out.contains(&resp.header.id) => {}
                Some(Ok(_)) => report.mismatches += 1,
                Some(Err(_)) => report.decode_errors += 1,
                None => {}
            }
            let left = deadline.saturating_sub(now);
            if left == 0 {
                report.timeouts += 1;
                timed_out.insert(id);
                break;
            }
            sock.set_read_timeout(Some(Duration::from_nanos(left)))?;
            shortened = true;
        }
        if shortened {
            sock.set_read_timeout(Some(timeout))?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_to_run_without_targets() {
        let err = run(&LoadgenConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn percentiles_and_qps_handle_empty_and_full() {
        let mut r = LoadReport::default();
        assert_eq!(r.percentile_ns(0.5), None);
        assert_eq!(r.qps(), 0.0);
        for ns in [30, 10, 20] {
            r.latencies.record(SimDuration::from_nanos(ns));
        }
        r.received = 3;
        r.elapsed_ns = 1_500_000_000;
        assert_eq!(r.percentile_ns(0.0), Some(10));
        assert_eq!(r.percentile_ns(0.5), Some(20));
        assert_eq!(r.percentile_ns(1.0), Some(30));
        assert!((r.qps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quota_split_covers_every_query() {
        // 10 queries over 4 clients: 3+3+2+2.
        let total: u64 = 10;
        let clients: u64 = 4;
        let per = total / clients;
        let rem = total % clients;
        let sum: u64 = (0..clients).map(|i| per + u64::from(i < rem)).sum();
        assert_eq!(sum, total);
    }
}
