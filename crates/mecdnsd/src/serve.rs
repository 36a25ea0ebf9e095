//! The serving loop: real UDP datagrams in, bounded responses out.
//!
//! One [`ServeConfig`] describes a fleet of shard threads. Two sharding
//! modes, because `std::net` has no portable `SO_REUSEPORT`:
//!
//! * **per-shard sockets** (default) — every shard binds its own
//!   socket; with `port = 0` each gets an ephemeral port and clients
//!   spread themselves across the advertised addresses, approximating
//!   reuseport's kernel-side spraying without any socket options.
//! * **shared socket** — one socket, `try_clone`d into every shard;
//!   the kernel wakes an arbitrary shard per datagram. One port, but
//!   contended.
//!
//! Each shard builds its own [`dns_server::ServeEngine`] from the
//! shared (plain-data) [`ServeTopology`] — engines hold `Rc` telemetry
//! and boxed plugins, so they never cross threads. Shards drain up to
//! [`BATCH`] datagrams per wakeup, decode, resolve and answer each, and
//! recycle their datagram buffers, so a warm shard allocates only what
//! message assembly itself needs. Every response leaves through
//! [`Message::encode_bounded`] against the client's advertised EDNS
//! payload budget — truncation sets the TC bit, never an overlong
//! datagram.
//!
//! A shard's telemetry is a default `netsim::Telemetry`: counters and
//! the fixed-memory [`LATENCY_METRIC`] histogram, no resolution traces.
//! Nothing it keeps grows with the number of queries served, so a
//! long-running daemon's memory stays flat.
//!
//! This file is on the resolution hot path (`hot-panic` / `hot-index`):
//! a hostile datagram must never panic a shard.

use crate::clock::WallClock;
use cdn_sim::ServeTopology;
use dns_server::{RcodeCounts, ServeEngine};
use dns_wire::{Message, Rcode, CLASSIC_UDP_PAYLOAD};
use netsim::{MetricsRegistry, Telemetry};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest UDP datagram we accept; a short buffer would silently
/// truncate hostile jumbo queries into plausible-looking short ones.
const RECV_BUF: usize = 65_535;

/// Datagrams drained per shard wakeup: after one blocking receive, the
/// shard opportunistically drains up to this many already-queued
/// datagrams before serving the batch.
const BATCH: usize = 16;

/// Blocking-receive bound, which is also how often a shard notices the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Histogram name for per-query serve latency (receive → send), one
/// observation per answered query in a `netsim::Histogram`: fixed
/// memory, quantiles within 1/64 of the exact value.
pub const LATENCY_METRIC: &str = "serve.latency";

/// Configuration for one serving fleet.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (loopback by default).
    pub bind: IpAddr,
    /// Base port. `0` gives every shard an ephemeral port; otherwise
    /// shard `i` binds `port + i` (or all share `port` in shared-socket
    /// mode).
    pub port: u16,
    /// Number of shard threads (clamped to at least 1).
    pub shards: usize,
    /// One kernel socket shared by all shards instead of per-shard
    /// sockets.
    pub shared_socket: bool,
    /// The world to serve.
    pub topology: ServeTopology,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: IpAddr::V4(Ipv4Addr::LOCALHOST),
            port: 0,
            shards: 1,
            shared_socket: false,
            topology: ServeTopology::default(),
        }
    }
}

/// Counters one shard accumulated; [`ServerHandle::stop`] merges all
/// shards into one.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Queries accepted into the engine.
    pub queries: u64,
    /// Responses put on the wire.
    pub responses: u64,
    /// Queries a plugin chose to ignore.
    pub ignored: u64,
    /// Datagrams that did not parse as DNS.
    pub decode_errors: u64,
    /// Responses that failed to encode even bounded (answered ServFail
    /// where possible).
    pub encode_errors: u64,
    /// Responses sent with the TC bit set.
    pub truncated: u64,
    /// Socket-level send/receive failures.
    pub io_errors: u64,
    /// Shard threads that died instead of reporting.
    pub crashed_shards: u64,
    /// Responses by rcode.
    pub rcodes: RcodeCounts,
    /// Merged telemetry (counters plus the [`LATENCY_METRIC`]
    /// histogram).
    pub metrics: MetricsRegistry,
}

impl ServeReport {
    /// Folds another shard's counters into this one.
    pub fn merge(&mut self, other: &ServeReport) {
        self.queries += other.queries;
        self.responses += other.responses;
        self.ignored += other.ignored;
        self.decode_errors += other.decode_errors;
        self.encode_errors += other.encode_errors;
        self.truncated += other.truncated;
        self.io_errors += other.io_errors;
        self.crashed_shards += other.crashed_shards;
        self.rcodes.merge(&other.rcodes);
        self.metrics.merge(&other.metrics);
    }

    /// The one-line summary behind `mecdnsd --stats`: throughput,
    /// latency percentiles (within 1/64 of the exact value) and the rcode
    /// mix.
    pub fn stats_line(&self, elapsed_ns: u64) -> String {
        let secs = elapsed_ns as f64 / 1e9;
        let qps = if secs > 0.0 {
            self.responses as f64 / secs
        } else {
            0.0
        };
        let p50 = self.latency_percentile_ns(0.50).unwrap_or(0);
        let p99 = self.latency_percentile_ns(0.99).unwrap_or(0);
        format!(
            "served {} queries in {:.2}s ({:.0} qps), latency p50 {:.1}us p99 {:.1}us, \
             rcodes noerror={} nxdomain={} servfail={} refused={} other={}, \
             decode_errors={} encode_errors={} truncated={} ignored={} io_errors={}",
            self.queries,
            secs,
            qps,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            self.rcodes.noerror,
            self.rcodes.nxdomain,
            self.rcodes.servfail,
            self.rcodes.refused,
            self.rcodes.other,
            self.decode_errors,
            self.encode_errors,
            self.truncated,
            self.ignored,
            self.io_errors,
        )
    }

    /// Serve-latency percentile in nanoseconds (receive → send), read
    /// from the [`LATENCY_METRIC`] histogram, so within 1/64 of the exact
    /// value; `None` until something was served. `p` in `[0, 1]`.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        let latency = self.metrics.histogram(LATENCY_METRIC).quantile(p)?;
        Some(latency.as_nanos())
    }
}

/// A running fleet: the addresses it listens on and the means to stop
/// it.
#[derive(Debug)]
pub struct ServerHandle {
    local_addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    clock: WallClock,
    shards: Vec<JoinHandle<ServeReport>>,
}

impl ServerHandle {
    /// The distinct addresses clients can target (one per shard in
    /// per-shard-socket mode, a single address in shared mode).
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.local_addrs
    }

    /// Nanoseconds this fleet has been serving.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }

    /// Raises the shutdown flag, joins every shard, and returns the
    /// merged report. Shards notice the flag within [`POLL`].
    pub fn stop(self) -> ServeReport {
        // Release pairs with the shards' Acquire loads: everything this
        // thread wrote before raising the flag (config swaps, cache
        // state) is visible to a shard by the time it sees `true` and
        // starts its drain-and-exit path.
        self.stop.store(true, Ordering::Release);
        let mut total = ServeReport::default();
        for shard in self.shards {
            match shard.join() {
                Ok(report) => total.merge(&report),
                Err(_) => total.crashed_shards += 1,
            }
        }
        total
    }
}

/// Binds the sockets and spawns the shard threads.
pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
    let shards = config.shards.max(1);
    let mut sockets = Vec::with_capacity(shards);
    if config.shared_socket {
        let sock = UdpSocket::bind((config.bind, config.port))?;
        sock.set_read_timeout(Some(POLL))?;
        for _ in 1..shards {
            sockets.push(sock.try_clone()?);
        }
        sockets.push(sock);
    } else {
        for i in 0..shards {
            let port = if config.port == 0 {
                0
            } else {
                config.port.saturating_add(i as u16)
            };
            let sock = UdpSocket::bind((config.bind, port))?;
            sock.set_read_timeout(Some(POLL))?;
            sockets.push(sock);
        }
    }
    let mut local_addrs = Vec::with_capacity(sockets.len());
    for sock in &sockets {
        let addr = sock.local_addr()?;
        if !local_addrs.contains(&addr) {
            local_addrs.push(addr);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let clock = WallClock::start();
    let mut handles = Vec::with_capacity(sockets.len());
    for sock in sockets {
        let topology = config.topology.clone();
        let stop_flag = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            shard_loop(sock, &topology, clock, &stop_flag)
        }));
    }
    Ok(ServerHandle {
        local_addrs,
        stop,
        clock,
        shards: handles,
    })
}

/// One shard: receive in batches, serve, repeat until told to stop.
fn shard_loop(
    sock: UdpSocket,
    topology: &ServeTopology,
    clock: WallClock,
    stop: &AtomicBool,
) -> ServeReport {
    let telemetry = Telemetry::default();
    let mut engine = topology.engine().with_telemetry(telemetry.clone());
    let mut report = ServeReport::default();
    let mut recv_buf = vec![0u8; RECV_BUF];
    // Slot buffers cycle between `batch` and `pool`, so a warm shard
    // reuses its datagram storage instead of allocating per packet.
    let mut batch: Vec<(Vec<u8>, SocketAddr)> = Vec::with_capacity(BATCH);
    let mut pool: Vec<Vec<u8>> = Vec::with_capacity(BATCH);
    // Raised when this shard's socket is beyond recovery; the shard
    // serves what it already drained and retires alone — the rest of
    // the fleet keeps serving.
    let mut retire = false;
    while !retire && !stop.load(Ordering::Acquire) {
        // First datagram: blocking, bounded by POLL so shutdown is
        // always noticed. Transient per-datagram failures — a Linux
        // ECONNREFUSED surfaced by an ICMP unreachable for an earlier
        // send, an EINTR — are counted and skipped, never fatal.
        match sock.recv_from(&mut recv_buf) {
            Ok((len, peer)) => stash(&recv_buf, len, peer, &mut batch, &mut pool),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => {
                report.io_errors += 1;
                continue;
            }
        }
        // Drain whatever else the kernel already queued, without
        // blocking, then restore the polling timeout. Transient errors
        // mid-drain are skipped and counted like on the blocking path,
        // with a bound so a persistently erroring socket cannot spin
        // the shard inside one wakeup.
        if sock.set_nonblocking(true).is_ok() {
            let mut skipped = 0;
            while batch.len() < BATCH {
                match sock.recv_from(&mut recv_buf) {
                    Ok((len, peer)) => stash(&recv_buf, len, peer, &mut batch, &mut pool),
                    Err(e) if is_timeout(&e) => break, // queue drained
                    Err(_) => {
                        report.io_errors += 1;
                        skipped += 1;
                        if skipped >= BATCH {
                            break;
                        }
                    }
                }
            }
            if sock.set_nonblocking(false).is_err() {
                // Cannot restore blocking mode: this shard's receive
                // loop would spin. Serve what we have, then retire this
                // shard without stopping the fleet.
                report.io_errors += 1;
                retire = true;
            }
        }
        for (dgram, peer) in batch.drain(..) {
            serve_one(
                &mut engine,
                &sock,
                &clock,
                &telemetry,
                &mut report,
                &dgram,
                peer,
            );
            pool.push(dgram);
        }
    }
    report.queries = engine.queries;
    report.ignored = engine.ignored;
    report.rcodes = engine.rcodes.clone();
    telemetry.with_metrics(|m| report.metrics.merge(m));
    report
}

/// Copies the received datagram into a recycled slot buffer.
fn stash(
    recv_buf: &[u8],
    len: usize,
    peer: SocketAddr,
    batch: &mut Vec<(Vec<u8>, SocketAddr)>,
    pool: &mut Vec<Vec<u8>>,
) {
    let mut slot = pool.pop().unwrap_or_default();
    slot.clear();
    if let Some(dgram) = recv_buf.get(..len) {
        slot.extend_from_slice(dgram);
    }
    batch.push((slot, peer));
}

/// Decode → resolve → bounded encode → send, for one datagram.
fn serve_one(
    engine: &mut ServeEngine,
    sock: &UdpSocket,
    clock: &WallClock,
    telemetry: &Telemetry,
    report: &mut ServeReport,
    dgram: &[u8],
    peer: SocketAddr,
) {
    let t0 = clock.now();
    let query = match Message::decode(dgram) {
        Ok(q) => q,
        Err(_) => {
            report.decode_errors += 1;
            return;
        }
    };
    let Some(response) = engine.resolve(t0, peer.ip(), peer.port(), &query) else {
        return;
    };
    let budget = payload_budget(&query);
    let bytes = match response.encode_bounded(budget) {
        Ok(bytes) => bytes,
        Err(_) => {
            // A response we cannot fit even after dropping every record
            // (pathological qname). Fail the query rather than going
            // silent; if even ServFail will not fit, drop it.
            report.encode_errors += 1;
            let servfail = Message::response_to(&query).with_rcode(Rcode::ServFail);
            match servfail.encode_bounded(budget) {
                Ok(bytes) => bytes,
                Err(_) => return,
            }
        }
    };
    if tc_bit_set(&bytes) {
        report.truncated += 1;
    }
    match sock.send_to(&bytes, peer) {
        Ok(_) => report.responses += 1,
        Err(_) => report.io_errors += 1,
    }
    let served_in = clock.now() - t0;
    telemetry.observe(LATENCY_METRIC, served_in);
}

/// The largest response datagram this client can take: its advertised
/// EDNS payload size (never below the classic 512), or 512 when it
/// advertised nothing.
fn payload_budget(query: &Message) -> usize {
    query
        .edns
        .as_ref()
        .map(|opt| usize::from(opt.udp_payload_size).max(CLASSIC_UDP_PAYLOAD))
        .unwrap_or(CLASSIC_UDP_PAYLOAD)
}

/// True when the encoded message has the TC bit set (byte 2, bit 1).
fn tc_bit_set(bytes: &[u8]) -> bool {
    bytes.get(2).is_some_and(|b| b & 0x02 != 0)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Opt, RrType};

    fn client() -> UdpSocket {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock
    }

    fn ask(sock: &UdpSocket, target: SocketAddr, id: u16, name: dns_wire::Name) -> Message {
        let mut q = Message::query(id, name, RrType::A);
        q.edns = Some(Opt::default());
        sock.send_to(&q.encode().unwrap(), target).unwrap();
        let mut buf = [0u8; RECV_BUF];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        Message::decode(&buf[..len]).unwrap()
    }

    #[test]
    fn idle_fleet_stops_clean() {
        let handle = spawn(ServeConfig::default()).unwrap();
        assert_eq!(handle.local_addrs().len(), 1);
        let report = handle.stop();
        assert_eq!(report.queries, 0);
        assert_eq!(report.crashed_shards, 0);
    }

    #[test]
    fn serves_a_content_query_over_loopback() {
        let config = ServeConfig::default();
        let topo = config.topology.clone();
        let handle = spawn(config).unwrap();
        let target = handle.local_addrs()[0];
        let sock = client();
        let resp = ask(&sock, target, 42, topo.content_name(5));
        assert_eq!(resp.header.id, 42);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(topo.caches.contains(&resp.answer_a_addrs()[0]));
        let report = handle.stop();
        assert_eq!(report.queries, 1);
        assert_eq!(report.responses, 1);
        assert_eq!(report.rcodes.noerror, 1);
        assert_eq!(report.decode_errors, 0);
        assert!(report.latency_percentile_ns(0.5).unwrap() > 0);
    }

    #[test]
    fn garbage_datagrams_are_counted_not_fatal() {
        let config = ServeConfig::default();
        let topo = config.topology.clone();
        let handle = spawn(config).unwrap();
        let target = handle.local_addrs()[0];
        let sock = client();
        sock.send_to(&[0xFF; 7], target).unwrap();
        // A valid query after the garbage proves the shard survived;
        // same socket, same shard, so ordering holds.
        let resp = ask(&sock, target, 1, topo.content_name(0));
        assert_eq!(resp.header.rcode, Rcode::NoError);
        let report = handle.stop();
        assert_eq!(report.decode_errors, 1);
        assert_eq!(report.responses, 1);
        assert_eq!(report.crashed_shards, 0);
    }

    #[test]
    fn per_shard_sockets_get_distinct_ports() {
        let handle = spawn(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        assert_eq!(handle.local_addrs().len(), 3);
        let topo = ServeTopology::default();
        let sock = client();
        for (i, &target) in handle.local_addrs().to_vec().iter().enumerate() {
            let resp = ask(&sock, target, i as u16, topo.content_name(i));
            assert_eq!(resp.header.rcode, Rcode::NoError);
        }
        let report = handle.stop();
        assert_eq!(report.responses, 3);
    }

    #[test]
    fn shared_socket_mode_serves_on_one_port() {
        let handle = spawn(ServeConfig {
            shards: 2,
            shared_socket: true,
            ..ServeConfig::default()
        })
        .unwrap();
        assert_eq!(handle.local_addrs().len(), 1, "one shared address");
        let topo = ServeTopology::default();
        let target = handle.local_addrs()[0];
        let sock = client();
        for id in 0..4u16 {
            let resp = ask(&sock, target, id, topo.content_name(usize::from(id)));
            assert_eq!(resp.header.id, id);
        }
        let report = handle.stop();
        assert_eq!(report.responses, 4);
        assert_eq!(report.crashed_shards, 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connected_udp_icmp_refusal_is_counted_not_fatal() {
        // Linux reports an async ICMP port-unreachable as ECONNREFUSED
        // on the next receive of a *connected* UDP socket. Drive the
        // real shard loop over such a socket: the error must be skipped
        // and counted, and must never raise the fleet-wide stop flag or
        // kill the shard.
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dead = {
            // Bind-then-drop: a port with provably nobody listening.
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.local_addr().unwrap()
        };
        sock.connect(dead).unwrap();
        sock.send(&[0u8; 12]).unwrap();
        // Let the ICMP land before the loop's first receive.
        std::thread::sleep(Duration::from_millis(50));
        sock.set_read_timeout(Some(POLL)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let shard_stop = Arc::clone(&stop);
        let topo = ServeTopology::default();
        let shard =
            std::thread::spawn(move || shard_loop(sock, &topo, WallClock::start(), &shard_stop));
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !stop.load(Ordering::Relaxed),
            "a transient socket error must not stop the fleet"
        );
        stop.store(true, Ordering::Relaxed);
        let report = shard.join().expect("shard survived the refused receive");
        assert!(report.io_errors >= 1, "the refused receive was counted");
        assert_eq!(report.queries, 0);
        assert_eq!(report.crashed_shards, 0);
    }

    #[test]
    fn response_respects_a_small_advertised_payload() {
        // An EDNS size below 512 is clamped up to the classic floor,
        // and a single-answer response fits either way: no TC.
        let config = ServeConfig::default();
        let topo = config.topology.clone();
        let handle = spawn(config).unwrap();
        let target = handle.local_addrs()[0];
        let sock = client();
        let mut q = Message::query(9, topo.content_name(2), RrType::A);
        q.edns = Some(Opt {
            udp_payload_size: 128,
            ..Opt::default()
        });
        sock.send_to(&q.encode().unwrap(), target).unwrap();
        let mut buf = [0u8; RECV_BUF];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        assert!(len <= CLASSIC_UDP_PAYLOAD);
        let resp = Message::decode(&buf[..len]).unwrap();
        assert!(!resp.header.truncated);
        let report = handle.stop();
        assert_eq!(report.truncated, 0);
    }
}
