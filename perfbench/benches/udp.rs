//! `serve-udp`: mecdnsd's socket loop over loopback.
//!
//! One shard from `mecdnsd::serve::spawn`, and one client thread on one
//! socket sending the `serve-hit` mix in a closed loop with one query
//! outstanding, both pinned to one CPU ([`crate::run`] pins the process).
//! Unpinned, a round trip took about 11 µs when the scheduler woke the
//! shard on the client's CPU and about 22 µs when it woke it on the
//! other, and rounds switched between the two. The kernel dominates a
//! round trip, so this workload guards the transport (receive, batch
//! drain, send) rather than engine work.
//!
//! Each round spawns a fresh server (its engine keeps memory per query),
//! sends discarded warm-up queries that fill the cache and warm the
//! socket path, then times a fixed number of queries. Setup is the spawn
//! and the input encoding only: no traffic.

use crate::metrics::{self, Round, RunReport, Setup};
use crate::procfs;
use crate::reference::time_reference;
use crate::serve::{self, Queries, HIT, REFERENCE_SAMPLES};
use crate::stats;
use mecdnsd::serve::{spawn, ServeConfig};
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Queries per timed round.
pub const ROUND_QUERIES: usize = 20_000;
/// Discarded warm-up queries before each round.
const WARM_QUERIES: usize = 2_000;
/// A query unanswered this long counts as failed.
const TIMEOUT: Duration = Duration::from_secs(1);
/// One query in this many is decoded in full and checked, after its round.
const FULL_CHECK_EVERY: u64 = 512;

/// The client: one connected socket and its buffers.
struct Client {
    sock: UdpSocket,
    send: Vec<u8>,
    recv: Vec<u8>,
    latencies: Vec<f64>,
    /// `(name, id, answer)` of the queries picked for a full check.
    full: Vec<(u32, u16, Vec<u8>)>,
    /// Time spent in `send`, and waiting in `recv`, over timed queries.
    send_ns: f64,
    wait_ns: f64,
}

/// One round's world: a running server and a connected client.
struct Session {
    server: mecdnsd::ServerHandle,
    shard_tid: Option<u32>,
    client: Client,
    queries: Queries,
    stream: Vec<u32>,
    seq: u64,
}

impl Session {
    fn start(seed: u64) -> io::Result<Session> {
        let topo = HIT.topology();
        let queries = Queries::encode(&topo, HIT.names);
        let stream = HIT.stream(seed, WARM_QUERIES + ROUND_QUERIES);
        let threads_before = procfs::thread_ids();
        let server = spawn(ServeConfig {
            topology: topo,
            ..ServeConfig::default()
        })?;
        let shard_tid = procfs::thread_ids()
            .into_iter()
            .find(|t| !threads_before.contains(t));
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(server.local_addrs()[0])?;
        sock.set_read_timeout(Some(TIMEOUT))?;
        Ok(Session {
            server,
            shard_tid,
            client: Client {
                sock,
                send: Vec::with_capacity(512),
                recv: vec![0; 65_535],
                latencies: Vec::with_capacity(ROUND_QUERIES),
                full: Vec::new(),
                send_ns: 0.0,
                wait_ns: 0.0,
            },
            queries,
            stream,
            seq: 0,
        })
    }

    /// Sends stream entries `from..from + len` one at a time, each after
    /// the previous answer, pausing [`REFERENCE_SAMPLES`] times to sample
    /// the reference loop outside the round's clock.
    fn round(&mut self, from: usize, len: usize) -> Round {
        let c = &mut self.client;
        c.latencies.clear();
        let mut failed = 0;
        let mut references = Vec::with_capacity(REFERENCE_SAMPLES);
        let every = (len / REFERENCE_SAMPLES).max(1);
        let mut wall_ns = 0.0;
        let mut start = Instant::now();
        let mut last = start;
        for (i, &k) in self.stream[from..from + len].iter().enumerate() {
            if i > 0 && i % every == 0 {
                wall_ns += (last - start).as_nanos() as f64;
                references.push(time_reference());
                start = Instant::now();
            }
            let seq = self.seq;
            self.seq += 1;
            let id = seq as u16;
            let dgram = self.queries.datagram(k as usize, id, &mut c.send);
            let t0 = Instant::now();
            let sent = c.sock.send(dgram).is_ok();
            let t1 = Instant::now();
            let answer = if sent {
                c.sock.recv(&mut c.recv).ok()
            } else {
                None
            };
            let t2 = Instant::now();
            match answer.and_then(|n| c.recv.get(..n)) {
                Some(a) if serve::header_ok(a, id) => {
                    if seq.is_multiple_of(FULL_CHECK_EVERY) {
                        c.full.push((k, id, a.to_vec()));
                    }
                }
                _ => failed += 1,
            }
            c.latencies.push((t2 - t0).as_nanos() as f64);
            c.send_ns += (t1 - t0).as_nanos() as f64;
            c.wait_ns += (t2 - t1).as_nanos() as f64;
            last = t2;
        }
        wall_ns += (last - start).as_nanos() as f64;
        references.push(time_reference());
        stats::sort(&mut c.latencies);
        Round {
            ops: len as u64,
            failed,
            wall_ns,
            p50_ns: stats::quantile_sorted(&c.latencies, 0.50),
            p99_ns: stats::quantile_sorted(&c.latencies, 0.99),
            reference_ns: stats::median(&references),
        }
    }

    /// The discarded warm-up queries, then the timed round. Returns the
    /// round and the shard thread's CPU time over it, in ns.
    fn run(&mut self, report: &mut RunReport) -> (Round, Option<u64>) {
        let warm = self.round(0, WARM_QUERIES);
        report.check(warm.failed == 0, || {
            format!("{} warm-up queries failed", warm.failed)
        });
        self.client.send_ns = 0.0;
        self.client.wait_ns = 0.0;
        let cpu_before = self.shard_tid.and_then(procfs::thread_cpu_ns);
        let round = self.round(WARM_QUERIES, ROUND_QUERIES);
        let cpu_after = self.shard_tid.and_then(procfs::thread_cpu_ns);
        let topo = HIT.topology();
        for (k, id, answer) in self.client.full.drain(..) {
            let name = topo.content_name(k as usize);
            report.check(serve::answer_ok(&answer, id, &name, &topo), || {
                format!("answer for {name} (id {id}) failed the full check")
            });
        }
        (round, cpu_before.zip(cpu_after).map(|(a, b)| b - a))
    }

    /// Stops the server and checks its own counters.
    fn stop(self, report: &mut RunReport) -> mecdnsd::ServeReport {
        let served = self.server.stop();
        report.check(
            served.decode_errors == 0
                && served.encode_errors == 0
                && served.truncated == 0
                && served.io_errors == 0
                && served.crashed_shards == 0
                && served.rcodes.noerror == served.queries
                && served.responses == served.queries
                && served.queries == self.seq,
            || {
                format!(
                    "server counters: {} queries of {} sent, {} responses, {} NOERROR, \
                     {} decode / {} encode / {} io errors, {} truncated, {} crashed shards",
                    served.queries,
                    self.seq,
                    served.responses,
                    served.rcodes.noerror,
                    served.decode_errors,
                    served.encode_errors,
                    served.io_errors,
                    served.truncated,
                    served.crashed_shards
                )
            },
        );
        served
    }
}

/// Starts a round's server and client, timing the setup.
fn start(seed: u64, report: &mut RunReport) -> Option<(Session, Setup)> {
    let t = Instant::now();
    match Session::start(seed) {
        Ok(session) => {
            let wall_ns = t.elapsed().as_nanos() as f64;
            let setup = Setup {
                wall_ns,
                reference_ns: time_reference(),
            };
            Some((session, setup))
        }
        Err(e) => {
            report
                .violations
                .push(format!("cannot start the server: {e}"));
            None
        }
    }
}

/// The end-to-end run: rounds until `seconds` have passed.
pub fn run(seed: u64, seconds: u64) -> RunReport {
    let mut report = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    while let Some((mut session, setup)) = start(seed, &mut report) {
        setups.push(setup);
        rounds.push(session.run(&mut report).0);
        session.stop(&mut report);
        if Instant::now() >= deadline {
            break;
        }
    }
    report.count(&rounds);
    report.figures = metrics::end_to_end(&rounds, &setups);
    report.notes.push(metrics::round_summary(&rounds));
    report.notes.push(format!(
        "serve-udp: {} rounds of {ROUND_QUERIES} queries",
        rounds.len()
    ));
    report
}

/// The traced run: shard CPU per query, the server's own latency, the
/// client's time in `send` and waiting in `recv`, and what is left of a
/// round trip for the kernel.
pub fn run_traced(seed: u64, seconds: u64) -> RunReport {
    let mut report = RunReport::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = Vec::new();
    let (mut cpu_ns, mut cpu_queries) = (0u64, 0u64);
    let (mut send_ns, mut wait_ns) = (0.0, 0.0);
    let mut serve_p50_us = Vec::new();
    while let Some((mut session, _)) = start(seed, &mut report) {
        let (round, cpu) = session.run(&mut report);
        if let Some(cpu) = cpu {
            cpu_ns += cpu;
            cpu_queries += ROUND_QUERIES as u64;
        }
        send_ns += session.client.send_ns;
        wait_ns += session.client.wait_ns;
        rounds.push(round);
        let served = session.stop(&mut report);
        if let Some(ns) = served.latency_percentile_ns(0.5) {
            serve_p50_us.push(ns as f64 / 1e3);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    report.count(&rounds);
    report.check(cpu_queries > 0, || {
        "shard thread CPU time unreadable".into()
    });
    let queries = report.attempted.max(1) as f64;
    let rtt_p50: Vec<f64> = rounds.iter().map(|r| r.p50_ns / 1e3).collect();
    let rtt_p99: Vec<f64> = rounds.iter().map(|r| r.p99_ns / 1e3).collect();
    let serve_p50 = stats::median(&serve_p50_us);
    for (name, value) in [
        (
            "mecdnsd.shard_cpu_us",
            cpu_ns as f64 / cpu_queries.max(1) as f64 / 1e3,
        ),
        ("mecdnsd.serve_p50_us", serve_p50),
        ("loopback.kernel_us", stats::median(&rtt_p50) - serve_p50),
        ("loopback.rtt_p99_us", stats::median(&rtt_p99)),
        ("loadgen.send_us", send_ns / queries / 1e3),
        ("loadgen.recv_wait_us", wait_ns / queries / 1e3),
    ] {
        report.layer(name, value);
    }
    report
}
