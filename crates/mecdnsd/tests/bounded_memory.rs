//! A long-running shard keeps its memory flat: nothing it records grows
//! with the number of queries it has served.
//!
//! The only test in this binary, so no other test shares the process
//! whose resident set it reads, from Linux's `/proc/self/status`.
#![cfg(target_os = "linux")]

use dns_wire::{Message, Opt, RrType};
use mecdnsd::{serve, ServeConfig};
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

const WARM_UP: usize = 20_000;
const MEASURED: usize = 100_000;
const MAX_GROWTH_KB: u64 = 2 * 1024;

/// This process's resident set, in kB.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// Sends `count` queries one at a time and waits for each answer,
/// keeping nothing from them.
fn drive(sock: &UdpSocket, target: SocketAddr, queries: &[Vec<u8>], count: usize) {
    let mut buf = [0u8; 1500];
    for query in queries.iter().cycle().take(count) {
        sock.send_to(query, target).expect("send query");
        let (len, _) = sock.recv_from(&mut buf).expect("shard answers");
        assert!(len >= 12, "a DNS header at least");
    }
}

#[test]
fn a_shard_serving_100k_queries_keeps_its_memory_flat() {
    let config = ServeConfig::default();
    let topo = config.topology.clone();
    let handle = serve::spawn(config).expect("bind loopback");
    let target = handle.local_addrs()[0];
    let queries: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let mut q = Message::query(i as u16, topo.content_name(i), RrType::A);
            q.edns = Some(Opt::default());
            q.encode().expect("query encodes")
        })
        .collect();
    let sock = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");

    drive(&sock, target, &queries, WARM_UP);
    let before = vm_rss_kb();
    drive(&sock, target, &queries, MEASURED);
    let after = vm_rss_kb();

    let growth = after.saturating_sub(before);
    assert!(
        growth < MAX_GROWTH_KB,
        "RSS grew {growth} kB ({before} -> {after}) over {MEASURED} queries"
    );
    let report = handle.stop();
    assert_eq!(report.queries, (WARM_UP + MEASURED) as u64);
    assert!(report.latency_percentile_ns(0.5).is_some());
}
