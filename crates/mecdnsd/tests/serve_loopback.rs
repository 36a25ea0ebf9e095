//! End-to-end: the sharded UDP fleet under the closed-loop load
//! generator, over loopback.

use cdn_sim::ServeTopology;
use mecdnsd::{loadgen, serve, LoadgenConfig, ServeConfig};

fn drive(shards: usize, shared_socket: bool, queries: u64) {
    let handle = serve::spawn(ServeConfig {
        shards,
        shared_socket,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let load = LoadgenConfig {
        targets: handle.local_addrs().to_vec(),
        queries,
        clients: 4,
        names: 64,
        ..LoadgenConfig::default()
    };
    let client = loadgen::run(&load).expect("loadgen run");
    let elapsed_ns = handle.elapsed_ns();
    let server = handle.stop();

    assert_eq!(client.sent, queries, "closed loop must issue its quota");
    assert_eq!(client.decode_errors, 0, "every response must parse");
    assert_eq!(client.mismatches, 0, "ids must round-trip");
    assert_eq!(
        client.received + client.timeouts,
        client.sent,
        "every query resolves to a response or a timeout"
    );
    assert!(
        client.received > queries / 2,
        "loopback should answer most queries (got {}/{queries})",
        client.received
    );
    assert!(client.qps() > 0.0);

    assert_eq!(server.decode_errors, 0);
    assert_eq!(server.crashed_shards, 0);
    assert_eq!(server.queries, queries, "server must accept every query");
    assert_eq!(server.rcodes.total(), server.queries);
    assert_eq!(
        server.rcodes.noerror, server.queries,
        "hosted-content queries all resolve"
    );
    assert_eq!(
        server.truncated, 0,
        "single-answer responses never truncate"
    );
    assert!(server.latency_percentile_ns(0.99).unwrap() > 0);
    assert!(!server.stats_line(elapsed_ns).is_empty());
}

#[test]
fn per_shard_socket_fleet_serves_a_zipf_load() {
    drive(2, false, 2_000);
}

#[test]
fn shared_socket_fleet_serves_a_zipf_load() {
    drive(2, true, 2_000);
}

#[test]
fn loadgen_streams_are_deterministic_in_content() {
    // Two runs with the same seed must issue the same query mix: the
    // server-side cache behaviour (first-query miss per distinct name)
    // pins that down without needing a packet tap.
    let topo = ServeTopology::default();
    for _ in 0..2 {
        let handle = serve::spawn(ServeConfig {
            topology: topo.clone(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let load = LoadgenConfig {
            targets: handle.local_addrs().to_vec(),
            queries: 400,
            clients: 1,
            names: 32,
            seed: 11,
            ..LoadgenConfig::default()
        };
        let client = loadgen::run(&load).expect("run");
        let server = handle.stop();
        assert_eq!(client.sent, 400);
        // Misses = distinct names the single client actually drew; with
        // a fixed seed this is a fixed number ≤ 32, and every other
        // query is a cache hit.
        let misses = server.metrics.counter("dns.cache.miss");
        assert!(misses <= 32, "at most one miss per name, got {misses}");
        assert_eq!(
            server.metrics.counter("dns.cache.hit") + misses,
            server.queries
        );
    }
}
