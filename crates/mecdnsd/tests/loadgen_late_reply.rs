//! One late reply costs the load generator one timeout: the client
//! drops the stale answer when it turns up and still matches every
//! later reply to its own query.

use dns_wire::Message;
use mecdnsd::{loadgen, LoadgenConfig};
use std::net::UdpSocket;

const QUERIES: u64 = 20;
const TIMEOUT_MS: u64 = 200;

#[test]
fn one_late_reply_costs_one_timeout() {
    let server = UdpSocket::bind("127.0.0.1:0").expect("server socket");
    let target = server.local_addr().expect("server address");
    let responder = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        let mut held = None;
        for n in 0..QUERIES {
            let (len, from) = server.recv_from(&mut buf).expect("query");
            let query = Message::decode(&buf[..len]).expect("query decodes");
            let reply = Message::response_to(&query).encode().expect("encodes");
            // The second reply is held back until the client, having
            // timed out, sends its third query; then both go out, the
            // late one first.
            if n == 1 {
                held = Some(reply);
                continue;
            }
            if let Some(late) = held.take() {
                server.send_to(&late, from).expect("late reply");
            }
            server.send_to(&reply, from).expect("reply");
        }
    });
    let report = loadgen::run(&LoadgenConfig {
        targets: vec![target],
        queries: QUERIES,
        clients: 1,
        timeout_ms: TIMEOUT_MS,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    responder.join().expect("responder");
    assert_eq!(report.sent, QUERIES);
    assert_eq!(
        (report.received, report.timeouts, report.mismatches),
        (QUERIES - 1, 1, 0),
        "{report:?}"
    );
    assert_eq!(report.latencies.count(), QUERIES - 1);
}
