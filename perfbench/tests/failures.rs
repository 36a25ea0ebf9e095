//! Failure accounting: what counts as a failed operation, and how a
//! failure reaches the result line and the exit code.

use dns_server::ServeEngine;
use dns_wire::{Message, RData, Rcode, Record, RrClass, RrType};
use perfbench::metrics::{result_line, Round, RunReport};
use perfbench::serve::{self, run_round, Scratch, World, HIT, ROUND_QUERIES};
use std::net::Ipv4Addr;

/// A correct answer to name `k` of the serve-hit topology, encoded.
fn answer(k: usize, id: u16) -> (Message, Vec<u8>) {
    let topo = HIT.topology();
    let query = Message::query(id, topo.content_name(k), RrType::A);
    let mut resp = Message::response_to(&query);
    resp.answers.push(Record::new(
        topo.content_name(k),
        RrClass::In,
        30,
        RData::A(topo.caches[0]),
    ));
    let bytes = resp.encode().unwrap();
    (resp, bytes)
}

#[test]
fn header_check_rejects_every_failure_kind() {
    let (_, good) = answer(3, 77);
    assert!(serve::header_ok(&good, 77));
    assert!(!serve::header_ok(&good, 78), "id mismatch");
    assert!(!serve::header_ok(&good[..11], 77), "short datagram");
    let mut tc = good.clone();
    tc[2] |= 0x02;
    assert!(!serve::header_ok(&tc, 77), "TC bit");
    let mut servfail = good.clone();
    servfail[3] |= 0x02;
    assert!(!serve::header_ok(&servfail, 77), "non-NOERROR rcode");
    let mut query = good.clone();
    query[2] &= !0x80;
    assert!(!serve::header_ok(&query, 77), "QR bit clear");
    let mut empty = good;
    empty[6] = 0;
    empty[7] = 0;
    assert!(!serve::header_ok(&empty, 77), "no answer records");
}

#[test]
fn full_check_wants_the_name_and_a_topology_cache() {
    let topo = HIT.topology();
    let (mut resp, good) = answer(3, 9);
    assert!(serve::answer_ok(&good, 9, &topo.content_name(3), &topo));
    assert!(
        !serve::answer_ok(&good, 9, &topo.content_name(4), &topo),
        "wrong name"
    );
    resp.answers[0].rdata = RData::A(Ipv4Addr::new(192, 0, 2, 1));
    let foreign = resp.encode().unwrap();
    assert!(
        !serve::answer_ok(&foreign, 9, &topo.content_name(3), &topo),
        "not a cache"
    );
    let refused = Message::response_to(&resp)
        .with_rcode(Rcode::Refused)
        .encode()
        .unwrap();
    assert!(!serve::answer_ok(&refused, 9, &topo.content_name(3), &topo));
}

#[test]
fn a_chain_that_refuses_fails_every_query_of_the_round() {
    let mut world = World::build(&HIT, 5);
    // No plugins: the engine answers REFUSED off the end of the chain.
    let mut engine = ServeEngine::new(Vec::new());
    let round = run_round(&mut engine, &mut world, &mut Scratch::default(), None);
    assert_eq!(round.ops, ROUND_QUERIES as u64);
    assert_eq!(round.failed, round.ops);
}

#[test]
fn the_real_chain_fails_nothing() {
    let mut world = World::build(&HIT, 5);
    let mut engine = HIT.topology().engine();
    assert_eq!(world.warm(&HIT, &mut engine), 0);
    let round = run_round(&mut engine, &mut world, &mut Scratch::default(), None);
    assert_eq!(round.failed, 0);
    assert!(round.p50_ns > 0.0 && round.p99_ns >= round.p50_ns);
}

#[test]
fn a_failure_or_a_violation_makes_the_run_incorrect() {
    let ok = Round {
        ops: 10,
        failed: 0,
        wall_ns: 1e6,
        p50_ns: 1e3,
        p99_ns: 2e3,
        reference_ns: 1e6,
    };
    let mut report = RunReport::default();
    report.count(&[ok]);
    assert!(report.correct());
    report.check(false, || "hit ratio out of band".into());
    assert!(!report.correct());

    let mut report = RunReport::default();
    report.count(&[Round { failed: 3, ..ok }]);
    assert!(!report.correct());
    let line = result_line(&report, false);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3, \"metrics\": {")
    );

    let empty = RunReport::default();
    assert!(
        !empty.correct(),
        "a run that attempted nothing is not correct"
    );
}
