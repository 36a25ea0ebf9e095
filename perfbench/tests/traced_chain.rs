//! The traced chain answers exactly like the untraced one: the wrapper
//! forwards `on_query`, `on_response` and `on_upstream_event` unchanged.

use cdn_sim::ServeTopology;
use dns_server::plugins::{CachePlugin, ForwardPlugin};
use dns_server::ServeEngine;
use dns_wire::Rcode;
use perfbench::serve::{now_at, serve_datagram, Mix, Queries, HIT};
use perfbench::trace::{self, Layer, LayerCosts, SharedTracer, Traced, Tracer};
use std::net::IpAddr;

/// Serves `stream` through both engines, tracing every third query of
/// the traced one (whose wrappers share `tracer`), and requires
/// byte-identical answers.
fn assert_identical(
    plain: &mut ServeEngine,
    traced: &mut ServeEngine,
    tracer: &SharedTracer,
    queries: &Queries,
    stream: &[u32],
) -> Vec<Vec<u8>> {
    let mut buf = Vec::new();
    let mut answers = Vec::new();
    for (seq, &k) in stream.iter().enumerate() {
        let seq = seq as u64;
        let dgram = queries.datagram(k as usize, seq as u16, &mut buf).to_vec();
        let expected = serve_datagram(plain, now_at(seq), &dgram, None);
        let sampled = seq.is_multiple_of(3).then_some(tracer);
        if let Some(t) = sampled {
            t.borrow_mut().begin(seq);
        }
        let got = serve_datagram(traced, now_at(seq), &dgram, sampled);
        if let Some(t) = sampled {
            t.borrow_mut().end();
        }
        assert_eq!(got, expected, "query {seq} (name {k}) answered differently");
        answers.push(expected.expect("answered"));
    }
    assert!(
        !tracer.borrow().spans().is_empty(),
        "the wrappers recorded spans"
    );
    answers
}

fn check_mix(mix: &Mix, seed: u64) {
    let topo = mix.topology();
    let queries = Queries::encode(&topo, mix.names);
    let stream = mix.stream(seed, 3_000);
    let tracer = Tracer::shared(false);
    let mut plain = topo.engine();
    let mut traced = trace::traced_engine(&topo, &tracer);
    assert_identical(&mut plain, &mut traced, &tracer, &queries, &stream);
    // Repeated names hit the cache only if the wrapper passed each
    // response's `on_response` through to the cache plugin; identical
    // bytes then mean the traced engine hit exactly as often.
    let cache = plain.front_plugin::<CachePlugin>(0).unwrap();
    assert!(cache.hits() > 0 && cache.misses() > 0);
}

#[test]
fn traced_serve_hit_chain_answers_byte_identically() {
    check_mix(&HIT, 11);
}

#[test]
fn traced_chain_with_evictions_answers_byte_identically() {
    // A small cache under many names: inserts, evictions and misses.
    let churn = Mix {
        workload: "churn",
        names: 600,
        zipf_alpha: None,
        cache_capacity: 64,
        warm_names: 0,
        hit_band: (0.0, 1.0),
    };
    check_mix(&churn, 12);
}

#[test]
fn traced_forward_plugin_sees_upstream_events() {
    // The primary upstream answers nowhere: after two failures the
    // forward plugin's health tracker, fed by `on_upstream_event`, fails
    // over to the C-DNS. Without the event the third query would SERVFAIL.
    let topo = ServeTopology::default();
    let dead: IpAddr = "10.96.0.99".parse().unwrap();
    let forward = || Box::new(ForwardPlugin::new(dead).with_secondary(topo.cdns_addr));
    let tracer = Tracer::shared(false);
    let mut plain =
        ServeEngine::new(vec![forward()]).with_backend(topo.cdns_addr, topo.cdns_chain());
    let mut traced = ServeEngine::new(vec![Box::new(Traced::new(forward(), Layer::Stub, &tracer))])
        .with_backend(
            topo.cdns_addr,
            trace::wrap_chain(topo.cdns_chain(), &tracer),
        );
    let queries = Queries::encode(&topo, 4);
    let answers = assert_identical(&mut plain, &mut traced, &tracer, &queries, &[0, 1, 2, 3]);
    let rcode = |a: &Vec<u8>| Rcode::from_u8(a[3] & 0x0F);
    assert_eq!(rcode(&answers[0]), Rcode::ServFail);
    assert_eq!(rcode(&answers[1]), Rcode::ServFail);
    assert_eq!(rcode(&answers[2]), Rcode::NoError);
    assert_eq!(rcode(&answers[3]), Rcode::NoError);
}

#[test]
fn layer_costs_take_plugin_time_out_of_the_engine() {
    let tracer = Tracer::shared(true);
    let topo = HIT.topology();
    let queries = Queries::encode(&topo, 8);
    let mut engine = trace::traced_engine(&topo, &tracer);
    let mut buf = Vec::new();
    for seq in 0..16u64 {
        let dgram = queries
            .datagram((seq % 8) as usize, seq as u16, &mut buf)
            .to_vec();
        tracer.borrow_mut().begin(seq);
        let start = trace::open(Some(&tracer));
        assert!(serve_datagram(&mut engine, now_at(seq), &dgram, Some(&tracer)).is_some());
        trace::close(Some(&tracer), Layer::Query, start);
        tracer.borrow_mut().end();
    }
    let costs = LayerCosts::from_spans(tracer.borrow().spans());
    assert_eq!(costs.queries, 16);
    // Half the queries miss and go through the stub and the router.
    assert!(costs.stub.0 > 0.0 && costs.router.0 > 0.0 && costs.cache.0 > 0.0);
    assert!(
        costs.decode.1 > 0.0 && costs.encode.1 > 0.0,
        "allocations counted"
    );
    // The layers sit inside the query span; only rounding to whole ns
    // can push their sum past it.
    assert!(costs.total_ns() <= costs.query.0 + 8.0);
    assert!(costs.reconcile_pct() < 1.0);
}
