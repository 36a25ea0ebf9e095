//! The committed seed corpus: real encoded messages the mutation
//! engines start from.
//!
//! Seeds are built programmatically from `dns-wire`'s own builders —
//! the messages the MEC-CDN experiments actually exchange (ECS-tagged
//! queries, CNAME-chain responses, delegations with glue, SOA
//! negatives, TXT/SRV/MX service records) — and committed as binary
//! fixtures under `corpus/seeds/`. The `committed_corpus_matches_builders`
//! test keeps the two in lock-step; regenerate the files with
//! `cargo run -p dns-fuzz --bin fuzz_wire -- --write-seeds` after
//! changing [`build_seeds`].

use dns_wire::{
    ClientSubnet, EdnsOption, Message, Name, Opt, Question, RData, Rcode, Record, RrClass, RrType,
};
use std::net::Ipv4Addr;

/// The committed seed bytes, embedded at compile time.
pub const COMMITTED: [&[u8]; 10] = [
    include_bytes!("../corpus/seeds/seed-00.bin"),
    include_bytes!("../corpus/seeds/seed-01.bin"),
    include_bytes!("../corpus/seeds/seed-02.bin"),
    include_bytes!("../corpus/seeds/seed-03.bin"),
    include_bytes!("../corpus/seeds/seed-04.bin"),
    include_bytes!("../corpus/seeds/seed-05.bin"),
    include_bytes!("../corpus/seeds/seed-06.bin"),
    include_bytes!("../corpus/seeds/seed-07.bin"),
    include_bytes!("../corpus/seeds/seed-08.bin"),
    include_bytes!("../corpus/seeds/seed-09.bin"),
];

/// The seed corpus as owned buffers, ready for the mutation engines.
pub fn seeds() -> Vec<Vec<u8>> {
    COMMITTED.iter().map(|s| s.to_vec()).collect()
}

fn n(s: &str) -> Name {
    Name::parse(s).expect("static corpus name parses")
}

/// Builds the seed messages from `dns-wire`'s builders. The source of
/// truth the committed `corpus/seeds/*.bin` files are generated from.
pub fn build_seeds() -> Vec<Vec<u8>> {
    let zone = n("mycdn.ciab.test");
    let mut out = Vec::new();
    let mut push = |m: &Message| {
        out.push(m.encode().expect("corpus seed encodes"));
    };

    // 0: plain recursive A query — the most common packet on the path.
    let mut m = Message::query(0x1001, n("video.demo1.mycdn.ciab.test"), RrType::A);
    m.header.recursion_desired = true;
    push(&m);

    // 1: A query carrying an ECS v4 /24 — the paper's §4 experiment.
    let m = Message::query(0x1002, n("img.demo2.mycdn.ciab.test"), RrType::A)
        .with_client_subnet(ClientSubnet::query("10.45.7.99".parse().unwrap(), 24));
    push(&m);

    // 2: AAAA query with ECS v6 /48, DO bit and a big payload size.
    let mut m = Message::query(0x1003, n("api.demo1.mycdn.ciab.test"), RrType::Aaaa)
        .with_client_subnet(ClientSubnet::query("2001:db8:abcd::1".parse().unwrap(), 48));
    if let Some(opt) = m.edns.as_mut() {
        opt.udp_payload_size = 4096;
        opt.dnssec_ok = true;
    }
    push(&m);

    // 3: CNAME chain + A answers sharing a suffix — exercises the
    // compression map and pointer decode.
    let mut m = Message::query(0x1004, zone.child("video").unwrap(), RrType::A);
    m.header.is_response = true;
    m.header.authoritative = true;
    m.answers.push(Record::new(
        zone.child("video").unwrap(),
        RrClass::In,
        30,
        RData::Cname(zone.child("cache-1").unwrap()),
    ));
    m.answers.push(Record::new(
        zone.child("cache-1").unwrap(),
        RrClass::In,
        30,
        RData::A(Ipv4Addr::new(10, 96, 0, 10)),
    ));
    push(&m);

    // 4: NXDOMAIN with SOA in authority — the negative-caching shape.
    let mut m =
        Message::query(0x1005, zone.child("nope").unwrap(), RrType::A).with_rcode(Rcode::NxDomain);
    m.header.is_response = true;
    m.authorities.push(Record::new(
        zone.clone(),
        RrClass::In,
        30,
        RData::Soa {
            mname: zone.child("ns1").unwrap(),
            rname: zone.child("hostmaster").unwrap(),
            serial: 2020110401,
            refresh: 7200,
            retry: 900,
            expire: 1209600,
            minimum: 30,
        },
    ));
    push(&m);

    // 5: delegation: NS in authority plus glue A in additionals.
    let mut m = Message::query(0x1006, zone.child("deleg").unwrap(), RrType::A);
    m.header.is_response = true;
    m.authorities.push(Record::new(
        zone.clone(),
        RrClass::In,
        3600,
        RData::Ns(zone.child("ns1").unwrap()),
    ));
    m.additionals.push(Record::new(
        zone.child("ns1").unwrap(),
        RrClass::In,
        3600,
        RData::A(Ipv4Addr::new(10, 96, 0, 2)),
    ));
    push(&m);

    // 6: TXT answer with several character-strings, one non-ASCII.
    let mut m = Message::query(0x1007, zone.child("meta").unwrap(), RrType::Txt);
    m.header.is_response = true;
    m.answers.push(Record::new(
        zone.child("meta").unwrap(),
        RrClass::In,
        60,
        RData::Txt(vec![
            b"v=mec1".to_vec(),
            b"site=edge-7".to_vec(),
            vec![0xC3, 0xA9, 0x00, 0xFF],
        ]),
    ));
    push(&m);

    // 7: SRV and MX answers — the remaining name-bearing rdata types.
    let mut m = Message::query(0x1008, n("_dns._udp.mycdn.ciab.test"), RrType::Srv);
    m.header.is_response = true;
    m.answers.push(Record::new(
        n("_dns._udp.mycdn.ciab.test"),
        RrClass::In,
        60,
        RData::Srv {
            priority: 1,
            weight: 50,
            port: 53,
            target: zone.child("ldns").unwrap(),
        },
    ));
    m.additionals.push(Record::new(
        zone.clone(),
        RrClass::In,
        3600,
        RData::Mx {
            preference: 10,
            exchange: zone.child("mail").unwrap(),
        },
    ));
    push(&m);

    // 8: unusual but legal multi-question message.
    let mut m = Message::query(0x1009, n("a.ciab.test"), RrType::A);
    m.questions
        .push(Question::new(n("b.ciab.test"), RrType::Aaaa));
    push(&m);

    // 9: opaque payloads: unknown rrtype rdata + unmodeled EDNS option.
    let mut m = Message::query(0x100A, zone.child("opaque").unwrap(), RrType::Other(4711));
    m.header.is_response = true;
    m.answers.push(Record::new(
        zone.child("opaque").unwrap(),
        RrClass::In,
        60,
        RData::Unknown {
            rrtype: 4711,
            data: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00],
        },
    ));
    m.edns = Some(Opt {
        options: vec![EdnsOption::Other {
            code: 15,
            data: vec![0, 18],
        }],
        ..Opt::default()
    });
    push(&m);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_corpus_matches_builders() {
        let built = build_seeds();
        assert_eq!(built.len(), COMMITTED.len(), "seed count drifted");
        for (i, (b, c)) in built.iter().zip(COMMITTED.iter()).enumerate() {
            assert_eq!(
                b.as_slice(),
                *c,
                "seed-{i:02}.bin is stale; regenerate with \
                 `cargo run -p dns-fuzz --bin fuzz_wire -- --write-seeds`"
            );
        }
    }

    #[test]
    fn every_seed_decodes_and_roundtrips() {
        for (i, s) in seeds().iter().enumerate() {
            let m = Message::decode(s).unwrap_or_else(|e| panic!("seed {i}: {e}"));
            assert_eq!(m.encode().unwrap(), *s, "seed {i} not canonical");
        }
    }
}
