//! Property-based tests for the DNS wire format.
//!
//! The central invariants: every message this crate can build encodes and
//! decodes back to itself, names compare case-insensitively, and the
//! decoder never panics on arbitrary bytes.

use dns_wire::{
    ClientSubnet, Message, Name, Opt, Question, RData, Rcode, Record, RrClass, RrType, WireError,
};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_-]{1,15}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..6)
        .prop_map(|labels| Name::parse(&labels.join(".")).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
        any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4)
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, refresh)| RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry: 900,
                expire: 86400,
                minimum: 60,
            }
        ),
        (any::<u16>(), any::<u16>(), any::<u16>(), arb_name()).prop_map(
            |(priority, weight, port, target)| RData::Srv {
                priority,
                weight,
                port,
                target
            }
        ),
        (1000u16..4000, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(rrtype, data)| RData::Unknown { rrtype, data }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| Record::new(name, RrClass::In, ttl, rdata))
}

fn arb_ecs() -> impl Strategy<Value = ClientSubnet> {
    prop_oneof![
        (any::<u32>(), 0u8..=32)
            .prop_map(|(ip, p)| ClientSubnet::query(IpAddr::V4(Ipv4Addr::from(ip)), p)),
        (any::<u128>(), 0u8..=128)
            .prop_map(|(ip, p)| ClientSubnet::query(IpAddr::V6(Ipv6Addr::from(ip)), p)),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::option::of(arb_ecs()),
        any::<bool>(),
        any::<bool>(),
        0u8..6,
    )
        .prop_map(
            |(id, qname, answers, authorities, additionals, ecs, qr, aa, rcode)| {
                let mut m = Message::query(id, qname, RrType::A);
                m.header.is_response = qr;
                m.header.authoritative = aa;
                m.header.rcode = Rcode::from_u8(rcode);
                m.answers = answers;
                m.authorities = authorities;
                m.additionals = additionals;
                if let Some(cs) = ecs {
                    m.edns = Some(Opt::with_client_subnet(cs));
                }
                m
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(m in arb_message()) {
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn reencode_is_stable(m in arb_message()) {
        // decode(encode(m)) encodes to the identical byte string: the
        // compression algorithm is deterministic.
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_message(
        m in arb_message(),
        idx in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = m.encode().unwrap();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] = byte;
        }
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn name_parse_display_roundtrip(n in arb_name()) {
        let s = n.to_string();
        prop_assert_eq!(Name::parse(&s).unwrap(), n);
    }

    #[test]
    fn name_equality_is_case_insensitive(n in arb_name()) {
        let upper = n.to_string().to_ascii_uppercase();
        let lower = n.to_string().to_ascii_lowercase();
        prop_assert_eq!(Name::parse(&upper).unwrap(), Name::parse(&lower).unwrap());
    }

    #[test]
    fn name_ordering_is_total_and_consistent(a in arb_name(), b in arb_name()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }

    #[test]
    fn subdomain_of_parent_always_holds(n in arb_name()) {
        if let Some(parent) = n.parent() {
            prop_assert!(n.is_subdomain_of(&parent));
        }
        prop_assert!(n.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn ecs_truncation_is_idempotent(cs in arb_ecs()) {
        let again = ClientSubnet::query(cs.addr, cs.source_prefix);
        prop_assert_eq!(again, cs);
    }

    #[test]
    fn ecs_covers_its_own_address(cs in arb_ecs()) {
        prop_assert!(cs.covers(cs.addr));
    }

    #[test]
    fn compressed_encoding_never_larger_than_uncompressed(
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..6),
    ) {
        // Upper bound: header + question + each record encoded standalone.
        let mut m = Message::query(1, qname.clone(), RrType::A);
        m.answers = answers.clone();
        let len = m.encode().unwrap().len();
        let mut upper = 12 + qname.encoded_len() + 4;
        for rec in &answers {
            let mut w = dns_wire::wire::Writer::new();
            rec.encode(&mut w).unwrap();
            upper += w.finish().unwrap().len();
        }
        prop_assert!(len <= upper, "len {} > upper {}", len, upper);
    }
}

/// Name-bearing rdata over a shared suffix pool: these names compress
/// against the qname and each other, so the pointers land *inside*
/// rdata — the path plain `arb_name` (random labels, no shared
/// suffixes) almost never exercises.
fn arb_compressible_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        arb_shared_suffix_name().prop_map(RData::Cname),
        arb_shared_suffix_name().prop_map(RData::Ns),
        arb_shared_suffix_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_shared_suffix_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            arb_shared_suffix_name()
        )
            .prop_map(|(priority, weight, port, target)| RData::Srv {
                priority,
                weight,
                port,
                target
            }),
        (arb_shared_suffix_name(), arb_shared_suffix_name()).prop_map(|(mname, rname)| {
            RData::Soa {
                mname,
                rname,
                serial: 7,
                refresh: 3600,
                retry: 900,
                expire: 86400,
                minimum: 60,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn name_bearing_rdata_roundtrips_under_compression(
        qname in arb_shared_suffix_name(),
        rdatas in proptest::collection::vec(arb_compressible_rdata(), 1..6),
    ) {
        let mut m = Message::query(9, qname.clone(), RrType::A);
        m.answers = rdatas
            .into_iter()
            .map(|rd| Record::new(qname.clone(), RrClass::In, 60, rd))
            .collect();
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &m);
        // Compression must be deterministic end to end.
        prop_assert_eq!(back.encode().unwrap(), bytes);
    }
}

/// One record of every rdata type this crate models, all names drawn
/// from one suffix family so the encoder compresses across sections and
/// into rdata. Deterministic companion to the probabilistic strategies:
/// no type can dodge coverage by sampling luck.
#[test]
fn every_rdata_type_roundtrips_in_one_compressed_message() {
    let n = |s: &str| Name::parse(s).unwrap();
    let owner = n("svc.edge.example.com");
    let rdatas = vec![
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
        RData::Cname(n("origin.edge.example.com")),
        RData::Ns(n("ns1.example.com")),
        RData::Ptr(n("svc.edge.example.com")),
        RData::Mx {
            preference: 10,
            exchange: n("mx.example.com"),
        },
        RData::Txt(vec![b"edge".to_vec(), vec![0x00, 0xFF]]),
        RData::Soa {
            mname: n("ns1.example.com"),
            rname: n("hostmaster.example.com"),
            serial: 2024,
            refresh: 3600,
            retry: 900,
            expire: 86400,
            minimum: 60,
        },
        RData::Srv {
            priority: 0,
            weight: 5,
            port: 443,
            target: n("pop1.edge.example.com"),
        },
        RData::Unknown {
            rrtype: 3500,
            data: vec![1, 2, 3],
        },
    ];
    assert_eq!(rdatas.len(), 10, "one record per modelled rdata type");
    let mut m = Message::query(7, owner.clone(), RrType::A);
    let mut standalone = 0usize;
    m.answers = rdatas
        .into_iter()
        .map(|rd| Record::new(owner.clone(), RrClass::In, 60, rd))
        .collect();
    for rec in &m.answers {
        let mut w = dns_wire::wire::Writer::new();
        rec.encode(&mut w).unwrap();
        standalone += w.finish().unwrap().len();
    }
    let bytes = m.encode().unwrap();
    let back = Message::decode(&bytes).unwrap();
    assert_eq!(back, m);
    assert_eq!(back.encode().unwrap(), bytes);
    // The shared suffixes must actually have compressed: the message
    // body is strictly smaller than the records encoded standalone.
    assert!(
        bytes.len() - 12 < standalone + owner.encoded_len() + 4,
        "no compression happened: {} vs {}",
        bytes.len(),
        standalone
    );
}

#[test]
fn questions_survive_multi_question_messages() {
    // Multi-question messages are unusual but legal; the codec must not
    // assume exactly one.
    let mut m = Message::query(1, Name::parse("a.test").unwrap(), RrType::A);
    m.questions
        .push(Question::new(Name::parse("b.test").unwrap(), RrType::Aaaa));
    let back = Message::decode(&m.encode().unwrap()).unwrap();
    assert_eq!(back.questions.len(), 2);
    assert_eq!(back, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presentation_display_parse_roundtrip(rec in arb_record()) {
        // TXT with arbitrary characters and unknown types have no
        // presentation round trip; everything else must.
        let skip = matches!(
            rec.rdata,
            RData::Txt(_) | RData::Unknown { .. } | RData::OptRaw(_)
        );
        if !skip {
            let line = rec.to_string();
            let back: Record = line.parse().unwrap();
            prop_assert_eq!(back, rec, "line was {}", line);
        }
    }

    #[test]
    fn presentation_parser_never_panics(line in "[ -~]{0,80}") {
        let _ = line.parse::<Record>();
    }
}

proptest! {
    // Each case encodes up to 65,536 records; a handful of cases probes
    // both sides of the boundary in every section without dominating the
    // suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The 16-bit count boundary: `encode` must accept 65,535 entries per
    // section — failing, if at all, with the *size* error, never a count
    // lie — and reject 65,536 with the typed overflow error.
    #[test]
    fn encode_rejects_exactly_at_the_count_boundary(
        over in any::<bool>(),
        section in 0u8..4,
        with_opt in any::<bool>(),
    ) {
        let name = Name::parse("b.count.test").unwrap();
        let rec = Record::new(
            name.clone(),
            RrClass::In,
            5,
            RData::A(Ipv4Addr::new(10, 0, 0, 1)),
        );
        let mut m = Message::query(1, name.clone(), RrType::A);
        if with_opt {
            m.edns = Some(Opt::default());
        }
        let count = if over { 65_536usize } else { 65_535 };
        let label = match section {
            0 => {
                m.questions = vec![Question::new(name.clone(), RrType::A); count];
                "question"
            }
            1 => {
                m.answers = vec![rec; count];
                "answer"
            }
            2 => {
                m.authorities = vec![rec; count];
                "authority"
            }
            _ => {
                // arcount counts the OPT pseudo-record too.
                m.additionals = vec![rec; count - usize::from(with_opt)];
                "additional"
            }
        };
        match m.encode() {
            Err(WireError::TooManyRecords { section: s, count: c }) => {
                prop_assert!(over, "typed overflow for a legal count");
                prop_assert_eq!(s, label);
                prop_assert_eq!(c, count);
            }
            Err(WireError::MessageTooLong(_)) => {
                // 65,535 minimal records still overflow the 16-bit
                // message length — a size refusal, with honest counts.
                prop_assert!(!over, "count overflow misdiagnosed as size");
            }
            Ok(bytes) => {
                prop_assert!(!over, "count overflow encoded successfully");
                let back = Message::decode(&bytes).unwrap();
                prop_assert_eq!(back.questions.len(), m.questions.len());
                prop_assert_eq!(back.answers.len(), m.answers.len());
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The bounded encoder on arbitrary messages: output fits the bound,
    // decodes cleanly, keeps sections as intact prefixes in wire order,
    // always retains the OPT, and is byte-identical to `encode` whenever
    // nothing had to be dropped.
    #[test]
    fn bounded_encode_stays_within_limit_and_decodes(
        m in arb_message(),
        limit in 20usize..700,
    ) {
        match m.encode_bounded(limit) {
            // Header + question + OPT alone can exceed a small bound.
            Err(WireError::MessageTooLong(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            Ok(bytes) => {
                prop_assert!(bytes.len() <= limit, "{} > {}", bytes.len(), limit);
                let back = Message::decode(&bytes).unwrap();
                prop_assert_eq!(&back.questions, &m.questions);
                prop_assert_eq!(back.edns.is_some(), m.edns.is_some());
                prop_assert_eq!(&back.answers[..], &m.answers[..back.answers.len()]);
                prop_assert_eq!(
                    &back.authorities[..],
                    &m.authorities[..back.authorities.len()]
                );
                prop_assert_eq!(
                    &back.additionals[..],
                    &m.additionals[..back.additionals.len()]
                );
                let kept =
                    back.answers.len() + back.authorities.len() + back.additionals.len();
                let total = m.answers.len() + m.authorities.len() + m.additionals.len();
                if back.header.truncated {
                    prop_assert!(kept < total, "TC set but nothing dropped");
                } else {
                    prop_assert_eq!(kept, total);
                    prop_assert_eq!(bytes, m.encode().unwrap());
                }
            }
        }
    }
}

/// Mixed-case names over a small pool of shared suffixes — the shape
/// name identity must get right: distinct names colliding on suffixes,
/// equal names differing only in case.
fn arb_shared_suffix_name() -> impl Strategy<Value = Name> {
    (
        0u8..4,
        proptest::collection::vec(arb_label(), 0..3),
        any::<u64>(),
    )
        .prop_map(|(s, prefix, mask)| {
            const SUFFIXES: [&str; 4] =
                ["example.com", "mycdn.ciab.test", "cdn.example.com", "test"];
            let mut full = prefix.join(".");
            if !full.is_empty() {
                full.push('.');
            }
            full.push_str(SUFFIXES[s as usize]);
            let flipped: String = full
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if (mask >> (i % 64)) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            Name::parse(&flipped).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `Name` identity must be semantically identical to keying on the
    // `canonical()` string: `==` and `cmp() == Equal` agree with
    // canonical equality, and `is_subdomain_of` with a suffix test at a
    // dot boundary on the canonical strings.
    #[test]
    fn interning_matches_string_keying(
        names in proptest::collection::vec(arb_shared_suffix_name(), 2..10),
    ) {
        for a in &names {
            for b in &names {
                let (ca, cb) = (a.canonical(), b.canonical());
                let same = ca == cb;
                prop_assert_eq!(a == b, same, "== vs canonical equality diverged for {} / {}", a, b);
                prop_assert_eq!(
                    a.cmp(b).is_eq(), same,
                    "cmp vs canonical equality diverged for {} / {}", a, b
                );
                let suffix = same || (ca.ends_with(&cb) && ca[..ca.len() - cb.len()].ends_with('.'));
                prop_assert_eq!(
                    a.is_subdomain_of(b), suffix,
                    "subdomain semantics diverged for {} under {}", a, b
                );
            }
        }
    }

    // Maps keyed by (Name, qtype) must hit and miss exactly like one
    // keyed by (canonical String, qtype) under a random insert/get
    // schedule — the cache's key-scheme equivalence, without the cache.
    // The hash map checks `Hash` and `==`, the ordered map `Ord`.
    #[test]
    fn cache_key_schemes_hit_and_miss_identically(
        names in proptest::collection::vec(arb_shared_suffix_name(), 1..8),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64),
    ) {
        use std::collections::{BTreeMap, HashMap};
        let mut by_string: HashMap<(String, u16), u32> = HashMap::new();
        let mut hashed: HashMap<(Name, u16), u32> = HashMap::new();
        let mut ordered: BTreeMap<(Name, u16), u32> = BTreeMap::new();
        for (i, &(sel, op)) in ops.iter().enumerate() {
            let name = &names[sel as usize % names.len()];
            let qtype = if op & 1 == 0 { 1u16 } else { 28 };
            let key = (name.clone(), qtype);
            if op & 2 == 0 {
                by_string.insert((name.canonical(), qtype), i as u32);
                hashed.insert(key.clone(), i as u32);
                ordered.insert(key, i as u32);
            } else {
                let s = by_string.get(&(name.canonical(), qtype)).copied();
                prop_assert_eq!(s, hashed.get(&key).copied(), "hash map diverged for {} type {}", name, qtype);
                prop_assert_eq!(s, ordered.get(&key).copied(), "ordered map diverged for {} type {}", name, qtype);
            }
            prop_assert_eq!(by_string.len(), hashed.len());
            prop_assert_eq!(by_string.len(), ordered.len());
        }
    }
}
