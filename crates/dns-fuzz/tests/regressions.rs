//! Pinned regression fixtures.
//!
//! Each test here is a bug the fuzzer's oracle (or the analysis done
//! while building it) exposed in `dns-wire`, fixed in the same PR and
//! frozen as a hand-written wire input. If one of these regresses, the
//! fix regressed — not the fuzzer.
//!
//! Campaign-discovered crashers land in `corpus/crashers/*.bin` (see
//! the README there) and get `include_bytes!` tests appended below.

use dns_fuzz::oracle::{check, Outcome};

/// 12-byte header: id, flags=0, then the four section counts.
fn header(qd: u16, an: u16, ns: u16, ar: u16) -> Vec<u8> {
    let mut h = vec![0x12, 0x34, 0, 0];
    for c in [qd, an, ns, ar] {
        h.extend_from_slice(&c.to_be_bytes());
    }
    h
}

/// TXT rdata is opaque bytes, not UTF-8. The decoder used to funnel it
/// through lossy string conversion, so any non-UTF-8 character-string
/// re-encoded differently than it arrived: a NonIdempotent crasher.
#[test]
fn non_utf8_txt_round_trips_byte_exactly() {
    let mut m = header(1, 1, 0, 0);
    m.extend_from_slice(&[0x00, 0, 16, 0, 1]); // question: root TXT IN
    m.push(0x00); // answer owner: root
    m.extend_from_slice(&[0, 16, 0, 1]); // TXT IN
    m.extend_from_slice(&60u32.to_be_bytes());
    // rdata: one character-string of invalid UTF-8 (lone continuation
    // byte, 0xFF, truncated multibyte head).
    m.extend_from_slice(&5u16.to_be_bytes());
    m.extend_from_slice(&[4, 0x80, 0xFF, 0xC3, 0x00]);
    assert_eq!(check(&m), Outcome::Accepted);
}

/// A compression-pointer chain of legal strictly-backward hops that
/// exceeds the decode step budget must be refused with the typed
/// budget error — the decoder used to have no hop ceiling distinct
/// from its loop check. Chain hidden in label *content*: the second
/// qname points into the first qname's payload bytes, where each
/// pointer hops backward to the previous, ending on offset 4 (the
/// qdcount high byte 0x00, a root label).
#[test]
fn deep_pointer_chain_is_refused_not_walked() {
    let mut m = header(2, 0, 0, 0);
    let mut prev: usize = 4;
    let mut remaining = 40usize; // 41 hops total, budget is 32
    while remaining > 0 {
        let in_label = remaining.min(31);
        m.push((in_label * 2) as u8);
        for _ in 0..in_label {
            let pos = m.len();
            m.push(0xC0 | (prev >> 8) as u8);
            m.push(prev as u8);
            prev = pos;
        }
        remaining -= in_label;
    }
    m.push(0x00);
    m.extend_from_slice(&[0, 1, 0, 1]);
    m.push(0xC0 | (prev >> 8) as u8); // question 2: qname = chain tail
    m.push(prev as u8);
    m.extend_from_slice(&[0, 1, 0, 1]);
    let out = check(&m);
    assert_eq!(out, Outcome::DecodeErr("PointerChainTooDeep"));
    assert!(!out.is_crash());
}

/// A pointer that targets itself (or any non-earlier offset) must be a
/// typed BadPointer, never an infinite loop.
#[test]
fn self_pointing_qname_is_a_typed_error() {
    let mut m = header(1, 0, 0, 0);
    m.extend_from_slice(&[0xC0, 0x0C]); // points at itself (offset 12)
    m.extend_from_slice(&[0, 1, 0, 1]);
    assert_eq!(check(&m), Outcome::DecodeErr("BadPointer"));
}

/// Section counts the body cannot satisfy must fail with CountMismatch
/// *without* preallocating count-sized buffers first. A 13-byte message
/// claiming 65535 of everything used to reserve four 65535-entry Vecs
/// before reading a single record.
#[test]
fn lying_counts_fail_with_count_mismatch() {
    let mut m = header(0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF);
    m.push(0x00); // one root byte of "body"
    assert_eq!(check(&m), Outcome::DecodeErr("CountMismatch"));
}

/// A label containing a literal dot keeps its own identity: `["a.b"]`
/// and `["a","b"]` print alike but are different names. An identity
/// keyed on the dotted rendering once made them collide.
#[test]
fn dot_inside_a_label_keeps_its_own_identity() {
    // Two questions: qname1 = one label "a.b", qname2 = labels "a","b".
    let mut m = header(2, 0, 0, 0);
    m.extend_from_slice(&[3, b'a', b'.', b'b', 0]);
    m.extend_from_slice(&[0, 1, 0, 1]);
    m.extend_from_slice(&[1, b'a', 1, b'b', 0]);
    m.extend_from_slice(&[0, 1, 0, 1]);
    assert_eq!(check(&m), Outcome::Accepted);
    let decoded = dns_wire::Message::decode(&m).unwrap();
    assert_ne!(decoded.questions[0].qname, decoded.questions[1].qname);
}

/// ECS with more address octets than the source prefix implies must be
/// refused; the old accessor path could index past the family buffer.
#[test]
fn ecs_address_wider_than_prefix_is_refused() {
    let mut m = header(1, 0, 0, 1);
    m.extend_from_slice(&[0x00, 0, 1, 0, 1]); // question: root A IN
    m.push(0x00); // OPT owner: root
    m.extend_from_slice(&41u16.to_be_bytes());
    m.extend_from_slice(&1232u16.to_be_bytes());
    m.extend_from_slice(&0u32.to_be_bytes());
    // ECS option: family 1 (v4), prefix /8 => 1 address octet, but 2
    // supplied.
    m.extend_from_slice(&10u16.to_be_bytes()); // rdlen
    m.extend_from_slice(&8u16.to_be_bytes()); // option code ECS
    m.extend_from_slice(&6u16.to_be_bytes()); // option len
    m.extend_from_slice(&[0, 1, 8, 0, 10, 45]);
    assert_eq!(check(&m), Outcome::DecodeErr("BadClientSubnet"));
}

/// An OPT option whose claimed length overruns its rdata must be a
/// typed error, not a slice-index panic.
#[test]
fn opt_option_length_overflow_is_typed() {
    let mut m = header(1, 0, 0, 1);
    m.extend_from_slice(&[0x00, 0, 1, 0, 1]);
    m.push(0x00);
    m.extend_from_slice(&41u16.to_be_bytes());
    m.extend_from_slice(&1232u16.to_be_bytes());
    m.extend_from_slice(&0u32.to_be_bytes());
    m.extend_from_slice(&6u16.to_be_bytes()); // rdlen: 6 bytes follow
    m.extend_from_slice(&8u16.to_be_bytes()); // option code
    m.extend_from_slice(&0x0A_u16.to_be_bytes()); // claims 10, has 2
    m.extend_from_slice(&[1, 2]);
    assert_eq!(check(&m), Outcome::DecodeErr("Truncated"));
}

/// Every committed corpus seed must pass the full oracle — the corpus
/// is the fuzzer's definition of "known good".
#[test]
fn committed_seeds_pass_the_full_oracle() {
    for (i, seed) in dns_fuzz::corpus::seeds().iter().enumerate() {
        assert_eq!(check(seed), Outcome::Accepted, "seed {i}");
    }
}

/// Any `.bin` crashers pinned under `corpus/crashers/` must stay
/// fixed: re-run each through the oracle and require a healthy
/// outcome. (Directory currently holds only the README; this guards
/// future pins without needing a code change.)
#[test]
fn pinned_crashers_stay_fixed() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/crashers");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("crashers dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    paths.sort();
    for p in paths {
        let bytes = std::fs::read(&p).expect("readable fixture");
        let out = check(&bytes);
        assert!(!out.is_crash(), "{} crashes again: {out:?}", p.display());
    }
}
