//! The grammar-aware mutation engine: wire-format-literate attacks.
//!
//! Each attack targets a specific decoder obligation: counted sections
//! must not trust their counts, compression pointers must terminate,
//! OPT option lengths must stay inside the rdata, ECS address lengths
//! must agree with the source prefix, labels must respect the 63-octet
//! ceiling, and truncation can land mid-record.

use crate::mutate::MAX_INPUT_LEN;
use crate::rng::FuzzRng;

/// Produces one structured hostile input.
pub fn mutate(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut out = match rng.below(9) {
        0 => mangle_counts(rng, corpus),
        1 => inject_pointer(rng, corpus),
        2 => pointer_chain(rng),
        3 => corrupt_opt_len(rng),
        4 => ecs_mismatch(rng),
        5 => label_edge(rng),
        6 => truncate_mid_rr(rng, corpus),
        7 => oversized_response(rng),
        _ => txt_length_lies(rng),
    };
    out.truncate(MAX_INPUT_LEN);
    out
}

/// A 12-byte header with explicit section counts and zero flags.
fn header(id: u16, qd: u16, an: u16, ns: u16, ar: u16) -> Vec<u8> {
    let mut h = Vec::with_capacity(12);
    h.extend_from_slice(&id.to_be_bytes());
    h.extend_from_slice(&[0, 0]);
    for c in [qd, an, ns, ar] {
        h.extend_from_slice(&c.to_be_bytes());
    }
    h
}

fn pick_seed(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    corpus[rng.below(corpus.len())].clone()
}

/// Overwrites one of the four section counts with an extreme value the
/// body cannot satisfy.
fn mangle_counts(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = pick_seed(rng, corpus);
    if buf.len() < 12 {
        return buf;
    }
    let field = 4 + 2 * rng.below(4);
    let v: u16 = [0x0001, 0x00FF, 0x7FFF, 0xFFFF][rng.below(4)];
    let be = v.to_be_bytes();
    buf[field] = be[0];
    buf[field + 1] = be[1];
    buf
}

/// Stamps a compression pointer somewhere in the body: self-pointing,
/// forward, past the end, or backward into arbitrary bytes.
fn inject_pointer(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = pick_seed(rng, corpus);
    if buf.len() < 14 {
        return buf;
    }
    let at = 12 + rng.below(buf.len() - 13);
    let target = match rng.below(4) {
        0 => at,                            // self loop
        1 => at + 1 + rng.below(64),        // forward
        2 => buf.len() + rng.below(0x2000), // past the end
        _ => rng.below(at.max(1)),          // backward, arbitrary bytes
    } & 0x3FFF;
    buf[at] = 0xC0 | (target >> 8) as u8;
    buf[at + 1] = target as u8;
    buf
}

/// A two-question message whose second qname is a strictly-backward
/// pointer chain — every hop legal in isolation — deep enough to
/// overrun the decode step budget for about half the draws.
///
/// The chain hides inside the *label content* of the first question's
/// qname: the decoder reads those bytes as opaque label payload, then
/// the second qname points at the chain's tail and each pointer hops
/// strictly backward to the previous one, terminating on the 0x00 at
/// offset 4 (the qdcount high byte, which reads as a root label).
fn pointer_chain(rng: &mut FuzzRng) -> Vec<u8> {
    let total_ptrs = 1 + rng.below(62);
    let mut buf = header(rng.u16(), 2, 0, 0, 0);
    let mut prev_target = 4usize;
    let mut remaining = total_ptrs;
    while remaining > 0 {
        let in_label = remaining.min(31);
        buf.push((in_label * 2) as u8); // literal label holding pointers
        for _ in 0..in_label {
            let pos = buf.len();
            buf.push(0xC0 | (prev_target >> 8) as u8);
            buf.push(prev_target as u8);
            prev_target = pos;
        }
        remaining -= in_label;
    }
    buf.push(0x00); // end of question 1's name
    buf.extend_from_slice(&[0, 1, 0, 1]);
    // Question 2: qname = pointer to the chain tail.
    buf.push(0xC0 | (prev_target >> 8) as u8);
    buf.push(prev_target as u8);
    buf.extend_from_slice(&[0, 1, 0, 1]);
    buf
}

/// An OPT pseudo-record whose option length disagrees with its rdata.
fn corrupt_opt_len(rng: &mut FuzzRng) -> Vec<u8> {
    let mut buf = header(rng.u16(), 1, 0, 0, 1);
    // question: root A IN
    buf.extend_from_slice(&[0x00, 0, 1, 0, 1]);
    // OPT record: root name, type 41, class = payload size, ttl 0.
    buf.push(0x00);
    buf.extend_from_slice(&41u16.to_be_bytes());
    buf.extend_from_slice(&1232u16.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
    // rdata: one option, code 8, length field lying about the body.
    let body_len = rng.below(8);
    let claimed = match rng.below(3) {
        0 => body_len + 1 + rng.below(64), // overflows rdata
        1 => 0xFFFF,                       // absurd
        _ => body_len.saturating_sub(1),   // undershoots, leaves trailing
    } as u16;
    let rdlen = 4 + body_len as u16;
    buf.extend_from_slice(&rdlen.to_be_bytes());
    buf.extend_from_slice(&8u16.to_be_bytes());
    buf.extend_from_slice(&claimed.to_be_bytes());
    for _ in 0..body_len {
        buf.push(rng.byte());
    }
    buf
}

/// An ECS option whose family/prefix/address-length relations are wrong.
fn ecs_mismatch(rng: &mut FuzzRng) -> Vec<u8> {
    let mut buf = header(rng.u16(), 1, 0, 0, 1);
    buf.extend_from_slice(&[0x00, 0, 1, 0, 1]);
    buf.push(0x00);
    buf.extend_from_slice(&41u16.to_be_bytes());
    buf.extend_from_slice(&1232u16.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
    let family: u16 = [0, 1, 2, 3, 0x8000][rng.below(5)];
    let source_prefix = rng.byte();
    let scope_prefix = if rng.chance(80) { 0 } else { rng.byte() };
    let addr_len = rng.below(18);
    let body_len = (4 + addr_len) as u16;
    buf.extend_from_slice(&(4 + body_len).to_be_bytes()); // rdlen
    buf.extend_from_slice(&8u16.to_be_bytes());
    buf.extend_from_slice(&body_len.to_be_bytes());
    buf.extend_from_slice(&family.to_be_bytes());
    buf.push(source_prefix);
    buf.push(scope_prefix);
    for _ in 0..addr_len {
        // Dirty bytes on purpose: padding-bit validation must fire.
        buf.push(if rng.chance(50) { 0xFF } else { rng.byte() });
    }
    buf
}

/// Names hugging the label (63/64) and name (255/256) limits.
fn label_edge(rng: &mut FuzzRng) -> Vec<u8> {
    let mut buf = header(rng.u16(), 1, 0, 0, 0);
    match rng.below(4) {
        0 => {
            // single max-length label: valid.
            buf.push(63);
            for _ in 0..63 {
                buf.push(b'a' + rng.below(26) as u8);
            }
            buf.push(0);
        }
        1 => {
            // label length 64: reserved 0b01 type bits.
            buf.push(64);
            buf.extend_from_slice(&[b'b'; 64]);
            buf.push(0);
        }
        2 => {
            // four 63-octet labels: 257 encoded octets, over the cap.
            for _ in 0..4 {
                buf.push(63);
                buf.extend_from_slice(&[b'c'; 63]);
            }
            buf.push(0);
        }
        _ => {
            // 0b10 reserved label type.
            buf.push(0x80 | (rng.byte() & 0x3F));
            buf.push(rng.byte());
            buf.push(0);
        }
    }
    buf.extend_from_slice(&[0, 1, 0, 1]);
    buf
}

/// Cuts a well-formed message inside its record area.
fn truncate_mid_rr(rng: &mut FuzzRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = pick_seed(rng, corpus);
    if buf.len() > 13 {
        let cut = 13 + rng.below(buf.len() - 13);
        buf.truncate(cut);
    }
    buf
}

/// A perfectly *valid* response whose answer section grows past a UDP
/// payload bound: not a decoder attack but an encoder one. Real packets
/// exposed exactly this class of bug — `encode` silently wrapping
/// section counts, `encode_bounded` having to drop whole trailing
/// records and raise TC. The differential oracle decodes these clean;
/// the dedicated test below pushes them back through the bounded
/// encoder.
fn oversized_response(rng: &mut FuzzRng) -> Vec<u8> {
    // 15 bytes per answer: 20 answers fits the classic 512, 120 blows
    // past 1232 too.
    let answers = 20 + rng.below(101);
    let mut buf = header(rng.u16(), 1, answers as u16, 0, 0);
    buf[2] = 0x80; // QR: this is a response
    buf.extend_from_slice(&[0x00, 0, 1, 0, 1]); // question: root A IN
    for i in 0..answers {
        buf.push(0x00); // owner: root
        buf.extend_from_slice(&1u16.to_be_bytes()); // A
        buf.extend_from_slice(&1u16.to_be_bytes()); // IN
        buf.extend_from_slice(&60u32.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[10, 0, (i >> 8) as u8, i as u8]);
    }
    buf
}

/// A TXT record whose character-string lengths overrun the rdata.
fn txt_length_lies(rng: &mut FuzzRng) -> Vec<u8> {
    let mut buf = header(rng.u16(), 1, 1, 0, 0);
    buf.extend_from_slice(&[0x00, 0, 16, 0, 1]); // question: root TXT IN
    buf.push(0x00); // answer name: root
    buf.extend_from_slice(&16u16.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    buf.extend_from_slice(&60u32.to_be_bytes());
    let actual = rng.below(8);
    let rdlen = (1 + actual) as u16;
    buf.extend_from_slice(&rdlen.to_be_bytes());
    // The char-string claims more bytes than the rdata holds.
    buf.push((actual + 1 + rng.below(250)) as u8);
    for _ in 0..actual {
        buf.push(rng.byte());
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Message;

    fn corpus() -> Vec<Vec<u8>> {
        crate::corpus::build_seeds()
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let c = corpus();
        for seed in 0..64 {
            let a = mutate(&mut FuzzRng::new(seed), &c);
            let b = mutate(&mut FuzzRng::new(seed), &c);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn attacks_never_panic_the_decoder() {
        let c = corpus();
        for seed in 0..2000 {
            let input = mutate(&mut FuzzRng::new(seed), &c);
            let _ = Message::decode(&input);
        }
    }

    #[test]
    fn oversized_responses_truncate_cleanly_under_a_payload_bound() {
        use dns_wire::CLASSIC_UDP_PAYLOAD;
        // The attack emits valid responses; every draw that overflows
        // the classic 512-byte budget must come back from the bounded
        // encoder within budget, decodable, TC set, with an intact
        // prefix of the answers.
        let mut overflowed = 0;
        for seed in 0..64 {
            let input = oversized_response(&mut FuzzRng::new(seed));
            let m = Message::decode(&input).expect("attack must build a valid response");
            let full = m.encode().expect("valid response re-encodes");
            if full.len() <= CLASSIC_UDP_PAYLOAD {
                continue;
            }
            overflowed += 1;
            let bounded = m
                .encode_bounded(CLASSIC_UDP_PAYLOAD)
                .expect("bounded encode never fails on a fitting question");
            assert!(bounded.len() <= CLASSIC_UDP_PAYLOAD);
            let back = Message::decode(&bounded).expect("truncated response must decode");
            assert!(
                back.header.truncated,
                "TC must be set after dropping records"
            );
            assert!(back.answers.len() < m.answers.len());
            assert_eq!(&m.answers[..back.answers.len()], &back.answers[..]);
        }
        assert!(overflowed > 0, "no draw overflowed the bound in 64 seeds");
    }

    #[test]
    fn pointer_chain_attack_hits_the_budget_error() {
        use dns_wire::WireError;
        // Deep chains must be refused with the typed budget error, not
        // looped on. Hop counts below the budget decode fine (the chain
        // resolves to the root name).
        let mut found_budget_err = false;
        for seed in 0..64 {
            let input = pointer_chain(&mut FuzzRng::new(seed));
            match Message::decode(&input) {
                Err(WireError::PointerChainTooDeep { .. }) => found_budget_err = true,
                Err(e) => panic!("unexpected error {e}"),
                Ok(_) => {}
            }
        }
        assert!(found_budget_err, "no chain exceeded the budget in 64 draws");
    }
}
