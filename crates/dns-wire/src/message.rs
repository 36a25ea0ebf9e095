//! Whole DNS messages: questions, the four sections, and EDNS handling.

use crate::edns::Opt;
use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::name::Name;
use crate::record::{Record, RrClass, RrType};
use crate::wire::{Reader, Writer, MAX_MESSAGE_LEN};
use std::fmt;

/// The pre-EDNS UDP payload ceiling (RFC 1035 §4.2.1): what a response
/// must fit within when the client advertised no EDNS payload size.
pub const CLASSIC_UDP_PAYLOAD: usize = 512;

/// The fixed header's octets.
const HEADER_LEN: usize = 12;

/// An OPT record's octets ahead of its option block: the root owner,
/// type, class, TTL and RDLENGTH.
const OPT_FIXED_LEN: usize = 11;

/// A question: name, type and class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name being asked about.
    pub qname: Name,
    /// Type being asked for.
    pub qtype: RrType,
    /// Class, almost always IN.
    pub qclass: RrClass,
}

impl Question {
    /// An IN-class question.
    pub fn new(qname: Name, qtype: RrType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RrClass::In,
        }
    }

    fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        self.qname.encode(w)?;
        w.write_u16(self.qtype.to_u16());
        w.write_u16(self.qclass.to_u16());
        Ok(())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Question {
            qname: Name::decode(r)?,
            qtype: RrType::from_u16(r.read_u16("qtype")?),
            qclass: RrClass::from_u16(r.read_u16("qclass")?),
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {}", self.qname, self.qtype)
    }
}

/// A complete DNS message.
///
/// The OPT pseudo-record is lifted out of the additional section into the
/// [`Message::edns`] field on decode and re-serialized on encode, so
/// application code never sees the TTL/class field abuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header flags (section counts are derived, not stored).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section, excluding OPT.
    pub additionals: Vec<Record>,
    /// EDNS(0) OPT contents, if the message carries one.
    pub edns: Option<Opt>,
}

impl Message {
    /// A single-question query.
    pub fn query(id: u16, qname: Name, qtype: RrType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(qname, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// An empty response template echoing `query`'s id, question, opcode
    /// and RD bit — what every server in `dns-server` starts from.
    pub fn response_to(query: &Message) -> Self {
        let mut header = Header::query(query.header.id);
        header.is_response = true;
        header.opcode = query.header.opcode;
        header.recursion_desired = query.header.recursion_desired;
        Message {
            header,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// The first question, if any. DNS in practice carries exactly one.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Sets the response code and returns `self` (builder style).
    pub fn with_rcode(mut self, rcode: Rcode) -> Self {
        self.header.rcode = rcode;
        self
    }

    /// Attaches an EDNS OPT with a client-subnet option.
    pub fn with_client_subnet(mut self, ecs: crate::edns::ClientSubnet) -> Self {
        self.edns
            .get_or_insert_with(Opt::default)
            .options
            .push(crate::edns::EdnsOption::ClientSubnet(ecs));
        self
    }

    /// The client-subnet option, if present.
    pub fn client_subnet(&self) -> Option<&crate::edns::ClientSubnet> {
        self.edns.as_ref().and_then(|o| o.client_subnet())
    }

    /// All A-record addresses in the answer section, in order.
    pub fn answer_a_addrs(&self) -> Vec<std::net::Ipv4Addr> {
        self.answers.iter().filter_map(|r| r.rdata.as_a()).collect()
    }

    /// The four header count fields, or a typed error when a section
    /// holds more entries than 16 bits can declare. Encoding checks this
    /// *before* writing anything, so a count lie is never emitted.
    fn section_counts(&self) -> Result<[u16; 4], WireError> {
        fn checked(section: &'static str, count: usize) -> Result<u16, WireError> {
            u16::try_from(count).map_err(|_| WireError::TooManyRecords { section, count })
        }
        let arcount = self.additionals.len() + usize::from(self.edns.is_some());
        Ok([
            checked("question", self.questions.len())?,
            checked("answer", self.answers.len())?,
            checked("authority", self.authorities.len())?,
            checked("additional", arcount)?,
        ])
    }

    /// Encodes the message to wire format.
    ///
    /// Fails with [`WireError::TooManyRecords`] when a section exceeds
    /// its 16-bit count field — the counts on the wire always match the
    /// sections exactly.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let counts = self.section_counts()?;
        let mut w = Writer::with_capacity(self.wire_len_bound());
        self.header.encode(&mut w, counts);
        for q in &self.questions {
            q.encode(&mut w)?;
        }
        for rec in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rec.encode(&mut w)?;
        }
        if let Some(opt) = &self.edns {
            opt.encode(&mut w)?;
        }
        w.finish()
    }

    /// The encoded length with no name compressed: what a writer sized
    /// up front needs so that it never grows.
    fn wire_len_bound(&self) -> usize {
        let questions: usize = self
            .questions
            .iter()
            .map(|q| q.qname.encoded_len() + 4)
            .sum();
        let records: usize = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
            .map(Record::wire_len)
            .sum();
        let opt = self
            .edns
            .as_ref()
            .map_or(0, |opt| OPT_FIXED_LEN + opt.options_len().unwrap_or(0));
        HEADER_LEN + questions + records + opt
    }

    /// Encodes the message into at most `max_payload` bytes, dropping
    /// whole trailing records — never splitting one — and setting the TC
    /// bit when anything had to be dropped (RFC 1035 §4.1.1; RFC 2181
    /// §9). This is what a UDP server must use for every response: the
    /// bound is the client's advertised EDNS payload size, or
    /// [`CLASSIC_UDP_PAYLOAD`] when it advertised none.
    ///
    /// Records are dropped strictly from the tail (additionals last on
    /// the wire, so they go first), and the OPT pseudo-record is always
    /// included — its bytes are reserved up front, because the client
    /// needs the server's EDNS parameters to interpret even a truncated
    /// response. The header and question section must fit the bound
    /// ([`WireError::MessageTooLong`] otherwise; any bound ≥ 512 always
    /// has room for a single-question header).
    pub fn encode_bounded(&self, max_payload: usize) -> Result<Vec<u8>, WireError> {
        // Bounding is not an excuse for a count lie: validate first.
        self.section_counts()?;
        let limit = max_payload.min(MAX_MESSAGE_LEN);
        let opt_len = match &self.edns {
            Some(opt) => {
                let len = OPT_FIXED_LEN + opt.options_len()?;
                if len > MAX_MESSAGE_LEN {
                    return Err(WireError::MessageTooLong(len));
                }
                len
            }
            None => 0,
        };
        let mut w = Writer::with_capacity(self.wire_len_bound().min(limit));
        self.header.encode(&mut w, [0, 0, 0, 0]);
        for q in &self.questions {
            q.encode(&mut w)?;
        }
        let Some(budget) = limit.checked_sub(opt_len).filter(|&b| w.len() <= b) else {
            // Not even header + questions + OPT fit the transport.
            return Err(WireError::MessageTooLong(w.len() + opt_len));
        };
        // Fill sections in wire order until a record would overflow the
        // budget; from that point every later record is dropped too.
        let mut kept_an: u16 = 0;
        let mut kept_ns: u16 = 0;
        let mut kept_ar: u16 = 0;
        let mut dropped = false;
        'fill: {
            let push = |w: &mut Writer, rec: &Record, kept: &mut u16| {
                let mark = w.len();
                rec.encode(w)?;
                if w.len() > budget {
                    w.truncate(mark);
                    return Ok(false);
                }
                *kept += 1;
                Ok::<bool, WireError>(true)
            };
            for rec in &self.answers {
                if !push(&mut w, rec, &mut kept_an)? {
                    dropped = true;
                    break 'fill;
                }
            }
            for rec in &self.authorities {
                if !push(&mut w, rec, &mut kept_ns)? {
                    dropped = true;
                    break 'fill;
                }
            }
            for rec in &self.additionals {
                if !push(&mut w, rec, &mut kept_ar)? {
                    dropped = true;
                    break 'fill;
                }
            }
        }
        if let Some(opt) = &self.edns {
            opt.encode(&mut w)?;
        }
        // Back-patch the real counts (offsets 4..12) and, if any record
        // was dropped, the TC bit in the flags word at offset 2.
        w.patch_u16(4, self.questions.len() as u16);
        w.patch_u16(6, kept_an);
        w.patch_u16(8, kept_ns);
        w.patch_u16(10, kept_ar + u16::from(self.edns.is_some()));
        if dropped {
            w.patch_u16(2, self.header.flags_value() | Header::TC_BIT);
        }
        w.finish()
    }

    /// Decodes a message from wire format.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let (header, [qd, an, ns, ar]) = Header::decode(&mut r)?;
        // Preallocation is clamped by what the remaining bytes could
        // possibly hold (a question is ≥ 5 bytes, a record ≥ 11), so a
        // header lying about its counts cannot demand unbounded memory
        // before the per-entry decode loop notices the truncation.
        let mut questions = Vec::with_capacity(clamp_count(qd, r.remaining(), 5));
        for _ in 0..qd {
            questions.push(Question::decode(&mut r).map_err(|e| remap_count(e, "question"))?);
        }
        let mut answers = Vec::with_capacity(clamp_count(an, r.remaining(), 11));
        for _ in 0..an {
            answers.push(Record::decode(&mut r).map_err(|e| remap_count(e, "answer"))?);
        }
        let mut authorities = Vec::with_capacity(clamp_count(ns, r.remaining(), 11));
        for _ in 0..ns {
            authorities.push(Record::decode(&mut r).map_err(|e| remap_count(e, "authority"))?);
        }
        let mut additionals = Vec::new();
        let mut edns = None;
        for _ in 0..ar {
            let rec = Record::decode(&mut r).map_err(|e| remap_count(e, "additional"))?;
            if rec.rrtype() == RrType::Opt {
                edns = Some(Opt::from_record(&rec)?);
            } else {
                additionals.push(rec);
            }
        }
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

/// Caps a declared section count by the number of entries of at least
/// `min_entry_bytes` that could fit in the `remaining` input bytes.
fn clamp_count(declared: u16, remaining: usize, min_entry_bytes: usize) -> usize {
    usize::from(declared).min(remaining / min_entry_bytes)
}

/// Converts a truncation error inside a counted section into the clearer
/// "count exceeds contents" diagnosis.
fn remap_count(e: WireError, section: &'static str) -> WireError {
    match e {
        WireError::Truncated { .. } => WireError::CountMismatch(section),
        other => other,
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} q={} an={} ns={} ar={}",
            self.header.id,
            if self.header.is_response {
                "resp"
            } else {
                "query"
            },
            self.header.rcode,
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for a in &self.answers {
            writeln!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::ClientSubnet;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    fn roundtrip(m: &Message) -> Message {
        Message::decode(&m.encode().unwrap()).unwrap()
    }

    #[test]
    fn simple_query_roundtrips() {
        let q = Message::query(1, Name::parse("a0.muscache.com").unwrap(), RrType::A);
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn response_echoes_query_metadata() {
        let mut q = Message::query(42, Name::parse("x.test").unwrap(), RrType::Aaaa);
        q.header.recursion_desired = true;
        let r = Message::response_to(&q);
        assert!(r.header.is_response);
        assert_eq!(r.header.id, 42);
        assert!(r.header.recursion_desired);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn full_sections_roundtrip() {
        let zone = Name::parse("mycdn.ciab.test").unwrap();
        let mut m = Message::query(7, zone.child("video").unwrap(), RrType::A);
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
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn edns_is_lifted_and_relowered() {
        let cs = ClientSubnet::query("172.16.0.0".parse().unwrap(), 12);
        let m = Message::query(9, Name::parse("e.test").unwrap(), RrType::A).with_client_subnet(cs);
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.client_subnet(), Some(&cs));
        assert!(back.additionals.is_empty());
        assert_eq!(back, m);
    }

    #[test]
    fn arcount_includes_opt() {
        let m = Message::query(9, Name::parse("e.test").unwrap(), RrType::A)
            .with_client_subnet(ClientSubnet::query("10.0.0.0".parse().unwrap(), 8));
        let bytes = m.encode().unwrap();
        // arcount lives at offset 10..12
        assert_eq!(u16::from_be_bytes([bytes[10], bytes[11]]), 1);
    }

    #[test]
    fn count_mismatch_is_diagnosed() {
        let m = Message::query(3, Name::parse("x.y").unwrap(), RrType::A);
        let mut bytes = m.encode().unwrap();
        bytes[5] = 9; // claim 9 questions
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::CountMismatch("question"))
        );
    }

    #[test]
    fn lying_counts_in_tiny_message_fail_without_allocating() {
        // All four counts claim 0xFFFF entries with a 13-byte message.
        // The clamp keeps preallocation at ≤ remaining/min-entry-size
        // (here ≤ 2) and the decode loop reports the mismatch.
        let mut bytes = vec![0u8; 13];
        for off in [4, 6, 8, 10] {
            bytes[off] = 0xFF;
            bytes[off + 1] = 0xFF;
        }
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::CountMismatch("question"))
        );
        assert_eq!(clamp_count(0xFFFF, 13, 5), 2);
        assert_eq!(clamp_count(0xFFFF, 4, 11), 0);
        assert_eq!(clamp_count(1, 500, 5), 1);
    }

    #[test]
    fn answer_a_addrs_filters_non_a() {
        let name = Name::parse("m.test").unwrap();
        let mut m = Message::query(1, name.clone(), RrType::A);
        m.answers.push(Record::new(
            name.clone(),
            RrClass::In,
            1,
            RData::Cname(Name::parse("c.test").unwrap()),
        ));
        m.answers.push(Record::new(
            name,
            RrClass::In,
            1,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
        assert_eq!(m.answer_a_addrs(), vec![Ipv4Addr::new(1, 1, 1, 1)]);
    }

    #[test]
    fn with_rcode_builder() {
        let m =
            Message::query(1, Name::parse("x.y").unwrap(), RrType::A).with_rcode(Rcode::NxDomain);
        assert_eq!(m.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn display_contains_question_and_answer() {
        let name = Name::parse("q-cf.bstatic.com").unwrap();
        let mut m = Message::query(5, name.clone(), RrType::A);
        m.answers.push(Record::new(
            name,
            RrClass::In,
            30,
            RData::A(Ipv4Addr::new(13, 249, 9, 9)),
        ));
        let s = m.to_string();
        assert!(s.contains("q-cf.bstatic.com."));
        assert!(s.contains("13.249.9.9"));
    }

    /// The smallest useful record: an A record on `name`. Answer lists
    /// built from these compress to a 2-byte pointer + 14 bytes each.
    fn a_record(name: &Name, last_octet: u8) -> Record {
        Record::new(
            name.clone(),
            RrClass::In,
            30,
            RData::A(Ipv4Addr::new(10, 0, 0, last_octet)),
        )
    }

    /// A response with `n` A-record answers sharing the qname.
    fn response_with_answers(n: usize) -> Message {
        let name = Name::parse("video.mycdn.ciab.test").unwrap();
        let mut m = Message::query(7, name.clone(), RrType::A);
        m.header.is_response = true;
        for i in 0..n {
            m.answers.push(a_record(&name, (i % 250) as u8 + 1));
        }
        m
    }

    #[test]
    fn question_count_overflow_is_typed() {
        let name = Name::parse("x.test").unwrap();
        let mut m = Message::query(1, name.clone(), RrType::A);
        m.questions = vec![Question::new(name, RrType::A); 65_536];
        let want = Err(WireError::TooManyRecords {
            section: "question",
            count: 65_536,
        });
        assert_eq!(m.encode(), want);
        assert_eq!(m.encode_bounded(1232), want);
    }

    #[test]
    fn answer_count_overflow_is_typed() {
        let name = Name::parse("x.test").unwrap();
        let mut m = Message::query(1, name.clone(), RrType::A);
        m.answers = vec![a_record(&name, 1); 65_536];
        assert_eq!(
            m.encode(),
            Err(WireError::TooManyRecords {
                section: "answer",
                count: 65_536,
            })
        );
    }

    #[test]
    fn authority_count_overflow_is_typed() {
        let name = Name::parse("x.test").unwrap();
        let mut m = Message::query(1, name.clone(), RrType::A);
        m.authorities = vec![a_record(&name, 1); 65_536];
        assert_eq!(
            m.encode(),
            Err(WireError::TooManyRecords {
                section: "authority",
                count: 65_536,
            })
        );
    }

    #[test]
    fn additional_count_overflow_is_typed_and_includes_opt() {
        // 65,535 additionals alone would fit the count field, but the
        // OPT pseudo-record rides in the same section: arcount is 65,536.
        let name = Name::parse("x.test").unwrap();
        let mut m = Message::query(1, name.clone(), RrType::A);
        m.additionals = vec![a_record(&name, 1); 65_535];
        m.edns = Some(Opt::default());
        assert_eq!(
            m.encode(),
            Err(WireError::TooManyRecords {
                section: "additional",
                count: 65_536,
            })
        );
        // Without the OPT the counts are legal again; the encoding then
        // fails only because the body exceeds the 16-bit message length —
        // a size problem, never a count lie.
        m.edns = None;
        assert!(matches!(m.encode(), Err(WireError::MessageTooLong(_))));
    }

    #[test]
    fn bounded_encode_at_exact_size_is_identical_to_encode() {
        let m = response_with_answers(3);
        let full = m.encode().unwrap();
        let bounded = m.encode_bounded(full.len()).unwrap();
        assert_eq!(bounded, full);
        assert!(!Message::decode(&bounded).unwrap().header.truncated);
    }

    #[test]
    fn bounded_encode_one_byte_over_drops_last_record_and_sets_tc() {
        let m = response_with_answers(3);
        let full = m.encode().unwrap();
        let bounded = m.encode_bounded(full.len() - 1).unwrap();
        assert!(bounded.len() < full.len());
        let back = Message::decode(&bounded).unwrap();
        assert!(back.header.truncated);
        assert_eq!(back.answers, m.answers[..2]);
        assert_eq!(back.questions, m.questions);
    }

    #[test]
    fn bounded_encode_keeps_opt_while_dropping_records() {
        let mut m = response_with_answers(40);
        m.edns = Some(Opt::default());
        let full = m.encode().unwrap();
        assert!(full.len() > CLASSIC_UDP_PAYLOAD);
        let bounded = m.encode_bounded(CLASSIC_UDP_PAYLOAD).unwrap();
        assert!(bounded.len() <= CLASSIC_UDP_PAYLOAD);
        let back = Message::decode(&bounded).unwrap();
        assert!(back.header.truncated);
        assert!(back.edns.is_some(), "OPT must survive truncation");
        assert!(back.answers.len() < m.answers.len());
        // Never splits a record: every kept answer is an intact prefix
        // of the original answer section.
        assert_eq!(back.answers, m.answers[..back.answers.len()]);
    }

    #[test]
    fn bounded_encode_drops_tail_sections_first() {
        // One answer, one authority, one additional; bound the message
        // so only the answer fits. Later sections go before earlier ones.
        let name = Name::parse("x.mycdn.ciab.test").unwrap();
        let mut m = Message::query(9, name.clone(), RrType::A);
        m.header.is_response = true;
        m.answers.push(a_record(&name, 1));
        m.authorities.push(a_record(&name, 2));
        m.additionals.push(a_record(&name, 3));
        let full = m.encode().unwrap();
        let bounded = m.encode_bounded(full.len() - 1).unwrap();
        let back = Message::decode(&bounded).unwrap();
        assert!(back.header.truncated);
        assert_eq!(back.answers, m.answers);
        assert_eq!(back.authorities, m.authorities);
        assert!(back.additionals.is_empty());
    }

    #[test]
    fn bounded_encode_rejects_a_bound_the_question_cannot_meet() {
        let m = response_with_answers(1);
        assert!(matches!(
            m.encode_bounded(12),
            Err(WireError::MessageTooLong(_))
        ));
    }

    #[test]
    fn compression_shrinks_responses() {
        // A response whose answer repeats the qname should be smaller than
        // the sum of two independent encodings.
        let name = Name::parse("static.tacdn.com").unwrap();
        let mut m = Message::query(5, name.clone(), RrType::A);
        m.answers.push(Record::new(
            name.clone(),
            RrClass::In,
            30,
            RData::A(Ipv4Addr::new(151, 101, 1, 1)),
        ));
        let len = m.encode().unwrap().len();
        // header(12) + question(name 18 + 4) + answer(ptr 2 + 10 + 4)
        assert_eq!(len, 12 + 18 + 4 + 2 + 10 + 4);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A referral-shaped response: the question, three NS records whose
    /// owners and targets share mixed-case suffixes, three glue A
    /// records and an OPT record with ECS.
    fn referral() -> Message {
        let n = |s: &str| Name::parse(s).unwrap();
        let mut m = Message::query(0x5A5A, n("Www.Video.MyCdn.ciab.test"), RrType::A);
        m.header.is_response = true;
        m.header.recursion_desired = true;
        let targets = [
            "ns1.MyCdn.ciab.TEST",
            "NS2.mycdn.ciab.test",
            "ns3.Video.mycdn.Ciab.test",
        ];
        for (i, ns) in targets.into_iter().enumerate() {
            m.authorities.push(Record::new(
                n("video.MYCDN.ciab.test"),
                RrClass::In,
                3600,
                RData::Ns(n(ns)),
            ));
            m.additionals.push(Record::new(
                n(ns),
                RrClass::In,
                3600,
                RData::A(Ipv4Addr::new(10, 96, 0, 1 + i as u8)),
            ));
        }
        let ecs = ClientSubnet::query("203.0.113.0".parse().unwrap(), 24).with_scope(24);
        m.with_client_subnet(ecs)
    }

    /// Pinned bytes: compression matches suffixes case-insensitively,
    /// points at the first place a suffix was written, never records
    /// record-data names, and forgets the suffixes of a dropped record.
    #[test]
    fn compressed_bytes_are_pinned() {
        assert_eq!(
            hex(&referral().encode().unwrap()),
            "5a5a810000010000000300040357777705566964656f054d7943646e04636961\
             6204746573740000010001c0100002000100000e100015036e7331054d794364\
             6e0463696162045445535400c0100002000100000e100015034e5332056d7963\
             646e0463696162047465737400c0100002000100000e10001b036e7333055669\
             64656f056d7963646e0443696162047465737400036e7331c016000100010000\
             0e1000040a600001034e5332c0160001000100000e1000040a600002036e7333\
             c0100001000100000e1000040a60000300002904d000000000000b0008000700\
             011818cb0071"
        );
        let mut forty = response_with_answers(40);
        forty.edns = Some(Opt::default());
        assert_eq!(
            hex(&forty.encode_bounded(CLASSIC_UDP_PAYLOAD).unwrap()),
            "000782000001001c0000000105766964656f056d7963646e0463696162047465\
             73740000010001c00c000100010000001e00040a000001c00c00010001000000\
             1e00040a000002c00c000100010000001e00040a000003c00c00010001000000\
             1e00040a000004c00c000100010000001e00040a000005c00c00010001000000\
             1e00040a000006c00c000100010000001e00040a000007c00c00010001000000\
             1e00040a000008c00c000100010000001e00040a000009c00c00010001000000\
             1e00040a00000ac00c000100010000001e00040a00000bc00c00010001000000\
             1e00040a00000cc00c000100010000001e00040a00000dc00c00010001000000\
             1e00040a00000ec00c000100010000001e00040a00000fc00c00010001000000\
             1e00040a000010c00c000100010000001e00040a000011c00c00010001000000\
             1e00040a000012c00c000100010000001e00040a000013c00c00010001000000\
             1e00040a000014c00c000100010000001e00040a000015c00c00010001000000\
             1e00040a000016c00c000100010000001e00040a000017c00c00010001000000\
             1e00040a000018c00c000100010000001e00040a000019c00c00010001000000\
             1e00040a00001ac00c000100010000001e00040a00001bc00c00010001000000\
             1e00040a00001c00002904d0000000000000"
        );
    }
}
