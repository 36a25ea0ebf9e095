//! Resource records: type/class codes and the record container.

use crate::error::WireError;
use crate::name::Name;
use crate::rdata::RData;
use crate::wire::{Reader, Writer};
use std::fmt;

/// Resource record types modelled by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    /// IPv4 host address (1).
    A,
    /// Authoritative name server (2).
    Ns,
    /// Canonical name / alias (5).
    Cname,
    /// Start of authority (6).
    Soa,
    /// Domain name pointer (12).
    Ptr,
    /// Mail exchange (15).
    Mx,
    /// Text strings (16).
    Txt,
    /// IPv6 host address (28).
    Aaaa,
    /// Service locator (33).
    Srv,
    /// EDNS(0) pseudo-record (41).
    Opt,
    /// Any other type, carried opaquely.
    Other(u16),
}

impl RrType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Srv => 33,
            RrType::Opt => 41,
            RrType::Other(v) => v,
        }
    }

    /// Decodes the 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            33 => RrType::Srv,
            41 => RrType::Opt,
            other => RrType::Other(other),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Ptr => write!(f, "PTR"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Srv => write!(f, "SRV"),
            RrType::Opt => write!(f, "OPT"),
            RrType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Resource record classes. Only `In` matters; `Other` preserves anything
/// else (including the payload-size reuse of the class field in OPT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    /// The Internet (1).
    In,
    /// CHAOS (3), kept because `version.bind`-style probes use it.
    Ch,
    /// Anything else.
    Other(u16),
}

impl RrClass {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Ch => 3,
            RrClass::Other(v) => v,
        }
    }

    /// Decodes the 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RrClass::In,
            3 => RrClass::Ch,
            other => RrClass::Other(other),
        }
    }
}

/// A resource record: owner name, class, TTL and typed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name the data is attached to.
    pub name: Name,
    /// Record class, almost always [`RrClass::In`].
    pub class: RrClass,
    /// Time to live in seconds; 0 forbids caching.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Creates a record.
    pub fn new(name: Name, class: RrClass, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class,
            ttl,
            rdata,
        }
    }

    /// The record's type code, derived from its data.
    pub fn rrtype(&self) -> RrType {
        self.rdata.rrtype()
    }

    /// Length of the record encoded with an uncompressed owner name: an
    /// upper bound on what [`Record::encode`] writes.
    pub(crate) fn wire_len(&self) -> usize {
        self.name.encoded_len() + 10 + self.rdata.wire_len()
    }

    /// Encodes name, type, class, TTL, RDLENGTH and RDATA.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        self.name.encode(w)?;
        w.write_u16(self.rrtype().to_u16());
        w.write_u16(self.class.to_u16());
        w.write_u32(self.ttl);
        let len_at = w.len();
        w.write_u16(0); // back-patched below
        let start = w.len();
        self.rdata.encode(w)?;
        let rdlen = w.len() - start;
        if rdlen > usize::from(u16::MAX) {
            return Err(WireError::MessageTooLong(rdlen));
        }
        w.patch_u16(len_at, rdlen as u16);
        Ok(())
    }

    /// Decodes one record.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = Name::decode(r)?;
        let rrtype = RrType::from_u16(r.read_u16("rr type")?);
        let class = RrClass::from_u16(r.read_u16("rr class")?);
        let ttl = r.read_u32("rr ttl")?;
        let rdlen = usize::from(r.read_u16("rdlength")?);
        if r.remaining() < rdlen {
            return Err(WireError::Truncated { expected: "rdata" });
        }
        let start = r.position();
        let rdata = RData::decode(rrtype, r, rdlen)?;
        if r.position() != start + rdlen {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed: r.position().saturating_sub(start),
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} IN {} {}",
            self.name,
            self.ttl,
            self.rrtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn rrtype_codes_roundtrip() {
        for t in [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Soa,
            RrType::Ptr,
            RrType::Mx,
            RrType::Txt,
            RrType::Aaaa,
            RrType::Srv,
            RrType::Opt,
            RrType::Other(999),
        ] {
            assert_eq!(RrType::from_u16(t.to_u16()), t);
        }
    }

    #[test]
    fn class_codes_roundtrip() {
        for c in [RrClass::In, RrClass::Ch, RrClass::Other(4096)] {
            assert_eq!(RrClass::from_u16(c.to_u16()), c);
        }
    }

    #[test]
    fn record_roundtrip_with_rdlength_patch() {
        let rec = Record::new(
            Name::parse("edge.mec.example").unwrap(),
            RrClass::In,
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let mut w = Writer::new();
        rec.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        let back = Record::decode(&mut r).unwrap();
        assert_eq!(back, rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decode_detects_rdlength_lie() {
        // Hand-craft an A record whose RDLENGTH claims 6 but carries 4+2.
        let mut w = Writer::new();
        Name::parse("a").unwrap().encode(&mut w).unwrap();
        w.write_u16(RrType::A.to_u16());
        w.write_u16(RrClass::In.to_u16());
        w.write_u32(60);
        w.write_u16(6); // lie: A rdata is 4 bytes
        w.write_bytes(&[192, 0, 2, 1, 0, 0]);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Record::decode(&mut r),
            Err(WireError::RdataLengthMismatch { .. })
        ));
    }

    #[test]
    fn display_looks_like_a_zone_line() {
        let rec = Record::new(
            Name::parse("cdn0.agoda.net").unwrap(),
            RrClass::In,
            30,
            RData::A(Ipv4Addr::new(23, 55, 124, 9)),
        );
        assert_eq!(rec.to_string(), "cdn0.agoda.net. 30 IN A 23.55.124.9");
    }

    #[test]
    fn rrtype_display() {
        assert_eq!(RrType::Aaaa.to_string(), "AAAA");
        assert_eq!(RrType::Other(4711).to_string(), "TYPE4711");
    }
}
