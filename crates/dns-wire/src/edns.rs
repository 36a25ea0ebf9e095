//! EDNS(0) (RFC 6891) and the Client Subnet option (RFC 7871).
//!
//! The paper's §4 evaluates ECS explicitly: enabling it at L-DNS and C-DNS
//! changed lookup latency by ×1.01/×1.08/×0.95 while always resolving to
//! the correct MEC cache. [`ClientSubnet`] carries the client prefix that
//! makes that experiment possible.

use crate::error::WireError;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::{Record, RrClass, RrType};
use crate::wire::{Reader, Writer, MAX_MESSAGE_LEN};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// EDNS option code for Client Subnet (RFC 7871).
pub const OPTION_CLIENT_SUBNET: u16 = 8;
/// Address family numbers from the IANA registry used by ECS.
const FAMILY_IPV4: u16 = 1;
const FAMILY_IPV6: u16 = 2;

/// A decoded EDNS option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdnsOption {
    /// RFC 7871 Client Subnet.
    ClientSubnet(ClientSubnet),
    /// Any option this crate does not model, kept verbatim.
    Other {
        /// Option code.
        code: u16,
        /// Raw option data.
        data: Vec<u8>,
    },
}

/// The RFC 7871 EDNS Client Subnet option.
///
/// In a query, `source_prefix` says how many leading address bits the
/// resolver discloses and `scope_prefix` is zero. In a response,
/// `scope_prefix` says how many bits the answer actually depends on —
/// the field the hidden-resolver problems cited by the paper revolve
/// around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSubnet {
    /// Client address (bits beyond `source_prefix` are zeroed).
    pub addr: IpAddr,
    /// Prefix length disclosed by the querier.
    pub source_prefix: u8,
    /// Prefix length the answer is scoped to (responses only).
    pub scope_prefix: u8,
}

impl ClientSubnet {
    /// Builds a query-side option for `addr/source_prefix`, truncating the
    /// address to the prefix as §6 of the RFC requires.
    pub fn query(addr: IpAddr, source_prefix: u8) -> Self {
        ClientSubnet {
            addr: truncate_addr(addr, source_prefix),
            source_prefix,
            scope_prefix: 0,
        }
    }

    /// Copy of `self` with the response scope set (what a C-DNS returns).
    pub fn with_scope(mut self, scope_prefix: u8) -> Self {
        self.scope_prefix = scope_prefix;
        self
    }

    /// True if `candidate` falls inside the announced prefix.
    pub fn covers(&self, candidate: IpAddr) -> bool {
        match (self.addr, candidate) {
            (IpAddr::V4(a), IpAddr::V4(b)) => {
                prefix_match_v4(a, b) >= u32::from(self.source_prefix)
            }
            (IpAddr::V6(a), IpAddr::V6(b)) => {
                prefix_match_v6(a, b) >= u32::from(self.source_prefix)
            }
            _ => false,
        }
    }

    /// Length of the option body — family, the two prefix lengths and
    /// the disclosed address octets — or the error encoding it reports.
    fn body_len(&self) -> Result<usize, WireError> {
        let family_bits = match self.addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if self.source_prefix > family_bits {
            return Err(WireError::BadClientSubnet("source prefix exceeds family"));
        }
        Ok(4 + usize::from(self.source_prefix.div_ceil(8)))
    }

    /// Writes the whole option: code, length and body.
    fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        let body_len = self.body_len()?;
        let (v4, v6);
        let (family, octets): (u16, &[u8]) = match self.addr {
            IpAddr::V4(ip) => {
                v4 = ip.octets();
                (FAMILY_IPV4, &v4)
            }
            IpAddr::V6(ip) => {
                v6 = ip.octets();
                (FAMILY_IPV6, &v6)
            }
        };
        let disclosed = octets
            .get(..body_len - 4)
            .ok_or(WireError::BadClientSubnet("source prefix exceeds family"))?;
        w.write_u16(OPTION_CLIENT_SUBNET);
        w.write_u16(body_len as u16);
        w.write_u16(family);
        w.write_u8(self.source_prefix);
        w.write_u8(self.scope_prefix);
        w.write_bytes(disclosed);
        Ok(())
    }

    fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let family = r.read_u16("ECS family")?;
        let source_prefix = r.read_u8("ECS source prefix")?;
        let scope_prefix = r.read_u8("ECS scope prefix")?;
        let addr_len = usize::from(source_prefix.div_ceil(8));
        let bytes = r.read_bytes(addr_len, "ECS address")?;
        if r.remaining() != 0 {
            return Err(WireError::BadClientSubnet("trailing bytes"));
        }
        let addr = match family {
            FAMILY_IPV4 => {
                if source_prefix > 32 {
                    return Err(WireError::BadClientSubnet("v4 prefix > 32"));
                }
                let mut o = [0u8; 4];
                fill_prefix(&mut o, bytes)?;
                IpAddr::V4(Ipv4Addr::from(o))
            }
            FAMILY_IPV6 => {
                if source_prefix > 128 {
                    return Err(WireError::BadClientSubnet("v6 prefix > 128"));
                }
                let mut o = [0u8; 16];
                fill_prefix(&mut o, bytes)?;
                IpAddr::V6(Ipv6Addr::from(o))
            }
            _ => return Err(WireError::BadClientSubnet("unknown family")),
        };
        let truncated = truncate_addr(addr, source_prefix);
        if truncated != addr {
            return Err(WireError::BadClientSubnet("non-zero padding bits"));
        }
        Ok(ClientSubnet {
            addr,
            source_prefix,
            scope_prefix,
        })
    }
}

/// Copies `bytes` into the front of `dst`, refusing (rather than
/// panicking) when the wire carried more address octets than the
/// family's address can hold.
fn fill_prefix(dst: &mut [u8], bytes: &[u8]) -> Result<(), WireError> {
    dst.get_mut(..bytes.len())
        .ok_or(WireError::BadClientSubnet(
            "address longer than family allows",
        ))?
        .copy_from_slice(bytes);
    Ok(())
}

/// Zeroes all address bits beyond `prefix`.
pub fn truncate_addr(addr: IpAddr, prefix: u8) -> IpAddr {
    match addr {
        IpAddr::V4(ip) => {
            let p = prefix.min(32);
            let mask: u32 = if p == 0 {
                0
            } else {
                u32::MAX << (32 - u32::from(p))
            };
            IpAddr::V4(Ipv4Addr::from(u32::from(ip) & mask))
        }
        IpAddr::V6(ip) => {
            let p = prefix.min(128);
            let mask: u128 = if p == 0 {
                0
            } else {
                u128::MAX << (128 - u32::from(p))
            };
            IpAddr::V6(Ipv6Addr::from(u128::from(ip) & mask))
        }
    }
}

fn prefix_match_v4(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    (u32::from(a) ^ u32::from(b)).leading_zeros()
}

fn prefix_match_v6(a: Ipv6Addr, b: Ipv6Addr) -> u32 {
    (u128::from(a) ^ u128::from(b)).leading_zeros()
}

/// The decoded EDNS(0) OPT pseudo-record.
///
/// The OPT record abuses the class field for the requestor's UDP payload
/// size and the TTL for extended RCODE/version/flags; this struct keeps
/// those as meaningful fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opt {
    /// Largest UDP payload the sender can reassemble.
    pub udp_payload_size: u16,
    /// Upper 8 bits of the extended RCODE.
    pub extended_rcode: u8,
    /// EDNS version; only 0 exists.
    pub version: u8,
    /// DO bit (DNSSEC OK). Carried but never acted on here.
    pub dnssec_ok: bool,
    /// Options, in order.
    pub options: Vec<EdnsOption>,
}

impl Default for Opt {
    fn default() -> Self {
        Opt {
            udp_payload_size: 1232,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Opt {
    /// An OPT carrying a single client-subnet option.
    pub fn with_client_subnet(ecs: ClientSubnet) -> Self {
        Opt {
            options: vec![EdnsOption::ClientSubnet(ecs)],
            ..Opt::default()
        }
    }

    /// The client-subnet option, if present.
    pub fn client_subnet(&self) -> Option<&ClientSubnet> {
        self.options.iter().find_map(|o| match o {
            EdnsOption::ClientSubnet(cs) => Some(cs),
            _ => None,
        })
    }

    /// The OPT record's TTL field: extended RCODE, version and DO bit.
    fn ttl(&self) -> u32 {
        u32::from(self.extended_rcode) << 24
            | u32::from(self.version) << 16
            | if self.dnssec_ok { 1 << 15 } else { 0 }
    }

    /// Length of the option block (the OPT record's RDATA), or the error
    /// encoding the options reports, checked option by option.
    pub(crate) fn options_len(&self) -> Result<usize, WireError> {
        let mut len = 0;
        for opt in &self.options {
            len += 4 + match opt {
                EdnsOption::ClientSubnet(cs) => cs.body_len()?,
                EdnsOption::Other { data, .. } => {
                    u16::try_from(data.len()).map_err(|_| WireError::BadEdnsOption)?;
                    data.len()
                }
            };
        }
        if len > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(len));
        }
        Ok(len)
    }

    /// Writes the option block; [`Opt::options_len`] has checked it.
    fn write_options(&self, w: &mut Writer) -> Result<(), WireError> {
        for opt in &self.options {
            match opt {
                EdnsOption::ClientSubnet(cs) => cs.encode(w)?,
                EdnsOption::Other { code, data } => {
                    w.write_u16(*code);
                    w.write_u16(data.len() as u16);
                    w.write_bytes(data);
                }
            }
        }
        Ok(())
    }

    /// Writes the OPT pseudo-record: the root as owner, type OPT, the
    /// payload size as class, the flags as TTL, then the option block.
    pub(crate) fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        let len = self.options_len()?;
        w.write_u8(0);
        w.write_u16(RrType::Opt.to_u16());
        w.write_u16(self.udp_payload_size);
        w.write_u32(self.ttl());
        w.write_u16(len as u16);
        self.write_options(w)
    }

    /// Renders this OPT as the pseudo-record placed in the additional
    /// section.
    pub fn to_record(&self) -> Result<Record, WireError> {
        let mut w = Writer::with_capacity(self.options_len()?);
        self.write_options(&mut w)?;
        Ok(Record {
            name: Name::root(),
            class: RrClass::Other(self.udp_payload_size),
            ttl: self.ttl(),
            rdata: RData::OptRaw(w.finish()?),
        })
    }

    /// Parses an OPT pseudo-record back into structured form.
    pub fn from_record(rec: &Record) -> Result<Self, WireError> {
        if rec.rrtype() != RrType::Opt {
            return Err(WireError::BadEdnsOption);
        }
        let data = rec.rdata.as_opt_raw().ok_or(WireError::BadEdnsOption)?;
        let mut options = Vec::new();
        let mut r = Reader::new(data);
        while r.remaining() > 0 {
            let code = r.read_u16("EDNS option code")?;
            let len = usize::from(r.read_u16("EDNS option length")?);
            let body = r.read_bytes(len, "EDNS option data")?;
            options.push(match code {
                OPTION_CLIENT_SUBNET => EdnsOption::ClientSubnet(ClientSubnet::decode(body)?),
                other => EdnsOption::Other {
                    code: other,
                    data: body.to_vec(),
                },
            });
        }
        Ok(Opt {
            udp_payload_size: rec.class.to_u16(),
            extended_rcode: (rec.ttl >> 24) as u8,
            version: (rec.ttl >> 16) as u8,
            dnssec_ok: rec.ttl & (1 << 15) != 0,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opt: &Opt) -> Opt {
        Opt::from_record(&opt.to_record().unwrap()).unwrap()
    }

    #[test]
    fn bare_opt_roundtrips() {
        let opt = Opt::default();
        assert_eq!(roundtrip(&opt), opt);
    }

    #[test]
    fn opt_fields_roundtrip() {
        let opt = Opt {
            udp_payload_size: 4096,
            extended_rcode: 1,
            version: 0,
            dnssec_ok: true,
            options: vec![EdnsOption::Other {
                code: 10,
                data: vec![1, 2, 3, 4],
            }],
        };
        assert_eq!(roundtrip(&opt), opt);
    }

    #[test]
    fn client_subnet_v4_roundtrips_and_truncates() {
        let cs = ClientSubnet::query("10.45.0.99".parse().unwrap(), 24);
        // bits past /24 must be zeroed
        assert_eq!(cs.addr, "10.45.0.0".parse::<IpAddr>().unwrap());
        let opt = Opt::with_client_subnet(cs);
        let back = roundtrip(&opt);
        assert_eq!(back.client_subnet(), Some(&cs));
    }

    #[test]
    fn client_subnet_v6_roundtrips() {
        let cs = ClientSubnet::query("2001:db8:abcd::1".parse().unwrap(), 48).with_scope(48);
        let opt = Opt::with_client_subnet(cs);
        assert_eq!(roundtrip(&opt).client_subnet(), Some(&cs));
    }

    #[test]
    fn zero_prefix_discloses_nothing() {
        let cs = ClientSubnet::query("192.0.2.55".parse().unwrap(), 0);
        assert_eq!(cs.addr, "0.0.0.0".parse::<IpAddr>().unwrap());
        let opt = Opt::with_client_subnet(cs);
        // /0 encodes zero address octets
        let rec = opt.to_record().unwrap();
        let d = rec.rdata.as_opt_raw().expect("OPT record carries OptRaw");
        assert_eq!(d.len(), 4 + 4); // code+len+family+prefixes, no addr
        assert_eq!(roundtrip(&opt).client_subnet(), Some(&cs));
    }

    #[test]
    fn from_record_rejects_non_opt_rdata() {
        // A record that is not an OPT pseudo-record yields a typed error,
        // never a panic, on both the type check and the rdata accessor.
        let rec = Record::new(
            Name::root(),
            RrClass::In,
            0,
            RData::A("192.0.2.1".parse().unwrap()),
        );
        assert_eq!(Opt::from_record(&rec), Err(WireError::BadEdnsOption));
    }

    #[test]
    fn option_length_overflowing_rdata_is_truncated_error() {
        // Option header claims 10 body bytes but only 2 exist.
        let rec = Record {
            name: Name::root(),
            class: RrClass::Other(1232),
            ttl: 0,
            rdata: RData::OptRaw(vec![0x00, 0x08, 0x00, 0x0A, 0x01, 0x02]),
        };
        assert!(matches!(
            Opt::from_record(&rec),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn ecs_address_longer_than_prefix_implies_is_rejected() {
        // source_prefix=8 implies exactly 1 address octet; two are present.
        let data = [0x00, 0x01, 8, 0, 10, 45];
        assert_eq!(
            ClientSubnet::decode(&data),
            Err(WireError::BadClientSubnet("trailing bytes"))
        );
        // ...and fewer than implied is a truncation error.
        let data = [0x00, 0x01, 24, 0, 10];
        assert!(matches!(
            ClientSubnet::decode(&data),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_option_codes_are_preserved_opaquely() {
        let opt = Opt {
            options: vec![
                EdnsOption::Other {
                    code: 0xFADE,
                    data: vec![0xDE, 0xAD, 0xBE, 0xEF],
                },
                EdnsOption::Other {
                    code: 15, // EDE — modeled nowhere, must survive verbatim
                    data: vec![0, 1],
                },
            ],
            ..Opt::default()
        };
        let back = roundtrip(&opt);
        assert_eq!(back.options, opt.options);
        // Re-encoding the decoded form is byte-identical.
        let a = opt.to_record().unwrap();
        let b = back.to_record().unwrap();
        assert_eq!(a.rdata, b.rdata);
    }

    #[test]
    fn udp_payload_size_extremes_roundtrip() {
        for size in [0u16, 511, 512, 1232, u16::MAX] {
            let opt = Opt {
                udp_payload_size: size,
                ..Opt::default()
            };
            assert_eq!(roundtrip(&opt).udp_payload_size, size);
        }
    }

    #[test]
    fn oversized_other_option_is_refused_at_encode() {
        let opt = Opt {
            options: vec![EdnsOption::Other {
                code: 9,
                data: vec![0; usize::from(u16::MAX) + 1],
            }],
            ..Opt::default()
        };
        assert_eq!(opt.to_record(), Err(WireError::BadEdnsOption));
    }

    #[test]
    fn covers_checks_prefix() {
        let cs = ClientSubnet::query("10.45.0.0".parse().unwrap(), 16);
        assert!(cs.covers("10.45.200.1".parse().unwrap()));
        assert!(!cs.covers("10.46.0.1".parse().unwrap()));
        assert!(!cs.covers("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn decode_rejects_nonzero_padding() {
        // family=1, source=24, scope=0, but 4 address bytes with a dirty
        // 4th byte would need source=32; instead craft 3 bytes fine then
        // a prefix of 20 with dirty low bits of byte 3.
        let data = [0x00, 0x01, 20, 0, 10, 45, 0xFF];
        assert!(matches!(
            ClientSubnet::decode(&data),
            Err(WireError::BadClientSubnet("non-zero padding bits"))
        ));
    }

    #[test]
    fn decode_rejects_unknown_family() {
        let data = [0x00, 0x03, 0, 0];
        assert!(ClientSubnet::decode(&data).is_err());
    }

    #[test]
    fn decode_rejects_excessive_prefix() {
        let data = [0x00, 0x01, 40, 0, 1, 2, 3, 4, 5];
        assert!(ClientSubnet::decode(&data).is_err());
    }

    #[test]
    fn truncate_addr_edge_cases() {
        let ip: IpAddr = "255.255.255.255".parse().unwrap();
        assert_eq!(truncate_addr(ip, 0), "0.0.0.0".parse::<IpAddr>().unwrap());
        assert_eq!(truncate_addr(ip, 32), ip);
        let v6: IpAddr = "ffff::ffff".parse().unwrap();
        assert_eq!(truncate_addr(v6, 128), v6);
        assert_eq!(truncate_addr(v6, 16), "ffff::".parse::<IpAddr>().unwrap());
    }
}
