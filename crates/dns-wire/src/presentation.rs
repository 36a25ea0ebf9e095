//! Presentation-format (zone-file style) record parsing.
//!
//! A pragmatic subset of RFC 1035 master-file syntax — enough to write
//! zones the way operators do:
//!
//! ```
//! use dns_wire::Record;
//! let r: Record = "video.demo1.mycdn.ciab.test. 30 IN A 10.96.0.20".parse().unwrap();
//! assert_eq!(r.to_string(), "video.demo1.mycdn.ciab.test. 30 IN A 10.96.0.20");
//! ```
//!
//! Supported: `A`, `AAAA`, `CNAME`, `NS`, `PTR`, `MX`, `TXT`, `SRV`,
//! `SOA`. Not supported (deliberately): `$ORIGIN`/`$TTL` directives,
//! multi-line parentheses, escapes inside TXT beyond simple quoting.

use crate::error::WireError;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::{Record, RrClass};
use std::fmt;
use std::str::FromStr;

/// Error from parsing presentation format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresentationError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PresentationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record parse error: {}", self.message)
    }
}

impl std::error::Error for PresentationError {}

impl From<WireError> for PresentationError {
    fn from(e: WireError) -> Self {
        PresentationError {
            message: e.to_string(),
        }
    }
}

fn err(message: impl Into<String>) -> PresentationError {
    PresentationError {
        message: message.into(),
    }
}

impl FromStr for Record {
    type Err = PresentationError;

    /// Parses `"<name> <ttl> IN <type> <rdata...>"` (class optional,
    /// defaults to IN).
    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let mut tokens = line.split_whitespace().peekable();
        let name: Name = tokens
            .next()
            .ok_or_else(|| err("empty record line"))?
            .parse()?;
        let ttl: u32 = tokens
            .next()
            .ok_or_else(|| err("missing TTL"))?
            .parse()
            .map_err(|_| err("TTL is not a number"))?;
        // Optional class.
        let mut tok = tokens.next().ok_or_else(|| err("missing type"))?;
        let class = match tok.to_ascii_uppercase().as_str() {
            "IN" => {
                tok = tokens.next().ok_or_else(|| err("missing type"))?;
                RrClass::In
            }
            "CH" => {
                tok = tokens.next().ok_or_else(|| err("missing type"))?;
                RrClass::Ch
            }
            _ => RrClass::In,
        };
        let rtype = tok.to_ascii_uppercase();
        let rest: Vec<&str> = tokens.collect();
        let need = |n: usize| -> Result<(), PresentationError> {
            if rest.len() < n {
                Err(err(format!(
                    "{rtype} needs {n} field(s), got {}",
                    rest.len()
                )))
            } else {
                Ok(())
            }
        };
        let rdata = match rtype.as_str() {
            "A" => {
                need(1)?;
                RData::A(rest[0].parse().map_err(|_| err("bad IPv4 address"))?)
            }
            "AAAA" => {
                need(1)?;
                RData::Aaaa(rest[0].parse().map_err(|_| err("bad IPv6 address"))?)
            }
            "CNAME" => {
                need(1)?;
                RData::Cname(rest[0].parse()?)
            }
            "NS" => {
                need(1)?;
                RData::Ns(rest[0].parse()?)
            }
            "PTR" => {
                need(1)?;
                RData::Ptr(rest[0].parse()?)
            }
            "MX" => {
                need(2)?;
                RData::Mx {
                    preference: rest[0].parse().map_err(|_| err("bad MX preference"))?,
                    exchange: rest[1].parse()?,
                }
            }
            "TXT" => {
                if rest.is_empty() {
                    return Err(err("TXT needs at least one string"));
                }
                // Re-join and split on quotes; bare tokens are strings too.
                let joined = rest.join(" ");
                let mut strings: Vec<Vec<u8>> = Vec::new();
                if joined.contains('"') {
                    let mut in_quote = false;
                    let mut current = Vec::new();
                    for &b in joined.as_bytes() {
                        match b {
                            b'"' => {
                                if in_quote {
                                    strings.push(std::mem::take(&mut current));
                                }
                                in_quote = !in_quote;
                            }
                            _ if in_quote => current.push(b),
                            _ => {}
                        }
                    }
                    if in_quote {
                        return Err(err("unterminated TXT quote"));
                    }
                } else {
                    strings.extend(rest.iter().map(|s| s.as_bytes().to_vec()));
                }
                RData::Txt(strings)
            }
            "SRV" => {
                need(4)?;
                RData::Srv {
                    priority: rest[0].parse().map_err(|_| err("bad SRV priority"))?,
                    weight: rest[1].parse().map_err(|_| err("bad SRV weight"))?,
                    port: rest[2].parse().map_err(|_| err("bad SRV port"))?,
                    target: rest[3].parse()?,
                }
            }
            "SOA" => {
                need(7)?;
                RData::Soa {
                    mname: rest[0].parse()?,
                    rname: rest[1].parse()?,
                    serial: rest[2].parse().map_err(|_| err("bad SOA serial"))?,
                    refresh: rest[3].parse().map_err(|_| err("bad SOA refresh"))?,
                    retry: rest[4].parse().map_err(|_| err("bad SOA retry"))?,
                    expire: rest[5].parse().map_err(|_| err("bad SOA expire"))?,
                    minimum: rest[6].parse().map_err(|_| err("bad SOA minimum"))?,
                }
            }
            other => return Err(err(format!("unsupported record type {other}"))),
        };
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn parse(s: &str) -> Record {
        s.parse().unwrap()
    }

    #[test]
    fn a_record_with_and_without_class() {
        let r = parse("cache-1.mycdn.ciab.test. 30 IN A 10.96.0.20");
        assert_eq!(r.rdata.as_a(), Some(Ipv4Addr::new(10, 96, 0, 20)));
        assert_eq!(r.ttl, 30);
        let r2 = parse("cache-1.mycdn.ciab.test. 30 A 10.96.0.20");
        assert_eq!(r, r2);
    }

    #[test]
    fn all_supported_types_roundtrip_via_display() {
        for line in [
            "a.test. 60 IN A 192.0.2.1",
            "a.test. 60 IN AAAA 2001:db8::1",
            "www.test. 300 IN CNAME a.test.",
            "test. 86400 IN NS ns1.test.",
            "1.2.0.192.in-addr.arpa. 60 IN PTR a.test.",
            "test. 3600 IN MX 10 mx.test.",
            "_dns._udp.test. 60 IN SRV 1 5 53 dns.test.",
            "test. 3600 IN SOA ns1.test. hostmaster.test. 2020110401 7200 900 1209600 30",
        ] {
            let r: Record = line.parse().unwrap();
            let again: Record = r.to_string().parse().unwrap();
            assert_eq!(again, r, "roundtrip failed for {line}");
        }
    }

    #[test]
    fn txt_quoted_and_bare() {
        let r = parse(r#"t.test. 60 IN TXT "hello world" "second""#);
        assert_eq!(
            r.rdata,
            RData::Txt(vec![b"hello world".to_vec(), b"second".to_vec()])
        );
        let r = parse("t.test. 60 IN TXT bare token");
        assert_eq!(
            r.rdata,
            RData::Txt(vec![b"bare".to_vec(), b"token".to_vec()])
        );
    }

    #[test]
    fn chaos_class() {
        let r = parse("version.bind. 0 CH TXT served");
        assert_eq!(r.class, RrClass::Ch);
    }

    #[test]
    fn informative_errors() {
        assert!("".parse::<Record>().is_err());
        assert!("a.test.".parse::<Record>().is_err());
        assert!("a.test. x IN A 1.2.3.4".parse::<Record>().is_err());
        assert!("a.test. 60 IN A banana".parse::<Record>().is_err());
        assert!("a.test. 60 IN WKS 1".parse::<Record>().is_err());
        assert!("a.test. 60 IN MX ten mx.test.".parse::<Record>().is_err());
        let e = "a.test. 60 IN TXT \"unterminated"
            .parse::<Record>()
            .unwrap_err();
        assert!(e.to_string().contains("unterminated"));
    }

    #[test]
    fn wire_roundtrip_of_parsed_record() {
        use crate::wire::{Reader, Writer};
        let r = parse("_dns._udp.test. 60 IN SRV 1 5 53 dns.test.");
        let mut w = Writer::new();
        r.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut rd = Reader::new(&buf);
        assert_eq!(Record::decode(&mut rd).unwrap(), r);
    }
}
