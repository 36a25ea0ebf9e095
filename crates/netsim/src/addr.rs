//! IP prefixes (CIDR blocks) used for routing tables and for classifying
//! which provider range answered a query (Figure 3 of the paper).

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IP prefix such as `151.101.0.0/16` (Fastly) or `23.0.0.0/8`
/// (Akamai) — the exact ranges Figure 3 classifies responses into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    addr: IpAddr,
    prefix: u8,
}

/// Error parsing a CIDR from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CidrParseError(pub String);

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for CidrParseError {}

impl Cidr {
    /// Creates a prefix, normalising the address (host bits are zeroed).
    /// Prefixes longer than the address width are clamped.
    pub fn new(addr: IpAddr, prefix: u8) -> Self {
        let prefix = match addr {
            IpAddr::V4(_) => prefix.min(32),
            IpAddr::V6(_) => prefix.min(128),
        };
        Cidr {
            addr: dns_mask(addr, prefix),
            prefix,
        }
    }

    /// A /32 (or /128) covering exactly one address.
    pub fn host(addr: IpAddr) -> Self {
        match addr {
            IpAddr::V4(_) => Cidr::new(addr, 32),
            IpAddr::V6(_) => Cidr::new(addr, 128),
        }
    }

    /// The all-IPv4 default route `0.0.0.0/0`.
    pub fn v4_default() -> Self {
        Cidr::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0)
    }

    /// Network address (host bits zero).
    pub fn network(&self) -> IpAddr {
        self.addr
    }

    /// Prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix
    }

    /// True if `ip` falls inside this prefix. Families never match each
    /// other.
    pub fn contains(&self, ip: IpAddr) -> bool {
        match (self.addr, ip) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                dns_mask(ip, self.prefix) == self.addr
            }
            _ => false,
        }
    }

    /// The `i`-th host address inside the prefix (wrapping within the
    /// block) — how provider pools hand out cache-server addresses.
    pub fn nth_host(&self, i: u64) -> IpAddr {
        match self.addr {
            IpAddr::V4(net) => {
                let host_bits = 32 - u32::from(self.prefix);
                let span: u64 = if host_bits >= 32 {
                    1 << 32
                } else {
                    1u64 << host_bits
                };
                // Skip .0; wrap within the block.
                let offset = if span > 2 {
                    1 + (i % (span - 1))
                } else {
                    i % span
                };
                IpAddr::V4(Ipv4Addr::from(u32::from(net).wrapping_add(offset as u32)))
            }
            IpAddr::V6(net) => {
                let host_bits = 128 - u32::from(self.prefix);
                let offset = if host_bits >= 64 {
                    u128::from(i)
                } else {
                    u128::from(i % (1u64 << host_bits.max(1)))
                };
                IpAddr::V6(Ipv6Addr::from(u128::from(net).wrapping_add(offset)))
            }
        }
    }
}

fn dns_mask(addr: IpAddr, prefix: u8) -> IpAddr {
    match addr {
        IpAddr::V4(ip) => {
            let p = u32::from(prefix.min(32));
            let mask = if p == 0 { 0 } else { u32::MAX << (32 - p) };
            IpAddr::V4(Ipv4Addr::from(u32::from(ip) & mask))
        }
        IpAddr::V6(ip) => {
            let p = u32::from(prefix.min(128));
            let mask = if p == 0 { 0 } else { u128::MAX << (128 - p) };
            IpAddr::V6(Ipv6Addr::from(u128::from(ip) & mask))
        }
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix)
    }
}

impl FromStr for Cidr {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = match s.split_once('/') {
            Some((a, p)) => {
                let addr: IpAddr = a.parse().map_err(|_| CidrParseError(s.to_string()))?;
                let prefix: u8 = p.parse().map_err(|_| CidrParseError(s.to_string()))?;
                let max = if addr.is_ipv4() { 32 } else { 128 };
                if prefix > max {
                    return Err(CidrParseError(s.to_string()));
                }
                (addr, prefix)
            }
            None => {
                let addr: IpAddr = s.parse().map_err(|_| CidrParseError(s.to_string()))?;
                (addr, if addr.is_ipv4() { 32 } else { 128 })
            }
        };
        Ok(Cidr::new(addr, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let c: Cidr = "151.101.0.0/16".parse().unwrap();
        assert_eq!(c.to_string(), "151.101.0.0/16");
        assert_eq!(c.prefix_len(), 16);
    }

    #[test]
    fn bare_address_parses_as_host_route() {
        let c: Cidr = "10.0.0.7".parse().unwrap();
        assert_eq!(c.prefix_len(), 32);
        assert!(c.contains("10.0.0.7".parse().unwrap()));
        assert!(!c.contains("10.0.0.8".parse().unwrap()));
    }

    #[test]
    fn host_bits_are_normalised() {
        let c: Cidr = "23.55.124.99/24".parse().unwrap();
        assert_eq!(c.network(), "23.55.124.0".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn containment_matches_figure3_ranges() {
        let akamai_slash8: Cidr = "23.0.0.0/8".parse().unwrap();
        let akamai_site: Cidr = "23.55.124.0/24".parse().unwrap();
        let ip: IpAddr = "23.55.124.17".parse().unwrap();
        assert!(akamai_slash8.contains(ip));
        assert!(akamai_site.contains(ip));
        let fastly: Cidr = "151.101.0.0/16".parse().unwrap();
        assert!(!fastly.contains(ip));
    }

    #[test]
    fn families_never_match() {
        let v4: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(!v4.contains("::1".parse().unwrap()));
        let v6: Cidr = "::/0".parse().unwrap();
        assert!(!v6.contains("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn default_route_contains_everything_v4() {
        let d = Cidr::v4_default();
        assert!(d.contains("8.8.8.8".parse().unwrap()));
        assert!(d.contains("255.255.255.255".parse().unwrap()));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!("1.2.3.4/33".parse::<Cidr>().is_err());
        assert!("::1/129".parse::<Cidr>().is_err());
        assert!("banana/8".parse::<Cidr>().is_err());
        assert!("1.2.3.4/x".parse::<Cidr>().is_err());
    }

    #[test]
    fn nth_host_stays_inside_block_and_skips_network_address() {
        let c: Cidr = "192.0.2.0/24".parse().unwrap();
        for i in 0..600 {
            let ip = c.nth_host(i);
            assert!(c.contains(ip), "{ip} escaped {c}");
            assert_ne!(ip, c.network());
        }
    }

    #[test]
    fn nth_host_distinct_for_small_indices() {
        let c: Cidr = "13.249.0.0/16".parse().unwrap();
        let a = c.nth_host(0);
        let b = c.nth_host(1);
        assert_ne!(a, b);
    }

    #[test]
    fn host_cidr_v6() {
        let c = Cidr::host("2001:db8::5".parse().unwrap());
        assert_eq!(c.prefix_len(), 128);
        assert!(c.contains("2001:db8::5".parse().unwrap()));
    }
}
