//! libpcap export of tap captures — open simulated traffic in Wireshark.
//!
//! The simulator's answer to the `--pcap` option every smoltcp example
//! carries: enable a payload tap on a node
//! ([`crate::Network::enable_tap_with_payloads`]), run the experiment,
//! and write the records out as a classic pcap file with synthesized
//! IPv4/UDP framing:
//!
//! ```
//! use netsim::{pcap, Network, NodeBehavior, NodeContext, LinkProfile};
//! # use std::net::IpAddr;
//! struct Hello;
//! impl NodeBehavior for Hello {
//!     fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
//!         ctx.send("10.0.0.2".parse().unwrap(), 53, b"hi".to_vec());
//!     }
//! }
//! struct Nop;
//! impl NodeBehavior for Nop {}
//! let mut net = Network::new(1);
//! let a = net.add_node("a", ["10.0.0.1".parse::<IpAddr>().unwrap()], Hello);
//! let b = net.add_node("b", ["10.0.0.2".parse::<IpAddr>().unwrap()], Nop);
//! net.connect(a, b, LinkProfile::lan());
//! net.enable_tap_with_payloads(b);
//! net.run();
//! let records = net.take_tap(b);
//! let bytes = pcap::write_pcap(&records);
//! assert_eq!(&bytes[..4], &0xa1b2_c3d4u32.to_le_bytes());
//! ```
//!
//! Only IPv4 records with captured payloads are written (the format
//! chosen is LINKTYPE_RAW, so each packet starts at the IP header);
//! [`write_pcap`] returns the file bytes, [`export`] also reports how
//! many records were skipped.

use crate::trace::TapRecord;
use std::net::IpAddr;

/// Classic pcap magic, microsecond timestamps, little endian.
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin with the IPv4/IPv6 header.
const LINKTYPE_RAW: u32 = 101;

/// Result of a pcap export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapExport {
    /// The complete file bytes.
    pub bytes: Vec<u8>,
    /// Records written.
    pub written: usize,
    /// Records skipped (IPv6, or captured without payloads).
    pub skipped: usize,
}

/// Serializes tap records to a pcap file, skipping what cannot be
/// represented. See [`write_pcap`] for the common case.
pub fn export(records: &[TapRecord]) -> PcapExport {
    let mut bytes = Vec::with_capacity(24 + records.len() * 64);
    // Global header.
    bytes.extend_from_slice(&MAGIC.to_le_bytes());
    bytes.extend_from_slice(&2u16.to_le_bytes()); // major
    bytes.extend_from_slice(&4u16.to_le_bytes()); // minor
    bytes.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    bytes.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    bytes.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    bytes.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
    let mut written = 0;
    let mut skipped = 0;
    for r in records {
        let (IpAddr::V4(src), IpAddr::V4(dst), Some(payload)) = (r.src, r.dst, r.payload.as_ref())
        else {
            skipped += 1;
            continue;
        };
        let packet = ipv4_udp_packet(src, dst, r.src_port, r.dst_port, payload);
        let us = r.time.as_nanos() / 1_000;
        bytes.extend_from_slice(
            &u32::try_from(us / 1_000_000)
                .unwrap_or(u32::MAX)
                .to_le_bytes(),
        );
        bytes.extend_from_slice(&((us % 1_000_000) as u32).to_le_bytes());
        bytes.extend_from_slice(&(packet.len() as u32).to_le_bytes()); // incl_len
        bytes.extend_from_slice(&(packet.len() as u32).to_le_bytes()); // orig_len
        bytes.extend_from_slice(&packet);
        written += 1;
    }
    PcapExport {
        bytes,
        written,
        skipped,
    }
}

/// Serializes tap records to pcap file bytes (IPv4 + payload records
/// only; others are silently skipped — use [`export`] for the counts).
pub fn write_pcap(records: &[TapRecord]) -> Vec<u8> {
    export(records).bytes
}

/// Builds an IPv4+UDP frame around the payload. The IP checksum is
/// computed properly (Wireshark flags bad ones); the UDP checksum is 0
/// ("not computed"), which is legal for IPv4.
fn ipv4_udp_packet(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp_len = 8 + payload.len();
    let total_len = 20 + udp_len;
    let mut p = Vec::with_capacity(total_len);
    p.push(0x45); // version 4, IHL 5
    p.push(0x00); // DSCP/ECN
    p.extend_from_slice(&(total_len as u16).to_be_bytes());
    p.extend_from_slice(&0u16.to_be_bytes()); // identification
    p.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    p.push(64); // TTL
    p.push(17); // UDP
    p.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    p.extend_from_slice(&src.octets());
    p.extend_from_slice(&dst.octets());
    let checksum = ipv4_checksum(&p[..20]);
    p[10..12].copy_from_slice(&checksum.to_be_bytes());
    // UDP header.
    p.extend_from_slice(&src_port.to_be_bytes());
    p.extend_from_slice(&dst_port.to_be_bytes());
    p.extend_from_slice(&(udp_len as u16).to_be_bytes());
    p.extend_from_slice(&0u16.to_be_bytes()); // checksum unset
    p.extend_from_slice(payload);
    p
}

/// RFC 1071 internet checksum over a header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u32::from(chunk[0]) << 8 | u32::from(*chunk.get(1).unwrap_or(&0));
        sum += word;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeId;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::TapDirection;

    fn record(payload: Option<Vec<u8>>, v6: bool, ms: u64) -> TapRecord {
        TapRecord {
            time: SimTime::ZERO + SimDuration::from_millis(ms),
            node: NodeId(0),
            direction: TapDirection::Forward,
            src: if v6 {
                "2001:db8::1".parse().unwrap()
            } else {
                "10.0.0.1".parse().unwrap()
            },
            src_port: 40000,
            dst: "10.0.0.2".parse().unwrap(),
            dst_port: 53,
            len: payload.as_ref().map_or(0, Vec::len),
            id_hint: None,
            payload,
        }
    }

    #[test]
    fn global_header_is_valid() {
        let out = export(&[]);
        assert_eq!(out.bytes.len(), 24);
        assert_eq!(&out.bytes[..4], &MAGIC.to_le_bytes());
        assert_eq!(
            u32::from_le_bytes(out.bytes[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
        assert_eq!(out.written, 0);
    }

    #[test]
    fn packet_records_have_correct_framing_and_timestamps() {
        let payload = vec![0xAB; 30];
        let out = export(&[record(Some(payload.clone()), false, 1234)]);
        assert_eq!(out.written, 1);
        let rec = &out.bytes[24..];
        let ts_sec = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let ts_usec = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(ts_sec, 1);
        assert_eq!(ts_usec, 234_000);
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        assert_eq!(incl, 20 + 8 + 30);
        let packet = &rec[16..16 + incl];
        // IPv4 header sanity.
        assert_eq!(packet[0], 0x45);
        assert_eq!(packet[9], 17, "protocol must be UDP");
        assert_eq!(&packet[12..16], &[10, 0, 0, 1]);
        assert_eq!(&packet[16..20], &[10, 0, 0, 2]);
        // UDP ports and length.
        assert_eq!(
            u16::from_be_bytes(packet[20..22].try_into().unwrap()),
            40000
        );
        assert_eq!(u16::from_be_bytes(packet[22..24].try_into().unwrap()), 53);
        assert_eq!(
            u16::from_be_bytes(packet[24..26].try_into().unwrap()) as usize,
            8 + 30
        );
        assert_eq!(&packet[28..], &payload[..]);
    }

    #[test]
    fn ip_checksum_verifies() {
        let payload = vec![1, 2, 3];
        let out = export(&[record(Some(payload), false, 0)]);
        let packet = &out.bytes[24 + 16..];
        // Re-summing a header including its checksum yields 0.
        let mut sum = 0u32;
        for chunk in packet[..20].chunks(2) {
            sum += u32::from(chunk[0]) << 8 | u32::from(chunk[1]);
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum as u16, 0xFFFF, "checksum must verify");
    }

    #[test]
    fn v6_and_payloadless_records_are_skipped_with_counts() {
        let out = export(&[
            record(Some(vec![1]), false, 0),
            record(None, false, 1),
            record(Some(vec![2]), true, 2),
        ]);
        assert_eq!(out.written, 1);
        assert_eq!(out.skipped, 2);
    }

    #[test]
    fn multiple_records_concatenate() {
        let out = export(&[
            record(Some(vec![0; 10]), false, 0),
            record(Some(vec![0; 20]), false, 5),
        ]);
        assert_eq!(out.written, 2);
        let expected = 24 + (16 + 20 + 8 + 10) + (16 + 20 + 8 + 20);
        assert_eq!(out.bytes.len(), expected);
    }
}
