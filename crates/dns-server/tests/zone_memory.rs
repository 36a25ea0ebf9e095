//! An authoritative zone keeps no trace of the names it is asked:
//! looking up distinct names leaves the process's memory flat.
//!
//! The only test in this binary, so no other test shares the process
//! whose resident set it reads, from Linux's `/proc/self/status`.
#![cfg(target_os = "linux")]

use dns_server::{LookupResult, Zone};
use dns_wire::{Name, RrType};
use std::net::Ipv4Addr;

const WARM_UP: usize = 20_000;
const MEASURED: usize = 200_000;
const MAX_GROWTH_KB: u64 = 1024;

/// This process's resident set, in kB.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// Looks up the distinct names `probe-<i>` for `i` in `range`, none of
/// which the zone holds.
fn ask(zone: &Zone, range: std::ops::Range<usize>) {
    for i in range {
        let qname = Name::parse(&format!("probe-{i}.video.mycdn.ciab.test")).unwrap();
        assert_eq!(zone.lookup(&qname, RrType::A), LookupResult::NxDomain);
    }
}

#[test]
fn lookups_of_200k_distinct_names_keep_memory_flat() {
    let mut zone = Zone::new(Name::parse("mycdn.ciab.test").unwrap());
    zone.add_a(
        Name::parse("cache-1.mycdn.ciab.test").unwrap(),
        Ipv4Addr::new(10, 0, 0, 11),
        30,
    );
    ask(&zone, 0..WARM_UP);
    let before = vm_rss_kb();
    ask(&zone, WARM_UP..WARM_UP + MEASURED);
    let after = vm_rss_kb();
    let growth = after.saturating_sub(before);
    assert!(
        growth < MAX_GROWTH_KB,
        "RSS grew {growth} kB ({before} -> {after}) over {MEASURED} lookups"
    );
}
