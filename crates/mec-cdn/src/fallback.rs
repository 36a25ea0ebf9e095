//! §3's P1 workarounds: what happens to queries the MEC DNS does not
//! serve.
//!
//! *"A simple workaround ... would have the MEC DNS ignore queries not
//! related to MEC-CDN, and have DNS requests be multicast to both MEC
//! DNS and the network's L-DNS, or even be forwarded to L-DNS on timeout
//! from MEC DNS."* [`P1Policy`] names the three client-side dispatch
//! policies; the `fallback` experiment in [`crate::experiments`]
//! measures their consequences: best-effort degradation, never
//! unavailability.

use dns_server::SendStrategy;
use netsim::SimDuration;
use std::net::IpAddr;

/// How a UE dispatches DNS queries when a MEC DNS is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P1Policy {
    /// Only the MEC DNS — non-MEC names fail (the strawman).
    MecOnly,
    /// Multicast to the MEC DNS and the provider's L-DNS; first answer
    /// wins.
    MulticastBoth,
    /// Ask the MEC DNS; fall back to the provider's L-DNS after the
    /// given silence.
    FallbackAfter(SimDuration),
}

impl P1Policy {
    /// The stub-engine strategy implementing this policy.
    pub fn strategy(self, mec_dns: IpAddr, provider_ldns: IpAddr) -> SendStrategy {
        match self {
            P1Policy::MecOnly => SendStrategy::Unicast(mec_dns),
            P1Policy::MulticastBoth => SendStrategy::Multicast(vec![mec_dns, provider_ldns]),
            P1Policy::FallbackAfter(timeout) => SendStrategy::FallbackOnTimeout {
                primary: mec_dns,
                fallback: provider_ldns,
                timeout,
            },
        }
    }

    /// Label for figures.
    pub fn label(self) -> &'static str {
        match self {
            P1Policy::MecOnly => "mec-only",
            P1Policy::MulticastBoth => "multicast",
            P1Policy::FallbackAfter(_) => "fallback-on-timeout",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_map_to_strategies() {
        let mec: IpAddr = "10.96.0.1".parse().unwrap();
        let provider: IpAddr = "10.44.9.1".parse().unwrap();
        assert_eq!(
            P1Policy::MecOnly.strategy(mec, provider),
            SendStrategy::Unicast(mec)
        );
        match P1Policy::MulticastBoth.strategy(mec, provider) {
            SendStrategy::Multicast(v) => assert_eq!(v, vec![mec, provider]),
            other => panic!("{other:?}"),
        }
        match P1Policy::FallbackAfter(SimDuration::from_millis(80)).strategy(mec, provider) {
            SendStrategy::FallbackOnTimeout {
                primary,
                fallback,
                timeout,
            } => {
                assert_eq!(primary, mec);
                assert_eq!(fallback, provider);
                assert_eq!(timeout, SimDuration::from_millis(80));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            P1Policy::MecOnly.label(),
            P1Policy::MulticastBoth.label(),
            P1Policy::FallbackAfter(SimDuration::ZERO).label(),
        ];
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
    }
}
