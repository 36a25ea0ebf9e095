//! Latency calibration: air interfaces and access networks.

use netsim::{Latency, LinkProfile};

/// Air-interface latency models.
///
/// Calibration anchors from the paper's §4: *"a dominant component of
/// the MEC L-DNS time is the wireless LTE latency (approx. 10 ms one
/// way)"*, i.e. ≈20 ms of the ≈29.4 ms MEC bar is the radio. The NR
/// profile encodes the sub-2 ms one-way target of 5G URLLC-ish
/// deployments, used by the `--nr` projection of the Figure 5 bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioProfile {
    /// srsLTE-over-USRP testbed air latency: ~10 ms one way, mildly
    /// right-skewed (scheduler grants, retransmissions).
    Lte,
    /// 5G NR air latency: ~1.5 ms one way.
    Nr,
    /// A congested/edge-of-cell LTE radio: same floor, heavier tail.
    LteLoaded,
}

impl RadioProfile {
    /// One-way link model for this radio.
    pub fn link(self) -> LinkProfile {
        match self {
            RadioProfile::Lte => LinkProfile::with_latency(Latency::skewed(8.0, 10.0, 1.8))
                .with_bandwidth_bps(75_000_000),
            RadioProfile::Nr => LinkProfile::with_latency(Latency::skewed(0.8, 1.5, 0.4))
                .with_bandwidth_bps(1_000_000_000),
            RadioProfile::LteLoaded => LinkProfile::with_latency(Latency::skewed(8.0, 14.0, 6.0))
                .with_loss(0.005)
                .with_bandwidth_bps(20_000_000),
        }
    }

    /// Mean one-way air latency in milliseconds (for calibration tests).
    pub fn mean_one_way_ms(self) -> f64 {
        self.link().latency.mean_ms()
    }
}

/// The three Internet connectivity types of Figure 2, as the latency
/// model of the *access hop* (device to first-hop router/gateway).
///
/// Figure 2's shape: `wired-campus` is fast and tight, `wifi-home` adds
/// a few milliseconds and some jitter, `cellular-mobile` is both far
/// slower on average and far more variable — "a substantially higher
/// delay and higher response time variability" (§2, observation 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Campus Ethernet to the campus resolver network.
    WiredCampus,
    /// Home Wi-Fi behind a consumer router.
    HomeWifi,
    /// Cellular hotspot: LTE air + RAN stack + opaque cellular L-DNS
    /// placement (§2: "the RAN software stack and the opaque deployment
    /// of cellular L-DNS").
    CellularMobile,
}

impl AccessKind {
    /// The device's access-hop link model.
    pub fn access_link(self) -> LinkProfile {
        match self {
            AccessKind::WiredCampus => LinkProfile::with_latency(Latency::UniformMs(0.3, 1.0))
                .with_bandwidth_bps(1_000_000_000),
            AccessKind::HomeWifi => {
                // Contention + retries: skewed around a few ms.
                LinkProfile::with_latency(Latency::skewed(1.5, 4.0, 3.0))
                    .with_bandwidth_bps(100_000_000)
            }
            AccessKind::CellularMobile => RadioProfile::Lte.link(),
        }
    }

    /// Distance (one-way latency model) from the access gateway to the
    /// L-DNS this kind of subscriber is assigned. Campus resolvers are
    /// on-site; home ISP resolvers a few ms upstream; cellular L-DNS
    /// sits behind the core network, far from the RAN (§2).
    pub fn ldns_link(self) -> LinkProfile {
        match self {
            AccessKind::WiredCampus => LinkProfile::with_latency(Latency::UniformMs(0.5, 1.5)),
            AccessKind::HomeWifi => LinkProfile::with_latency(Latency::skewed(2.0, 4.5, 2.0)),
            AccessKind::CellularMobile => {
                // Core network traversal + opaque resolver placement,
                // far behind the P-GW (§2's cellular L-DNS findings).
                LinkProfile::with_latency(Latency::skewed(12.0, 20.0, 12.0))
            }
        }
    }

    /// All three kinds, in the order the paper's figures list them.
    pub fn all() -> [AccessKind; 3] {
        [
            AccessKind::WiredCampus,
            AccessKind::HomeWifi,
            AccessKind::CellularMobile,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::WiredCampus => "wired-campus",
            AccessKind::HomeWifi => "wifi-home",
            AccessKind::CellularMobile => "cellular-mobile",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lte_air_is_about_ten_ms_one_way() {
        let m = RadioProfile::Lte.mean_one_way_ms();
        assert!(
            (9.0..11.5).contains(&m),
            "LTE one-way mean {m} off calibration"
        );
    }

    #[test]
    fn nr_is_drastically_faster_than_lte() {
        assert!(RadioProfile::Nr.mean_one_way_ms() * 4.0 < RadioProfile::Lte.mean_one_way_ms());
    }

    #[test]
    fn loaded_lte_is_slower_and_lossy() {
        assert!(RadioProfile::LteLoaded.mean_one_way_ms() > RadioProfile::Lte.mean_one_way_ms());
        assert!(RadioProfile::LteLoaded.link().loss > 0.0);
    }

    #[test]
    fn access_ordering_matches_figure2() {
        // wired < wifi < cellular, for the combined access+resolver path.
        let total =
            |k: AccessKind| k.access_link().latency.mean_ms() + k.ldns_link().latency.mean_ms();
        assert!(total(AccessKind::WiredCampus) < total(AccessKind::HomeWifi));
        assert!(total(AccessKind::HomeWifi) < total(AccessKind::CellularMobile));
    }

    #[test]
    fn cellular_is_most_variable() {
        // Spread of the full device → L-DNS path (what Figure 2's
        // whiskers show), sampled many times.
        let spread = |k: AccessKind| {
            let mut rng = StdRng::seed_from_u64(1);
            let access = k.access_link().latency;
            let ldns = k.ldns_link().latency;
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for _ in 0..5000 {
                let v =
                    access.sample(&mut rng).as_millis_f64() + ldns.sample(&mut rng).as_millis_f64();
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo
        };
        let cellular = spread(AccessKind::CellularMobile);
        assert!(cellular > spread(AccessKind::WiredCampus) * 3.0);
        assert!(cellular > spread(AccessKind::HomeWifi));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(AccessKind::WiredCampus.label(), "wired-campus");
        assert_eq!(AccessKind::HomeWifi.label(), "wifi-home");
        assert_eq!(AccessKind::CellularMobile.label(), "cellular-mobile");
        assert_eq!(AccessKind::all().len(), 3);
    }
}
