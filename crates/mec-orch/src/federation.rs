//! Site-level failover across a federated set of MEC clusters.
//!
//! The single-cluster story ([`crate::Cluster`]) keeps a ClusterIP stable
//! through *pod* churn. This module extends that stability guarantee one
//! level up: through *site* churn. A [`Federation`] holds several sibling
//! clusters — one per MEC site, each with its own disjoint address plan —
//! all reachable from one external gateway (the aggregation point the
//! S-GWs hang off). When a whole site dies (regional outage: fabric and
//! pods down together), [`Federation::fail_over`] moves a Service's
//! ClusterIP to a surviving site:
//!
//! 1. the failed cluster [releases](Cluster::release_service) the
//!    address (control-plane state, so this works while the site is
//!    dark),
//! 2. the surviving cluster [adopts](Cluster::adopt_service) it, serving
//!    the *same* ClusterIP from its own pods, and
//! 3. the gateway gets a host route for the ClusterIP pointing at the
//!    surviving fabric — longest-prefix match overrides the dead site's
//!    service-CIDR route, so no client-side state changes at all.
//!
//! Clients never learn that the site behind the address changed; they
//! keep dialling the ClusterIP they cached. That is the orchestration
//! half of the paper's availability argument — the anycast catchment in
//! `netsim` plays the same trick one layer down, for the C-DNS address
//! itself.

use crate::cluster::{Cluster, ClusterConfig, PodHandle, ServiceHandle};
use netsim::{Cidr, LinkProfile, Network, NodeId};

/// A set of sibling MEC-site clusters behind one external gateway.
pub struct Federation {
    gateway: NodeId,
    gateway_link: LinkProfile,
    sites: Vec<SiteState>,
}

struct SiteState {
    cluster: Cluster,
    up: bool,
}

impl Federation {
    /// Creates an empty federation whose sites all attach to `gateway`
    /// over `link` (typically the metro backhaul profile).
    pub fn new(gateway: NodeId, link: LinkProfile) -> Self {
        Federation {
            gateway,
            gateway_link: link,
            sites: Vec::new(),
        }
    }

    /// Adds a MEC site: builds its cluster and wires it to the gateway.
    /// Returns the site index.
    ///
    /// # Panics
    /// Panics if `config`'s service or pod CIDR collides with an existing
    /// site — every site needs its own address plan (the fabric address
    /// is derived from the pod CIDR, and ClusterIPs must stay unique
    /// federation-wide for failover to be meaningful).
    pub fn add_site(&mut self, net: &mut Network, name: &str, config: ClusterConfig) -> usize {
        for site in &self.sites {
            let other = site.cluster.config();
            assert!(
                other.service_cidr != config.service_cidr && other.pod_cidr != config.pod_cidr,
                "site {name} reuses a CIDR already taken by {}",
                site.cluster.name()
            );
        }
        let cluster = Cluster::new(net, name, config);
        cluster.attach_external(net, self.gateway, self.gateway_link.clone());
        self.sites.push(SiteState { cluster, up: true });
        self.sites.len() - 1
    }

    /// The external gateway every site attaches to.
    pub fn gateway(&self) -> NodeId {
        self.gateway
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Whether a site is currently up.
    pub fn site_up(&self, idx: usize) -> bool {
        self.sites.get(idx).is_some_and(|s| s.up)
    }

    /// A site's cluster.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn site(&self, idx: usize) -> &Cluster {
        &self.sites[idx].cluster
    }

    /// A site's cluster, mutably (to launch pods, create Services, …).
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn site_mut(&mut self, idx: usize) -> &mut Cluster {
        &mut self.sites[idx].cluster
    }

    /// Crashes a whole site — fabric and pods down together, everything
    /// routed into it blackholed. No-op if already down.
    pub fn fail_site(&mut self, net: &mut Network, idx: usize) {
        let site = &mut self.sites[idx];
        if site.up {
            site.cluster.set_up(net, false);
            site.up = false;
        }
    }

    /// Restores a crashed site. Services failed away in the meantime do
    /// NOT move back automatically — fail-back is a policy decision, and
    /// the caller makes it with another [`Federation::fail_over`].
    pub fn restore_site(&mut self, net: &mut Network, idx: usize) {
        let site = &mut self.sites[idx];
        if !site.up {
            site.cluster.set_up(net, true);
            site.up = true;
        }
    }

    /// Moves `svc` from site `from` to site `to`, which serves it from
    /// `endpoints` (pods already launched at `to`). The ClusterIP
    /// survives: the gateway gets a host route overriding `from`'s
    /// service-CIDR route, and clients keep using the address unchanged.
    ///
    /// # Panics
    /// Panics if `from == to`, on out-of-range indices, or if `to` is
    /// down.
    pub fn fail_over(
        &mut self,
        net: &mut Network,
        svc: &ServiceHandle,
        from: usize,
        to: usize,
        endpoints: &[PodHandle],
    ) {
        assert_ne!(from, to, "fail_over needs two distinct sites");
        assert!(self.sites[to].up, "cannot fail over onto a dead site");
        self.sites[from].cluster.release_service(net, svc);
        self.sites[to].cluster.adopt_service(net, svc, endpoints);
        let target_fabric = self.sites[to].cluster.fabric();
        net.add_route(self.gateway, Cidr::host(svc.cluster_ip), target_fabric);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Visibility;
    use netsim::{Datagram, NodeBehavior, NodeContext, SimDuration, SimTime};
    use std::net::IpAddr;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    struct EchoTag(u8);
    impl NodeBehavior for EchoTag {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            ctx.send_datagram(dgram.reply_with(vec![self.0]));
        }
    }

    struct Client {
        target: IpAddr,
        shots: usize,
        replies: Vec<(IpAddr, u8, SimTime)>,
    }
    impl NodeBehavior for Client {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.shots {
                ctx.set_timer(SimDuration::from_millis(10 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: netsim::TimerToken, _d: u64) {
            ctx.send(self.target, 53, vec![0xAB]);
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.replies.push((dgram.src, dgram.payload[0], ctx.now()));
        }
    }

    fn site_config(i: u8) -> ClusterConfig {
        ClusterConfig {
            service_cidr: Cidr::new(ip(&format!("10.{}.0.0", 96 + i)), 16),
            pod_cidr: Cidr::new(ip(&format!("10.{}.0.0", 244 - i)), 16),
            ..ClusterConfig::default()
        }
    }

    struct Nop;
    impl NodeBehavior for Nop {}

    #[test]
    fn colliding_site_cidrs_are_rejected() {
        let mut net = Network::new(1);
        let gw = net.add_node("gw", [ip("192.0.2.1")], Nop);
        let mut fed = Federation::new(gw, LinkProfile::lan());
        fed.add_site(&mut net, "site-a", site_config(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fed.add_site(&mut net, "site-b", site_config(0));
        }));
        assert!(result.is_err(), "duplicate address plan must be rejected");
    }

    #[test]
    fn cluster_ip_survives_a_whole_site_outage() {
        let mut net = Network::new(42);
        // The client doubles as the external gateway: both sites attach
        // to it directly, like S-GWs aggregating at a metro PoP.
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: ip("0.0.0.0"), // patched below once the svc exists
                shots: 40,
                replies: vec![],
            },
        );
        let mut fed = Federation::new(client, LinkProfile::lan());
        let a = fed.add_site(&mut net, "site-a", site_config(0));
        let b = fed.add_site(&mut net, "site-b", site_config(1));

        fed.site_mut(a).add_namespace("cdn", Visibility::Public);
        fed.site_mut(b).add_namespace("cdn", Visibility::Public);
        let pod_a = fed
            .site_mut(a)
            .launch_pod(&mut net, "cdn", "tr-a", EchoTag(0));
        let svc = fed
            .site_mut(a)
            .create_service(&mut net, "cdn", "trafficrouter", &[pod_a]);
        net.behavior_mut::<Client>(client).target = svc.cluster_ip;

        // 150 ms in, the whole of site A goes dark; 30 ms later the
        // federation reacts: a standby pod at B adopts the ClusterIP.
        net.run_until(SimTime::ZERO + SimDuration::from_millis(150));
        fed.fail_site(&mut net, a);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(180));
        let pod_b = fed
            .site_mut(b)
            .launch_pod(&mut net, "cdn", "tr-b", EchoTag(1));
        fed.fail_over(&mut net, &svc, a, b, &[pod_b]);
        net.run();

        let replies = &net.behavior::<Client>(client).replies;
        // Shots land every 10 ms; only the ~3 fired during the 30 ms dark
        // window can be lost.
        assert!(replies.len() >= 36, "got {} replies", replies.len());
        assert!(
            replies.iter().all(|&(src, _, _)| src == svc.cluster_ip),
            "the ClusterIP façade must survive the site"
        );
        let cutover = SimTime::ZERO + SimDuration::from_millis(180);
        for &(_, tag, at) in replies {
            if at < cutover {
                assert_eq!(tag, 0, "pre-outage traffic served by site A");
            } else {
                assert_eq!(tag, 1, "post-failover traffic served by site B");
            }
        }
        assert!(!fed.site_up(a) && fed.site_up(b));
        // Site A's registry no longer claims the service; B's does.
        assert!(fed.site(a).service("cdn", "trafficrouter").is_none());
        assert_eq!(
            fed.site(b)
                .service("cdn", "trafficrouter")
                .map(|s| s.cluster_ip),
            Some(svc.cluster_ip)
        );
        assert_eq!(
            fed.site(b)
                .registry()
                .lookup("trafficrouter.cdn.svc.cluster.local", Visibility::Public),
            Some(svc.cluster_ip)
        );
    }

    #[test]
    fn restored_site_does_not_steal_the_service_back() {
        let mut net = Network::new(7);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: ip("0.0.0.0"),
                shots: 30,
                replies: vec![],
            },
        );
        let mut fed = Federation::new(client, LinkProfile::lan());
        let a = fed.add_site(&mut net, "site-a", site_config(0));
        let b = fed.add_site(&mut net, "site-b", site_config(1));
        fed.site_mut(a).add_namespace("cdn", Visibility::Public);
        fed.site_mut(b).add_namespace("cdn", Visibility::Public);
        let pod_a = fed
            .site_mut(a)
            .launch_pod(&mut net, "cdn", "tr-a", EchoTag(0));
        let svc = fed
            .site_mut(a)
            .create_service(&mut net, "cdn", "trafficrouter", &[pod_a]);
        net.behavior_mut::<Client>(client).target = svc.cluster_ip;

        net.run_until(SimTime::ZERO + SimDuration::from_millis(80));
        fed.fail_site(&mut net, a);
        let pod_b = fed
            .site_mut(b)
            .launch_pod(&mut net, "cdn", "tr-b", EchoTag(1));
        fed.fail_over(&mut net, &svc, a, b, &[pod_b]);
        // Site A comes back mid-run; fail-back is explicit, so traffic
        // must stay pinned at B.
        net.run_until(SimTime::ZERO + SimDuration::from_millis(160));
        fed.restore_site(&mut net, a);
        net.run();

        let replies = &net.behavior::<Client>(client).replies;
        assert!(replies.len() >= 28, "got {} replies", replies.len());
        let after_restore: Vec<u8> = replies
            .iter()
            .filter(|&&(_, _, at)| at > SimTime::ZERO + SimDuration::from_millis(165))
            .map(|&(_, tag, _)| tag)
            .collect();
        assert!(!after_restore.is_empty());
        assert!(
            after_restore.iter().all(|&t| t == 1),
            "restored site must not reclaim traffic: {after_restore:?}"
        );
    }
}
