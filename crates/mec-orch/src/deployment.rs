//! Deployments: replica sets with scaling, the unit the paper's
//! "regardless of any scaling event" guarantee is exercised against.

use crate::cluster::{Cluster, PodHandle, ServiceHandle};
use netsim::{Network, NodeBehavior};

/// A named replica set managed by the cluster.
#[derive(Debug)]
pub struct DeploymentHandle {
    /// Deployment name; pods are `<name>-<ordinal>`.
    pub name: String,
    /// Namespace.
    pub namespace: String,
    /// Live replicas, in creation order.
    pub pods: Vec<PodHandle>,
    next_ordinal: usize,
}

impl DeploymentHandle {
    /// Current replica count.
    pub fn replicas(&self) -> usize {
        self.pods.len()
    }
}

impl Cluster {
    /// Creates a deployment of `replicas` pods, each built by
    /// `factory(ordinal)`.
    pub fn create_deployment<B, F>(
        &mut self,
        net: &mut Network,
        ns: &str,
        name: &str,
        replicas: usize,
        mut factory: F,
    ) -> DeploymentHandle
    where
        B: NodeBehavior + 'static,
        F: FnMut(usize) -> B,
    {
        let mut handle = DeploymentHandle {
            name: name.to_string(),
            namespace: ns.to_string(),
            pods: Vec::new(),
            next_ordinal: 0,
        };
        for _ in 0..replicas {
            let ordinal = handle.next_ordinal;
            handle.next_ordinal += 1;
            let pod = self.launch_pod(net, ns, &format!("{name}-{ordinal}"), factory(ordinal));
            handle.pods.push(pod);
        }
        handle
    }

    /// Scales a deployment to `replicas`, keeping `service`'s endpoint
    /// set (and therefore its ClusterIP) in sync. Scale-down removes the
    /// newest pods first; their simulator nodes stay allocated but lose
    /// their address and receive no further traffic.
    pub fn scale_deployment<B, F>(
        &mut self,
        net: &mut Network,
        deployment: &mut DeploymentHandle,
        service: &ServiceHandle,
        replicas: usize,
        mut factory: F,
    ) where
        B: NodeBehavior + 'static,
        F: FnMut(usize) -> B,
    {
        while deployment.pods.len() < replicas {
            let ordinal = deployment.next_ordinal;
            deployment.next_ordinal += 1;
            let pod = self.launch_pod(
                net,
                &deployment.namespace.clone(),
                &format!("{}-{ordinal}", deployment.name),
                factory(ordinal),
            );
            self.add_endpoint(service, &pod);
            deployment.pods.push(pod);
        }
        while deployment.pods.len() > replicas {
            let pod = deployment.pods.pop().expect("len > replicas >= 0");
            self.remove_endpoint(service, &pod);
            self.evict_pod(net, &pod);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::registry::Visibility;
    use netsim::{Datagram, LinkProfile, NodeContext, SimDuration, SimTime, TimerToken};
    use std::net::IpAddr;

    struct EchoTag(usize);
    impl NodeBehavior for EchoTag {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            ctx.send_datagram(dgram.reply_with(vec![self.0 as u8]));
        }
    }

    struct Steady {
        target: IpAddr,
        replies: Vec<u8>,
    }
    impl NodeBehavior for Steady {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..40u64 {
                ctx.set_timer(SimDuration::from_millis(100 * i), i);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: TimerToken, _d: u64) {
            ctx.send(self.target, 53, vec![1, 2]);
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.replies.push(dgram.payload[0]);
        }
    }

    #[test]
    fn deployment_creates_named_replicas() {
        let mut net = Network::new(1);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let d = cluster.create_deployment(&mut net, "cdn", "router", 3, EchoTag);
        assert_eq!(d.replicas(), 3);
        assert!(cluster.pod("router-0").is_some());
        assert!(cluster.pod("router-2").is_some());
        assert!(cluster.pod("router-3").is_none());
    }

    #[test]
    fn service_survives_scale_up_and_down_under_live_traffic() {
        let mut net = Network::new(2);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let mut d = cluster.create_deployment(&mut net, "cdn", "echo", 1, EchoTag);
        let svc = cluster.create_service(&mut net, "cdn", "echo", &d.pods);
        let ip_before = svc.cluster_ip;
        let client = net.add_node(
            "client",
            ["192.168.0.10".parse::<IpAddr>().unwrap()],
            Steady {
                target: svc.cluster_ip,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());

        // Scale 1 → 3 at t=1s, 3 → 2 at t=2.5s, while the client keeps
        // hitting the same ClusterIP.
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        cluster.scale_deployment(&mut net, &mut d, &svc, 3, EchoTag);
        assert_eq!(d.replicas(), 3);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2500));
        cluster.scale_deployment(&mut net, &mut d, &svc, 2, EchoTag);
        assert_eq!(d.replicas(), 2);
        net.run();

        assert_eq!(svc.cluster_ip, ip_before);
        let replies = &net.behavior::<Steady>(client).replies;
        assert_eq!(replies.len(), 40, "no query may be lost across scaling");
        // After the scale-up, later replies come from several replicas.
        let distinct: std::collections::HashSet<u8> = replies.iter().copied().collect();
        assert!(distinct.len() >= 2, "scale-up never served traffic");
    }

    #[test]
    fn scale_to_zero_blackholes_but_does_not_crash() {
        let mut net = Network::new(3);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let mut d = cluster.create_deployment(&mut net, "cdn", "echo", 2, EchoTag);
        let svc = cluster.create_service(&mut net, "cdn", "echo", &d.pods);
        cluster.scale_deployment(&mut net, &mut d, &svc, 0, EchoTag);
        assert_eq!(d.replicas(), 0);
        assert!(cluster.endpoints(&svc).is_empty());
        let client = net.add_node(
            "client",
            ["192.168.0.10".parse::<IpAddr>().unwrap()],
            Steady {
                target: svc.cluster_ip,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        assert!(net.behavior::<Steady>(client).replies.is_empty());
    }

    #[test]
    fn scaled_down_pod_loses_its_address() {
        let mut net = Network::new(4);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let mut d = cluster.create_deployment(&mut net, "cdn", "echo", 2, EchoTag);
        let svc = cluster.create_service(&mut net, "cdn", "echo", &d.pods);
        let victim_ip = d.pods[1].ip;
        assert!(net.node_by_addr(victim_ip).is_some());
        cluster.scale_deployment(&mut net, &mut d, &svc, 1, EchoTag);
        assert!(
            net.node_by_addr(victim_ip).is_none(),
            "address must be released"
        );
        assert!(cluster.pod("echo-1").is_none());
    }
}
