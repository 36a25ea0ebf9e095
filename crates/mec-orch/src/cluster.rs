//! The orchestrator control plane: namespaces, pods, Services, scaling.

use crate::fabric::{Fabric, ServiceState, ServiceTable};
use crate::monitor::IngressMonitor;
use crate::registry::{ServiceRegistry, Visibility};
use netsim::{Cidr, LinkProfile, Network, NodeBehavior, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;

/// Address plan for a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// CIDR ClusterIPs are allocated from (k8s `--service-cluster-ip-range`).
    pub service_cidr: Cidr,
    /// CIDR pod addresses are allocated from.
    pub pod_cidr: Cidr,
    /// Cluster DNS domain; Services get `<name>.<ns>.svc.<domain>`.
    pub domain: String,
    /// Link model between pods and the fabric.
    pub pod_link: LinkProfile,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            service_cidr: "10.96.0.0/16".parse().unwrap(),
            pod_cidr: "10.244.0.0/16".parse().unwrap(),
            domain: "cluster.local".to_string(),
            pod_link: LinkProfile::intra_cluster(),
        }
    }
}

/// A running pod.
#[derive(Debug, Clone)]
pub struct PodHandle {
    /// Pod name (unique within the cluster).
    pub name: String,
    /// Namespace the pod runs in.
    pub namespace: String,
    /// The pod's address.
    pub ip: IpAddr,
    /// The simulator node backing the pod.
    pub node: NodeId,
}

/// A created Service.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    /// Service name.
    pub name: String,
    /// Namespace.
    pub namespace: String,
    /// The stable ClusterIP — survives every scaling event.
    pub cluster_ip: IpAddr,
}

impl ServiceHandle {
    /// The monitoring key (`namespace/name`).
    pub fn key(&self) -> String {
        format!("{}/{}", self.namespace, self.name)
    }
}

/// A MEC cluster: one fabric node, pods hanging off it, Services with
/// stable ClusterIPs, a service registry for DNS and an ingress monitor.
pub struct Cluster {
    name: String,
    config: ClusterConfig,
    fabric_node: NodeId,
    services: ServiceTable,
    registry: ServiceRegistry,
    monitor: IngressMonitor,
    namespaces: HashMap<String, Visibility>,
    /// Ordered by pod name: `attach_external` walks this map and
    /// netsim routes are positional, so insertion must not follow
    /// hash order.
    pods: BTreeMap<String, PodHandle>,
    service_handles: HashMap<String, ServiceHandle>,
    next_service_ip: u64,
    next_pod_ip: u64,
}

impl Cluster {
    /// Creates the cluster and its fabric node inside `net`.
    pub fn new(net: &mut Network, name: &str, config: ClusterConfig) -> Self {
        let services = ServiceTable::default();
        let monitor = IngressMonitor::default();
        let fabric_ip = config.pod_cidr.nth_host(0);
        let fabric_node = net.add_node(
            &format!("{name}-fabric"),
            [fabric_ip],
            Fabric::new(services.clone(), monitor.clone()),
        );
        Cluster {
            name: name.to_string(),
            config,
            fabric_node,
            services,
            registry: ServiceRegistry::new(),
            monitor,
            namespaces: HashMap::new(),
            pods: BTreeMap::new(),
            service_handles: HashMap::new(),
            next_service_ip: 0,
            next_pod_ip: 1, // 0 is the fabric
        }
    }

    /// The fabric node (for attaching external gateways).
    pub fn fabric(&self) -> NodeId {
        self.fabric_node
    }

    /// The shared name → ClusterIP registry (handed to CoreDNS).
    pub fn registry(&self) -> ServiceRegistry {
        self.registry.clone()
    }

    /// The shared ingress monitor (handed to the DoS policy).
    pub fn monitor(&self) -> IngressMonitor {
        self.monitor.clone()
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cluster's address plan.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Declares a namespace with a DNS visibility. The paper's split
    /// namespaces: VNFs live in `Internal` namespaces, MEC-CDN services
    /// in `Public` ones.
    pub fn add_namespace(&mut self, ns: &str, visibility: Visibility) {
        self.namespaces.insert(ns.to_string(), visibility);
    }

    fn namespace_visibility(&self, ns: &str) -> Visibility {
        self.namespaces
            .get(ns)
            .copied()
            .unwrap_or(Visibility::Internal)
    }

    /// Launches a pod running `behavior`, attached to the fabric.
    ///
    /// # Panics
    /// Panics if the pod name is already taken.
    pub fn launch_pod<B: NodeBehavior + 'static>(
        &mut self,
        net: &mut Network,
        ns: &str,
        name: &str,
        behavior: B,
    ) -> PodHandle {
        assert!(
            !self.pods.contains_key(name),
            "pod {name} already exists in cluster {}",
            self.name
        );
        let ip = self.config.pod_cidr.nth_host(self.next_pod_ip);
        self.next_pod_ip += 1;
        let node = net.add_node(&format!("{}-pod-{name}", self.name), [ip], behavior);
        net.connect(node, self.fabric_node, self.config.pod_link.clone());
        // Pods send everything via the fabric.
        net.add_default_route(node, self.fabric_node);
        let handle = PodHandle {
            name: name.to_string(),
            namespace: ns.to_string(),
            ip,
            node,
        };
        self.pods.insert(name.to_string(), handle.clone());
        handle
    }

    /// Creates a Service over `endpoints`, allocating a stable ClusterIP
    /// and registering `<name>.<ns>.svc.<domain>` in the DNS view of the
    /// namespace.
    pub fn create_service(
        &mut self,
        net: &mut Network,
        ns: &str,
        name: &str,
        endpoints: &[PodHandle],
    ) -> ServiceHandle {
        let key = format!("{ns}/{name}");
        assert!(
            !self.service_handles.contains_key(&key),
            "service {key} already exists"
        );
        let cluster_ip = self.config.service_cidr.nth_host(self.next_service_ip);
        self.next_service_ip += 1;
        net.add_addr(self.fabric_node, cluster_ip);
        self.services.inner.borrow_mut().insert(
            cluster_ip,
            ServiceState {
                key: key.clone(),
                endpoints: endpoints.iter().map(|p| p.ip).collect(),
                rr: 0,
            },
        );
        let fqdn = format!("{name}.{ns}.svc.{}", self.config.domain);
        self.registry
            .upsert(&fqdn, cluster_ip, self.namespace_visibility(ns));
        let handle = ServiceHandle {
            name: name.to_string(),
            namespace: ns.to_string(),
            cluster_ip,
        };
        self.service_handles.insert(key, handle.clone());
        handle
    }

    /// Additionally exposes a Service under an arbitrary public FQDN —
    /// how a CDN domain such as `video.demo1.mycdn.ciab.test` maps onto
    /// the Traffic Router's ClusterIP.
    pub fn expose_domain(&mut self, svc: &ServiceHandle, fqdn: &str) {
        self.registry
            .upsert(fqdn, svc.cluster_ip, Visibility::Public);
    }

    /// Adds an endpoint (scale up). The ClusterIP does not change.
    pub fn add_endpoint(&mut self, svc: &ServiceHandle, pod: &PodHandle) {
        let mut table = self.services.inner.borrow_mut();
        let state = table
            .get_mut(&svc.cluster_ip)
            .expect("service vanished from table");
        if !state.endpoints.contains(&pod.ip) {
            state.endpoints.push(pod.ip);
        }
    }

    /// Removes an endpoint (scale down / pod failure). The ClusterIP
    /// does not change; in-flight flows pinned to the removed endpoint
    /// are re-balanced on their next packet.
    pub fn remove_endpoint(&mut self, svc: &ServiceHandle, pod: &PodHandle) {
        let mut table = self.services.inner.borrow_mut();
        if let Some(state) = table.get_mut(&svc.cluster_ip) {
            state.endpoints.retain(|&ip| ip != pod.ip);
        }
    }

    /// Current endpoint addresses of a Service.
    pub fn endpoints(&self, svc: &ServiceHandle) -> Vec<IpAddr> {
        self.services
            .inner
            .borrow()
            .get(&svc.cluster_ip)
            .map(|s| s.endpoints.clone())
            .unwrap_or_default()
    }

    /// A Service by `namespace/name`, if it exists.
    pub fn service(&self, ns: &str, name: &str) -> Option<&ServiceHandle> {
        self.service_handles.get(&format!("{ns}/{name}"))
    }

    /// A pod by name, if it exists.
    pub fn pod(&self, name: &str) -> Option<&PodHandle> {
        self.pods.get(name)
    }

    /// Evicts a pod: its address is released and it receives no further
    /// traffic. (The simulator node itself remains allocated but inert —
    /// see the crate docs.) Endpoints referencing it should be removed
    /// first; [`Cluster::scale_deployment`] does both.
    pub fn evict_pod(&mut self, net: &mut Network, pod: &PodHandle) {
        net.remove_addr(pod.node, pod.ip);
        self.pods.remove(&pod.name);
    }

    /// Kills a pod abruptly — crash semantics, not graceful drain: the
    /// Service stops routing to it, the backing node goes down (packets
    /// already in flight toward it are blackholed), and its address is
    /// released. The Service's ClusterIP is untouched, so clients keep
    /// dialling the same address — the paper's P2 stability claim under
    /// churn.
    pub fn kill_pod(&mut self, net: &mut Network, svc: &ServiceHandle, pod: &PodHandle) {
        self.remove_endpoint(svc, pod);
        net.set_node_up(pod.node, false);
        self.evict_pod(net, pod);
    }

    /// Reschedules a replacement for a killed pod: launches a fresh pod
    /// (new name, new address — as a Kubernetes controller would) and
    /// adds it to the Service's endpoints. Returns the new pod.
    pub fn reschedule_pod<B: NodeBehavior + 'static>(
        &mut self,
        net: &mut Network,
        svc: &ServiceHandle,
        ns: &str,
        name: &str,
        behavior: B,
    ) -> PodHandle {
        let pod = self.launch_pod(net, ns, name, behavior);
        self.add_endpoint(svc, &pod);
        pod
    }

    /// Crashes or restores the whole site: the fabric node and every pod
    /// go down (or come back) together. A crashed site blackholes
    /// everything routed into it — the regional-outage shape the
    /// federation layer fails over from.
    pub fn set_up(&self, net: &mut Network, up: bool) {
        net.set_node_up(self.fabric_node, up);
        for pod in self.pods.values() {
            net.set_node_up(pod.node, up);
        }
    }

    /// Releases a Service from this cluster: unbinds its ClusterIP from
    /// the fabric and forgets its endpoints. The address itself stays
    /// valid — this is the first half of a site failover, freeing the IP
    /// so a sibling cluster can [`Cluster::adopt_service`] it. Works
    /// even while the fabric node is down (addresses are control-plane
    /// state, not node state).
    pub fn release_service(&mut self, net: &mut Network, svc: &ServiceHandle) {
        net.remove_addr(self.fabric_node, svc.cluster_ip);
        self.services.inner.borrow_mut().remove(&svc.cluster_ip);
        self.service_handles.remove(&svc.key());
    }

    /// Adopts a Service released by a failed sibling cluster: binds the
    /// *same* ClusterIP on this cluster's fabric and serves it from
    /// `endpoints` (pods of this cluster). Clients keep dialling the
    /// address they always did — the ClusterIP survives the site.
    pub fn adopt_service(
        &mut self,
        net: &mut Network,
        svc: &ServiceHandle,
        endpoints: &[PodHandle],
    ) {
        net.add_addr(self.fabric_node, svc.cluster_ip);
        self.services.inner.borrow_mut().insert(
            svc.cluster_ip,
            ServiceState {
                key: svc.key(),
                endpoints: endpoints.iter().map(|p| p.ip).collect(),
                rr: 0,
            },
        );
        let fqdn = format!("{}.{}.svc.{}", svc.name, svc.namespace, self.config.domain);
        self.registry.upsert(
            &fqdn,
            svc.cluster_ip,
            self.namespace_visibility(&svc.namespace),
        );
        self.service_handles.insert(svc.key(), svc.clone());
    }

    /// Attaches an external node (e.g. the P-GW) to the fabric and routes
    /// the cluster's service and pod ranges through it.
    pub fn attach_external(&self, net: &mut Network, node: NodeId, profile: LinkProfile) {
        net.connect(node, self.fabric_node, profile);
        net.add_route(node, self.config.service_cidr, self.fabric_node);
        net.add_route(node, self.config.pod_cidr, self.fabric_node);
        // Return traffic leaves the cluster via the external node.
        net.add_default_route(self.fabric_node, node);
        for pod in self.pods.values() {
            net.add_default_route(pod.node, self.fabric_node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Datagram, NodeContext, SimDuration};
    use std::net::IpAddr;

    struct EchoTag(u8);
    impl NodeBehavior for EchoTag {
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            ctx.send_datagram(dgram.reply_with(vec![self.0]));
        }
    }

    struct Client {
        target: IpAddr,
        shots: usize,
        replies: Vec<(IpAddr, u8)>,
    }
    impl NodeBehavior for Client {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for i in 0..self.shots {
                ctx.set_timer(SimDuration::from_millis(10 * i as u64), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _t: netsim::TimerToken, _d: u64) {
            ctx.send(self.target, 53, vec![0xEE, 0xFF]);
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.replies.push((dgram.src, dgram.payload[0]));
        }
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    struct Nop;
    impl NodeBehavior for Nop {}

    #[test]
    fn cluster_ip_is_stable_and_replies_come_from_it() {
        let mut net = Network::new(7);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let pods: Vec<PodHandle> = (0..2)
            .map(|i| cluster.launch_pod(&mut net, "cdn", &format!("c{i}"), EchoTag(i as u8)))
            .collect();
        let svc = cluster.create_service(&mut net, "cdn", "dns", &pods);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 4,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        let replies = &net.behavior::<Client>(client).replies;
        assert_eq!(replies.len(), 4);
        for (src, _tag) in replies {
            assert_eq!(*src, svc.cluster_ip, "pod IP leaked to the client");
        }
    }

    #[test]
    fn flows_are_sticky_but_distinct_flows_round_robin() {
        // Each timer shot uses a fresh ephemeral port → a fresh flow →
        // round-robin across endpoints.
        let mut net = Network::new(3);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let pods: Vec<PodHandle> = (0..2)
            .map(|i| cluster.launch_pod(&mut net, "cdn", &format!("c{i}"), EchoTag(i as u8)))
            .collect();
        let svc = cluster.create_service(&mut net, "cdn", "dns", &pods);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 6,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        let replies = &net.behavior::<Client>(client).replies;
        assert_eq!(replies.len(), 6);
        let zeros = replies.iter().filter(|(_, tag)| *tag == 0).count();
        assert_eq!(zeros, 3, "round robin should alternate endpoints");
    }

    #[test]
    fn scaling_preserves_cluster_ip_and_rebalances() {
        let mut net = Network::new(4);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let p0 = cluster.launch_pod(&mut net, "cdn", "c0", EchoTag(0));
        let svc = cluster.create_service(&mut net, "cdn", "dns", std::slice::from_ref(&p0));
        let ip_before = svc.cluster_ip;
        // Scale up.
        let p1 = cluster.launch_pod(&mut net, "cdn", "c1", EchoTag(1));
        cluster.add_endpoint(&svc, &p1);
        assert_eq!(cluster.endpoints(&svc).len(), 2);
        // Scale the original pod away.
        cluster.remove_endpoint(&svc, &p0);
        assert_eq!(cluster.endpoints(&svc), vec![p1.ip]);
        assert_eq!(svc.cluster_ip, ip_before);
        // Traffic now reaches only c1.
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 3,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        let replies = &net.behavior::<Client>(client).replies;
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|(_, tag)| *tag == 1));
    }

    #[test]
    fn registry_reflects_services_and_split_namespaces() {
        let mut net = Network::new(5);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        cluster.add_namespace("epc", Visibility::Internal);
        let pub_pod = cluster.launch_pod(&mut net, "cdn", "tr", Nop);
        let int_pod = cluster.launch_pod(&mut net, "epc", "mme", Nop);
        let pub_svc = cluster.create_service(&mut net, "cdn", "trafficrouter", &[pub_pod]);
        let _int_svc = cluster.create_service(&mut net, "epc", "mme", &[int_pod]);
        let reg = cluster.registry();
        assert_eq!(
            reg.lookup("trafficrouter.cdn.svc.cluster.local", Visibility::Public),
            Some(pub_svc.cluster_ip)
        );
        assert_eq!(
            reg.lookup("mme.epc.svc.cluster.local", Visibility::Public),
            None,
            "internal VNF name leaked into the public view"
        );
        assert!(reg
            .lookup("mme.epc.svc.cluster.local", Visibility::Internal)
            .is_some());
        // CDN domain exposure.
        cluster.expose_domain(&pub_svc, "video.demo1.mycdn.ciab.test");
        assert_eq!(
            reg.lookup("video.demo1.mycdn.ciab.test", Visibility::Public),
            Some(pub_svc.cluster_ip)
        );
    }

    #[test]
    fn monitor_counts_service_ingress() {
        let mut net = Network::new(6);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let pod = cluster.launch_pod(&mut net, "cdn", "c0", EchoTag(0));
        let svc = cluster.create_service(&mut net, "cdn", "dns", &[pod]);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 5,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        assert_eq!(cluster.monitor().total("cdn/dns"), 5);
    }

    #[test]
    fn service_with_no_endpoints_drops_and_counts() {
        let mut net = Network::new(8);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let svc = cluster.create_service(&mut net, "cdn", "dns", &[]);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 2,
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        net.run();
        assert!(net.behavior::<Client>(client).replies.is_empty());
        let fabric = cluster.fabric();
        assert_eq!(net.behavior::<Fabric>(fabric).no_endpoint_drops, 2);
        // The monitor still sees the ingress (useful for DoS detection).
        assert_eq!(cluster.monitor().total("cdn/dns"), 2);
    }

    #[test]
    fn kill_and_reschedule_keep_the_cluster_ip_serving() {
        use netsim::SimTime;
        let mut net = Network::new(11);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.add_namespace("cdn", Visibility::Public);
        let p0 = cluster.launch_pod(&mut net, "cdn", "c0", EchoTag(0));
        let p1 = cluster.launch_pod(&mut net, "cdn", "c1", EchoTag(1));
        let svc = cluster.create_service(&mut net, "cdn", "dns", &[p0.clone(), p1]);
        let client = net.add_node(
            "client",
            [ip("192.168.0.10")],
            Client {
                target: svc.cluster_ip,
                shots: 40, // one every 10 ms
                replies: vec![],
            },
        );
        cluster.attach_external(&mut net, client, LinkProfile::lan());
        // Kill c0 mid-stream and reschedule a replacement 30 ms later,
        // all while the client keeps firing at the same ClusterIP.
        net.run_until(SimTime::ZERO + SimDuration::from_millis(150));
        cluster.kill_pod(&mut net, &svc, &p0);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(180));
        cluster.reschedule_pod(&mut net, &svc, "cdn", "c2", EchoTag(2));
        net.run();
        let replies = &net.behavior::<Client>(client).replies;
        // At most the flows in flight at the kill instant can be lost.
        assert!(replies.len() >= 38, "got {} replies", replies.len());
        assert!(
            replies.iter().all(|(src, _)| *src == svc.cluster_ip),
            "ClusterIP must stay the stable façade through churn"
        );
        let tags: Vec<u8> = replies.iter().map(|&(_, tag)| tag).collect();
        assert!(tags.contains(&2), "replacement pod must take traffic");
        assert!(
            !tags[tags.len() - 10..].contains(&0),
            "killed pod must stop receiving traffic"
        );
        assert!(cluster.pod("c0").is_none());
        assert!(cluster.pod("c2").is_some());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_pod_names_rejected() {
        let mut net = Network::new(9);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        cluster.launch_pod(&mut net, "cdn", "dup", Nop);
        cluster.launch_pod(&mut net, "cdn", "dup", Nop);
    }

    #[test]
    fn lookup_helpers() {
        let mut net = Network::new(10);
        let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
        let pod = cluster.launch_pod(&mut net, "cdn", "c0", Nop);
        let svc = cluster.create_service(&mut net, "cdn", "dns", &[pod]);
        assert_eq!(
            cluster.service("cdn", "dns").unwrap().cluster_ip,
            svc.cluster_ip
        );
        assert!(cluster.service("cdn", "nope").is_none());
        assert!(cluster.pod("c0").is_some());
        assert!(cluster.pod("nope").is_none());
        assert_eq!(svc.key(), "cdn/dns");
        assert_eq!(cluster.name(), "mec");
    }
}
