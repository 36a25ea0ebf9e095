#![warn(missing_docs)]

//! `mec-orch` — a Kubernetes-like orchestrator for the MEC platform.
//!
//! The paper's design rests on capabilities that Kubernetes gives the MEC
//! operator: *"we first assign C-DNS a fixed cluster IP using k8s Service.
//! This ensures the C-DNS availability regardless of any scaling event"*,
//! CoreDNS populated from the service registry, split public/internal
//! namespaces, and an orchestrator that "has access to monitoring
//! statistics of the ingress network load to the MEC DNS". This crate
//! models each of those pieces:
//!
//! * [`Cluster`] — pods, deployments, namespaces and Services with stable
//!   ClusterIPs allocated from a service CIDR.
//! * [`fabric::Fabric`] — the kube-proxy data path: DNAT from ClusterIP to
//!   a round-robin endpoint with connection tracking, so replies appear to
//!   come from the ClusterIP (exactly why mobile clients never learn pod
//!   or host IPs — the paper's §5 "public-facing IP" point).
//! * [`registry::ServiceRegistry`] — the name → ClusterIP view CoreDNS
//!   serves, split by [`Visibility`] into the internal VNF namespace and
//!   the public MEC-CDN namespace.
//! * [`monitor::IngressMonitor`] — windowed query-rate accounting driving
//!   the DoS switch of §3.
//!
//! # Omitted (deliberately)
//!
//! * Scheduling/bin-packing, resource quotas, liveness probes — no effect
//!   on DNS-path latency.
//! * Pod node deletion: scaled-down pods are detached from their Service
//!   and lose their IP, but their simulator node remains (inert).

pub mod cluster;
pub mod deployment;
pub mod fabric;
pub mod federation;
pub mod monitor;
pub mod registry;

pub use cluster::{Cluster, ClusterConfig, PodHandle, ServiceHandle};
pub use deployment::DeploymentHandle;
pub use fabric::Fabric;
pub use federation::Federation;
pub use monitor::IngressMonitor;
pub use registry::{ServiceRegistry, Visibility};
