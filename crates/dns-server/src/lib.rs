#![warn(missing_docs)]

//! `dns-server` — DNS servers and resolvers over the simulator.
//!
//! This crate is the DNS half of the MEC-CDN reproduction. It provides:
//!
//! * [`zone::Zone`] — authoritative data with answers, CNAMEs, referrals
//!   (NS + glue) and negative answers.
//! * A CoreDNS-style **plugin chain** ([`plugin::Plugin`]): the paper's
//!   design §3 ("content mapping to MEC IP addresses can be achieved ...
//!   by using separate DNS plugins for handling the two namespaces
//!   differently") maps directly onto this. Included plugins:
//!   [`plugins::CachePlugin`], [`plugins::KubernetesPlugin`] (backed by
//!   the orchestrator's service registry, with split-horizon views),
//!   [`plugins::StubDomainPlugin`] (the CoreDNS stub-domain mechanism the
//!   prototype uses to hand the CDN zone to the Traffic Router),
//!   [`plugins::ForwardPlugin`] and [`plugins::AuthoritativePlugin`].
//! * One transport-free resolver core (crate-private) runs every plugin
//!   chain: events in (a client query, an upstream response, a
//!   retransmit timer, each with the caller's `now`), actions out (answer
//!   a client; send an upstream query and arm its timer). Forwarding,
//!   upstream ids, retries, ECS attach/strip/echo and a full **iterative
//!   resolver** (root → TLD → authoritative, CNAME chasing, glue
//!   handling) for the [`plugins::RecursePlugin`] live there once.
//! * [`server::DnsServer`] — the core as a [`netsim::NodeBehavior`]:
//!   actions become virtual datagrams and timers, behind a per-query
//!   processing-delay model and an optional single-worker queue.
//! * [`stub::StubEngine`] — the client side: unicast, multicast (the
//!   paper's "DNS requests be multicast to both MEC DNS and the
//!   network's L-DNS") and fallback-on-timeout strategies, with RTT
//!   measurement per query.
//! * EDNS Client Subnet end to end: stubs and forwarders can attach ECS,
//!   servers model its extra processing cost, and answers can be scoped.
//! * [`engine::ServeEngine`] — the same core behind a plain synchronous
//!   call for real transports: the `mecdnsd` binary decodes a UDP
//!   datagram, calls [`engine::ServeEngine::resolve`], and encodes the
//!   answer with `Message::encode_bounded` (TC-bit truncation to the
//!   client's payload budget). Its upstreams are in-process backend
//!   cores; a missing or silent one is an immediate timeout.
//!
//! # Omitted (deliberately)
//!
//! * TCP fallback — truncated answers set the TC bit and rely on the
//!   client retrying; the serving path never emits a response beyond
//!   the client's advertised payload budget.
//! * DNSSEC — orthogonal to the latency argument of the paper.

pub mod cache;
pub mod engine;
pub mod plugin;
pub mod plugins;
mod resolver;
pub mod server;
pub mod stub;
pub mod zone;

pub use cache::{CacheHit, DnsCache};
pub use engine::{RcodeCounts, ServeEngine};
pub use plugin::{Plugin, PluginDecision, QueryCtx};
pub use server::{DnsServer, ServerConfig};
pub use stub::{QueryOutcome, SendStrategy, StubEngine};
pub use zone::{LookupResult, Zone};
