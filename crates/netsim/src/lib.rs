#![warn(missing_docs)]

//! `netsim` — a deterministic discrete-event network simulator.
//!
//! Every experiment in this workspace runs on this crate: a virtual clock
//! ([`SimTime`]), an event queue, nodes implementing [`NodeBehavior`],
//! links with configurable latency distributions, jitter, loss and
//! bandwidth ([`LinkProfile`]), longest-prefix-match IP forwarding, packet
//! taps (the simulated `tcpdump` at the P-GW from the paper's §4), and the
//! measurement statistics the paper uses (trimmed means over the 8th–92nd
//! percentile with min/max whiskers).
//!
//! # Why discrete-event and not wall-clock async
//!
//! The paper's figures must regenerate *bit-identically* across machines
//! and runs. A seeded RNG plus virtual time gives that; it also lets one
//! benchmark iteration simulate thousands of DNS resolutions in
//! microseconds of real time. The API still follows the no-blocking,
//! explicit-time idioms of the async ecosystem (handlers never block; all
//! waiting is a scheduled timer).
//!
//! # Example
//!
//! ```
//! use netsim::{Network, NodeBehavior, NodeContext, Datagram, LinkProfile};
//! use std::net::IpAddr;
//!
//! struct Echo;
//! impl NodeBehavior for Echo {
//!     fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
//!         ctx.send(dgram.src, dgram.src_port, dgram.payload);
//!     }
//! }
//!
//! struct Probe { pub echoed: bool }
//! impl NodeBehavior for Probe {
//!     fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
//!         ctx.send("10.0.0.2".parse().unwrap(), 7, b"ping".to_vec());
//!     }
//!     fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _dgram: Datagram) {
//!         self.echoed = true;
//!     }
//! }
//!
//! let mut net = Network::new(42);
//! let a = net.add_node("probe", ["10.0.0.1".parse::<IpAddr>().unwrap()], Probe { echoed: false });
//! let b = net.add_node("echo", ["10.0.0.2".parse::<IpAddr>().unwrap()], Echo);
//! net.connect(a, b, LinkProfile::lan());
//! net.run();
//! assert!(net.behavior::<Probe>(a).echoed);
//! ```

pub mod addr;
pub mod catchment;
pub mod dist;
pub mod faults;
pub mod network;
pub mod node;
pub mod pcap;
pub mod sched;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use addr::Cidr;
pub use catchment::{AnycastCatchment, AnycastGateway};
pub use dist::Latency;
pub use faults::{Fault, FaultSchedule};
pub use network::{LinkId, LinkProfile, Network, NodeId};
pub use node::{Datagram, ForwardAction, NodeBehavior, NodeContext, TimerToken};
pub use sched::{EventKey, TimerWheel};
pub use stats::{LatencySummary, Samples, SchedStats};
pub use telemetry::{Breadcrumb, Histogram, MetricsRegistry, ResolutionTrace, Telemetry};
pub use time::{SimDuration, SimTime};
pub use trace::{TapDirection, TapRecord};
