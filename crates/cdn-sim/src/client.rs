//! The client side of the content protocol.
//!
//! [`FetchEngine`] plays the role `dig`+`curl` play in the paper's
//! end-to-end measurements: issue a GET to a cache address (obtained
//! from DNS) and time the transfer.

use crate::protocol::{CdnMsg, CONTENT_PORT};
use netsim::{Datagram, NodeContext, SimDuration, SimTime};
use std::collections::HashMap;
use std::net::IpAddr;

/// One finished fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// Correlation tag supplied at issue time.
    pub tag: u64,
    /// Object key requested.
    pub key: String,
    /// Server asked.
    pub server: IpAddr,
    /// Object size if served, `None` on MISS.
    pub size: Option<u32>,
    /// Request → response latency.
    pub latency: SimDuration,
}

struct PendingFetch {
    tag: u64,
    server: IpAddr,
    started: SimTime,
}

/// Issues content requests and matches responses by object key.
#[derive(Default)]
pub struct FetchEngine {
    pending: HashMap<String, PendingFetch>,
    /// Completed fetches, in completion order.
    pub outcomes: Vec<FetchOutcome>,
}

impl FetchEngine {
    /// An idle engine.
    pub fn new() -> Self {
        FetchEngine::default()
    }

    /// Fetches `key` from `server`. One in-flight fetch per key.
    pub fn fetch(&mut self, ctx: &mut NodeContext<'_>, server: IpAddr, key: &str, tag: u64) {
        self.pending.insert(
            key.to_string(),
            PendingFetch {
                tag,
                server,
                started: ctx.now(),
            },
        );
        ctx.send(
            server,
            CONTENT_PORT,
            CdnMsg::Get {
                key: key.to_string(),
            }
            .encode(),
        );
    }

    /// Number of fetches awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Feeds a datagram; returns the outcome if it completed a fetch.
    pub fn on_datagram(
        &mut self,
        ctx: &mut NodeContext<'_>,
        dgram: &Datagram,
    ) -> Option<FetchOutcome> {
        let (key, size) = match CdnMsg::decode(&dgram.payload)? {
            CdnMsg::Data { key, size } => (key, Some(size)),
            CdnMsg::Miss { key } => (key, None),
            CdnMsg::Get { .. } => return None,
        };
        let pending = self.pending.remove(&key)?;
        let outcome = FetchOutcome {
            tag: pending.tag,
            key,
            server: pending.server,
            size,
            latency: ctx.now() - pending.started,
        };
        self.outcomes.push(outcome.clone());
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Catalog;
    use crate::origin::Origin;
    use netsim::{Latency, LinkProfile, Network, NodeBehavior};

    struct App {
        engine: FetchEngine,
        origin: IpAddr,
    }
    impl NodeBehavior for App {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            self.engine.fetch(ctx, self.origin, "movie/seg-1", 7);
            self.engine.fetch(ctx, self.origin, "missing", 8);
        }
        fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
            self.engine.on_datagram(ctx, &dgram);
        }
    }

    #[test]
    fn fetch_times_and_classifies_hits_and_misses() {
        let catalog = Catalog::new();
        catalog.add("movie/seg-1", 50_000);
        let mut net = Network::new(1);
        let origin = net.add_node(
            "origin",
            ["10.0.0.1".parse::<IpAddr>().unwrap()],
            Origin::new(catalog),
        );
        let app = net.add_node(
            "app",
            ["10.0.0.2".parse::<IpAddr>().unwrap()],
            App {
                engine: FetchEngine::new(),
                origin: "10.0.0.1".parse().unwrap(),
            },
        );
        // 10 Mbps link: 50 kB serializes in 40 ms.
        net.connect(
            app,
            origin,
            LinkProfile::with_latency(Latency::ConstantMs(2.0)).with_bandwidth_bps(10_000_000),
        );
        net.run();
        let outcomes = &net.behavior::<App>(app).engine.outcomes;
        assert_eq!(outcomes.len(), 2);
        let hit = outcomes.iter().find(|o| o.tag == 7).unwrap();
        assert_eq!(hit.size, Some(50_000));
        assert!(
            hit.latency.as_millis_f64() > 40.0,
            "serialization delay missing: {}",
            hit.latency
        );
        let miss = outcomes.iter().find(|o| o.tag == 8).unwrap();
        assert_eq!(miss.size, None);
        // The tiny MISS frame queues behind the 50 kB DATA frame on the
        // same link direction (FIFO serialization), so it cannot be
        // faster than the data by more than the data's own payload time.
        assert!(miss.latency.as_millis_f64() >= 40.0);
        assert_eq!(net.behavior::<App>(app).engine.in_flight(), 0);
    }
}
