//! The origin server: source of truth for all content.

use crate::content::Catalog;
use crate::protocol::CdnMsg;
use netsim::{Datagram, NodeBehavior, NodeContext};

/// Serves every object in its catalog; answers MISS for anything else.
pub struct Origin {
    catalog: Catalog,
    /// Requests served with data.
    pub served: u64,
    /// Requests for unknown objects.
    pub not_found: u64,
}

impl Origin {
    /// An origin over `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        Origin {
            catalog,
            served: 0,
            not_found: 0,
        }
    }
}

impl NodeBehavior for Origin {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        let Some(CdnMsg::Get { key }) = CdnMsg::decode(&dgram.payload) else {
            return;
        };
        let reply = match self.catalog.size_of(&key) {
            Some(size) => {
                self.served += 1;
                CdnMsg::Data { key, size }
            }
            None => {
                self.not_found += 1;
                CdnMsg::Miss { key }
            }
        };
        ctx.send_datagram(dgram.reply_with(reply.encode()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CONTENT_PORT;
    use netsim::{Latency, LinkProfile, Network};
    use std::net::IpAddr;

    struct Asker {
        origin: IpAddr,
        got: Vec<CdnMsg>,
    }
    impl NodeBehavior for Asker {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for key in ["have", "missing"] {
                ctx.send(
                    self.origin,
                    CONTENT_PORT,
                    CdnMsg::Get { key: key.into() }.encode(),
                );
            }
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if let Some(m) = CdnMsg::decode(&dgram.payload) {
                self.got.push(m);
            }
        }
    }

    #[test]
    fn origin_serves_catalog_and_misses_rest() {
        let catalog = Catalog::new();
        catalog.add("have", 1234);
        let mut net = Network::new(1);
        let origin = net.add_node(
            "origin",
            ["10.0.0.1".parse::<IpAddr>().unwrap()],
            Origin::new(catalog),
        );
        let asker = net.add_node(
            "asker",
            ["10.0.0.2".parse::<IpAddr>().unwrap()],
            Asker {
                origin: "10.0.0.1".parse().unwrap(),
                got: vec![],
            },
        );
        net.connect(
            asker,
            origin,
            LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        let got = &net.behavior::<Asker>(asker).got;
        assert_eq!(got.len(), 2);
        assert!(got.contains(&CdnMsg::Data {
            key: "have".into(),
            size: 1234
        }));
        assert!(got.contains(&CdnMsg::Miss {
            key: "missing".into()
        }));
        let o = net.behavior::<Origin>(origin);
        assert_eq!(o.served, 1);
        assert_eq!(o.not_found, 1);
    }
}
