//! Table 2: entities and roles in the MEC-CDN ecosystem.
//!
//! The paper's Q3 ("Who owns performance in MEC-CDN?") tabulates seven
//! roles and observes that one entity can subsume several — Verizon is
//! both a cellular and a CDN/DNS provider; a cloud provider can proxy a
//! cellular provider's MEC. These types make deployment descriptions
//! explicit about who runs what, and the experiments use them to label
//! which role each latency component belongs to.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A role from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Operating RAN and cellular core network.
    CellularProvider,
    /// Providing content caches on CDN domains hosted on server nodes.
    CdnProvider,
    /// Routing requests to closest CDN domain servers.
    DnsProvider,
    /// Delivering web services that use CDNs.
    WebProvider,
    /// Providing server infrastructure to one or more of the above.
    CloudProvider,
    /// Providing a consolidated service spanning multiple CDNs.
    CdnBroker,
    /// Providing MEC servers that host CDN domains.
    MecProvider,
}

impl Role {
    /// All seven roles, in Table 2 order.
    pub fn all() -> [Role; 7] {
        [
            Role::CellularProvider,
            Role::CdnProvider,
            Role::DnsProvider,
            Role::WebProvider,
            Role::CloudProvider,
            Role::CdnBroker,
            Role::MecProvider,
        ]
    }

    /// The role's responsibility, as Table 2 words it.
    pub fn responsibility(self) -> &'static str {
        match self {
            Role::CellularProvider => "Operating RAN and cellular core network",
            Role::CdnProvider => {
                "Providing content caches on CDN domains hosted on some server nodes"
            }
            Role::DnsProvider => "Routing requests to closest CDN domain servers",
            Role::WebProvider => {
                "Delivering web services that use CDNs to provide better services to end users"
            }
            Role::CloudProvider => "Providing server infrastructure to one or more of the above",
            Role::CdnBroker => {
                "Providing a consolidated service spanning multiple CDNs to CDN customers"
            }
            Role::MecProvider => "Providing MEC servers that host CDN domains",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::CellularProvider => "Cellular Provider",
            Role::CdnProvider => "CDN Provider",
            Role::DnsProvider => "DNS Provider",
            Role::WebProvider => "Web Provider",
            Role::CloudProvider => "Cloud Provider",
            Role::CdnBroker => "CDN Broker",
            Role::MecProvider => "MEC Provider",
        };
        write!(f, "{s}")
    }
}

/// A named participant holding one or more roles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entity {
    /// Display name.
    pub name: String,
    /// Roles the entity subsumes.
    pub roles: BTreeSet<Role>,
}

impl Entity {
    /// An entity with the given roles.
    pub fn new(name: &str, roles: impl IntoIterator<Item = Role>) -> Self {
        Entity {
            name: name.to_string(),
            roles: roles.into_iter().collect(),
        }
    }

    /// True if the entity holds `role`.
    pub fn has(&self, role: Role) -> bool {
        self.roles.contains(&role)
    }
}

/// An ecosystem: the set of entities in a deployment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ecosystem {
    /// Participants.
    pub entities: Vec<Entity>,
}

impl Ecosystem {
    /// Entities holding `role`.
    pub fn holders(&self, role: Role) -> Vec<&Entity> {
        self.entities.iter().filter(|e| e.has(role)).collect()
    }

    /// Roles no entity holds — the paper's "invisible performance
    /// owners" question starts from knowing who owns what.
    pub fn unfilled_roles(&self) -> Vec<Role> {
        Role::all()
            .into_iter()
            .filter(|&r| self.holders(r).is_empty())
            .collect()
    }

    /// The MEC-CDN proposal's ecosystem: the MEC provider subsumes the
    /// DNS role for the edge (running L-DNS and hosting C-DNS), which is
    /// exactly the role consolidation that makes single-hop resolution
    /// possible.
    pub fn mec_cdn_proposal() -> Ecosystem {
        Ecosystem {
            entities: vec![
                Entity::new(
                    "edge operator",
                    [Role::CellularProvider, Role::MecProvider, Role::DnsProvider],
                ),
                Entity::new("cdn operator", [Role::CdnProvider, Role::DnsProvider]),
                Entity::new("content site", [Role::WebProvider]),
            ],
        }
    }

    /// Today's fragmented ecosystem (the Figure 2/3 world): distinct
    /// cellular, DNS, CDN, cloud and broker entities.
    pub fn status_quo() -> Ecosystem {
        Ecosystem {
            entities: vec![
                Entity::new("carrier", [Role::CellularProvider]),
                Entity::new("public resolver", [Role::DnsProvider]),
                Entity::new("akamai", [Role::CdnProvider, Role::DnsProvider]),
                Entity::new("fastly", [Role::CdnProvider, Role::DnsProvider]),
                Entity::new(
                    "aws",
                    [Role::CloudProvider, Role::CdnProvider, Role::DnsProvider],
                ),
                Entity::new("broker", [Role::CdnBroker]),
                Entity::new("travel site", [Role::WebProvider]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_seven_roles_with_responsibilities() {
        let roles = Role::all();
        assert_eq!(roles.len(), 7);
        for r in roles {
            assert!(!r.responsibility().is_empty());
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn entity_can_subsume_multiple_roles() {
        // The paper's example: "cellular providers are known to include
        // DNS or CDN provider roles (e.g., Verizon)".
        let verizon = Entity::new(
            "verizon",
            [Role::CellularProvider, Role::DnsProvider, Role::CdnProvider],
        );
        assert!(verizon.has(Role::CellularProvider));
        assert!(verizon.has(Role::CdnProvider));
        assert!(!verizon.has(Role::CdnBroker));
    }

    #[test]
    fn proposal_consolidates_dns_into_the_mec_provider() {
        let eco = Ecosystem::mec_cdn_proposal();
        let dns_holders = eco.holders(Role::DnsProvider);
        assert!(
            dns_holders.iter().any(|e| e.has(Role::MecProvider)),
            "the MEC provider must own a DNS role for single-hop resolution"
        );
        // The broker disappears from the proposal.
        assert!(eco.holders(Role::CdnBroker).is_empty());
    }

    #[test]
    fn status_quo_has_no_mec_provider() {
        let eco = Ecosystem::status_quo();
        assert!(eco.unfilled_roles().contains(&Role::MecProvider));
        assert!(!eco.holders(Role::CdnBroker).is_empty());
    }

    #[test]
    fn ecosystem_serializes() {
        let eco = Ecosystem::mec_cdn_proposal();
        let json = serde_json::to_string(&eco).unwrap();
        let back: Ecosystem = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entities, eco.entities);
    }
}
