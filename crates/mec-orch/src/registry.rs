//! The shared service registry: what the cluster knows, what CoreDNS
//! serves.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;

/// Which DNS view a name belongs to. The paper's split-namespace design:
/// internal VNF names must never be visible to mobile clients, public
/// MEC-CDN names must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// Internal VNF / platform names (the orchestrator's own service
    /// discovery).
    Internal,
    /// Publicly resolvable MEC-CDN names.
    Public,
}

#[derive(Debug, Clone)]
struct Entry {
    addr: IpAddr,
    visibility: Visibility,
}

#[derive(Debug, Default)]
pub(crate) struct RegistryInner {
    /// Lowercased FQDN (with trailing dot) → entry.
    entries: HashMap<String, Entry>,
}

/// A cheaply-clonable handle to the cluster's name → ClusterIP table.
///
/// The `dns-server` kubernetes plugin holds one of these; the cluster
/// updates it as Services are created, exposed and deleted, so DNS
/// answers always reflect current state — no zone file regeneration.
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    fn key(fqdn: &str) -> String {
        let mut k = fqdn.to_ascii_lowercase();
        if !k.ends_with('.') {
            k.push('.');
        }
        k
    }

    /// Inserts or replaces a name.
    pub fn upsert(&self, fqdn: &str, addr: IpAddr, visibility: Visibility) {
        self.inner
            .borrow_mut()
            .entries
            .insert(Self::key(fqdn), Entry { addr, visibility });
    }

    /// Removes a name. Returns true if it existed.
    pub fn remove(&self, fqdn: &str) -> bool {
        self.inner
            .borrow_mut()
            .entries
            .remove(&Self::key(fqdn))
            .is_some()
    }

    /// Looks a name up in the given view. Internal view sees everything
    /// (pods resolve public names too); public view sees only public
    /// names — the split-namespace guarantee.
    pub fn lookup(&self, fqdn: &str, view: Visibility) -> Option<IpAddr> {
        let inner = self.inner.borrow();
        let e = inner.entries.get(&Self::key(fqdn))?;
        match (view, e.visibility) {
            (Visibility::Internal, _) => Some(e.addr),
            (Visibility::Public, Visibility::Public) => Some(e.addr),
            (Visibility::Public, Visibility::Internal) => None,
        }
    }

    /// All names visible in a view, sorted for deterministic iteration.
    pub fn names(&self, view: Visibility) -> Vec<String> {
        let inner = self.inner.borrow();
        let mut out: Vec<String> = inner
            .entries
            .iter()
            .filter(|(_, e)| match view {
                Visibility::Internal => true,
                Visibility::Public => e.visibility == Visibility::Public,
            })
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }

    /// Number of registered names (both views).
    pub fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_is_case_insensitive_and_dot_normalised() {
        let r = ServiceRegistry::new();
        r.upsert("Video.MyCdn.ciab.test", ip("10.96.0.5"), Visibility::Public);
        assert_eq!(
            r.lookup("video.mycdn.ciab.test.", Visibility::Public),
            Some(ip("10.96.0.5"))
        );
        assert_eq!(
            r.lookup("VIDEO.MYCDN.CIAB.TEST", Visibility::Public),
            Some(ip("10.96.0.5"))
        );
    }

    #[test]
    fn internal_names_hidden_from_public_view() {
        let r = ServiceRegistry::new();
        r.upsert(
            "mme.epc.svc.cluster.local",
            ip("10.96.0.2"),
            Visibility::Internal,
        );
        assert_eq!(
            r.lookup("mme.epc.svc.cluster.local", Visibility::Public),
            None
        );
        assert_eq!(
            r.lookup("mme.epc.svc.cluster.local", Visibility::Internal),
            Some(ip("10.96.0.2"))
        );
    }

    #[test]
    fn internal_view_sees_public_names() {
        let r = ServiceRegistry::new();
        r.upsert("tr.mycdn.ciab.test", ip("10.96.0.9"), Visibility::Public);
        assert_eq!(
            r.lookup("tr.mycdn.ciab.test", Visibility::Internal),
            Some(ip("10.96.0.9"))
        );
    }

    #[test]
    fn upsert_replaces_and_remove_removes() {
        let r = ServiceRegistry::new();
        r.upsert("a.b", ip("10.0.0.1"), Visibility::Public);
        r.upsert("a.b", ip("10.0.0.2"), Visibility::Public);
        assert_eq!(r.lookup("a.b", Visibility::Public), Some(ip("10.0.0.2")));
        assert!(r.remove("a.b"));
        assert!(!r.remove("a.b"));
        assert_eq!(r.lookup("a.b", Visibility::Public), None);
    }

    #[test]
    fn names_filters_by_view_and_sorts() {
        let r = ServiceRegistry::new();
        r.upsert("z.public", ip("10.0.0.1"), Visibility::Public);
        r.upsert("a.public", ip("10.0.0.2"), Visibility::Public);
        r.upsert("m.internal", ip("10.0.0.3"), Visibility::Internal);
        assert_eq!(r.names(Visibility::Public), vec!["a.public.", "z.public."]);
        assert_eq!(r.names(Visibility::Internal).len(), 3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let r = ServiceRegistry::new();
        let r2 = r.clone();
        r.upsert("x.y", ip("10.0.0.1"), Visibility::Public);
        assert_eq!(r2.lookup("x.y", Visibility::Public), Some(ip("10.0.0.1")));
    }
}
