//! Hash-consed, case-folded name interning.
//!
//! [`NameId`] is a process-global, case-insensitive identity for a
//! [`Name`]: two names with equal canonical form always intern to the
//! same id, so code that keeps names in tables (zone walks, the
//! commercial CDN's per-domain state) can compare, hash and suffix-match
//! them as `u32`s without allocating `canonical()` strings. Interning a
//! name eagerly interns its whole parent chain, which makes suffix ids
//! and [`NameId::parent`] table reads and [`NameId::is_subdomain_of`] a
//! short parent walk — the same trick production resolvers (Unbound,
//! BIND) use for their name trees.
//!
//! Identity follows case-folded *label structure*: ids are keyed on the
//! lowercased wire form (length-framed labels), which agrees with
//! `Name::canonical()` string equality for every name whose labels are
//! free of dot octets (all names `Name::parse` can build) and stays
//! faithful to `Name::eq` even for hostile wire-decoded labels that
//! embed dots — `["a.b"]` and `["a", "b"]` get distinct ids. A lookup
//! of a never-interned name ([`NameId::lookup`]) costs one
//! deterministic FNV pass over the name's wire bytes plus a bucket probe:
//! no allocation, no table growth.
//!
//! The table is append-only, so the serving path (decode, the cache,
//! stub routing, encode) never interns: a long-running server would keep
//! every name it was ever asked.

use crate::name::{self, Name, MAX_LABELS};
use std::collections::HashMap;
use std::sync::{LazyLock, RwLock};

/// Interned identity of a canonical (case-folded) domain name.
///
/// Ids are process-local and stable for the life of the process; they
/// must never be persisted or compared across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

/// Sentinel parent of the root entry.
const NO_PARENT: u32 = u32::MAX;

struct Entry {
    /// Canonical *framed* label bytes: each label stored as a length
    /// octet followed by its lowercased bytes (labels are ≤ 63 octets,
    /// so a `u8` length always fits). Empty for the root. Framing —
    /// rather than joining labels with `.` — keeps identity faithful to
    /// label structure even for hostile labels that themselves contain
    /// dot octets: `["a.b"]` and `["a", "b"]` frame differently but
    /// would print identically.
    canon: Box<[u8]>,
    parent: u32,
    label_count: u16,
}

struct Tables {
    /// Deterministic FNV-1a over `canon` → candidate ids (collision chain).
    buckets: HashMap<u64, Vec<u32>>,
    entries: Vec<Entry>,
}

static TABLE: LazyLock<RwLock<Tables>> = LazyLock::new(|| {
    let mut buckets = HashMap::new();
    buckets.insert(FNV_OFFSET, vec![0]);
    RwLock::new(Tables {
        buckets,
        entries: vec![Entry {
            canon: Box::new([]),
            parent: NO_PARENT,
            label_count: 0,
        }],
    })
});

/// Read guard on the global table. A poisoned lock is recovered rather
/// than propagated: the table is append-only (a writer that panicked
/// mid-`intern_labels` can at worst leave an entry unreachable from the
/// bucket chains, never a dangling reference), so the data is always
/// safe to read and the resolution hot path stays panic-free.
fn table_read() -> std::sync::RwLockReadGuard<'static, Tables> {
    TABLE
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write guard on the global table; poison recovery as [`table_read`].
fn table_write() -> std::sync::RwLockWriteGuard<'static, Tables> {
    TABLE
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the lowercased wire form of a label sequence. A
/// hand-rolled deterministic hash (rather than the std `RandomState`)
/// lets the bucket map be probed from a borrowed name. Lowercasing
/// leaves the length octets (at most 63) alone, so this hashes the
/// framed `Entry::canon` layout, and structurally distinct label
/// sequences hash (and compare) distinctly.
fn fnv_wire(wire: &[u8]) -> u64 {
    wire.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(FNV_PRIME)
    })
}

// detlint: allow-item(hot-index) — ids stored in `buckets` are minted
// by `intern_wire` from `entries.len()`, so they always index in
// bounds.
impl Tables {
    fn find(&self, hash: u64, wire: &[u8]) -> Option<NameId> {
        self.buckets
            .get(&hash)?
            .iter()
            .copied()
            // `canon` is lowercase already.
            .find(|&id| self.entries[id as usize].canon.eq_ignore_ascii_case(wire))
            .map(NameId)
    }

    fn intern_wire(&mut self, wire: &[u8]) -> NameId {
        // Walk suffixes shortest-first so each new entry's parent exists
        // before the entry itself; suffix ids thus form the parent chain.
        let mut starts = [0; MAX_LABELS];
        let n = name::label_starts(wire, &mut starts);
        let mut parent = 0u32; // root
        for (k, &start) in starts.iter().enumerate().take(n).rev() {
            let suffix = wire.get(usize::from(start)..).unwrap_or(&[]);
            let h = fnv_wire(suffix);
            match self.find(h, suffix) {
                Some(id) => parent = id.0,
                None => {
                    let canon = suffix.to_ascii_lowercase();
                    // detlint: allow(hot-panic) — 2^32 interned names means
                    // the workload itself is broken; a capacity abort beats
                    // silently wrapping ids.
                    let id = u32::try_from(self.entries.len()).expect("name table overflow");
                    self.entries.push(Entry {
                        canon: canon.into_boxed_slice(),
                        parent,
                        label_count: (n - k) as u16,
                    });
                    self.buckets.entry(h).or_default().push(id);
                    parent = id;
                }
            }
        }
        NameId(parent)
    }
}

// detlint: allow-item(hot-index) — a `NameId` only exists if `intern`
// minted it from `entries.len()`, and entries are never removed, so
// `entries[id]` is always in bounds (likewise each stored `parent`).
impl NameId {
    /// The root name's id.
    pub const ROOT: NameId = NameId(0);

    /// Interns `name` (and its whole parent chain), returning its id.
    pub fn intern(name: &Name) -> NameId {
        let wire = name.wire();
        let h = fnv_wire(wire);
        if let Some(id) = table_read().find(h, wire) {
            return id;
        }
        table_write().intern_wire(wire)
    }

    /// The id of `name` if it has ever been interned — the allocation-free
    /// probe used on cache-miss paths, where growing the table for a name
    /// nobody has stored would be wasted work.
    pub fn lookup(name: &Name) -> Option<NameId> {
        let wire = name.wire();
        table_read().find(fnv_wire(wire), wire)
    }

    /// The parent name's id (one label removed), or `None` at the root.
    pub fn parent(self) -> Option<NameId> {
        let t = table_read();
        match t.entries[self.0 as usize].parent {
            NO_PARENT => None,
            p => Some(NameId(p)),
        }
    }

    /// Number of labels in the interned name (the root has zero).
    pub fn label_count(self) -> usize {
        table_read().entries[self.0 as usize].label_count as usize
    }

    /// True if `self` equals `ancestor` or sits below it in the tree —
    /// id-space equivalent of [`Name::is_subdomain_of`], performed as a
    /// parent-chain walk with no allocation.
    pub fn is_subdomain_of(self, ancestor: NameId) -> bool {
        if ancestor == NameId::ROOT {
            return true;
        }
        let t = table_read();
        let target = t.entries[ancestor.0 as usize].label_count;
        let mut cur = self.0;
        loop {
            let e = &t.entries[cur as usize];
            if e.label_count < target {
                return false;
            }
            if e.label_count == target {
                return cur == ancestor.0;
            }
            cur = e.parent;
        }
    }

    /// Canonical presentation of the interned name (allocates; debugging
    /// and display only — never on the hot path). Rebuilt from the
    /// framed storage, matching [`Name::canonical`] for any name whose
    /// labels contain no dot octets.
    pub fn canonical(self) -> String {
        let t = table_read();
        let canon = &t.entries[self.0 as usize].canon;
        if canon.is_empty() {
            return ".".to_string();
        }
        let mut s = String::with_capacity(canon.len());
        let mut pos = 0;
        while let Some(&len) = canon.get(pos) {
            let end = pos + 1 + usize::from(len);
            for &b in canon.get(pos + 1..end).unwrap_or(&[]) {
                s.push(b as char);
            }
            s.push('.');
            pos = end;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn same_canonical_form_same_id() {
        let a = NameId::intern(&n("Video.Demo1.MyCdn.ciab.test"));
        let b = NameId::intern(&n("video.demo1.mycdn.ciab.test."));
        assert_eq!(a, b);
        assert_ne!(a, NameId::intern(&n("video.demo2.mycdn.ciab.test")));
    }

    #[test]
    fn root_is_fixed() {
        assert_eq!(NameId::intern(&Name::root()), NameId::ROOT);
        assert_eq!(NameId::ROOT.label_count(), 0);
        assert_eq!(NameId::ROOT.parent(), None);
        assert_eq!(NameId::ROOT.canonical(), ".");
    }

    #[test]
    fn parent_chain_matches_name_parents() {
        let name = n("a.b.c.example");
        let id = NameId::intern(&name);
        assert_eq!(id.parent(), Some(NameId::intern(&name.parent().unwrap())));
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(c) = cur {
            cur = c.parent();
            hops += 1;
        }
        assert_eq!(hops, name.label_count() + 1, "chain ends at the root");
    }

    #[test]
    fn subdomain_matches_name_semantics() {
        let zone = n("mycdn.ciab.test");
        let host = n("video.demo1.MYCDN.ciab.test");
        let other = n("video.demo1.othercdn.ciab.test");
        let (zi, hi, oi) = (
            NameId::intern(&zone),
            NameId::intern(&host),
            NameId::intern(&other),
        );
        assert!(hi.is_subdomain_of(zi));
        assert!(zi.is_subdomain_of(zi));
        assert!(!zi.is_subdomain_of(hi));
        assert!(!oi.is_subdomain_of(zi));
        assert!(hi.is_subdomain_of(NameId::ROOT));
    }

    #[test]
    fn lookup_does_not_intern() {
        let fresh = n("never-stored-l00kup-probe.invalid");
        assert_eq!(NameId::lookup(&fresh), None);
        let id = NameId::intern(&fresh);
        assert_eq!(NameId::lookup(&fresh), Some(id));
        // Suffixes were interned along the way.
        assert!(NameId::lookup(&n("invalid")).is_some());
    }

    #[test]
    fn canonical_roundtrip() {
        let name = n("CDN0.Agoda.NET");
        assert_eq!(NameId::intern(&name).canonical(), name.canonical());
    }

    #[test]
    fn dot_bearing_label_does_not_collide_with_split_labels() {
        // Wire-decoded names may carry labels containing literal dot
        // octets; `["a.b", "zz-intern-dot"]` must not intern to the same
        // id as `["a", "b", "zz-intern-dot"]` even though both print as
        // "a.b.zz-intern-dot.".
        use crate::wire::Reader;
        let embedded = [
            3, b'a', b'.', b'b', 13, b'z', b'z', b'-', b'i', b'n', b't', b'e', b'r', b'n', b'-',
            b'd', b'o', b't', 0,
        ];
        let split = [
            1, b'a', 1, b'b', 13, b'z', b'z', b'-', b'i', b'n', b't', b'e', b'r', b'n', b'-', b'd',
            b'o', b't', 0,
        ];
        let a = Name::decode(&mut Reader::new(&embedded)).unwrap();
        let b = Name::decode(&mut Reader::new(&split)).unwrap();
        assert_ne!(a, b, "Name equality distinguishes label structure");
        assert_ne!(
            NameId::intern(&a),
            NameId::intern(&b),
            "id-space identity must match Name equality, not display"
        );
        assert_eq!(a.id(), a.lookup_id().unwrap());
    }
}
