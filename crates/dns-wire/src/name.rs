//! Domain names: parsing, comparison and wire encoding with compression.

use crate::error::WireError;
use crate::intern::{self, NameId};
use crate::wire::{Reader, Writer};
use std::fmt;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole encoded name in octets (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum number of labels a valid name can carry: each label costs at
/// least two octets (length + one byte) and the root octet closes the
/// name, so ⌊(255 − 1) / 2⌋.
pub const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;
/// Maximum number of compression pointers the decoder will follow — the
/// pointer half of the decode step budget. Pointers must also point
/// strictly backwards (see [`Name::decode`]), so any legitimate name
/// fits in far fewer hops; the cap bounds ping-pong chains a hostile
/// message can still construct inside already-read bytes.
pub const MAX_POINTER_HOPS: usize = 32;

/// A fully-qualified domain name, stored as a sequence of labels.
///
/// Names compare and hash case-insensitively, as RFC 1035 §2.3.3 requires,
/// but preserve the case they were created with for display.
///
/// ```
/// use dns_wire::Name;
/// let a = Name::parse("Video.Demo1.MyCdn.ciab.test").unwrap();
/// let b = Name::parse("video.demo1.mycdn.ciab.test.").unwrap();
/// assert_eq!(a, b);
/// assert!(a.is_subdomain_of(&Name::parse("mycdn.ciab.test").unwrap()));
/// ```
#[derive(Debug)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Clone for Name {
    fn clone(&self) -> Self {
        Name {
            labels: self.labels.clone(),
        }
    }

    /// Reuses `self`'s label buffers, so a name rebuilt in place
    /// allocates only where it outgrows them.
    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
    }
}

impl Name {
    /// The root name (zero labels, encoded as a single zero octet).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parses presentation format (`"www.example.com"`, trailing dot
    /// optional). Rejects empty labels, over-long labels and names, and
    /// bytes outside the letter/digit/hyphen/underscore set.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for label in s.split('.') {
            if label.is_empty() {
                return Err(WireError::EmptyName);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            for &b in label.as_bytes() {
                if !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                    return Err(WireError::InvalidLabelByte(b));
                }
            }
            labels.push(label.as_bytes().to_vec());
        }
        let name = Name { labels };
        let encoded = name.encoded_len();
        if encoded > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(encoded));
        }
        Ok(name)
    }

    /// Builds a name from raw labels (used by the decoder).
    fn from_labels(labels: Vec<Vec<u8>>) -> Result<Self, WireError> {
        let name = Name { labels };
        let encoded = name.encoded_len();
        if encoded > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(encoded));
        }
        Ok(name)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(|l| l.as_slice())
    }

    /// Raw label storage, for the interner.
    pub(crate) fn label_slices(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Interns this name (and its parent chain), returning its
    /// process-global case-folded id.
    pub fn id(&self) -> NameId {
        NameId::intern(self)
    }

    /// The interned id of this name if it has ever been interned; never
    /// allocates or grows the intern table.
    pub fn lookup_id(&self) -> Option<NameId> {
        NameId::lookup(self)
    }

    /// Length of the uncompressed wire encoding, including the root octet.
    pub fn encoded_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// True if `self` equals `ancestor` or sits below it in the tree.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        if ancestor.labels.len() > self.labels.len() {
            return false;
        }
        self.labels
            .iter()
            .rev()
            .zip(ancestor.labels.iter().rev())
            .all(|(a, b)| eq_ignore_case(a, b))
    }

    /// Returns the parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        self.labels.get(1..).map(|rest| Name {
            labels: rest.to_vec(),
        })
    }

    /// Prepends `label` to produce a child name.
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        if label.is_empty() {
            return Err(WireError::EmptyName);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_bytes().to_vec());
        labels.extend(self.labels.iter().cloned());
        Name::from_labels(labels)
    }

    /// Canonical lowercase presentation with a trailing dot; the key used
    /// for case-insensitive map lookups and compression.
    pub fn canonical(&self) -> String {
        if self.labels.is_empty() {
            return ".".to_string();
        }
        let mut s = String::with_capacity(self.encoded_len());
        for l in &self.labels {
            for &b in l {
                s.push(b.to_ascii_lowercase() as char);
            }
            s.push('.');
        }
        s
    }

    /// Streams the canonical presentation bytes into a hasher exactly as
    /// `self.canonical().hash(state)` would — the lowercased dotted form
    /// (a lone dot for the root) followed by the `0xff` terminator the
    /// std `str` hash appends — without building the string. Digest
    /// equality with the string path holds for byte-streaming hashers
    /// such as `DefaultHasher`; the selection logic in `cdn-sim` depends
    /// on it for output-identical address rotation.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, state: &mut H) {
        if self.labels.is_empty() {
            state.write_u8(b'.');
        } else {
            for l in &self.labels {
                for &b in l {
                    state.write_u8(b.to_ascii_lowercase());
                }
                state.write_u8(b'.');
            }
        }
        state.write_u8(0xff);
    }

    /// Encodes the name, emitting a compression pointer for the longest
    /// suffix the writer has already seen. Compression state is keyed by
    /// interned [`NameId`]s, so no suffix strings are built.
    // detlint: allow-item(hot-index) — `suffix_chain` fills `chain[..n]`
    // with `n == self.labels.len() <= MAX_LABELS`, and every index below
    // is bounded by `skip < n` or `i < n`.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        let mut chain = [NameId::ROOT; MAX_LABELS];
        let n = intern::suffix_chain(self, &mut chain);
        // Walk suffixes from the full name downward; at the first suffix
        // already present in the writer, emit a pointer and stop.
        for skip in 0..n {
            if let Some(off) = w.lookup_suffix(chain[skip]) {
                // Emit the labels before the matched suffix, then a pointer.
                for (i, label) in self.labels[..skip].iter().enumerate() {
                    w.record_suffix(chain[i], w.len());
                    w.write_u8(label.len() as u8);
                    w.write_bytes(label);
                }
                w.write_u16(0xC000 | off);
                return Ok(());
            }
        }
        // No suffix matched: emit every label then the root octet.
        for (i, label) in self.labels.iter().enumerate() {
            w.record_suffix(chain[i], w.len());
            w.write_u8(label.len() as u8);
            w.write_bytes(label);
        }
        w.write_u8(0);
        Ok(())
    }

    /// Decodes a (possibly compressed) name, leaving the reader positioned
    /// just past the name's first occurrence in the stream.
    ///
    /// The decoder enforces an explicit step budget so the work (and
    /// allocation) one name can demand is bounded no matter what the
    /// message contains:
    ///
    /// * every compression pointer must point **strictly backwards** —
    ///   before the first byte of the pointer itself — which rules out
    ///   self-pointers and forward pointers outright (they are the raw
    ///   material of decompression loops);
    /// * at most [`MAX_POINTER_HOPS`] pointers are followed, defeating
    ///   ping-pong chains built inside already-read bytes
    ///   ([`WireError::PointerChainTooDeep`]);
    /// * accumulated label octets are checked against the 255-octet name
    ///   limit *as they are read*, so a hostile message can never make
    ///   the decoder buffer more than [`MAX_NAME_LEN`] octets.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut labels: Vec<Vec<u8>> = Vec::new();
        // Accumulated encoded length (length octet + label octets per
        // label, plus the closing root octet).
        let mut octets = 1usize;
        let mut hops = 0usize;
        // After the first pointer we read from a clone so the caller's
        // cursor stays just past the pointer.
        let mut cursor = r.clone();
        let mut jumped = false;
        loop {
            let len = cursor.read_u8("name label length")?;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    octets += 1 + usize::from(len);
                    if octets > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(octets));
                    }
                    let bytes = cursor.read_bytes(len as usize, "name label")?;
                    labels.push(bytes.to_vec());
                    if !jumped {
                        *r = cursor.clone();
                    }
                }
                0xC0 => {
                    let lo = cursor.read_u8("compression pointer")?;
                    let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
                    // Offset of the pointer's own first byte; the target
                    // must land strictly before it.
                    let ptr_at = cursor.position().saturating_sub(2);
                    if !jumped {
                        *r = cursor.clone();
                        jumped = true;
                    }
                    if target >= ptr_at {
                        return Err(WireError::BadPointer { target });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerChainTooDeep { hops });
                    }
                    cursor.seek(target)?;
                }
                other => return Err(WireError::UnsupportedLabelType(other >> 6)),
            }
        }
        if !jumped {
            *r = cursor;
        }
        Name::from_labels(labels)
    }
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.eq_ignore_ascii_case(y))
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| eq_ignore_case(a, b))
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(b'.');
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right to left,
    /// case-insensitively (RFC 4034 §6.1 without the DNSSEC baggage).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a = self.labels.iter().rev();
        let mut b = other.labels.iter().rev();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return std::cmp::Ordering::Equal,
                (None, Some(_)) => return std::cmp::Ordering::Less,
                (Some(_), None) => return std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => {
                    // Case-folded lexicographic label compare, in place.
                    let ord = x
                        .iter()
                        .zip(y.iter())
                        .map(|(a, b)| a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase()))
                        .find(|o| o.is_ne())
                        .unwrap_or_else(|| x.len().cmp(&y.len()));
                    match ord {
                        std::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
            }
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for l in &self.labels {
            for &b in l {
                write!(f, "{}", b as char)?;
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(name: &Name) -> Name {
        let mut w = Writer::new();
        name.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        Name::decode(&mut r).unwrap()
    }

    #[test]
    fn clone_from_copies_labels_and_case_over_any_name() {
        for (from, into) in [
            ("XyZ.Example.com", "a.b.c.d.e"),
            ("a.b.c.d.e", "Q.r"),
            ("", "x.y"),
        ] {
            let source = Name::parse(from).unwrap();
            let mut name = Name::parse(into).unwrap();
            name.clone_from(&source);
            assert_eq!(name.to_string(), source.to_string());
            assert_eq!(name.label_count(), source.label_count());
        }
    }

    #[test]
    fn parse_and_display() {
        let n = Name::parse("a0.muscache.com").unwrap();
        assert_eq!(n.to_string(), "a0.muscache.com.");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            Name::parse("q-cf.bstatic.com").unwrap(),
            Name::parse("q-cf.bstatic.com.").unwrap()
        );
    }

    #[test]
    fn root_parses_from_empty_and_dot_suffix_only() {
        assert!(Name::parse("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().encoded_len(), 1);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        assert!(Name::parse("sp ace.com").is_err());
    }

    #[test]
    fn rejects_overlong_name() {
        // 5 labels of 63 octets exceed 255 total.
        let long = vec!["x".repeat(63); 5].join(".");
        assert!(matches!(Name::parse(&long), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn equality_ignores_case() {
        let a = Name::parse("CDN0.Agoda.NET").unwrap();
        let b = Name::parse("cdn0.agoda.net").unwrap();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn subdomain_relationships() {
        let zone = Name::parse("mycdn.ciab.test").unwrap();
        let host = Name::parse("video.demo1.mycdn.ciab.test").unwrap();
        assert!(host.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&host));
        assert!(host.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn parent_and_child() {
        let n = Name::parse("b.c").unwrap();
        let c = n.child("a").unwrap();
        assert_eq!(c.to_string(), "a.b.c.");
        assert_eq!(c.parent().unwrap(), n);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn wire_roundtrip_simple() {
        for s in ["static.tacdn.com", "a.cdn.intentmedia.net", ""] {
            let n = Name::parse(s).unwrap();
            assert_eq!(roundtrip(&n), n);
        }
    }

    #[test]
    fn compression_points_to_shared_suffix() {
        let mut w = Writer::new();
        Name::parse("www.example.com").unwrap().encode(&mut w).unwrap();
        let before = w.len();
        Name::parse("mail.example.com").unwrap().encode(&mut w).unwrap();
        // "mail" label (5 bytes) + pointer (2 bytes) = 7 bytes, far less
        // than the 18 an uncompressed encoding would need.
        assert_eq!(w.len() - before, 7);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap().to_string(), "www.example.com.");
        assert_eq!(
            Name::decode(&mut r).unwrap().to_string(),
            "mail.example.com."
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_name_compresses_to_lone_pointer() {
        let mut w = Writer::new();
        let n = Name::parse("x.y.z").unwrap();
        n.encode(&mut w).unwrap();
        let before = w.len();
        n.encode(&mut w).unwrap();
        assert_eq!(w.len() - before, 2);
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // A pointer at offset 0 pointing to itself: not strictly
        // backwards, so it is refused before it can spin.
        let buf = [0xC0, 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0 })
        );
    }

    #[test]
    fn decode_rejects_two_pointer_loop() {
        // ptr@0 -> 2, ptr@2 -> 0. Any loop needs at least one forward
        // (or self) edge, and the very first pointer here is forward.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 2 })
        );
    }

    #[test]
    fn decode_rejects_forward_pointer_out_of_range() {
        let buf = [0xC0, 0x7F];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0x7F })
        );
    }

    #[test]
    fn decode_rejects_in_bounds_forward_pointer() {
        // A label, then a pointer to a valid name *later* in the
        // message. In-bounds, decodable in principle — still refused:
        // pointers must point strictly backwards.
        let buf = [0x01, b'a', 0xC0, 0x04, 0x01, b'b', 0x00];
        let mut r = Reader::new(&buf);
        r.seek(2).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 4 })
        );
    }

    #[test]
    fn decode_rejects_pointer_past_message_end() {
        // A name at offset 3 whose pointer targets offset 0x3FF, far
        // past the 7-byte message. (With the strictly-backwards rule a
        // past-the-end target can never also be before the pointer, so
        // this reports as the same BadPointer the loop cases get.)
        let buf = [0x01, b'a', 0x00, 0x01, b'b', 0xC3, 0xFF];
        let mut r = Reader::new(&buf);
        r.seek(3).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0x3FF })
        );
    }

    #[test]
    fn decode_rejects_chain_deeper_than_step_budget() {
        // Root at offset 0, then a chain of strictly-backward pointers
        // each targeting the previous one: every hop is legal in
        // isolation, but the chain is deeper than the decode budget.
        let mut buf = vec![0x00];
        for k in 0..(MAX_POINTER_HOPS + 4) {
            let target = if k == 0 { 0 } else { 1 + 2 * (k - 1) };
            buf.push(0xC0 | (target >> 8) as u8);
            buf.push(target as u8);
        }
        let start = buf.len() - 2;
        let mut r = Reader::new(&buf);
        r.seek(start).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::PointerChainTooDeep {
                hops: MAX_POINTER_HOPS + 1
            })
        );
    }

    #[test]
    fn decode_rejects_overlong_name_as_it_accumulates() {
        // Five 63-octet labels exceed the 255-octet name limit; the
        // decoder notices while reading the fifth label's length octet,
        // before buffering the payload.
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.push(63);
            buf.extend(std::iter::repeat_n(b'x', 63));
        }
        buf.push(0);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Name::decode(&mut r),
            Err(WireError::NameTooLong(_))
        ));
    }

    #[test]
    fn decode_accepts_max_length_label_rejects_label_type_64() {
        // 63 is the largest literal label; 64 sets the reserved 0b01
        // type bits and must be refused as an unsupported label type.
        let mut ok = vec![63];
        ok.extend(std::iter::repeat_n(b'y', 63));
        ok.push(0);
        let mut r = Reader::new(&ok);
        let name = Name::decode(&mut r).unwrap();
        assert_eq!(name.label_count(), 1);
        assert_eq!(name.encoded_len(), 65);

        let bad = [64, b'z', 0x00];
        let mut r = Reader::new(&bad);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::UnsupportedLabelType(0b01))
        );
    }

    #[test]
    fn decode_rejects_unsupported_label_type() {
        let buf = [0x80, 0x01, b'a', 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::UnsupportedLabelType(0b10))
        );
    }

    #[test]
    fn reader_position_is_past_first_occurrence_after_pointer() {
        // message: name1 = "a." at 0..3, then name2 = pointer to 0, then 0xFF
        let mut w = Writer::new();
        Name::parse("a").unwrap().encode(&mut w).unwrap();
        Name::parse("a").unwrap().encode(&mut w).unwrap();
        w.write_u8(0xFF);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        Name::decode(&mut r).unwrap();
        Name::decode(&mut r).unwrap();
        assert_eq!(r.read_u8("sentinel").unwrap(), 0xFF);
    }

    #[test]
    fn ordering_is_right_to_left() {
        let mut names = [Name::parse("b.example.com").unwrap(),
            Name::parse("example.com").unwrap(),
            Name::parse("a.example.com").unwrap(),
            Name::parse("example.net").unwrap()];
        names.sort();
        let strs: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            strs,
            vec![
                "example.com.",
                "a.example.com.",
                "b.example.com.",
                "example.net."
            ]
        );
    }

    #[test]
    fn canonical_lowercases_and_ends_with_dot() {
        assert_eq!(Name::parse("A.B").unwrap().canonical(), "a.b.");
        assert_eq!(Name::root().canonical(), ".");
    }

    #[test]
    fn hash_canonical_matches_string_hash_digest() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for s in [
            "",
            "com",
            "Video.Demo1.MyCdn.ciab.test",
            "q-cf.bstatic.com",
            "A0.MUSCACHE.COM",
        ] {
            let name = Name::parse(s).unwrap();
            let mut via_string = DefaultHasher::new();
            name.canonical().hash(&mut via_string);
            let mut streamed = DefaultHasher::new();
            name.hash_canonical(&mut streamed);
            assert_eq!(
                via_string.finish(),
                streamed.finish(),
                "digest mismatch for {s:?}"
            );
        }
    }

    #[test]
    fn ordering_matches_lowercased_byte_compare() {
        // Same right-to-left order the allocating comparison produced.
        let a = Name::parse("AB.x").unwrap();
        let b = Name::parse("ab.x").unwrap();
        let c = Name::parse("abc.x").unwrap();
        let d = Name::parse("ac.x").unwrap();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(b.cmp(&c), std::cmp::Ordering::Less);
        assert_eq!(c.cmp(&d), std::cmp::Ordering::Less);
    }
}
