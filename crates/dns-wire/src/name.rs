//! Domain names: parsing, comparison and wire encoding with compression.
//!
//! A [`Name`] is stored as its uncompressed wire form: length-prefixed
//! labels, leftmost first, without the closing root octet. Up to
//! 46 octets of it are kept inline, so a typical CDN name is copied,
//! compared and hashed without touching the heap; a longer name takes
//! one allocation. The encoder and decoder work on that form directly.

use crate::error::WireError;
use crate::intern::NameId;
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

/// Longest label sequence of a valid name: the name limit less the root
/// octet, which is implied.
const MAX_WIRE_LEN: usize = MAX_NAME_LEN - 1;

/// Longest label sequence kept inline. 46 octets make a 48-byte `Name`
/// and hold every name the benchmark workloads serve (32 octets at most).
const INLINE_LEN: usize = 46;

/// Where the label sequence lives. The variant follows from the length,
/// so equal names may differ only in letter case, never in layout.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    Heap(Box<[u8]>),
}

/// A fully-qualified domain name, stored as its uncompressed wire form.
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
#[derive(Clone)]
pub struct Name {
    /// Always a valid label sequence: lengths 1..=63, each followed by
    /// that many octets, at most [`MAX_WIRE_LEN`] octets in all.
    repr: Repr,
}

/// A label sequence under construction, on the stack.
struct WireBuf {
    buf: [u8; MAX_WIRE_LEN],
    len: usize,
}

impl WireBuf {
    fn new() -> Self {
        WireBuf {
            buf: [0; MAX_WIRE_LEN],
            len: 0,
        }
    }

    /// Appends `bytes`; writes nothing when they would not fit.
    fn push(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if let Some(dst) = self.buf.get_mut(self.len..end) {
            dst.copy_from_slice(bytes);
            self.len = end;
        }
    }

    fn name(&self) -> Name {
        Name::from_wire(self.buf.get(..self.len).unwrap_or(&[]))
    }
}

/// The labels of a label sequence, leftmost first.
struct Labels<'a>(&'a [u8]);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at_checked(usize::from(len))?;
        self.0 = rest;
        Some(label)
    }
}

/// Writes the offset of each label's length octet in `wire` into
/// `starts`, leftmost first, and returns how many labels there are.
/// Offsets of a valid name are below 254, so they fit a `u8`.
pub(crate) fn label_starts(wire: &[u8], starts: &mut [u8; MAX_LABELS]) -> usize {
    let mut n = 0;
    let mut pos = 0;
    while let (Some(&len), Some(slot)) = (wire.get(pos), starts.get_mut(n)) {
        *slot = pos as u8;
        n += 1;
        pos += 1 + usize::from(len);
    }
    n
}

/// The label whose length octet is at `start`.
fn label_at(wire: &[u8], start: u8) -> &[u8] {
    wire.get(usize::from(start)..)
        .and_then(|tail| Labels(tail).next())
        .unwrap_or(&[])
}

impl Name {
    /// The root name (zero labels, encoded as a single zero octet).
    pub fn root() -> Self {
        Name::from_wire(&[])
    }

    /// Wraps a label sequence the caller has checked.
    fn from_wire(wire: &[u8]) -> Self {
        let mut buf = [0; INLINE_LEN];
        let repr = match buf.get_mut(..wire.len()) {
            Some(dst) => {
                dst.copy_from_slice(wire);
                Repr::Inline {
                    len: wire.len() as u8,
                    buf,
                }
            }
            None => Repr::Heap(wire.into()),
        };
        Name { repr }
    }

    /// The uncompressed wire form without the root octet.
    pub(crate) fn wire(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(&[]),
            Repr::Heap(wire) => wire,
        }
    }

    /// Parses presentation format (`"www.example.com"`, trailing dot
    /// optional). Rejects empty labels, over-long labels and names, and
    /// bytes outside the letter/digit/hyphen/underscore set.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut wire = WireBuf::new();
        // Encoded length, root octet included. It keeps counting past
        // the limit, so that a bad label anywhere is reported first.
        let mut octets = 1;
        for label in s.split('.') {
            if label.is_empty() {
                return Err(WireError::EmptyName);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            let bad = |&&b: &&u8| !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if let Some(&b) = label.as_bytes().iter().find(bad) {
                return Err(WireError::InvalidLabelByte(b));
            }
            octets += 1 + label.len();
            wire.push(&[label.len() as u8]);
            wire.push(label.as_bytes());
        }
        if octets > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(octets));
        }
        Ok(wire.name())
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire().is_empty()
    }

    /// Iterates over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        Labels(self.wire())
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
        self.wire().len() + 1
    }

    /// True if `self` equals `ancestor` or sits below it in the tree.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let (wire, tail) = (self.wire(), ancestor.wire());
        let Some(cut) = wire.len().checked_sub(tail.len()) else {
            return false;
        };
        // The ancestor must start at one of `self`'s labels, not inside one.
        let mut pos = 0;
        while pos < cut {
            match wire.get(pos) {
                Some(&len) => pos += 1 + usize::from(len),
                None => return false,
            }
        }
        pos == cut
            && wire
                .get(cut..)
                .is_some_and(|s| s.eq_ignore_ascii_case(tail))
    }

    /// Returns the parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        let (&len, rest) = self.wire().split_first()?;
        rest.get(usize::from(len)..).map(Name::from_wire)
    }

    /// Prepends `label` to produce a child name.
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        if label.is_empty() {
            return Err(WireError::EmptyName);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let octets = 1 + label.len() + self.encoded_len();
        if octets > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(octets));
        }
        let mut wire = WireBuf::new();
        wire.push(&[label.len() as u8]);
        wire.push(label.as_bytes());
        wire.push(self.wire());
        Ok(wire.name())
    }

    /// Writes the canonical presentation — lowercased, each label
    /// followed by a dot, a lone dot for the root — into `out` and
    /// returns its length, which is never more than [`MAX_WIRE_LEN`].
    fn canonical_bytes(&self, out: &mut [u8; MAX_WIRE_LEN]) -> usize {
        let wire = self.wire();
        let mut dst = out.iter_mut();
        for label in self.labels() {
            for (&b, d) in label.iter().zip(dst.by_ref()) {
                *d = b.to_ascii_lowercase();
            }
            if let Some(d) = dst.next() {
                *d = b'.';
            }
        }
        if wire.is_empty() {
            if let Some(d) = dst.next() {
                *d = b'.';
            }
            return 1;
        }
        wire.len()
    }

    /// Canonical lowercase presentation with a trailing dot; the key used
    /// for case-insensitive map lookups and compression.
    pub fn canonical(&self) -> String {
        let mut buf = [0; MAX_WIRE_LEN];
        let len = self.canonical_bytes(&mut buf);
        buf.iter().take(len).map(|&b| char::from(b)).collect()
    }

    /// Streams the canonical presentation bytes into a hasher exactly as
    /// `self.canonical().hash(state)` would — the lowercased dotted form
    /// (a lone dot for the root) followed by the `0xff` terminator the
    /// std `str` hash appends — without building the string. Digest
    /// equality with the string path holds for byte-streaming hashers
    /// such as `DefaultHasher`; the selection logic in `cdn-sim` depends
    /// on it for output-identical address rotation.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut buf = [0; MAX_WIRE_LEN];
        let len = self.canonical_bytes(&mut buf);
        state.write(buf.get(..len).unwrap_or(&[]));
        state.write_u8(0xff);
    }

    /// Encodes the name, emitting a compression pointer for the longest
    /// suffix the writer has already written, and recording where each
    /// newly written suffix starts.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        let wire = self.wire();
        // Walk suffixes from the full name downward; at the first suffix
        // already present in the writer, emit a pointer and stop.
        let mut tail = wire;
        let mut pointer = None;
        while let Some((&len, rest)) = tail.split_first() {
            pointer = w.find_suffix(tail);
            if pointer.is_some() {
                break;
            }
            tail = rest.get(usize::from(len)..).unwrap_or(&[]);
        }
        // Emit the labels before the matched suffix (all of them when
        // none matched), each of them the start of a new suffix.
        let head = wire.get(..wire.len() - tail.len()).unwrap_or(&[]);
        let at = w.len();
        let mut pos = 0;
        while let Some(&len) = head.get(pos) {
            w.record_suffix(at + pos, wire.len() - pos);
            pos += 1 + usize::from(len);
        }
        w.write_bytes(head);
        match pointer {
            Some(off) => w.write_u16(0xC000 | off),
            None => w.write_u8(0),
        }
        Ok(())
    }

    /// Decodes a (possibly compressed) name, leaving the reader positioned
    /// just past the name's first occurrence in the stream.
    ///
    /// The decoder enforces an explicit step budget so the work one name
    /// can demand is bounded no matter what the message contains:
    ///
    /// * every compression pointer must point **strictly backwards** —
    ///   before the first byte of the pointer itself — which rules out
    ///   self-pointers and forward pointers outright (they are the raw
    ///   material of decompression loops);
    /// * at most [`MAX_POINTER_HOPS`] pointers are followed, defeating
    ///   ping-pong chains built inside already-read bytes
    ///   ([`WireError::PointerChainTooDeep`]);
    /// * accumulated label octets are checked against the 255-octet name
    ///   limit *as they are read*, so the labels always fit the stack
    ///   buffer they are copied into.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut wire = WireBuf::new();
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
                    let bytes = cursor.read_bytes(usize::from(len), "name label")?;
                    wire.push(&[len]);
                    wire.push(bytes);
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
        Ok(wire.name())
    }
}

impl PartialEq for Name {
    /// Label sequences equal but for ASCII letter case. Length octets
    /// (at most 63) are never letters, so this is label-by-label
    /// equality.
    fn eq(&self, other: &Self) -> bool {
        self.wire().eq_ignore_ascii_case(other.wire())
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    /// Hashes the lowercased wire form and its root octet in one write,
    /// consistent with the case-insensitive `Eq`.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let wire = self.wire();
        let mut buf = [0; MAX_NAME_LEN];
        for (d, &b) in buf.iter_mut().zip(wire) {
            *d = b.to_ascii_lowercase();
        }
        // `buf[wire.len()]` is still 0: the root octet.
        state.write(buf.get(..=wire.len()).unwrap_or(&[]));
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
        let (a, b) = (self.wire(), other.wire());
        let (mut sa, mut sb) = ([0; MAX_LABELS], [0; MAX_LABELS]);
        let na = label_starts(a, &mut sa);
        let nb = label_starts(b, &mut sb);
        let ra = sa.iter().take(na).rev();
        let rb = sb.iter().take(nb).rev();
        for (&x, &y) in ra.zip(rb) {
            let ord = label_at(a, x)
                .iter()
                .map(u8::to_ascii_lowercase)
                .cmp(label_at(b, y).iter().map(u8::to_ascii_lowercase));
            if ord.is_ne() {
                return ord;
            }
        }
        na.cmp(&nb)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        if self.is_root() {
            return f.write_char('.');
        }
        for label in self.labels() {
            for &b in label {
                f.write_char(char::from(b))?;
            }
            f.write_char('.')?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
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
        Name::parse("www.example.com")
            .unwrap()
            .encode(&mut w)
            .unwrap();
        let before = w.len();
        Name::parse("mail.example.com")
            .unwrap()
            .encode(&mut w)
            .unwrap();
        // "mail" label (5 bytes) + pointer (2 bytes) = 7 bytes, far less
        // than the 18 an uncompressed encoding would need.
        assert_eq!(w.len() - before, 7);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r).unwrap().to_string(),
            "www.example.com."
        );
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
        let mut names = [
            Name::parse("b.example.com").unwrap(),
            Name::parse("example.com").unwrap(),
            Name::parse("a.example.com").unwrap(),
            Name::parse("example.net").unwrap(),
        ];
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

    /// A mixed-case name whose wire form (root octet excluded) is
    /// `wire_len` octets: labels of up to 63 octets ahead of
    /// `Example.COM`.
    fn long_name(wire_len: usize) -> Name {
        let mut labels = Vec::new();
        let mut left = wire_len - 12;
        while left > 0 {
            let n = left.min(64) - 1;
            assert!(n > 0, "no label fits {left} octets");
            labels.push(
                (0..n)
                    .map(|i| if i % 2 == 0 { 'Q' } else { 'z' })
                    .collect::<String>(),
            );
            left -= n + 1;
        }
        labels.push("Example.COM".to_string());
        Name::parse(&labels.join(".")).unwrap()
    }

    fn digest(name: &Name) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(name)
    }

    #[test]
    fn names_across_the_inline_limit_round_trip_compare_and_hash() {
        for (wire_len, inline) in [(45, true), (46, true), (47, false), (254, false)] {
            let name = long_name(wire_len);
            assert_eq!(name.encoded_len(), wire_len + 1);
            assert_eq!(matches!(name.repr, Repr::Inline { .. }), inline);
            let decoded = roundtrip(&name);
            assert_eq!(decoded.to_string(), name.to_string(), "case survives");
            let lower = Name::parse(&name.to_string().to_ascii_lowercase()).unwrap();
            let rebuilt = name.parent().unwrap().child("qZqZ").unwrap();
            for other in [&decoded, &lower] {
                assert_eq!(*other, name);
                assert_eq!(digest(other), digest(&name));
                assert_eq!(other.cmp(&name), std::cmp::Ordering::Equal);
                assert!(other.is_subdomain_of(&name) && name.is_subdomain_of(other));
            }
            assert_ne!(rebuilt, name);
            assert_eq!(rebuilt.parent(), name.parent());
        }
    }

    #[test]
    fn parent_and_child_cross_the_inline_limit() {
        let base = long_name(44);
        let inline = base.child("x").unwrap();
        let heap = base.child("xY").unwrap();
        assert!(matches!(inline.repr, Repr::Inline { .. }));
        assert!(matches!(heap.repr, Repr::Heap(_)));
        assert_eq!(inline.parent().unwrap(), base);
        assert_eq!(heap.parent().unwrap(), base);
        assert_eq!(heap.child("w").unwrap().parent().unwrap(), heap);
        assert!(heap.is_subdomain_of(&base) && !heap.is_subdomain_of(&inline));
        assert_ne!(inline, heap);
        assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Less);
        let longest = long_name(254);
        assert_eq!(longest.child("a"), Err(WireError::NameTooLong(257)));
    }
}
