//! Low-level cursors for reading and writing DNS wire format.
//!
//! [`Reader`] tracks a position in a borrowed byte slice and can follow
//! RFC 1035 compression pointers without losing its place. [`Writer`]
//! appends to an owned buffer and remembers where each name suffix was
//! written so later names can emit compression pointers.

use crate::error::WireError;
use crate::name::MAX_POINTER_HOPS;

/// Maximum encoded message size (16-bit length fields everywhere).
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// Largest offset a compression pointer can reach (14 bits).
const MAX_POINTER_TARGET: usize = 0x3FFF;

/// Suffix offsets a [`Writer`] keeps inline before it spills to the heap:
/// a response's question and answers need a handful.
const INLINE_SUFFIXES: usize = 24;

/// A bounds-checked cursor over a received message.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute offset (used to follow pointers).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::BadPointer { target: pos });
        }
        self.pos = pos;
        Ok(())
    }

    /// Bytes left after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whole underlying message (needed for pointer targets).
    pub fn message(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one octet.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { expected: what })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian 16-bit value.
    pub fn read_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let hi = self.read_u8(what)?;
        let lo = self.read_u8(what)?;
        Ok(u16::from(hi) << 8 | u16::from(lo))
    }

    /// Reads a big-endian 32-bit value.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let hi = self.read_u16(what)?;
        let lo = self.read_u16(what)?;
        Ok(u32::from(hi) << 16 | u32::from(lo))
    }

    /// Reads exactly `n` bytes.
    pub fn read_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated { expected: what })?;
        self.pos += n;
        Ok(out)
    }
}

/// Where a name suffix was written, and its uncompressed length.
#[derive(Debug, Default, Clone, Copy)]
struct Suffix {
    offset: u16,
    len: u8,
}

/// The suffixes a writer has recorded, in the order written. Offsets are
/// recorded as the buffer grows and forgotten from the cut on when it is
/// truncated, so the table is always sorted by offset.
#[derive(Debug, Default)]
struct Suffixes {
    inline: [Suffix; INLINE_SUFFIXES],
    inline_len: usize,
    spill: Vec<Suffix>,
}

impl Suffixes {
    fn iter(&self) -> impl Iterator<Item = &Suffix> {
        self.inline
            .iter()
            .take(self.inline_len)
            .chain(self.spill.iter())
    }

    fn push(&mut self, suffix: Suffix) {
        match self.inline.get_mut(self.inline_len) {
            Some(slot) if self.spill.is_empty() => {
                *slot = suffix;
                self.inline_len += 1;
            }
            _ => self.spill.push(suffix),
        }
    }

    /// Forgets every suffix at or past `cut`.
    fn truncate(&mut self, cut: usize) {
        let before = |s: &Suffix| usize::from(s.offset) < cut;
        self.spill.retain(before);
        self.inline_len = self
            .inline
            .iter()
            .take(self.inline_len)
            .take_while(|s| before(s))
            .count();
    }
}

/// An appending encoder with name-compression state.
///
/// The compression table records, for every name suffix already
/// emitted, the offset of its first label. A later name whose suffix
/// matches emits a two-byte pointer instead of repeating the labels —
/// the behaviour real resolvers rely on to keep responses under the UDP
/// payload limit. Matching reads the names back from the buffer, so the
/// table holds only an offset and a length per suffix.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    suffixes: Suffixes,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer whose buffer holds `capacity` bytes
    /// before it grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
            suffixes: Suffixes::default(),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded message.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.buf.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(self.buf.len()));
        }
        Ok(self.buf)
    }

    /// Appends one octet.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian 16-bit value.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian 32-bit value.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites the big-endian 16-bit value at `at` (used to back-patch
    /// RDLENGTH after the record data is known).
    // detlint: allow-item(hot-index) — `at` is an offset `self.len()`
    // returned when the two-byte placeholder was appended, and the
    // buffer only grows, so `at + 1` stays in bounds.
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[at] = b[0];
        self.buf[at + 1] = b[1];
    }

    /// Rolls the buffer back to `len` bytes, forgetting any compression
    /// suffix recorded at or past the cut — a later name must never emit
    /// a pointer into bytes that no longer exist. Used by the bounded
    /// message encoder to drop a whole record that overflowed the
    /// payload budget.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.suffixes.truncate(len);
    }

    /// The offset of the first recorded suffix whose name equals the
    /// label sequence `wire`, ignoring case.
    pub(crate) fn find_suffix(&self, wire: &[u8]) -> Option<u16> {
        self.suffixes
            .iter()
            .find(|s| usize::from(s.len) == wire.len() && self.name_at_is(s.offset, wire))
            .map(|s| s.offset)
    }

    /// Records that a suffix of `len` uncompressed octets (root octet
    /// excluded) starts at `offset`. Offsets beyond the 14-bit pointer
    /// range are not recorded (pointers cannot reach them).
    pub(crate) fn record_suffix(&mut self, offset: usize, len: usize) {
        if offset <= MAX_POINTER_TARGET {
            self.suffixes.push(Suffix {
                offset: offset as u16,
                len: len as u8,
            });
        }
    }

    /// True when the name written at `offset` equals the label sequence
    /// `want`, ignoring case. The writer wrote that name itself, as
    /// labels ending in the root octet or in a backward pointer; at most
    /// [`MAX_POINTER_HOPS`] pointers are followed.
    fn name_at_is(&self, offset: u16, mut want: &[u8]) -> bool {
        let mut pos = usize::from(offset);
        let mut hops = 0;
        loop {
            let Some(&len) = self.buf.get(pos) else {
                return false;
            };
            if len == 0 {
                return want.is_empty();
            }
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(pos + 1) else {
                    return false;
                };
                let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
                hops += 1;
                if target >= pos || hops > MAX_POINTER_HOPS {
                    return false;
                }
                pos = target;
                continue;
            }
            let end = pos + 1 + usize::from(len);
            match (self.buf.get(pos..end), want.split_at_checked(end - pos)) {
                (Some(have), Some((head, rest))) if have.eq_ignore_ascii_case(head) => {
                    want = rest;
                    pos = end;
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_scalars_in_network_order() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8("a").unwrap(), 0x12);
        assert_eq!(r.read_u16("b").unwrap(), 0x3456);
        assert_eq!(r.read_u32("c").unwrap(), 0x789A_BCDE);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_errors_on_truncation() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(
            r.read_u16("len"),
            Err(WireError::Truncated { expected: "len" })
        );
    }

    #[test]
    fn reader_seek_rejects_out_of_bounds() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert!(r.seek(3).is_ok()); // one past the end is the EOF position
        assert!(r.seek(4).is_err());
    }

    #[test]
    fn writer_roundtrips_scalars() {
        let mut w = Writer::new();
        w.write_u8(0xAB);
        w.write_u16(0xCDEF);
        w.write_u32(0x0102_0304);
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0xAB, 0xCD, 0xEF, 0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn writer_patches_in_place() {
        let mut w = Writer::new();
        w.write_u16(0);
        w.write_u8(0xFF);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.finish().unwrap(), vec![0xBE, 0xEF, 0xFF]);
    }

    #[test]
    fn suffix_offsets_beyond_pointer_range_are_ignored() {
        let name = crate::Name::parse("a.example").unwrap();
        let (whole, parent) = (
            &[1, b'a', 7, b'e', b'x', b'a', b'm', b'p', b'l', b'e'],
            &[7, b'e', b'x', b'a', b'm', b'p', b'l', b'e'],
        );
        let mut w = Writer::new();
        w.write_bytes(&[0; MAX_POINTER_TARGET]);
        name.encode(&mut w).unwrap();
        // "a.example" starts at the last reachable offset; its parent
        // starts past it and was not recorded.
        assert_eq!(w.find_suffix(whole), Some(0x3FFF));
        assert_eq!(w.find_suffix(parent), None);
        w.record_suffix(0x4000, parent.len());
        assert_eq!(w.find_suffix(parent), None);
    }

    #[test]
    fn truncate_forgets_suffixes_at_or_past_the_cut() {
        let mut w = Writer::new();
        crate::Name::parse("a.example")
            .unwrap()
            .encode(&mut w)
            .unwrap();
        let cut = w.len();
        crate::Name::parse("b.test")
            .unwrap()
            .encode(&mut w)
            .unwrap();
        let b_test = [1, b'b', 4, b't', b'e', b's', b't'];
        assert_eq!(w.find_suffix(&b_test), Some(cut as u16));
        w.truncate(cut);
        assert_eq!(w.find_suffix(&b_test), None);
        assert_eq!(
            w.find_suffix(&[7, b'E', b'x', b'a', b'm', b'p', b'l', b'e']),
            Some(2)
        );
    }

    #[test]
    fn suffixes_spill_past_the_inline_table_in_order() {
        let mut w = Writer::new();
        let names: Vec<crate::Name> = (0..2 * INLINE_SUFFIXES)
            .map(|i| crate::Name::parse(&format!("n{i}")).unwrap())
            .collect();
        let mut at = Vec::new();
        for n in &names {
            at.push(w.len() as u16);
            n.encode(&mut w).unwrap();
        }
        for (n, &off) in names.iter().zip(&at) {
            let mut one = Writer::new();
            n.encode(&mut one).unwrap();
            let mut wire = one.finish().unwrap();
            wire.pop();
            assert_eq!(w.find_suffix(&wire), Some(off));
        }
        w.truncate(usize::from(at[3]));
        assert_eq!(w.suffixes.iter().count(), 3);
    }
}
