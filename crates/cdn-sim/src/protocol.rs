//! The minimal content-transfer protocol caches and origins speak.
//!
//! One request/response pair per object. The DATA payload is padded to
//! the object size so link serialization delay reflects transfer cost.

/// Port content servers listen on.
pub const CONTENT_PORT: u16 = 8080;

/// A content-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdnMsg {
    /// Request an object by key.
    Get {
        /// Object key, e.g. `video.demo1.mycdn.ciab.test/seg-00042`.
        key: String,
    },
    /// The object. `size` is the logical object size; the wire payload
    /// is padded to it.
    Data {
        /// Object key.
        key: String,
        /// Object size in bytes.
        size: u32,
    },
    /// The server does not have (and cannot fetch) the object.
    Miss {
        /// Object key.
        key: String,
    },
}

impl CdnMsg {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            CdnMsg::Get { key } => {
                let mut out = vec![b'G'];
                out.extend_from_slice(&(key.len() as u16).to_be_bytes());
                out.extend_from_slice(key.as_bytes());
                out
            }
            CdnMsg::Data { key, size } => {
                let mut out = vec![b'D'];
                out.extend_from_slice(&(key.len() as u16).to_be_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&size.to_be_bytes());
                // Pad so the frame costs `size` bytes of serialization.
                let target = *size as usize;
                if out.len() < target {
                    out.resize(target, 0);
                }
                out
            }
            CdnMsg::Miss { key } => {
                let mut out = vec![b'M'];
                out.extend_from_slice(&(key.len() as u16).to_be_bytes());
                out.extend_from_slice(key.as_bytes());
                out
            }
        }
    }

    /// Decodes from wire bytes. Returns `None` on garbage.
    pub fn decode(bytes: &[u8]) -> Option<CdnMsg> {
        let (&tag, rest) = bytes.split_first()?;
        if rest.len() < 2 {
            return None;
        }
        let key_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
        let rest = &rest[2..];
        if rest.len() < key_len {
            return None;
        }
        let key = String::from_utf8(rest[..key_len].to_vec()).ok()?;
        let rest = &rest[key_len..];
        match tag {
            b'G' => Some(CdnMsg::Get { key }),
            b'M' => Some(CdnMsg::Miss { key }),
            b'D' => {
                if rest.len() < 4 {
                    return None;
                }
                let size = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
                Some(CdnMsg::Data { key, size })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_miss_roundtrip() {
        for msg in [
            CdnMsg::Get {
                key: "a0.muscache.com/img-1".into(),
            },
            CdnMsg::Miss { key: "x".into() },
        ] {
            assert_eq!(CdnMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn data_roundtrips_and_pads() {
        let msg = CdnMsg::Data {
            key: "k".into(),
            size: 5000,
        };
        let bytes = msg.encode();
        assert_eq!(
            bytes.len(),
            5000,
            "payload must cost `size` bytes on the wire"
        );
        assert_eq!(CdnMsg::decode(&bytes), Some(msg));
    }

    #[test]
    fn tiny_data_is_not_truncated() {
        // size smaller than the header: frame stays intact and decodes.
        let msg = CdnMsg::Data {
            key: "key".into(),
            size: 2,
        };
        assert_eq!(CdnMsg::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(CdnMsg::decode(&[]), None);
        assert_eq!(CdnMsg::decode(&[b'Z', 0, 1, b'a']), None);
        assert_eq!(CdnMsg::decode(&[b'G', 0, 9, b'a']), None); // short key
        assert_eq!(CdnMsg::decode(&[b'D', 0, 1, b'a']), None); // missing size
    }
}
