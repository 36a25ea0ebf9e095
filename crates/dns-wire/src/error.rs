//! Errors produced while encoding or decoding wire-format DNS data.

use std::fmt;

/// An error encountered while reading or writing DNS wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete field could be read.
    Truncated {
        /// What was being read when the input ran out.
        expected: &'static str,
    },
    /// A label exceeded the 63-octet limit of RFC 1035 §2.3.4.
    LabelTooLong(usize),
    /// A full name exceeded the 255-octet limit of RFC 1035 §2.3.4.
    NameTooLong(usize),
    /// A label contained an octet not permitted in presentation format.
    InvalidLabelByte(u8),
    /// An empty (zero-label) name was supplied where a hostname is required.
    EmptyName,
    /// A compression pointer pointed at or beyond its own position
    /// (pointers must point strictly backwards) or outside the message.
    BadPointer {
        /// Byte offset the pointer referenced.
        target: usize,
    },
    /// A (strictly backward) pointer chain exceeded the decode step
    /// budget. Legitimate encoders emit chains a fraction of this deep;
    /// the budget bounds the work one hostile name can demand.
    PointerChainTooDeep {
        /// Hops followed when the budget ran out.
        hops: usize,
    },
    /// A label type other than `00` (literal) or `11` (pointer) was seen.
    UnsupportedLabelType(u8),
    /// The RDLENGTH field disagreed with the actual record data length.
    RdataLengthMismatch {
        /// Declared length.
        declared: usize,
        /// Bytes actually consumed.
        consumed: usize,
    },
    /// A counted section (question/answer/authority/additional) declared
    /// more entries than the message body contains.
    CountMismatch(&'static str),
    /// An OPT record carried an option whose length overflows its data.
    BadEdnsOption,
    /// The client-subnet option was malformed (bad family, prefix longer
    /// than the address, or non-zero padding bits).
    BadClientSubnet(&'static str),
    /// An encoded message would exceed the 65,535-byte message limit.
    MessageTooLong(usize),
    /// A section holds more records than its 16-bit header count field
    /// can declare. Encoding such a message would emit a count lie —
    /// the wire would silently claim `count % 65536` entries.
    TooManyRecords {
        /// Which section overflowed.
        section: &'static str,
        /// Actual number of entries in the section.
        count: usize,
    },
    /// A TXT character-string exceeded 255 octets.
    CharacterStringTooLong(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { expected } => {
                write!(f, "input truncated while reading {expected}")
            }
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::InvalidLabelByte(b) => write!(f, "invalid byte {b:#04x} in label"),
            WireError::EmptyName => write!(f, "empty name where a hostname is required"),
            WireError::BadPointer { target } => {
                write!(f, "invalid compression pointer to offset {target}")
            }
            WireError::PointerChainTooDeep { hops } => {
                write!(f, "compression pointer chain exceeded {hops} hops")
            }
            WireError::UnsupportedLabelType(t) => {
                write!(f, "unsupported label type bits {t:#04b}")
            }
            WireError::RdataLengthMismatch { declared, consumed } => write!(
                f,
                "RDLENGTH declared {declared} bytes but {consumed} were consumed"
            ),
            WireError::CountMismatch(section) => {
                write!(f, "{section} count exceeds message contents")
            }
            WireError::BadEdnsOption => write!(f, "malformed EDNS option"),
            WireError::BadClientSubnet(why) => write!(f, "malformed client-subnet option: {why}"),
            WireError::MessageTooLong(n) => {
                write!(f, "encoded message of {n} bytes exceeds 65535")
            }
            WireError::TooManyRecords { section, count } => {
                write!(
                    f,
                    "{section} section holds {count} records, exceeding 65535"
                )
            }
            WireError::CharacterStringTooLong(n) => {
                write!(f, "character-string of {n} octets exceeds 255")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::Truncated { expected: "header" };
        assert!(e.to_string().contains("header"));
        let e = WireError::RdataLengthMismatch {
            declared: 4,
            consumed: 6,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('6'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<WireError>();
    }
}
