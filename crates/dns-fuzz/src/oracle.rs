//! The differential decode oracle: what every fuzz input must satisfy.
//!
//! For arbitrary bytes, `Message::decode` must return `Ok` or a typed
//! [`WireError`] — never panic (the decode *step budget* lives inside
//! `dns-wire`: bounded pointer hops, incremental name-length checks and
//! count-clamped preallocation make decode work linear in input size,
//! so termination is structural, not timed). For every accepted input
//! the pipeline decode → encode → decode must be idempotent and the
//! second encode byte-stable.

use crate::rng::splitmix64;
use dns_wire::{Message, WireError};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// How one input fared against the oracle.
///
/// Only [`Outcome::Accepted`] and [`Outcome::DecodeErr`] are healthy;
/// everything else is a crasher the campaign reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Full pipeline passed: decode, re-encode, re-decode and
    /// stability.
    Accepted,
    /// Decode failed with the named typed `WireError` variant — the
    /// correct way to refuse hostile bytes.
    DecodeErr(&'static str),
    /// Some stage panicked; carries `"<stage>: <message>"`.
    Panicked(String),
    /// The decoded message failed to re-encode (named variant).
    ReencodeErr(&'static str),
    /// The re-encoded bytes failed to decode (named variant).
    RedecodeErr(&'static str),
    /// decode(encode(m)) ≠ m — the codec is lossy somewhere.
    NonIdempotent,
    /// Two encodes of the same message differ — unstable compression.
    EncodeUnstable,
}

impl Outcome {
    /// True for outcomes that must never occur: anything other than a
    /// clean accept or a typed decode refusal.
    pub fn is_crash(&self) -> bool {
        !matches!(self, Outcome::Accepted | Outcome::DecodeErr(_))
    }

    /// Stable short label used in reports and crasher file names.
    pub fn class(&self) -> &'static str {
        match self {
            Outcome::Accepted => "accepted",
            Outcome::DecodeErr(_) => "decode-err",
            Outcome::Panicked(_) => "panicked",
            Outcome::ReencodeErr(_) => "reencode-err",
            Outcome::RedecodeErr(_) => "redecode-err",
            Outcome::NonIdempotent => "non-idempotent",
            Outcome::EncodeUnstable => "encode-unstable",
        }
    }

    /// Deterministic hash folding the class and any variant detail —
    /// the per-case contribution to the campaign digest.
    pub fn digest(&self) -> u64 {
        let mut h = fold(0x0D15_EA5E, self.class().as_bytes());
        if let Outcome::DecodeErr(v) | Outcome::ReencodeErr(v) | Outcome::RedecodeErr(v) = self {
            h = fold(h, v.as_bytes());
        }
        // Panic messages are deliberately excluded: they may contain
        // addresses or line numbers that vary across builds.
        h
    }
}

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// The name of a [`WireError`] variant, for reports and digests.
pub fn variant_name(e: &WireError) -> &'static str {
    match e {
        WireError::Truncated { .. } => "Truncated",
        WireError::LabelTooLong(_) => "LabelTooLong",
        WireError::NameTooLong(_) => "NameTooLong",
        WireError::InvalidLabelByte(_) => "InvalidLabelByte",
        WireError::EmptyName => "EmptyName",
        WireError::BadPointer { .. } => "BadPointer",
        WireError::PointerChainTooDeep { .. } => "PointerChainTooDeep",
        WireError::UnsupportedLabelType(_) => "UnsupportedLabelType",
        WireError::RdataLengthMismatch { .. } => "RdataLengthMismatch",
        WireError::CountMismatch(_) => "CountMismatch",
        WireError::BadEdnsOption => "BadEdnsOption",
        WireError::BadClientSubnet(_) => "BadClientSubnet",
        WireError::MessageTooLong(_) => "MessageTooLong",
        WireError::CharacterStringTooLong(_) => "CharacterStringTooLong",
        WireError::TooManyRecords { .. } => "TooManyRecords",
    }
}

static QUIET_PANICS: Once = Once::new();

/// Installs a panic hook that suppresses the default stderr backtrace
/// spam for panics the oracle catches. Installed once per process;
/// `catch_unwind` still receives the payload.
fn quiet_panics() {
    QUIET_PANICS.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

/// Runs one input through the full differential pipeline.
pub fn check(input: &[u8]) -> Outcome {
    quiet_panics();
    let stage = Cell::new("decode");
    let result = catch_unwind(AssertUnwindSafe(|| run_pipeline(input, &stage)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Panicked(format!("{}: {}", stage.get(), msg))
        }
    }
}

fn run_pipeline(input: &[u8], stage: &Cell<&'static str>) -> Outcome {
    let m1 = match Message::decode(input) {
        Ok(m) => m,
        Err(e) => return Outcome::DecodeErr(variant_name(&e)),
    };
    stage.set("encode");
    let b1 = match m1.encode() {
        Ok(b) => b,
        Err(e) => return Outcome::ReencodeErr(variant_name(&e)),
    };
    stage.set("redecode");
    let m2 = match Message::decode(&b1) {
        Ok(m) => m,
        Err(e) => return Outcome::RedecodeErr(variant_name(&e)),
    };
    if m2 != m1 {
        return Outcome::NonIdempotent;
    }
    stage.set("restability");
    let b2 = match m2.encode() {
        Ok(b) => b,
        Err(e) => return Outcome::ReencodeErr(variant_name(&e)),
    };
    if b2 != b1 {
        return Outcome::EncodeUnstable;
    }
    Outcome::Accepted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_seeds_are_accepted_with_id_check() {
        for s in crate::corpus::build_seeds() {
            assert_eq!(check(&s), Outcome::Accepted);
        }
    }

    #[test]
    fn garbage_is_refused_with_typed_errors() {
        let out = check(&[0xFF; 7]);
        assert!(matches!(out, Outcome::DecodeErr(_)), "got {out:?}");
        assert!(!out.is_crash());
    }

    #[test]
    fn panics_are_captured_not_propagated() {
        // Sanity-check the harness itself: a panicking closure through
        // the same catch path yields a Panicked outcome.
        quiet_panics();
        let stage = Cell::new("decode");
        let r = catch_unwind(AssertUnwindSafe(|| -> Outcome {
            stage.set("encode");
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(stage.get(), "encode");
    }

    #[test]
    fn digest_separates_variants_but_ignores_panic_text() {
        assert_ne!(
            Outcome::DecodeErr("Truncated").digest(),
            Outcome::DecodeErr("BadPointer").digest()
        );
        assert_eq!(
            Outcome::Panicked("a".into()).digest(),
            Outcome::Panicked("b".into()).digest()
        );
        assert_ne!(Outcome::Accepted.digest(), Outcome::NonIdempotent.digest());
    }

    #[test]
    fn empty_input_is_a_clean_truncation() {
        assert_eq!(check(&[]), Outcome::DecodeErr("Truncated"));
    }
}
