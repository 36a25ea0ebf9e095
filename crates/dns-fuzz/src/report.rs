//! Campaign summaries: mergeable, byte-stable, thread-count-blind.
//!
//! Everything in a [`Summary`] is either a commutative aggregate
//! (counts, the wrapping-add digest) or canonicalized before rendering
//! (crashers sorted by case index, error histogram in a `BTreeMap`),
//! so the rendered report is byte-identical no matter how many workers
//! produced the pieces.

use crate::oracle::Outcome;
use crate::rng::splitmix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// At most this many crashers are kept, lowest case index first.
pub const CRASHER_CAP: usize = 16;

/// One input the oracle rejected as a genuine failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crasher {
    /// Campaign case index (replays via `derive_seed(root, idx)`).
    pub case_idx: u64,
    /// The failing outcome.
    pub outcome: Outcome,
    /// The offending input bytes.
    pub input: Vec<u8>,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Root seed the campaign derived every case from.
    pub root_seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Inputs that passed the whole differential pipeline.
    pub accepted: u64,
    /// Inputs refused with a typed decode error.
    pub rejected: u64,
    /// Typed-refusal histogram by `WireError` variant name.
    pub err_variants: BTreeMap<&'static str, u64>,
    /// Crasher-class histogram (empty in a healthy run).
    pub crash_classes: BTreeMap<&'static str, u64>,
    /// Retained crashers, ≤ [`CRASHER_CAP`], sorted by case index.
    pub crashers: Vec<Crasher>,
    /// Order-insensitive digest over every `(case, outcome)` pair.
    pub digest: u64,
}

impl Summary {
    /// Folds one case result in.
    pub fn record(&mut self, case_idx: u64, outcome: Outcome, input: &[u8]) {
        self.cases += 1;
        // wrapping_add is commutative, so the digest is independent of
        // accumulation order — the summary's thread-identity backbone.
        self.digest = self.digest.wrapping_add(splitmix64(
            case_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ outcome.digest(),
        ));
        match &outcome {
            Outcome::Accepted => self.accepted += 1,
            Outcome::DecodeErr(v) => {
                self.rejected += 1;
                *self.err_variants.entry(v).or_insert(0) += 1;
            }
            other => {
                *self.crash_classes.entry(other.class()).or_insert(0) += 1;
                self.crashers.push(Crasher {
                    case_idx,
                    outcome,
                    input: input.to_vec(),
                });
                // Within a chunk cases arrive in ascending index order,
                // so the first CRASHER_CAP kept are the chunk's lowest.
                if self.crashers.len() > CRASHER_CAP {
                    self.crashers.truncate(CRASHER_CAP);
                }
            }
        }
    }

    /// Merges another summary (from a different chunk) into this one.
    pub fn merge(&mut self, other: Summary) {
        self.cases += other.cases;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.digest = self.digest.wrapping_add(other.digest);
        for (k, v) in other.err_variants {
            *self.err_variants.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.crash_classes {
            *self.crash_classes.entry(k).or_insert(0) += v;
        }
        self.crashers.extend(other.crashers);
        self.crashers.sort_by_key(|c| c.case_idx);
        self.crashers.truncate(CRASHER_CAP);
    }

    /// Total crashing cases (not capped, unlike the retained list).
    pub fn crash_count(&self) -> u64 {
        self.crash_classes.values().sum()
    }

    /// Renders the byte-stable report the CI thread-identity gate
    /// compares across `--threads` values.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "dns-fuzz summary");
        let _ = writeln!(s, "root-seed: {:#018x}", self.root_seed);
        let _ = writeln!(s, "cases: {}", self.cases);
        let _ = writeln!(s, "accepted: {}", self.accepted);
        let _ = writeln!(s, "rejected: {}", self.rejected);
        let _ = writeln!(s, "error-variants:");
        for (k, v) in &self.err_variants {
            let _ = writeln!(s, "  {k}: {v}");
        }
        let _ = writeln!(s, "crashers: {}", self.crash_count());
        for (k, v) in &self.crash_classes {
            let _ = writeln!(s, "  {k}: {v}");
        }
        for c in &self.crashers {
            let _ = writeln!(
                s,
                "  case {} [{}] {} bytes",
                c.case_idx,
                c.outcome.class(),
                c.input.len()
            );
        }
        let _ = writeln!(s, "digest: {:#018x}", self.digest);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_order_insensitive() {
        let mut a = Summary::default();
        a.record(0, Outcome::Accepted, &[]);
        a.record(1, Outcome::DecodeErr("Truncated"), &[1]);
        let mut b = Summary::default();
        b.record(2, Outcome::DecodeErr("BadPointer"), &[2]);
        b.record(3, Outcome::NonIdempotent, &[3]);

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        ba.root_seed = ab.root_seed;
        assert_eq!(ab.render(), ba.render());
        assert_eq!(ab.digest, ba.digest);
    }

    #[test]
    fn crasher_cap_keeps_lowest_indices() {
        let mut s = Summary::default();
        for i in (0..40).rev() {
            let mut chunk = Summary::default();
            chunk.record(i, Outcome::NonIdempotent, &[i as u8]);
            s.merge(chunk);
        }
        assert_eq!(s.crashers.len(), CRASHER_CAP);
        assert_eq!(s.crashers[0].case_idx, 0);
        assert_eq!(s.crashers[CRASHER_CAP - 1].case_idx, CRASHER_CAP as u64 - 1);
        assert_eq!(s.crash_count(), 40);
    }

    #[test]
    fn render_reports_variants_sorted() {
        let mut s = Summary::default();
        s.record(0, Outcome::DecodeErr("Truncated"), &[]);
        s.record(1, Outcome::DecodeErr("BadPointer"), &[]);
        let r = s.render();
        let bad = r.find("BadPointer").unwrap();
        let trunc = r.find("Truncated").unwrap();
        assert!(bad < trunc, "BTreeMap order in render");
        assert!(r.contains("crashers: 0"));
    }
}
