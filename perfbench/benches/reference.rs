//! The frozen reference loop.
//!
//! Fixed work written against std alone: split a fixed byte string into
//! length-prefixed labels, as a DNS name's wire form is split, and copy
//! each label, lower-cased, into the next of a ring of reused buffers. It
//! is timed between and after rounds. Its time against [`NOMINAL_NS`]
//! says how fast the host ran during that round, and
//! [`crate::stats::host_speed`] rescales the round by it. It shares no
//! code with the program, so no program change moves it; changing it
//! makes earlier normalised figures incomparable.
//!
//! The timed part allocates nothing: when it did, the heap a round left
//! behind changed its time (by up to a third, and 2.5× after a city
//! round), which measured the program instead of the host. Among
//! allocation-free loops this one follows the host's slow periods most
//! closely: 1.68× where the serving path slowed 1.83×, against 1.32× for
//! an earlier loop of formatting and hash-map lookups.

use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the host the benchmark was tuned on (2 vCPUs, TSC
/// clocksource, Linux 6.18) in its fast periods: normalised figures are
/// in that host's units.
pub const NOMINAL_NS: f64 = 730_000.0;

const PASSES: u32 = 160;
const INPUT: u32 = 4_096;
const BUFFERS: usize = 512;
const BUFFER: usize = 32;

/// Runs the loop once and returns the wall time of its timed part, ns.
pub fn time_reference() -> f64 {
    let input: Vec<u8> = (0..INPUT)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut ring: Vec<Vec<u8>> = (0..BUFFERS).map(|_| Vec::with_capacity(BUFFER)).collect();
    let start = Instant::now();
    black_box(work(&input, &mut ring, black_box(PASSES)));
    start.elapsed().as_nanos() as f64
}

fn work(input: &[u8], ring: &mut [Vec<u8>], passes: u32) -> usize {
    let mut labels = 0;
    for _ in 0..passes {
        let mut i = 0;
        while let Some(&len) = input.get(i) {
            let end = (i + 1 + usize::from(len % 24) + 1).min(input.len());
            let label = &mut ring[labels % ring.len()];
            label.clear();
            label.extend(input[i + 1..end].iter().map(u8::to_ascii_lowercase));
            labels += 1;
            i = end;
        }
    }
    labels
}
