//! The one place `mecdnsd` reads the wall clock.
//!
//! Everything downstream of the transport — plugin chains, caches, the
//! telemetry registry — runs on virtual [`SimTime`], exactly as it does
//! under the simulator, so the whole resolution path stays replayable
//! and detlint-clean. A [`WallClock`] anchors a monotonic instant at
//! process start and maps real elapsed time onto the virtual axis; the
//! serving loop asks it for "now" and never touches `std::time`
//! directly.

use netsim::{SimDuration, SimTime};
use std::time::Instant;

/// Monotonic wall-clock anchor: real elapsed time since construction,
/// presented as [`SimTime`] since the epoch.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    anchor: Instant,
}

impl WallClock {
    /// Anchors the clock at the current instant.
    pub fn start() -> Self {
        WallClock {
            // detlint: allow(wall-clock) — this is the transport edge: real
            // sockets need real time for TTLs and latency measurement. The
            // read is confined to this constructor; everything downstream
            // sees only SimTime.
            anchor: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the anchor.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed time mapped onto the virtual axis: the simulation epoch
    /// is the moment the clock was anchored.
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.elapsed_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_the_epoch() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert!(a >= SimTime::ZERO);
    }
}
