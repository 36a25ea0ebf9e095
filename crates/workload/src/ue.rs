//! Flow-level UE population for city-scale experiments.
//!
//! The paper's argument is metro-scale: MEC-CDN only pays off when a
//! *city* of UEs resolves against the MEC L-DNS. Simulating a city as
//! one simulator `Node` per UE (a `String` name, a boxed behavior, a
//! routing table each) would cost hundreds of bytes per UE before the
//! first packet moves. This module instead models each UE at *flow
//! level*: a [`UeState`] of a few bytes (budget-tested) holding only a
//! per-UE deterministic RNG stream, with everything shared — the Zipf
//! content popularity, the diurnal activity curve, the arrival-rate
//! parameters — factored into the [`UeFleet`]. Millions of UEs then
//! multiplex through a bounded set of eNB ingress nodes: the eNB owns
//! the simulator node and the timers, and asks the fleet "what does UE
//! #i do now?" each time one of its UEs' arrival timers fires.
//!
//! Arrivals follow a non-homogeneous Poisson process via
//! Lewis–Shedler thinning: candidate arrivals are drawn at the diurnal
//! peak rate, and each candidate is accepted with probability equal to
//! the [`DiurnalCurve`] activity at that instant. A rejected candidate
//! is a *detached* UE (idle in a diurnal trough) that merely re-arms
//! its timer; an accepted one issues a content request with
//! Zipf-distributed popularity. Every draw comes from the UE's own
//! splitmix64 stream, so a fleet's behavior is a pure function of
//! `(seed, config)` no matter how UEs are sharded across eNBs.

use crate::zipf::Zipf;
use netsim::{SimDuration, SimTime};

/// Golden-ratio increment for splitmix64 streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: advances `state` and returns the next output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a splitmix64 stream (53 mantissa bits).
fn u01(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-UE state: nothing but the UE's deterministic RNG stream. All
/// shared structure (popularity, diurnal curve, rates) lives once in
/// the [`UeFleet`]; a million UEs cost one `Vec` of these (see the
/// `ue_state_size_budget` test).
#[derive(Debug, Clone, Copy)]
pub struct UeState {
    rng: u64,
}

/// What a UE does when its arrival timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeAction {
    /// Attached and active: issue a request for content rank `content`
    /// and re-arm the arrival timer after `next_in`.
    Query {
        /// Zipf rank of the requested content (0 = most popular).
        content: u32,
        /// Delay until this UE's next candidate arrival.
        next_in: SimDuration,
    },
    /// Detached for this candidate (thinned out by the diurnal trough):
    /// no request; re-arm after `next_in`.
    Detached {
        /// Delay until this UE's next candidate arrival.
        next_in: SimDuration,
    },
    /// The simulation window is over: do not re-arm.
    Done,
}

/// Time-of-day activity profile: per-segment multipliers in `[0, 1]`
/// over a repeating period. `1.0` is the diurnal peak (candidate
/// arrivals always accepted), `0.0` a dead trough (all thinned).
#[derive(Debug, Clone)]
pub struct DiurnalCurve {
    weights: Vec<f64>,
    period: SimDuration,
}

impl DiurnalCurve {
    /// A flat curve: every candidate arrival is accepted — plain
    /// homogeneous Poisson arrivals.
    pub fn flat() -> Self {
        DiurnalCurve {
            weights: vec![1.0],
            period: SimDuration::from_secs(1),
        }
    }

    /// A curve from explicit segment weights spread evenly over
    /// `period`. Weights clamp to `[0, 1]`; at least one segment.
    pub fn from_weights(period: SimDuration, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "diurnal curve needs >= 1 segment");
        assert!(
            period > SimDuration::ZERO,
            "diurnal period must be positive"
        );
        DiurnalCurve {
            weights: weights.iter().map(|w| w.clamp(0.0, 1.0)).collect(),
            period,
        }
    }

    /// A stylized metro weekday compressed into `period`: a night
    /// trough, a morning-commute shoulder, a daytime plateau and an
    /// evening peak (24 "hours" of weights).
    pub fn metro_day(period: SimDuration) -> Self {
        DiurnalCurve::from_weights(
            period,
            &[
                0.15, 0.10, 0.08, 0.08, 0.10, 0.20, // 00–06: night trough
                0.45, 0.75, 0.85, 0.80, 0.75, 0.75, // 06–12: commute + morning
                0.80, 0.75, 0.70, 0.70, 0.75, 0.85, // 12–18: daytime plateau
                0.95, 1.00, 1.00, 0.90, 0.60, 0.30, // 18–24: evening peak
            ],
        )
    }

    /// Activity multiplier at instant `t` (the thinning acceptance
    /// probability), in `[0, 1]`.
    pub fn activity(&self, t: SimTime) -> f64 {
        let period = self.period.as_nanos();
        let phase = t.as_nanos() % period;
        let n = self.weights.len() as u64;
        // phase < period, so idx < n.
        let idx = ((phase.saturating_mul(n)) / period) as usize;
        self.weights.get(idx).copied().unwrap_or(1.0)
    }
}

/// Fleet parameters shared by every UE.
#[derive(Debug, Clone)]
pub struct UeConfig {
    /// Number of UEs in the fleet.
    pub ues: u32,
    /// Content catalogue size (distinct names the city requests).
    pub catalog: u32,
    /// Zipf exponent of content popularity (≈0.8–1.2 for web content).
    pub alpha: f64,
    /// Mean time between one UE's candidate arrivals *at the diurnal
    /// peak*; troughs thin this rate by the curve's activity.
    pub peak_interarrival: SimDuration,
    /// Simulated window; arrivals at or past this instant return
    /// [`UeAction::Done`].
    pub window: SimDuration,
    /// Time-of-day activity profile.
    pub curve: DiurnalCurve,
}

/// A population of flow-level UEs: compact per-UE streams plus the
/// shared popularity/arrival model. Deterministic per `(seed, config)`.
pub struct UeFleet {
    ues: Vec<UeState>,
    zipf: Zipf,
    config: UeConfig,
}

impl UeFleet {
    /// Builds the fleet; per-UE RNG streams derive from `seed` the same
    /// splitmix way for any fleet size, so UE #i's behavior does not
    /// depend on how many other UEs exist or which eNB hosts it.
    pub fn new(config: UeConfig, seed: u64) -> Self {
        assert!(config.ues > 0, "fleet needs at least one UE");
        assert!(config.catalog > 0, "catalogue needs at least one item");
        assert!(
            config.peak_interarrival > SimDuration::ZERO,
            "peak interarrival must be positive"
        );
        let ues = (0..config.ues)
            .map(|i| {
                let mut s = seed ^ (u64::from(i).wrapping_mul(GOLDEN) ^ 0x5DEE_CE66_D1CE_4E5B);
                // Two warm-up steps decorrelate neighbouring seeds.
                let _ = splitmix(&mut s);
                let _ = splitmix(&mut s);
                UeState { rng: s }
            })
            .collect();
        let zipf = Zipf::new(config.catalog as usize, config.alpha);
        UeFleet { ues, zipf, config }
    }

    /// Number of UEs in the fleet.
    pub fn len(&self) -> usize {
        self.ues.len()
    }

    /// True for a fleet with no UEs (never: construction requires ≥1).
    pub fn is_empty(&self) -> bool {
        self.ues.is_empty()
    }

    /// The shared configuration.
    pub fn config(&self) -> &UeConfig {
        &self.config
    }

    /// Delay from the simulation start to UE `ue`'s first candidate
    /// arrival: one exponential draw at the peak rate, which staggers a
    /// million simultaneous attaches into a memoryless trickle.
    pub fn first_arrival(&mut self, ue: u32) -> SimDuration {
        let mean = self.config.peak_interarrival;
        let Some(state) = self.ues.get_mut(ue as usize) else {
            return mean;
        };
        exp_draw(&mut state.rng, mean)
    }

    /// Advances UE `ue` at its arrival instant `now`: decides whether
    /// this candidate is an accepted request (attached) or thinned out
    /// (detached), samples the content rank for accepted ones, and
    /// draws the delay to the UE's next candidate.
    pub fn next_action(&mut self, ue: u32, now: SimTime) -> UeAction {
        if now >= SimTime::ZERO + self.config.window {
            return UeAction::Done;
        }
        let mean = self.config.peak_interarrival;
        let activity = self.config.curve.activity(now);
        let Some(state) = self.ues.get_mut(ue as usize) else {
            return UeAction::Done;
        };
        let next_in = exp_draw(&mut state.rng, mean);
        // Thinning: accept this candidate with the diurnal probability.
        // Draw order (accept, then content) is load-bearing for
        // determinism — keep it.
        if u01(&mut state.rng) < activity {
            let content = self.zipf.sample_u01(u01(&mut state.rng)) as u32;
            UeAction::Query { content, next_in }
        } else {
            UeAction::Detached { next_in }
        }
    }
}

/// Exponential draw with the given mean, quantized to nanoseconds and
/// floored at 1 ns so timers always make progress.
fn exp_draw(state: &mut u64, mean: SimDuration) -> SimDuration {
    let u = u01(state);
    // -ln(1-u) with u in [0,1): argument stays in (0,1], ln finite.
    let e = -(1.0 - u).ln();
    SimDuration::from_nanos(((mean.as_nanos() as f64 * e) as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ues: u32) -> UeConfig {
        UeConfig {
            ues,
            catalog: 1000,
            alpha: 1.0,
            peak_interarrival: SimDuration::from_millis(100),
            window: SimDuration::from_secs(10),
            curve: DiurnalCurve::flat(),
        }
    }

    /// Budget: city scale means a `Vec<UeState>` with millions of
    /// entries — per-UE state must stay in single-digit bytes. If you
    /// trip this, move the new field into `UeFleet` (shared) or derive
    /// it from the RNG stream.
    #[test]
    fn ue_state_size_budget() {
        assert!(
            std::mem::size_of::<UeState>() <= 16,
            "UeState grew to {} bytes (budget 16)",
            std::mem::size_of::<UeState>()
        );
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut fleet = UeFleet::new(cfg(100), seed);
            let mut trace = Vec::new();
            for ue in 0..100 {
                let mut t = SimTime::ZERO + fleet.first_arrival(ue);
                for _ in 0..20 {
                    match fleet.next_action(ue, t) {
                        UeAction::Query { content, next_in } => {
                            trace.push((ue, t, Some(content)));
                            t = t + next_in;
                        }
                        UeAction::Detached { next_in } => {
                            trace.push((ue, t, None));
                            t = t + next_in;
                        }
                        UeAction::Done => break,
                    }
                }
            }
            trace
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn ue_streams_are_independent_of_fleet_size() {
        // UE #3 behaves identically in a 10-UE and a 10_000-UE fleet:
        // sharding a city across eNBs cannot change any UE's behavior.
        let mut small = UeFleet::new(cfg(10), 42);
        let mut large = UeFleet::new(cfg(10_000), 42);
        assert_eq!(small.first_arrival(3), large.first_arrival(3));
        let t = SimTime::ZERO + SimDuration::from_millis(500);
        for _ in 0..50 {
            assert_eq!(small.next_action(3, t), large.next_action(3, t));
        }
    }

    #[test]
    fn window_end_stops_the_ue() {
        let mut fleet = UeFleet::new(cfg(1), 1);
        let past = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(fleet.next_action(0, past), UeAction::Done);
        let before = SimTime::ZERO + SimDuration::from_millis(9_999);
        assert_ne!(fleet.next_action(0, before), UeAction::Done);
    }

    #[test]
    fn flat_curve_never_detaches() {
        let mut fleet = UeFleet::new(cfg(50), 3);
        for ue in 0..50 {
            let mut t = SimTime::ZERO + fleet.first_arrival(ue);
            for _ in 0..20 {
                match fleet.next_action(ue, t) {
                    UeAction::Query { next_in, .. } => t = t + next_in,
                    UeAction::Detached { .. } => {
                        panic!("flat curve must accept every candidate")
                    }
                    UeAction::Done => break,
                }
            }
        }
    }

    #[test]
    fn dead_trough_detaches_everyone() {
        let mut config = cfg(50);
        config.curve = DiurnalCurve::from_weights(SimDuration::from_secs(10), &[0.0]);
        let mut fleet = UeFleet::new(config, 3);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        for ue in 0..50 {
            assert!(matches!(
                fleet.next_action(ue, t),
                UeAction::Detached { .. }
            ));
        }
    }

    #[test]
    fn diurnal_curve_segments_and_wraparound() {
        let c = DiurnalCurve::from_weights(SimDuration::from_secs(4), &[1.0, 0.5, 0.25, 0.0]);
        let at = |s: u64| c.activity(SimTime::ZERO + SimDuration::from_secs(s));
        assert_eq!(at(0), 1.0);
        assert_eq!(at(1), 0.5);
        assert_eq!(at(2), 0.25);
        assert_eq!(at(3), 0.0);
        assert_eq!(at(4), 1.0, "curve repeats past the period");
        assert_eq!(at(5), 0.5);
    }

    #[test]
    fn metro_day_peaks_in_the_evening() {
        let day = SimDuration::from_secs(24);
        let c = DiurnalCurve::metro_day(day);
        let night = c.activity(SimTime::ZERO + SimDuration::from_secs(3));
        let evening = c.activity(SimTime::ZERO + SimDuration::from_secs(19));
        assert!(evening > night * 3.0, "evening {evening} vs night {night}");
        assert!(evening <= 1.0);
    }

    #[test]
    fn query_ranks_follow_zipf_head() {
        let mut config = cfg(1);
        config.catalog = 100;
        config.window = SimDuration::from_secs(100_000);
        let mut fleet = UeFleet::new(config, 11);
        let mut counts = vec![0u32; 100];
        let mut t = SimTime::ZERO + fleet.first_arrival(0);
        for _ in 0..20_000 {
            match fleet.next_action(0, t) {
                UeAction::Query { content, next_in } => {
                    counts[content as usize] += 1;
                    t = t + next_in;
                }
                UeAction::Detached { next_in } => t = t + next_in,
                UeAction::Done => break,
            }
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[1] > counts[50]);
        // Head concentration: top-10 ranks absorb a Zipf(1.0) share.
        let head: u32 = counts.iter().take(10).sum();
        let total: u32 = counts.iter().sum();
        assert!(
            f64::from(head) / f64::from(total) > 0.4,
            "head share {head}/{total}"
        );
    }

    #[test]
    fn exp_draw_mean_is_roughly_right() {
        let mut s = 99u64;
        let mean = SimDuration::from_millis(10);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| exp_draw(&mut s, mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        let want = mean.as_nanos() as f64;
        assert!((avg - want).abs() / want < 0.05, "avg {avg} vs mean {want}");
    }
}
