//! The event scheduler: a hierarchical timing wheel with a calendar
//! overflow level.
//!
//! The simulator used to keep every pending event in one
//! `BinaryHeap<Reverse<Scheduled>>`. That is O(log n) per operation
//! with n = *total* pending events — fine at thousands of events,
//! painful at the million-plus pending timers a city-scale UE
//! population holds (every UE always has its next-arrival timer
//! queued). [`TimerWheel`] replaces it:
//!
//! * **Hierarchy** — [`LEVELS`] levels of [`SLOTS`] slots each. A slot
//!   at level `L` spans `64^L` ticks (one tick = `2^TICK_SHIFT` ns), so
//!   the wheel covers `64^LEVELS` ticks (≈ 52 simulated days at the
//!   1.024 µs tick). Insertion picks the level from the event's
//!   distance-to-now and is O(1): a push onto the slot's intrusive
//!   singly-linked list.
//! * **Calendar overflow** — events beyond the horizon go to a small
//!   binary heap keyed by tick; they re-enter the wheel (or the ready
//!   set) when their tick becomes the next boundary. Far timers are
//!   rare, so the heap stays tiny.
//! * **Slab cells with a free list** — every queued event lives in a
//!   [`Cell`] inside one grow-only `Vec`. Completed and cancelled cells
//!   are recycled through an intrusive free list, so steady-state
//!   scheduling allocates nothing: the slab, the slot heads and the
//!   ready/overflow heaps all reuse their capacity.
//! * **Exact (time, seq) order** — ticks are coarser than nanoseconds,
//!   so one slot can hold events with different timestamps. Draining a
//!   slot moves its cells into a small *ready* heap ordered by
//!   `(time, seq)`; pops come exclusively from that heap. Every
//!   scheduled event gets a strictly increasing sequence number, which
//!   makes same-instant events FIFO — byte-for-byte the order the old
//!   binary heap produced, locked in by the differential property test
//!   below.
//!
//! Advancing never walks empty ticks: per-level occupancy bitmaps
//! (`u64`, one bit per slot) let [`TimerWheel::pop`] jump straight to
//! the next occupied boundary with a rotate + trailing-zeros.

use crate::stats::SchedStats;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2(slots per level): 64 slots.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond `64^LEVELS` ticks events overflow to
/// the calendar heap.
pub const LEVELS: usize = 7;
/// One tick is `2^TICK_SHIFT` nanoseconds (1.024 µs): fine enough that
/// same-slot collisions stay small, coarse enough that one wheel
/// rotation covers realistic link latencies.
const TICK_SHIFT: u32 = 10;
/// Ticks the wheel can represent before the overflow heap takes over.
const HORIZON: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
/// Null link in the slot / free lists.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, for cancellation. Generation-checked:
/// a key outlives its event harmlessly (cancel of an already-fired
/// event returns `false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    cell: u32,
    gen: u32,
}

/// One queued event. Kept small on purpose — at city scale there are
/// millions of these alive at once; `network.rs` pins the size with a
/// budget test so a fat new `Event` variant cannot silently bloat every
/// pending timer.
struct Cell<T> {
    /// Exact event time (ticks are derived, never stored).
    time: SimTime,
    /// Global schedule order; ties on `time` break FIFO by this.
    seq: u64,
    /// Bumped on free so stale [`EventKey`]s are recognised.
    gen: u32,
    /// Next cell in the slot chain or the free list.
    next: u32,
    /// The payload; `None` marks a cancelled (or free) cell.
    value: Option<T>,
}

/// Hierarchical timing wheel over payloads `T`, ordered by exact
/// `(time, seq)` — a drop-in replacement for a `(time, seq)`-keyed
/// binary heap with O(1) schedule and O(1) amortized pop.
pub struct TimerWheel<T> {
    cells: Vec<Cell<T>>,
    free_head: u32,
    /// Head cell of each slot's intrusive list.
    slots: [[u32; SLOTS]; LEVELS],
    /// One bit per slot: which slots hold at least one cell.
    occupied: [u64; LEVELS],
    /// Events past the wheel horizon, keyed by tick.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events whose tick has been reached, keyed by exact `(time, seq)`.
    ready: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The tick the wheel has advanced to.
    cur_tick: u64,
    seq: u64,
    len: usize,
    stats: SchedStats,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at the simulation epoch.
    pub fn new() -> Self {
        TimerWheel {
            cells: Vec::new(),
            free_head: NIL,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: BinaryHeap::new(),
            cur_tick: 0,
            seq: 0,
            len: 0,
            stats: SchedStats::default(),
        }
    }

    /// Live (schedulable, not yet popped or cancelled) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduler counters accumulated since construction.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Bytes one queued event occupies in the slab (the successor to the
    /// old `size_of::<Scheduled>()` — budget-tested so a fat new payload
    /// variant cannot silently multiply across millions of pending
    /// events).
    pub const fn cell_size() -> usize {
        std::mem::size_of::<Cell<T>>()
    }

    /// Schedules `value` at `time` and returns a cancellation key.
    /// Events scheduled for the past fire "now" (their recorded time is
    /// preserved); order among equal times is schedule order.
    pub fn schedule(&mut self, time: SimTime, value: T) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        let cell = self.alloc(time, seq, value);
        let key = EventKey {
            cell,
            gen: self.cell_gen(cell),
        };
        self.place(cell, time, seq);
        self.len += 1;
        self.stats.scheduled += 1;
        let pending = self.len as u64;
        if pending > self.stats.max_pending {
            self.stats.max_pending = pending;
        }
        key
    }

    /// Cancels a scheduled event. Returns `true` if it was still
    /// pending (the payload is dropped in place; the cell is reclaimed
    /// lazily when its slot drains).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(cell) = self.cells.get_mut(key.cell as usize) else {
            return false;
        };
        if cell.gen != key.gen || cell.value.is_none() {
            return false;
        }
        cell.value = None;
        self.len -= 1;
        self.stats.cancelled += 1;
        true
    }

    /// The timestamp of the next event without popping it. Advances
    /// internal wheel position (not observable ordering) as needed.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            // Skip cancelled tombstones so the reported time is live.
            while let Some(&Reverse((time, _, cell))) = self.ready.peek() {
                let live = self
                    .cells
                    .get(cell as usize)
                    .is_some_and(|c| c.value.is_some());
                if live {
                    return Some(time);
                }
                self.ready.pop();
                self.free(cell);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Removes and returns the earliest event by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            while let Some(Reverse((time, _, cell))) = self.ready.pop() {
                let taken = self
                    .cells
                    .get_mut(cell as usize)
                    .and_then(|c| c.value.take());
                self.free(cell);
                if let Some(value) = taken {
                    self.len -= 1;
                    self.stats.executed += 1;
                    return Some((time, value));
                }
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn cell_gen(&self, cell: u32) -> u32 {
        self.cells.get(cell as usize).map_or(0, |c| c.gen)
    }

    /// Takes a cell from the free list or grows the slab.
    fn alloc(&mut self, time: SimTime, seq: u64, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let Some(cell) = self.cells.get_mut(idx as usize) else {
                // Free list corrupt — unreachable; recover by growing.
                debug_assert!(false, "free list points past the slab");
                return self.alloc_grow(time, seq, value);
            };
            self.free_head = cell.next;
            cell.time = time;
            cell.seq = seq;
            cell.next = NIL;
            cell.value = Some(value);
            idx
        } else {
            self.alloc_grow(time, seq, value)
        }
    }

    fn alloc_grow(&mut self, time: SimTime, seq: u64, value: T) -> u32 {
        let idx = self.cells.len() as u32;
        self.cells.push(Cell {
            time,
            seq,
            gen: 0,
            next: NIL,
            value: Some(value),
        });
        idx
    }

    /// Returns a drained cell to the free list, bumping its generation.
    fn free(&mut self, cell: u32) {
        let head = self.free_head;
        let Some(c) = self.cells.get_mut(cell as usize) else {
            debug_assert!(false, "freeing a cell outside the slab");
            return;
        };
        c.value = None;
        c.gen = c.gen.wrapping_add(1);
        c.next = head;
        self.free_head = cell;
    }

    /// Files a cell into the ready heap, a wheel slot, or the overflow
    /// heap, by its distance from the wheel's current tick.
    fn place(&mut self, cell: u32, time: SimTime, seq: u64) {
        let tick = time.as_nanos() >> TICK_SHIFT;
        if tick <= self.cur_tick {
            self.ready.push(Reverse((time, seq, cell)));
            return;
        }
        let delta = tick - self.cur_tick;
        if delta >= HORIZON {
            self.overflow.push(Reverse((tick, seq, cell)));
            return;
        }
        // delta >= 1 here, so ilog2 is defined; 6 bits of distance per
        // level. delta < 2^42 keeps level < LEVELS.
        let level = (delta.ilog2() / LEVEL_BITS) as usize;
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let (Some(head), Some(c)) = (
            self.slots.get_mut(level).and_then(|l| l.get_mut(slot)),
            self.cells.get_mut(cell as usize),
        ) else {
            // level < LEVELS and slot < SLOTS by construction.
            debug_assert!(false, "wheel placement out of range");
            return;
        };
        c.next = *head;
        *head = cell;
        if let Some(bits) = self.occupied.get_mut(level) {
            *bits |= 1u64 << slot;
        }
    }

    /// Advances the wheel to the next occupied boundary, draining the
    /// boundary's slots into the ready heap (and cascading higher
    /// levels). Returns `false` when nothing is pending anywhere.
    fn advance(&mut self) -> bool {
        let mut next: Option<u64> = None;
        for level in 0..LEVELS {
            let Some(&bits) = self.occupied.get(level) else {
                break;
            };
            if bits == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let cur_idx = ((self.cur_tick >> shift) & (SLOTS as u64 - 1)) as usize;
            let d = next_set_distance(bits, cur_idx);
            let boundary = ((self.cur_tick >> shift) + d) << shift;
            next = Some(next.map_or(boundary, |b| b.min(boundary)));
        }
        if let Some(&Reverse((tick, _, _))) = self.overflow.peek() {
            next = Some(next.map_or(tick, |b| b.min(tick)));
        }
        let Some(t) = next else {
            return false;
        };
        self.advance_to(t);
        true
    }

    /// Jumps the wheel to tick `t` and drains/cascades the slots whose
    /// boundary is `t`. Correctness does not depend on `t` being the
    /// minimal boundary: cells whose time is later than `t` are simply
    /// re-filed by their new distance.
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t > self.cur_tick, "wheel advanced backwards");
        self.cur_tick = t;
        // Highest level first: cascaded cells re-file into lower levels
        // (or the ready heap) and are never touched twice in one jump.
        for level in (0..LEVELS).rev() {
            let shift = LEVEL_BITS * level as u32;
            let slot = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
            let Some(bits) = self.occupied.get_mut(level) else {
                continue;
            };
            if *bits & (1u64 << slot) == 0 {
                continue;
            }
            *bits &= !(1u64 << slot);
            let mut head = NIL;
            if let Some(h) = self.slots.get_mut(level).and_then(|l| l.get_mut(slot)) {
                head = *h;
                *h = NIL;
            }
            if level > 0 {
                self.stats.cascades += 1;
            }
            while head != NIL {
                let Some(c) = self.cells.get_mut(head as usize) else {
                    debug_assert!(false, "slot chain points past the slab");
                    break;
                };
                let next = c.next;
                c.next = NIL;
                let (time, seq) = (c.time, c.seq);
                self.place(head, time, seq);
                head = next;
            }
        }
        // Overflow events whose tick has arrived become ready.
        while let Some(&Reverse((tick, _, _))) = self.overflow.peek() {
            if tick > t {
                break;
            }
            let Some(Reverse((_, seq, cell))) = self.overflow.pop() else {
                break;
            };
            let time = self
                .cells
                .get(cell as usize)
                .map_or(SimTime::ZERO, |c| c.time);
            self.ready.push(Reverse((time, seq, cell)));
        }
    }
}

/// Minimal `d` in `1..=64` such that bit `(from + d) % 64` of `bits` is
/// set. `bits` must be non-zero.
fn next_set_distance(bits: u64, from: usize) -> u64 {
    debug_assert!(bits != 0);
    // Rotate so that bit (from+1) lands at position 0; the first set
    // bit's position is then d-1.
    let r = bits.rotate_right(((from + 1) % SLOTS) as u32);
    u64::from(r.trailing_zeros()) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// The reference scheduler the wheel must be trace-identical to:
    /// the old `BinaryHeap<Reverse<(time, seq)>>`, plus the same lazy
    /// cancellation semantics.
    struct RefHeap<T> {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        live: std::collections::BTreeMap<u64, T>,
        seq: u64,
    }

    impl<T> RefHeap<T> {
        fn new() -> Self {
            RefHeap {
                heap: BinaryHeap::new(),
                live: std::collections::BTreeMap::new(),
                seq: 0,
            }
        }
        fn schedule(&mut self, time: SimTime, value: T) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((time, seq, seq)));
            self.live.insert(seq, value);
            seq
        }
        fn cancel(&mut self, seq: u64) -> bool {
            self.live.remove(&seq).is_some()
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            while let Some(Reverse((time, _, id))) = self.heap.pop() {
                if let Some(v) = self.live.remove(&id) {
                    return Some((time, v));
                }
            }
            None
        }
        fn len(&self) -> usize {
            self.live.len()
        }
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // Deliberately straddle level boundaries: same tick, next tick,
        // a level-1 distance, a level-3 distance, and past-horizon.
        let times = [
            7u64,
            1_500,
            3_000_000,
            40_000_000_000,
            5_000_000_000_000_000,
            9,
            1_024,
        ];
        for &t in &times {
            w.schedule(at(t), t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(got, sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_events_pop_fifo() {
        let mut w = TimerWheel::new();
        let t = at(123_456_789);
        for i in 0..100u64 {
            w.schedule(t, i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_tick_different_times_pop_in_time_order() {
        let mut w = TimerWheel::new();
        // All three share the 1.024us tick but differ in exact time.
        w.schedule(at(1_000), 1);
        w.schedule(at(400), 0);
        w.schedule(at(1_023), 2);
        assert_eq!(w.pop(), Some((at(400), 0)));
        assert_eq!(w.pop(), Some((at(1_000), 1)));
        assert_eq!(w.pop(), Some((at(1_023), 2)));
    }

    #[test]
    fn schedule_while_popping_interleaves_correctly() {
        // An event scheduled *at the current instant* while another
        // event of the same instant is still queued must run after the
        // already-queued one (seq order) but before any later time.
        let mut w = TimerWheel::new();
        w.schedule(at(10), 'a');
        w.schedule(at(10), 'b');
        w.schedule(at(20), 'c');
        assert_eq!(w.pop(), Some((at(10), 'a')));
        w.schedule(at(10), 'd');
        w.schedule(at(15), 'e');
        assert_eq!(w.pop(), Some((at(10), 'b')));
        assert_eq!(w.pop(), Some((at(10), 'd')));
        assert_eq!(w.pop(), Some((at(15), 'e')));
        assert_eq!(w.pop(), Some((at(20), 'c')));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_prevents_delivery_and_stale_keys_miss() {
        let mut w = TimerWheel::new();
        let k1 = w.schedule(at(100), 1);
        let k2 = w.schedule(at(200), 2);
        assert!(w.cancel(k1));
        assert!(!w.cancel(k1), "double cancel must miss");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((at(200), 2)));
        assert!(!w.cancel(k2), "cancelling a fired event must miss");
        // A key whose cell was recycled must not cancel the new tenant.
        let k3 = w.schedule(at(300), 3);
        assert!(!w.cancel(k1));
        assert!(!w.cancel(k2));
        assert_eq!(w.pop(), Some((at(300), 3)));
        let _ = k3;
    }

    #[test]
    fn peek_time_reports_next_without_consuming() {
        let mut w = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        w.schedule(at(5_000), 'x');
        w.schedule(at(2_000), 'y');
        assert_eq!(w.peek_time(), Some(at(2_000)));
        assert_eq!(w.peek_time(), Some(at(2_000)), "peek is idempotent");
        assert_eq!(w.pop(), Some((at(2_000), 'y')));
        assert_eq!(w.peek_time(), Some(at(5_000)));
    }

    #[test]
    fn peek_time_skips_cancelled_events() {
        let mut w = TimerWheel::new();
        let k = w.schedule(at(1_000), 'x');
        w.schedule(at(9_000), 'y');
        w.cancel(k);
        assert_eq!(w.peek_time(), Some(at(9_000)));
        assert_eq!(w.pop(), Some((at(9_000), 'y')));
    }

    #[test]
    fn steady_state_recycles_cells_without_growing_the_slab() {
        let mut w = TimerWheel::new();
        let mut now = 0u64;
        for i in 0..1_000u64 {
            w.schedule(at(now + 1_000 + i), i);
        }
        let cells_after_warmup = w.cells.len();
        // Churn: pop one, schedule one, for many rounds.
        for i in 0..100_000u64 {
            let (t, _) = w.pop().expect("non-empty");
            now = t.as_nanos();
            w.schedule(at(now + 1_000 + (i % 977)), i);
        }
        assert_eq!(
            w.cells.len(),
            cells_after_warmup,
            "steady-state churn must reuse freed cells, not grow the slab"
        );
        assert_eq!(w.len(), 1_000);
    }

    #[test]
    fn stats_track_depth_and_cascades() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            // Far enough to land in upper levels and force cascades.
            w.schedule(at(i * 700_000_000), i);
        }
        while w.pop().is_some() {}
        let s = w.stats();
        assert_eq!(s.scheduled, 100);
        assert_eq!(s.executed, 100);
        assert_eq!(s.max_pending, 100);
        assert!(s.cascades > 0, "far timers must cascade down the levels");
        assert_eq!(s.cancelled, 0);
    }

    /// The differential property test: on randomized schedule / cancel /
    /// pop workloads the wheel's observable trace (exact pop sequence of
    /// `(time, payload)` and live length) must match the reference
    /// binary heap's, including same-tick FIFO order. Time offsets mix
    /// all levels: same-instant, sub-tick, every wheel level, and
    /// past-horizon calendar offsets.
    #[test]
    fn differential_trace_identity_with_reference_heap() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0xC17_5EED ^ seed);
            let mut wheel = TimerWheel::new();
            let mut reference = RefHeap::new();
            let mut now = 0u64;
            // Live keys for cancellation, kept aligned by issue order.
            let mut keys: Vec<(EventKey, u64)> = Vec::new();
            let mut next_payload = 0u64;
            for _ in 0..3_000 {
                match rng.gen_range(0..10) {
                    // Schedule (most likely op).
                    0..=5 => {
                        let offset = match rng.gen_range(0..6) {
                            0 => 0,                                 // same instant
                            1 => rng.gen_range(0..1_024),           // sub-tick
                            2 => rng.gen_range(0..100_000),         // level 0-1
                            3 => rng.gen_range(0..1_000_000_000),   // mid levels
                            4 => rng.gen_range(0..100_000_000_000), // high levels
                            _ => 4_500_000_000_000_000 + rng.gen_range(0..1_000_000),
                        };
                        let t = at(now + offset);
                        let payload = next_payload;
                        next_payload += 1;
                        let wk = wheel.schedule(t, payload);
                        let rk = reference.schedule(t, payload);
                        keys.push((wk, rk));
                    }
                    // Cancel a random still-tracked key.
                    6 => {
                        if !keys.is_empty() {
                            let i = rng.gen_range(0..keys.len());
                            let (wk, rk) = keys.swap_remove(i);
                            assert_eq!(
                                wheel.cancel(wk),
                                reference.cancel(rk),
                                "cancel outcome diverged (seed {seed})"
                            );
                        }
                    }
                    // Pop a burst.
                    _ => {
                        for _ in 0..rng.gen_range(1..8) {
                            let got = wheel.pop();
                            let want = reference.pop();
                            assert_eq!(
                                got.as_ref().map(|(t, v)| (*t, *v)),
                                want.as_ref().map(|(t, v)| (*t, *v)),
                                "pop diverged (seed {seed})"
                            );
                            if let Some((t, _)) = got {
                                assert!(t.as_nanos() >= now, "time went backwards");
                                now = t.as_nanos();
                            }
                        }
                    }
                }
                assert_eq!(wheel.len(), reference.len(), "len diverged (seed {seed})");
            }
            // Drain both to the end.
            loop {
                let got = wheel.pop();
                let want = reference.pop();
                assert_eq!(
                    got.as_ref().map(|(t, v)| (*t, *v)),
                    want.as_ref().map(|(t, v)| (*t, *v)),
                    "drain diverged (seed {seed})"
                );
                if got.is_none() {
                    break;
                }
            }
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn million_pending_events_drain_in_order() {
        let mut w = TimerWheel::new();
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..1_000_000u64 {
            w.schedule(at(rng.gen_range(0..10_000_000_000)), i);
        }
        assert_eq!(w.len(), 1_000_000);
        assert_eq!(w.stats().max_pending, 1_000_000);
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some((t, _)) = w.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 1_000_000);
    }

    #[test]
    fn next_set_distance_scans_circularly() {
        assert_eq!(next_set_distance(0b10, 0), 1);
        assert_eq!(
            next_set_distance(0b1, 0),
            64,
            "own bit is a full rotation away"
        );
        assert_eq!(next_set_distance(1 << 63, 62), 1);
        assert_eq!(next_set_distance(1, 63), 1);
        assert_eq!(next_set_distance(1 << 10, 20), 54);
    }

    #[test]
    fn duration_helpers_schedule_far_future() {
        // Past-horizon event alone in the wheel: overflow must hand it
        // back at the right time.
        let mut w = TimerWheel::new();
        let far = SimTime::ZERO + SimDuration::from_secs(100 * 24 * 3600);
        w.schedule(far, 'z');
        assert_eq!(w.peek_time(), Some(far));
        assert_eq!(w.pop(), Some((far, 'z')));
    }
}
