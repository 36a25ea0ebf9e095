//! Parallel experiment runner.
//!
//! Experiments in this crate decompose into *trials* — independent
//! world-build-and-run units (one access network of Figure 2, one
//! deployment of Figure 5, one role row of Table 2). The runner fans
//! trials over scoped worker threads while keeping results
//! **bit-identical regardless of thread count**:
//!
//! * every trial gets its own seed, derived from the experiment's root
//!   seed and the trial index by [`derive_seed`] — no RNG is ever
//!   shared or handed off between trials;
//! * results are merged in trial-index order, not completion order.
//!
//! So `threads = 1` and `threads = 64` produce byte-identical
//! serialized figures, and the thread count is purely a wall-clock
//! knob (`repro --threads N`). `tests/determinism.rs` locks this in.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// splitmix64's output mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed for one trial from the experiment's root seed.
///
/// splitmix-style: the root is advanced by `trial_idx + 1` golden-ratio
/// increments and mixed, so nearby roots and nearby indices still land
/// in uncorrelated parts of the sequence. Crucially this depends only
/// on `(root, trial_idx)` — never on which thread runs the trial or in
/// what order — which is what makes parallel runs reproducible.
pub fn derive_seed(root: u64, trial_idx: u64) -> u64 {
    splitmix64(root.wrapping_add(trial_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Fans independent trials over scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    /// A serial runner (`threads = 1`).
    fn default() -> Self {
        Runner { threads: 1 }
    }
}

impl Runner {
    /// A runner with a fixed worker count. `0` means "one worker per
    /// available CPU".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Runner { threads }
    }

    /// The worker count trials fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trials` invocations of `f` and returns their results in
    /// trial-index order.
    ///
    /// `f(i)` must depend only on `i` (seed anything random with
    /// [`derive_seed`]); the runner guarantees the returned `Vec` is
    /// `[f(0), f(1), …]` no matter how trials were scheduled.
    pub fn run<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(trials);
        if workers <= 1 {
            return (0..trials).map(f).collect();
        }

        // Workers claim trial indices from a shared counter (cheap
        // dynamic load balancing — trials vary a lot in cost) and push
        // `(idx, result)` pairs; the index-ordered merge below restores
        // the deterministic order.
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(trials));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // AcqRel: claiming index i must be ordered
                        // against the other workers' claims — a Relaxed
                        // RMW still hands out unique indices, but gives
                        // no happens-before edge for anything the claim
                        // is taken to imply about shared state.
                        let i = next.fetch_add(1, Ordering::AcqRel);
                        if i >= trials {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    // A worker that panicked mid-trial poisons `done`;
                    // the surviving workers' results are still wanted
                    // (the merge below asserts completeness anyway).
                    done.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .append(&mut local);
                });
            }
        });

        let mut indexed = done
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        indexed.sort_by_key(|(i, _)| *i);
        // Hard assert, not debug_assert: a lost trial would silently
        // truncate (and index-shift) results in release builds, which is
        // exactly the build `repro` campaigns run under.
        assert_eq!(
            indexed.len(),
            trials,
            "runner lost trials: merged {} of {}",
            indexed.len(),
            trials
        );
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// [`Runner::run`] with the per-trial seed already derived: `f`
    /// receives `(trial_idx, derive_seed(root, trial_idx))`.
    pub fn run_seeded<T, F>(&self, trials: usize, root: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        self.run(trials, |i| f(i, derive_seed(root, i as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_depends_on_both_inputs() {
        let s = derive_seed(2020, 0);
        assert_ne!(s, derive_seed(2020, 1));
        assert_ne!(s, derive_seed(2021, 0));
        // Stable across calls.
        assert_eq!(s, derive_seed(2020, 0));
    }

    #[test]
    fn derive_seed_has_no_trivial_xor_collisions() {
        // The old `seed ^ idx` scheme mapped trial 0 to the root seed
        // itself; the splitmix derivation must not.
        for root in [0u64, 1, 2020, u64::MAX] {
            assert_ne!(derive_seed(root, 0), root);
        }
    }

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let got = Runner::new(threads).run(100, |i| i * i);
            assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeded_runs_are_identical_across_thread_counts() {
        let serial = Runner::new(1).run_seeded(40, 7, |i, s| (i, s));
        for threads in [2, 5, 16] {
            assert_eq!(
                Runner::new(threads).run_seeded(40, 7, |i, s| (i, s)),
                serial
            );
        }
    }

    #[test]
    fn every_trial_is_merged_exactly_once() {
        // Regression guard for the completeness check: the merged vector
        // must contain f(i) for *every* index exactly once, at every
        // thread count (including workers > trials). A lost trial now
        // panics even in release builds instead of silently truncating.
        for threads in [1, 2, 4, 7, 32] {
            for trials in [0, 1, 5, 19] {
                let got = Runner::new(threads).run(trials, |i| i);
                assert_eq!(got.len(), trials);
                assert_eq!(got, (0..trials).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(Runner::new(0).threads() >= 1);
    }

    #[test]
    fn uneven_trial_costs_still_merge_in_order() {
        let got = Runner::new(4).run(16, |i| {
            // Early trials sleep longest so completion order inverts
            // submission order.
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
