//! `perfbench`: the repository's benchmark. End-to-end figures for the
//! serving path (`serve-hit`, `serve-miss`, `serve-udp`) and the city
//! simulator (`city`), and a separate traced run that splits each into
//! per-layer costs. `README.md` beside this crate describes the method.
//!
//! Every timed phase is cut into short rounds. A run's figure is the
//! median of its fastest twentieth of rounds, rescaled by a frozen
//! reference loop sampled while those rounds ran, so a host slow period
//! that covers most of a run does not move the figure, and one that
//! covers all of it moves it less.

pub mod alloc;
pub mod city;
pub mod metrics;
pub mod procfs;
pub mod reference;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod udp;

use metrics::RunReport;
use std::path::Path;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["serve-hit", "serve-miss", "city", "serve-udp"];

/// Runs workload `name` for about `seconds`: end-to-end figures, or, when
/// `traced`, per-layer values (spans go under `out_dir`). `None` for an
/// unknown workload.
///
/// The calling thread is first pinned to the CPU it runs on, and every
/// thread the run spawns inherits the pin: every round and reference
/// sample then runs on one CPU, and `serve-udp`'s client and shard share
/// it.
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Option<RunReport> {
    if !WORKLOADS.contains(&name) {
        return None;
    }
    let pinned = procfs::pin_to_current_cpu();
    let mut report = workload(name, seed, seconds, traced, out_dir)?;
    report.notes.push(match pinned {
        Some(cpu) => format!("{name}: pinned to CPU {cpu}"),
        None => format!("{name}: pinning to one CPU was refused"),
    });
    Some(report)
}

fn workload(name: &str, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Option<RunReport> {
    let spans = out_dir.join(format!("spans-{name}-{seed}.tsv"));
    Some(match (name, traced) {
        ("serve-hit", false) => serve::run(&serve::HIT, seed, seconds),
        ("serve-hit", true) => serve::run_traced(&serve::HIT, seed, seconds, &spans),
        ("serve-miss", false) => serve::run(&serve::MISS, seed, seconds),
        ("serve-miss", true) => serve::run_traced(&serve::MISS, seed, seconds, &spans),
        ("city", false) => city::run(seed, seconds),
        ("city", true) => city::run_traced(seed, seconds),
        ("serve-udp", false) => udp::run(seed, seconds),
        ("serve-udp", true) => udp::run_traced(seed, seconds),
        _ => return None,
    })
}
