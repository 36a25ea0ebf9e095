//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <serve-hit|serve-miss|city|serve-udp> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --steady K [--seed N] [--seconds S]
//! perfbench --workload all [--seed N] [--seconds S]
//! ```
//!
//! A run prints notes, a `figures` line (raw and normalised end-to-end
//! figures side by side) and, last, one JSON result line carrying the
//! normalised figures. It exits 1 when
//! an operation failed or a correctness check did not hold, 2 on a bad
//! command line.

use perfbench::metrics::{figures_line, result_line};
use perfbench::{run, steady, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <serve-hit|serve-miss|city|serve-udp|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--steady K]";

/// Where traced runs write their spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<u64>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        steady: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--steady" => parsed.steady = Some(number()?.max(2)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perfbench"));
    if args.workload == "all" {
        exit(steady::all(&exe, args.seed, args.seconds));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        exit(2);
    }
    if let Some(k) = args.steady {
        exit(steady::steadiness(
            &exe,
            &args.workload,
            args.seed,
            args.seconds,
            k,
        ));
    }
    let Some(report) = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Path::new(OUT_DIR),
    ) else {
        exit(2);
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for v in &report.violations {
        println!("# check failed: {v}");
    }
    if !args.trace {
        println!("{}", figures_line(&report));
    }
    println!("{}", result_line(&report, args.trace));
    exit(if report.correct() { 0 } else { 1 });
}
