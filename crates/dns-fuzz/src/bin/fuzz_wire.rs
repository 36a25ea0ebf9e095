//! `fuzz_wire` — the long-running campaign driver.
//!
//! ```text
//! fuzz_wire [--cases N] [--seed 0xHEX] [--threads T]
//!           [--summary PATH] [--crashers DIR] [--write-seeds]
//! ```
//!
//! Runs a deterministic fuzz campaign against `dns-wire` and prints
//! (or writes) the byte-stable summary report. Exits non-zero when any
//! crasher is found — the CI fail-on-crasher gate. With `--crashers`
//! each retained crasher is minimized and written as
//! `case-<idx>-<class>.bin` for pinning as a regression fixture.
//! `--write-seeds` regenerates `corpus/seeds/*.bin` from the builders
//! in `dns_fuzz::corpus` and exits. An unknown flag, a flag without its
//! value, or a value that does not parse prints the reason and the usage
//! to stderr and exits 2.

use dns_fuzz::{minimize, oracle, runner, Config};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: fuzz_wire [--cases N] [--seed 0xHEX] [--threads T] \
                     [--summary PATH] [--crashers DIR] [--write-seeds]";

/// Flags that take a value, and switches.
const VALUE_FLAGS: &[&str] = &["--cases", "--seed", "--threads", "--summary", "--crashers"];
const SWITCHES: &[&str] = &["--write-seeds", "--help", "-h"];

/// Rejects any argument that is not a known flag, and a value flag
/// without its value.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(())
}

/// Prints `reason` and the usage to stderr; the exit code for input the
/// binary does not understand.
fn usage_error(reason: &str) -> ExitCode {
    eprintln!("fuzz_wire: {reason}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse().ok()
    }
}

fn main() -> ExitCode {
    // detlint: allow(env-read) — CLI of a test harness, outside any
    // simulation; the campaign itself is seeded explicitly.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };

    if let Err(reason) = check_args(&args) {
        return usage_error(&reason);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--write-seeds") {
        // Works from the workspace root or from the crate directory.
        let dir = if Path::new("crates/dns-fuzz/corpus/seeds").is_dir() {
            "crates/dns-fuzz/corpus/seeds"
        } else {
            "corpus/seeds"
        };
        let seeds = dns_fuzz::corpus::build_seeds();
        for (i, s) in seeds.iter().enumerate() {
            let path = format!("{dir}/seed-{i:02}.bin");
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("fuzz_wire: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("wrote {} seeds to {dir}", seeds.len());
        return ExitCode::SUCCESS;
    }

    let mut cfg = Config::default();
    if let Some(v) = value_of("--cases") {
        match parse_u64(v) {
            Some(n) => cfg.cases = n,
            None => return usage_error(&format!("bad --cases {v}")),
        }
    }
    if let Some(v) = value_of("--seed") {
        match parse_u64(v) {
            Some(n) => cfg.root_seed = n,
            None => return usage_error(&format!("bad --seed {v}")),
        }
    }
    if let Some(v) = value_of("--threads") {
        match v.parse() {
            Ok(n) => cfg.threads = n,
            Err(_) => return usage_error(&format!("bad --threads {v}")),
        }
    }

    let summary = runner::run(&cfg);
    let rendered = summary.render();
    match value_of("--summary") {
        Some(path) if path != "-" => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("fuzz_wire: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        _ => print!("{rendered}"),
    }

    if summary.crash_count() == 0 {
        return ExitCode::SUCCESS;
    }

    // Crashers found: minimize and (optionally) emit fixtures.
    if let Some(dir) = value_of("--crashers") {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz_wire: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for c in &summary.crashers {
            let class = c.outcome.class();
            let small = minimize::minimize(
                &c.input,
                |bytes| oracle::check(bytes, true).class() == class,
                4096,
            );
            let path = format!("{dir}/case-{:08}-{class}.bin", c.case_idx);
            if let Err(e) = std::fs::write(&path, &small) {
                eprintln!("fuzz_wire: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "crasher case {} [{}]: {} -> {} bytes -> {path}",
                c.case_idx,
                class,
                c.input.len(),
                small.len()
            );
        }
    }
    eprintln!("fuzz_wire: {} crashing case(s) found", summary.crash_count());
    ExitCode::FAILURE
}
