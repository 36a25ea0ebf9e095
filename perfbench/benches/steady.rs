//! The steadiness mode and the all-workloads table, both of which run
//! workloads as child processes of this binary, one process per run.

use crate::stats;
use crate::{procfs, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// What one child run printed: its result line and its `figures` line.
#[derive(Debug)]
pub struct ChildRun {
    /// The parsed result line.
    pub result: Value,
    /// The parsed `figures` line (empty object for traced runs).
    pub figures: Value,
    /// Whether the child exited 0.
    pub success: bool,
}

/// Runs this binary once as a child and parses what it printed.
pub fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<ChildRun, String> {
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::parse_value(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let figures = match stdout.lines().find_map(|l| l.strip_prefix("figures ")) {
        Some(text) => {
            serde_json::parse_value(text).map_err(|e| format!("bad figures line: {e}"))?
        }
        None => Value::Object(Vec::new()),
    };
    Ok(ChildRun {
        result,
        figures,
        success: out.status.success(),
    })
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Each end-to-end metric's bound, from `BENCHMARK.json` in the working
/// directory; empty when it cannot be read.
pub fn bounds(path: &Path) -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(json) = serde_json::parse_value(&text) else {
        return BTreeMap::new();
    };
    let Some(Value::Array(metrics)) = json.get("end_to_end") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| match m.get("name") {
            Some(Value::Str(name)) => Some((name.clone(), number(m.get("bound"))?)),
            _ => None,
        })
        .collect()
}

/// One metric's values over the runs: reported, raw and normalised.
#[derive(Debug, Default)]
struct Series {
    unit: String,
    reported: Vec<f64>,
    raw: Vec<f64>,
    normalised: Vec<f64>,
}

fn pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |s| format!("{:.2}%", 100.0 * s))
}

/// Runs `workload` `k` times, each in its own process with seed
/// `seed + i`, and prints per end-to-end metric the median, the quartiles
/// and the raw and normalised spreads against the metric's bound.
/// Returns the exit code: 0 when every run was correct and every spread
/// but `setup_s`'s is within its bound.
pub fn steadiness(exe: &Path, workload: &str, seed: u64, seconds: u64, k: u64) -> i32 {
    println!("{}", procfs::host_block());
    let bounds = bounds(Path::new("BENCHMARK.json"));
    let mut series: BTreeMap<String, Series> = BTreeMap::new();
    let mut ok = true;
    for i in 0..k {
        let run = match child(exe, workload, seed + i, seconds, false) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let correct = matches!(run.result.get("correct"), Some(Value::Bool(true)));
        ok &= run.success && correct;
        let Some(metrics) = run.result.get("metrics").and_then(Value::as_object) else {
            eprintln!("{workload} seed {}: result line has no metrics", seed + i);
            return 1;
        };
        let mut line = format!("run {i} seed {}:", seed + i);
        for (name, m) in metrics {
            let s = series.entry(name.clone()).or_default();
            let value = number(m.get("value")).unwrap_or(f64::NAN);
            if let Some(Value::Str(unit)) = m.get("unit") {
                s.unit = unit.clone();
            }
            s.reported.push(value);
            let fig = run.figures.get(name);
            s.raw
                .push(number(fig.and_then(|f| f.get("raw"))).unwrap_or(value));
            s.normalised
                .push(number(fig.and_then(|f| f.get("normalised"))).unwrap_or(value));
            line.push_str(&format!(" {name}={value:.6}"));
        }
        println!("{line}{}", if correct { "" } else { " INCORRECT" });
    }
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>10} {:>10} {:>10} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "raw", "normalised", "bound"
    );
    for (name, s) in &series {
        let [q1, _, q3] = stats::quartiles(&s.reported).unwrap_or([f64::NAN; 3]);
        let spread = stats::spread(&s.reported);
        let bound = bounds.get(name).copied();
        let verdict = match (spread, bound) {
            (Some(sp), Some(b)) if sp <= b / 3.0 => "steady",
            (Some(sp), Some(b)) if sp <= b => "within bound",
            (_, None) => "no bound",
            _ if name == "setup_s" => "over (setup spread is not checked)",
            _ => {
                ok = false;
                "OVER BOUND"
            }
        };
        println!(
            "{:<18} {:>14.6} {:>14.6} {:>14.6} {:>10} {:>10} {:>10} {:>7}  {verdict} [{}]",
            name,
            q1,
            stats::median(&s.reported),
            q3,
            pct(spread),
            pct(stats::spread(&s.raw)),
            pct(stats::spread(&s.normalised)),
            pct(bound),
            s.unit
        );
    }
    i32::from(!ok)
}

/// Runs every workload once, each in its own process, and prints every
/// end-to-end metric with its unit plus attempted and failed operations.
/// Returns 0 when every run was correct.
pub fn all(exe: &Path, seed: u64, seconds: u64) -> i32 {
    let mut ok = true;
    for &w in WORKLOADS {
        match child(exe, w, seed, seconds, false) {
            Ok(run) => {
                let correct = matches!(run.result.get("correct"), Some(Value::Bool(true)));
                ok &= run.success && correct;
                let count = |key| number(run.result.get(key)).unwrap_or(f64::NAN);
                let mut line = format!(
                    "{:<11} correct={correct} attempted={} failed={}",
                    w,
                    count("attempted"),
                    count("failed")
                );
                for (name, m) in run
                    .result
                    .get("metrics")
                    .and_then(Value::as_object)
                    .unwrap_or(&[])
                {
                    let unit = match m.get("unit") {
                        Some(Value::Str(u)) => u.as_str(),
                        _ => "",
                    };
                    line.push_str(&format!(
                        " {name}={:.4}{unit}",
                        number(m.get("value")).unwrap_or(f64::NAN)
                    ));
                }
                println!("{line}");
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    i32::from(!ok)
}
