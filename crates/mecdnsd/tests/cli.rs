//! The `mecdnsd` binary refuses flags it does not understand.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `mecdnsd` with `args`, killing it if it has not exited within a
/// few seconds: a binary that ignores a bad flag may serve forever.
fn run_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mecdnsd"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mecdnsd starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll mecdnsd").is_none() {
        if Instant::now() >= deadline {
            child.kill().expect("kill mecdnsd");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

fn assert_rejected(args: &[&str]) {
    let out = run_bounded(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{args:?}");
    assert!(stderr.contains("mecdnsd: "), "{stderr}");
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(stderr.contains("usage: mecdnsd"), "{stderr}");
}

#[test]
fn serve_rejects_an_unknown_flag() {
    assert_rejected(&["serve", "--bogus"]);
}

#[test]
fn smoke_rejects_an_unknown_flag() {
    assert_rejected(&["smoke", "--bogus"]);
}

#[test]
fn loadgen_rejects_an_unknown_flag() {
    assert_rejected(&["loadgen", "--bogus", "--target", "127.0.0.1:9"]);
}
