//! The `fuzz_wire` binary refuses flags it does not understand.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn an_unknown_flag_exits_2_with_usage_on_stderr_only() {
    // Killed if still running after a few seconds: a binary that ignores
    // the flag starts a whole campaign.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fuzz_wire"))
        .arg("--bogus")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fuzz_wire starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll fuzz_wire").is_none() {
        if Instant::now() >= deadline {
            child.kill().expect("kill fuzz_wire");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert!(
        stderr.contains("fuzz_wire: unknown flag `--bogus`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: fuzz_wire"), "{stderr}");
}
