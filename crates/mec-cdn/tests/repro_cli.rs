//! The `repro` binary refuses input it does not understand.

use std::process::Command;

#[test]
fn unknown_subcommand_exits_2_with_usage_on_stderr_only() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bogus")
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert!(stderr.contains("unknown subcommand `bogus`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
