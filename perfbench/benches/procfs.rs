//! Readings from `/proc` and `/sys`: memory high-water marks, a thread's
//! CPU time, and the host block printed with steadiness results; and
//! pinning a thread to its CPU.

use std::fs;
use std::process::Command;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kib: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kib * 1024.0)
    })
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_bytes("VmHWM").unwrap_or(0.0) / (1024.0 * 1024.0)
}

/// This process's resident set now (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_bytes("VmRSS").unwrap_or(0.0)
}

/// Ids of this process's threads, sorted.
pub fn thread_ids() -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut ids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on. Returns that CPU, or `None` when the kernel
/// refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU
    // number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, `cpu_set_t`-sized buffer for the whole
    // call; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU time one thread of this process has run, in ns: the first field
/// of its `schedstat`.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// What a reader needs to compare figures across hosts: CPUs, compiler,
/// kernel, clocksource and load.
pub fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let read = |path: &str| {
        fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    format!(
        "host: nproc={nproc} rustc=\"{rustc}\" kernel={} clocksource={} loadavg=\"{}\"",
        read("/proc/sys/kernel/osrelease"),
        read("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        read("/proc/loadavg"),
    )
}
