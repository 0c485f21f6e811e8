//! Process-level readings from `/proc` (Linux only, like the rest of the
//! benchmark's host assumptions).

use std::fs;

/// The contents of `/proc/self/task/<tid>/<file>` for every live thread.
fn per_thread(file: &str) -> impl Iterator<Item = String> + '_ {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        // A thread may exit between the listing and the read.
        .filter_map(move |task| fs::read_to_string(task.ok()?.path().join(file)).ok())
}

/// Threads of the process that `/proc` still lists.
pub fn live_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// On-CPU nanoseconds summed over every live thread of the process, from
/// `schedstat`. The kernel brings a running thread's figure up to date at
/// each scheduler tick (4 ms here), so a single reading is that coarse;
/// differences over many windows average it out.
pub fn process_cpu_ns() -> u64 {
    per_thread("schedstat")
        .map(|stat| {
            stat.split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("schedstat on-CPU time")
        })
        .sum()
}

/// Voluntary + involuntary context switches summed over every live
/// thread of the process.
pub fn ctx_switches() -> u64 {
    per_thread("status")
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc status"))
}
