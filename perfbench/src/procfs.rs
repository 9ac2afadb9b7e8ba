//! Process figures read from Linux `/proc`, with no dependency.

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Id of the calling OS thread.
pub fn thread_id() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time thread `tid` of this process has run, in nanoseconds
/// (first field of its `schedstat`).
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds of every live thread of this process, by thread id.
pub fn all_threads_cpu_ns() -> Vec<(u32, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let tid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
        Some((tid, thread_cpu_ns(tid)?))
    })
    .collect()
}
