//! Peak resident set (`VmHWM`) growth across one call, shared by the
//! peak-memory guards. Each guard sits in its own test binary, alone, so
//! that no other test shares the process and its peak.

/// `VmHWM` from `/proc/self/status`, in bytes; `None` where the file is
/// not there (a platform without procfs).
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Runs `f` and returns its result with the bytes by which it raised the
/// peak; `None` without running it where there is no procfs.
pub fn peak_growth<T>(f: impl FnOnce() -> T) -> Option<(T, usize)> {
    // Reset the high-water mark to the current resident set where the
    // kernel allows it, so earlier allocations cannot hide the growth.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = peak_rss_bytes()?;
    let out = f();
    let grew = peak_rss_bytes().expect("VmHWM was readable a moment ago") - before;
    Some((out, grew))
}

/// `bytes` in MiB, for messages.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}
