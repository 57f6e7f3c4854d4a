//! Host context printed beside each run's metrics (never gated on), and
//! the process's peak resident set. Both come from the kernel's `/proc`
//! interface; nothing else outside the checkout is read.

/// Usable hardware threads; shard threads and client counts are capped
/// at this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Share of CPU time the hypervisor stole between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    let dt = t1.checked_sub(t0)?;
    (dt > 0).then(|| s1.saturating_sub(s0) as f64 / dt as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`). It covers the
/// whole process, which is why every workload runs in its own process.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
