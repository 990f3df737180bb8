//! Process CPU time and peak memory from `/proc`.
//!
//! `/proc/self/stat` reports `utime`/`stime` for the whole thread
//! group, including threads that have already exited — which is what
//! a distributed run needs, since its rank threads are joined before
//! `train_distributed` returns.

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc;
/// Linux has fixed `USER_HZ` at 100 on every architecture pdnn runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state is field 3, utime field 14, stime field 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds this process has consumed so far (all threads).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The number of a `Key:   <n> kB` line, as `/proc/<pid>/status` and
/// `/proc/meminfo` print them.
pub fn kib_field(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    Some(kib_field(status, "VmHWM:")? / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}
