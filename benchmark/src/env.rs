//! What the benchmark reads about the machine and about itself from
//! `/proc`, plus the one-CPU pinning. Every reader degrades to a neutral
//! value where `/proc` is absent instead of failing the run.

use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(name: &str) -> Option<String> {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|rest| rest.trim().to_string()))
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The highest-numbered CPU this process may run on.
pub fn last_allowed_cpu() -> Option<usize> {
    parse_last_cpu(&status_field("Cpus_allowed_list:")?)
}

fn parse_last_cpu(list: &str) -> Option<usize> {
    list.split(',')
        .filter_map(|range| range.trim().rsplit('-').next()?.parse::<usize>().ok())
        .max()
}

/// Whether this process is confined to a single CPU.
pub fn is_pinned() -> bool {
    status_field("Cpus_allowed_list:").is_some_and(|l| !l.contains(',') && !l.contains('-'))
}

/// `(total, steal)` jiffies of the whole machine since boot.
pub fn machine_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

/// Share of machine time stolen by the hypervisor between two
/// [`machine_jiffies`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        0.0
    } else {
        after.1.saturating_sub(before.1) as f64 / total as f64
    }
}

/// CPU nanoseconds the calling thread has run (scheduler statistics).
pub fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds of every thread of this process, live or ended.
pub fn process_cpu_ns() -> u64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `)` that ends
    // the command name, in USER_HZ (100 on Linux) ticks.
    let stat = read("/proc/self/stat");
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

/// The 1/5/15-minute load averages as the kernel prints them.
pub fn load_average() -> String {
    read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// First line of a command's standard output, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_to_their_last_cpu() {
        assert_eq!(parse_last_cpu("0-1"), Some(1));
        assert_eq!(parse_last_cpu("3"), Some(3));
        assert_eq!(parse_last_cpu("0-3,8-11"), Some(11));
        assert_eq!(parse_last_cpu("0,2,5"), Some(5));
        assert_eq!(parse_last_cpu(""), None);
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share((100, 10), (300, 60)), 0.25);
        assert_eq!(steal_share((100, 10), (100, 10)), 0.0);
    }
}
