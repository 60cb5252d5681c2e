//! CPU time and peak memory of this process, read from `/proc/self`.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture this repository builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in milliseconds, parsed from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SECOND)
}

/// `VmHWM` in MiB, parsed from the text of `/proc/<pid>/status`.
fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU milliseconds (user + system, all threads) used by this process so far.
pub fn cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ms_from_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mb_from_status(&s))
        .expect("/proc/self/status is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_a_hostile_command_name() {
        let stat = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
        assert_eq!(cpu_ms_from_stat(stat), Some(3000.0));
        assert_eq!(cpu_ms_from_stat("no parenthesis"), None);
    }

    #[test]
    fn parses_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(peak_rss_mb_from_status(status), Some(2.0));
        assert_eq!(peak_rss_mb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let before = cpu_ms();
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= before);
    }
}
