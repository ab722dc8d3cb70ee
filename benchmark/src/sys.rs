//! What the kernel says about this process: CPU time, context switches
//! and peak resident memory, read from `/proc`. Anything unreadable
//! reads as zero rather than failing the run.

use std::fs;

/// `/proc/self/stat` counts CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz on every architecture.
const TICK_MICROS: u64 = 10_000;

/// Process CPU time so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTime {
    pub user_us: u64,
    pub system_us: u64,
}

impl CpuTime {
    pub fn total_us(&self) -> u64 {
        self.user_us + self.system_us
    }

    pub fn since(&self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            system_us: self.system_us.saturating_sub(earlier.system_us),
        }
    }
}

/// User and system CPU time of the whole process (all threads).
pub fn cpu_time() -> CpuTime {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

fn parse_stat(stat: &str) -> Option<CpuTime> {
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let user: u64 = fields.next()?.parse().ok()?;
    let system: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_us: user * TICK_MICROS,
        system_us: system * TICK_MICROS,
    })
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches summed over every live
/// thread (`/proc/self/status` alone covers only the main thread).
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// `nproc` and the CPU model, for the report header.
pub fn host_description() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    format!("nproc={nproc}, {model}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(
            parse_stat(line),
            Some(CpuTime {
                user_us: 170_000,
                system_us: 50_000
            })
        );
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(s, "VmRSS:"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_time();
        let mut x = 0u64;
        while cpu_time().since(before).total_us() < 20_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time().total_us() >= before.total_us() + 20_000);
    }
}
