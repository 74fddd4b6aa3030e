//! Process-level cost read from `/proc/self` (Linux): CPU time of
//! every thread of this process, and its peak resident set.

use std::fs;

/// `USER_HZ`: the unit of the utime/stime fields of `/proc/<pid>/stat`.
/// Fixed at 100 by the Linux ABI on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU milliseconds consumed so far by all threads of
/// this process (live and joined). 0 when `/proc` is unreadable.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) * 1000.0 / TICKS_PER_SECOND
}

/// Hundredths of a second, summed over all CPUs, that the hypervisor
/// ran something else while this machine had work to do (the `steal`
/// column of `/proc/stat`). 0 when unreadable or not reported.
pub fn steal_ticks() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Share of one CPU lost to steal between an earlier [`steal_ticks`]
/// reading and now, over `wall_s` seconds.
pub fn steal_frac(ticks_before: f64, wall_s: f64) -> f64 {
    (steal_ticks() - ticks_before) / TICKS_PER_SECOND / wall_s.max(1e-9)
}

/// Peak resident set size in MiB (`VmHWM`). 0 when `/proc` is
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        // Burn a little CPU so utime is non-zero at 10 ms granularity.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
