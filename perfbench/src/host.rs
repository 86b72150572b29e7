//! Host and process accounting read from the kernel: CPU clocks, the
//! CPU ticks and peak RSS of a process from `/proc/<pid>`, and host
//! steal from `/proc/stat`.

use std::num::NonZeroUsize;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout, and
    // the clock ids are Linux constants; the call writes only `*tp`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of this whole process (every thread, live or exited), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn clock_ticks_per_sec() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User plus system CPU seconds of process `pid`, from `/proc/<pid>/stat`.
pub fn proc_cpu_secs(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // The command name is parenthesised and may hold spaces; fields
    // resume after the last ')' with field 3 (state). utime and stime
    // are fields 14 and 15.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| format!("{path}: no command name"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / clock_ticks_per_sec())
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Aggregate host CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn read() -> Result<HostTicks, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("reading /proc/stat: {e}"))?;
        let line = stat.lines().next().unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already inside user, so the first eight sum to
        // the total.
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        if ticks.len() < 8 {
            return Err(format!("/proc/stat: short cpu line {line:?}"));
        }
        Ok(HostTicks {
            steal: ticks[7],
            total: ticks.iter().sum(),
        })
    }

    /// Steal ticks over all ticks between `self` and a later reading.
    pub fn steal_share_until(&self, later: &HostTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_is_readable() {
        let pid = std::process::id();
        assert!(proc_cpu_secs(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        let a = HostTicks::read().unwrap();
        let b = HostTicks::read().unwrap();
        assert!((0.0..=1.0).contains(&a.steal_share_until(&b)));
        let t = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t && process_cpu_ns() >= thread_cpu_ns());
    }
}
