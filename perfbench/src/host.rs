//! Host-side readings: process CPU time, peak resident set, and the
//! fingerprint every result carries.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user+sys CPU time of every thread of
/// the process, at nanosecond resolution (`/proc/self/stat` counts only
/// whole 10 ms ticks, too coarse for sub-second passes).
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User+sys CPU nanoseconds consumed by this process so far.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a constant Linux
    // always supports, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The value of a `key:` line of a `/proc` file, trimmed.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM readable from /proc/self/status");
    kb / 1024.0
}

/// The 1, 5 and 15 minute load averages.
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut it = text.split_whitespace().map(|v| v.parse().unwrap_or(0.0));
    [(); 3].map(|_| it.next().unwrap_or(0.0))
}

/// The CPU model name, or "unknown".
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ns() > before, "{x}");
    }

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        assert!(loadavg().iter().all(|l| *l >= 0.0));
    }
}
