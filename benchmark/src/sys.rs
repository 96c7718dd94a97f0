//! The few things the benchmark needs from the OS: CPU placement, CPU
//! time, peak memory and context-switch counts. Linux only.

use std::time::Duration;

/// `cpu_set_t` is 1024 bits.
const CPU_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is CPU_WORDS * 8 writable bytes, the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, CPU_WORDS * 8, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..CPU_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the lowest allowed CPU. Returns that CPU.
pub fn pin_to_lowest_cpu() -> usize {
    let cpu = *allowed_cpus().first().expect("no allowed CPU");
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is CPU_WORDS * 8 readable bytes, the size passed.
    let rc = unsafe { sched_setaffinity(0, CPU_WORDS * 8, mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    cpu
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches of every live thread.
/// Threads that already exited are not counted, so read this while the
/// threads of interest are still running.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}
