//! What the benchmark needs from the host: pin the process to one CPU,
//! and read the machine state that decides whether a run is comparable.
//!
//! Pinning is the noise guard. The simulator passes a baton between 48
//! pooled OS threads; on a two-CPU host the same binary measured
//! `oc_k7_p48_1CL` at 1.1 ms or at 10–12 ms depending on whether the
//! park/unpark pairs landed on one CPU or two. Pinned to one CPU, five
//! consecutive runs agree within 5 %.

/// `cpu_set_t` of glibc and musl: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU it is allowed on (CPU 0 takes most of the
/// host's interrupts). Call before any thread is spawned. Returns the
/// CPU, or why pinning failed; a run that could not pin still runs but
/// is reported as not comparable.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 means the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..1024)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning is only implemented for Linux".to_string())
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}
