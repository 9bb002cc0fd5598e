//! Process and host facts the benchmark records.

use dasc_linalg::KernelBackend;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Thread CPU affinity (Linux `sched_getaffinity`/`sched_setaffinity`).
/// A thread spawned after a change inherits the calling thread's set.
#[cfg(target_os = "linux")]
pub mod affinity {
    use std::io;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    const MAX_CPUS: usize = 1024;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// CPUs the calling thread may run on, ascending.
    pub fn get() -> io::Result<Vec<usize>> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((0..MAX_CPUS)
            .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
            .collect())
    }

    /// Restrict the calling thread to `cpus`.
    pub fn set(cpus: &[usize]) -> io::Result<()> {
        let mut set: CpuSet = [0; 16];
        for &c in cpus {
            if c >= MAX_CPUS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "CPU index too large",
                ));
            }
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Thread CPU affinity is not available on this platform.
#[cfg(not(target_os = "linux"))]
pub mod affinity {
    use std::io;

    /// Unsupported here.
    pub fn get() -> io::Result<Vec<usize>> {
        Err(io::ErrorKind::Unsupported.into())
    }

    /// Unsupported here.
    pub fn set(_cpus: &[usize]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// The host facts a run set records next to its numbers.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("hostname", hostname),
        ("cpu", cpu),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "kernel_backend",
            KernelBackend::resolved().as_str().to_string(),
        ),
    ]
}
