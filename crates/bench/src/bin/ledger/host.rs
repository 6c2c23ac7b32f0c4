//! What the ledger needs from the operating system: CPU affinity, process
//! CPU time, peak memory and the host facts that head every results file.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 addresses the calling process.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the whole process to the first allowed CPU. Must run before any
/// thread is spawned: affinity is inherited at `clone`, so daemon,
/// handler, worker and client threads started later all share that CPU.
/// Returns whether the kernel accepted the mask.
pub fn pin_to_one_cpu() -> bool {
    let Some(&cpu) = allowed_cpus().first() else {
        return false;
    };
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
    // addresses the calling process.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// User + system CPU time this process has consumed so far, all threads.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Facts about the machine and build that two result files must share
/// before their numbers may be compared.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HostFacts {
    pub nproc: usize,
    pub allowed_cpus: Vec<usize>,
    pub rustc: String,
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostFacts {
    pub fn collect() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            allowed_cpus: allowed_cpus(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "none".into()),
        }
    }
}

/// A per-workload scratch directory under the current directory, removed
/// on drop. Relative on purpose: Unix-socket paths are capped at 108
/// bytes, and the ledger must not write outside its checkout.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(tag: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(".ledger_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last workload's directory is gone.
        let _ = std::fs::remove_dir(".ledger_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_is_allowed_on_some_cpu_and_has_burnt_cpu_time() {
        assert!(!allowed_cpus().is_empty());
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_time() > Duration::ZERO);
        assert!(peak_rss_mib() > 0.0);
    }
}
