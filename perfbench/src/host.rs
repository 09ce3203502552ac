//! Host-clock probes read from `/proc`: process CPU time, peak RSS,
//! per-thread scheduler statistics, machine load, and a fixed reference
//! kernel that lets host numbers from different machines be compared.

use std::fs;
use std::path::Path;
use std::time::Instant;

/// `AT_CLKTCK` in the ELF auxiliary vector: the unit of `/proc/*/stat`
/// CPU times.
const AT_CLKTCK: u64 = 17;

fn clock_ticks_per_s() -> f64 {
    let Ok(raw) = fs::read("/proc/self/auxv") else { return 100.0 };
    for pair in raw.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
        let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
        if key == AT_CLKTCK && val > 0 {
            return val as f64;
        }
    }
    100.0
}

/// User + system CPU seconds this process has used (all threads, live
/// and exited), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / clock_ticks_per_s()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of the calling thread's scheduler statistics:
/// nanoseconds on a CPU and nanoseconds runnable but waiting for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub cpu_ns: u64,
    /// Time spent on a run queue waiting for a CPU.
    pub runq_ns: u64,
}

impl SchedStat {
    /// Parses the `/proc/<...>/schedstat` format (`cpu runq slices`).
    pub fn parse(text: &str) -> Option<SchedStat> {
        let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        Some(SchedStat { cpu_ns: it.next()??, runq_ns: it.next()?? })
    }

    /// Reads the calling thread's statistics with run-queue time from
    /// the schedstat file at `path` (normally
    /// `/proc/thread-self/schedstat`); `None` when the kernel does not
    /// provide it. The file's CPU field is brought up to date only at
    /// scheduler ticks and switches, so CPU time comes from the thread
    /// CPU clock instead, which is exact at every read. Run-queue time
    /// is charged when the thread gets a CPU, so it is exact while the
    /// thread runs.
    pub fn read_from(path: &Path) -> Option<SchedStat> {
        let file = Self::parse(&fs::read_to_string(path).ok()?)?;
        Some(SchedStat { cpu_ns: thread_cpu_ns()?, runq_ns: file.runq_ns })
    }

    /// The calling thread's statistics, if the kernel exposes them.
    pub fn current() -> Option<SchedStat> {
        Self::read_from(Path::new("/proc/thread-self/schedstat"))
    }
}

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

extern "C" {
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// CPU nanoseconds the calling thread has used.
fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then_some(secs * 1_000_000_000 + nanos)
}

/// `nproc`, `/proc/loadavg` and the reference-kernel time, recorded at
/// the start of every run.
#[derive(Debug, Clone)]
pub struct HostEnv {
    /// Cores available to this process.
    pub nproc: usize,
    /// The first three fields of `/proc/loadavg`.
    pub loadavg: String,
    /// Median milliseconds of [`reference_kernel`] over five runs.
    pub reference_kernel_ms: f64,
    /// Commit the benchmark was built from, when the checkout is a git
    /// repository (`unknown` otherwise).
    pub commit: String,
}

impl HostEnv {
    /// Reads the environment and times the reference kernel.
    pub fn capture() -> HostEnv {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let loadavg = fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".into());
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(reference_kernel(std::hint::black_box(96)));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        HostEnv { nproc, loadavg, reference_kernel_ms: times[2], commit: git_commit() }
    }
}

/// A fixed single-threaded kernel independent of the code under test:
/// `reps` products of two 64×64 f64 matrices. Host metrics divided by
/// its time compare across machines and loads.
pub fn reference_kernel(reps: usize) -> f64 {
    const N: usize = 64;
    let a: Vec<f64> = (0..N * N).map(|i| ((i * 7919) % 1009) as f64 / 1009.0).collect();
    let mut b: Vec<f64> = (0..N * N).map(|i| ((i * 104_729) % 2003) as f64 / 2003.0).collect();
    let mut c = vec![0.0f64; N * N];
    for _ in 0..reps {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        let norm = c.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0);
        for (bj, cj) in b.iter_mut().zip(&mut c) {
            *bj = *cj / norm;
            *cj = 0.0;
        }
    }
    b.iter().sum()
}

/// Resolves `.git/HEAD` in the working directory without running git.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| {
                // A packed ref: look it up in .git/packed-refs.
                fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_and_missing_file_is_absent_not_zero() {
        assert_eq!(SchedStat::parse("123 45 6\n"), Some(SchedStat { cpu_ns: 123, runq_ns: 45 }));
        assert_eq!(SchedStat::parse("garbage"), None);
        assert_eq!(SchedStat::read_from(Path::new("/nonexistent/thread-self/schedstat")), None);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let a = thread_cpu_ns().expect("thread CPU clock");
        std::hint::black_box(reference_kernel(50));
        assert!(thread_cpu_ns().expect("thread CPU clock") > a);
    }

    #[test]
    fn process_cpu_and_rss_are_positive() {
        std::hint::black_box(reference_kernel(20));
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
