//! Host metadata recorded with every run, and the process's peak memory.

use std::path::Path;
use std::process::Command;

/// Cumulative steal ticks of all CPUs, from the first line of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// CPU time this process has used, in seconds, across all its threads,
/// living and ended (`CLOCK_PROCESS_CPUTIME_ID`). The kernel charges a
/// thread only while it runs, so time the host gives to other guests
/// (steal) or to other processes is not counted.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time the calling thread has used, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

fn cpu_clock_s(clock: i32) -> f64 {
    // `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One `host ...` line: core count, pool threads, rustc version, source
/// revision, load average and the steal-time delta since `steal_start`.
pub fn describe(pool_threads: usize, steal_start: Option<u64>, wall_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout, so a parent repository is never
    // reported by mistake.
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none".into()
    };
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let steal = match (steal_start, steal_ticks()) {
        (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
        _ => "unknown".into(),
    };
    format!(
        "host nproc={nproc} pool_threads={pool_threads} rustc=\"{rustc}\" git={git} \
         loadavg=\"{loadavg}\" steal_ticks={steal} wall_s={wall_s:.3}"
    )
}

/// Reference probe time per thread: about what one probe pass takes on a
/// 2-vCPU Xeon VM. It only scales the probe-corrected metrics so they read
/// near the raw CPU-time ones; any fixed value would do.
pub const PROBE_REF_S: f64 = 0.05;

/// A fixed amount of CPU work whose CPU time gauges how fast the host runs
/// right now. On a shared host the speed of a vCPU moves by tens of
/// percent within minutes (other guests on the sibling hyperthread, in the
/// shared cache, or changing the clock) without any steal showing; CPU
/// time alone cannot see that. Dividing a CPU time by the probe's, taken
/// beside it, cancels the common factor.
///
/// One pass runs on `threads` threads at once, as the pool does, and mixes
/// the kinds of work the workloads do: a dependent integer and float
/// chain, random read-modify-writes in 256 KiB (core-private cache) and in
/// 4 MiB (shared cache) per thread. The tables stay allocated for the
/// whole run, so they add a fixed 4 MiB per pool thread to `peak_rss_mb`.
pub struct Probe {
    tables: Vec<Vec<u64>>,
}

impl Probe {
    pub fn new(threads: usize) -> Self {
        Probe {
            tables: (0..threads.max(1)).map(|_| vec![1; 1 << 19]).collect(),
        }
    }

    /// CPU seconds of one pass, averaged over the threads. Each thread
    /// first reads its whole table untimed, so what the program left in
    /// the caches does not change the probe's time.
    pub fn seconds(&mut self) -> f64 {
        let total: f64 = std::thread::scope(|s| {
            let passes: Vec<_> = self
                .tables
                .iter_mut()
                .map(|table| {
                    s.spawn(move || {
                        std::hint::black_box(table.iter().fold(0, |a: u64, &v| a ^ v));
                        let start = thread_cpu_s();
                        std::hint::black_box(probe_pass(table));
                        thread_cpu_s() - start
                    })
                })
                .collect();
            passes
                .into_iter()
                .map(|p| p.join().expect("probe thread"))
                .sum()
        });
        total / self.tables.len() as f64
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn probe_pass(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mut f = 1.0f64;
    for i in 0..8_000_000u32 {
        let r = xorshift(&mut x);
        acc = acc.wrapping_add(r.rotate_left(i & 31));
        f = f * 0.999_999_9 + (r & 0xff) as f64 * 1e-9;
    }
    for mask in [(32 << 10) - 1, table.len() - 1] {
        for _ in 0..3_000_000u32 {
            let i = (xorshift(&mut x) >> 20) as usize & mask;
            table[i] = table[i].wrapping_add(x);
            acc ^= table[(i * 7) & mask];
        }
    }
    acc ^ f.to_bits()
}
