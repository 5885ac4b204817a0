//! Clocks, timed loops, failure tallies and the end-to-end figures they
//! yield.
//!
//! The reference VM shares its host: for up to a third of a run the
//! hypervisor gives a vCPU to other guests ("steal"), in slices of a few
//! milliseconds, and no change to the program can win that time back.
//! So every benchmark process runs on one CPU ([`pin`]), op times are
//! process CPU time ([`cpu_ns`]), which excludes steal, and a loop's run
//! time is its wall time minus the steal counted on that CPU.  A timed
//! loop keeps exactly one thread runnable, so on an unshared machine
//! both equal wall time.  Timed loops also measure the host's speed
//! with the [`Yardstick`] kernel and report their times as they would
//! read at a fixed host speed (see [`run_rounds`]).

use crate::metrics::Values;
use crate::stats::{percentile, ratio};
use crate::yardstick::{Yardstick, NOMINAL_NS};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Fewest ops a timed run completes, whatever `--seconds` says: the p90
/// needs ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// The CPU every thread of this process runs on, once [`pin`] ran.
static CPU: OnceLock<usize> = OnceLock::new();

/// Pins this process (the calling thread and every thread it starts from
/// now on) to the first CPU it may run on.  Call it first in `main`.
///
/// # Errors
///
/// Failing affinity calls and a `/proc/stat` without steal figures.
pub fn pin() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = word * 64 + bit;
    read_steal_ns(cpu)?;
    CPU.set(cpu).map_err(|_| "pin() called twice".to_owned())
}

/// CPU time of this process (all threads, user and system) in ns.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Steal on `cpu` so far: the `steal` column of its `/proc/stat` line.
fn read_steal_ns(cpu: usize) -> Result<u64, String> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes and returns plain integers.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".to_owned());
    }
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks =
        steal_ticks(&stat, cpu).ok_or(format!("/proc/stat has no steal column for cpu{cpu}"))?;
    Ok(ticks * 1_000_000_000 / hz as u64)
}

/// The steal column of `cpu`'s line in `/proc/stat` text, in clock ticks.
fn steal_ticks(stat: &str, cpu: usize) -> Option<u64> {
    let name = format!("cpu{cpu}");
    // cpuN user nice system idle iowait irq softirq steal ...
    stat.lines().find_map(|l| {
        let mut fields = l.split_whitespace();
        if fields.next() != Some(name.as_str()) {
            return None;
        }
        fields.nth(7)?.parse().ok()
    })
}

/// Steal on the pinned CPU so far, in ns.
fn steal_ns() -> u64 {
    let cpu = *CPU.get().expect("pin() runs first in main");
    read_steal_ns(cpu).expect("/proc/stat gave steal figures when pin() ran")
}

/// Ops attempted and failed, with the first failure kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one op; an `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Records a failure of an op already counted (or of a check that
    /// belongs to no single op, such as determinism).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// Milliseconds of rounds between two yardstick samples, and passes per
/// sample: about 2.5 ms of every 50 ms.  Host speed phases on the
/// reference VM come and go within a few hundred milliseconds, and a
/// sample predicts the op times of the next 50 ms (correlation 0.78 for
/// retarget passes) far better than a whole process's mean speed does.
const YARDSTICK_EVERY_MS: u128 = 50;
const YARDSTICK_PASSES: u64 = 8;

thread_local! {
    static YARDSTICK: RefCell<Yardstick> = RefCell::new(Yardstick::new());
}

/// A timed loop at the nominal host speed: per-op CPU times and the run
/// time of the loop (wall time minus steal, without the yardstick's
/// samples); then, as measured, the loop's wall time without the
/// samples, and the yardstick's CPU time and passes.
#[derive(Debug, Default)]
pub struct Timed {
    pub latencies_ns: Vec<u64>,
    pub run_ns: u64,
    pub wall_ns: u64,
    pub yardstick_ns: u64,
    pub yardstick_passes: u64,
}

impl Timed {
    /// The host's mean speed during the loop relative to the nominal
    /// speed (above 1 when faster).
    pub fn speed(&self) -> f64 {
        speed(self.yardstick_ns, self.yardstick_passes)
    }

    /// Mean op CPU time in nanoseconds, at the nominal host speed.
    pub fn mean_ns(&self) -> f64 {
        ratio(
            self.latencies_ns.iter().sum::<u64>() as f64,
            self.latencies_ns.len() as f64,
        )
    }

    /// `ops_per_s`, `latency_p50_us` and `latency_p90_us`.
    pub fn report(&self, values: &mut Values) {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let ops = sorted.len() as f64;
        values.insert("ops_per_s", ratio(ops * 1e9, self.run_ns as f64));
        values.insert("latency_p50_us", percentile(&sorted, 50) as f64 / 1e3);
        values.insert("latency_p90_us", percentile(&sorted, 90) as f64 / 1e3);
    }
}

/// The host's speed, relative to the nominal speed, from `passes`
/// yardstick passes that took `ns` of CPU time.
fn speed(ns: u64, passes: u64) -> f64 {
    ratio(NOMINAL_NS * passes as f64, ns as f64)
}

/// Runs whole rounds until `seconds` of wall time have passed and at
/// least `min_ops` ops completed; `round` runs one round and pushes one
/// CPU time per op.
///
/// Between rounds, at most every [`YARDSTICK_EVERY_MS`], a yardstick
/// sample measures the host's speed.  Until the next sample, op times
/// and the loop's run time (wall time minus steal) are multiplied by that
/// speed, so they read as at the nominal speed.
pub fn run_rounds(seconds: f64, min_ops: usize, mut round: impl FnMut(&mut Vec<u64>)) -> Timed {
    let mut timed = Timed::default();
    let mut run_ns = 0.0;
    // The interval since the last sample: its start, the steal counted at
    // its start, and the host speed the sample measured.
    let mut interval: Option<(Instant, u64, f64)> = None;
    let mut close = |interval: Option<(Instant, u64, f64)>, timed: &mut Timed| {
        if let Some((since, steal_at, speed)) = interval {
            let wall_ns = since.elapsed().as_nanos() as u64;
            timed.wall_ns += wall_ns;
            run_ns += (wall_ns as f64 - (steal_ns() - steal_at) as f64) * speed;
        }
    };
    let start = Instant::now();
    loop {
        if interval.is_none_or(|(since, _, _)| since.elapsed().as_millis() >= YARDSTICK_EVERY_MS) {
            close(interval, &mut timed);
            let ns = YARDSTICK.with_borrow_mut(|y| {
                time(|| (0..YARDSTICK_PASSES).map(|_| y.pass()).sum::<u64>()).1
            });
            timed.yardstick_ns += ns;
            timed.yardstick_passes += YARDSTICK_PASSES;
            interval = Some((Instant::now(), steal_ns(), speed(ns, YARDSTICK_PASSES)));
        }
        let first = timed.latencies_ns.len();
        round(&mut timed.latencies_ns);
        let speed = interval.map_or(1.0, |(_, _, speed)| speed);
        for ns in &mut timed.latencies_ns[first..] {
            *ns = (*ns as f64 * speed).round() as u64;
        }
        if start.elapsed().as_secs_f64() >= seconds && timed.latencies_ns.len() >= min_ops {
            break;
        }
    }
    close(interval, &mut timed);
    timed.run_ns = run_ns.max(0.0).round() as u64;
    timed
}

/// Runs `f`, returning its result and the CPU time it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = cpu_ns();
    let out = f();
    (out, cpu_ns() - t0)
}

/// Mean nanoseconds per call of `f`, calling it for at least `millis`
/// milliseconds (and at least once).
pub fn mean_call_ns(millis: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed().as_millis() < u128::from(millis) {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The process's peak resident set in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_figure_of_the_cpus_own_line() {
        let stat = "cpu  10 0 5 100 1 0 2 70 0 0\n\
                    cpu0 4 0 2 50 1 0 1 30 0 0\n\
                    cpu1 6 0 3 50 0 0 1 40 0 0\n\
                    cpu10 6 0 3 50 0 0 1 99 0 0\n\
                    intr 12345\n";
        assert_eq!(steal_ticks(stat, 0), Some(30));
        assert_eq!(steal_ticks(stat, 1), Some(40));
        assert_eq!(steal_ticks(stat, 10), Some(99));
        assert_eq!(steal_ticks(stat, 2), None);
    }

    #[test]
    fn speed_is_nominal_over_measured_time_per_pass() {
        assert_eq!(speed(2 * NOMINAL_NS as u64, 1), 0.5);
        assert_eq!(speed(8 * NOMINAL_NS as u64, 16), 2.0);
        assert_eq!(speed(0, 0), 0.0);
    }
}
