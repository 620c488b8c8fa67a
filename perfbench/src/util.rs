//! Statistics, process probes and output formatting shared by the workloads.

use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the Linux x86-64/aarch64 `struct rusage`
    // layout (two `timeval`s then 14 `long`s), `ru` is a valid exclusive
    // pointer for the call, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// Wall and CPU time of one pass, for `par.cpu_util`.
pub struct PassClock {
    wall: Instant,
    cpu: f64,
}

impl PassClock {
    pub fn start() -> Self {
        PassClock {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// CPU time ÷ (wall time × threads) since `start`.
    pub fn cpu_util(&self, threads: usize) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        ratio(process_cpu_s() - self.cpu, wall * threads as f64)
    }
}

extern "C" {
    fn gettid() -> i32;
    fn sched_getaffinity(tid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a Linux `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed, and tid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity of the calling thread failed");
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Let thread `tid` (0: the calling thread) run only on `cpus`.
fn set_affinity(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "cannot pin thread {tid} to CPUs {cpus:?}");
}

/// Run `f` with the calling thread pinned to `cpu`, then let it run on
/// every CPU it could before. Threads that `f` spawns inherit the pin.
pub fn pinned<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    let before = allowed_cpus();
    set_affinity(0, &[cpu]);
    let out = f();
    set_affinity(0, &before);
    out
}

/// How long one-thread work stays on one CPU (see [`rotating`]).
const ROTATION: Duration = Duration::from_millis(100);

/// Run `f` on the calling thread while a helper thread moves it to the
/// next of `cpus` every [`ROTATION`], then let it run on every CPU it
/// could before. Each CPU of a shared host speeds up and slows down on
/// its own, from one second to the next, and the scheduler keeps a lone
/// busy thread on one CPU, so one-thread work left alone reads one CPU's
/// spells; rotating it gives every CPU the same share of the time.
pub fn rotating<T>(cpus: &[usize], f: impl FnOnce() -> T) -> T {
    let before = allowed_cpus();
    // SAFETY: gettid has no preconditions.
    let tid = unsafe { gettid() };
    let (stop, stopped) = mpsc::channel::<()>();
    let out = std::thread::scope(|s| {
        s.spawn(move || {
            for &cpu in cpus.iter().cycle() {
                set_affinity(tid, &[cpu]);
                if stopped.recv_timeout(ROTATION) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
        });
        let out = f();
        drop(stop);
        out
    });
    set_affinity(0, &before);
    out
}

/// Units of work run alternately at all cores and at one thread.
pub struct Alternated<T> {
    pub all: Vec<T>,
    pub one: Vec<T>,
    /// `par.cpu_util` of each unit, at all cores and at one thread.
    pub cpu_util: Vec<f64>,
    pub cpu_util_1t: Vec<f64>,
}

/// Run `unit(all_cores)` at `threads` threads, then at one, in turn,
/// while another pair fits in `budget_s` (judged by the last pair's
/// time), and until each thread count has `min` units. Alternating lets
/// both thread counts see the same host conditions. One-thread units
/// turn over the CPUs (see [`rotating`]).
pub fn alternate<T>(
    threads: usize,
    budget_s: f64,
    min: usize,
    mut unit: impl FnMut(bool) -> T,
) -> Alternated<T> {
    let t0 = Instant::now();
    let cpus = allowed_cpus();
    let mut a = Alternated {
        all: Vec::new(),
        one: Vec::new(),
        cpu_util: Vec::new(),
        cpu_util_1t: Vec::new(),
    };
    let mut pair_s = 0.0;
    while a.one.len() < min || t0.elapsed().as_secs_f64() + pair_s <= budget_s {
        let pair = Instant::now();
        for all_cores in [true, false] {
            let n = if all_cores { threads } else { 1 };
            zenesis_par::set_threads(n);
            let clock = PassClock::start();
            let out = if all_cores {
                unit(true)
            } else {
                rotating(&cpus, || unit(false))
            };
            let util = clock.cpu_util(n);
            let (units, utils) = if all_cores {
                (&mut a.all, &mut a.cpu_util)
            } else {
                (&mut a.one, &mut a.cpu_util_1t)
            };
            units.push(out);
            utils.push(util);
        }
        pair_s = pair.elapsed().as_secs_f64();
    }
    zenesis_par::set_threads(threads);
    a
}

/// SplitMix64: the benchmark's own seed expander, so every input is a
/// pure function of `--seed`.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed ^ 0x5EED_BE7C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// A named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn pinned_restores_the_affinity() {
        let before = allowed_cpus();
        let cpu = before[before.len() - 1];
        assert_eq!(pinned(cpu, allowed_cpus), vec![cpu]);
        assert_eq!(allowed_cpus(), before);
        assert_eq!(rotating(&[cpu], || 7), 7);
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn seed_rng_is_deterministic() {
        let (mut a, mut b) = (SeedRng::new(7), SeedRng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() > 0.0 && a.unit() <= 1.0);
    }
}
