//! Host-side measurement: the calibration kernel, calibrated clocks and
//! the process diagnostics read from `/proc`.
//!
//! The kernel is plain std code owned by the benchmark, so no change to
//! the repository's crates can move it: a table walk, a sort, a
//! binary-heap event loop and hash-map churn, all cache-resident. Every timed section sits between
//! two kernel runs; its host time is rescaled by the kernel's time to the
//! speed of the reference host ([`CAL_REF_MS`]). A host-wide slowdown
//! slows the kernel and the section alike and cancels out.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host (2-vCPU VM), in milliseconds. A
/// calibrated second is a second of that host.
pub const CAL_REF_MS: f64 = 6.0;

/// Kernel runs per calibration; the median counts. The median discards a
/// run hit by a preemption but, unlike the fastest run, still sees the
/// slowdown a busy host imposes on every run (the fastest of three was
/// measured to under-correct by half).
const CAL_RUNS: usize = 5;

/// Table size of the random walk: 16 KiB of `u32`. Every part of the
/// kernel keeps its data in the core's own caches, as the simulators do,
/// so a change of clock speed moves the kernel and the runs alike; a
/// kernel bound by the shared cache or memory under-corrects.
const TABLE: usize = 1 << 12;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A walk over `table` with a data-dependent branch per step: loads,
/// stores and branch prediction. The table is reset first, so every run
/// does identical work.
fn walk(table: &mut [u32]) -> u64 {
    table.fill(0);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..1 << 18 {
        let r = xorshift(&mut x);
        let i = (r as usize) & (TABLE - 1);
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add(r as u32 | 1);
        } else {
            acc = acc.wrapping_add(u64::from(v));
            table[i] = v >> 1;
        }
    }
    acc
}

/// Comparison sorting: branchy compares over a cache-resident array.
fn sort() -> u64 {
    let mut x: u64 = 99;
    let mut acc = 0;
    for _ in 0..12 {
        let mut v: Vec<u32> = (0..4_096).map(|_| xorshift(&mut x) as u32).collect();
        v.sort_unstable();
        acc ^= u64::from(v[1_000]);
    }
    acc
}

/// A discrete-event loop: a binary-heap event queue driving a small
/// per-node state machine, the shape of the simulators' own schedulers.
fn events() -> u64 {
    let mut x: u64 = 12_345;
    let mut heap = BinaryHeap::with_capacity(1_024);
    let mut state = vec![0u32; 1_024];
    for node in 0..1_024u32 {
        heap.push(Reverse((xorshift(&mut x) % 1_000, node)));
    }
    let mut acc = 0u64;
    for _ in 0..15_000 {
        let Reverse((at, node)) = heap.pop().expect("the queue never drains");
        let r = xorshift(&mut x);
        let s = &mut state[node as usize];
        match (*s + (r as u32 & 3)) % 4 {
            0 => {
                *s += 1;
                acc += at;
            }
            1 => *s ^= r as u32,
            2 => acc ^= r,
            _ => *s = s.wrapping_mul(3),
        }
        heap.push(Reverse((at + 1 + r % 64, node)));
    }
    acc
}

/// Hash-map churn with a fixed hasher: inserts, updates and removals.
fn hashing() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 11, BuildHasherDefault::default());
    let mut x: u64 = 777;
    let mut acc = 0;
    for _ in 0..40_000 {
        let r = xorshift(&mut x);
        let key = r & 0x7ff;
        if r & 0x800 != 0 {
            *map.entry(key).or_insert(0) += 1;
        } else if let Some(v) = map.remove(&key) {
            acc += v;
        }
    }
    acc
}

/// One kernel run: the four parts above, a few milliseconds in all. A
/// mix tracks the simulators' slowdowns on a shared host better than any
/// one part alone.
fn kernel(table: &mut [u32]) -> u64 {
    walk(table) ^ sort() ^ events() ^ hashing()
}

/// Times the kernel: the median of [`CAL_RUNS`] runs, in milliseconds.
/// The walk's table is allocated (and its pages faulted in) before any
/// run is timed.
pub fn calibrate() -> f64 {
    let mut table = vec![1u32; TABLE];
    let mut ms: Vec<f64> = (0..CAL_RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(&mut table)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[CAL_RUNS / 2]
}

/// One bracketed measurement: raw host time of a section and the kernel
/// time around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Raw host seconds of the section.
    pub raw_s: f64,
    /// Mean kernel time before and after the section, in milliseconds.
    pub cal_ms: f64,
}

impl Timed {
    /// A section of `raw_s` host seconds between kernel runs of
    /// `before_ms` and `after_ms`.
    pub fn new(raw_s: f64, before_ms: f64, after_ms: f64) -> Self {
        Timed {
            raw_s,
            cal_ms: (before_ms + after_ms) / 2.0,
        }
    }

    /// The section's time in reference-host seconds.
    pub fn calibrated_s(&self) -> f64 {
        self.raw_s * to_reference(self.cal_ms)
    }
}

/// Factor from host seconds to reference-host seconds, given a kernel
/// time in milliseconds.
pub fn to_reference(cal_ms: f64) -> f64 {
    CAL_REF_MS / cal_ms
}

/// Nanoseconds this thread has waited on a run queue, from
/// `/proc/thread-self/schedstat` (0 where the kernel does not expose it).
pub fn run_queue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
