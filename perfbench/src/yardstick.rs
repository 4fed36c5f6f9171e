//! A fixed CPU kernel owned by the benchmark.  The reference host shares
//! its cores with other tenants, and the same table1 pass took from
//! 2.2 s to 3.5 s over six runs a few minutes apart.  Timing the kernel
//! right before each timed run lets that run be read at a nominal host
//! speed.
//!
//! The kernel allocates: without its allocations it tracked the host
//! worse (see README.md).  It shares no code with the program, and its
//! allocations go through the same global allocator, so the first of its
//! runs may meet heap state the program left; the median of
//! [`KERNEL_RUNS`] runs mostly meets the kernel's own.

use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the nominal host, seconds: the median, over six
/// runs of the table1 workload on the reference host, of each run's
/// kernel medians (those ranged from 1.7 to 3.0 ms).  A normalized time
/// is what the run would have taken on a host that runs the kernel in
/// this long.
const NOMINAL_S: f64 = 0.0022;

/// Kernel runs before each timed run; their median scales it.
const KERNEL_RUNS: usize = 3;

/// Times one kernel run: build a seeded random DAG in adjacency lists and
/// sweep its longest path, the allocation and pointer-chasing pattern of
/// the netlist and timing code.
fn kernel_s() -> f64 {
    const NODES: usize = 6_000;
    const FANIN: usize = 3;
    const SWEEPS: usize = 30;
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    for node in 1..NODES {
        for _ in 0..FANIN {
            let from = (next() % node as u64) as usize;
            fanout[from].push(node as u32);
        }
    }
    let mut arrival = vec![0.0f64; NODES];
    for sweep in 0..SWEEPS {
        arrival.iter_mut().for_each(|a| *a = 0.0);
        for (node, outs) in fanout.iter().enumerate() {
            let here = arrival[node] + 1.0 + (node % (sweep + 3)) as f64 * 0.01;
            for &to in outs {
                let slot = &mut arrival[to as usize];
                *slot = slot.max(here);
            }
        }
    }
    std::hint::black_box((&arrival, &fanout));
    start.elapsed().as_secs_f64()
}

/// The median of [`KERNEL_RUNS`] kernel runs, seconds.
pub fn measure_s() -> f64 {
    median(&(0..KERNEL_RUNS).map(|_| kernel_s()).collect::<Vec<_>>())
}

/// Times runs, each right after [`measure_s`].
#[derive(Debug, Default)]
pub struct RunTimer {
    raw: Vec<f64>,
    normalized: Vec<f64>,
    kernel: Vec<f64>,
}

impl RunTimer {
    /// Runs and times `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let kernel_s = measure_s();
        let start = Instant::now();
        let out = f();
        let s = start.elapsed().as_secs_f64();
        self.raw.push(s);
        self.normalized.push(s * NOMINAL_S / kernel_s);
        self.kernel.push(kernel_s);
        out
    }

    /// Wall time of each run, seconds.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// Each run's time at the nominal host speed, seconds.
    pub fn normalized(&self) -> &[f64] {
        &self.normalized
    }

    /// The kernel time before each run, seconds.
    pub fn kernel(&self) -> &[f64] {
        &self.kernel
    }
}
