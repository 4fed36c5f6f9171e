//! STA kernel micro-benchmark: times full-sweep and dirty-cone update in
//! isolation on the largest suite designs, so timing regressions are
//! visible without a whole-suite `table1` run.
//!
//! For each design the harness times:
//!
//! * `scalar` — the reference analyzer (`Sta::analyze_reference`): the
//!   shared per-gate kernels swept over a topological order, on parasitics
//!   built with two stars per net;
//! * `levelized` — the full analysis (`Sta::analyze`): the same kernels
//!   swept over the level-major schedule, on parasitics built with one star
//!   per net;
//! * `update` — dirty-cone updates of an [`IncrementalSta`] under a seeded
//!   stream of single-gate resizes.
//!
//! Every timed variant is also checked for **bit-identity** against the
//! scalar reference — the harness is a correctness gate as much as a timer.
//!
//! Usage: `sta_kernel [--smoke] [--iters N] [--designs N]`
//!
//! `--smoke` reduces iteration counts and *asserts* that the full analysis
//! is not slower than the reference on the largest design (with a generous
//! 1.5× margin to absorb machine noise); CI runs this mode.  Exit status 1
//! on assertion failure.

use std::time::Instant;

use rapids_celllib::Library;
use rapids_circuits::{benchmark, suite_names};
use rapids_netlist::{GateId, Network};
use rapids_placement::{place, Placement, PlacerConfig};
use rapids_timing::{IncrementalSta, Sta, TimingConfig, TimingReport};

struct Args {
    smoke: bool,
    iters: usize,
    designs: usize,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, iters: 15, designs: 3 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.iters = 5;
            }
            "--iters" => {
                args.iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--iters needs a number"));
            }
            "--designs" => {
                args.designs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--designs needs a number"));
            }
            "--help" | "-h" => {
                eprintln!("usage: sta_kernel [--smoke] [--iters N] [--designs N]");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("sta_kernel: {msg}");
    std::process::exit(2);
}

/// Asserts two reports are bit-identical over the live gates.
fn assert_identical(network: &Network, a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(a.critical_delay_ns(), b.critical_delay_ns(), "{what}: critical delay drifted");
    assert_eq!(a.required_time_ns(), b.required_time_ns(), "{what}: required time drifted");
    for g in network.iter_live() {
        assert_eq!(a.arrival(g), b.arrival(g), "{what}: arrival drifted at {g}");
        assert_eq!(a.required(g), b.required(g), "{what}: required drifted at {g}");
    }
}

/// Median-free simple timer: best of `iters` runs (the least-noise estimate
/// for a single-machine smoke) plus the mean.
fn time_runs<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, f64, R) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let r = f();
        let dt = start.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
        last = Some(r);
    }
    (best, total / iters as f64, last.expect("iters > 0"))
}

fn main() {
    let args = parse_args();
    let library = Library::standard_035um();
    let timing = TimingConfig::default();

    // Pick the largest suite designs by live gate count.
    let mut designs: Vec<(String, Network)> = suite_names()
        .iter()
        .map(|name| {
            let n = benchmark(name).expect("suite names are all generable");
            (name.to_string(), n)
        })
        .collect();
    designs.sort_by_key(|(_, n)| std::cmp::Reverse(n.live_gate_count()));
    designs.truncate(args.designs.max(1));

    println!(
        "sta_kernel: full-sweep + dirty-cone timings, {} iters (smoke={})",
        args.iters, args.smoke
    );
    println!(
        "{:<10} {:>7}  {:>11} {:>11}  {:>8}  {:>11}",
        "design", "gates", "scalar_ms", "lev_ms", "speedup", "update_ms",
    );

    let mut smoke_ok = true;
    for (i, (name, network)) in designs.iter().enumerate() {
        let placement: Placement = place(network, &library, &PlacerConfig::fast(), 42);

        // Full sweeps.
        let (scalar_best, _, scalar_report) = time_runs(args.iters, || {
            Sta::analyze_reference(network, &library, &placement, &timing)
        });
        let (lev_best, _, lev_report) =
            time_runs(args.iters, || Sta::analyze(network, &library, &placement, &timing));
        assert_identical(network, &scalar_report, &lev_report, "levelized");

        // Dirty-cone updates under a seeded resize stream (the sizing
        // workload shape): each step resizes one logic gate and re-times.
        let gates: Vec<GateId> = network.iter_logic().collect();
        let steps = if args.smoke { 40 } else { 200 };
        let mut n = network.clone();
        let mut inc = IncrementalSta::new(&n, &library, &placement, &timing);
        let mut rng: u64 = 0x5eed;
        let start = Instant::now();
        for step in 0..steps {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let g = gates[(rng >> 33) as usize % gates.len()];
            n.gate_mut(g).size_class = (step % 4) as u8;
            inc.update(&n, &library, &placement, &[g]);
        }
        let update_s = start.elapsed().as_secs_f64();
        inc.verify_matches_full(&n, &library, &placement)
            .expect("incremental state must match the reference analysis");

        println!(
            "{:<10} {:>7}  {:>11.3} {:>11.3}  {:>7.2}x  {:>11.3}",
            name,
            network.live_gate_count(),
            scalar_best * 1e3,
            lev_best * 1e3,
            scalar_best / lev_best,
            update_s * 1e3,
        );

        // Smoke gate: on the largest design the levelized sweep must not be
        // slower than the scalar reference (1.5x margin for machine noise).
        if args.smoke && i == 0 && lev_best > scalar_best * 1.5 {
            eprintln!(
                "SMOKE FAIL: levelized full sweep ({:.3} ms) slower than 1.5x scalar ({:.3} ms) on {name}",
                lev_best * 1e3,
                scalar_best * 1e3
            );
            smoke_ok = false;
        }
    }

    if args.smoke {
        if smoke_ok {
            println!(
                "smoke: OK (levelized <= 1.5x scalar on the largest design, all bit-identical)"
            );
        } else {
            std::process::exit(1);
        }
    }
}
