//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|signoff|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, measures for `S`
//! seconds, checks every output, and prints one JSON line last on stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones of a traced, decomposed run.  Diagnostics go to
//! stderr.  See README.md in this directory.

mod flows;
mod inputs;
mod serve_mix;
mod stats;
mod yardstick;

use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics and their units, in the order `BENCHMARK.json`
/// lists them.  Every workload reports every one.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("combined_delay_pct", "%"),
    ("combined_area_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.  A layer
/// that does no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("placement.place_s", "s"),
    ("placement.hpwl_um", "um"),
    ("timing.sta_full_s", "s"),
    ("timing.full_retimes", "count"),
    ("timing.update_retimes", "count"),
    ("timing.gates_retimed", "count"),
    ("timing.span.sta.full_s", "s"),
    ("timing.span.sta.parasitics_s", "s"),
    ("core.gsg_s", "s"),
    ("core.combined_s", "s"),
    ("core.swaps", "count"),
    ("core.es_swaps", "count"),
    ("core.passes", "count"),
    ("core.rollbacks", "count"),
    ("core.swap_keep_ratio", "ratio"),
    ("core.gsg_gain_pct", "%"),
    ("core.combined_gain_pct", "%"),
    ("sizing.gs_s", "s"),
    ("sizing.gates_resized", "count"),
    ("sizing.passes", "count"),
    ("legalize.abacus_s", "s"),
    ("legalize.refine_s", "s"),
    ("legalize.max_displacement_um", "um"),
    ("legalize.nudges", "count"),
    ("legalize.nudge_fallbacks", "count"),
    ("legalize.legal_frac", "ratio"),
    ("cec.check_s", "s"),
    ("cec.conflicts", "count"),
    ("cec.decisions", "count"),
    ("cec.propagations", "count"),
    ("cec.solved_pairs", "count"),
    ("cec.dag_nodes", "count"),
    ("cec.sweep_proven_ratio", "ratio"),
    ("cec.span.encode_s", "s"),
    ("cec.span.sweep_s", "s"),
    ("cec.span.solve_s", "s"),
    ("cec.proved_frac", "ratio"),
    ("netlist.blif_parse_s", "s"),
    ("circuits.map_s", "s"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.optimizer_runs", "count"),
    ("serve.server_job_p50_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.job_tail_ms", "ms"),
    ("host.raw_flow_s", "s"),
    ("host.normalized_flow_s", "s"),
    ("host.kernel_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("FAILED: {}", why.as_ref());
    }

    /// Compares a pass's records against the reference pass, one failure
    /// per differing record.  A pass with missing records already counted
    /// each missing one as a failure, so only complete passes compare.
    pub fn compare_pass(&mut self, label: &str, reference: &[String], got: &[String]) {
        if got.len() != reference.len() {
            return;
        }
        for (want, got) in reference.iter().zip(got) {
            if want != got {
                self.fail(format!("{label} pass differs:\n  want {want}\n  got  {got}"));
            }
        }
    }
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;

/// Runs `make` [`SETUP_REPEATS`] times and returns the last result with
/// the median of its wall times at the nominal host speed.  The inputs, as `fingerprint` renders them, must
/// come out identical every time.
pub fn setup_repeated<T, I: IntoIterator<Item = String>>(
    make: impl Fn() -> T,
    fingerprint: impl Fn(&T) -> I,
) -> (T, f64) {
    let mut timer = yardstick::RunTimer::default();
    let mut previous: Option<u64> = None;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let made = timer.time(&make);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for item in fingerprint(&made) {
            std::hash::Hash::hash(&item, &mut hasher);
        }
        let hash = std::hash::Hasher::finish(&hasher);
        assert!(previous.is_none_or(|p| p == hash), "the same seed generated different inputs");
        previous = Some(hash);
        last = Some(made);
    }
    (last.expect("at least one set-up"), stats::median(timer.normalized()))
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload table1|signoff|serve_mix --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let mut outcome = match args.workload.as_str() {
        "table1" => flows::table1(args.seed, args.seconds, args.trace),
        "signoff" => flows::signoff(args.seed, args.seconds, args.trace),
        "serve_mix" => serve_mix::serve_mix(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.remove(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.fail(format!("metric {name} is {v}"));
                0.0
            }
            // Layers off this workload's path do no work.
            None if args.trace => 0.0,
            None => {
                outcome.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    for name in outcome.metrics.keys() {
        eprintln!("perfbench: internal metric {name} is not reported");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must list the same metrics, in
    /// the same order, with the same units.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = rapids_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn pass_comparison_counts_each_differing_record() {
        let mut outcome = Outcome::default();
        let reference = vec!["a".to_string(), "b".to_string()];
        outcome.compare_pass("t", &reference, &reference);
        assert_eq!(outcome.failed, 0);
        outcome.compare_pass("t", &reference, &["a".to_string(), "x".to_string()]);
        assert_eq!(outcome.failed, 1);
        // A short pass already counted its missing records.
        outcome.compare_pass("t", &reference, &["a".to_string()]);
        assert_eq!(outcome.failed, 1);
    }
}
