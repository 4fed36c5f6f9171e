//! Regenerates Table 1 of the paper and pins its QoR.
//!
//! Usage:
//!
//! ```text
//! cargo run -p rapids-bench --release --bin table1              # full 19-benchmark suite
//! cargo run -p rapids-bench --release --bin table1 -- --fast    # reduced effort
//! cargo run -p rapids-bench --release --bin table1 -- alu2 c432 # selected benchmarks
//! cargo run -p rapids-bench --release --bin table1 -- --threads 8       # thread-per-design
//! cargo run -p rapids-bench --release --bin table1 -- --qor-out expected.json
//! cargo run -p rapids-bench --release --bin table1 -- --check expected.json  # CI regression
//! cargo run -p rapids-bench --release --bin table1 -- --es     # allow inverting (ES) swaps
//! cargo run -p rapids-bench --release --bin table1 -- --legalize # row-legal placements
//! cargo run -p rapids-bench --release --bin table1 -- --blif-dir designs/  # real netlists
//! cargo run -p rapids-bench --release --bin table1 -- --trace-out trace.json # Chrome trace
//! ```
//!
//! Exit codes: 0 on success, 1 when `--check` finds a QoR difference, 2 for
//! a bad flag or a file that cannot be read or written.

use std::io::Write as _;

use rapids_bench::table1::{format_table, results_to_qor_json, run_blif_dir, run_suite};
use rapids_circuits::suite_names;
use rapids_flow::PipelineConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = PipelineConfig::default();
    let mut qor_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut threads = 1usize;
    let mut include_inverting = false;
    let mut legalize = false;
    let mut blif_dirs: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    let path_arg = |iter: &mut std::vec::IntoIter<String>, flag: &str| -> String {
        iter.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a file path");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => config = PipelineConfig::fast(),
            "--es" => include_inverting = true,
            "--legalize" => legalize = true,
            "--qor-out" => qor_path = Some(path_arg(&mut iter, "--qor-out")),
            "--check" => check_path = Some(path_arg(&mut iter, "--check")),
            "--blif-dir" => blif_dirs.push(path_arg(&mut iter, "--blif-dir")),
            "--trace-out" => trace_path = Some(path_arg(&mut iter, "--trace-out")),
            "--threads" => {
                let value = path_arg(&mut iter, "--threads");
                threads = value.parse().unwrap_or_else(|_| {
                    eprintln!("--threads requires a positive integer, got `{value}`");
                    std::process::exit(2);
                });
                threads = threads.max(1);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
            name => names.push(name.to_string()),
        }
    }
    // Read the expectation before the run, so a missing file fails fast.
    let expected = check_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| io_failure("read expected QoR report", &path, e));
        (path, text)
    });
    // Span recording is opt-in: without the sink installed every span in
    // the flow is a no-op.
    if trace_path.is_some() {
        rapids_obs::trace::install();
    }
    // Applied after parsing so `--es --fast` and `--fast --es` agree.
    config.optimizer.include_inverting_swaps = include_inverting;
    config.legalize.enabled = legalize;
    // `--blif-dir` without names runs only the discovered netlists; the
    // full synthetic suite stays the default otherwise.
    let selected: Vec<&str> = if names.is_empty() {
        if blif_dirs.is_empty() {
            suite_names()
        } else {
            Vec::new()
        }
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };

    println!(
        "RAPIDS reproduction — Table 1 (fast={}, threads={threads}, es={include_inverting}, \
         legalize={legalize})",
        is_fast(&config)
    );
    println!(
        "columns: circuit, gates, initial delay (ns), delay improvement % of gsg / GS / gsg+GS,"
    );
    println!(
        "         CPU s of gsg / GS / gsg+GS, area % of GS / gsg+GS, coverage %, L, redundancies"
    );
    println!();

    for name in &selected {
        eprintln!("queued {name}");
    }
    let _ = std::io::stderr().flush();
    let mut results = run_suite(&selected, &config, threads);
    if results.len() != selected.len() {
        eprintln!("note: {} unknown benchmark(s) skipped", selected.len() - results.len());
    }
    // Discovered `.blif` rows ride the same table/QoR plumbing as the
    // synthetic suite, appended in discovery order.
    for dir in &blif_dirs {
        results.extend(run_blif_dir(std::path::Path::new(dir), &config, threads));
    }

    println!("{}", format_table(&results));

    let actual = results_to_qor_json(&results);
    if let Some(path) = qor_path {
        std::fs::write(&path, &actual).unwrap_or_else(|e| io_failure("write QoR report", &path, e));
        println!("QoR report written to {path}");
    }
    if let Some(path) = trace_path {
        rapids_obs::trace::write_chrome_trace(std::path::Path::new(&path))
            .unwrap_or_else(|e| io_failure("write trace", &path, e));
        println!("Chrome trace written to {path}");
    }
    if let Some((path, expected)) = expected {
        if expected.trim() == actual.trim() {
            println!("QoR check against {path}: OK");
        } else {
            eprintln!("QoR regression: report differs from {path}");
            eprintln!("--- expected ---\n{}", expected.trim());
            eprintln!("--- actual ---\n{}", actual.trim());
            std::process::exit(1);
        }
    }
}

fn is_fast(config: &PipelineConfig) -> bool {
    config.placer.moves_per_gate < 20
}

/// Reports a file that cannot be read or written on one stderr line and
/// exits 2, as for a bad flag.
fn io_failure(what: &str, path: &str, error: std::io::Error) -> ! {
    eprintln!("cannot {what} {path}: {error}");
    std::process::exit(2);
}
