//! The full evaluation flow for one benchmark and for the whole suite
//! (Table 1 of the paper), layered on the workspace-wide
//! [`rapids_flow::Pipeline`].  Each design's three-way comparison becomes
//! the two records `table1` prints: the paper-style [`BenchmarkRow`] and
//! the deterministic [`DesignQor`] behind `--qor-out` / `--check`.

use rapids_core::BenchmarkRow;
use rapids_flow::{CircuitSource, FlowComparison, Pipeline, PipelineConfig, PipelineError};
use rapids_serve::DesignQor;

/// One design's Table 1 result, built as its comparison finishes so a
/// suite run holds no networks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// The printed row: percentages, CPU seconds and supergate statistics.
    pub row: BenchmarkRow,
    /// The QoR record: absolute delays and areas, swap counts and the
    /// legalization fields — the same record serve's `done` lines carry.
    pub qor: DesignQor,
}

impl FlowResult {
    /// Collapses a pipeline three-way comparison into its two records.
    pub fn from_comparison(comparison: &FlowComparison) -> Self {
        let gsg = &comparison.rewiring.outcome;
        let gs = &comparison.sizing.outcome;
        let combined = &comparison.combined.outcome;
        let row = BenchmarkRow {
            name: comparison.name.clone(),
            gate_count: comparison.gate_count,
            initial_delay_ns: comparison.initial_delay_ns,
            gsg_improvement_percent: gsg.delay_improvement_percent(),
            gs_improvement_percent: gs.delay_improvement_percent(),
            combined_improvement_percent: combined.delay_improvement_percent(),
            gsg_cpu_s: gsg.cpu_seconds,
            gs_cpu_s: gs.cpu_seconds,
            combined_cpu_s: combined.cpu_seconds,
            gs_area_percent: gs.area_change_percent(),
            combined_area_percent: combined.area_change_percent(),
            coverage_percent: gsg.statistics.coverage_percent(),
            largest_inputs: gsg.statistics.largest_inputs,
            redundancy_count: gsg.statistics.redundancy_count,
        };
        FlowResult { row, qor: DesignQor::from_comparison(comparison) }
    }
}

/// Serializes the QoR records as a pretty-printed JSON array, one
/// [`DesignQor::to_json`] object per line: the `--qor-out` document that
/// `--check` compares byte for byte.
pub fn results_to_qor_json(results: &[FlowResult]) -> String {
    let mut out = String::from("[\n");
    for (i, result) in results.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&result.qor.to_json());
        if i + 1 != results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Runs the full flow (generate, map, place, time, optimize three ways) for
/// one named benchmark through the [`Pipeline`].
///
/// Returns `None` for an unknown benchmark name.
pub fn run_benchmark(name: &str, config: &PipelineConfig) -> Option<FlowResult> {
    let pipeline = Pipeline::new(config.clone());
    match pipeline.compare_optimizers(CircuitSource::suite(name)) {
        Ok(comparison) => Some(FlowResult::from_comparison(&comparison)),
        Err(PipelineError::UnknownBenchmark(_)) => None,
        // Any other failure (mapping error, broken equivalence) is a bug in
        // the flow itself, not a caller mistake — surface it loudly.
        Err(e) => panic!("flow failed on `{name}`: {e}"),
    }
}

/// Runs the full flow for one `.blif` file through the [`Pipeline`]
/// (parse → map → place → time → optimize three ways); the row is named
/// after the file's model.  This is the per-design engine behind
/// `table1 --blif-dir`.
///
/// # Errors
///
/// Unreadable or unparsable files surface as [`PipelineError`] instead of
/// panicking — a benchmark directory may legitimately contain bad files.
pub fn run_blif_benchmark(
    path: &std::path::Path,
    config: &PipelineConfig,
) -> Result<FlowResult, PipelineError> {
    let pipeline = Pipeline::new(config.clone());
    let source =
        CircuitSource::BlifFile { path: path.to_path_buf(), max_fanin: config.map_max_fanin };
    Ok(FlowResult::from_comparison(&pipeline.compare_optimizers(source)?))
}

/// Runs every `.blif` file discovered under `dir` (recursively, in the
/// deterministic order of [`rapids_netlist::blif::discover_files`] — the
/// same loader the serve layer ingests with) with thread-per-design
/// sharding.  Unreadable or unparsable files are skipped with a note on
/// stderr; rows come back in discovery order.
pub fn run_blif_dir(
    dir: &std::path::Path,
    config: &PipelineConfig,
    threads: usize,
) -> Vec<FlowResult> {
    let files = match rapids_netlist::blif::discover_files(dir) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("cannot scan {}: {e}", dir.display());
            return Vec::new();
        }
    };
    run_threaded(&files, threads, |path| match run_blif_benchmark(path, config) {
        Ok(result) => Some(result),
        // Only input problems are the file's fault; anything else (e.g. a
        // broken-equivalence abort) is a bug in the flow itself and stays
        // loud, matching `run_benchmark`'s contract for the suite.
        Err(e @ PipelineError::Netlist(_)) => {
            eprintln!("skipping {}: {e}", path.display());
            None
        }
        Err(e) => panic!("flow failed on `{}`: {e}", path.display()),
    })
}

/// Runs the flow over a list of benchmark names (use
/// [`rapids_circuits::suite_names`] for the full Table 1), up to `threads`
/// designs at a time.  Unknown names are dropped, and results come back in
/// input order regardless of completion order, so any thread count
/// produces an identical report.
pub fn run_suite(names: &[&str], config: &PipelineConfig, threads: usize) -> Vec<FlowResult> {
    run_threaded(names, threads, |name| run_benchmark(name, config))
}

/// Thread-per-design sharding over any item list: up to `threads` items
/// execute concurrently, items whose runner returns `None` are dropped,
/// and results come back in input order regardless of completion order —
/// so any thread count produces an identical report.
fn run_threaded<T: Sync>(
    items: &[T],
    threads: usize,
    run: impl Fn(&T) -> Option<FlowResult> + Sync,
) -> Vec<FlowResult> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().filter_map(&run).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<FlowResult>>> =
        (0..items.len()).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = run(&items[i]);
                *slots[i].lock().expect("slot lock poisoned") = result;
            });
        }
    });
    slots.into_iter().filter_map(|m| m.into_inner().expect("slot lock poisoned")).collect()
}

/// Formats a set of flow results as the paper-style table, including the
/// average row.
pub fn format_table(results: &[FlowResult]) -> String {
    let mut out = String::new();
    out.push_str(&BenchmarkRow::table_header());
    out.push('\n');
    let rows: Vec<BenchmarkRow> = results.iter().map(|result| result.row.clone()).collect();
    for row in &rows {
        out.push_str(&row.to_table_line());
        out.push('\n');
    }
    out.push_str(&BenchmarkRow::average(&rows).to_table_line());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_benchmark_flow_produces_sane_numbers() {
        let FlowResult { row, qor } = run_benchmark("c432", &PipelineConfig::fast()).unwrap();
        assert!(row.initial_delay_ns > 0.0);
        assert!(row.gsg_improvement_percent >= 0.0);
        assert!(row.gs_improvement_percent >= 0.0);
        assert!(row.combined_improvement_percent >= 0.0);
        assert!(row.coverage_percent > 0.0 && row.coverage_percent <= 100.0);
        assert!(row.largest_inputs >= 2);
        assert!(qor.gs_final_area_um2 > 0.0);
        assert!(qor.combined_final_delay_ns <= qor.initial_delay_ns + 1e-9);
        // Both records describe the same comparison.
        assert_eq!(
            (&row.name, row.gate_count, row.initial_delay_ns),
            (&qor.name, qor.gate_count, qor.initial_delay_ns)
        );
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(run_benchmark("nope", &PipelineConfig::fast()).is_none());
    }

    #[test]
    fn blif_dir_runs_good_files_and_skips_bad_ones() {
        let dir = std::env::temp_dir().join(format!("rapids_table1_blif_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = "\
.model tiny_chain
.inputs a b c d
.outputs f
.gate nand n1 a b
.gate nand n2 n1 c
.gate nand f n2 d
.end
";
        std::fs::write(dir.join("tiny_chain.blif"), text).unwrap();
        std::fs::write(dir.join("broken.blif"), ".model broken\n.gate frob f a\n.end\n").unwrap();

        let config = PipelineConfig::fast();
        let results = run_blif_dir(&dir, &config, 2);
        assert_eq!(results.len(), 1, "the broken file must be skipped, not fatal");
        assert_eq!(results[0].row.name, "tiny_chain");
        assert!(results[0].row.initial_delay_ns > 0.0);

        // The per-file entry point agrees with the directory sweep.
        let single = run_blif_benchmark(&dir.join("tiny_chain.blif"), &config).unwrap();
        assert_eq!(results_to_qor_json(&results), results_to_qor_json(&[single]));
        assert!(run_blif_benchmark(&dir.join("broken.blif"), &config).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_formatting_includes_average_row() {
        let results = run_suite(&["c432"], &PipelineConfig::fast(), 1);
        let table = format_table(&results);
        assert!(table.contains("c432"));
        assert!(table.contains("ave."));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn json_report_is_well_formed() {
        let results = run_suite(&["c432"], &PipelineConfig::fast(), 1);
        let json = results_to_qor_json(&results);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"c432\""));
        assert!(json.contains("\"gsg_final_delay_ns\":"));
        // Balanced braces: one object per result.
        assert_eq!(json.matches('{').count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Each line is the QoR record, which parses back to itself.
        let line = json.lines().nth(1).unwrap();
        assert_eq!(DesignQor::from_json(line).unwrap(), results[0].qor);
    }

    #[test]
    fn threaded_suite_reports_are_identical_to_sequential() {
        let config = PipelineConfig::fast();
        let names = ["c432", "alu2"];
        let sequential = run_suite(&names, &config, 1);
        let threaded = run_suite(&names, &config, 4);
        // Wall-clock fields differ run to run; the QoR view must not.
        assert_eq!(results_to_qor_json(&sequential), results_to_qor_json(&threaded));
    }

    #[test]
    fn qor_json_is_reproducible() {
        let config = PipelineConfig::fast();
        let a = results_to_qor_json(&run_suite(&["c432"], &config, 1));
        let b = results_to_qor_json(&run_suite(&["c432"], &config, 1));
        assert_eq!(a, b, "QoR report must be deterministic run over run");
    }
}
