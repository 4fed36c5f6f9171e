//! The full evaluation flow for one benchmark and for the whole suite
//! (Table 1 of the paper), layered on the workspace-wide
//! [`rapids_flow::Pipeline`], plus the perf-trajectory harness behind
//! `table1 --bench-out` / `--threads` / `--qor-out` / `--check`.

use rapids_circuits::suite_names;
use rapids_core::BenchmarkRow;
use rapids_flow::{CircuitSource, FlowComparison, Pipeline, PipelineError, PipelineReport};
use rapids_obs::json::{escape_string, number};

/// Effort configuration of the evaluation flow.
///
/// The harness shares the pipeline's configuration type: the `placer`,
/// `timing`, `optimizer` and `seed` fields drive the same stages here and
/// everywhere else the flow runs.
pub use rapids_flow::PipelineConfig as FlowConfig;

/// Wall-clock and QoR metrics of one optimizer on one benchmark.
#[derive(Debug, Clone)]
pub struct OptimizerMetrics {
    /// Wall-clock seconds of the optimizer run.
    pub cpu_s: f64,
    /// Critical-path delay after optimization, ns.
    pub final_delay_ns: f64,
    /// Total cell area after optimization, µm².
    pub final_area_um2: f64,
    /// Pin swaps applied.
    pub swaps: usize,
    /// Inverting (ES) swaps among `swaps`; each inserted one inverter pair.
    pub es_swaps: usize,
    /// Gates resized.
    pub resized: usize,
    /// Full STA re-analyses the run's timing engine(s) performed.
    pub sta_full_retimes: usize,
    /// Dirty-cone incremental STA updates.
    pub sta_update_retimes: usize,
    /// Total gates re-timed by those incremental updates.
    pub gates_retimed: usize,
}

impl OptimizerMetrics {
    fn from_report(report: &PipelineReport) -> Self {
        OptimizerMetrics {
            cpu_s: report.outcome.cpu_seconds,
            final_delay_ns: report.outcome.final_delay_ns,
            final_area_um2: report.outcome.final_area_um2,
            swaps: report.outcome.swaps_applied,
            es_swaps: report.outcome.inverting_swaps_applied,
            resized: report.outcome.gates_resized,
            sta_full_retimes: report.outcome.sta.full_refreshes,
            sta_update_retimes: report.outcome.sta.incremental_updates,
            gates_retimed: report.outcome.sta.gates_retimed,
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"cpu_s\":{},\"final_delay_ns\":{},\"final_area_um2\":{},",
                "\"swaps\":{},\"es_swaps\":{},\"resized\":{},",
                "\"sta_full_retimes\":{},\"sta_update_retimes\":{},",
                "\"gates_retimed\":{}}}"
            ),
            number(self.cpu_s),
            number(self.final_delay_ns),
            number(self.final_area_um2),
            self.swaps,
            self.es_swaps,
            self.resized,
            self.sta_full_retimes,
            self.sta_update_retimes,
            self.gates_retimed,
        )
    }
}

/// Result of running the three optimizers on one benchmark.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Benchmark name.
    pub name: String,
    /// Mapped gate count.
    pub gate_count: usize,
    /// Initial (post-placement) critical delay, ns.
    pub initial_delay_ns: f64,
    /// Initial cell area, µm².
    pub initial_area_um2: f64,
    /// gsg delay improvement, %.
    pub gsg_percent: f64,
    /// GS delay improvement, %.
    pub gs_percent: f64,
    /// gsg+GS delay improvement, %.
    pub combined_percent: f64,
    /// CPU seconds for each optimizer.
    pub gsg_cpu_s: f64,
    /// CPU seconds for GS.
    pub gs_cpu_s: f64,
    /// CPU seconds for gsg+GS.
    pub combined_cpu_s: f64,
    /// GS area change, %.
    pub gs_area_percent: f64,
    /// gsg+GS area change, %.
    pub combined_area_percent: f64,
    /// Supergate coverage, %.
    pub coverage_percent: f64,
    /// Largest supergate input count.
    pub largest_inputs: usize,
    /// Redundancies found during extraction.
    pub redundancy_count: usize,
    /// Number of swaps applied by gsg.
    pub gsg_swaps: usize,
    /// Wire-length change of gsg, %.
    pub gsg_hpwl_percent: f64,
    /// Whether the pipeline's legalize stage ran on this design.
    pub legalized: bool,
    /// Total HPWL of the shared pre-optimization placement, µm — after
    /// legalization + refinement when the stage ran, the raw annealed
    /// value otherwise.
    pub hpwl_um: f64,
    /// Largest single-gate displacement the full legalizer applied, µm
    /// (0 while the stage is disabled).
    pub max_displacement_um: f64,
    /// Full per-optimizer wall-clock + QoR metrics (the perf-harness view).
    pub gsg: OptimizerMetrics,
    /// GS metrics.
    pub gs: OptimizerMetrics,
    /// gsg+GS metrics.
    pub combined: OptimizerMetrics,
}

impl FlowResult {
    /// Collapses a pipeline three-way comparison into the Table 1 shape.
    pub fn from_comparison(comparison: &FlowComparison) -> Self {
        let gsg = &comparison.rewiring.outcome;
        let gs = &comparison.sizing.outcome;
        let combined = &comparison.combined.outcome;
        FlowResult {
            name: comparison.name.clone(),
            gate_count: comparison.gate_count,
            initial_delay_ns: comparison.initial_delay_ns,
            initial_area_um2: gsg.initial_area_um2,
            gsg_percent: gsg.delay_improvement_percent(),
            gs_percent: gs.delay_improvement_percent(),
            combined_percent: combined.delay_improvement_percent(),
            gsg_cpu_s: gsg.cpu_seconds,
            gs_cpu_s: gs.cpu_seconds,
            combined_cpu_s: combined.cpu_seconds,
            gs_area_percent: gs.area_change_percent(),
            combined_area_percent: combined.area_change_percent(),
            coverage_percent: gsg.statistics.coverage_percent(),
            largest_inputs: gsg.statistics.largest_inputs,
            redundancy_count: gsg.statistics.redundancy_count,
            gsg_swaps: gsg.swaps_applied,
            gsg_hpwl_percent: gsg.hpwl_change_percent(),
            legalized: comparison.legalization.is_some(),
            hpwl_um: comparison
                .legalization
                .map_or(gsg.initial_hpwl_um, |legalization| legalization.hpwl_um),
            max_displacement_um: comparison
                .legalization
                .map_or(0.0, |legalization| legalization.max_displacement_um()),
            gsg: OptimizerMetrics::from_report(&comparison.rewiring),
            gs: OptimizerMetrics::from_report(&comparison.sizing),
            combined: OptimizerMetrics::from_report(&comparison.combined),
        }
    }

    /// Converts into the Table 1 row structure.
    pub fn to_row(&self) -> BenchmarkRow {
        BenchmarkRow {
            name: self.name.clone(),
            gate_count: self.gate_count,
            initial_delay_ns: self.initial_delay_ns,
            gsg_improvement_percent: self.gsg_percent,
            gs_improvement_percent: self.gs_percent,
            combined_improvement_percent: self.combined_percent,
            gsg_cpu_s: self.gsg_cpu_s,
            gs_cpu_s: self.gs_cpu_s,
            combined_cpu_s: self.combined_cpu_s,
            gs_area_percent: self.gs_area_percent,
            combined_area_percent: self.combined_area_percent,
            coverage_percent: self.coverage_percent,
            largest_inputs: self.largest_inputs,
            redundancy_count: self.redundancy_count,
        }
    }

    /// Serializes the result as a JSON object.
    ///
    /// Hand-rolled over [`rapids_obs::json`]: the workspace is serde-free
    /// (see `vendor/README.md`), and the field set is small and flat.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"gate_count\":{},\"initial_delay_ns\":{},",
                "\"gsg_percent\":{},\"gs_percent\":{},\"combined_percent\":{},",
                "\"gsg_cpu_s\":{},\"gs_cpu_s\":{},\"combined_cpu_s\":{},",
                "\"gs_area_percent\":{},\"combined_area_percent\":{},",
                "\"coverage_percent\":{},\"largest_inputs\":{},",
                "\"redundancy_count\":{},\"gsg_swaps\":{},\"gsg_hpwl_percent\":{},",
                "\"legalized\":{},\"hpwl_um\":{},\"max_displacement_um\":{}}}"
            ),
            escape_string(&self.name),
            self.gate_count,
            number(self.initial_delay_ns),
            number(self.gsg_percent),
            number(self.gs_percent),
            number(self.combined_percent),
            number(self.gsg_cpu_s),
            number(self.gs_cpu_s),
            number(self.combined_cpu_s),
            number(self.gs_area_percent),
            number(self.combined_area_percent),
            number(self.coverage_percent),
            self.largest_inputs,
            self.redundancy_count,
            self.gsg_swaps,
            number(self.gsg_hpwl_percent),
            self.legalized,
            number(self.hpwl_um),
            number(self.max_displacement_um),
        )
    }

    /// The perf-harness JSON record: per-optimizer wall-clock plus absolute
    /// delay/area QoR, nested per optimizer.
    pub fn to_bench_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"gate_count\":{},\"initial_delay_ns\":{},",
                "\"initial_area_um2\":{},\"gsg\":{},\"gs\":{},\"combined\":{}}}"
            ),
            escape_string(&self.name),
            self.gate_count,
            number(self.initial_delay_ns),
            number(self.initial_area_um2),
            self.gsg.to_json(),
            self.gs.to_json(),
            self.combined.to_json(),
        )
    }

    /// Deterministic QoR-only record: wall-clock fields are excluded so the
    /// output is exactly reproducible run over run (the CI regression step
    /// diffs it as a string).
    pub fn to_qor_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"gate_count\":{},\"initial_delay_ns\":{},",
                "\"gsg_final_delay_ns\":{},\"gs_final_delay_ns\":{},",
                "\"combined_final_delay_ns\":{},\"gs_final_area_um2\":{},",
                "\"combined_final_area_um2\":{},\"gsg_swaps\":{},",
                "\"gsg_es_swaps\":{},\"combined_es_swaps\":{},\"gs_resized\":{},",
                "\"legalized\":{},\"hpwl_um\":{},\"max_displacement_um\":{}}}"
            ),
            escape_string(&self.name),
            self.gate_count,
            number(self.initial_delay_ns),
            number(self.gsg.final_delay_ns),
            number(self.gs.final_delay_ns),
            number(self.combined.final_delay_ns),
            number(self.gs.final_area_um2),
            number(self.combined.final_area_um2),
            self.gsg.swaps,
            self.gsg.es_swaps,
            self.combined.es_swaps,
            self.gs.resized,
            self.legalized,
            number(self.hpwl_um),
            number(self.max_displacement_um),
        )
    }
}

/// Serializes a slice of results as a pretty-printed JSON array.
pub fn results_to_json(results: &[FlowResult]) -> String {
    json_array(results, FlowResult::to_json)
}

/// Serializes the perf-harness view (see [`FlowResult::to_bench_json`]).
pub fn results_to_bench_json(results: &[FlowResult]) -> String {
    json_array(results, FlowResult::to_bench_json)
}

/// Serializes the deterministic QoR-only view
/// (see [`FlowResult::to_qor_json`]).
pub fn results_to_qor_json(results: &[FlowResult]) -> String {
    json_array(results, FlowResult::to_qor_json)
}

fn json_array(results: &[FlowResult], f: impl Fn(&FlowResult) -> String) -> String {
    let mut out = String::from("[\n");
    for (i, result) in results.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&f(result));
        if i + 1 != results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Wraps the perf-harness rows in a report envelope, optionally embedding a
/// previously captured baseline document verbatim for side-by-side speedup
/// analysis.
pub fn bench_report(results: &[FlowResult], threads: usize, baseline_json: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("\"threads\":{threads},\n"));
    if let Some(baseline) = baseline_json {
        out.push_str("\"baseline\":");
        out.push_str(baseline.trim());
        out.push_str(",\n");
    }
    out.push_str("\"rows\":");
    out.push_str(&results_to_bench_json(results));
    out.push_str("\n}");
    out
}

/// Runs the full flow (generate, map, place, time, optimize three ways) for
/// one named benchmark through the [`Pipeline`].
///
/// Returns `None` for an unknown benchmark name.
pub fn run_benchmark(name: &str, config: &FlowConfig) -> Option<FlowResult> {
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
    config: &FlowConfig,
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
pub fn run_blif_dir(dir: &std::path::Path, config: &FlowConfig, threads: usize) -> Vec<FlowResult> {
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
/// [`rapids_circuits::suite_names`] for the full Table 1).
pub fn run_suite(names: &[&str], config: &FlowConfig) -> Vec<FlowResult> {
    names.iter().filter_map(|name| run_benchmark(name, config)).collect()
}

/// Runs the flow over a list of benchmark names with thread-per-design
/// sharding: up to `threads` designs execute concurrently, and the results
/// come back in input order regardless of completion order, so any thread
/// count produces an identical report.
pub fn run_suite_threaded(names: &[&str], config: &FlowConfig, threads: usize) -> Vec<FlowResult> {
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
    let rows: Vec<BenchmarkRow> = results.iter().map(FlowResult::to_row).collect();
    for row in &rows {
        out.push_str(&row.to_table_line());
        out.push('\n');
    }
    out.push_str(&BenchmarkRow::average(&rows).to_table_line());
    out.push('\n');
    out
}

/// Convenience: every Table 1 benchmark name.
pub fn all_names() -> Vec<&'static str> {
    suite_names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_benchmark_flow_produces_sane_numbers() {
        let result = run_benchmark("c432", &FlowConfig::fast()).unwrap();
        assert!(result.initial_delay_ns > 0.0);
        assert!(result.gsg_percent >= 0.0);
        assert!(result.gs_percent >= 0.0);
        assert!(result.combined_percent >= 0.0);
        assert!(result.coverage_percent > 0.0 && result.coverage_percent <= 100.0);
        assert!(result.largest_inputs >= 2);
        // The perf-harness view agrees with the flat view.
        assert_eq!(result.gsg.cpu_s, result.gsg_cpu_s);
        assert_eq!(result.gsg.swaps, result.gsg_swaps);
        assert!(result.gs.final_area_um2 > 0.0);
        assert!(result.combined.final_delay_ns <= result.initial_delay_ns + 1e-9);
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(run_benchmark("nope", &FlowConfig::fast()).is_none());
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

        let config = FlowConfig::fast();
        let results = run_blif_dir(&dir, &config, 2);
        assert_eq!(results.len(), 1, "the broken file must be skipped, not fatal");
        assert_eq!(results[0].name, "tiny_chain");
        assert!(results[0].initial_delay_ns > 0.0);

        // The per-file entry point agrees with the directory sweep.
        let single = run_blif_benchmark(&dir.join("tiny_chain.blif"), &config).unwrap();
        assert_eq!(results_to_qor_json(&results), results_to_qor_json(&[single]));
        assert!(run_blif_benchmark(&dir.join("broken.blif"), &config).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_formatting_includes_average_row() {
        let results = run_suite(&["c432"], &FlowConfig::fast());
        let table = format_table(&results);
        assert!(table.contains("c432"));
        assert!(table.contains("ave."));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn all_names_matches_suite() {
        assert_eq!(all_names().len(), 19);
    }

    #[test]
    fn json_report_is_well_formed() {
        let results = run_suite(&["c432"], &FlowConfig::fast());
        let json = results_to_json(&results);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"c432\""));
        assert!(json.contains("\"gsg_percent\":"));
        // Balanced braces: one object per result.
        assert_eq!(json.matches('{').count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn bench_report_embeds_baseline_and_rows() {
        let results = run_suite(&["c432"], &FlowConfig::fast());
        let report = bench_report(&results, 2, Some("{\"rows\":[]}"));
        assert!(report.starts_with('{') && report.ends_with('}'));
        assert!(report.contains("\"threads\":2"));
        assert!(report.contains("\"baseline\":{\"rows\":[]}"));
        assert!(report.contains("\"final_delay_ns\""));
        assert!(report.contains("\"cpu_s\""));
        assert_eq!(report.matches('{').count(), report.matches('}').count());
    }

    #[test]
    fn threaded_suite_reports_are_identical_to_sequential() {
        let config = FlowConfig::fast();
        let names = ["c432", "alu2"];
        let sequential = run_suite(&names, &config);
        let threaded = run_suite_threaded(&names, &config, 4);
        // Wall-clock fields differ run to run; the QoR view must not.
        assert_eq!(results_to_qor_json(&sequential), results_to_qor_json(&threaded));
    }

    #[test]
    fn qor_json_is_reproducible() {
        let config = FlowConfig::fast();
        let a = results_to_qor_json(&run_suite(&["c432"], &config));
        let b = results_to_qor_json(&run_suite(&["c432"], &config));
        assert_eq!(a, b, "QoR report must be deterministic run over run");
    }
}
