//! Integration coverage for the `rapids-serve` batch service: worker-count
//! invariance of the streamed JSONL (byte-identical after the canonical
//! sort), byte-identity of serve reports against direct `Pipeline` runs,
//! cache hits served without recompute (run-count probe), poisoned-job
//! isolation, and BLIF round-tripping of post-ES grown networks.

use rapids_flow::netlist::blif;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_serve::report::canonical_sort;
use rapids_serve::{BatchServer, DesignQor, Engine, Job, JobOutcome, JobReport};

fn fast_server(workers: usize) -> BatchServer {
    BatchServer::new(Engine::new(PipelineConfig::fast()), workers)
}

/// A tiny valid BLIF design submitted as inline text alongside the suite.
const INLINE_BLIF: &str = "\
.model inline_mux
.inputs s a b
.outputs f
.gate inv ns s
.gate nand ta s a
.gate nand tb ns b
.gate nand f ta tb
.end
";

fn mixed_jobs(config: &PipelineConfig) -> Vec<Job> {
    let mut jobs = vec![
        Job::suite("c432", config),
        Job::suite("alu2", config),
        Job::suite("c499", config),
        Job::blif_text("inline_mux", INLINE_BLIF, config),
    ];
    // A duplicated design exercises the in-batch cache path too.
    jobs.push(Job::suite("c432", config));
    jobs
}

fn collect_lines(server: &BatchServer, jobs: &[Job]) -> Vec<String> {
    let mut lines = Vec::new();
    server.run_streaming(jobs, |report| lines.push(report.to_jsonl()));
    lines
}

#[test]
fn jsonl_output_is_worker_count_invariant_modulo_order() {
    // Fresh servers so the two runs share nothing (no warm cache).
    let one = fast_server(1);
    let eight = fast_server(8);
    let jobs_one = mixed_jobs(one.engine().base_config());
    let jobs_eight = mixed_jobs(eight.engine().base_config());

    let sequential = collect_lines(&one, &jobs_one);
    let concurrent = collect_lines(&eight, &jobs_eight);
    assert_eq!(sequential.len(), concurrent.len());

    // Modulo line order the streams agree; after the canonical sort they
    // are byte-identical — the `--sort` contract.
    let mut sequential_sorted = sequential.clone();
    let mut concurrent_sorted = concurrent;
    canonical_sort(&mut sequential_sorted);
    canonical_sort(&mut concurrent_sorted);
    assert_eq!(sequential_sorted.join("\n"), concurrent_sorted.join("\n"));

    // With one worker the stream order is exactly submission order.
    let names: Vec<String> = jobs_one.iter().map(|j| j.name.clone()).collect();
    let streamed: Vec<String> = sequential
        .iter()
        .map(|l| l.split("\"job\":\"").nth(1).unwrap().split('"').next().unwrap().to_string())
        .collect();
    assert_eq!(streamed, names);
}

#[test]
fn serve_reports_are_byte_identical_to_direct_pipeline_runs() {
    let server = fast_server(4);
    let config = server.engine().base_config().clone();
    let jobs =
        vec![Job::suite("c432", &config), Job::blif_text("inline_mux", INLINE_BLIF, &config)];
    let mut lines = collect_lines(&server, &jobs);
    canonical_sort(&mut lines);

    // Recompute both designs directly through the Pipeline and serialize
    // with the same projection: the service must add nothing and lose
    // nothing relative to a first-party flow run.
    let pipeline = Pipeline::new(config.clone());
    let mut expected: Vec<String> = vec![
        JobReport {
            job: "c432".into(),
            outcome: JobOutcome::Done(DesignQor::from_comparison(
                &pipeline.compare_optimizers(CircuitSource::suite("c432")).unwrap(),
            )),
            cached: false,
        }
        .to_jsonl(),
        JobReport {
            job: "inline_mux".into(),
            outcome: JobOutcome::Done(DesignQor::from_comparison(
                &pipeline
                    .compare_optimizers(CircuitSource::Blif {
                        text: INLINE_BLIF.to_string(),
                        max_fanin: config.map_max_fanin,
                    })
                    .unwrap(),
            )),
            cached: false,
        }
        .to_jsonl(),
    ];
    canonical_sort(&mut expected);
    assert_eq!(lines.join("\n"), expected.join("\n"));
}

#[test]
fn cache_hit_replays_identical_reports_without_recompute() {
    let server = fast_server(2);
    let config = server.engine().base_config().clone();
    let jobs = vec![Job::suite("c432", &config), Job::suite("alu2", &config)];

    let mut first = collect_lines(&server, &jobs);
    let runs_after_first = server.engine().optimizer_runs();
    assert_eq!(runs_after_first, 2, "two distinct designs, two optimizer runs");

    let mut second = Vec::new();
    let summary = server.run_streaming(&jobs, |report| {
        assert!(report.cached, "resubmission must be served from the cache");
        second.push(report.to_jsonl());
    });
    // The probe: no further optimizer executions happened, and the replay
    // is byte-identical to the original batch.
    assert_eq!(server.engine().optimizer_runs(), runs_after_first);
    assert_eq!(summary.cached, jobs.len());
    canonical_sort(&mut first);
    canonical_sort(&mut second);
    assert_eq!(first.join("\n"), second.join("\n"));
}

#[test]
fn poisoned_jobs_fail_while_the_rest_of_the_batch_completes() {
    let server = fast_server(3);
    let config = server.engine().base_config().clone();
    let jobs = vec![
        Job::suite("c432", &config),
        Job::blif_text("poison", "this is not a netlist", &config),
        Job::blif_file("ghost", "/no/such/path.blif", &config),
        Job::suite("alu2", &config),
    ];
    let mut lines = Vec::new();
    let summary = server.run_streaming(&jobs, |report| lines.push(report.to_jsonl()));
    assert_eq!(summary.done, 2);
    assert_eq!(summary.failed, 2);

    canonical_sort(&mut lines);
    let failed: Vec<&String> =
        lines.iter().filter(|l| l.contains("\"status\":\"failed\"")).collect();
    assert_eq!(failed.len(), 2);
    assert!(failed.iter().any(|l| l.contains("\"job\":\"poison\"") && l.contains("parse error")));
    assert!(failed.iter().any(|l| l.contains("\"job\":\"ghost\"") && l.contains("path.blif")));
    assert_eq!(lines.iter().filter(|l| l.contains("\"status\":\"done\"")).count(), 2);
}

/// Satellite of the BLIF file work: a post-ES *grown* network (live
/// inverter pairs plus possibly tomb-stoned slots from rolled-back passes)
/// must survive write→parse with its structure intact.
#[test]
fn post_es_grown_network_round_trips_through_blif() {
    // x3 profits reliably from ES swaps under the fast flow configuration
    // (same choice as integration_inverting.rs).
    let mut config = PipelineConfig::fast();
    config.optimizer.include_inverting_swaps = true;
    let report = Pipeline::new(config)
        .run_kind(CircuitSource::suite("x3"), rapids_core::OptimizerKind::Rewiring)
        .unwrap();
    assert!(
        report.outcome.inverting_swaps_applied > 0,
        "x3 must apply ES swaps for this test to bite"
    );

    let text = blif::write_string(&report.network);
    let back = blif::parse_string(&text).unwrap();
    assert_eq!(back.logic_gate_count(), report.network.logic_gate_count());
    assert_eq!(back.inputs().len(), report.network.inputs().len());
    assert_eq!(back.outputs().len(), report.network.outputs().len());
    assert!(back.check_consistency().is_ok());
    // Fixpoint: serializing the parsed network reproduces the text.
    assert_eq!(text, blif::write_string(&back));
}
