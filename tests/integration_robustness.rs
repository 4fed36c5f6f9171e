//! Integration coverage for the fault-tolerant serving tier: the on-disk
//! result store (cache-warm restarts, byte-identity, torn-tail recovery),
//! per-job deadlines under injected hangs, deterministic fault injection
//! (panics and transient I/O faults), the interplay of all three with the
//! batch server, and a seeded fuzz loop over the JSON-fed input surfaces.

use std::panic::AssertUnwindSafe;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rapids_flow::PipelineConfig;
use rapids_obs::json::{escape_string, number, parse, parse_flat_object, Value};
use rapids_obs::trace::{chrome_trace_json, TraceEvent};
use rapids_obs::{CusumConfig, Registry, SloConfig};
use rapids_serve::report::canonical_sort;
use rapids_serve::telemetry::{TelemetryConfig, TelemetryPlane};
use rapids_serve::{BatchServer, DesignQor, Engine, FaultPlan, Job, JobOutcome, ResultStore};

fn batch(config: &PipelineConfig) -> Vec<Job> {
    vec![Job::suite("c432", config), Job::suite("alu2", config), Job::suite("c499", config)]
}

fn sorted_lines(server: &BatchServer, jobs: &[Job]) -> Vec<String> {
    let mut lines = Vec::new();
    server.run_streaming(jobs, |report| lines.push(report.to_jsonl()));
    canonical_sort(&mut lines);
    lines
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rapids_robustness_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store acceptance scenario: run a batch with `--store`, "restart"
/// (a fresh engine warm only from disk), run the identical batch again —
/// zero optimizer runs, every job a disk hit, and the sorted JSONL output
/// byte-identical to the first run's.
#[test]
fn store_restart_replays_the_batch_without_recompute() {
    let dir = temp_dir("restart");
    let config = PipelineConfig::fast();

    let first = {
        let engine = Engine::new(config.clone()).with_store(ResultStore::open(&dir).unwrap());
        let server = BatchServer::new(engine, 2);
        let jobs = batch(server.engine().base_config());
        let lines = sorted_lines(&server, &jobs);
        assert_eq!(server.engine().optimizer_runs(), 3);
        assert_eq!(server.engine().store().unwrap().len(), 3);
        lines
    };

    let engine = Engine::new(config).with_store(ResultStore::open(&dir).unwrap());
    let server = BatchServer::new(engine, 2);
    assert_eq!(server.engine().recovered_records(), 3);
    let jobs = batch(server.engine().base_config());
    let second = sorted_lines(&server, &jobs);

    assert_eq!(server.engine().optimizer_runs(), 0, "restart must be fully cache-warm");
    assert_eq!(server.engine().disk_hits(), 3);
    assert_eq!(second, first, "disk-served replies must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail recovery end to end: chop the store log mid-way through its
/// final record (a simulated crash during an append), reopen — the prior
/// records survive, the torn one is dropped — and re-running the batch
/// recomputes exactly the dropped design, converging on byte-identical
/// output.
#[test]
fn torn_store_tail_recovers_and_reconverges() {
    let dir = temp_dir("torn");
    let config = PipelineConfig::fast();

    let (first, store_path, full_len, last_record_start) = {
        let engine = Engine::new(config.clone()).with_store(ResultStore::open(&dir).unwrap());
        let server = BatchServer::new(engine, 1);
        let jobs = batch(server.engine().base_config());
        let lines = sorted_lines(&server, &jobs);
        let store = server.engine().store().unwrap();
        let path = store.path().to_path_buf();
        let full = std::fs::metadata(&path).unwrap().len();
        // Locate the last record's start by replaying lengths: each record
        // is 20 header bytes + payload + 8 checksum bytes.
        let bytes = std::fs::read(&path).unwrap();
        let mut pos = 0usize;
        let mut last_start = 0usize;
        while pos < bytes.len() {
            last_start = pos;
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 20 + len + 8;
        }
        (lines, path, full, last_start)
    };

    // Crash simulation: the final append only half-landed.
    let cut = last_record_start as u64 + (full_len - last_record_start as u64) / 2;
    let file = std::fs::OpenOptions::new().write(true).open(&store_path).unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let engine = Engine::new(config).with_store(ResultStore::open(&dir).unwrap());
    let server = BatchServer::new(engine, 1);
    assert_eq!(server.engine().recovered_records(), 2, "the two whole records survive");
    assert_eq!(server.engine().dropped_corrupt_records(), 1);
    let jobs = batch(server.engine().base_config());
    let second = sorted_lines(&server, &jobs);
    assert_eq!(server.engine().optimizer_runs(), 1, "only the torn design recomputes");
    assert_eq!(server.engine().disk_hits(), 2);
    assert_eq!(second, first, "recovery must reconverge on byte-identical output");
    // The store is whole again for the next restart.
    assert_eq!(ResultStore::open(&dir).unwrap().recovered_records(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deadline acceptance scenario: one job in the batch is hung by an
/// injected 60 s delay but carries a 1 s deadline — it is cut at the
/// deadline and reported `failed` with a timeout message, while every
/// *other* job's report line is byte-identical to a fault-free run.
#[test]
fn deadline_cuts_hung_job_and_leaves_the_rest_byte_identical() {
    let config = PipelineConfig::fast();

    let clean = {
        let server = BatchServer::new(Engine::new(config.clone()), 2);
        let jobs = batch(server.engine().base_config());
        sorted_lines(&server, &jobs)
    };

    let engine =
        Engine::new(config).with_fault_plan(FaultPlan::parse("job-run@alu2=delay:60000").unwrap());
    let server = BatchServer::new(engine, 2);
    let mut jobs = batch(server.engine().base_config());
    jobs[1].timeout_s = Some(1.0);
    let start = std::time::Instant::now();
    let faulted = sorted_lines(&server, &jobs);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "the watchdog must cut the 60 s hang"
    );

    let hung: Vec<&String> = faulted.iter().filter(|l| l.contains("\"job\":\"alu2\"")).collect();
    assert_eq!(hung.len(), 1);
    assert!(
        hung[0].contains("\"status\":\"failed\"") && hung[0].contains("timeout after 1s"),
        "{}",
        hung[0]
    );
    let rest = |lines: &[String]| -> Vec<String> {
        lines.iter().filter(|l| !l.contains("\"job\":\"alu2\"")).cloned().collect()
    };
    assert_eq!(rest(&faulted), rest(&clean), "unfaulted jobs are unperturbed");
}

/// Deterministic chaos in one batch: a panic on one job and a transient
/// read fault on another — the panic is contained to its job, the
/// transient fault is absorbed by the retry, and the whole batch still
/// answers every job.
#[test]
fn injected_panic_and_transient_fault_are_contained_to_their_jobs() {
    let blif = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fixtures/tiny_mux.blif");
    let plan = FaultPlan::parse("job-run@c432=panic,blif-read@tiny_mux#0=io").unwrap();
    let engine = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
    let server = BatchServer::new(engine, 2);
    let config = server.engine().base_config().clone();
    let jobs = vec![
        Job::suite("c432", &config),
        Job::blif_file("tiny_mux", blif, &config),
        Job::suite("c499", &config),
    ];
    let mut outcomes = std::collections::HashMap::new();
    server.run_streaming(&jobs, |report| {
        outcomes.insert(report.job.clone(), report.outcome.clone());
    });
    assert!(matches!(&outcomes["c432"],
        JobOutcome::Failed(msg) if msg.contains("optimizer panicked")
            && msg.contains("injected panic at job-run for `c432`")));
    assert!(
        matches!(&outcomes["tiny_mux"], JobOutcome::Done(_)),
        "the retry absorbs the transient read fault: {:?}",
        outcomes["tiny_mux"]
    );
    assert!(matches!(&outcomes["c499"], JobOutcome::Done(_)));
}

/// Mutants per fuzz seed.
const FUZZ_CASES: usize = 1000;

/// One of every JSON shape the serve tier reads or writes, rendered by the
/// code that produces it where that code is public.
fn fuzz_seeds() -> Vec<String> {
    let blif = include_str!("../ci/fixtures/tiny_mux.blif");
    let job = format!(
        "{{\"name\":\"tiny\",\"blif_text\":{},\"fast\":true,\"seed\":7,\"timeout_s\":2.5}}",
        escape_string(blif)
    );
    let verify = include_str!("../ci/verify_smoke.jobs.jsonl").lines().next().unwrap().to_string();
    let qor = DesignQor {
        name: "c432".into(),
        gate_count: 321,
        initial_delay_ns: 12.5,
        gsg_final_delay_ns: 11.0,
        gs_final_delay_ns: 10.75,
        combined_final_delay_ns: 10.5,
        gs_final_area_um2: 4000.0,
        combined_final_area_um2: 4100.25,
        gsg_swaps: 17,
        gsg_es_swaps: 2,
        combined_es_swaps: 3,
        gs_resized: 40,
        legalized: true,
        hpwl_um: 123456.75,
        max_displacement_um: 42.5,
    }
    .to_json();
    // The `stats` reply is rendered inside the listener; this is its shape.
    let stats = concat!(
        "{\"ok\":\"stats\",\"optimizer_runs\":3,\"cache_hits\":1,",
        "\"cached_results\":3,\"evictions\":0,\"disk_hits\":0,",
        "\"recovered_records\":0,\"dropped_corrupt_records\":0,",
        "\"verify_runs\":0,\"cached_verifications\":0,",
        "\"jobs_timed\":4,\"job_p50_us\":1023,\"job_p99_us\":2047}"
    )
    .to_string();
    let registry = Registry::new();
    let plane = TelemetryPlane::new(
        registry.clone(),
        TelemetryConfig {
            cusum: vec![CusumConfig::fixed("serve.jobs", 0.0, 0.5, 2.0)],
            slos: vec![SloConfig {
                name: "timeouts".into(),
                bad_series: "serve.bad".into(),
                total_series: "serve.jobs".into(),
                target: 0.5,
            }],
            manual: true,
            ..TelemetryConfig::default()
        },
    );
    plane.tick_now();
    registry.counter("serve.jobs").add(4);
    registry.counter("serve.bad").add(3);
    assert_eq!(plane.tick_now().len(), 2, "both detectors fire");
    let series = plane.series_json("serve.jobs", 0).unwrap();
    let trace = chrome_trace_json(&[
        TraceEvent { name: "serve.job".into(), tid: 1, ts_ns: 0, dur_ns: 9_000 },
        TraceEvent { name: "stage.sta".into(), tid: 1, ts_ns: 1_500, dur_ns: 2_250 },
    ]);
    vec![job, verify, qor, stats, series, plane.alerts_json(), trace]
}

/// One random edit: a byte flip, an inserted `[`, `{`, `"`, `\` or `\u`,
/// a deletion, a duplicated span, or a truncation.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        bytes.push(b'{');
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u32) {
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => {
            let tokens: [&[u8]; 5] = [b"[", b"{", b"\"", b"\\", b"\\u"];
            bytes.splice(at..at, tokens[rng.gen_range(0..5usize)].iter().copied());
        }
        2 => {
            bytes.remove(at);
        }
        3 => {
            let end = rng.gen_range(at..bytes.len()).min(at + 16) + 1;
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        _ => bytes.truncate(at),
    }
}

/// Every string and number in `value` re-parses to itself through the
/// writers.
fn assert_scalars_round_trip(value: &Value) {
    let string_round_trips =
        |s: &str| assert_eq!(parse(&escape_string(s)), Ok(Value::Str(s.into())));
    match value {
        Value::Str(s) => string_round_trips(s),
        Value::Num(x) => {
            let back = parse(&number(*x)).ok().and_then(|v| v.as_num());
            assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{x}");
        }
        Value::Arr(items) => items.iter().for_each(assert_scalars_round_trip),
        Value::Obj(pairs) => {
            for (key, item) in pairs {
                string_round_trips(key);
                assert_scalars_round_trip(item);
            }
        }
        Value::Null | Value::Bool(_) => {}
    }
}

/// The fuzz oracle for one input (see the test below).
fn check_json_surfaces(text: &str, config: &PipelineConfig) {
    let tree = parse(text);
    let flat = parse_flat_object(text);
    let _ = Job::from_spec_line(text, config);
    let _ = DesignQor::from_json(text);
    let scalar_object = matches!(&tree, Ok(Value::Obj(all))
        if all.iter().all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_))));
    assert_eq!(flat.is_ok(), scalar_object, "{flat:?}");
    if let (Ok(Value::Obj(all)), Ok(pairs)) = (&tree, &flat) {
        assert_eq!(all, pairs);
    }
    if let Ok(value) = &tree {
        assert_scalars_round_trip(value);
    }
}

/// Seeded malformed input on every JSON-fed surface: the tree reader, the
/// flat-object check, job specs and store payloads never panic; the flat
/// check accepts exactly the objects of scalars that the tree reader
/// returns; and every accepted string and number survives a round trip
/// through the writers.
#[test]
fn json_surfaces_survive_seeded_malformed_input() {
    let config = PipelineConfig::fast();
    let mut rng = StdRng::seed_from_u64(0x0150_2000);
    for (s, seed) in fuzz_seeds().iter().enumerate() {
        assert!(parse(seed).is_ok(), "seed {s} parses: {seed}");
        for case in 0..FUZZ_CASES {
            let mut bytes = seed.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                mutate(&mut bytes, &mut rng);
            }
            let text = String::from_utf8_lossy(&bytes);
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| check_json_surfaces(&text, &config)));
            assert!(outcome.is_ok(), "seed {s} case {case} failed on {text:?}");
        }
    }
}
