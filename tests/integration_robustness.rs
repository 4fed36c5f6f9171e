//! Integration coverage for the fault-tolerant serving tier: the on-disk
//! result store (cache-warm restarts, byte-identity, torn-tail recovery),
//! per-job deadlines under injected hangs, deterministic fault injection
//! (panics and transient I/O faults), the interplay of all three with the
//! batch server, and seeded fuzz loops over the JSON-fed input surfaces,
//! the BLIF reader and the replay of the crash-safe log.

use std::panic::AssertUnwindSafe;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rapids_flow::circuits::benchmark;
use rapids_flow::netlist::blif;
use rapids_flow::PipelineConfig;
use rapids_obs::json::{escape_string, number, parse, parse_flat_object, Value};
use rapids_obs::trace::{chrome_trace_json, TraceEvent};
use rapids_obs::{CusumConfig, Registry, SloConfig};
use rapids_serve::report::canonical_sort;
use rapids_serve::telemetry::{TelemetryConfig, TelemetryPlane};
use rapids_serve::{
    BatchServer, DesignQor, Engine, FaultPlan, Job, JobOutcome, Journal, ResultStore,
};

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
        // Each record is one line: the last one starts after the
        // second-to-last newline.
        let bytes = std::fs::read(&path).unwrap();
        let last_start = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        (lines, path, bytes.len() as u64, last_start)
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

/// Mutated texts per BLIF seed: the three `ci/fixtures` and two suite
/// renderings.
const BLIF_FUZZ_CASES: usize = 400;

/// One random edit of a BLIF text: a line deleted, duplicated, swapped
/// with another, or cut off with every line after it; or, within one line,
/// a token deleted, duplicated, swapped, re-pointed at another name of the
/// text, or cut off with the rest of the line.
fn mutate_blif(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.is_empty() {
        return ".gate".to_string();
    }
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0..9u32) {
        0 => {
            lines.remove(at);
        }
        1 => {
            let line = lines[at].clone();
            lines.insert(rng.gen_range(0..=lines.len()), line);
        }
        2 => {
            let other = rng.gen_range(0..lines.len());
            lines.swap(at, other);
        }
        3 => lines.truncate(at),
        edit => {
            let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
            if !tokens.is_empty() {
                let i = rng.gen_range(0..tokens.len());
                match edit {
                    4 => {
                        tokens.remove(i);
                    }
                    5 => {
                        let token = tokens[i];
                        tokens.insert(i, token);
                    }
                    6 => {
                        let other = rng.gen_range(0..tokens.len());
                        tokens.swap(i, other);
                    }
                    7 => {
                        let names: Vec<&str> =
                            text.split_whitespace().filter(|t| !t.starts_with('.')).collect();
                        if !names.is_empty() {
                            tokens[i] = names[rng.gen_range(0..names.len())];
                        }
                    }
                    _ => tokens.truncate(i),
                }
                lines[at] = tokens.join(" ");
            }
        }
    }
    lines.join("\n") + "\n"
}

/// Seeded malformed input on the BLIF reader, the surface `blif_text` jobs
/// arrive on: `parse_string` never panics, every network it accepts is
/// consistent, and a `blif_text` job over the same text reports `done`
/// exactly when the text parses (and a failure otherwise, never a panic).
#[test]
fn blif_survives_seeded_malformed_input() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fixtures");
    let mut seeds: Vec<String> = ["tiny_mux", "tiny_mux_demorgan", "tiny_mux_mutated"]
        .iter()
        .map(|name| std::fs::read_to_string(format!("{fixtures}/{name}.blif")).unwrap())
        .collect();
    for name in ["c432", "alu2"] {
        seeds.push(blif::write_string(&benchmark(name).unwrap()));
    }
    let config = PipelineConfig::fast();
    let engine = Engine::new(config.clone());
    let mut rng = StdRng::seed_from_u64(0xb11f);
    let (mut parsed, mut rejected) = (0, 0);
    for (s, seed) in seeds.iter().enumerate() {
        assert!(blif::parse_string(seed).is_ok(), "seed {s} parses");
        for case in 0..BLIF_FUZZ_CASES {
            let mut text = seed.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                text = mutate_blif(&text, &mut rng);
            }
            let network = std::panic::catch_unwind(|| blif::parse_string(&text))
                .unwrap_or_else(|_| panic!("seed {s} case {case}: parse panicked on {text:?}"));
            if let Ok(network) = &network {
                assert_eq!(network.check_consistency(), Ok(()), "seed {s} case {case}: {text:?}");
            }
            let report =
                engine.execute(&Job::blif_text(format!("s{s}c{case}"), text.clone(), &config));
            match (&network, &report.outcome) {
                (Ok(_), JobOutcome::Done(_)) => parsed += 1,
                (Err(_), JobOutcome::Failed(error)) if !error.contains("panicked") => rejected += 1,
                (_, outcome) => {
                    panic!("seed {s} case {case}: {network:?} but {outcome:?} on {text:?}")
                }
            }
        }
    }
    // Both verdicts are well exercised.
    assert!(parsed >= 200 && rejected >= 200, "{parsed} parsed, {rejected} rejected");
}

/// One random edit of a log image: a truncation at a byte, a flipped bit,
/// a whole line deleted, duplicated or swapped with another, a stray
/// newline spliced in, or garbage appended (random bytes, or a
/// well-framed line under a wrong checksum).
fn mutate_log(image: &mut Vec<u8>, rng: &mut StdRng) {
    let mut lines: Vec<Vec<u8>> =
        image.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    let at = rng.gen_range(0..image.len().max(1));
    match rng.gen_range(0..8u32) {
        0 => image.truncate(at),
        1 if !image.is_empty() => image[at] ^= 1 << rng.gen_range(0..8u32),
        2..=4 if !lines.is_empty() => {
            let line = rng.gen_range(0..lines.len());
            match rng.gen_range(0..3u32) {
                0 => {
                    lines.remove(line);
                }
                1 => lines.insert(rng.gen_range(0..=lines.len()), lines[line].clone()),
                _ => {
                    let other = rng.gen_range(0..lines.len());
                    lines.swap(line, other);
                }
            }
            *image = lines.concat();
        }
        5 => image.insert(rng.gen_range(0..=image.len()), b'\n'),
        6 => image.extend(b"{\"tick\":7,\"ck\":\"0123456789abcdef\"}\n"),
        _ => image.extend((0..rng.gen_range(1..24usize)).map(|_| rng.gen_range(0..256u32) as u8)),
    }
}

/// The replay contract shared by both logs: the file left at `path` is a
/// prefix of `image` that ends on a line boundary and holds exactly the
/// `recovered` lines.  Returns that prefix.
fn assert_replayed_prefix(path: &Path, image: &[u8], recovered: usize) -> Vec<u8> {
    let kept = std::fs::read(path).unwrap();
    assert!(image.starts_with(&kept), "replay only truncates");
    assert!(kept.is_empty() || kept.ends_with(b"\n"), "replay cuts on a line boundary");
    assert_eq!(kept.iter().filter(|&&b| b == b'\n').count(), recovered);
    kept
}

/// Replays a mutated tick journal: truncation to whole lines, a no-op
/// second open, and an append that survives the next one.  Returns
/// whether the replay cut anything.
fn check_journal_replay(path: &Path, image: &[u8]) -> bool {
    std::fs::write(path, image).unwrap();
    let journal = Journal::open(path).expect("content never fails an open");
    let recovered = journal.recovered_lines();
    let kept = assert_replayed_prefix(path, image, recovered);
    assert_eq!(journal.dropped_tail_bytes(), (image.len() - kept.len()) as u64);
    drop(journal);

    let again = Journal::open(path).unwrap();
    assert_eq!((again.recovered_lines(), again.dropped_tail_bytes()), (recovered, 0));
    assert_eq!(std::fs::read(path).unwrap(), kept, "a second open changes nothing");
    again.append("\"tick\":99").unwrap();
    drop(again);
    assert_eq!(Journal::open(path).unwrap().recovered_lines(), recovered + 1);
    kept.len() < image.len()
}

/// Replays a mutated result store written from `records`, whose lines in
/// file order are `lines`: the journal's contract, and every record whose
/// line survived (and only those) answers with exactly the QoR written
/// under its key.
fn check_store_replay(
    dir: &Path,
    image: &[u8],
    records: &[((u64, u64), DesignQor)],
    lines: &[&[u8]],
) {
    let path = dir.join("store.jsonl");
    std::fs::write(&path, image).unwrap();
    let store = ResultStore::open(dir).expect("content never fails an open");
    let recovered = store.recovered_records();
    let kept = assert_replayed_prefix(&path, image, recovered);
    assert_eq!(store.dropped_corrupt_records(), usize::from(kept.len() < image.len()));
    for ((key, qor), line) in records.iter().zip(lines) {
        let survived = kept.split_inclusive(|&b| b == b'\n').any(|kept_line| kept_line == *line);
        assert_eq!(store.lookup(*key).as_ref(), survived.then_some(qor));
    }
    drop(store);

    let again = ResultStore::open(dir).unwrap();
    assert_eq!((again.recovered_records(), again.dropped_corrupt_records()), (recovered, 0));
    assert_eq!(std::fs::read(&path).unwrap(), kept, "a second open changes nothing");
    let (key, qor) = ((u64::MAX, u64::MAX), fuzz_qor(99));
    again.append(key, &qor).unwrap();
    drop(again);
    let last = ResultStore::open(dir).unwrap();
    assert_eq!(last.recovered_records(), recovered + 1);
    assert_eq!(last.lookup(key), Some(qor));
}

/// A QoR record whose name needs escaping and whose numbers need every
/// digit of their shortest rendering.
fn fuzz_qor(i: u64) -> DesignQor {
    let x = i as f64;
    DesignQor {
        name: format!("d{i} \"q\"\\\u{e9}"),
        gate_count: 100 + i as usize,
        initial_delay_ns: 0.1 + 0.2 * x,
        gsg_final_delay_ns: 1.0 / (3.0 + x),
        gs_final_delay_ns: 1e-300 * (x + 1.0),
        combined_final_delay_ns: 6.02e23 / (x + 7.0),
        gs_final_area_um2: 4000.0 + x,
        combined_final_area_um2: 4100.25 - x,
        gsg_swaps: i as usize,
        gsg_es_swaps: 2,
        combined_es_swaps: 3,
        gs_resized: 40,
        legalized: i.is_multiple_of(2),
        hpwl_um: 123456.75 * x,
        max_displacement_um: 0.5 * x,
    }
}

/// Seeded malformed input on the one replay path, through both of its
/// users: a tick journal and a result store, each written through the
/// public API, take one to three edits per case and are reopened.  The
/// open never panics or fails; the file is cut back to a line boundary
/// and never rewritten; a second open changes nothing; an append after
/// recovery survives the next open; and a store hit is always the exact
/// record written under its key.
#[test]
fn log_replay_survives_seeded_malformed_input() {
    let dir = temp_dir("replay_fuzz");
    let records: Vec<((u64, u64), DesignQor)> =
        (0..5u64).map(|i| ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15), !i), fuzz_qor(i))).collect();
    let store_image = {
        let store = ResultStore::open(&dir).unwrap();
        for (key, qor) in &records {
            store.append(*key, qor).unwrap();
        }
        std::fs::read(store.path()).unwrap()
    };
    let store_lines: Vec<&[u8]> = store_image.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(store_lines.len(), records.len());

    let journal_path = dir.join("ticks.jsonl");
    let journal_image = {
        let journal = Journal::open(&journal_path).unwrap();
        for tick in 0..5 {
            journal
                .append(&format!("\"tick\":{tick},\"counters\":{{\"serve.jobs\":{tick}}}"))
                .unwrap();
        }
        std::fs::read(&journal_path).unwrap()
    };

    let mut rng = StdRng::seed_from_u64(0x1065_2019);
    let mut truncated = 0;
    for case in 0..FUZZ_CASES {
        let mut mutants = [journal_image.clone(), store_image.clone()];
        for mutant in &mut mutants {
            for _ in 0..rng.gen_range(1..4usize) {
                mutate_log(mutant, &mut rng);
            }
        }
        let [journal_mutant, store_mutant] = &mutants;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            check_store_replay(&dir, store_mutant, &records, &store_lines);
            check_journal_replay(&journal_path, journal_mutant)
        }));
        truncated += usize::from(matches!(outcome, Ok(true)));
        assert!(
            outcome.is_ok(),
            "case {case} failed on journal {:?} / store {:?}",
            String::from_utf8_lossy(journal_mutant),
            String::from_utf8_lossy(store_mutant)
        );
    }
    // Both verdicts are well exercised.
    assert!((100..=900).contains(&truncated), "{truncated} of {FUZZ_CASES} journals cut");
    let _ = std::fs::remove_dir_all(&dir);
}
