//! `rapids-serve` — the batch-optimization service front end.
//!
//! Usage:
//!
//! ```text
//! rapids-serve --suite --workers 8                     # whole Table 1 suite
//! rapids-serve c432 alu2 --fast --sort                 # named suite designs, canonical order
//! rapids-serve --jobs batch.jsonl --workers 4          # JSONL job file
//! rapids-serve --blif-dir designs/ --out reports.jsonl # every .blif under designs/
//! rapids-serve --suite --legalize --es                 # row-legal placements + ES nudging
//! rapids-serve --listen 127.0.0.1:7171                 # TCP line protocol (concurrent)
//! rapids-serve --listen 127.0.0.1:7171 --cache-max-entries 64  # bounded LRU caches
//! rapids-serve --suite --store cache/ --timeout-s 300          # crash-safe disk cache + deadlines
//! rapids-serve --listen 127.0.0.1:7171 --max-pending 8         # admission-controlled listener
//! ```
//!
//! Reports stream to stdout (or `--out`) as JSONL, one line per design, as
//! each finishes; `--sort` buffers and emits the canonical sorted order
//! instead (byte-identical for every `--workers` count).  The summary goes
//! to stderr so stdout stays machine-readable.  See `docs/serving.md` for
//! the job schema, report fields, cache key and determinism guarantees.
//!
//! Observability (`docs/observability.md`): `--trace-out FILE` writes a
//! Chrome trace-event JSON of the run's span tree, `--metrics-out FILE`
//! writes the final metrics snapshot, `--heartbeat-s N` prints a progress
//! line to stderr every N seconds, and `--quiet` suppresses everything on
//! stderr except errors.  None of these change a single stdout byte.
//!
//! Telemetry (same doc): `--telemetry-s N` arms the time-series plane —
//! `0` means **manual tick** (one sample per completed job; deterministic,
//! what tests and CI use), `N > 0` spawns a wall-clock sampler thread.
//! `--telemetry-out FILE` appends one checksummed JSONL line per tick
//! (crash-safe; torn tails are truncated on restart), `--cusum
//! SERIES:DRIFT:THRESHOLD[:BASELINE]` (repeatable) arms a change detector
//! (baseline omitted = learned from the first 8 ticks), and
//! `--slo-timeout-frac F` tracks the fraction of jobs cut by their
//! deadline against target `F`.  A `--listen` server then answers the
//! `series` / `alerts` / `prom` verbs — `rapids-top ADDR` renders them.

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rapids_circuits::suite_names;
use rapids_flow::PipelineConfig;
use rapids_obs::{CusumConfig, SloConfig};
use rapids_serve::report::canonical_sort;
use rapids_serve::{
    jobs_from_blif_dir, jobs_from_jsonl, suite_jobs, BatchServer, Engine, FaultPlan, Heartbeat,
    Job, Journal, ResultStore, TelemetryConfig, TelemetryPlane, WallClockSampler,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs_path: Option<String> = None;
    let mut blif_dirs: Vec<String> = Vec::new();
    let mut whole_suite = false;
    let mut names: Vec<String> = Vec::new();
    let mut workers = 1usize;
    let mut sort = false;
    let mut out_path: Option<String> = None;
    let mut listen_addr: Option<String> = None;
    let mut fast = false;
    let mut es = false;
    let mut legalize = false;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut cache_max_entries: Option<usize> = None;
    let mut store_dir: Option<String> = None;
    let mut timeout_s: Option<f64> = None;
    let mut max_pending = 0usize;
    let mut fault_plan_spec: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut heartbeat_s: Option<u64> = None;
    let mut telemetry_s: Option<u64> = None;
    let mut telemetry_out: Option<String> = None;
    let mut cusum_specs: Vec<String> = Vec::new();
    let mut slo_timeout_frac: Option<f64> = None;
    let mut quiet = false;

    let mut iter = args.into_iter();
    let value_arg = |iter: &mut std::vec::IntoIter<String>, flag: &str| -> String {
        iter.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    let parse_num = |value: &str, flag: &str| -> u64 {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires a non-negative integer, got `{value}`");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--jobs" => jobs_path = Some(value_arg(&mut iter, "--jobs")),
            "--blif-dir" => blif_dirs.push(value_arg(&mut iter, "--blif-dir")),
            "--suite" => whole_suite = true,
            "--workers" => {
                workers = parse_num(&value_arg(&mut iter, "--workers"), "--workers") as usize
            }
            "--sort" => sort = true,
            "--out" => out_path = Some(value_arg(&mut iter, "--out")),
            "--listen" => listen_addr = Some(value_arg(&mut iter, "--listen")),
            "--fast" => fast = true,
            "--es" => es = true,
            "--legalize" => legalize = true,
            "--cache-max-entries" => {
                let value =
                    parse_num(&value_arg(&mut iter, "--cache-max-entries"), "--cache-max-entries")
                        as usize;
                if value == 0 {
                    eprintln!("--cache-max-entries must be at least 1 (omit it for no bound)");
                    std::process::exit(2);
                }
                cache_max_entries = Some(value);
            }
            "--seed" => seed = Some(parse_num(&value_arg(&mut iter, "--seed"), "--seed")),
            "--store" => store_dir = Some(value_arg(&mut iter, "--store")),
            "--timeout-s" => {
                let value = value_arg(&mut iter, "--timeout-s");
                match value.parse::<f64>() {
                    // Positive and within what a `Duration` holds.
                    Ok(x) if x > 0.0 && Duration::try_from_secs_f64(x).is_ok() => {
                        timeout_s = Some(x)
                    }
                    _ => {
                        eprintln!(
                            "--timeout-s requires positive seconds below about 1.8e19, \
                             got `{value}`"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--max-pending" => {
                max_pending =
                    parse_num(&value_arg(&mut iter, "--max-pending"), "--max-pending") as usize
            }
            // Hidden knob: deterministic fault injection (docs/robustness.md).
            "--fault-plan" => fault_plan_spec = Some(value_arg(&mut iter, "--fault-plan")),
            "--trace-out" => trace_out = Some(value_arg(&mut iter, "--trace-out")),
            "--metrics-out" => metrics_out = Some(value_arg(&mut iter, "--metrics-out")),
            "--heartbeat-s" => {
                let value = parse_num(&value_arg(&mut iter, "--heartbeat-s"), "--heartbeat-s");
                if value == 0 {
                    eprintln!("--heartbeat-s must be at least 1");
                    std::process::exit(2);
                }
                heartbeat_s = Some(value);
            }
            "--telemetry-s" => {
                telemetry_s =
                    Some(parse_num(&value_arg(&mut iter, "--telemetry-s"), "--telemetry-s"))
            }
            "--telemetry-out" => telemetry_out = Some(value_arg(&mut iter, "--telemetry-out")),
            "--cusum" => cusum_specs.push(value_arg(&mut iter, "--cusum")),
            "--slo-timeout-frac" => {
                let value = value_arg(&mut iter, "--slo-timeout-frac");
                match value.parse::<f64>() {
                    Ok(x) if x.is_finite() && (0.0..1.0).contains(&x) => slo_timeout_frac = Some(x),
                    _ => {
                        eprintln!("--slo-timeout-frac requires a fraction in [0,1), got `{value}`");
                        std::process::exit(2);
                    }
                }
            }
            "--quiet" => quiet = true,
            "--threads" => {
                threads = Some(parse_num(&value_arg(&mut iter, "--threads"), "--threads") as usize)
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
            name => names.push(name.to_string()),
        }
    }

    // Observability setup, before any work runs: `--quiet` drops the
    // stderr level to errors only, `--trace-out` installs the span sink
    // (spans are no-ops without it).
    if quiet {
        rapids_obs::log::set_max_level(rapids_obs::log::Level::Error);
    }
    if trace_out.is_some() {
        rapids_obs::trace::install();
    }

    let mut config = if fast { PipelineConfig::fast() } else { PipelineConfig::default() };
    config.optimizer.include_inverting_swaps = es;
    config.legalize.enabled = legalize;
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if let Some(threads) = threads {
        config.threads = threads.max(1);
    }

    // Assemble the batch in a deterministic order: job file, named suite
    // designs, the whole suite, then each --blif-dir in flag order.
    let mut jobs: Vec<Job> = Vec::new();
    if let Some(path) = &jobs_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            rapids_obs::error!("cannot read job file {path}: {e}");
            std::process::exit(2);
        });
        match jobs_from_jsonl(&text, &config) {
            Ok(parsed) => jobs.extend(parsed),
            Err((line, error)) => {
                rapids_obs::error!("{path}:{line}: bad job spec: {error}");
                std::process::exit(2);
            }
        }
    }
    let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    jobs.extend(suite_jobs(&names, &config));
    if whole_suite {
        jobs.extend(suite_jobs(&suite_names(), &config));
    }
    for dir in &blif_dirs {
        match jobs_from_blif_dir(dir, &config) {
            Ok(discovered) => {
                if discovered.is_empty() {
                    rapids_obs::info!("note: no .blif files under {dir}");
                }
                jobs.extend(discovered);
            }
            Err(e) => {
                rapids_obs::error!("cannot scan {dir}: {e}");
                std::process::exit(2);
            }
        }
    }

    if jobs.is_empty() && listen_addr.is_none() {
        rapids_obs::error!(
            "nothing to do: pass suite names, --suite, --jobs FILE, --blif-dir DIR or --listen ADDR"
        );
        std::process::exit(2);
    }

    // --timeout-s sets a default deadline; per-job `timeout_s` spec keys win.
    if let Some(secs) = timeout_s {
        for job in &mut jobs {
            if job.timeout_s.is_none() {
                job.timeout_s = Some(secs);
            }
        }
    }

    let mut engine = match cache_max_entries {
        Some(capacity) => Engine::with_cache_capacity(config, capacity),
        None => Engine::new(config),
    };
    if let Some(dir) = &store_dir {
        let store = ResultStore::open(dir).unwrap_or_else(|e| {
            rapids_obs::error!("cannot open result store {dir}: {e}");
            std::process::exit(2);
        });
        if store.dropped_corrupt_records() > 0 {
            rapids_obs::warn!(
                "store: recovered {} record(s), truncated a torn/corrupt tail",
                store.recovered_records()
            );
        }
        engine = engine.with_store(store);
    }
    if let Some(spec) = &fault_plan_spec {
        let plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
            rapids_obs::error!("bad --fault-plan: {e}");
            std::process::exit(2);
        });
        engine = engine.with_fault_plan(plan);
    }

    // Telemetry plane: armed by --telemetry-s (0 = manual tick per
    // completed job, N > 0 = wall-clock sampling).  The dependent flags
    // are meaningless without it, so reject them early.
    if telemetry_s.is_none()
        && (telemetry_out.is_some() || !cusum_specs.is_empty() || slo_timeout_frac.is_some())
    {
        rapids_obs::error!(
            "--telemetry-out/--cusum/--slo-timeout-frac need --telemetry-s N (0 = manual)"
        );
        std::process::exit(2);
    }
    let telemetry_plane = telemetry_s.map(|secs| {
        let mut tconfig = TelemetryConfig { manual: secs == 0, ..TelemetryConfig::default() };
        for spec in &cusum_specs {
            tconfig.cusum.push(parse_cusum_spec(spec));
        }
        if let Some(target) = slo_timeout_frac {
            tconfig.slos.push(SloConfig {
                name: "timeouts".to_string(),
                bad_series: "serve.deadline_cuts".to_string(),
                total_series: "serve.job_us.count".to_string(),
                target,
            });
        }
        let mut plane = TelemetryPlane::new(engine.metrics_registry(), tconfig);
        if let Some(path) = &telemetry_out {
            let journal = Journal::open(path).unwrap_or_else(|e| {
                rapids_obs::error!("cannot open telemetry journal {path}: {e}");
                std::process::exit(2);
            });
            if journal.dropped_tail_bytes() > 0 {
                rapids_obs::warn!(
                    "telemetry journal: recovered {} line(s), truncated a torn/corrupt tail",
                    journal.recovered_lines()
                );
            }
            plane = plane.with_journal(journal);
        }
        // Baseline at arm time: the first tick reports deltas, not the
        // absolutes accumulated before telemetry existed.
        plane.prime();
        Arc::new(plane)
    });
    if let Some(plane) = &telemetry_plane {
        engine = engine.with_telemetry(Arc::clone(plane));
    }
    let server = BatchServer::new(engine, workers);
    // Production cadence: a sampler thread ticks the plane every N
    // seconds until main exits (manual mode never spawns it).
    let _wall_clock = match (&telemetry_plane, telemetry_s) {
        (Some(plane), Some(secs)) if secs > 0 => {
            Some(WallClockSampler::spawn(Arc::clone(plane), Duration::from_secs(secs)))
        }
        _ => None,
    };

    let mut sink: Box<dyn std::io::Write> = match &out_path {
        Some(path) => Box::new(std::fs::File::create(path).unwrap_or_else(|e| {
            rapids_obs::error!("cannot create {path}: {e}");
            std::process::exit(2);
        })),
        None => Box::new(std::io::stdout()),
    };

    if !jobs.is_empty() {
        let start = std::time::Instant::now();
        // Heartbeat: a watcher thread summarizing progress on stderr every
        // N seconds.  Purely observational — it reads a counter the result
        // callback bumps and never touches jobs or reports.
        let completed = Arc::new(AtomicUsize::new(0));
        let heartbeat = heartbeat_s.map(|secs| {
            Heartbeat::arm(
                Duration::from_secs(secs),
                jobs.len(),
                Arc::clone(&completed),
                |done, total| rapids_obs::info!("heartbeat: {done}/{total} jobs done"),
            )
        });
        let mut buffered: Vec<String> = Vec::new();
        let summary = server.run_streaming(&jobs, |report| {
            completed.fetch_add(1, Ordering::Relaxed);
            let line = report.to_jsonl();
            if sort {
                buffered.push(line);
            } else {
                writeln!(sink, "{line}").expect("write report line");
                sink.flush().expect("flush report line");
            }
        });
        drop(heartbeat); // stop and join the beat thread before the summary
        if sort {
            canonical_sort(&mut buffered);
            for line in &buffered {
                writeln!(sink, "{line}").expect("write report line");
            }
            sink.flush().expect("flush report lines");
        }
        rapids_obs::info!(
            "serve: {} jobs — {} done ({} cached), {} failed — {:.1} s with {} worker(s)",
            jobs.len(),
            summary.done,
            summary.cached,
            summary.failed,
            start.elapsed().as_secs_f64(),
            server.workers(),
        );
        if store_dir.is_some() {
            // Deterministic shape so CI can grep it (byte-identical at the
            // default log level — `obs::log` adds no prefix).
            rapids_obs::info!(
                "store: optimizer_runs={} disk_hits={} recovered_records={} dropped_corrupt_records={}",
                server.engine().optimizer_runs(),
                server.engine().disk_hits(),
                server.engine().recovered_records(),
                server.engine().dropped_corrupt_records(),
            );
        }
    }

    if let Some(addr) = listen_addr {
        let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
            rapids_obs::error!("cannot bind {addr}: {e}");
            std::process::exit(2);
        });
        // Report the *bound* address: with `--listen 127.0.0.1:0` the OS
        // picks the port, and scripts need the real one.
        let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
        rapids_obs::info!("listening on {bound} (send {{\"cmd\":\"shutdown\"}} to stop)");
        match rapids_serve::net::serve_connections_bounded(server.engine(), &listener, max_pending)
        {
            Ok(served) => rapids_obs::info!("served {served} job line(s); shutting down"),
            Err(e) => {
                rapids_obs::error!("listener error: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(plane) = &telemetry_plane {
        // Deterministic shape so CI can grep it (manual-tick runs have
        // workload-determined tick/alert counts).
        rapids_obs::info!("telemetry: ticks={} alerts={}", plane.ticks(), plane.alerts().len());
    }

    if let Some(path) = &trace_out {
        if let Err(e) = rapids_obs::trace::write_chrome_trace(std::path::Path::new(path)) {
            rapids_obs::error!("cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, server.engine().metrics_snapshot().to_json_pretty()) {
            rapids_obs::error!("cannot write metrics {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses one `--cusum SERIES:DRIFT:THRESHOLD[:BASELINE]` spec (baseline
/// omitted = learned from the first 8 ticks).  Series names never contain
/// `:`, so a plain split is unambiguous.
fn parse_cusum_spec(spec: &str) -> CusumConfig {
    let bail = |why: &str| -> ! {
        eprintln!("bad --cusum `{spec}`: {why} (want SERIES:DRIFT:THRESHOLD[:BASELINE])");
        std::process::exit(2);
    };
    let parts: Vec<&str> = spec.split(':').collect();
    if !(3..=4).contains(&parts.len()) || parts[0].is_empty() {
        bail("expected 3 or 4 `:`-separated fields");
    }
    let num = |text: &str, what: &str| -> f64 {
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => x,
            _ => bail(&format!("{what} `{text}` is not a finite number")),
        }
    };
    let drift = num(parts[1], "drift");
    let threshold = num(parts[2], "threshold");
    match parts.get(3) {
        Some(baseline) => CusumConfig::fixed(parts[0], num(baseline, "baseline"), drift, threshold),
        None => CusumConfig::warmup(parts[0], 8, drift, threshold),
    }
}
