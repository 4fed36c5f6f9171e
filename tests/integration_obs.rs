//! Integration coverage for the `rapids-obs` observability layer: the
//! determinism contract (worker- and thread-count invariance of the
//! deterministic counters, byte-identical reports with tracing on),
//! trace-event well-formedness and per-thread nesting on a real batch,
//! and the zero-overhead guarantee of a disabled tracer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use rapids_flow::{CircuitSource, Pipeline, PipelineConfig};
use rapids_serve::report::canonical_sort;
use rapids_serve::{BatchServer, Engine, Job};

/// A counting wrapper around the system allocator so the zero-overhead
/// test can assert "no allocations happened here" for real.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tracer, global registry and allocation counter are process-global;
/// every test in this binary serializes on this lock so none observes
/// another's state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn batch_jobs(config: &PipelineConfig) -> Vec<Job> {
    ["c432", "alu2", "c499"].iter().map(|name| Job::suite(*name, config)).collect()
}

/// The per-engine decision counters are a pure function of the batch, not
/// of how many workers raced through it.
#[test]
fn deterministic_counters_are_worker_count_invariant() {
    let _guard = obs_lock();
    rapids_obs::trace::disable();

    let run = |workers: usize| {
        let server = BatchServer::new(Engine::new(PipelineConfig::fast()), workers);
        let jobs = batch_jobs(server.engine().base_config());
        let mut lines = Vec::new();
        server.run_streaming(&jobs, |report| lines.push(report.to_jsonl()));
        canonical_sort(&mut lines);
        (
            server.engine().optimizer_runs(),
            server.engine().resolutions(),
            server.engine().cache_hits(),
            lines,
        )
    };

    let single = run(1);
    let pooled = run(8);
    assert_eq!(single, pooled, "worker count must not change any deterministic counter or line");
    assert_eq!(single.0, 3, "three distinct designs, three optimizer runs");
}

/// The STA retime counters reported per run (`outcome.sta`) are invariant
/// under the within-level parallelism thread count.
#[test]
fn sta_retime_counters_are_thread_count_invariant() {
    let _guard = obs_lock();
    rapids_obs::trace::disable();

    let run = |threads: usize| {
        let mut config = PipelineConfig::fast();
        config.threads = threads;
        let pipeline = Pipeline::new(config);
        let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
        let report = pipeline.optimize(&design, rapids_core::OptimizerKind::Combined).unwrap();
        (
            report.outcome.sta.full_refreshes,
            report.outcome.sta.incremental_updates,
            report.outcome.sta.gates_retimed,
        )
    };

    let single = run(1);
    let parallel = run(8);
    assert_eq!(single, parallel, "retime work is deterministic, threads only change wall-clock");
    assert!(single.2 > 0, "a real run retimes gates");
}

/// On a three-design batch the recorded spans are well-formed (the
/// expected names appear, Chrome JSON renders) and, per thread, any two
/// spans are either nested or disjoint — never partially overlapping.
#[test]
fn trace_events_are_well_formed_and_nested() {
    let _guard = obs_lock();
    rapids_obs::trace::install();
    rapids_obs::trace::take_events(); // drop stale events from other tests

    let server = BatchServer::new(Engine::new(PipelineConfig::fast()), 2);
    let jobs = batch_jobs(server.engine().base_config());
    server.run_streaming(&jobs, |_| {});

    rapids_obs::trace::disable();
    let events = rapids_obs::trace::take_events();
    assert!(!events.is_empty());

    let required = [
        "serve.job",
        "serve.resolve",
        "serve.run",
        "stage.sta",
        "sta.full",
        "sta.update",
        "optimizer.extract",
        "optimizer.visit",
        "optimizer.sizing_visit",
        "sizer.visit_min",
        "sizer.visit_relax",
    ];
    for required in required {
        assert!(
            events.iter().any(|e| e.name == required),
            "expected at least one `{required}` span, got names {:?}",
            events.iter().map(|e| e.name.as_str()).collect::<std::collections::BTreeSet<_>>()
        );
    }
    // The job span is the root: one per executed job, containing the rest.
    assert_eq!(events.iter().filter(|e| e.name == "serve.job").count(), jobs.len());

    // Nesting validity: on one thread, spans from RAII guards can only be
    // properly nested or disjoint.
    for a in &events {
        for b in &events {
            if a.tid != b.tid {
                continue;
            }
            let (a0, a1) = (a.ts_ns, a.ts_ns + a.dur_ns);
            let (b0, b1) = (b.ts_ns, b.ts_ns + b.dur_ns);
            assert!(
                !(a0 < b0 && b0 < a1 && a1 < b1),
                "partial overlap between `{}` and `{}` on tid {}",
                a.name,
                b.name,
                a.tid
            );
        }
    }

    let json = rapids_obs::trace::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    assert!(json.ends_with("]}\n"));
    assert_eq!(json.lines().count(), events.len() + 2, "one event per line");
}

/// The zero-overhead guarantee: with the tracer disabled, opening and
/// dropping spans allocates nothing, and a repeated STA sweep allocates
/// exactly the same amount each time (no hidden accumulation).
#[test]
fn disabled_tracer_adds_no_allocations() {
    let _guard = obs_lock();
    rapids_obs::trace::disable();

    // Minimum over several rounds: immune to stray harness allocations on
    // other threads, while still catching any per-span allocation (which
    // would show up in every round).
    let mut min_allocs = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..10_000 {
            let _hot = rapids_obs::span("hot.loop");
            let _owned = rapids_obs::span_owned(|| unreachable!("closure must not run"));
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_allocs = min_allocs.min(after - before);
    }
    assert_eq!(min_allocs, 0, "disabled spans must not allocate");

    // A timed sweep through the instrumented STA kernel: identical inputs,
    // identical allocation counts, run after run.
    let pipeline = Pipeline::fast();
    let design = pipeline.prepare(CircuitSource::suite("c432")).unwrap();
    let sweep = || {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let report = rapids_timing::Sta::analyze(
            &design.network,
            &design.library,
            &design.placement,
            &pipeline.config().timing,
        );
        assert!(report.critical_delay_ns() > 0.0);
        ALLOCATIONS.load(Ordering::SeqCst) - before
    };
    let counts: Vec<u64> = (0..5).map(|_| sweep()).collect();
    assert!(
        counts.windows(2).any(|w| w[0] == w[1]),
        "repeated sweeps should allocate identically, got {counts:?}"
    );
}

/// The telemetry extension of the zero-overhead guarantee: with no plane
/// armed, the engine's per-job tick is a single branch on a `None` — no
/// allocations — and the instrument handles it would otherwise sample
/// stay allocation-free on the hot path too.
#[test]
fn disarmed_telemetry_adds_no_allocations() {
    let _guard = obs_lock();
    rapids_obs::trace::disable();

    let engine = Engine::new(PipelineConfig::fast());
    assert!(engine.telemetry().is_none(), "no plane was armed");
    // Pre-create the handles: instrument *lookup* interns names, the hot
    // path only touches atomics.
    let counter = rapids_obs::global().counter("obs.test.telemetry_hot");
    let gauge = rapids_obs::global().gauge("obs.test.telemetry_depth");
    let histogram = rapids_obs::global().histogram("obs.test.telemetry_us");

    let mut min_allocs = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for i in 0..10_000u64 {
            engine.telemetry_tick();
            counter.inc();
            gauge.set(i as i64);
            histogram.record(i);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        min_allocs = min_allocs.min(after - before);
    }
    assert_eq!(min_allocs, 0, "a disarmed telemetry tick must not allocate");
}

/// Metrics and tracing are observational only: a run with the tracer on
/// and the registry polluted produces byte-identical report lines, and
/// the cache fingerprints ignore metric state entirely.
#[test]
fn metrics_are_excluded_from_fingerprints_and_reports() {
    let _guard = obs_lock();
    rapids_obs::trace::disable();

    let quiet = Engine::new(PipelineConfig::fast());
    let baseline = quiet.execute(&Job::suite("c432", quiet.base_config()));
    assert!(baseline.is_done());

    // Pollute the global registry and turn the tracer on; none of it may
    // reach the report bytes or the cache key.
    rapids_obs::global().counter("timing.full_refreshes").add(1_000_000);
    rapids_obs::global().counter("optimizer.swaps_applied").add(999);
    rapids_obs::trace::install();

    let noisy = Engine::new(PipelineConfig::fast());
    let traced = noisy.execute(&Job::suite("c432", noisy.base_config()));
    assert!(!traced.cached);
    assert_eq!(traced.to_jsonl(), baseline.to_jsonl(), "tracing must not perturb reports");

    // Resubmission hits the cache: the (netlist, config) fingerprints are
    // blind to metric state, which kept changing above.
    let replay = noisy.execute(&Job::suite("c432", noisy.base_config()));
    assert!(replay.cached, "fingerprints must not incorporate metrics");
    assert_eq!(replay.to_jsonl(), baseline.to_jsonl());

    // The report projection carries QoR only — no metric or span fields.
    for leaked in ["metrics", "spans", "job_us", "p50", "counters"] {
        assert!(
            !baseline.to_jsonl().contains(leaked),
            "report projection must not mention `{leaked}`"
        );
    }

    rapids_obs::trace::disable();
    rapids_obs::trace::take_events();
}
