//! The execution core: runs one job end to end, with result caching.
//!
//! The [`Engine`] is the part of the service that is shared across
//! batches, TCP connections and worker threads: it owns the result cache
//! and the run-count probes.  `execute` never panics and never returns an
//! error — every failure mode (unknown suite name, unreadable file, BLIF
//! parse error, optimizer panic) is captured as a `Failed` report so one
//! poisoned job cannot take down a batch or a connection.
//!
//! The result cache and the verify-verdict cache can be **bounded**
//! ([`Engine::with_cache_capacity`], `rapids-serve --cache-max-entries`):
//! each holds at most that many entries, and when full the
//! least-recently-used entry is evicted on insert, so a long-running
//! listener's memory stays flat under an unbounded stream of distinct
//! designs and netlist pairs.  Evictions from both are counted together
//! ([`Engine::cache_evictions`], the `stats` protocol line).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rapids_flow::netlist::Network;
use rapids_flow::{CancelToken, CircuitSource, Pipeline, PipelineConfig};

use crate::faults::{FaultPlan, FaultPoint};
use crate::fingerprint::{config_fingerprint, fnv1a, netlist_fingerprint};
use crate::job::{Job, JobSource};
use crate::report::{DesignQor, JobOutcome, JobReport, VerifyVerdict};
use crate::retry::{is_transient_io, with_backoff, BackoffPolicy};
use crate::store::ResultStore;
use crate::timer::Timer;

/// A bounded LRU cache keyed by a fingerprint pair (unbounded when
/// `capacity` is `None`): the engine keeps QoR results in one and verify
/// verdicts in another.
///
/// Recency is a monotone tick bumped on every hit and insert; eviction
/// scans for the minimum tick, which is O(n) but runs only when a full
/// cache inserts — negligible next to the optimizer run or proof that
/// produced the entry.
#[derive(Debug)]
struct LruCache<V> {
    capacity: Option<usize>,
    entries: HashMap<(u64, u64), (V, u64)>,
    tick: u64,
    evictions: usize,
}

impl<V: Clone> LruCache<V> {
    fn new(capacity: Option<usize>) -> Self {
        LruCache { capacity, entries: HashMap::new(), tick: 0, evictions: 0 }
    }

    fn get(&mut self, key: &(u64, u64)) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    fn insert(&mut self, key: (u64, u64), value: V) {
        self.tick += 1;
        let fresh = self.entries.insert(key, (value, self.tick)).is_none();
        if let Some(capacity) = self.capacity {
            if fresh && self.entries.len() > capacity {
                // Evict the least-recently-used entry (never the one just
                // inserted — its tick is the maximum).
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(&k, _)| k)
                    .expect("a full cache has entries");
                self.entries.remove(&oldest);
                self.evictions += 1;
                rapids_obs::metrics::counter("serve.evictions").inc();
            }
        }
    }
}

/// Shared execution core: base configuration, result cache, probes.
#[derive(Debug)]
pub struct Engine {
    base: PipelineConfig,
    cache: Mutex<LruCache<DesignQor>>,
    /// Second-level memo: (spec fingerprint, config fingerprint) → netlist
    /// fingerprint, so a *literally repeated* submission skips generation
    /// and technology mapping too, not just the optimizer.  Only specs
    /// whose content is fully determined by the spec itself (suite names,
    /// inline text) are memoized — a `.blif` file's bytes can change
    /// between submissions, so file jobs always re-resolve.
    spec_memo: Mutex<HashMap<(u64, u64), u64>>,
    /// Optional crash-safe on-disk spill of the result cache; consulted on
    /// memory misses, appended to on fresh computes.
    store: Option<ResultStore>,
    /// The armed fault-injection plan (empty — a no-op — by default).
    faults: Arc<FaultPlan>,
    /// Retry budget for transient file I/O (BLIF reads, store appends).
    backoff: BackoffPolicy,
    /// Verdicts of `verify` jobs, keyed by the *(fingerprint A,
    /// fingerprint B)* netlist pair — resubmitting the same pair answers
    /// from here, byte-identically, without re-running the SAT check.
    /// Bounded like the result cache, with the same capacity.
    verify_cache: Mutex<LruCache<VerifyVerdict>>,
    /// Per-engine metrics registry: run/hit counters and the per-job
    /// latency histogram live here (not in the process-global registry),
    /// so each engine's tallies stay exact under concurrent engines — the
    /// cache tests assert exact counts.  [`Engine::metrics_snapshot`]
    /// merges this registry over the global one.
    metrics: rapids_obs::Registry,
    optimizer_runs: rapids_obs::Counter,
    verify_runs: rapids_obs::Counter,
    cache_hits: rapids_obs::Counter,
    resolutions: rapids_obs::Counter,
    job_us: rapids_obs::Histogram,
    /// Jobs claimed by a batch worker but not yet started (set by the
    /// scheduler; see `BatchServer`).
    queue_depth: rapids_obs::Gauge,
    /// Jobs currently inside [`Engine::execute`], across all threads.
    inflight: rapids_obs::Gauge,
    /// The armed telemetry plane, if any (see [`crate::telemetry`]).
    /// `None` — the default — keeps the job hot path allocation-free:
    /// [`Engine::telemetry_tick`] is a single branch.
    telemetry: Option<Arc<crate::telemetry::TelemetryPlane>>,
}

impl Engine {
    /// An engine whose jobs default to `base` (per-job specs may override
    /// individual knobs; see [`Job::from_spec_line`]) and whose result
    /// cache is unbounded.
    pub fn new(base: PipelineConfig) -> Self {
        Self::with_capacity(base, None)
    }

    /// [`Engine::new`] with the result cache and the verify-verdict cache
    /// each bounded to `capacity` entries (LRU eviction on insert).  `0`
    /// means *unbounded*, same as [`Engine::new`] — a zero-entry cache
    /// would silently recompute every submission, which no caller ever
    /// wants.
    pub fn with_cache_capacity(base: PipelineConfig, capacity: usize) -> Self {
        Self::with_capacity(base, (capacity > 0).then_some(capacity))
    }

    fn with_capacity(base: PipelineConfig, capacity: Option<usize>) -> Self {
        let metrics = rapids_obs::Registry::new();
        Engine {
            base,
            cache: Mutex::new(LruCache::new(capacity)),
            spec_memo: Mutex::new(HashMap::new()),
            store: None,
            faults: Arc::new(FaultPlan::default()),
            backoff: BackoffPolicy::default(),
            verify_cache: Mutex::new(LruCache::new(capacity)),
            optimizer_runs: metrics.counter("serve.optimizer_runs"),
            verify_runs: metrics.counter("serve.verify_runs"),
            cache_hits: metrics.counter("serve.cache_hits"),
            resolutions: metrics.counter("serve.resolutions"),
            job_us: metrics.histogram("serve.job_us"),
            queue_depth: metrics.gauge("serve.queue_depth"),
            inflight: metrics.gauge("serve.inflight_jobs"),
            telemetry: None,
            metrics,
        }
    }

    /// Arms a telemetry plane (see [`crate::telemetry::TelemetryPlane`]):
    /// in manual mode the serve layer ticks it after each completed job
    /// via [`Engine::telemetry_tick`].
    pub fn with_telemetry(mut self, plane: Arc<crate::telemetry::TelemetryPlane>) -> Self {
        self.telemetry = Some(plane);
        self
    }

    /// Attaches a crash-safe on-disk result store (see [`ResultStore`]):
    /// memory-cache misses consult it before computing, fresh results are
    /// appended to it, and restarts with the same store directory are
    /// cache-warm.
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Arms a fault-injection plan (tests, `--fault-plan`).  The default
    /// plan is empty and never fires.
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// The armed fault plan (the empty, never-firing plan by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Results served from the on-disk store (0 without a store).
    pub fn disk_hits(&self) -> usize {
        self.store.as_ref().map_or(0, ResultStore::disk_hits)
    }

    /// Records the attached store replayed at open (0 without a store).
    pub fn recovered_records(&self) -> usize {
        self.store.as_ref().map_or(0, ResultStore::recovered_records)
    }

    /// Torn/corrupt store records dropped at open (0 without a store).
    pub fn dropped_corrupt_records(&self) -> usize {
        self.store.as_ref().map_or(0, ResultStore::dropped_corrupt_records)
    }

    /// The configuration jobs are resolved against.
    pub fn base_config(&self) -> &PipelineConfig {
        &self.base
    }

    /// How many times the optimizer actually ran (cache misses).  This is
    /// the probe the cache tests assert on: a resubmission that hits the
    /// cache leaves it unchanged.
    pub fn optimizer_runs(&self) -> usize {
        self.optimizer_runs.get() as usize
    }

    /// How many times the SAT equivalence checker actually ran (verify-job
    /// cache misses).
    pub fn verify_runs(&self) -> usize {
        self.verify_runs.get() as usize
    }

    /// Number of distinct netlist pairs with a cached verify verdict.
    pub fn cached_verifications(&self) -> usize {
        self.verify_cache.lock().expect("verify cache lock poisoned").entries.len()
    }

    /// How many jobs were served from the cache without recompute.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.get() as usize
    }

    /// Number of distinct (netlist, config) results currently cached.
    pub fn cached_results(&self) -> usize {
        self.cache.lock().expect("cache lock poisoned").entries.len()
    }

    /// How many cached results and verify verdicts were evicted by the LRU
    /// bound (always 0 for an unbounded engine).
    pub fn cache_evictions(&self) -> usize {
        self.cache.lock().expect("cache lock poisoned").evictions
            + self.verify_cache.lock().expect("verify cache lock poisoned").evictions
    }

    /// How many times a circuit was actually resolved (generated/parsed
    /// and mapped).  Repeat suite/inline submissions skip this via the
    /// spec memo; `.blif` file jobs never do.
    pub fn resolutions(&self) -> usize {
        self.resolutions.get() as usize
    }

    /// Per-job wall-clock latency distribution (microseconds), over every
    /// [`Engine::execute`] call — hits and misses alike.
    pub fn job_latency_us(&self) -> rapids_obs::metrics::HistogramSnapshot {
        self.job_us.snapshot()
    }

    /// One merged metrics snapshot: the process-global registry (timing,
    /// sizing, legalize, cec, serve-wide counters) overlaid with this
    /// engine's per-instance counters and latency histogram.
    pub fn metrics_snapshot(&self) -> rapids_obs::Snapshot {
        let mut snapshot = rapids_obs::global().snapshot();
        snapshot.merge(&self.metrics.snapshot());
        snapshot
    }

    /// This engine's per-instance registry (a cheap shared handle) — what
    /// a [`TelemetryPlane`](crate::telemetry::TelemetryPlane) merges over
    /// the global registry each tick.
    pub fn metrics_registry(&self) -> rapids_obs::Registry {
        self.metrics.clone()
    }

    /// The armed telemetry plane, if any.
    pub fn telemetry(&self) -> Option<&Arc<crate::telemetry::TelemetryPlane>> {
        self.telemetry.as_ref()
    }

    /// Takes one **manual** telemetry tick, when a plane is armed in
    /// manual mode.  The serve layer calls this at quiescent points —
    /// after a job finishes, before its report is handed on — so the tick
    /// sequence is a pure function of the workload.  A no-op (one branch,
    /// zero allocations) without a plane; a no-op in wall-clock mode,
    /// where the [`WallClockSampler`](crate::telemetry::WallClockSampler)
    /// thread owns the cadence.
    pub fn telemetry_tick(&self) {
        if let Some(plane) = &self.telemetry {
            if plane.is_manual() {
                plane.tick_now();
            }
        }
    }

    /// Publishes the batch scheduler's unclaimed-job count to the
    /// `serve.queue_depth` gauge.
    pub fn set_queue_depth(&self, depth: i64) {
        self.queue_depth.set(depth);
    }

    /// Probes the two cache levels for `key`: the in-memory LRU first,
    /// then the on-disk store (promoting a disk hit into memory so later
    /// submissions stay hot).  A store-read fault degrades gracefully to a
    /// miss — the job recomputes instead of failing.
    fn probe_caches(&self, key: (u64, u64), name: &str) -> Option<DesignQor> {
        if let Some(qor) = self.cache.lock().expect("cache lock poisoned").get(&key) {
            self.cache_hits.inc();
            return Some(qor);
        }
        let store = self.store.as_ref()?;
        if self.faults.fire(FaultPoint::StoreRead, Some(name), None).is_err() {
            return None;
        }
        let qor = store.lookup(key)?;
        self.cache.lock().expect("cache lock poisoned").insert(key, qor.clone());
        Some(qor)
    }

    /// Spills a freshly computed result to the on-disk store (when one is
    /// attached), retrying transient write failures.  A permanently failed
    /// append costs only durability — the job still reports `done` from
    /// the in-memory result.
    fn spill_to_store(&self, key: (u64, u64), qor: &DesignQor, name: &str) {
        let Some(store) = self.store.as_ref() else { return };
        let _store_span = rapids_obs::span("serve.store");
        let _ = with_backoff(&self.backoff, is_transient_io, || {
            self.faults.fire(FaultPoint::StoreWrite, Some(name), None)?;
            store.append(key, qor)
        });
    }

    /// Runs one job to completion: resolve the source, consult the caches,
    /// optimize on a miss (under the job's deadline, when it has one), and
    /// return the report.  Infallible by design — errors, panics and
    /// timeouts become `Failed` reports.
    pub fn execute(&self, job: &Job) -> JobReport {
        let _job_span = rapids_obs::span("serve.job");
        let start = Instant::now();
        self.inflight.add(1);
        let report = self.execute_inner(job);
        self.inflight.add(-1);
        self.job_us.record(start.elapsed().as_micros() as u64);
        report
    }

    fn execute_inner(&self, job: &Job) -> JobReport {
        let fail = |error: String| JobReport {
            job: job.name.clone(),
            outcome: JobOutcome::Failed(error),
            cached: false,
        };

        if job.verify_with.is_some() {
            return self.execute_verify(job);
        }

        let config_fp = config_fingerprint(&job.config);
        let hit = |qor: DesignQor| JobReport {
            job: job.name.clone(),
            outcome: JobOutcome::Done(qor),
            cached: true,
        };

        // Fast path: a literally repeated submission (same spec, same
        // config) already knows its netlist fingerprint, so it can answer
        // from the result cache without re-generating or re-mapping.
        let spec_key = spec_fingerprint(&job.source).map(|spec_fp| (spec_fp, config_fp));
        if let Some(spec_key) = spec_key {
            let memoized =
                self.spec_memo.lock().expect("spec memo lock poisoned").get(&spec_key).copied();
            if let Some(netlist_fp) = memoized {
                if let Some(qor) = self.probe_caches((netlist_fp, config_fp), &job.name) {
                    return hit(qor);
                }
            }
        }

        // Resolve to the mapped network: the cache key is defined over
        // *content*, so equal designs hit regardless of how they were
        // submitted (suite name, file path, inline text).
        let pipeline = Pipeline::new(job.config.clone());
        let network = match self.resolve_source(&pipeline, &job.name, &job.source) {
            Ok(network) => network,
            Err(error) => return fail(error),
        };

        let netlist_fp = netlist_fingerprint(&network);
        if let Some(spec_key) = spec_key {
            self.spec_memo.lock().expect("spec memo lock poisoned").insert(spec_key, netlist_fp);
        }
        let key = (netlist_fp, config_fp);
        if let Some(qor) = self.probe_caches(key, &job.name) {
            return hit(qor);
        }

        // Cache miss: run the optimizer flow, under a watchdog when the
        // job carries a deadline.  The watchdog cancels the token at the
        // deadline; the optimizer pass loops poll it cooperatively, so an
        // over-deadline job stops at the next pass boundary (or mid-sleep
        // for an injected hang) — never a wedged worker.
        self.optimizer_runs.inc();
        let run_span = rapids_obs::span("serve.run");
        let token = CancelToken::new();
        let watchdog = job.timeout_s.map(|secs| arm_watchdog(&token, secs));
        let comparison = catch_unwind(AssertUnwindSafe(|| {
            self.faults
                .fire(FaultPoint::JobRun, Some(&job.name), Some(&token))
                .map_err(|e| e.to_string())?;
            pipeline
                .compare_optimizers_cancellable(CircuitSource::Mapped(network), &token)
                .map_err(|e| e.to_string())
        }));
        drop(watchdog);
        drop(run_span);
        // The deadline verdict comes first: a cancelled run's result — even
        // a structurally valid one the cooperative stop produced — was cut
        // short, and reporting it as `done` would cache a truncated QoR.
        if token.is_cancelled() {
            rapids_obs::metrics::counter("serve.deadline_cuts").inc();
            let secs = job.timeout_s.unwrap_or(0.0);
            return fail(format!("timeout after {secs}s"));
        }
        let qor = match comparison {
            Ok(Ok(comparison)) => DesignQor::from_comparison(&comparison),
            Ok(Err(e)) => return fail(e),
            Err(payload) => {
                return fail(format!("optimizer panicked: {}", panic_message(payload.as_ref())))
            }
        };

        // Two workers racing on the same key both compute and both insert;
        // the values are identical by determinism, so last-write-wins is
        // benign and cheaper than holding the lock across the optimizer.
        self.cache.lock().expect("cache lock poisoned").insert(key, qor.clone());
        self.spill_to_store(key, &qor, &job.name);
        JobReport { job: job.name.clone(), outcome: JobOutcome::Done(qor), cached: false }
    }

    /// Resolves one job source to its mapped network — shared by the
    /// optimize and verify paths.  File reads go through the blif-read
    /// fault point and the transient-I/O retry, and parse/map failures
    /// carry the offending path.
    fn resolve_source(
        &self,
        pipeline: &Pipeline,
        job_name: &str,
        source: &JobSource,
    ) -> Result<Network, String> {
        self.resolutions.inc();
        let _resolve_span = rapids_obs::span("serve.resolve");
        let max_fanin = pipeline.config().map_max_fanin;
        let circuit = match source {
            JobSource::Suite(name) => CircuitSource::Suite(name.clone()),
            JobSource::BlifFile(path) => {
                let read = with_backoff(&self.backoff, is_transient_io, || {
                    self.faults.fire(FaultPoint::BlifRead, Some(job_name), None)?;
                    std::fs::read_to_string(path)
                });
                match read {
                    Ok(text) => CircuitSource::Blif { text, max_fanin },
                    Err(e) => return Err(format!("i/o error on `{}`: {e}", path.display())),
                }
            }
            JobSource::BlifText(text) => CircuitSource::Blif { text: text.clone(), max_fanin },
        };
        resolve_guarded(pipeline, circuit).map_err(|error| {
            // Inline text made from a file has lost its origin; put the
            // path back so parse/map failures stay attributable.
            match source {
                JobSource::BlifFile(path) => format!("`{}`: {error}", path.display()),
                _ => error,
            }
        })
    }

    /// Runs a `verify` job: resolve both sources, consult the verdict
    /// cache keyed by the netlist fingerprint *pair*, and on a miss decide
    /// equivalence with the SAT prover (under the job's deadline, when it
    /// has one).  A refuting model is cross-confirmed on the independent
    /// simulator before it is reported.
    fn execute_verify(&self, job: &Job) -> JobReport {
        let fail = |error: String| JobReport {
            job: job.name.clone(),
            outcome: JobOutcome::Failed(error),
            cached: false,
        };
        let against = job.verify_with.as_ref().expect("verify job has a second source");
        let pipeline = Pipeline::new(job.config.clone());
        let a = match self.resolve_source(&pipeline, &job.name, &job.source) {
            Ok(network) => network,
            Err(error) => return fail(error),
        };
        let b = match self.resolve_source(&pipeline, &job.name, against) {
            Ok(network) => network,
            Err(error) => return fail(error),
        };

        let key = (netlist_fingerprint(&a), netlist_fingerprint(&b));
        let cached = self.verify_cache.lock().expect("verify cache lock poisoned").get(&key);
        if let Some(verdict) = cached {
            self.cache_hits.inc();
            return JobReport {
                job: job.name.clone(),
                outcome: JobOutcome::Verified(verdict),
                cached: true,
            };
        }

        self.verify_runs.inc();
        let run_span = rapids_obs::span("serve.run");
        let token = CancelToken::new();
        let watchdog = job.timeout_s.map(|secs| arm_watchdog(&token, secs));
        let cec_config = rapids_flow::cec::CecConfig {
            cancel: Some(token.clone()),
            ..rapids_flow::cec::CecConfig::default()
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.faults
                .fire(FaultPoint::Cec, Some(&job.name), Some(&token))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(rapids_flow::cec::check_equivalence(&a, &b, &cec_config))
        }));
        drop(watchdog);
        drop(run_span);
        if token.is_cancelled() {
            rapids_obs::metrics::counter("serve.deadline_cuts").inc();
            let secs = job.timeout_s.unwrap_or(0.0);
            return fail(format!("timeout after {secs}s"));
        }
        use rapids_flow::cec::CecResult;
        let verdict = match result {
            Ok(Ok(CecResult::EquivalentProven)) => VerifyVerdict::equivalent(),
            Ok(Ok(CecResult::NotEquivalent(cex))) => {
                // Cross-confirm the refuting vector on the simulator before
                // answering; a model that does not replay would be a solver
                // bug and must surface as a failure, not a bogus verdict.
                let sim_a = rapids_flow::sim::Simulator::new(&a);
                let sim_b = rapids_flow::sim::Simulator::new(&b);
                let ya = sim_a.simulate_bools(&a, &cex.inputs);
                let yb = sim_b.simulate_bools(&b, &cex.inputs);
                if ya[cex.output_index] == yb[cex.output_index] {
                    return fail(
                        "internal error: counterexample does not replay on the simulator".into(),
                    );
                }
                VerifyVerdict::counterexample(cex.input_bits(), cex.output_index)
            }
            Ok(Ok(CecResult::InterfaceMismatch { inputs, outputs })) => {
                return fail(format!(
                    "interface mismatch: {}x{} vs {}x{} inputs/outputs",
                    inputs.0, outputs.0, inputs.1, outputs.1
                ))
            }
            Ok(Ok(CecResult::Aborted(reason))) => return fail(format!("cec aborted: {reason}")),
            Ok(Err(e)) => return fail(e),
            Err(payload) => {
                return fail(format!("cec panicked: {}", panic_message(payload.as_ref())))
            }
        };
        self.verify_cache.lock().expect("verify cache lock poisoned").insert(key, verdict.clone());
        JobReport { job: job.name.clone(), outcome: JobOutcome::Verified(verdict), cached: false }
    }
}

/// A per-job deadline guard: a timer that cancels the job's token when the
/// deadline passes, and is stopped (on drop) when the job finishes first.
/// Purely time-based — it never inspects results, so it cannot change what
/// a within-deadline job reports.
fn arm_watchdog(token: &CancelToken, timeout_s: f64) -> Timer {
    let token = token.clone();
    Timer::spawn(Duration::from_secs_f64(timeout_s), move || {
        token.cancel();
        false
    })
}

/// Fingerprint of a job *spec* whose circuit content is fully determined
/// by the spec itself; `None` for file-backed sources, whose bytes can
/// change between submissions.
fn spec_fingerprint(source: &JobSource) -> Option<u64> {
    match source {
        JobSource::Suite(name) => Some(fnv1a(format!("suite\u{0}{name}").as_bytes())),
        JobSource::BlifText(text) => Some(fnv1a(format!("text\u{0}{text}").as_bytes())),
        JobSource::BlifFile(_) => None,
    }
}

/// `Pipeline::build_network` behind a panic guard, with errors rendered.
fn resolve_guarded(pipeline: &Pipeline, source: CircuitSource) -> Result<Network, String> {
    match catch_unwind(AssertUnwindSafe(|| pipeline.build_network(source))) {
        Ok(Ok(network)) => Ok(network),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => {
            Err(format!("circuit resolution panicked: {}", panic_message(payload.as_ref())))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(PipelineConfig::fast())
    }

    #[test]
    fn unknown_suite_name_fails_without_panicking() {
        let e = engine();
        let report = e.execute(&Job::suite("made_up", e.base_config()));
        assert!(!report.is_done());
        assert!(matches!(&report.outcome, JobOutcome::Failed(msg) if msg.contains("made_up")));
        assert_eq!(e.optimizer_runs(), 0);
    }

    #[test]
    fn unparsable_blif_text_fails_cleanly() {
        let e = engine();
        let job = Job::blif_text("poison", "this is not blif", e.base_config());
        let report = e.execute(&job);
        assert!(matches!(&report.outcome, JobOutcome::Failed(msg) if msg.contains("parse error")));
    }

    #[test]
    fn a_gate_free_design_reports_zero_area() {
        let e = engine();
        let text = ".model wire\n.inputs a b\n.outputs a\n.end\n";
        let report = e.execute(&Job::blif_text("wire", text, e.base_config()));
        assert!(report.is_done(), "{:?}", report.outcome);
        let line = report.to_jsonl();
        assert!(line.contains("\"gs_final_area_um2\":0,\"combined_final_area_um2\":0,"), "{line}");
    }

    #[test]
    fn missing_blif_file_reports_the_path() {
        let e = engine();
        let job = Job::blif_file("ghost", "/no/such/file.blif", e.base_config());
        let report = e.execute(&job);
        assert!(matches!(&report.outcome, JobOutcome::Failed(msg) if msg.contains("file.blif")));
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let e = Engine::with_cache_capacity(PipelineConfig::fast(), 2);
        for name in ["c432", "alu2", "c499"] {
            assert!(e.execute(&Job::suite(name, e.base_config())).is_done());
        }
        // Capacity 2: the third insert evicted the least-recent (c432).
        assert_eq!(e.cached_results(), 2);
        assert_eq!(e.cache_evictions(), 1);
        assert_eq!(e.optimizer_runs(), 3);
        // Touch alu2 (hit, refreshes recency), then insert a fourth design:
        // c499 — now the least-recent — is the one evicted.
        assert!(e.execute(&Job::suite("alu2", e.base_config())).cached);
        assert!(e.execute(&Job::suite("c1908", e.base_config())).is_done());
        assert_eq!(e.cache_evictions(), 2);
        assert!(e.execute(&Job::suite("alu2", e.base_config())).cached, "alu2 was kept");
        assert_eq!(e.optimizer_runs(), 4);
        assert!(!e.execute(&Job::suite("c499", e.base_config())).cached, "c499 was evicted");
        assert_eq!(e.optimizer_runs(), 5);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        // Capacity 0 means unbounded, matching `Engine::new`.
        let e = Engine::with_cache_capacity(PipelineConfig::fast(), 0);
        for name in ["c432", "alu2", "c499"] {
            e.execute(&Job::suite(name, e.base_config()));
        }
        assert_eq!(e.cached_results(), 3);
        assert_eq!(e.cache_evictions(), 0);
    }

    #[test]
    fn cache_serves_resubmissions_without_recompute() {
        let e = engine();
        let suite = Job::suite("c432", e.base_config());
        let first = e.execute(&suite);
        assert!(first.is_done() && !first.cached);
        assert_eq!(e.optimizer_runs(), 1);

        // Resubmission: cache hit, byte-identical line, no recompute —
        // and the spec memo skips even generation/mapping.
        let second = e.execute(&suite);
        assert!(second.cached);
        assert_eq!(e.optimizer_runs(), 1);
        assert_eq!(e.cache_hits(), 1);
        assert_eq!(e.resolutions(), 1, "repeat suite submission must not re-resolve");
        assert_eq!(first.to_jsonl(), second.to_jsonl());

        // Different config (seed) → miss.
        let mut other = Job::suite("c432", e.base_config());
        other.config.seed ^= 1;
        assert!(!e.execute(&other).cached);
        assert_eq!(e.optimizer_runs(), 2);
        assert_eq!(e.cached_results(), 2);
    }

    #[test]
    fn thread_counts_share_one_cache_entry() {
        // No report byte depends on `threads`, so a job that differs only
        // in its thread count is served from the first one's entry.
        let e = engine();
        let spec = |threads: u32| format!(r#"{{"suite":"c432","fast":true,"threads":{threads}}}"#);
        let one = Job::from_spec_line(&spec(1), e.base_config()).unwrap();
        let two = Job::from_spec_line(&spec(2), e.base_config()).unwrap();
        let first = e.execute(&one);
        assert!(first.is_done() && !first.cached);
        let second = e.execute(&two);
        assert!(second.cached, "a thread count alone must not miss the cache");
        assert_eq!(first.to_jsonl(), second.to_jsonl());
        assert_eq!(e.optimizer_runs(), 1);
    }

    use crate::faults::FaultAction;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rapids_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_mux_path() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fixtures/tiny_mux.blif").to_string()
    }

    #[test]
    fn injected_job_run_panic_becomes_a_failed_report() {
        let plan = FaultPlan::single(FaultPoint::JobRun, Some("c432"), 0, FaultAction::Panic);
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let report = e.execute(&Job::suite("c432", e.base_config()));
        assert!(
            matches!(&report.outcome,
                JobOutcome::Failed(msg) if msg.contains("optimizer panicked")
                    && msg.contains("injected panic at job-run")),
            "unexpected outcome: {:?}",
            report.outcome
        );
        // The engine is not wedged: an unfaulted job still runs.
        assert!(e.execute(&Job::suite("alu2", e.base_config())).is_done());
    }

    #[test]
    fn transient_blif_read_fault_is_retried_to_success() {
        // One injected error on the first read attempt; the backoff retry
        // absorbs it and the job completes as if nothing happened.
        let plan = FaultPlan::single(FaultPoint::BlifRead, None, 0, FaultAction::IoError);
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let report = e.execute(&Job::blif_file("tiny_mux", tiny_mux_path(), e.base_config()));
        assert!(report.is_done(), "retry should absorb the injected error: {:?}", report.outcome);
        assert_eq!(e.optimizer_runs(), 1);
    }

    #[test]
    fn persistent_blif_read_faults_exhaust_the_retry_budget() {
        // Every attempt fails → permanent failure carrying the path.
        let plan = FaultPlan::parse("blif-read=io").unwrap();
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let report = e.execute(&Job::blif_file("tiny_mux", tiny_mux_path(), e.base_config()));
        assert!(matches!(&report.outcome,
            JobOutcome::Failed(msg) if msg.contains("tiny_mux.blif")
                && msg.contains("injected i/o error")));
        assert_eq!(e.optimizer_runs(), 0);
    }

    #[test]
    fn disk_store_survives_engine_restart() {
        let dir = temp_dir("store");
        let first_line;
        {
            let e =
                Engine::new(PipelineConfig::fast()).with_store(ResultStore::open(&dir).unwrap());
            let report = e.execute(&Job::suite("c432", e.base_config()));
            assert!(report.is_done() && !report.cached);
            assert_eq!(e.optimizer_runs(), 1);
            first_line = report.to_jsonl();
        }
        // "Restart": a fresh engine, warm only from disk.
        let e = Engine::new(PipelineConfig::fast()).with_store(ResultStore::open(&dir).unwrap());
        assert_eq!(e.recovered_records(), 1);
        let report = e.execute(&Job::suite("c432", e.base_config()));
        assert!(report.cached, "second run must be served from the disk store");
        assert_eq!(e.optimizer_runs(), 0);
        assert_eq!(e.disk_hits(), 1);
        assert_eq!(report.to_jsonl(), first_line, "disk round trip is byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_write_faults_degrade_to_memory_only_operation() {
        // A store append that keeps failing must not fail the job.
        let dir = temp_dir("wfault");
        let plan = FaultPlan::parse("store-write@c432=io").unwrap();
        let e = Engine::new(PipelineConfig::fast())
            .with_store(ResultStore::open(&dir).unwrap())
            .with_fault_plan(plan);
        assert!(e.execute(&Job::suite("c432", e.base_config())).is_done());
        assert_eq!(e.store().unwrap().len(), 0, "append was suppressed by the fault");
        // Memory cache still answers.
        assert!(e.execute(&Job::suite("c432", e.base_config())).cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_cuts_an_injected_hang() {
        // A 60 s injected hang under a 0.2 s deadline: the watchdog cancels
        // the token, the sliced delay loop notices, and the job is reported
        // `Failed(timeout …)` — promptly, not after the full hang.
        let plan =
            FaultPlan::single(FaultPoint::JobRun, Some("c432"), 0, FaultAction::DelayMs(60_000));
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let mut job = Job::suite("c432", e.base_config());
        job.timeout_s = Some(0.2);
        let start = Instant::now();
        let report = e.execute(&job);
        assert!(start.elapsed() < Duration::from_secs(30), "watchdog must cut the 60 s hang");
        assert!(matches!(&report.outcome,
            JobOutcome::Failed(msg) if msg == "timeout after 0.2s"));
        assert!(!report.cached);
        // The worker is healthy: the next job runs to completion.
        assert!(e.execute(&Job::suite("alu2", e.base_config())).is_done());
    }

    fn fixture_path(name: &str) -> String {
        format!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fixtures/{}"), name)
    }

    fn verify_job(name: &str, b: &str, config: &PipelineConfig) -> Job {
        Job::verify(
            name,
            JobSource::BlifFile(fixture_path("tiny_mux.blif").into()),
            JobSource::BlifFile(fixture_path(b).into()),
            config,
        )
    }

    #[test]
    fn verify_job_proves_equivalent_pair_and_caches_the_verdict() {
        let e = engine();
        let job = verify_job("pair", "tiny_mux_demorgan.blif", e.base_config());
        let first = e.execute(&job);
        assert!(first.is_done() && !first.cached);
        assert_eq!(
            first.to_jsonl(),
            "{\"job\":\"pair\",\"status\":\"verified\",\"equivalent\":true}"
        );
        assert_eq!(e.verify_runs(), 1);
        assert_eq!(e.optimizer_runs(), 0, "verify jobs never run the optimizer");

        // Resubmission: the fingerprint-pair cache answers byte-identically
        // without re-running the SAT check.
        let second = e.execute(&job);
        assert!(second.cached);
        assert_eq!(second.to_jsonl(), first.to_jsonl());
        assert_eq!(e.verify_runs(), 1);
        assert_eq!(e.cached_verifications(), 1);
        assert_eq!(e.cache_hits(), 1);
    }

    #[test]
    fn bounded_engine_evicts_verify_verdicts_too() {
        let e = Engine::with_cache_capacity(PipelineConfig::fast(), 1);
        let proven = verify_job("proven", "tiny_mux_demorgan.blif", e.base_config());
        let refuted = verify_job("refuted", "tiny_mux_mutated.blif", e.base_config());
        assert!(e.execute(&proven).is_done());
        assert!(e.execute(&refuted).is_done());
        // Capacity 1: the second pair's verdict evicted the first's.
        assert_eq!(e.cached_verifications(), 1);
        assert_eq!(e.cache_evictions(), 1);
        assert!(e.execute(&refuted).cached, "the latest verdict is kept");
        assert!(!e.execute(&proven).cached, "the evicted verdict is proven again");
        assert_eq!(e.verify_runs(), 3);
        assert_eq!(e.cache_evictions(), 2);
    }

    #[test]
    fn verify_job_refutes_a_mutated_pair_with_a_counterexample() {
        let e = engine();
        let report = e.execute(&verify_job("pair", "tiny_mux_mutated.blif", e.base_config()));
        match &report.outcome {
            JobOutcome::Verified(verdict) => {
                assert!(!verdict.equivalent);
                // The mutation flips AND→OR on output g (index 1); the
                // counterexample is simulator-confirmed by the engine
                // before it is reported.
                assert_eq!(verdict.output_index, Some(1));
                let bits = verdict.counterexample.as_deref().unwrap();
                assert_eq!(bits.len(), 4, "one bit per primary input");
                assert!(bits.chars().all(|c| c == '0' || c == '1'));
            }
            other => panic!("expected a refuted verdict, got {other:?}"),
        }
        let line = report.to_jsonl();
        assert!(line.contains("\"status\":\"verified\"") && line.contains("\"equivalent\":false"));
        assert!(line.contains("\"counterexample\":") && line.contains("\"output_index\":1"));
    }

    #[test]
    fn verify_job_with_mismatched_interfaces_fails_cleanly() {
        let e = engine();
        let job = Job::verify(
            "bad-pair",
            JobSource::BlifFile(fixture_path("tiny_mux.blif").into()),
            JobSource::BlifText(".model t\n.inputs x\n.outputs y\n.gate inv y x\n.end".into()),
            e.base_config(),
        );
        let report = e.execute(&job);
        assert!(matches!(&report.outcome,
            JobOutcome::Failed(msg) if msg.contains("interface mismatch")));
    }

    #[test]
    fn injected_cec_panic_becomes_a_failed_report() {
        let plan = FaultPlan::single(FaultPoint::Cec, Some("pair"), 0, FaultAction::Panic);
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let report = e.execute(&verify_job("pair", "tiny_mux_demorgan.blif", e.base_config()));
        assert!(matches!(&report.outcome,
            JobOutcome::Failed(msg) if msg.contains("cec panicked")
                && msg.contains("injected panic at cec")));
        // The engine is not wedged, and the failure was not cached: an
        // unfaulted resubmission verifies for real.
        let retry = e.execute(&verify_job("pair", "tiny_mux_demorgan.blif", e.base_config()));
        assert!(retry.is_done() && !retry.cached);
        assert_eq!(e.verify_runs(), 2);
    }

    #[test]
    fn verify_deadline_cuts_an_injected_hang() {
        let plan =
            FaultPlan::single(FaultPoint::Cec, Some("pair"), 0, FaultAction::DelayMs(60_000));
        let e = Engine::new(PipelineConfig::fast()).with_fault_plan(plan);
        let mut job = verify_job("pair", "tiny_mux_demorgan.blif", e.base_config());
        job.timeout_s = Some(0.2);
        let start = Instant::now();
        let report = e.execute(&job);
        assert!(start.elapsed() < Duration::from_secs(30), "watchdog must cut the hang");
        assert!(matches!(&report.outcome,
            JobOutcome::Failed(msg) if msg == "timeout after 0.2s"));
        assert_eq!(e.cached_verifications(), 0, "a timed-out check is not cached");
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_result() {
        let e = engine();
        let baseline = e.execute(&Job::suite("c432", e.base_config()));
        let e2 = engine();
        let mut job = Job::suite("c432", e2.base_config());
        job.timeout_s = Some(600.0);
        let timed = e2.execute(&job);
        assert!(timed.is_done() && !timed.cached);
        assert_eq!(timed.to_jsonl(), baseline.to_jsonl());
    }
}
