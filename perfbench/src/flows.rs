//! The table1 and signoff workloads: untraced passes through
//! `rapids_flow::Pipeline`, the traced pass that calls each layer's public
//! function directly in the order `Pipeline` uses, and the independent
//! output checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use rapids_cec::{check_equivalence_with_stats, CecConfig, CecResult};
use rapids_celllib::Library;
use rapids_core::{CancelToken, OptimizationOutcome, Optimizer, OptimizerConfig, OptimizerKind};
use rapids_flow::{
    CircuitSource, FlowComparison, Pipeline, PipelineConfig, PipelineReport, SafetyNet,
    StageTimings,
};
use rapids_legalize::{legalize, refine_worst_slack, LegalizeConfig, RefineConfig, RowModel};
use rapids_netlist::Network;
use rapids_placement::{place, Placement};
use rapids_serve::report::DesignQor;
use rapids_sim::{check_equivalence_exhaustive, check_equivalence_random};
use rapids_timing::Sta;

use crate::inputs::{placement_seed, signoff_designs, table1_designs, Design};
use crate::stats::{fold_spans, keep_ratio, median, overhead_pct, ratio, SpanFold};
use crate::yardstick::RunTimer;
use crate::{peak_rss_mb, setup_repeated, Metrics, Outcome};

/// The three optimizers of one Table 1 row, in the order `Pipeline` runs
/// them.
const KINDS: [OptimizerKind; 3] =
    [OptimizerKind::Rewiring, OptimizerKind::Sizing, OptimizerKind::Combined];

/// Deadline of one signoff design (optimization plus proof).
const SIGNOFF_DEADLINE: Duration = Duration::from_secs(20);

/// Random vectors for the simulation check of designs too wide to
/// enumerate.
const CHECK_VECTORS: usize = 4096;

/// Widest design the simulation check enumerates exhaustively.
const EXHAUSTIVE_INPUTS: usize = 16;

/// table1: the paper's default configuration, placement seed from the
/// workload seed.
fn table1_config(seed: u64) -> PipelineConfig {
    PipelineConfig { seed: placement_seed(seed), ..PipelineConfig::default() }
}

/// signoff: legalize, gsg+GS with ES swaps nudged into free row slots,
/// and the SAT safety net.
fn signoff_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig {
        seed: placement_seed(seed),
        legalize: LegalizeConfig::enabled(),
        verify_equivalence: true,
        safety_net: SafetyNet::Sat,
        ..PipelineConfig::default()
    };
    config.optimizer.include_inverting_swaps = true;
    config
}

/// Runs `f` with a cancellation token that fires after `limit`.
fn with_deadline<T>(limit: Duration, f: impl FnOnce(&CancelToken) -> T) -> T {
    let token = CancelToken::new();
    let (done, finished) = mpsc::channel::<()>();
    let token_ref = &token;
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
                token_ref.cancel();
            }
        });
        let out = f(&token);
        drop(done);
        out
    })
}

/// Independent check of one optimized network: simulation against the
/// input (exhaustive up to 16 inputs, random vectors above) and the
/// reported final delay re-derived by the reference analyzer on the grown
/// placement.
fn check_output(
    input: &Network,
    output: &Network,
    grown: &Placement,
    config: &PipelineConfig,
    final_delay_ns: f64,
) -> Result<(), String> {
    let verdict = if input.inputs().len() <= EXHAUSTIVE_INPUTS {
        check_equivalence_exhaustive(input, output)
    } else {
        check_equivalence_random(input, output, CHECK_VECTORS, 0xC0DE_CAFE)
    };
    if !verdict.is_equivalent() {
        return Err(format!("{}: simulation differs: {verdict:?}", input.name()));
    }
    let library = Library::standard_035um();
    let reference = Sta::analyze_reference(output, &library, grown, &config.timing);
    let delay = reference.critical_delay_ns();
    if (delay - final_delay_ns).abs() > 1e-9 * delay.abs().max(1.0) {
        return Err(format!(
            "{}: reported final delay {final_delay_ns} ns, reference STA {delay} ns",
            input.name()
        ));
    }
    Ok(())
}

/// Span folds by name.
pub type Folds = std::collections::BTreeMap<String, SpanFold>;

/// Per-layer accumulators of one traced pass.
#[derive(Default)]
pub struct Layers {
    pub metrics: Metrics,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.metrics.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// Times `f` as layer `metric`, inside a benchmark span `span`.
    pub fn timed<T>(
        &mut self,
        metric: &'static str,
        span: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = rapids_obs::span(span);
        let start = Instant::now();
        let out = f();
        self.add(metric, start.elapsed().as_secs_f64());
        out
    }

    pub fn add_sta_work(&mut self, outcome: &OptimizationOutcome) {
        self.add("timing.full_retimes", outcome.sta.full_refreshes as f64);
        self.add("timing.update_retimes", outcome.sta.incremental_updates as f64);
        self.add("timing.gates_retimed", outcome.sta.gates_retimed as f64);
    }
}

/// Counter deltas of the process-global registry over one traced pass.
struct RegistryDelta(std::collections::BTreeMap<String, u64>);

impl RegistryDelta {
    fn start() -> Self {
        RegistryDelta(rapids_obs::global().snapshot().counters)
    }

    fn get(&self, now: &std::collections::BTreeMap<String, u64>, name: &str) -> u64 {
        now.get(name).copied().unwrap_or(0) - self.0.get(name).copied().unwrap_or(0)
    }

    /// Folds the registry's work counters into `layers`.
    fn finish(self, layers: &mut Layers) {
        let now = rapids_obs::global().snapshot().counters;
        let d = |name: &str| self.get(&now, name);
        layers.add("core.swaps", d("optimizer.swaps_applied") as f64);
        layers.add("core.es_swaps", d("optimizer.es_swaps") as f64);
        layers.add("core.passes", d("optimizer.passes") as f64);
        layers.add("core.rollbacks", d("optimizer.rollbacks") as f64);
        layers.add(
            "core.swap_keep_ratio",
            keep_ratio(d("optimizer.swaps_applied"), d("optimizer.swaps_rolled_back")),
        );
        layers.add("sizing.gates_resized", d("sizer.gates_resized") as f64);
        layers.add("sizing.passes", (d("sizer.passes") + d("optimizer.sizing_passes")) as f64);
        layers.add("legalize.nudges", d("legalize.nudges") as f64);
        layers.add("legalize.nudge_fallbacks", d("legalize.nudge_fallbacks") as f64);
    }
}

/// Arms the span sink and the registry delta around `f`; returns what
/// `f` returned and the fold of every span emitted meanwhile.
pub fn traced<T>(layers: &mut Layers, f: impl FnOnce(&mut Layers) -> T) -> (T, Folds) {
    rapids_obs::trace::install();
    rapids_obs::trace::take_events();
    let delta = RegistryDelta::start();
    let out = f(layers);
    rapids_obs::trace::disable();
    delta.finish(layers);
    (out, fold_spans(&rapids_obs::trace::take_events()))
}

/// Adds the layer metrics folded from the program's own spans.
pub fn add_span_metrics(layers: &mut Layers, folds: &Folds) {
    let total = |name: &str| folds.get(name).map_or(0.0, |f| f.total_s);
    layers.add("timing.span.sta.full_s", total("sta.full"));
    layers.add("timing.span.sta.parasitics_s", total("sta.parasitics"));
    layers.add("cec.span.encode_s", total("cec.encode"));
    layers.add("cec.span.sweep_s", total("cec.sweep"));
    layers.add("cec.span.solve_s", total("cec.solve"));
}

/// Prints a span fold to stderr, one name a line.
pub fn print_folds(title: &str, folds: &Folds) {
    eprintln!("{title} (span, count, total s, self s):");
    for (name, f) in folds {
        eprintln!("  {name:<24} {:>7} {:>10.4} {:>10.4}", f.count, f.total_s, f.self_s);
    }
}

/// Median of every layer metric over the traced passes.
fn median_layers(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for name in passes.iter().flat_map(|m| m.keys()) {
        let values: Vec<f64> = passes.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
        out.insert(name, median(&values));
    }
    out
}

// ---------------------------------------------------------------- table1

fn pipeline_report(
    network: &Network,
    kind: OptimizerKind,
    initial_delay_ns: f64,
    working: Network,
    outcome: OptimizationOutcome,
) -> PipelineReport {
    PipelineReport {
        name: network.name().to_string(),
        kind,
        initial_delay_ns,
        network: working,
        outcome,
        equivalence_verified: false,
        equivalence_proven: false,
        legalization: None,
        stage_timings: StageTimings::default(),
    }
}

/// One Table 1 row with every layer called directly: place → STA →
/// gsg, GS, gsg+GS on the shared placement.
pub fn decomposed_row(
    config: &PipelineConfig,
    network: &Network,
    layers: &mut Layers,
) -> FlowComparison {
    let library = Library::standard_035um();
    let placement = layers.timed("placement.place_s", "bench.place", || {
        place(network, &library, &config.placer, config.seed)
    });
    layers.add("placement.hpwl_um", placement.total_hpwl_um(network));
    let initial = layers.timed("timing.sta_full_s", "bench.sta", || {
        Sta::analyze_with_threads(
            network,
            &library,
            &placement,
            &config.timing,
            config.threads.max(1),
        )
    });
    let initial_delay_ns = initial.critical_delay_ns();
    let [rewiring, sizing, combined] = KINDS.map(|kind| {
        let mut working = network.clone();
        let optimizer = Optimizer::new(OptimizerConfig {
            kind,
            threads: config.optimizer.threads.max(config.threads),
            ..config.optimizer.clone()
        });
        let (metric, span) = match kind {
            OptimizerKind::Rewiring => ("core.gsg_s", "bench.gsg"),
            OptimizerKind::Sizing => ("sizing.gs_s", "bench.gs"),
            OptimizerKind::Combined => ("core.combined_s", "bench.combined"),
        };
        let outcome = layers.timed(metric, span, || {
            optimizer.optimize_with_rows(&mut working, &library, &placement, None, &config.timing)
        });
        layers.add_sta_work(&outcome);
        pipeline_report(network, kind, initial_delay_ns, working, outcome)
    });
    FlowComparison {
        name: network.name().to_string(),
        gate_count: network.logic_gate_count(),
        initial_delay_ns,
        rewiring,
        sizing,
        combined,
        placement,
        legalization: None,
    }
}

/// Mean delay improvement of one optimizer over a pass, percent.
pub fn mean_gain(rows: &[FlowComparison], kind: OptimizerKind) -> f64 {
    100.0 - mean_share(rows.iter().map(|r| delay_pair(&r.report(kind).outcome)))
}

/// Mean of `after / before` over a pass, percent (100 = unchanged): the
/// delay and area metrics of gsg+GS.
pub fn mean_share(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let shares: Vec<f64> = pairs.map(|(before, after)| 100.0 * after / before).collect();
    shares.iter().sum::<f64>() / shares.len().max(1) as f64
}

/// `(before, after)` critical-path delay and cell area of one outcome.
pub fn delay_pair(o: &OptimizationOutcome) -> (f64, f64) {
    (o.initial_delay_ns, o.final_delay_ns)
}

/// See [`delay_pair`].
pub fn area_pair(o: &OptimizationOutcome) -> (f64, f64) {
    (o.initial_area_um2, o.final_area_um2)
}

fn check_rows(designs: &[Design], rows: &[FlowComparison], config: &PipelineConfig) -> Vec<String> {
    let mut errors = Vec::new();
    for row in rows {
        let design = designs.iter().find(|d| d.name == row.name).expect("rows come from designs");
        for kind in KINDS {
            let report = row.report(kind);
            let grown = row.grown_placement(kind);
            if let Err(e) = check_output(
                &design.network,
                &report.network,
                &grown,
                config,
                report.outcome.final_delay_ns,
            ) {
                errors.push(format!("{kind}: {e}"));
            }
        }
    }
    errors
}

/// What the pass loop of table1 and signoff collected.
struct Passes<R> {
    /// Results of the first untraced pass, kept for the output checks.
    first: Vec<R>,
    /// Every design run of the untraced passes.
    runs: RunTimer,
    /// Time of each decomposed pass run with the span sink off, seconds
    /// (design runs only, at the nominal host speed).
    bare_s: Vec<f64>,
    /// The same with the span sink armed.
    traced_s: Vec<f64>,
    /// Layer metrics of each traced pass.
    layer_passes: Vec<Metrics>,
    /// Span fold of the last traced pass.
    folds: Folds,
    /// Peak resident memory after the passes, MB.
    peak_rss_mb: f64,
}

/// Runs untraced passes over the window (at least one).  With `trace`,
/// each untraced pass is followed by the decomposed pass twice, first
/// with the span sink off and then armed: both must reproduce the first
/// untraced pass's records byte for byte, and the ratio of their times is
/// the cost of tracing alone.
fn run_passes<R>(
    outcome: &mut Outcome,
    seconds: f64,
    trace: bool,
    untraced: impl Fn(&mut Outcome, &mut RunTimer) -> Vec<R>,
    decomposed: impl Fn(&mut Outcome, &mut Layers, &mut RunTimer) -> Vec<R>,
    record: impl Fn(&R) -> String,
) -> Passes<R> {
    let records = |results: &[R]| results.iter().map(&record).collect::<Vec<_>>();
    let mut runs = RunTimer::default();
    let (mut bare_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut layer_passes = Vec::new();
    let mut folds = Folds::new();
    let start = Instant::now();
    let first = untraced(outcome, &mut runs);
    let reference = records(&first);
    loop {
        if trace {
            let mut timer = RunTimer::default();
            let results = decomposed(outcome, &mut Layers::default(), &mut timer);
            bare_s.push(timer.normalized().iter().sum());
            outcome.compare_pass("decomposed", &reference, &records(&results));

            let mut layers = Layers::default();
            let mut timer = RunTimer::default();
            let (results, pass_folds) =
                traced(&mut layers, |layers| decomposed(outcome, layers, &mut timer));
            traced_s.push(timer.normalized().iter().sum());
            add_span_metrics(&mut layers, &pass_folds);
            outcome.compare_pass("traced", &reference, &records(&results));
            layer_passes.push(layers.metrics);
            folds = pass_folds;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let results = untraced(outcome, &mut runs);
        outcome.compare_pass("untraced", &reference, &records(&results));
    }
    // Before the output checks, which are the benchmark's own work.
    let peak_rss_mb = peak_rss_mb();
    Passes { first, runs, bare_s, traced_s, layer_passes, folds, peak_rss_mb }
}

impl<R> Passes<R> {
    /// The per-layer metrics of a traced run: medians over the traced
    /// passes, the host-speed figures of the untraced passes, and the
    /// tracing overhead.
    fn layer_metrics(&self, designs: &[Design]) -> Metrics {
        print_folds("span fold of the last traced pass", &self.folds);
        let mut layers = median_layers(&self.layer_passes);
        let (raw_s, flow_s) = self.median_pass_s(designs);
        layers.insert("host.raw_flow_s", raw_s);
        layers.insert("host.normalized_flow_s", flow_s);
        layers.insert("host.kernel_ms", 1e3 * median(self.runs.kernel()));
        layers.insert(
            "obs.trace_overhead_pct",
            overhead_pct(median(&self.traced_s), median(&self.bare_s)),
        );
        layers
    }

    /// One pass over `designs` at each design's median run time over the
    /// untraced passes, as measured and normalized, seconds.  A burst of
    /// host noise slows the runs it overlaps, and a per-design median
    /// drops them.
    fn median_pass_s(&self, designs: &[Design]) -> (f64, f64) {
        let n = designs.len();
        let of = |times: &[f64], d: usize| -> f64 {
            median(&times.iter().skip(d).step_by(n).copied().collect::<Vec<_>>())
        };
        eprintln!("per design (name, logic gates, median run s as measured, normalized):");
        let (mut raw_s, mut flow_s) = (0.0, 0.0);
        for (d, design) in designs.iter().enumerate() {
            let (raw, normalized) = (of(self.runs.raw(), d), of(self.runs.normalized(), d));
            raw_s += raw;
            flow_s += normalized;
            eprintln!(
                "  {:<8} {:>6} {raw:>8.3} {normalized:>8.3}",
                design.name,
                design.network.logic_gate_count()
            );
        }
        eprintln!(
            "pass {flow_s:.3} s normalized, {raw_s:.3} s as measured; kernel median {:.3} ms; \
             {} passes",
            1e3 * median(self.runs.kernel()),
            self.runs.raw().len() / n
        );
        (raw_s, flow_s)
    }

    /// The timing metrics of an untraced run over `designs`.  A job here
    /// is one pass over the design set, the unit a user of this workload
    /// runs; per-design run times spread by design size and by the
    /// structure a seed draws, so their percentiles would move with the
    /// seed, not with the code.  `flow_s` is one pass at each design's
    /// median run time.
    fn timing_metrics(&self, designs: &[Design], metrics: &mut Metrics) {
        let (_, flow_s) = self.median_pass_s(designs);
        let passes: Vec<f64> =
            self.runs.normalized().chunks_exact(designs.len()).map(|p| p.iter().sum()).collect();
        metrics.insert("flow_s", flow_s);
        metrics.insert("job_p50_ms", 1e3 * median(&passes));
        metrics.insert("jobs_per_s", 1.0 / flow_s);
        metrics.insert("peak_rss_mb", self.peak_rss_mb);
    }
}

/// The BLIF text of every design, the identity of a workload's inputs.
fn design_texts(designs: &[Design]) -> Vec<String> {
    designs.iter().map(|d| rapids_netlist::blif::write_string(&d.network)).collect()
}

/// The table1 workload.
pub fn table1(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (designs, setup_s) = setup_repeated(|| table1_designs(seed), |d| design_texts(d));
    let config = table1_config(seed);
    let pipeline = Pipeline::new(config.clone());
    let mut outcome = Outcome::default();
    let untraced = |outcome: &mut Outcome, runs: &mut RunTimer| {
        let mut rows = Vec::new();
        for design in &designs {
            let row = runs.time(|| {
                pipeline.compare_optimizers(CircuitSource::Mapped(design.network.clone()))
            });
            outcome.attempted += 1;
            match row {
                Ok(row) => rows.push(row),
                Err(e) => outcome.fail(format!("{}: {e}", design.name)),
            }
        }
        rows
    };
    let decomposed = |outcome: &mut Outcome, layers: &mut Layers, timer: &mut RunTimer| {
        outcome.attempted += designs.len() as u64;
        let rows: Vec<FlowComparison> = designs
            .iter()
            .map(|d| timer.time(|| decomposed_row(&config, &d.network, layers)))
            .collect();
        layers.add("core.gsg_gain_pct", mean_gain(&rows, OptimizerKind::Rewiring));
        layers.add("core.combined_gain_pct", mean_gain(&rows, OptimizerKind::Combined));
        rows
    };
    let record = |row: &FlowComparison| DesignQor::from_comparison(row).to_json();
    let passes = run_passes(&mut outcome, seconds, trace, untraced, decomposed, record);
    for error in check_rows(&designs, &passes.first, &config) {
        outcome.fail(error);
    }

    if trace {
        outcome.metrics = passes.layer_metrics(&designs);
    } else {
        let m = &mut outcome.metrics;
        m.insert("setup_s", setup_s);
        passes.timing_metrics(&designs, m);
        let combined = || passes.first.iter().map(|r| &r.combined.outcome);
        m.insert("combined_delay_pct", mean_share(combined().map(delay_pair)));
        m.insert("combined_area_pct", mean_share(combined().map(area_pair)));
    }
    outcome
}

// --------------------------------------------------------------- signoff

/// What one signoff design run produced.
struct SignoffRun {
    name: String,
    /// Deterministic QoR record, compared byte for byte across passes.
    record: String,
    delay: (f64, f64),
    area: (f64, f64),
    proven: bool,
    legal: bool,
    /// Kept for the independent checks of the first pass.
    network: Network,
    grown: Placement,
}

fn signoff_record(
    name: &str,
    outcome: &OptimizationOutcome,
    hpwl_um: f64,
    proven: bool,
    legal: bool,
) -> String {
    format!(
        "{name} delay {}->{} area {}->{} swaps {} es {} resized {} hpwl {hpwl_um} proven {proven} legal {legal}",
        outcome.initial_delay_ns,
        outcome.final_delay_ns,
        outcome.initial_area_um2,
        outcome.final_area_um2,
        outcome.swaps_applied,
        outcome.inverting_swaps_applied,
        outcome.gates_resized,
    )
}

/// What the flow returns for one signoff design, before the benchmark
/// checks it.
struct Signed {
    outcome: OptimizationOutcome,
    network: Network,
    grown: Placement,
    hpwl_um: f64,
    proven: bool,
}

/// Checks the grown placement's legality, the benchmark's own work, so
/// it runs after the timed flow.
fn signoff_run(design: &Design, signed: Signed) -> SignoffRun {
    let Signed { outcome, network, grown, hpwl_um, proven } = signed;
    let library = Library::standard_035um();
    let legal = grown.check_legal(&network, &library).is_ok();
    SignoffRun {
        name: design.name.clone(),
        record: signoff_record(&design.name, &outcome, hpwl_um, proven, legal),
        delay: delay_pair(&outcome),
        area: area_pair(&outcome),
        proven,
        legal,
        network,
        grown,
    }
}

/// One signoff design through the `Pipeline`.
fn pipeline_signoff(pipeline: &Pipeline, design: &Design) -> Result<Signed, String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let prepared = pipeline
            .prepare(CircuitSource::Mapped(design.network.clone()))
            .map_err(|e| e.to_string())?;
        let report = with_deadline(SIGNOFF_DEADLINE, |token| {
            pipeline.optimize_cancellable(&prepared, OptimizerKind::Combined, token)
        })
        .map_err(|e| e.to_string())?;
        let hpwl_um = prepared.legalization.map_or(0.0, |l| l.hpwl_um);
        Ok(Signed {
            grown: report.grown_placement(&prepared.placement),
            outcome: report.outcome,
            network: report.network,
            hpwl_um,
            proven: report.equivalence_proven,
        })
    }));
    run.unwrap_or_else(|_| Err(format!("{}: signoff flow panicked", design.name)))
}

/// One signoff design with every layer called directly, in `Pipeline`
/// order: place → legalize → row model → refine → STA → gsg+GS → CEC.
fn decomposed_signoff(
    config: &PipelineConfig,
    design: &Design,
    layers: &mut Layers,
) -> Result<Signed, String> {
    let library = Library::standard_035um();
    let network = &design.network;
    let mut placement = layers.timed("placement.place_s", "bench.place", || {
        place(network, &library, &config.placer, config.seed)
    });
    let (legalized, mut model) = layers.timed("legalize.abacus_s", "bench.legalize", || {
        let outcome = legalize(network, &library, &mut placement);
        (outcome, RowModel::build(network, &library, &placement))
    });
    layers.max("legalize.max_displacement_um", legalized.max_displacement_um);
    if config.legalize.refine_worst_k > 0 {
        layers.timed("legalize.refine_s", "bench.refine", || {
            refine_worst_slack(
                network,
                &library,
                &mut placement,
                &mut model,
                &config.timing,
                &RefineConfig {
                    worst_k: config.legalize.refine_worst_k,
                    displacement_budget_um: config.legalize.refine_budget_um,
                },
            )
        });
    }
    let hpwl_um = placement.total_hpwl_um(network);
    layers.add("placement.hpwl_um", hpwl_um);
    layers.timed("timing.sta_full_s", "bench.sta", || {
        Sta::analyze_with_threads(
            network,
            &library,
            &placement,
            &config.timing,
            config.threads.max(1),
        )
    });
    let mut working = network.clone();
    let optimizer = Optimizer::new(OptimizerConfig {
        kind: OptimizerKind::Combined,
        threads: config.optimizer.threads.max(config.threads),
        ..config.optimizer.clone()
    });
    let rows = config.legalize.nudge_es.then_some(&model);
    let (outcome, verdict, stats) = with_deadline(SIGNOFF_DEADLINE, |token| {
        let optimizer = optimizer.with_cancel(token.clone());
        let outcome = layers.timed("core.combined_s", "bench.combined", || {
            optimizer.optimize_with_rows(&mut working, &library, &placement, rows, &config.timing)
        });
        let cec = CecConfig {
            seed: config.seed ^ 0x5eed_cafe,
            cancel: Some(token.clone()),
            ..CecConfig::default()
        };
        let (verdict, stats) = layers.timed("cec.check_s", "bench.cec", || {
            check_equivalence_with_stats(network, &working, &cec)
        });
        (outcome, verdict, stats)
    });
    layers.add_sta_work(&outcome);
    layers.add("cec.conflicts", stats.conflicts as f64);
    layers.add("cec.decisions", stats.decisions as f64);
    layers.add("cec.propagations", stats.propagations as f64);
    layers.add("cec.solved_pairs", stats.solved_pairs as f64);
    layers.add("cec.dag_nodes", stats.dag_nodes as f64);
    layers.add("cec.sweep_candidates", stats.sweep_candidates as f64);
    layers.add("cec.sweep_proven", stats.sweep_proven as f64);
    if !matches!(verdict, CecResult::EquivalentProven) {
        return Err(format!("{}: proof did not close: {verdict:?}", design.name));
    }
    let mut grown = placement;
    for &(gate, at) in &outcome.hosted_inverters {
        grown.host_at(gate, at);
    }
    Ok(Signed { outcome, network: working, grown, hpwl_um, proven: true })
}

/// The signoff workload.
pub fn signoff(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (designs, setup_s) = setup_repeated(|| signoff_designs(seed), |d| design_texts(d));
    let config = signoff_config(seed);
    let pipeline = Pipeline::new(config.clone());
    let mut outcome = Outcome::default();
    let untraced = |outcome: &mut Outcome, timer: &mut RunTimer| {
        let mut runs = Vec::new();
        for design in &designs {
            let run = timer.time(|| pipeline_signoff(&pipeline, design));
            let run = run.map(|signed| signoff_run(design, signed));
            outcome.attempted += 1;
            match run {
                Ok(run) if run.proven => runs.push(run),
                Ok(_) => outcome.fail(format!("{}: equivalence not proven", design.name)),
                Err(e) => outcome.fail(e),
            }
        }
        runs
    };
    let decomposed = |outcome: &mut Outcome, layers: &mut Layers, timer: &mut RunTimer| {
        let mut runs = Vec::new();
        for design in &designs {
            outcome.attempted += 1;
            match timer.time(|| decomposed_signoff(&config, design, layers)) {
                Ok(signed) => runs.push(signoff_run(design, signed)),
                Err(e) => outcome.fail(format!("traced: {e}")),
            }
        }
        let count = |f: fn(&SignoffRun) -> bool| runs.iter().filter(|r| f(r)).count() as u64;
        layers.add("cec.proved_frac", ratio(count(|r| r.proven), designs.len() as u64));
        layers.add("legalize.legal_frac", ratio(count(|r| r.legal), designs.len() as u64));
        layers.add("core.combined_gain_pct", 100.0 - mean_share(runs.iter().map(|r| r.delay)));
        runs
    };
    let record = |run: &SignoffRun| run.record.clone();
    let passes = run_passes(&mut outcome, seconds, trace, untraced, decomposed, record);
    for run in &passes.first {
        let design = designs.iter().find(|d| d.name == run.name).expect("runs come from designs");
        if let Err(e) =
            check_output(&design.network, &run.network, &run.grown, &config, run.delay.1)
        {
            outcome.fail(e);
        }
    }

    if trace {
        let mut layers = passes.layer_metrics(&designs);
        let proven = layers.remove("cec.sweep_proven").unwrap_or(0.0);
        let candidates = layers.remove("cec.sweep_candidates").unwrap_or(0.0);
        layers.insert("cec.sweep_proven_ratio", ratio(proven as u64, candidates as u64));
        outcome.metrics = layers;
    } else {
        let legal = passes.first.iter().filter(|r| r.legal).count();
        eprintln!(
            "signoff: {} of {} designs proven, {legal} legal",
            passes.first.len(),
            designs.len()
        );
        let m = &mut outcome.metrics;
        m.insert("setup_s", setup_s);
        passes.timing_metrics(&designs, m);
        m.insert("combined_delay_pct", mean_share(passes.first.iter().map(|r| r.delay)));
        m.insert("combined_area_pct", mean_share(passes.first.iter().map(|r| r.area)));
    }
    outcome
}
