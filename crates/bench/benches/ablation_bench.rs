//! Ablation study: sensitivity of the `gsg` result to interconnect
//! resistivity.  Prints the observed improvements alongside the timing
//! measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rapids_celllib::Library;
use rapids_circuits::benchmark;
use rapids_core::{Optimizer, OptimizerConfig, OptimizerKind};
use rapids_placement::{place, PlacerConfig};
use rapids_timing::TimingConfig;

/// Sweep the wire resistance: higher resistivity makes interconnect dominate
/// and should increase the value of rewiring.
fn bench_resistivity_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_resistivity");
    group.sample_size(10);
    let library = Library::standard_035um();
    let network = benchmark("c432").expect("suite benchmark");
    let placement = place(&network, &library, &PlacerConfig::fast(), 11);
    for factor in [1.0_f64, 4.0] {
        let timing =
            TimingConfig { unit_resistance_kohm_per_cm: 2.4 * factor, ..TimingConfig::default() };
        let mut working = network.clone();
        let outcome = Optimizer::new(OptimizerConfig::fast(OptimizerKind::Rewiring)).optimize(
            &mut working,
            &library,
            &placement,
            &timing,
        );
        eprintln!(
            "resistance x{factor}: gsg improvement {:.2}% ({} swaps)",
            outcome.delay_improvement_percent(),
            outcome.swaps_applied
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("r_x{factor}")),
            &timing,
            |b, timing| {
                b.iter(|| {
                    let mut n = network.clone();
                    Optimizer::new(OptimizerConfig::fast(OptimizerKind::Rewiring))
                        .optimize(&mut n, &library, &placement, timing)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_resistivity_sweep);
criterion_main!(benches);
