//! End-to-end Table 1 flow (generate → map → place → time → gsg / GS /
//! gsg+GS) on a small suite subset; the full table is produced by the
//! `table1` binary.  The measured quantity corresponds to the CPU-time
//! columns 7–9 of Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rapids_bench::table1::run_benchmark;
use rapids_flow::PipelineConfig;

fn bench_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_flow");
    group.sample_size(10);
    for name in ["c432", "alu2"] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, &name| {
            b.iter(|| run_benchmark(std::hint::black_box(name), &PipelineConfig::fast()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
