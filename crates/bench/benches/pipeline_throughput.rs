//! Criterion bench: full Pan-Tompkins pipeline throughput per
//! configuration — the behavioral-simulation cost the paper quotes as
//! "around 300 seconds" per 20 000-sample recording in MATLAB. Our Rust
//! evaluator is the substrate that makes the Table 2 / Fig 11 searches
//! cheap.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pan_tompkins::{PipelineConfig, QrsDetector};

fn bench_pipeline(c: &mut Criterion) {
    let record = ecg::nsrdb::paper_record().truncated(2_000);
    let mut group = c.benchmark_group("pipeline_2k_samples");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    let cases = [
        ("exact", PipelineConfig::exact()),
        ("b9", PipelineConfig::least_energy([10, 12, 2, 8, 16])),
        ("b10", PipelineConfig::least_energy([10, 12, 4, 8, 16])),
        (
            "max_approx",
            PipelineConfig::least_energy([16, 16, 4, 8, 16]),
        ),
    ];
    for (name, config) in cases {
        group.bench_function(name, |b| {
            b.iter_batched(
                || QrsDetector::new(config),
                |mut det| black_box(det.detect(record.samples()).r_peaks().len()),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
