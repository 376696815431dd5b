//! Per-element detector throughput (the §3.4 runtime claim).
//!
//! The paper reports per-iteration costs of ~1e-5 s for OPTWIN and ~6e-6 s
//! for ADWIN; the absolute numbers depend on the host, but the *shape* —
//! both detectors ingest elements in the microsecond range, OPTWIN's cost is
//! O(1) amortized and does not grow with the window — is what this benchmark
//! verifies.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optwin_baselines::{Adwin, Ddm, Ecdd, Eddm, Kswin, PageHinkley, Stepd};
use optwin_core::{CutTableRegistry, DriftDetector, Optwin, OptwinConfig};
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig};

/// A stationary binary error stream (no drift), the worst case for OPTWIN
/// because the window grows to `w_max`.
fn stationary_stream(len: usize) -> Vec<f64> {
    let schedule = DriftSchedule::stationary(len);
    ErrorStream::new(ErrorStreamConfig::binary(DriftKind::Sudden, schedule), 99).collect_all()
}

/// OPTWIN at ρ = 0.5 over the process-wide cut table for `w_max`, built and
/// fully precomputed *before* any timing starts: the OPTWIN rows measure
/// ingestion, not the one-off table build (a cold-start cost of its own).
fn warm_optwin(w_max: usize) -> impl Fn() -> Optwin {
    let config = OptwinConfig::builder()
        .robustness(0.5)
        .max_window(w_max)
        .build()
        .unwrap();
    CutTableRegistry::global()
        .get_or_build(&config)
        .unwrap()
        .precompute_all()
        .unwrap();
    move || Optwin::with_shared_table(config.clone()).unwrap()
}

fn bench_detectors(c: &mut Criterion) {
    let stream = stationary_stream(20_000);
    let mut group = c.benchmark_group("detector_ingest_20k_stationary");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    let optwin_4k = warm_optwin(4_000);
    group.bench_function("OPTWIN rho=0.5 (w_max=4k)", |b| {
        b.iter(|| {
            let mut d = optwin_4k();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("ADWIN", |b| {
        b.iter(|| {
            let mut d = Adwin::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("DDM", |b| {
        b.iter(|| {
            let mut d = Ddm::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("EDDM", |b| {
        b.iter(|| {
            let mut d = Eddm::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("STEPD", |b| {
        b.iter(|| {
            let mut d = Stepd::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("ECDD", |b| {
        b.iter(|| {
            let mut d = Ecdd::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("PageHinkley", |b| {
        b.iter(|| {
            let mut d = PageHinkley::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.bench_function("KSWIN", |b| {
        b.iter(|| {
            let mut d = Kswin::with_defaults();
            for &x in &stream {
                black_box(d.add_element(x));
            }
        });
    });
    group.finish();

    // The batch-first hot paths: `add_batch` over the whole stream, on the
    // same pre-warmed shared cut table as the scalar tier above.
    let mut group = c.benchmark_group("detector_ingest_20k_batched");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);
    group.bench_function("OPTWIN rho=0.5 (w_max=4k) add_batch", |b| {
        b.iter(|| {
            let mut d = optwin_4k();
            black_box(d.add_batch(&stream)).drifts()
        });
    });
    group.bench_function("KSWIN add_batch", |b| {
        b.iter(|| {
            let mut d = Kswin::with_defaults();
            black_box(d.add_batch(&stream)).drifts()
        });
    });
    group.finish();

    // OPTWIN cost as a function of w_max: amortized O(1) means the per-element
    // cost should stay flat as the window bound grows.
    let mut group = c.benchmark_group("optwin_cost_vs_w_max");
    group.sample_size(10);
    for w_max in [1_000usize, 4_000, 16_000] {
        group.throughput(Throughput::Elements(stream.len() as u64));
        let optwin = warm_optwin(w_max);
        group.bench_with_input(BenchmarkId::from_parameter(w_max), &w_max, |b, _| {
            b.iter(|| {
                let mut d = optwin();
                for &x in &stream {
                    black_box(d.add_element(x));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
