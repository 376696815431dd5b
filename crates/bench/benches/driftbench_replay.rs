//! Replay-driver ingestion cost: what the `driftbench` grid pays to push a
//! Zipf-skewed multi-stream fleet through the sharded engine, next to a
//! plain sequential `submit` of the same records.
//!
//! Each bench function builds its engine once, outside the timed region;
//! an iteration replays the whole fleet into it and ends with a `flush()`
//! barrier, so the numbers price ingestion, not engine spawn and join.
//!
//! The interleaving itself is pure bookkeeping (weight table + burst
//! slicing), so skewed replay must track the sequential feed closely — the
//! numbers in `BENCH_driftbench.json` price exactly that overhead, plus the
//! scenario-generation cost of the adversarial catalogue.

use criterion::{black_box, criterion_group, Criterion, Throughput};
use std::sync::Arc;

use optwin_engine::{replay, EngineBuilder, EventSink, MemorySink, ReplayConfig};
use optwin_stream::ScenarioKind;

const STREAMS: usize = 64;
const LEN: usize = 2_000;

/// One abrupt-scenario sequence per stream, generated once outside the
/// timed region.
fn fleet_data() -> Vec<Vec<f64>> {
    (0..STREAMS)
        .map(|s| {
            ScenarioKind::AbruptMeanShift
                .generate(LEN, 1_000 + s as u64)
                .values
        })
        .collect()
}

fn engine(sink: &Arc<MemorySink>) -> optwin_engine::EngineHandle {
    let mut builder = EngineBuilder::new()
        .queue_capacity(64 * 1_024)
        .sink(Arc::clone(sink) as Arc<dyn EventSink>);
    for id in 0..STREAMS as u64 {
        builder = builder.stream_spec(id, "ddm".parse().expect("valid spec"));
    }
    builder.build().expect("valid engine")
}

fn bench_replay(c: &mut Criterion) {
    let data = fleet_data();
    let sources: Vec<(u64, &[f64])> = data
        .iter()
        .enumerate()
        .map(|(s, values)| (s as u64, &values[..]))
        .collect();
    let total = (STREAMS * LEN) as u64;

    let mut group = c.benchmark_group("driftbench_replay_64x2k_ddm");
    group.throughput(Throughput::Elements(total));
    group.sample_size(10);

    for (label, exponent) in [("zipf_1.1", 1.1), ("uniform", 0.0)] {
        let sink = Arc::new(MemorySink::new());
        let handle = engine(&sink);
        let config = ReplayConfig {
            zipf_exponent: exponent,
            ..ReplayConfig::with_seed(9)
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = replay(&handle, &sources, &config).expect("engine running");
                handle.flush().expect("no ingestion errors");
                black_box((report.records, sink.drain().len()))
            });
        });
        handle.shutdown().expect("clean drain");
    }

    let sink = Arc::new(MemorySink::new());
    let handle = engine(&sink);
    let mut records = Vec::with_capacity(256);
    group.bench_function("sequential_submit", |b| {
        b.iter(|| {
            for (id, values) in &sources {
                for chunk in values.chunks(256) {
                    records.clear();
                    records.extend(chunk.iter().map(|&v| (*id, v)));
                    handle.submit(&records).expect("engine running");
                }
            }
            handle.flush().expect("no ingestion errors");
            black_box(sink.drain().len())
        });
    });
    handle.shutdown().expect("clean drain");
    group.finish();

    // Scenario-generation cost of the full adversarial catalogue — the other
    // fixed cost every driftbench cell pays before the engine sees a record.
    let mut group = c.benchmark_group("driftbench_scenario_generation_20k");
    group.throughput(Throughput::Elements(20_000));
    group.sample_size(10);
    for scenario in ScenarioKind::all() {
        group.bench_function(scenario.id(), |b| {
            b.iter(|| black_box(scenario.generate(20_000, 42)).values.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay);

fn main() {
    benches();
    criterion::write_json_report("driftbench");
}
