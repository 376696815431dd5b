//! End-to-end tests of the sharded multi-stream engine, run through the
//! public facade exactly as a downstream user would.
//!
//! The headline test drives a **1 M-element, 64-stream** mixed workload (all
//! 8 detector kinds) through pipelined `EngineHandle::submit` calls on an
//! engine with ≥ 4 shards and a deliberately small queue bound, verified
//! byte-identical to per-element scalar ingestion.

use std::sync::Arc;

use optwin::{
    DetectorSpec, DriftEvent, DriftStatus, EngineBuilder, EngineHandle, EventSink, MemorySink,
};

/// Deterministic pseudo-random jitter in [-0.5, 0.5) (SplitMix64).
fn jitter(i: u64) -> f64 {
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

const N_STREAMS: u64 = 64;
const ELEMENTS_PER_STREAM: usize = 15_625; // 64 × 15 625 = 1 000 000
const SHARDS: usize = 8;

/// The spec assigned to a stream: all 8 detector kinds, tiled over the
/// stream ids, with a small OPTWIN window / KSWIN buffer so the
/// million-element run stays fast in debug builds.
fn spec_of(stream: u64) -> DetectorSpec {
    let text = match stream % 8 {
        0 => "optwin:rho=0.5,w_max=600",
        1 => "adwin",
        2 => "ddm",
        3 => "eddm",
        4 => "stepd",
        5 => "ecdd",
        6 => "page_hinkley",
        _ => "kswin:window_size=120,stat_size=25,alpha=0.0001",
    };
    text.parse().expect("valid spec string")
}

/// The `i`-th element of a stream: every stream degrades at its own drift
/// point; binary-only detectors get Bernoulli indicators, the rest get
/// real-valued losses.
fn element(stream: u64, i: usize) -> f64 {
    let drift_at = ELEMENTS_PER_STREAM / 2 + (stream as usize * 37) % 2_000;
    let p = if i < drift_at { 0.06 } else { 0.55 };
    let u = jitter(stream.wrapping_mul(0x9E37_79B9) ^ i as u64) + 0.5;
    if spec_of(stream).binary_only() {
        f64::from(u < p)
    } else {
        (p + 0.4 * (u - 0.5)).clamp(0.0, 1.0)
    }
}

/// An engine with every stream of the tiling pre-registered by spec.
fn engine(shards: usize, queue_capacity: usize) -> (EngineHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .shards(shards)
        .queue_capacity(queue_capacity)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    for stream in 0..N_STREAMS {
        builder = builder.stream_spec(stream, spec_of(stream));
    }
    (builder.build().expect("valid engine"), sink)
}

/// The acceptance workload: 1 M elements over 64 streams submitted without
/// any barrier but the final flush, through a queue bound small enough that
/// backpressure engages, compared event-for-event against scalar
/// per-element ingestion of every stream.
#[test]
fn one_million_elements_across_64_streams_match_scalar_ingestion() {
    let per_stream_chunk = 128usize;
    let chunk_records = per_stream_chunk * N_STREAMS as usize;
    // Two chunks of headroom per shard: submission regularly outruns
    // detection, so the bounded queue genuinely blocks.
    let (handle, sink) = engine(SHARDS, chunk_records * 2 / SHARDS);
    assert!(handle.num_shards() >= 4);

    let mut records = Vec::with_capacity(chunk_records);
    let mut start = 0usize;
    while start < ELEMENTS_PER_STREAM {
        let end = (start + per_stream_chunk).min(ELEMENTS_PER_STREAM);
        records.clear();
        for stream in 0..N_STREAMS {
            for i in start..end {
                records.push((stream, element(stream, i)));
            }
        }
        handle.submit(&records).expect("engine running");
        start = end;
    }
    handle.flush().expect("no ingestion errors");
    let stats = handle.stats().expect("engine running");
    handle.shutdown().expect("clean shutdown");
    assert_eq!(stats.streams, N_STREAMS as usize);
    assert_eq!(stats.elements, 1_000_000);
    let engine_events = sink.drain();
    assert_eq!(stats.drifts, engine_events.len() as u64);

    // Scalar reference: per-element ingestion, stream by stream.
    let mut expected = Vec::new();
    for stream in 0..N_STREAMS {
        let mut detector = spec_of(stream).build().expect("valid spec");
        for i in 0..ELEMENTS_PER_STREAM {
            if detector.add_element(element(stream, i)) == DriftStatus::Drift {
                expected.push((stream, i as u64));
            }
        }
    }

    // Events of different streams interleave arbitrarily; compare as
    // globally ordered sets.
    let mut got: Vec<(u64, u64)> = engine_events.iter().map(|e| (e.stream, e.seq)).collect();
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        got, expected,
        "engine events must match scalar ingestion exactly"
    );

    // Every stream was injected with one genuine drift; the fleet detects
    // the vast majority of them.
    let streams_with_detection: std::collections::HashSet<u64> =
        engine_events.iter().map(|e| e.stream).collect();
    assert!(
        streams_with_detection.len() >= 56,
        "only {} of 64 streams saw a detection",
        streams_with_detection.len()
    );
}

/// Shard count must never change results — only wall-clock time.
#[test]
fn results_are_invariant_under_shard_count() {
    let run = |shards: usize| -> Vec<DriftEvent> {
        let (handle, sink) = engine(shards, 1 << 16);
        let mut events = Vec::new();
        let mut records = Vec::new();
        for chunk_start in (0..4_000usize).step_by(500) {
            records.clear();
            for stream in 0..16u64 {
                for i in chunk_start..chunk_start + 500 {
                    records.push((stream, element(stream, i)));
                }
            }
            handle.submit(&records).unwrap();
            handle.flush().unwrap();
            let mut batch = sink.drain();
            batch.sort_unstable_by_key(|e| (e.stream, e.seq));
            events.extend(batch);
        }
        handle.shutdown().unwrap();
        events
    };
    let single = run(1);
    let four = run(4);
    let sixteen = run(16);
    assert_eq!(single, four);
    assert_eq!(four, sixteen);
}

/// Per-stream snapshots expose the counters the serving layer needs.
#[test]
fn stream_snapshots_report_lifetime_counters() {
    let (handle, _sink) = engine(4, 1 << 16);
    let records: Vec<(u64, f64)> = (0..2_000).map(|i| (3, element(3, i))).collect();
    handle.submit(&records).unwrap();
    let snap = handle.stream_stats(3).unwrap().expect("registered by spec");
    assert_eq!(snap.stream, 3);
    assert_eq!(snap.elements, 2_000);
    assert!(snap.detector_seconds >= 0.0);
    assert_eq!(snap.detector, "EDDM");
    assert_eq!(snap.spec, Some(spec_of(3)));
    handle.shutdown().unwrap();
}
