//! The correctness gate: a single-threaded reference fold over the same
//! inputs, and the checks a run must pass.

use std::time::Instant;

use optwin_core::DriftStatus;

use crate::gen::{Inputs, Workload};

/// Fewest open-loop events a run may yield: p99 then has at least ten
/// samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 1_000;

/// An event as `(stream, seq, status)`, with the status as a sort key.
pub type Event = (u64, u64, u8);

/// Sort key of a status.
pub fn status_code(status: DriftStatus) -> u8 {
    match status {
        DriftStatus::Stable => 0,
        DriftStatus::Warning => 1,
        DriftStatus::Drift => 2,
    }
}

/// What the reference fold produced.
#[derive(Debug)]
pub struct Reference {
    /// Every event, sorted.
    pub events: Vec<Event>,
    /// Records each stream received.
    pub counts: Vec<u64>,
    /// Wall time of building the detectors and folding the records.
    pub seconds: f64,
}

impl Reference {
    /// Total records folded.
    pub fn records(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Builds each stream's detector from its spec and folds that stream's
/// records through `add_batch`, stream after stream on this thread — the
/// same records the engine received from batches `0..submitted`.
pub fn reference_fold(w: &Workload, inputs: &Inputs, submitted: usize) -> Reference {
    let streams = w.streams as usize;
    let warm_batches = inputs.warmup.len().min(submitted);
    let pool_batches = submitted - warm_batches;
    let (cycles, rest) = if inputs.pool.len() == 0 {
        (0, 0)
    } else {
        (
            pool_batches / inputs.pool.len(),
            pool_batches % inputs.pool.len(),
        )
    };
    let split = |records: &[(u64, f64)]| {
        let mut per_stream = vec![Vec::new(); streams];
        for &(stream, value) in records {
            per_stream[stream as usize].push(value);
        }
        per_stream
    };
    let warm = split(inputs.warmup.prefix(warm_batches));
    let pool = split(inputs.pool.records());
    // How far into each stream's pool values the last, partial cycle got.
    let mut partial = vec![0usize; streams];
    for &(stream, _) in inputs.pool.prefix(rest) {
        partial[stream as usize] += 1;
    }

    let specs = w.parsed_specs();
    let mut events = Vec::new();
    let mut counts = vec![0u64; streams];
    let started = Instant::now();
    for s in 0..streams {
        let chunks = std::iter::once(&warm[s][..])
            .chain(std::iter::repeat_n(&pool[s][..], cycles))
            .chain(std::iter::once(&pool[s][..partial[s]]));
        let mut detector = None;
        let mut seq = 0u64;
        for chunk in chunks.filter(|c| !c.is_empty()) {
            let detector = detector.get_or_insert_with(|| {
                specs[s % specs.len()]
                    .build()
                    .expect("workload specs build")
            });
            let outcome = detector.add_batch(chunk);
            events.extend(
                outcome
                    .drift_indices
                    .iter()
                    .map(|&i| (s as u64, seq + i as u64, status_code(DriftStatus::Drift))),
            );
            if w.warnings {
                events.extend(
                    outcome
                        .warning_indices
                        .iter()
                        .map(|&i| (s as u64, seq + i as u64, status_code(DriftStatus::Warning))),
                );
            }
            seq += chunk.len() as u64;
        }
        counts[s] = seq;
    }
    let seconds = started.elapsed().as_secs_f64();
    events.sort_unstable();
    Reference {
        events,
        counts,
        seconds,
    }
}

/// Compares the engine's events with the reference fold's; the error names
/// the first difference.
pub fn compare_events(engine: &[Event], reference: &[Event]) -> Result<(), String> {
    if engine == reference {
        return Ok(());
    }
    let first = engine
        .iter()
        .zip(reference)
        .position(|(a, b)| a != b)
        .unwrap_or(engine.len().min(reference.len()));
    Err(format!(
        "engine emitted {} events, the reference fold {}; first difference at #{first}: \
         engine {:?}, reference {:?}",
        engine.len(),
        reference.len(),
        engine.get(first),
        reference.get(first)
    ))
}

/// Fails a run whose open-loop phase yielded too few events for its p99.
pub fn check_latency_samples(samples: usize) -> Result<(), String> {
    if samples < MIN_LATENCY_SAMPLES {
        return Err(format!(
            "the open-loop phase yielded {samples} events, fewer than the \
             {MIN_LATENCY_SAMPLES} its p99 needs"
        ));
    }
    Ok(())
}

/// Compares the per-stream record counts an engine reports with the
/// expected ones (streams the engine does not know count 0).
pub fn compare_counts(engine: &[(u64, u64)], expected: &[u64]) -> Result<(), String> {
    let mut seen = vec![0u64; expected.len()];
    for &(stream, elements) in engine {
        match seen.get_mut(stream as usize) {
            Some(slot) => *slot = elements,
            None => {
                return Err(format!(
                    "the engine knows stream {stream}, outside the fleet"
                ))
            }
        }
    }
    match seen.iter().zip(expected).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(s) => Err(format!(
            "stream {s}: the engine holds {} records, expected {}",
            seen[s], expected[s]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    #[test]
    fn a_run_with_fewer_than_1000_events_fails() {
        assert!(check_latency_samples(999).is_err());
        assert!(check_latency_samples(0).is_err());
        assert!(check_latency_samples(1_000).is_ok());
    }

    #[test]
    fn event_differences_are_named() {
        let a = [(1, 5, 2), (2, 9, 2)];
        assert!(compare_events(&a, &a).is_ok());
        let err = compare_events(&a, &[(1, 5, 2), (2, 10, 2)]).unwrap_err();
        assert!(err.contains("#1"), "{err}");
        assert!(compare_events(&a, &a[..1]).is_err());
        assert!(compare_counts(&[(0, 3), (2, 1)], &[3, 0, 1]).is_ok());
        assert!(compare_counts(&[(0, 3)], &[3, 0, 1]).is_err());
    }

    #[test]
    fn reference_fold_covers_exactly_the_submitted_records() {
        let w = Workload {
            warmup_records: 2_048,
            pool_records: 8_192,
            grow_records: 500,
            ..WORKLOADS[1]
        };
        let inputs = Inputs::generate(&w, 1, true);
        for submitted in [
            0,
            1,
            inputs.warmup.len(),
            inputs.warmup.len() + 2 * inputs.pool.len() + 3,
        ] {
            let expected: usize = (0..submitted).map(|g| inputs.batch(g).len()).sum();
            let reference = reference_fold(&w, &inputs, submitted);
            assert_eq!(reference.records(), expected as u64, "{submitted}");
        }
    }
}
