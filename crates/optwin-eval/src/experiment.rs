//! The Table 1 experiment configurations and runner.
//!
//! Table 1 of the paper evaluates every detector on seven synthetic
//! configurations, each repeated 30 times with different seeds:
//!
//! 1. gradual binary drift (Bernoulli error stream),
//! 2. gradual non-binary drift (real-valued error stream),
//! 3. sudden binary drift,
//! 4. sudden non-binary drift,
//! 5. sudden STAGGER (Naive Bayes errors),
//! 6. sudden RandomRBF (Naive Bayes errors),
//! 7. sudden AGRAWAL (Naive Bayes errors),
//!
//! reporting the average detection delay, FP count, micro-averaged precision,
//! recall and F1 per detector.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use optwin_baselines::DetectorSpec;
use optwin_core::DriftDetector;
use optwin_engine::{EngineBuilder, EventSink, MemorySink, RebalancePolicy};
use optwin_learners::{NaiveBayes, OnlineLearner};
use optwin_stream::drift::MultiConceptStream;
use optwin_stream::generators::{
    Agrawal, AgrawalFunction, RandomRbf, RandomRbfConfig, Stagger, StaggerConcept,
};
use optwin_stream::{DriftKind, DriftSchedule, ErrorStream, ErrorStreamConfig, InstanceStream};

use crate::metrics::{score_detections, AggregateMetrics, DetectionOutcome};

/// One of the paper's Table 1 experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Table1Experiment {
    /// Bernoulli error stream with gradual drifts.
    GradualBinary,
    /// Real-valued error stream with gradual drifts.
    GradualNonBinary,
    /// Bernoulli error stream with sudden drifts.
    SuddenBinary,
    /// Real-valued error stream with sudden drifts.
    SuddenNonBinary,
    /// STAGGER stream classified by Naive Bayes, sudden concept changes.
    Stagger,
    /// RandomRBF stream classified by Naive Bayes, sudden concept changes.
    RandomRbf,
    /// AGRAWAL stream classified by Naive Bayes, sudden concept changes.
    Agrawal,
}

impl Table1Experiment {
    /// All seven experiments in the order of Table 1.
    #[must_use]
    pub fn all() -> [Table1Experiment; 7] {
        [
            Table1Experiment::GradualBinary,
            Table1Experiment::GradualNonBinary,
            Table1Experiment::SuddenBinary,
            Table1Experiment::SuddenNonBinary,
            Table1Experiment::Stagger,
            Table1Experiment::RandomRbf,
            Table1Experiment::Agrawal,
        ]
    }

    /// The label used in the paper's table.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Table1Experiment::GradualBinary => "gradual binary drift",
            Table1Experiment::GradualNonBinary => "gradual non-binary drift",
            Table1Experiment::SuddenBinary => "sudden binary drift",
            Table1Experiment::SuddenNonBinary => "sudden non-binary drift",
            Table1Experiment::Stagger => "sudden STAGGER",
            Table1Experiment::RandomRbf => "sudden RANDOM RBF",
            Table1Experiment::Agrawal => "sudden AGRAWAL",
        }
    }

    /// Whether the experiment produces binary error indicators (DDM, EDDM and
    /// ECDD can only run on those; the paper omits them from the non-binary
    /// rows, and so does [`run_table1`]).
    #[must_use]
    pub fn binary_signal(&self) -> bool {
        !matches!(
            self,
            Table1Experiment::GradualNonBinary | Table1Experiment::SuddenNonBinary
        )
    }

    /// Stream length used by the experiment. The error-stream experiments use
    /// shorter streams than the 100 000-instance classification streams, as
    /// in the paper's MOA "Concept Drift interface" runs.
    #[must_use]
    pub fn default_stream_len(&self) -> usize {
        match self {
            Table1Experiment::GradualBinary
            | Table1Experiment::GradualNonBinary
            | Table1Experiment::SuddenBinary
            | Table1Experiment::SuddenNonBinary => 20_000,
            _ => 100_000,
        }
    }

    /// Default number of drifts injected.
    ///
    /// The error-stream experiments inject a **single** upward drift per run
    /// (error rate 5 % → 25 %, or loss mean 0.2 → 0.5). This matches the
    /// paper's reported 100 % recall for the one-directional detectors (DDM,
    /// ECDD, and OPTWIN in its degradation-only configuration), which could
    /// not all detect a drift that lowers the error rate. The classification
    /// experiments keep the paper's "drift every 20 000 instances" layout
    /// (four drifts per 100 000-instance stream): there every concept switch
    /// degrades the stale classifier, so all drifts are upward in the error
    /// signal.
    #[must_use]
    pub fn default_n_drifts(&self) -> usize {
        match self {
            Table1Experiment::GradualBinary
            | Table1Experiment::GradualNonBinary
            | Table1Experiment::SuddenBinary
            | Table1Experiment::SuddenNonBinary => 1,
            _ => 4,
        }
    }

    /// Builds the error sequence (one value per stream element, as seen by a
    /// drift detector) plus its ground-truth schedule for the given seed and
    /// stream length.
    #[must_use]
    pub fn build_error_sequence(&self, seed: u64, stream_len: usize) -> (Vec<f64>, DriftSchedule) {
        let interval = stream_len / (self.default_n_drifts() + 1);
        match self {
            Table1Experiment::GradualBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1_000.min(interval / 2));
                let stream = ErrorStream::new(
                    ErrorStreamConfig::binary(DriftKind::Gradual, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::GradualNonBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1_000.min(interval / 2));
                let stream = ErrorStream::new(
                    ErrorStreamConfig::real_valued(DriftKind::Gradual, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::SuddenBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let stream = ErrorStream::new(
                    ErrorStreamConfig::binary(DriftKind::Sudden, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::SuddenNonBinary => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let stream = ErrorStream::new(
                    ErrorStreamConfig::real_valued(DriftKind::Sudden, schedule.clone()),
                    seed,
                );
                (stream.collect_all(), schedule)
            }
            Table1Experiment::Stagger | Table1Experiment::RandomRbf | Table1Experiment::Agrawal => {
                let schedule = DriftSchedule::every(interval, stream_len, 1);
                let mut stream = self.build_classification_stream(seed, &schedule);
                let mut learner = NaiveBayes::new(&stream.schema(), stream.n_classes());
                let mut errors = Vec::with_capacity(stream_len);
                for _ in 0..stream_len {
                    let inst = stream.next_instance();
                    let error = if learner.predict(&inst) == inst.label {
                        0.0
                    } else {
                        1.0
                    };
                    errors.push(error);
                    learner.learn(&inst);
                }
                (errors, schedule)
            }
        }
    }

    /// Builds the classification stream behind the STAGGER / RandomRBF /
    /// AGRAWAL experiments.
    ///
    /// # Panics
    ///
    /// Panics if called for one of the error-stream experiments.
    #[must_use]
    pub fn build_classification_stream(
        &self,
        seed: u64,
        schedule: &DriftSchedule,
    ) -> MultiConceptStream {
        let n_segments = schedule.n_drifts() + 1;
        let concepts: Vec<Box<dyn InstanceStream + Send>> = match self {
            Table1Experiment::Stagger => (0..n_segments)
                .map(|k| {
                    Box::new(Stagger::new(StaggerConcept::cycle(k), seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            Table1Experiment::RandomRbf => (0..n_segments)
                .map(|k| {
                    let config = RandomRbfConfig {
                        model_seed: seed.wrapping_mul(31).wrapping_add(k as u64),
                        ..RandomRbfConfig::default()
                    };
                    Box::new(RandomRbf::new(config, seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            Table1Experiment::Agrawal => (0..n_segments)
                .map(|k| {
                    Box::new(Agrawal::new(AgrawalFunction::cycle(k), seed + k as u64))
                        as Box<dyn InstanceStream + Send>
                })
                .collect(),
            _ => panic!("{self:?} is not a classification experiment"),
        };
        MultiConceptStream::new(concepts, schedule.clone(), seed + 1_000)
    }
}

/// The result of running one detector over one generated stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRun {
    /// Indices at which the detector flagged drifts.
    pub detections: Vec<usize>,
    /// Scoring of those detections against the ground truth.
    pub outcome: DetectionOutcome,
    /// Wall-clock seconds spent inside the detector (`add_element` only).
    pub detector_seconds: f64,
}

/// Runs a detector over a pre-generated error sequence (through its batch
/// path) and scores it.
#[must_use]
pub fn run_detector_on_sequence(
    detector: &mut (impl DriftDetector + ?Sized),
    errors: &[f64],
    schedule: &DriftSchedule,
) -> DetectionRun {
    let start = std::time::Instant::now();
    let detections = detector.add_batch(errors).drift_indices;
    let detector_seconds = start.elapsed().as_secs_f64();
    let outcome = score_detections(schedule, &detections);
    DetectionRun {
        detections,
        outcome,
        detector_seconds,
    }
}

/// Aggregated Table 1 row for one (experiment, detector) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Aggregate {
    /// Experiment the row belongs to.
    pub experiment: Table1Experiment,
    /// Detector label (as printed in the table).
    pub detector: String,
    /// Micro-averaged metrics over the repetitions.
    pub metrics: AggregateMetrics,
    /// Mean wall-clock seconds per run spent inside the detector.
    pub mean_detector_seconds: f64,
}

/// Number of elements per stream fed to the engine per `submit` call by the
/// Table 1 runner. Large enough to amortize fan-out overhead, small enough
/// to keep the record staging buffers cache-friendly.
const TABLE1_BATCH: usize = 4_096;

/// Per-shard queue bound for the Table 1 runner, in records: a few
/// submission chunks of headroom so generation pipelines ahead of detection
/// without the queues growing unbounded.
const TABLE1_QUEUE_CAPACITY: usize = 256 * 1_024;

/// Runs one Table 1 experiment for a `(label, spec)` detector line-up —
/// usually [`crate::driftbench::paper_lineup`] — over a number of
/// repetitions, one engine stream per `(entry, repetition)` run. Entries
/// whose spec is [`DetectorSpec::binary_only`] are dropped on experiments
/// without a [`Table1Experiment::binary_signal`], as in the paper, so the
/// result has one row per remaining entry (possibly none).
///
/// `stream_len` overrides the experiment's default length (useful for tests
/// and quick runs); pass `None` for the paper-scale streams. `shards` picks
/// the engine shard count (clamped to `1..=runs`); `None` keeps
/// [`EngineBuilder::new`]'s one shard per CPU core. With `rebalance` the
/// engine's stream placement is recomputed from observed load at a flush
/// barrier after every repetition's traffic — the `--rebalance` CLI knob.
/// Results are identical for every shard count, with and without
/// rebalancing: each run is an isolated detector stream, the batch path is
/// contractually equivalent to element-wise ingestion, and migrations
/// preserve per-stream record order bit-exactly.
///
/// The runner drives the engine end to end: every run is pre-registered
/// declaratively via [`EngineBuilder::stream_spec`], every record chunk is
/// **pipelined** through [`optwin_engine::EngineHandle::submit`] (bounded
/// queues provide backpressure; no per-chunk barrier), and a single final
/// `flush` drains the queues before the [`MemorySink`] is read back.
///
/// # Panics
///
/// Panics if a spec fails validation or the engine shuts down mid-run,
/// which only happens when a detector panics on a worker thread.
#[must_use]
pub fn run_table1(
    experiment: Table1Experiment,
    entries: &[(String, DetectorSpec)],
    repetitions: usize,
    stream_len: Option<usize>,
    base_seed: u64,
    shards: Option<usize>,
    rebalance: bool,
) -> Vec<Table1Aggregate> {
    let entries: Vec<&(String, DetectorSpec)> = entries
        .iter()
        .filter(|(_, spec)| experiment.binary_signal() || !spec.binary_only())
        .collect();
    let stream_len = stream_len.unwrap_or_else(|| experiment.default_stream_len());

    // Pre-generate the error sequences once per repetition so that every
    // detector sees exactly the same data (as in MOA).
    let sequences: Vec<(Vec<f64>, DriftSchedule)> = (0..repetitions)
        .map(|r| experiment.build_error_sequence(base_seed + r as u64, stream_len))
        .collect();

    // One engine stream per (spec, repetition) run.
    let n_streams = (entries.len() * repetitions).max(1);
    // Ids are consecutive *within* a repetition (`rep * entries + d`):
    // each submitted chunk carries one repetition's streams, and the engine
    // pins stream `id` to shard `id % shards`, so consecutive ids spread a
    // chunk round-robin over every shard worker. The transposed layout
    // (`d * repetitions + rep`) would stride a chunk's ids by `repetitions`
    // and collapse the fan-out onto `shards / gcd(repetitions, shards)`
    // shards — fully sequential at the paper's 30 repetitions on 6 cores.
    let stream_id = |d: usize, rep: usize| (rep * entries.len() + d) as u64;

    let sink = Arc::new(MemorySink::new());
    let mut builder = EngineBuilder::new()
        .queue_capacity(TABLE1_QUEUE_CAPACITY)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some(shards) = shards {
        builder = builder.shards(shards.clamp(1, n_streams));
    }
    for (d, (_, spec)) in entries.iter().enumerate() {
        for rep in 0..repetitions {
            builder = builder.stream_spec(stream_id(d, rep), spec.clone());
        }
    }
    let handle = builder
        .build()
        .expect("specs are valid and stream ids unique by construction");

    // Pipeline every repetition's sequence to all of its detector streams in
    // chunks; the shard workers detect in parallel while the next chunks are
    // being staged. Without `--rebalance` one flush at the very end is the
    // only barrier; with it, every repetition boundary becomes a flush
    // barrier followed by a load-aware rebalance (which must not change a
    // single detection — verified by `rebalancing_grid_is_deterministic`).
    let mut records: Vec<(u64, f64)> = Vec::with_capacity(TABLE1_BATCH * entries.len());
    for (rep, (errors, _)) in sequences.iter().enumerate() {
        for start in (0..errors.len()).step_by(TABLE1_BATCH) {
            let chunk = &errors[start..(start + TABLE1_BATCH).min(errors.len())];
            records.clear();
            for d in 0..entries.len() {
                let id = stream_id(d, rep);
                records.extend(chunk.iter().map(|&e| (id, e)));
            }
            handle.submit(&records).expect("engine running");
        }
        if rebalance {
            handle.flush().expect("all streams registered");
            handle
                .rebalance(RebalancePolicy::DetectorSeconds)
                .expect("engine running");
        }
    }
    handle.flush().expect("all streams registered");

    // The sink preserves per-stream emission order (increasing seq), so
    // grouping by stream yields sorted detection lists.
    let mut detections: HashMap<u64, Vec<usize>> = HashMap::new();
    for event in sink.drain() {
        detections
            .entry(event.stream)
            .or_default()
            .push(event.seq as usize);
    }
    let stats: HashMap<u64, f64> = handle
        .stream_snapshots()
        .expect("engine running")
        .into_iter()
        .map(|s| (s.stream, s.detector_seconds))
        .collect();
    handle.shutdown().expect("clean shutdown");

    entries
        .iter()
        .enumerate()
        .map(|(d, (label, _))| {
            let mut outcomes = Vec::with_capacity(repetitions);
            let mut total_seconds = 0.0;
            for (rep, (_, schedule)) in sequences.iter().enumerate() {
                let id = stream_id(d, rep);
                let run_detections = detections.remove(&id).unwrap_or_default();
                outcomes.push(score_detections(schedule, &run_detections));
                total_seconds += stats.get(&id).copied().unwrap_or(0.0);
            }
            Table1Aggregate {
                experiment,
                detector: label.clone(),
                metrics: AggregateMetrics::from_outcomes(&outcomes),
                mean_detector_seconds: total_seconds / repetitions.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driftbench::paper_lineup;

    #[test]
    fn experiment_metadata() {
        assert_eq!(Table1Experiment::all().len(), 7);
        assert!(Table1Experiment::SuddenBinary.binary_signal());
        assert!(!Table1Experiment::SuddenNonBinary.binary_signal());
        assert_eq!(Table1Experiment::Stagger.label(), "sudden STAGGER");
        assert_eq!(Table1Experiment::Agrawal.default_stream_len(), 100_000);
    }

    #[test]
    fn error_sequences_have_expected_shape() {
        for exp in [
            Table1Experiment::SuddenBinary,
            Table1Experiment::GradualBinary,
        ] {
            let (errors, schedule) = exp.build_error_sequence(1, 5_000);
            assert_eq!(errors.len(), 5_000);
            assert_eq!(schedule.n_drifts(), 1);
            assert!(errors.iter().all(|&e| e == 0.0 || e == 1.0));
            // The single drift is an error-rate increase.
            let drift = schedule.positions()[0];
            let before: f64 = errors[..drift].iter().sum::<f64>() / drift as f64;
            let after: f64 = errors[drift..].iter().sum::<f64>() / (errors.len() - drift) as f64;
            assert!(after > before);
        }
        let (errors, _) = Table1Experiment::SuddenNonBinary.build_error_sequence(1, 3_000);
        assert!(errors.iter().any(|&e| e != 0.0 && e != 1.0));
        // The classification experiments keep four drifts.
        let (_, schedule) = Table1Experiment::Stagger.build_error_sequence(1, 10_000);
        assert_eq!(schedule.n_drifts(), 4);
    }

    #[test]
    fn classification_error_sequence_reflects_drifts() {
        // The Naive Bayes error rate must jump right after each concept
        // change — that is what the detectors key on.
        let (errors, schedule) = Table1Experiment::Stagger.build_error_sequence(3, 10_000);
        assert_eq!(errors.len(), 10_000);
        let drift = schedule.positions()[0];
        let before: f64 = errors[drift - 500..drift].iter().sum::<f64>() / 500.0;
        let after: f64 = errors[drift..drift + 500].iter().sum::<f64>() / 500.0;
        assert!(
            after > before + 0.1,
            "error rate should jump at the drift: {before} -> {after}"
        );
    }

    #[test]
    fn run_detector_on_sequence_scores_consistently() {
        let (errors, schedule) = Table1Experiment::SuddenBinary.build_error_sequence(5, 5_000);
        let spec: DetectorSpec = "optwin:rho=0.5,w_max=1000".parse().unwrap();
        let mut detector = spec.build().unwrap();
        let run = run_detector_on_sequence(detector.as_mut(), &errors, &schedule);
        assert_eq!(
            run.outcome.true_positives + run.outcome.false_negatives,
            schedule.n_drifts()
        );
        assert!(run.detector_seconds >= 0.0);
    }

    #[test]
    fn sharded_grid_is_deterministic_across_shard_counts() {
        let run = |shards: Option<usize>, rebalance: bool| {
            run_table1(
                Table1Experiment::SuddenBinary,
                &paper_lineup(800),
                2,
                Some(4_000),
                7,
                shards,
                rebalance,
            )
        };
        let sequential = run(Some(1), false);
        let parallel = run(Some(4), false);
        let auto = run(None, false);
        let rebalanced = run(Some(4), true);
        for (((a, b), c), d) in sequential.iter().zip(&parallel).zip(&auto).zip(&rebalanced) {
            assert_eq!(a.detector, b.detector);
            assert_eq!(a.metrics, b.metrics, "{}", a.detector);
            assert_eq!(a.metrics, c.metrics, "{}", a.detector);
            // Mid-run rebalancing must not change a single detection.
            assert_eq!(a.metrics, d.metrics, "{}", a.detector);
        }
    }

    #[test]
    fn binary_only_entries_are_dropped_on_non_binary_experiments() {
        let entries: Vec<(String, DetectorSpec)> = vec![
            ("#1 ddm".to_string(), "ddm".parse().unwrap()),
            ("#2 adwin".to_string(), "adwin".parse().unwrap()),
        ];
        let run = |experiment| run_table1(experiment, &entries, 1, Some(2_000), 5, Some(2), false);
        let rows = run(Table1Experiment::SuddenNonBinary);
        assert_eq!(rows.len(), 1, "binary-only DDM filtered out");
        assert_eq!(rows[0].detector, "#2 adwin");
        let rows = run(Table1Experiment::SuddenBinary);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].detector, "#1 ddm");
        // An all-binary-only line-up yields no rows at all.
        assert!(run_table1(
            Table1Experiment::GradualNonBinary,
            &entries[..1],
            1,
            Some(2_000),
            5,
            Some(2),
            false
        )
        .is_empty());
    }

    #[test]
    fn single_entry_matches_its_lineup_row() {
        // Runs are isolated engine streams, so running one line-up entry on
        // its own reproduces its row of the full line-up exactly.
        let lineup = paper_lineup(800);
        let full = run_table1(
            Table1Experiment::SuddenBinary,
            &lineup,
            2,
            Some(4_000),
            11,
            Some(2),
            false,
        );
        let entry = lineup
            .iter()
            .find(|(label, _)| label == "OPTWIN rho=0.5")
            .expect("line-up entry present");
        let alone = run_table1(
            Table1Experiment::SuddenBinary,
            std::slice::from_ref(entry),
            2,
            Some(4_000),
            11,
            Some(2),
            true,
        );
        assert_eq!(alone.len(), 1);
        let row = full
            .iter()
            .find(|r| r.detector == "OPTWIN rho=0.5")
            .expect("line-up row present");
        assert_eq!(alone[0].metrics, row.metrics);
    }

    #[test]
    fn small_scale_table1_grid_runs() {
        let rows = run_table1(
            Table1Experiment::SuddenBinary,
            &paper_lineup(1_000),
            2,
            Some(5_000),
            42,
            None,
            false,
        );
        // All eight detectors apply to the binary experiment.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.metrics.runs, 2);
            assert!(row.metrics.precision >= 0.0 && row.metrics.precision <= 1.0);
            assert!(row.metrics.recall >= 0.0 && row.metrics.recall <= 1.0);
        }
        // OPTWIN rho=0.5 should detect at least half of the drifts on this
        // easy stream.
        let optwin = rows
            .iter()
            .find(|r| r.detector == "OPTWIN rho=0.5")
            .unwrap();
        assert!(
            optwin.metrics.recall >= 0.5,
            "recall = {}",
            optwin.metrics.recall
        );
    }
}
