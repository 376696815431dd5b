//! Engine errors and the per-stream statistics view.

use std::fmt;

/// Engine construction errors and ingestion-time failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A stream id was registered twice.
    DuplicateStream(u64),
    /// A record referenced a stream that is not registered and the engine
    /// has no default spec.
    UnknownStream(u64),
    /// An engine was configured with zero shards.
    ZeroShards,
    /// An engine was configured with a zero-record queue capacity.
    ZeroQueueCapacity,
    /// `try_submit` found a target shard's queue at capacity; nothing was
    /// enqueued.
    QueueFull,
    /// The engine has shut down (or a worker died): no further work is
    /// accepted.
    ChannelClosed,
    /// Internal state was poisoned by a panicking thread.
    Poisoned,
    /// A snapshot was requested but a stream's detector does not implement
    /// state serialization.
    SnapshotUnsupported {
        /// The stream whose detector cannot be snapshotted.
        stream: u64,
        /// The detector's stable name.
        detector: String,
    },
    /// A persisted engine snapshot could not be restored.
    InvalidSnapshot(String),
    /// A [`optwin_baselines::DetectorSpec`] failed validation or could not
    /// be built into a detector.
    InvalidSpec(String),
    /// A fleet configuration file (JSON map of stream id → spec string)
    /// could not be read or parsed.
    InvalidFleetConfig(String),
    /// An auto-rebalance threshold was not a finite ratio above 1.0.
    InvalidRebalanceThreshold(String),
    /// A hibernated stream could not be rehydrated (corrupt or mismatched
    /// state blob). The stream stays asleep; its pending records are
    /// dropped and the error is reported through the usual drain path.
    Hibernation {
        /// The stream that failed to wake.
        stream: u64,
        /// What went wrong.
        message: String,
    },
    /// A checkpoint or write-ahead-log I/O operation failed (disk full,
    /// permissions, a vanished directory). Distinct from
    /// [`EngineError::InvalidSnapshot`], which covers *reading* a damaged
    /// checkpoint directory: this one means the engine could not *write*
    /// durability data, so the loss window is no longer bounded.
    Checkpoint(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DuplicateStream(id) => {
                write!(f, "stream {id} is already registered")
            }
            EngineError::UnknownStream(id) => write!(
                f,
                "stream {id} is not registered and the engine has no default spec"
            ),
            EngineError::ZeroShards => write!(f, "engine needs at least one shard"),
            EngineError::ZeroQueueCapacity => {
                write!(f, "engine queue capacity must be at least one record")
            }
            EngineError::QueueFull => {
                write!(f, "a shard queue is at capacity; nothing was enqueued")
            }
            EngineError::ChannelClosed => {
                write!(f, "the engine has shut down and accepts no further work")
            }
            EngineError::Poisoned => {
                write!(f, "engine state was poisoned by a panicking worker thread")
            }
            EngineError::SnapshotUnsupported { stream, detector } => write!(
                f,
                "stream {stream}: detector `{detector}` does not support state snapshots"
            ),
            EngineError::InvalidSnapshot(message) => {
                write!(f, "invalid engine snapshot: {message}")
            }
            EngineError::InvalidSpec(message) => {
                write!(f, "invalid detector spec: {message}")
            }
            EngineError::InvalidFleetConfig(message) => {
                write!(f, "invalid fleet config: {message}")
            }
            EngineError::InvalidRebalanceThreshold(message) => {
                write!(f, "invalid auto-rebalance threshold: {message}")
            }
            EngineError::Hibernation { stream, message } => {
                write!(f, "stream {stream}: hibernation failure: {message}")
            }
            EngineError::Checkpoint(message) => {
                write!(f, "checkpoint failure: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Read-only view of one stream's lifetime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// The stream id.
    pub stream: u64,
    /// The shard the stream currently lives on (may change across
    /// [`crate::EngineHandle::rebalance`] calls).
    pub shard: usize,
    /// Elements ingested so far.
    pub elements: u64,
    /// Drifts the stream's detector has flagged.
    pub drifts: u64,
    /// Wall-clock seconds spent inside the detector.
    pub detector_seconds: f64,
    /// The detector's stable name (e.g. `"OPTWIN"`).
    pub detector: &'static str,
    /// The [`optwin_baselines::DetectorSpec`] the stream was registered
    /// with, when registered declaratively (`None` for explicit-instance
    /// streams).
    pub spec: Option<optwin_baselines::DetectorSpec>,
    /// Whether the stream is currently hibernated: its detector compressed
    /// to a state blob, to be rehydrated transparently on the next record
    /// (see [`crate::HibernationPolicy`]).
    pub hibernated: bool,
    /// Resident bytes this stream currently costs: the live detector's
    /// [`optwin_core::DriftDetector::mem_footprint`], or the hibernated
    /// blob plus its bookkeeping.
    pub mem_bytes: usize,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use optwin_core::{DriftDetector, DriftStatus};

    use super::*;
    use crate::{DriftEvent, EngineBuilder, EventSink, MemorySink};

    /// Deterministic detector that warns one element before firing every
    /// `period` elements.
    struct Periodic {
        period: u64,
        seen: u64,
        drifts: u64,
    }

    impl DriftDetector for Periodic {
        fn add_element(&mut self, _value: f64) -> DriftStatus {
            self.seen += 1;
            if self.seen.is_multiple_of(self.period) {
                self.drifts += 1;
                DriftStatus::Drift
            } else if self.seen % self.period == self.period - 1 {
                DriftStatus::Warning
            } else {
                DriftStatus::Stable
            }
        }
        fn reset(&mut self) {}
        fn name(&self) -> &'static str {
            "periodic"
        }
        fn elements_seen(&self) -> u64 {
            self.seen
        }
        fn drifts_detected(&self) -> u64 {
            self.drifts
        }
    }

    /// Runs 30 records through one explicit-instance `Periodic(10)` stream
    /// and returns its events in `seq` order.
    fn periodic_events(emit_warnings: bool) -> Vec<DriftEvent> {
        let sink = Arc::new(MemorySink::new());
        let detector = Periodic {
            period: 10,
            seen: 0,
            drifts: 0,
        };
        let handle = EngineBuilder::new()
            .shards(2)
            .emit_warnings(emit_warnings)
            .stream(5, Box::new(detector))
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .build()
            .unwrap();
        handle.submit(&[(5, 0.0); 30]).unwrap();
        handle.shutdown().unwrap();
        let mut events = sink.drain();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    #[test]
    fn warnings_are_opt_in() {
        let quiet = periodic_events(false);
        assert!(quiet.iter().all(DriftEvent::is_drift));
        assert_eq!(quiet.iter().map(|e| e.seq).collect::<Vec<_>>(), [9, 19, 29]);
        let chatty = periodic_events(true);
        assert_eq!(chatty.iter().filter(|e| e.is_drift()).count(), 3);
        assert_eq!(chatty.iter().filter(|e| !e.is_drift()).count(), 3);
        // Each warning precedes its drift: seq 8/9, 18/19, 28/29.
        assert_eq!(chatty[0].seq, 8);
        assert!(!chatty[0].is_drift());
        assert_eq!(chatty[1].seq, 9);
        assert!(chatty[1].is_drift());
    }

    #[test]
    fn error_display_messages() {
        let cases: Vec<(EngineError, &str)> = vec![
            (EngineError::DuplicateStream(7), "already registered"),
            (EngineError::UnknownStream(9), "no default spec"),
            (EngineError::ZeroShards, "at least one shard"),
            (EngineError::ZeroQueueCapacity, "at least one record"),
            (EngineError::QueueFull, "nothing was enqueued"),
            (EngineError::ChannelClosed, "shut down"),
            (EngineError::Poisoned, "poisoned"),
            (
                EngineError::SnapshotUnsupported {
                    stream: 4,
                    detector: "ADWIN".to_string(),
                },
                "ADWIN",
            ),
            (
                EngineError::InvalidSnapshot("bad version".to_string()),
                "bad version",
            ),
            (
                EngineError::InvalidSpec("`delta` must lie in (0, 1)".to_string()),
                "delta",
            ),
            (
                EngineError::InvalidFleetConfig("expected a JSON object".to_string()),
                "fleet config",
            ),
            (
                EngineError::InvalidRebalanceThreshold("got 0.5".to_string()),
                "0.5",
            ),
            (
                EngineError::Hibernation {
                    stream: 11,
                    message: "blob truncated".to_string(),
                },
                "blob truncated",
            ),
            (
                EngineError::Checkpoint("disk full".to_string()),
                "disk full",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "`{text}` missing `{needle}`");
            // std::error::Error is implemented.
            let _: &dyn std::error::Error = &error;
        }
    }
}
