//! In-memory spans around the benchmark's calls into the engine, and the
//! sink wrapper that stamps every emitted event.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use optwin_core::DriftStatus;
use optwin_engine::{DriftEvent, EventSink, JsonLinesSink};

/// The public call a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `EngineBuilder::build`.
    Build,
    /// `EngineHandle::submit`; the span id is the batch index.
    Submit,
    /// `EngineHandle::flush`.
    Flush,
    /// `EngineHandle::checkpoint`, or the snapshot write of a workload that
    /// does not checkpoint.
    Checkpoint,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Build => "engine.build",
            Call::Submit => "handle.submit",
            Call::Flush => "handle.flush",
            Call::Checkpoint => "handle.checkpoint",
        }
    }
}

/// One timed call, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Batch index for submits, a running number otherwise.
    pub id: u64,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when tracing is on; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording a span around it when tracing is on.
    pub fn time<T>(&mut self, call: Call, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            call,
            id,
            start_ns: nanos(self.epoch, start),
            end_ns: nanos(self.epoch, end),
        });
        out
    }

    /// The spans of one call kind.
    pub fn of(&self, call: Call) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.call == call)
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn nanos(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// One emitted event and when it left the sink.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The event's stream.
    pub stream: u64,
    /// The event's sequence number.
    pub seq: u64,
    /// Drift or warning.
    pub status: DriftStatus,
    /// When the wrapped sink's `emit` began (traced runs only; equal to
    /// `emitted_ns` otherwise).
    pub start_ns: u64,
    /// When the wrapped sink's `emit` returned.
    pub emitted_ns: u64,
}

/// Wraps a [`JsonLinesSink`] writing to `io::sink()` and stamps each event
/// it passes on.
pub struct StampSink {
    inner: JsonLinesSink,
    epoch: Instant,
    traced: bool,
    stamps: Mutex<Vec<Stamp>>,
}

impl StampSink {
    /// A stamping sink measuring from `epoch`.
    pub fn new(epoch: Instant, traced: bool) -> Self {
        Self {
            inner: JsonLinesSink::new(io::sink()),
            epoch,
            traced,
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Takes every stamp recorded so far.
    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Bytes the stamps recorded so far occupy: the benchmark's own memory,
    /// which the peak-memory figure leaves out.
    pub fn stamp_bytes(&self) -> usize {
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
            * std::mem::size_of::<Stamp>()
    }

    /// Events the wrapped sink failed to write.
    pub fn write_errors(&self) -> usize {
        self.inner.write_errors()
    }
}

impl EventSink for StampSink {
    fn emit(&self, event: &DriftEvent) {
        let start = self.traced.then(Instant::now);
        self.inner.emit(event);
        let emitted_ns = nanos(self.epoch, Instant::now());
        let start_ns = start.map_or(emitted_ns, |t| nanos(self.epoch, t));
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Stamp {
                stream: event.stream,
                seq: event.seq,
                status: event.status,
                start_ns,
                emitted_ns,
            });
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Writes every span as one JSON line: the generator-side calls, then one
/// `sink.emit` span per event whose `parent` is the id of the submit span
/// that carried the event's record.
pub fn write_spans(
    path: &Path,
    header: &str,
    spans: &[Span],
    stamps: &[Stamp],
    parents: &[Option<usize>],
) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":null,\"start_ns\":{},\"end_ns\":{}}}",
            s.call.name(),
            s.id,
            s.start_ns,
            s.end_ns
        )?;
    }
    for (i, (stamp, parent)) in stamps.iter().zip(parents).enumerate() {
        let parent = parent.map_or_else(|| "null".to_owned(), |g| g.to_string());
        writeln!(
            out,
            "{{\"name\":\"sink.emit\",\"id\":{i},\"parent\":{parent},\"stream\":{},\"seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
            stamp.stream, stamp.seq, stamp.start_ns, stamp.emitted_ns
        )?;
    }
    out.flush()
}

/// The nearest-rank `q`-quantile of `values` (sorted in place); `0` when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 500.0);
        assert_eq!(quantile(&mut v, 0.99), 990.0);
        assert_eq!(quantile(&mut v, 1.0), 1000.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
