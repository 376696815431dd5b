//! End-to-end and per-layer benchmark of the optwin engine, driven through
//! its public API only.
//!
//! One generator thread drives an `EngineBuilder::shards(1)` engine (two
//! threads in all). Detections go to a `JsonLinesSink` writing to
//! `io::sink()`, wrapped by [`trace::StampSink`], which stamps every emit.
//! Each invocation is one fresh process, so the process-wide cut-table
//! registry starts empty and set-up and recovery pay the cut-table build a
//! real restart pays:
//!
//! * `run` — generate the inputs, set up (build + warm-up + flush), run
//!   rounds of a fixed-size closed-loop slice and an open-loop slice at the
//!   workload's fixed rate until `--seconds` have passed, then the
//!   correctness gate against a single-threaded reference fold. With
//!   `--trace 1` it records spans around every timed call, writes them to
//!   `<work-dir>/trace.jsonl` and derives the per-layer table from them.
//! * `setup` — set-up alone, timed.
//! * `recover` — restart from what a previous `run` left in `--work-dir`
//!   (its checkpoint directory, or its snapshot file), timed.
//!
//! Each mode prints one JSON object as its last line. `perfbench/run.py`
//! builds this program and combines the processes into one result.

mod check;
mod gen;
mod probe;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optwin_baselines::DetectorSpec;
use optwin_core::{CutTable, CutTableRegistry};
use optwin_engine::{
    load_checkpoint_dir, CheckpointPolicy, Durability, EngineBuilder, EngineHandle, EngineSnapshot,
    EventSink, HibernationPolicy,
};

use check::Event;
use gen::{Inputs, Workload};
use probe::HostProbe;
use trace::{nanos, quantile, Call, StampSink, Tracer};

const USAGE: &str = "usage: perfbench <run|setup|recover> --workload <name> --seed <n> \
                     --work-dir <dir> [--seconds <s>] [--trace <0|1>] [--provenance <json>]";

/// Seconds of one open-loop slice.
const OPEN_SLICE_S: f64 = 0.1;

/// Fewest rounds of a run, however long they take.
const MIN_ROUNDS: usize = 20;

/// On a shared host, neighbours slow the process by up to 2x for stretches
/// of seconds, alternating with calm stretches. The gated figures therefore
/// come from the calm rounds of a run: throughput is this quantile of the
/// rounds' closed-loop rates, and the p50 latency the complementary
/// quantile of the rounds' median latencies. Both are then scaled by the
/// host's speed over the run (the same quantile of a [`HostProbe`] sampled
/// once a round), because the calm stretches of one run can be slower than
/// those of a run minutes later.
const FAST_QUANTILE: f64 = 0.95;

/// Where one open-loop slice starts.
struct OpenRound {
    /// Index of its first batch.
    first: usize,
    /// When its first batch was due.
    start_ns: u64,
}

struct Args {
    mode: String,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: PathBuf,
    provenance: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    if !["run", "setup", "recover"].contains(&mode.as_str()) {
        return Err(format!("unknown mode `{mode}`"));
    }
    let (mut workload, mut seed, mut seconds, mut traced, mut work) =
        (None, None, 10.0, false, None);
    let mut provenance = "{}".to_owned();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => traced = value == "1",
            "--work-dir" => work = Some(PathBuf::from(value)),
            "--provenance" => provenance = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        traced,
        work: work.ok_or("missing --work-dir")?,
        provenance,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))
        .and_then(|()| match args.mode.as_str() {
            "run" => run(&args),
            "setup" => setup(&args),
            _ => recover(&args),
        });
    match result {
        Ok(out) => {
            let correct = out.correct;
            println!("{}", out.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("perfbench {}: {error}", args.mode);
            ExitCode::FAILURE
        }
    }
}

/// A flat JSON object of named numbers, plus the gate's verdict.
struct Output {
    correct: bool,
    fields: Vec<(String, String)>,
}

impl Output {
    fn new() -> Self {
        Self {
            correct: true,
            fields: Vec::new(),
        }
    }

    fn num(&mut self, key: &str, value: f64) {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_owned()
        };
        self.fields.push((key.to_owned(), text));
    }

    fn fail(&mut self, gate: &str) {
        eprintln!("perfbench: correctness gate failed: {gate}");
        self.correct = false;
        self.fields.push(("gate".to_owned(), json_string(gate)));
    }

    fn render(&self) -> String {
        let mut out = format!("{{\"correct\":{}", self.correct);
        for (key, value) in &self.fields {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        out.push('}');
        out
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ensure_cold() -> Result<(), String> {
    if CutTableRegistry::global().is_empty() {
        Ok(())
    } else {
        Err("the cut-table registry is not empty before set-up".to_owned())
    }
}

/// Checks that the warm-up filled every cut table the fleet uses, so the
/// timed phases never build one.
fn check_tables_complete(w: &Workload) -> Result<(), String> {
    for config in w.optwin_configs() {
        let table = CutTableRegistry::global()
            .get_or_build(&config)
            .map_err(|e| e.to_string())?;
        let full = config.w_max - config.w_min + 1;
        if table.cached_entries() != full {
            return Err(format!(
                "the warm-up left {} of {full} cut-table entries for w_max={} uncomputed",
                full - table.cached_entries(),
                config.w_max
            ));
        }
    }
    Ok(())
}

fn vm_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(f64::NAN)
}

/// The engine's settings for workload `w`. Per-stream specs are
/// registered only on a fresh fleet: a restored fleet brings its own.
fn builder(
    w: &Workload,
    specs: &[DetectorSpec],
    sink: &Arc<StampSink>,
    fresh: bool,
    checkpoint_dir: Option<&Path>,
) -> EngineBuilder {
    let mut builder = EngineBuilder::new()
        .shards(1)
        .emit_warnings(w.warnings)
        .sink(Arc::clone(sink) as Arc<dyn EventSink>);
    if specs.len() == 1 {
        builder = builder.default_spec(specs[0].clone());
    } else if fresh {
        for stream in 0..w.streams {
            builder = builder.stream_spec(stream, specs[stream as usize % specs.len()].clone());
        }
    }
    if let (Some(durable), Some(dir)) = (w.durable, checkpoint_dir) {
        builder = builder
            .hibernation(HibernationPolicy::cold_after_flushes(durable.cold_after))
            .checkpoint(
                dir,
                CheckpointPolicy::every_flushes(0).durability(Durability::PageCache),
            );
    }
    builder
}

/// The generator: submits batch after batch and keeps the workload's
/// flush and checkpoint cadence, counting every call and every failure.
struct Driver<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    handle: EngineHandle,
    tracer: Tracer,
    /// Index of the next batch to submit.
    next: usize,
    since_flush: usize,
    flushes_since_checkpoint: usize,
    records_since_checkpoint: u64,
    checkpoint_bytes: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Driver<'_> {
    fn note<T>(&mut self, result: Result<T, optwin_engine::EngineError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(error.to_string());
                }
                None
            }
        }
    }

    /// Submits the next batch; returns its record count.
    fn submit_next(&mut self) -> usize {
        let g = self.next;
        let batch = self.inputs.batch(g);
        let handle = &self.handle;
        let result = self
            .tracer
            .time(Call::Submit, g as u64, || handle.submit(batch));
        self.note(result);
        self.next += 1;
        self.records_since_checkpoint += batch.len() as u64;
        batch.len()
    }

    /// One generator step: a submit, then a flush or checkpoint when the
    /// cadence calls for one.
    fn step(&mut self) -> usize {
        let records = self.submit_next();
        if let Some(durable) = self.w.durable {
            self.since_flush += 1;
            if self.since_flush == durable.flush_every {
                self.since_flush = 0;
                self.flush();
                self.flushes_since_checkpoint += 1;
                if self.flushes_since_checkpoint == durable.checkpoint_every {
                    self.flushes_since_checkpoint = 0;
                    self.checkpoint();
                }
            }
        }
        records
    }

    fn flush(&mut self) {
        let handle = &self.handle;
        let id = self.attempted;
        let result = self.tracer.time(Call::Flush, id, || handle.flush());
        self.note(result);
    }

    fn checkpoint(&mut self) {
        let handle = &self.handle;
        let id = self.attempted;
        let result = self
            .tracer
            .time(Call::Checkpoint, id, || handle.checkpoint());
        if let Some(report) = self.note(result) {
            self.checkpoint_bytes.push(report.bytes as f64);
            self.records_since_checkpoint = 0;
        }
    }
}

/// Builds the engine, submits the warm-up and flushes: the set-up a real
/// start pays. Returns the driver and the set-up time in seconds.
fn set_up<'a>(
    w: &'a Workload,
    inputs: &'a Inputs,
    sink: &Arc<StampSink>,
    mut tracer: Tracer,
    checkpoint_dir: Option<&Path>,
) -> Result<(Driver<'a>, f64), String> {
    ensure_cold()?;
    let specs = w.parsed_specs();
    let started = Instant::now();
    let builder = builder(w, &specs, sink, true, checkpoint_dir);
    let handle = tracer
        .time(Call::Build, 0, || builder.build())
        .map_err(|e| format!("building the engine: {e}"))?;
    let mut driver = Driver {
        w,
        inputs,
        handle,
        tracer,
        next: 0,
        since_flush: 0,
        flushes_since_checkpoint: 0,
        records_since_checkpoint: 0,
        checkpoint_bytes: Vec::new(),
        attempted: 1,
        failed: 0,
        errors: Vec::new(),
    };
    for _ in 0..inputs.warmup.len() {
        driver.submit_next();
    }
    driver.flush();
    let seconds = started.elapsed().as_secs_f64();
    check_tables_complete(w)?;
    Ok((driver, seconds))
}

fn detector_seconds(handle: &EngineHandle) -> Result<f64, String> {
    Ok(handle
        .stream_snapshots()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|s| s.detector_seconds)
        .sum())
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed, true);
    let mut probe = HostProbe::new();
    let rss_base_kib = vm_kib("VmRSS");
    let epoch = Instant::now();
    let sink = Arc::new(StampSink::new(epoch, args.traced));
    let checkpoint_dir = args.work.join("ckpt");
    reset_dir(&checkpoint_dir)?;
    let durable_dir = w.durable.map(|_| checkpoint_dir.as_path());
    let (mut driver, setup_s) = set_up(
        w,
        &inputs,
        &sink,
        Tracer::new(args.traced, epoch),
        durable_dir,
    )?;

    // Rounds of one closed-loop and one open-loop slice until `--seconds`
    // have passed, so both phases sample the whole run and a slow stretch
    // of the host moves some rounds' figures rather than one metric.
    let detector_before = detector_seconds(&driver.handle)?;
    let timed_from = nanos(epoch, Instant::now());
    let timed = Instant::now();
    let first_timed = driver.next;
    let interval = w.batch as f64 / w.open_rate;
    let open_batches = (OPEN_SLICE_S / interval).ceil() as usize;
    let mut round_rates = Vec::new();
    let mut saturated = Vec::new();
    let mut saturation_wall = 0.0;
    let mut open_rounds = Vec::new();
    let mut lag_ms = Vec::new();
    while round_rates.len() < MIN_ROUNDS || timed.elapsed().as_secs_f64() < args.seconds {
        probe.sample();

        // Closed loop: a fixed number of batches, submitted as fast as
        // backpressure allows, then a flush.
        let started = Instant::now();
        let first = driver.next;
        let mut records = 0u64;
        for _ in 0..w.closed_batches {
            records += driver.step() as u64;
        }
        driver.flush();
        let wall = started.elapsed().as_secs_f64();
        round_rates.push(records as f64 / wall);
        saturation_wall += wall;
        saturated.push(first..driver.next);

        // Open loop: batch i of the slice is due at `start + i * interval`,
        // however late the engine or the generator runs.
        let start = Instant::now() + Duration::from_millis(1);
        open_rounds.push(OpenRound {
            first: driver.next,
            start_ns: nanos(epoch, start),
        });
        for i in 0..open_batches {
            let due = start + Duration::from_secs_f64(i as f64 * interval);
            wait_until(due);
            lag_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            driver.step();
        }
        driver.flush();
    }
    let rounds = round_rates.len();
    if let Some(durable) = w.durable {
        // Leave the same log tail in every run: a checkpoint, then half a
        // checkpoint period of batches and flushes, so a recovery replays
        // the same amount of work whatever the host's speed was.
        driver.checkpoint();
        driver.since_flush = 0;
        driver.flushes_since_checkpoint = 0;
        for _ in 0..durable.flush_every * durable.checkpoint_every / 2 {
            driver.step();
        }
        driver.flush();
    }
    let timed_records: usize = (first_timed..driver.next)
        .map(|g| inputs.batch(g).len())
        .sum();
    let engine_detector_ns =
        (detector_seconds(&driver.handle)? - detector_before) * 1e9 / timed_records as f64;
    let raw_throughput = quantile(&mut round_rates, FAST_QUANTILE);
    let host_speed = probe.speed(FAST_QUANTILE);

    // End-of-run engine state, then the state a restart recovers from.
    let stats = driver.handle.stats().map_err(|e| e.to_string())?;
    let engine_counts: Vec<(u64, u64)> = driver
        .handle
        .stream_snapshots()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|s| (s.stream, s.elements))
        .collect();
    let peak_rss_mib =
        (vm_kib("VmHWM") - rss_base_kib - sink.stamp_bytes() as f64 / 1024.0) / 1024.0;
    let wal_bytes_per_record = if w.durable.is_some() {
        dir_bytes(&checkpoint_dir, "wal-") as f64 / driver.records_since_checkpoint.max(1) as f64
    } else {
        let handle = &driver.handle;
        let id = driver.attempted;
        let snapshot = driver
            .tracer
            .time(Call::Checkpoint, id, || -> Result<usize, String> {
                let json = handle
                    .snapshot_compact()
                    .map_err(|e| e.to_string())?
                    .to_json();
                std::fs::write(args.work.join("snapshot.json"), &json)
                    .map_err(|e| format!("writing the snapshot: {e}"))?;
                Ok(json.len())
            });
        driver.attempted += 1;
        match snapshot {
            Ok(bytes) => driver.checkpoint_bytes.push(bytes as f64),
            Err(error) => {
                driver.failed += 1;
                driver.errors.push(error);
            }
        }
        0.0
    };
    let shutdown = driver.handle.shutdown();
    driver.note(shutdown);
    let submitted = driver.next;
    let write_errors = sink.write_errors() as u64;

    // The correctness gate.
    let mut stamps = sink.take();
    stamps.sort_unstable_by_key(|s| (s.stream, s.seq, check::status_code(s.status)));
    let engine_events: Vec<Event> = stamps
        .iter()
        .map(|s| (s.stream, s.seq, check::status_code(s.status)))
        .collect();
    let reference = check::reference_fold(w, &inputs, submitted);
    let keys: Vec<(u64, u64)> = stamps.iter().map(|s| (s.stream, s.seq)).collect();
    let carriers = gen::carrying_batches(&inputs, submitted, w.streams, &keys);
    // Each open-loop event's latency, from when the batch carrying its
    // record was due to when the sink emitted it, grouped by round.
    let mut latency_ms: Vec<Vec<f64>> = vec![Vec::new(); rounds];
    for (stamp, g) in stamps.iter().zip(&carriers) {
        let Some(g) = *g else { continue };
        let r = open_rounds.partition_point(|o| o.first <= g);
        let Some(round) = r.checked_sub(1).map(|r| &open_rounds[r]) else {
            continue;
        };
        if g - round.first < open_batches {
            let due_ns = round.start_ns + ((g - round.first) as f64 * interval * 1e9) as u64;
            latency_ms[r - 1].push(ms(stamp.emitted_ns.saturating_sub(due_ns)));
        }
    }
    let mut per_round =
        |q: f64| -> Vec<f64> { latency_ms.iter_mut().map(|l| quantile(l, q)).collect() };
    let (mut round_p50, mut round_p90) = (per_round(0.5), per_round(0.9));
    let mut latency_ms: Vec<f64> = latency_ms.concat();
    write_expected(&args.work, &reference)?;

    let mut out = Output::new();
    let gates = [
        check::compare_events(&engine_events, &reference.events),
        check::compare_counts(&engine_counts, &reference.counts),
        check::check_latency_samples(latency_ms.len()),
        if driver.failed + write_errors == 0 {
            Ok(())
        } else {
            Err(format!("failed calls: {:?}", driver.errors))
        },
    ];
    for gate in gates.iter().filter_map(|g| g.as_ref().err()) {
        out.fail(gate);
    }

    out.num("attempted", driver.attempted as f64);
    out.num("failed", (driver.failed + write_errors) as f64);
    let raw_p50 = quantile(&mut round_p50, 1.0 - FAST_QUANTILE);
    out.num("throughput_rps", raw_throughput / host_speed);
    out.num("latency_p50_ms", raw_p50 * host_speed);
    out.num("raw.throughput_rps", raw_throughput);
    out.num("raw.latency_p50_ms", raw_p50);
    out.num("host.speed", host_speed);
    out.num("latency_samples", latency_ms.len() as f64);
    out.num("latency_p90_ms", quantile(&mut round_p90, 0.5));
    out.num("latency_p99_ms", quantile(&mut latency_ms, 0.99));
    out.num("setup_s", setup_s);
    out.num("peak_rss_mib", peak_rss_mib);
    out.num("events", engine_events.len() as f64);
    out.num("records", reference.records() as f64);
    out.num(
        "core.detector_ns_per_record",
        reference.seconds * 1e9 / reference.records() as f64,
    );
    out.num("engine.detector_ns_per_record", engine_detector_ns);
    out.num(
        "engine.overhead_ns_per_record",
        1e9 / raw_throughput - engine_detector_ns,
    );
    out.num("checkpoint.bytes", mean(&driver.checkpoint_bytes));
    out.num("checkpoint.wal_bytes_per_record", wal_bytes_per_record);
    out.num("hibernate.rehydrations", stats.rehydrations() as f64);
    out.num(
        "hibernate.hibernated_streams",
        stats.hibernated_streams() as f64,
    );
    out.num(
        "hibernate.hibernated_bytes",
        stats.hibernated_bytes() as f64,
    );
    out.num("engine.resident_bytes", stats.resident_bytes() as f64);
    out.num("gen.lag_ms_p99", quantile(&mut lag_ms, 0.99));
    out.num("gen.lag_ms_max", quantile(&mut lag_ms, 1.0));
    out.num("sink.events", stamps.len() as f64);

    if args.traced {
        let tracer = &driver.tracer;
        let mut submit_us: Vec<f64> = tracer
            .of(Call::Submit)
            .filter(|s| saturated.iter().any(|r| r.contains(&(s.id as usize))))
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        let submit_share = submit_us.iter().sum::<f64>() / 1e6 / saturation_wall;
        let mut flush_ms: Vec<f64> = tracer
            .of(Call::Flush)
            .filter(|s| s.start_ns >= timed_from)
            .map(|s| ms(s.ns()))
            .collect();
        let mut checkpoint_ms: Vec<f64> = tracer
            .of(Call::Checkpoint)
            .filter(|s| s.start_ns >= timed_from)
            .map(|s| ms(s.ns()))
            .collect();
        let build_ms = tracer.of(Call::Build).map(|s| ms(s.ns())).sum::<f64>();
        let emit_ns: Vec<f64> = stamps
            .iter()
            .map(|s| (s.emitted_ns - s.start_ns) as f64)
            .collect();
        out.num("handle.submit_us_p50", quantile(&mut submit_us, 0.5));
        out.num("handle.submit_us_p99", quantile(&mut submit_us, 0.99));
        out.num("handle.submit_share", submit_share);
        out.num("handle.flush_ms_p50", quantile(&mut flush_ms, 0.5));
        out.num("handle.flush_ms_p99", quantile(&mut flush_ms, 0.99));
        out.num("checkpoint.ms_p50", quantile(&mut checkpoint_ms, 0.5));
        out.num("checkpoint.ms_max", quantile(&mut checkpoint_ms, 1.0));
        out.num("engine.build_ms", build_ms);
        out.num("sink.emit_ns_per_event", mean(&emit_ns));

        let load_started = Instant::now();
        if w.durable.is_some() {
            load_checkpoint_dir(&checkpoint_dir).map_err(|e| e.to_string())?;
        } else {
            let text = std::fs::read_to_string(args.work.join("snapshot.json"))
                .map_err(|e| format!("reading the snapshot: {e}"))?;
            EngineSnapshot::from_json(&text).map_err(|e| e.to_string())?;
        }
        out.num(
            "checkpoint.load_ms",
            load_started.elapsed().as_secs_f64() * 1e3,
        );

        // Fresh tables, outside the registry: the cold build alone.
        let configs = w.optwin_configs();
        let build_started = Instant::now();
        for config in &configs {
            let table = CutTable::new(config).map_err(|e| e.to_string())?;
            table.precompute_all().map_err(|e| e.to_string())?;
            std::hint::black_box(&table);
        }
        out.num(
            "core.cut_table_build_s",
            build_started.elapsed().as_secs_f64(),
        );

        let header = format!(
            "{{\"provenance\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{}}}",
            args.provenance, w.name, args.seed, args.seconds
        );
        trace::write_spans(
            &args.work.join("trace.jsonl"),
            &header,
            &tracer.spans,
            &stamps,
            &carriers,
        )
        .map_err(|e| format!("writing the spans: {e}"))?;
    }
    Ok(out)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Saves what a recovery must reproduce: each stream's record count and
/// every event of the run.
fn write_expected(work: &Path, reference: &check::Reference) -> Result<(), String> {
    let mut counts = String::new();
    for count in &reference.counts {
        let _ = writeln!(counts, "{count}");
    }
    let mut events = String::new();
    for (stream, seq, status) in &reference.events {
        let _ = writeln!(events, "{stream} {seq} {status}");
    }
    std::fs::write(work.join("expected-counts.txt"), counts)
        .and_then(|()| std::fs::write(work.join("expected-events.txt"), events))
        .map_err(|e| format!("writing the expected state: {e}"))
}

fn read_expected(work: &Path) -> Result<(Vec<u64>, Vec<Event>), String> {
    let read = |name: &str| {
        std::fs::read_to_string(work.join(name))
            .map_err(|e| format!("reading {name} (run `perfbench run` first): {e}"))
    };
    let counts = read("expected-counts.txt")?
        .lines()
        .map(|l| l.parse().map_err(|e| format!("expected-counts.txt: {e}")))
        .collect::<Result<_, String>>()?;
    let mut events = Vec::new();
    for line in read("expected-events.txt")?.lines() {
        let mut parts = line.split(' ').map(str::parse::<u64>);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(Ok(stream)), Some(Ok(seq)), Some(Ok(status))) => {
                events.push((stream, seq, status as u8));
            }
            _ => return Err(format!("expected-events.txt: bad line `{line}`")),
        }
    }
    Ok((counts, events))
}

fn setup(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed, false);
    let epoch = Instant::now();
    let sink = Arc::new(StampSink::new(epoch, false));
    let dir = args.work.join("setup-ckpt");
    reset_dir(&dir)?;
    let (mut driver, setup_s) = set_up(
        w,
        &inputs,
        &sink,
        Tracer::new(false, epoch),
        w.durable.map(|_| dir.as_path()),
    )?;
    let shutdown = driver.handle.shutdown();
    driver.note(shutdown);
    reset_dir(&dir)?;
    let mut out = Output::new();
    if driver.failed > 0 {
        out.fail(&format!("failed calls: {:?}", driver.errors));
    }
    out.num("setup_s", setup_s);
    Ok(out)
}

fn recover(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    ensure_cold()?;
    let (counts, events) = read_expected(&args.work)?;
    let specs = w.parsed_specs();
    let epoch = Instant::now();
    let sink = Arc::new(StampSink::new(epoch, false));
    let dir = args.work.join("recover-ckpt");
    reset_dir(&dir)?;
    if w.durable.is_some() {
        // Recovery rolls the directory forward, so each recovery starts
        // from a copy of what the run left.
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let source = args.work.join("ckpt");
        for entry in std::fs::read_dir(&source).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }

    let started = Instant::now();
    let builder = builder(w, &specs, &sink, false, Some(&dir));
    let builder = if w.durable.is_some() {
        builder.recover_from_dir(&dir).map_err(|e| e.to_string())?
    } else {
        let text = std::fs::read_to_string(args.work.join("snapshot.json"))
            .map_err(|e| format!("reading the snapshot (run `perfbench run` first): {e}"))?;
        builder.restore(EngineSnapshot::from_json(&text).map_err(|e| e.to_string())?)
    };
    let handle = builder.build().map_err(|e| e.to_string())?;
    handle.flush().map_err(|e| e.to_string())?;
    let recover_s = started.elapsed().as_secs_f64();

    let engine_counts: Vec<(u64, u64)> = handle
        .stream_snapshots()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|s| (s.stream, s.elements))
        .collect();
    handle.shutdown().map_err(|e| e.to_string())?;
    reset_dir(&dir)?;

    let mut out = Output::new();
    if let Err(gate) = check::compare_counts(&engine_counts, &counts) {
        out.fail(&format!("after recovery: {gate}"));
    }
    // Replaying the log tail re-emits exactly the tail's events.
    let replayed: Vec<Event> = sink
        .take()
        .iter()
        .map(|s| (s.stream, s.seq, check::status_code(s.status)))
        .collect();
    if let Some(extra) = replayed.iter().find(|e| events.binary_search(e).is_err()) {
        out.fail(&format!(
            "recovery emitted {extra:?}, which the run never raised"
        ));
    }
    out.num("recover_s", recover_s);
    out.num("replayed_events", replayed.len() as f64);
    Ok(out)
}
