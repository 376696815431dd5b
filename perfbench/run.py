#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the optwin engine.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: optwin-paper, cheap-fleet, durable-mixed (defined, with their
reasons, in perfbench/src/gen.rs and BENCHMARK.json).

The script builds perfbench/ (a Cargo package of its own that depends on the
repository's crates by path) into $CARGO_TARGET_DIR (default .bench_build)
and runs the resulting program, one fresh process per step, so every set-up
and every recovery pays the cut-table build a real restart pays:

* --trace 0: one `run` process (set-up, closed-loop saturation, open-loop
  latency phase, correctness gate), then SETUPS - 1 further `setup`
  processes alternating with RECOVERIES `recover` processes. It prints the
  end-to-end metrics, taking the median of the set-up samples and the lower
  quartile of the recovery samples.
* --trace 1: an untraced `run` and a traced `run`. It prints the per-layer
  metrics, derived from the traced run's spans (written to
  .bench_work/trace-<workload>.jsonl), and the tracing overhead as traced
  against untraced throughput.

Throughput, p50 latency and recovery time are scaled to a reference host
speed, measured during the `run` process by a probe that runs no code of
the program (perfbench/src/probe.rs), so that two runs minutes apart on a
shared host compare the program, not the neighbours; the raw figures are
printed beside them, and the host speed is a per-layer metric.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is the
error rate. Lines before it carry the provenance (host, nproc, commit,
rustc, seed, run length) and a readable table. The exit code is 0 only when
every process ran and passed the correctness gate.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys

WORKLOADS = ("optwin-paper", "cheap-fleet", "durable-mixed")
SETUPS = 7
RECOVERIES = 15
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Each per-layer metric with its unit and the end-to-end metric (and
# workload) it should move.
PER_LAYER = (
    ("handle.submit_us_p50", "us", "throughput_rps on cheap-fleet"),
    ("handle.submit_us_p99", "us", "throughput_rps on cheap-fleet"),
    ("handle.submit_share", "ratio", "throughput_rps on cheap-fleet"),
    ("handle.flush_ms_p50", "ms", "latency_p90_ms, latency_p99_ms on durable-mixed"),
    ("handle.flush_ms_p99", "ms", "latency_p90_ms, latency_p99_ms on durable-mixed"),
    ("core.detector_ns_per_record", "ns", "throughput_rps on optwin-paper"),
    ("engine.detector_ns_per_record", "ns", "throughput_rps on cheap-fleet"),
    ("engine.overhead_ns_per_record", "ns", "throughput_rps on cheap-fleet"),
    ("core.cut_table_build_s", "s", "setup_s on optwin-paper, recover_s on durable-mixed"),
    ("engine.build_ms", "ms", "setup_s on cheap-fleet"),
    ("sink.events", "count", "latency_p50_ms on cheap-fleet"),
    ("sink.emit_ns_per_event", "ns", "latency_p50_ms on cheap-fleet"),
    ("checkpoint.ms_p50", "ms", "latency_p99_ms, throughput_rps, recover_s on durable-mixed"),
    ("checkpoint.ms_max", "ms", "latency_p99_ms, throughput_rps, recover_s on durable-mixed"),
    ("checkpoint.bytes", "bytes", "latency_p99_ms, throughput_rps, recover_s on durable-mixed"),
    ("checkpoint.wal_bytes_per_record", "bytes", "throughput_rps, recover_s on durable-mixed"),
    ("checkpoint.load_ms", "ms", "recover_s on durable-mixed"),
    ("hibernate.rehydrations", "count", "peak_rss_mib, throughput_rps on durable-mixed"),
    ("hibernate.hibernated_streams", "count", "peak_rss_mib, throughput_rps on durable-mixed"),
    ("hibernate.hibernated_bytes", "bytes", "peak_rss_mib, throughput_rps on durable-mixed"),
    ("engine.resident_bytes", "bytes", "peak_rss_mib, throughput_rps on durable-mixed"),
    ("latency_p90_ms", "ms", "tail latency (host preemption can set it on a shared VM)"),
    ("latency_p99_ms", "ms", "tail latency (host preemption sets it on a shared VM)"),
    ("gen.lag_ms_p99", "ms", "whether the latency figures can be trusted"),
    ("gen.lag_ms_max", "ms", "whether the latency figures can be trusted"),
    ("trace.throughput_rps", "1/s", "tracing overhead (against throughput_rps)"),
    ("trace.throughput_ratio", "ratio", "tracing overhead (traced / untraced throughput)"),
    ("host.speed", "ratio", "host speed against the reference the gated figures are scaled to"),
)

# Per-layer figures that tracing does not touch come from the untraced run.
FROM_UNTRACED = (
    "engine.detector_ns_per_record",
    "engine.overhead_ns_per_record",
    "latency_p90_ms",
    "latency_p99_ms",
    "host.speed",
)


class ChildFailed(Exception):
    """A benchmark process crashed or could not be started."""


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(root, f) for f in sorted(files))
    for path in paths:
        if path.endswith(("Cargo.toml", "Cargo.lock", ".rs", ".py")) and os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(args):
    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if result.returncode != 0:
        raise ChildFailed("building perfbench failed")
    return os.path.join(target, "release", "perfbench")


def child(binary, mode, args, work, trace, prov):
    argv = [
        binary, mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--work-dir", work,
        "--provenance", json.dumps(prov, separators=(",", ":")),
    ]
    try:
        result = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        raise ChildFailed(f"perfbench {mode}: {error}") from error
    lines = result.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError) as error:
        raise ChildFailed(f"perfbench {mode} exited {result.returncode} without a result") from error
    if result.returncode != 0 and out.get("correct", False):
        raise ChildFailed(f"perfbench {mode} exited {result.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in 1..600")

    prov = provenance(args)
    binary = build()
    work = os.path.join(".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        if args.trace == 0:
            run = child(binary, "run", args, work, 0, prov)
            # Set-ups and recoveries alternate, so the recoveries are spread
            # over a stretch of the host's fast and slow spells.
            setups, recoveries = [], []
            for i in range(max(SETUPS - 1, RECOVERIES)):
                if i < SETUPS - 1:
                    setups.append(child(binary, "setup", args, work, 0, prov))
                if i < RECOVERIES:
                    recoveries.append(child(binary, "recover", args, work, 0, prov))
            outputs = [run, *setups, *recoveries]
            values = {name: run.get(name) for name, _ in END_TO_END}
            values["setup_s"] = statistics.median(
                [run["setup_s"]] + [s["setup_s"] for s in setups]
            )
            # A cold recovery is a fraction of a second long, so one process
            # can land wholly in a neighbour's busy spell: take the lower
            # quartile, the calm recoveries, as the run does for its rounds,
            # and scale it by the host speed the run measured just before.
            raw = {
                "throughput_rps": run["raw.throughput_rps"],
                "latency_p50_ms": run["raw.latency_p50_ms"],
                "recover_s": statistics.quantiles(
                    [r["recover_s"] for r in recoveries], n=4
                )[0],
            }
            values["recover_s"] = raw["recover_s"] * run["host.speed"]
            table = [
                (name, unit, values[name], f"raw {raw[name]:.6g}" if name in raw else "")
                for name, unit in END_TO_END
            ]
        else:
            untraced = child(binary, "run", args, work, 0, prov)
            run = child(binary, "run", args, work, 1, prov)
            outputs = [untraced, run]
            values = {name: run.get(name) for name, _, _ in PER_LAYER}
            for name in FROM_UNTRACED:
                values[name] = untraced.get(name)
            values["trace.throughput_rps"] = run["throughput_rps"]
            values["trace.throughput_ratio"] = run["throughput_rps"] / untraced["throughput_rps"]
            table = [(name, unit, values[name], "-> " + target) for name, unit, target in PER_LAYER]
            spans = os.path.join(work, "trace.jsonl")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(".bench_work", f"trace-{args.workload}.jsonl"))
        metrics = {name: {"value": value, "unit": unit} for name, unit, value, _ in table}
    except ChildFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(o.get("correct") for o in outputs)
    attempted = int(sum(o.get("attempted", 0) for o in outputs))
    failed = int(sum(o.get("failed", 0) for o in outputs))
    print("provenance " + json.dumps(prov, separators=(",", ":")))
    for o in outputs:
        if "gate" in o:
            print(f"correctness gate failed: {o['gate']}")
    for name, unit, value, note in table:
        print(f"{name:34} {value:>16.6g} {unit:6} {note}")
    print(
        f"error_rate {failed / max(attempted, 1):.6g} ({failed} failed of {attempted} calls); "
        f"{run['latency_samples']:.0f} latency samples (p90 {run['latency_p90_ms']:.4g} ms, "
        f"p99 {run['latency_p99_ms']:.4g} ms), "
        f"{run['events']:.0f} events over {run['records']:.0f} records"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        sys.exit(1)
