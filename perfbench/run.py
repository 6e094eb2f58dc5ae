"""The benchmark's one command.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 24 --trace 0

runs one workload (``serve-hot``, ``serve-churn`` or ``sweep-cold``) from
the root of a source checkout, checks every answer, prints the environment
record, each phase's request accounting and every metric by name with its
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload twice at half length, untraced and then traced, and
reports the per-layer metrics plus ``trace.overhead_pct``.

``--self-check`` runs all three workloads at a tiny size in seconds.
``--record-digests`` rewrites ``perfbench/digests.json`` from the current
sources (only when the canary class counts change on purpose).

BLAS and OpenMP are pinned to one thread: the command re-executes itself
with the pinned environment and refuses to run if the BLAS library still
reports more than one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.envinfo import PINNED_ENV, check_pinned  # noqa: E402


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("serve-hot", "serve-churn", "sweep-cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_digests):
        parser.error("--workload is required")
    return args


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def rundir_for(label: str) -> str:
    path = os.path.join(ROOT, ".perfbench", label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(name: str, seed: int, seconds: float, config, rundir: str, repeats: int):
    """One untraced pass: launch ``repeats`` times, warm, run the phases."""
    from perfbench.envinfo import environment
    from perfbench.workloads import WORKLOADS, end_to_end

    record = environment(ROOT, name, seed)
    workload = WORKLOADS[name](ROOT, rundir, config, seed, log)
    workload.prepare()
    setups = []
    try:
        for index in range(repeats):
            if index:
                workload.teardown(graceful=False)
            setups.append(workload.launch(traced=False))
        record["ring"] = workload.ring()
        write_record(rundir, record)
        workload.warm()
        phases = workload.run_phases(seconds)
        rss_mb = workload.peak_rss_mb()
        write_outcomes(rundir, phases)
    finally:
        workload.teardown(graceful=False)
    workload.after()
    log(f"setup_s samples: {', '.join(f'{value:.3f}' for value in setups)}")
    return workload, end_to_end(phases, setups, rss_mb, workload.host_ms)


def write_outcomes(rundir: str, phases) -> None:
    """Every request of every phase: label, due, sent and done times, status."""
    with open(os.path.join(rundir, "outcomes.json"), "w", encoding="utf-8") as handle:
        json.dump([{"phase": phase.name, "start": phase.start, "end": phase.end,
                    "outcomes": [(o.label, o.due, o.sent, o.done, o.status)
                                 for o in phase.outcomes]} for phase in phases], handle)


def write_record(rundir: str, record: Dict[str, object]) -> None:
    with open(os.path.join(rundir, "env.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for key, value in record.items():
        log(f"env {key}: {json.dumps(value, sort_keys=True)}")


def traced(name: str, seed: int, seconds: float, config, rundir: str):
    """Untraced then traced half-length passes; per-layer metrics."""
    from perfbench.layers import per_layer, span_table
    from perfbench.tracing import Recorder, SpanSet, install
    from perfbench.workloads import WORKLOADS, end_to_end

    untraced_workload, untraced = measure(name, seed, seconds / 2, config, rundir, 1)
    workload = WORKLOADS[name](ROOT, rundir, config, seed, log)
    workload.prepare()
    recorder = install(Recorder("sweep" if name == "sweep-cold" else "client"))
    try:
        workload.launch(traced=True)
        workload.warm()
        phases = workload.run_phases(seconds / 2)
    finally:
        workload.teardown(graceful=True)
        recorder.uninstall()
    workload.after()
    spans = SpanSet()
    spans.add(f"{recorder.role}:{os.getpid()}", recorder.spans)
    for path in workload.spans_paths:
        with open(path, encoding="utf-8") as handle:
            dumped = json.load(handle)
        spans.add(f"{dumped['role']}:{os.path.basename(path)}", dumped["spans"])
    windows = [(phase.start, phase.end) for phase in phases]
    traced_metrics = end_to_end(phases, [0.0], 0.0, workload.host_ms)
    boot = workload.boot_s
    extra = {
        "setup.boot_s.replica": statistics.median(boot["replica"]) if boot.get("replica") else 0.0,
        "setup.boot_s.front": statistics.median(boot["front"]) if boot.get("front") else 0.0,
        "loadgen.lag_ms": max(phase.lag_ms() for phase in phases if phase.name != "capacity"),
        "trace.overhead_pct": 100.0 * (traced_metrics["p50_ms.r1"] / untraced["p50_ms.r1"] - 1.0)
        if untraced["p50_ms.r1"] else 0.0,
    }
    log(f"trace overhead: p50_ms.r1 untraced {untraced['p50_ms.r1']:.3f}, "
        f"traced {traced_metrics['p50_ms.r1']:.3f}")
    metrics = per_layer(spans, windows, workload.deltas, extra)
    for line in span_table(spans, windows):
        log(f"span {line}")
    if name == "sweep-cold":
        capacity = [(phase.start, phase.end) for phase in phases if phase.name == "capacity"]
        log_chip_path(spans, capacity, untraced, traced_metrics, extra["trace.overhead_pct"])
    log(f"counter deltas over the traced phases: {json.dumps(workload.deltas, sort_keys=True)}")
    return (untraced_workload, workload), metrics


def log_chip_path(spans, windows, untraced, traced_metrics, overhead_pct: float) -> None:
    """Self times along each closed-loop chip grid's blocking path (the
    ``Session.flush`` span tree), against the untraced ``grid_ms.chip``."""
    totals: Dict[str, float] = {}
    chip_flushes = []
    for process, flush in spans.select("session.flush", ("sweep",), windows):
        stack = [flush]
        names = []
        shares: Dict[str, float] = {}
        while stack:
            span = stack.pop()
            names.append(span[2])
            shares[span[2]] = shares.get(span[2], 0.0) + spans.self_time(process, span)
            stack.extend(spans.children(process, span))
        if "backend.chip" in names:
            chip_flushes.append(flush[4] - flush[3])
            for key, value in shares.items():
                totals[key] = totals.get(key, 0.0) + value
    if not chip_flushes:
        return
    count = len(chip_flushes)
    for key, value in sorted(totals.items(), key=lambda item: -item[1]):
        log(f"chip path self {key}: {value / count * 1e3:.3f} ms per grid (mean)")
    accounted = statistics.median(chip_flushes) * 1e3
    base = untraced["grid_ms.chip"]
    log(f"chip path: traced self times sum to {accounted:.3f} ms per grid (median of "
        f"{count}); untraced grid_ms.chip {base:.3f} ms, traced {traced_metrics['grid_ms.chip']:.3f}"
        f" ms; difference {100.0 * (accounted / base - 1.0):+.1f}% against trace overhead "
        f"{overhead_pct:+.1f}%")


def report(metrics: Dict[str, float], units: Dict[str, str], in_json: List[str], correct: bool,
           attempted: int, failed: int, failures: List[str]) -> None:
    """Print every metric, then the JSON line holding the ``in_json`` ones."""
    for failure in failures[:20]:
        log(f"FAILURE {failure}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}", flush=True)
    print(f"metric fail_ratio = {failed / max(attempted, 1):.6g} ratio", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in in_json},
    }), flush=True)


def run(name: str, seed: int, seconds: float, trace: int, config, label: str) -> Tuple[bool, dict]:
    from perfbench import spec

    rundir = rundir_for(label)
    if trace:
        workloads, metrics = traced(name, seed, seconds, config, rundir)
        units = {metric: unit for metric, unit, _, _ in spec.PER_LAYER}
        in_json = list(units)
    else:
        workload, metrics = measure(name, seed, seconds, config, rundir, config.setup_repeats)
        workloads = (workload,)
        units = dict(spec.END_TO_END + spec.PRINTED_ONLY + spec.RAW)
        in_json = [metric for metric, _ in spec.END_TO_END]
    failures = [failure for workload in workloads for failure in workload.failures]
    attempted = sum(workload.attempted for workload in workloads)
    failed = sum(workload.failed for workload in workloads)
    correct = not failures and failed == 0
    report(metrics, units, in_json, correct, attempted, failed, failures)
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics}, handle, indent=2)
    return correct, metrics


def manifest_problems() -> List[str]:
    """Where ``BENCHMARK.json`` disagrees with the metric tables in ``spec``."""
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = []
    unknown = {entry["name"] for entry in manifest["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    if [(m["name"], m["unit"]) for m in manifest["end_to_end"]] != list(spec.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from spec.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] != [
        entry[:3] for entry in spec.PER_LAYER
    ]:
        problems.append("BENCHMARK.json per_layer differs from spec.PER_LAYER")
    return problems


def self_check() -> int:
    """Every workload, untraced and traced, at a tiny size."""
    from perfbench import spec

    problems = manifest_problems()
    for name in ("serve-hot", "serve-churn", "sweep-cold"):
        for trace in (0, 1):
            correct, metrics = run(name, 0, 2.0, trace, spec.SELF_CHECK,
                                   f"self-check-{name}-{trace}")
            expected = spec.PER_LAYER if trace else spec.END_TO_END + spec.PRINTED_ONLY + spec.RAW
            missing = [entry[0] for entry in expected if entry[0] not in metrics]
            if not correct or missing:
                problems.append(f"{name} trace={trace}: correct={correct} missing={missing}")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    print("self-check", "failed" if problems else "passed", flush=True)
    return 1 if problems else 0


def record_digests() -> int:
    from perfbench import spec
    from perfbench.workloads import DIGESTS_PATH, SweepCold

    workload = SweepCold(ROOT, rundir_for("record-digests"), spec.FULL, 0, log)
    workload.launch(traced=False)
    digests = workload.canary_digests()
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"class_counts": digests}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    problem = check_pinned()
    if problem is not None:
        print(f"refusing to start: BLAS threads are not pinned ({problem})", file=sys.stderr)
        return 3
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_check:
        return self_check()
    if args.record_digests:
        return record_digests()
    from perfbench import spec

    run(args.workload, args.seed, args.seconds, args.trace, spec.FULL,
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
