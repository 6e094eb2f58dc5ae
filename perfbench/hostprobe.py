"""How fast the shared host runs while a workload is measured.

The benchmark's 2 vCPUs share physical cores and caches with other
machines' work, and the same code runs 10-25% slower for minutes at a time
when the neighbours are busy.  A probe process runs beside the measured
phases and times, in CPU time, a fixed chunk of work that uses none of the
code under test (a JSON round trip, a Python loop and a small matrix
product, the kinds of work the workloads do) every 25 ms.  CPU time leaves
out the time the probe waits for a processor, so the workload's own load
does not slow it; a slower host does.  The timed metrics are scaled by
``spec.HOST_REFERENCE_MS / median probe time``, which removes the host's
state from them and leaves the code's speed; the raw values are printed
beside them.

Run alone (``python3 -m perfbench.hostprobe``) it samples until SIGTERM or
SIGINT and then prints the samples, ``[[perf_counter, cpu_ms], ...]``, as
one JSON line.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

PERIOD_S = 0.025


def chunk_ms(values: List[float], matrix: np.ndarray) -> float:
    """CPU milliseconds of one fixed chunk of work."""
    start = time.thread_time()
    json.loads(json.dumps(values))
    sum(index * index for index in range(3000))
    matrix @ matrix
    return (time.thread_time() - start) * 1e3


def main() -> int:
    stopped = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stopped.append(True))
    values = [index * 0.37 for index in range(1500)]
    matrix = np.random.default_rng(0).random((96, 96))
    samples = []
    while not stopped:
        now = time.perf_counter()
        samples.append((now, chunk_ms(values, matrix)))
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)
    return 0


class HostProbe:
    """The probe process: start it before the phases, stop it after."""

    def __init__(self, root: str) -> None:
        from perfbench.procs import child_env

        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostprobe"],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> List[Tuple[float, float]]:
        """End the probe and return its ``(perf_counter, cpu_ms)`` samples."""
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("host probe did not stop") from None
        if self.process.returncode != 0:
            raise RuntimeError(f"host probe exited with {self.process.returncode}")
        return [tuple(sample) for sample in json.loads(output)]


def host_ms(samples: Sequence[Tuple[float, float]], windows: Sequence[Tuple[float, float]]) -> float:
    """Median probe time of the samples taken inside ``windows``."""
    inside = [ms for at, ms in samples if any(start <= at <= end for start, end in windows)]
    if not inside:
        raise RuntimeError("the host probe took no sample inside the measured phases")
    return float(np.median(inside))


if __name__ == "__main__":
    raise SystemExit(main())
