"""Closed- and open-loop load from one process, with honest accounting.

Every request ends in one status: ``ok``, ``shed`` (429), ``timeout``
(socket timeout or 504), ``failed`` (any other error) or ``mismatch``
(answered, but the answer failed the correctness check).  Open-loop
requests are timed from when they were *due*, so a stall also charges the
requests queued behind it, and the generator reports how late it sent
them (``lag``).  Sequences and arrival times are built before the clock
starts.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

STATUSES = ("ok", "shed", "timeout", "failed", "mismatch")


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: str
    label: str


@dataclass
class Phase:
    """The outcomes of one measured phase and its wall-clock window."""

    name: str
    start: float = 0.0
    end: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    def latencies_ms(self, label: Optional[str] = None) -> List[float]:
        """Due-to-done times of the successful requests, in ms."""
        return [
            (outcome.done - outcome.due) * 1e3
            for outcome in self.outcomes
            if outcome.status == "ok" and (label is None or outcome.label == label)
        ]

    def lag_ms(self) -> float:
        """95th percentile of how late the generator sent requests."""
        lags = [(outcome.sent - outcome.due) * 1e3 for outcome in self.outcomes]
        return percentile(lags, 0.95)

    def throughput(self) -> float:
        """Successful requests per second of the phase's wall time."""
        return self.count("ok") / max(self.end - self.start, 1e-9)

    def summary(self) -> str:
        counts = " ".join(f"{status}={self.count(status)}" for status in STATUSES)
        return f"sent={len(self.outcomes)} {counts} seconds={self.end - self.start:.2f}"


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), fraction))


def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` over ``duration`` s."""
    offsets: List[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if now >= duration:
            return offsets
        offsets.append(now)


Call = Callable[[int, object], str]


def _run(workers: int, body: Callable[[int], None]) -> None:
    threads = [
        threading.Thread(target=body, args=(index,), name=f"loadgen-{index}", daemon=True)
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    name: str,
    items: Sequence[Tuple[str, object]],
    call: Call,
    workers: int,
    duration: float,
) -> Phase:
    """``workers`` callers, each sending its next item when the last returns.

    ``items`` are ``(label, item)`` pairs taken in order; the phase stops
    issuing at ``duration`` and ends when the last reply arrives.
    """
    phase = Phase(name)
    order = itertools.count()
    phase.start = perf_counter()
    deadline = phase.start + duration

    def body(worker: int) -> None:
        while perf_counter() < deadline:
            index = next(order)
            if index >= len(items):
                return
            label, item = items[index]
            sent = perf_counter()
            status = call(worker, item)
            phase.outcomes.append(Outcome(sent, sent, perf_counter(), status, label))

    _run(workers, body)
    phase.end = perf_counter()
    return phase


def open_loop(
    name: str,
    items: Sequence[Tuple[str, object]],
    arrivals: Sequence[float],
    call: Call,
    workers: int,
) -> Phase:
    """Send ``items[i]`` at ``arrivals[i]`` seconds after the start.

    At most ``workers`` requests are in flight; a request whose sender is
    still busy goes out late, and its latency still counts from its due
    time.
    """
    phase = Phase(name)
    order = itertools.count()
    phase.start = perf_counter() + 0.01
    count = min(len(items), len(arrivals))

    def body(worker: int) -> None:
        while True:
            index = next(order)
            if index >= count:
                return
            due = phase.start + arrivals[index]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            label, item = items[index]
            sent = perf_counter()
            status = call(worker, item)
            phase.outcomes.append(Outcome(due, sent, perf_counter(), status, label))

    _run(workers, body)
    phase.end = perf_counter()
    return phase
