"""Admission control, job lifecycle, and service metrics.

Overload policy follows the admission-control literature (see PAPERS.md —
Babu et al. on call admission for wireless networks): the service decides
*at arrival time* whether a request is admitted into a **bounded** queue or
shed with an explicit retry hint, instead of letting an unbounded backlog
degrade every in-flight request.  The controller therefore owns

* the bounded FIFO of :class:`Job` objects the worker threads drain in
  batches (so the session layer can coalesce same-fingerprint requests),
  shedding every arrival that finds ``max_depth`` jobs queued,
* the request accounting the ``/metrics`` endpoint publishes, with two
  conservation invariants the CI smoke job asserts::

      received == admitted + rejected
      admitted == completed + failed + in_flight

  where ``in_flight`` counts admitted jobs that are still queued or
  executing,
* the latency window behind the published p50/p95, and
* the measured drain rate — completions per second over the last
  :data:`DRAIN_WINDOW` seconds or more of the injectable monotonic clock,
  re-measured on arrivals and completions — which turns into the 429
  ``Retry-After`` hint and feeds the front tier's fleet-wide shedding.

Clock discipline: :class:`Job` carries **two** timestamps on purpose.
``created`` is ``time.monotonic()`` and is the only clock latency math
ever touches — the monotonic clock never jumps, so queue-residence and
service latencies are exact even across a wall-clock step (NTP, DST).
``created_wall`` is ``time.time()`` and exists *only* for externally
meaningful records (a log line that must outlive the process); it must
never be differenced against ``created`` or against any monotonic
reading — the two clocks share no epoch, and mixing them silently produces
latencies that are off by the machine's uptime.  A unit test pins both properties.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.protocol import EvalRequest

#: Shortest span, in seconds, a drain-rate measurement covers.
DRAIN_WINDOW = 0.5


class QueueFullError(RuntimeError):
    """The bounded queue is full; the request was shed, not queued.

    Attributes:
        retry_after: suggested client back-off in seconds (the HTTP layer
            publishes it as the ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosedError(RuntimeError):
    """The service is shutting down and no longer serves requests."""


@dataclass
class Job:
    """One admitted evaluation request moving through the worker pool.

    Attributes:
        created: admission time on the **monotonic** clock — the only
            timestamp latency math may use (see the module docstring).
        created_wall: admission time on the wall clock, for externally
            meaningful records only; never mixed with ``created`` or any
            other monotonic reading.
    """

    request: EvalRequest
    backend: Optional[str] = None
    created: float = field(default_factory=time.monotonic)
    created_wall: float = field(default_factory=time.time)
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    result: Optional[object] = field(default=None, repr=False)
    error: Optional[BaseException] = field(default=None, repr=False)

    def resolve(self, result: object) -> None:
        self.result = result
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    @property
    def latency(self) -> float:
        """Seconds from admission to now (or to resolution once done)."""
        return time.monotonic() - self.created


class LatencyWindow:
    """A bounded window of recent request latencies with percentile reads."""

    def __init__(self, maxlen: int = 1024) -> None:
        self._samples: deque = deque(maxlen=maxlen)  # guarded-by: _lock
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction`` quantile of the window, ``None`` when empty."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return None
        index = min(len(samples) - 1, int(fraction * len(samples)))
        return samples[index]

    def mean(self) -> Optional[float]:
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return None
        return sum(samples) / len(samples)

    def samples(self) -> List[float]:
        """A copy of the current window, oldest first.

        Exported so a front tier can merge percentiles *exactly* across
        replicas: a fleet p95 computed over the union of the per-replica
        windows, instead of an unsound average of per-replica p95s.
        """
        with self._lock:
            return list(self._samples)


class AdmissionController:
    """Bounded admission queue plus the request accounting behind /metrics.

    Args:
        max_depth: bound on queued (admitted, not yet claimed) jobs; an
            arrival that finds ``max_depth`` jobs queued is shed with
            :class:`QueueFullError`.
        workers: worker-pool size, used only to scale the retry hint
            before a drain rate has been measured.
        clock: monotonic clock the drain rate is measured on — injectable
            so tests drive the measurement deterministically.
    """

    def __init__(
        self,
        max_depth: int = 64,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self.workers = max(1, workers)
        self.latencies = LatencyWindow()
        self._jobs: deque = deque()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False  # guarded-by: _lock
        self.received = 0  # guarded-by: _lock
        self.admitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        # The drain measurement has its own lock, taken after _lock (the
        # shed path reads the rate with the queue lock held), never before.
        self._clock = clock
        self._drain_lock = threading.Lock()
        self._drain_since = clock()  # guarded-by: _drain_lock
        self._drained = 0  # guarded-by: _drain_lock
        self._drain_rate: Optional[float] = None  # guarded-by: _drain_lock

    # ------------------------------------------------------------------
    # drain rate and the Retry-After hint
    # ------------------------------------------------------------------
    def _measure_drain(self, completions: int) -> None:
        """Count ``completions`` and re-measure once a window has passed."""
        with self._drain_lock:
            self._drained += completions
            now = self._clock()
            elapsed = now - self._drain_since
            if elapsed >= DRAIN_WINDOW:
                self._drain_rate = self._drained / elapsed
                self._drained = 0
                self._drain_since = now

    def _drain_hint(self, depth: int) -> float:
        """Seconds a backlog of ``depth`` queued jobs needs to drain.

        ``depth / measured drain rate`` once a positive rate exists, the
        ``depth x mean latency / workers`` heuristic before that; both
        clamped to [1, 60] seconds.
        """
        with self._drain_lock:
            drain_rate = self._drain_rate
        if drain_rate is not None and drain_rate > 0:
            hint = depth / drain_rate
        else:
            hint = depth * (self.latencies.mean() or 1.0) / self.workers
        return float(min(60.0, max(1.0, hint)))

    def retry_after(self) -> float:
        """Suggested back-off: the time the current backlog needs to drain."""
        with self._lock:
            depth = len(self._jobs)
        return self._drain_hint(depth)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit a job into the bounded queue or shed it.

        Raises:
            QueueFullError: ``max_depth`` jobs are already queued.
            ServiceClosedError: the controller was closed.
        """
        self._measure_drain(0)
        with self._nonempty:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            self.received += 1
            depth = len(self._jobs)
            if depth >= self.max_depth:
                self.rejected += 1
                raise QueueFullError(
                    f"admission queue is full ({depth} queued, max depth "
                    f"{self.max_depth}); retry later",
                    retry_after=self._drain_hint(depth),
                )
            self.admitted += 1
            self._jobs.append(job)
            self._nonempty.notify()
            return job

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def next_batch(self, max_batch: int, timeout: float = 0.5) -> List[Job]:
        """Claim up to ``max_batch`` queued jobs (empty list on timeout).

        Claimed jobs stay ``in_flight`` until :meth:`job_done`.  Draining a
        *batch* (rather than one job) is what lets the worker's session
        coalesce same-fingerprint requests onto one engine pass.
        """
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        with self._nonempty:
            if not self._jobs and not self._closed:
                self._nonempty.wait(timeout)
            batch = []
            while self._jobs and len(batch) < max_batch:
                batch.append(self._jobs.popleft())
            return batch

    def job_done(self, job: Job, ok: bool) -> None:
        """Account one claimed job's resolution and record its latency."""
        with self._lock:
            if ok:
                self.completed += 1
            else:
                self.failed += 1
        self.latencies.record(job.latency)
        self._measure_drain(1)

    # ------------------------------------------------------------------
    def close(self) -> List[Job]:
        """Refuse new arrivals and return the still-queued jobs.

        The caller (the service) fails the returned jobs so no waiter
        deadlocks on a job that will never run.
        """
        with self._nonempty:
            self._closed = True
            drained = list(self._jobs)
            self._jobs.clear()
            self._nonempty.notify_all()
        return drained

    @property
    def closed(self) -> bool:
        # Read under the lock: without it this is a data race with close(),
        # and the unsynchronized read is exactly what LOCK-GUARD flags.
        with self._lock:
            return self._closed

    @property
    def queue_depth(self) -> int:
        """Admitted jobs waiting to be claimed by a worker."""
        with self._lock:
            return len(self._jobs)

    @property
    def in_flight(self) -> int:
        """Admitted jobs not yet resolved (queued or executing)."""
        with self._lock:
            return self.admitted - self.completed - self.failed

    def drain_snapshot(self) -> Dict[str, object]:
        """The exportable drain view of this replica's queue.

        Published under ``/metrics`` ``"drain"`` and aggregated by the
        front tier (:mod:`repro.serve.front`) into its fleet-wide shed
        decision: queue depths and bounds sum, drain rates sum, and the
        latency window samples union into an exact fleet p95.  The bound
        is published as ``effective_depth``, the key the front reads.
        """
        with self._lock:
            depth = len(self._jobs)
            in_flight = self.admitted - self.completed - self.failed
        with self._drain_lock:
            drain_rate = self._drain_rate
        return {
            "queue_depth": depth,
            "in_flight": in_flight,
            "effective_depth": self.max_depth,
            "drain_rate_per_second": drain_rate,
            "latency_window_seconds": self.latencies.samples(),
        }

    def snapshot(self) -> Dict[str, object]:
        """The /metrics view: counters, depth, and latency percentiles."""
        with self._lock:
            counters = {
                "received": self.received,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "in_flight": self.admitted - self.completed - self.failed,
                "queue_depth": len(self._jobs),
                "max_depth": self.max_depth,
            }
        counters["latency_p50_seconds"] = self.latencies.percentile(0.50)
        counters["latency_p95_seconds"] = self.latencies.percentile(0.95)
        counters["latency_mean_seconds"] = self.latencies.mean()
        return counters
