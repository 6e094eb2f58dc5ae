"""The admission queue's static bound, drain rate and Retry-After hint.

The drain-rate tests drive :class:`AdmissionController` with an injected
monotonic clock, so a measurement happens exactly when the test says — no
sleeps, no wall-clock flake.  The clock-discipline tests at the bottom pin
the ``Job`` timestamp split the module docstring promises: ``created`` is
monotonic (the only clock latency math touches), ``created_wall`` is wall
time (external records only), and the two are never differenced against
each other.
"""

import time

import pytest

from repro.api.protocol import EvalRequest
from repro.serve.admission import AdmissionController, Job, QueueFullError


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def submit(admission, count):
    for _ in range(count):
        admission.submit(Job(request=None))


def finish(admission, count):
    """Claim ``count`` queued jobs and account each as completed."""
    for job in admission.next_batch(count):
        admission.job_done(job, ok=True)


def drain_rate(admission):
    return admission.drain_snapshot()["drain_rate_per_second"]


# ----------------------------------------------------------------------
# Retry-After
# ----------------------------------------------------------------------
def test_retry_after_tracks_measured_drain_rate():
    clock = FakeClock()
    admission = AdmissionController(max_depth=64, clock=clock)
    submit(admission, 8)
    finish(admission, 8)
    clock.advance(0.4)  # shorter than the drain window: nothing measured
    submit(admission, 1)
    assert drain_rate(admission) is None
    clock.advance(1.6)  # 8 completions / 2 s = 4 jobs/s, measured on arrival
    submit(admission, 63)
    assert drain_rate(admission) == pytest.approx(4.0)
    assert admission.retry_after() == pytest.approx(16.0)  # 64 queued / 4 per s
    with pytest.raises(QueueFullError) as excinfo:
        submit(admission, 1)
    assert excinfo.value.retry_after == pytest.approx(16.0)
    finish(admission, 63)
    assert admission.retry_after() == 1.0  # 1 / 4 per s = 0.25 s, clamped
    clock.advance(100.0)  # 64 completions / 100 s, measured on completion
    finish(admission, 1)
    assert drain_rate(admission) == pytest.approx(0.64)
    submit(admission, 40)
    assert admission.retry_after() == 60.0  # 40 / 0.64 per s = 62.5 s, clamped


def test_retry_after_falls_back_to_latency_heuristic_before_any_drain():
    admission = AdmissionController(max_depth=64, workers=2, clock=FakeClock())
    submit(admission, 4)
    # No latency data either: one second per queued job, over the workers.
    assert admission.retry_after() == pytest.approx(2.0)
    admission.latencies.record(1.0)
    submit(admission, 6)
    assert admission.retry_after() == pytest.approx(5.0)  # 10 x 1.0 s / 2

    single = AdmissionController(workers=2, clock=FakeClock())
    submit(single, 1)
    single.latencies.record(0.1)
    assert single.retry_after() == 1.0  # 1 x 0.1 s / 2, clamped
    single.latencies.record(1000.0)
    assert single.retry_after() == 60.0  # 1 x 500.05 s / 2, clamped


# ----------------------------------------------------------------------
# the static bound
# ----------------------------------------------------------------------
def make_request(tiny_context, seed=0):
    return EvalRequest(
        model=tiny_context.result("tea").model,
        dataset=tiny_context.evaluation_dataset(),
        copy_levels=(1,),
        spf_levels=(1,),
        seed=seed,
    )


def test_static_admission_keeps_exact_legacy_shedding(tiny_context):
    # The bound stays max_depth forever — the contract the deterministic
    # overload tests and retrying clients rely on.
    admission = AdmissionController(max_depth=2)
    request = make_request(tiny_context)
    admission.submit(Job(request=request))
    admission.submit(Job(request=request))
    with pytest.raises(QueueFullError):
        admission.submit(Job(request=request))
    assert admission.drain_snapshot()["effective_depth"] == 2


# ----------------------------------------------------------------------
# clock discipline (the monotonic/wall bugfix pin)
# ----------------------------------------------------------------------
def test_job_created_is_monotonic_and_created_wall_is_wall_time():
    mono_before = time.monotonic()
    wall_before = time.time()
    job = Job(request=None)
    mono_after = time.monotonic()
    wall_after = time.time()
    assert mono_before <= job.created <= mono_after
    assert wall_before <= job.created_wall <= wall_after


def test_job_latency_never_mixes_clock_epochs(monkeypatch):
    # Pin the two timestamps to wildly different epochs: latency must come
    # out of the monotonic pair alone.  If the latency path differenced
    # created against wall time (or created_wall against monotonic), the
    # result would be off by ~2e9 seconds — unmistakable.
    import repro.serve.admission as admission_module

    job = Job(request=None, created=50.0, created_wall=2_000_000_000.0)
    monkeypatch.setattr(admission_module.time, "monotonic", lambda: 51.5)
    assert job.latency == pytest.approx(1.5)
