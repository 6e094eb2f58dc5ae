"""Adaptive admission controller under a fake clock.

Every test drives :class:`LatencyController` (and its integration into
:class:`AdmissionController`) with an injected monotonic clock, so control
ticks fire exactly when the test says — no sleeps, no wall-clock flake.
The clock-discipline tests at the bottom pin the ``Job`` timestamp split
the module docstring promises: ``created`` is monotonic (the only clock
latency math touches), ``created_wall`` is wall time (external records
only), and the two are never differenced against each other.
"""

import time

import pytest

from repro.api.protocol import EvalRequest
from repro.serve.admission import AdmissionController, Job, QueueFullError
from repro.serve.controller import ControllerConfig, LatencyController


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_controller(clock, initial_depth=64, workers=1, **config):
    return LatencyController(
        initial_depth=initial_depth,
        config=ControllerConfig(**config),
        workers=workers,
        clock=clock,
    )


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_p95": 0.0},
        {"target_p95": -1.0},
        {"tick_interval": 0.0},
        {"min_depth": 0},
        {"min_depth": 8, "max_depth": 4},
        {"increase_step": 0},
        {"decrease_factor": 0.0},
        {"decrease_factor": 1.0},
        {"band": 0.0},
        {"band": 1.5},
    ],
)
def test_config_rejects_invalid_tunables(kwargs):
    with pytest.raises(ValueError):
        ControllerConfig(**kwargs)


def test_controller_rejects_nonpositive_initial_depth():
    with pytest.raises(ValueError):
        LatencyController(initial_depth=0)


# ----------------------------------------------------------------------
# depth adaptation
# ----------------------------------------------------------------------
def test_depth_decreases_multiplicatively_when_p95_over_target():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, tick_interval=0.5, min_depth=2)
    assert ctl.effective_depth == 64
    clock.advance(1.0)
    ctl.maybe_tick(p95=2.0)  # 2x over target
    assert ctl.effective_depth == 32
    clock.advance(1.0)
    ctl.maybe_tick(p95=2.0)
    assert ctl.effective_depth == 16
    snapshot = ctl.snapshot()
    assert snapshot["decreases"] == 2
    assert snapshot["last_decision"] == "decrease"


def test_depth_never_shrinks_below_min_depth():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, min_depth=4)
    for _ in range(20):
        clock.advance(1.0)
        ctl.maybe_tick(p95=10.0)
    assert ctl.effective_depth == 4


def test_depth_increases_additively_under_pressure_when_below_band():
    clock = FakeClock()
    ctl = make_controller(
        clock, target_p95=1.0, increase_step=8, band=0.8, max_depth=100
    )
    ctl.observe_rejection()  # admission pressure since last tick
    clock.advance(1.0)
    ctl.maybe_tick(p95=0.5)  # well inside the band
    assert ctl.effective_depth == 72
    assert ctl.snapshot()["last_decision"] == "increase"


def test_queue_touching_the_bound_also_counts_as_pressure():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, initial_depth=16)
    ctl.observe_queue_depth(16)  # at the bound, nothing shed yet
    clock.advance(1.0)
    ctl.maybe_tick(p95=0.1)
    assert ctl.effective_depth == 24


def test_depth_never_grows_past_max_depth():
    clock = FakeClock()
    ctl = make_controller(
        clock, target_p95=1.0, initial_depth=60, max_depth=64, increase_step=8
    )
    for _ in range(5):
        ctl.observe_rejection()
        clock.advance(1.0)
        ctl.maybe_tick(p95=0.1)
    assert ctl.effective_depth == 64


def test_no_oscillation_on_steady_in_band_load():
    # A steady load with p95 inside the deadband and no admission pressure
    # must hold the depth tick after tick — the no-oscillation property.
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, band=0.8)
    depths = []
    for _ in range(50):
        ctl.observe_completion()
        clock.advance(1.0)
        ctl.maybe_tick(p95=0.9)  # between band*target and target
        depths.append(ctl.effective_depth)
    assert set(depths) == {64}
    snapshot = ctl.snapshot()
    assert snapshot["increases"] == 0
    assert snapshot["decreases"] == 0
    assert snapshot["holds"] == 50


def test_in_band_pressure_alone_does_not_grow_depth():
    # Pressure with p95 in the deadband (band*target < p95 <= target) must
    # hold, not grow — growing there is what causes oscillation.
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, band=0.8)
    ctl.observe_rejection()
    clock.advance(1.0)
    ctl.maybe_tick(p95=0.9)
    assert ctl.effective_depth == 64
    assert ctl.snapshot()["last_decision"] == "hold"


def test_no_tick_before_interval_elapses():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0, tick_interval=0.5)
    clock.advance(0.4)
    assert not ctl.tick_due()
    ctl.maybe_tick(p95=10.0)  # early call must be a no-op
    assert ctl.effective_depth == 64
    assert ctl.snapshot()["ticks"] == 0


def test_none_target_freezes_depth_but_still_measures_drain():
    clock = FakeClock()
    ctl = LatencyController(initial_depth=2, clock=clock)  # default config
    for _ in range(10):
        ctl.observe_completion()
    clock.advance(2.0)
    ctl.maybe_tick(p95=99.0)
    assert ctl.effective_depth == 2  # frozen, even below default min_depth
    assert ctl.snapshot()["drain_rate_per_second"] == pytest.approx(5.0)


def test_missing_p95_holds():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0)
    clock.advance(1.0)
    ctl.maybe_tick(p95=None)
    assert ctl.effective_depth == 64
    assert ctl.snapshot()["last_decision"] == "hold"


# ----------------------------------------------------------------------
# Retry-After
# ----------------------------------------------------------------------
def test_retry_after_tracks_measured_drain_rate():
    clock = FakeClock()
    ctl = make_controller(clock, target_p95=1.0)
    for _ in range(8):
        ctl.observe_completion()
    clock.advance(2.0)  # 8 completions / 2 s = 4 jobs/s
    ctl.maybe_tick(p95=0.5)
    assert ctl.retry_after(queue_depth=20, mean_latency=0.1) == pytest.approx(5.0)
    assert ctl.retry_after(queue_depth=400, mean_latency=0.1) == 60.0  # clamped
    assert ctl.retry_after(queue_depth=1, mean_latency=0.1) == 1.0  # clamped


def test_retry_after_falls_back_to_latency_heuristic_before_any_drain():
    ctl = LatencyController(initial_depth=64, workers=2)
    assert ctl.retry_after(queue_depth=10, mean_latency=1.0) == pytest.approx(5.0)
    # No latency data either: one second per queued job, one worker's worth.
    assert ctl.retry_after(queue_depth=4, mean_latency=None) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# integration with AdmissionController
# ----------------------------------------------------------------------
def make_request(tiny_context, seed=0):
    return EvalRequest(
        model=tiny_context.result("tea").model,
        dataset=tiny_context.evaluation_dataset(),
        copy_levels=(1,),
        spf_levels=(1,),
        seed=seed,
    )


def test_admission_sheds_at_adapted_depth(tiny_context):
    clock = FakeClock()
    admission = AdmissionController(
        max_depth=4,
        controller_config=ControllerConfig(target_p95=0.001, min_depth=2),
        clock=clock,
    )
    request = make_request(tiny_context)
    for _ in range(4):
        admission.submit(Job(request=request))
    # Feed a latency far over target into the window, then tick: the
    # effective depth halves to 2, so the full queue (4 deep) sheds the
    # next arrival at a depth the static bound of 4 would have held at.
    admission.latencies.record(10.0)
    clock.advance(1.0)
    with pytest.raises(QueueFullError) as excinfo:
        admission.submit(Job(request=request))
    assert admission.controller.effective_depth == 2
    assert excinfo.value.retry_after >= 1.0
    snapshot = admission.snapshot()
    assert snapshot["effective_depth"] == 2
    assert snapshot["received"] == snapshot["admitted"] + snapshot["rejected"]


def test_static_admission_keeps_exact_legacy_shedding(tiny_context):
    # No controller config: the bound stays max_depth forever — the
    # contract the deterministic overload tests (and PR-4 clients) rely on.
    admission = AdmissionController(max_depth=2)
    request = make_request(tiny_context)
    admission.submit(Job(request=request))
    admission.submit(Job(request=request))
    with pytest.raises(QueueFullError):
        admission.submit(Job(request=request))
    assert admission.controller.effective_depth == 2


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
