"""The benchmark's fixed configuration: models, grid, key spaces, rates.

Everything a later change may not edit without re-baselining lives here.
The open-loop rates are frozen absolute request rates, sized at about a
third and a half of what each workload completes in its closed loop on the
commit that introduced the benchmark (2 vCPU, scipy-openblas 0.3.31 pinned
to one thread, Python 3.11, numpy 2.4).  Higher rates let one slow stretch
of a shared host queue requests for the rest of a round, which moved p95
by half from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Learning methods every workload trains and evaluates.
METHODS = ("tea", "biased")

#: Backends per workload request; board requests carry ``link_delay=1``.
BACKENDS = ("vectorized", "chip", "board")
LINK_DELAY = {"vectorized": None, "chip": None, "board": 1}

#: Fixed replica ports: the front's rendezvous ring hashes "host:port", so
#: fixed ports keep the model-to-replica assignment the same on every run.
REPLICA_PORT = 28101

#: Open-loop rates (requests per second) per workload: (r1, r2).
RATES: Dict[str, Tuple[float, float]] = {
    "serve-hot": (6.0, 9.0),
    "serve-churn": (7.0, 11.0),
    "sweep-cold": (5.0, 7.5),
}

#: Share of ``--seconds`` spent in each measured phase, split over
#: ``ROUNDS`` interleaved rounds (see ``workloads.Workload.run_phases``).
ROUNDS = 5
PHASE_SHARES = (("capacity", 0.4), ("r1", 0.4), ("r2", 0.2))

#: Median CPU time of the host probe's chunk (``hostprobe``) on the host
#: that froze the rates; timed metrics are reported at this host speed.
HOST_REFERENCE_MS = 1.4

#: Each end-to-end metric of the JSON result (and ``BENCHMARK.json``) and
#: its unit; all but ``capacity_rps`` are better lower.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms.r1", "ms"),
    ("capacity_rps", "1/s"),
    ("grid_ms.vectorized", "ms"),
    ("grid_ms.chip", "ms"),
    ("grid_ms.board", "ms"),
    ("rss_mb", "MB"),
)

#: End-to-end metrics printed with the others but left out of the JSON
#: result: on a shared 2-vCPU host the open-loop p95 of ~150 requests moved
#: by 0.2-0.4 (quartile distance over median) across ten seeds, wider than
#: any bound a regression gate could hold, and the p50 at r2, where a slow
#: stretch queues more requests than at r1, by 0.09-0.17 on sweep-cold.
PRINTED_ONLY = (
    ("p50_ms.r2", "ms"),
    ("p95_ms.r1", "ms"),
    ("p95_ms.r2", "ms"),
)

#: The timed metrics as measured, before scaling to the reference host
#: speed, and the probe time that scaled them; printed, not in the JSON.
RAW = tuple((f"raw.{name}", unit) for name, unit in END_TO_END + PRINTED_ONLY
            if name not in ("setup_s", "rss_mb")) + (("host.probe_ms", "ms"),)

_HOT_R1 = "p50_ms.r1 on serve-hot"
_HOT_CAP = "p50_ms.r1 and capacity_rps on serve-hot"
_CHURN_ADMIT = "p95_ms.r2 and capacity_rps on serve-churn"
_CHURN_CAP = "capacity_rps on serve-churn"
_CHIP_BOARD = "grid_ms.chip and grid_ms.board on sweep-cold"
_SETUP = "setup_s on every workload"

#: Per-layer metrics of the traced run: name, unit, better, and the
#: end-to-end metric (and workload) a change to that layer should move.
PER_LAYER = (
    ("client.decode_ms", "ms", "lower", _HOT_R1),
    ("client.response_kb", "kB", "lower", _HOT_R1),
    ("front.evaluate_ms", "ms", "lower", _HOT_CAP),
    ("front.proxy_self_ms", "ms", "lower", _HOT_CAP),
    ("front.connects_per_request", "count", "lower", _HOT_CAP),
    ("front.refresh_ms", "ms", "lower", _HOT_CAP),
    ("handler.post_ms", "ms", "lower", _HOT_R1),
    ("handler.self_ms", "ms", "lower", _HOT_R1),
    ("codec.encode_result_ms", "ms", "lower", _HOT_R1),
    ("codec.decode_request_ms", "ms", "lower", _HOT_R1),
    ("server.enqueue_ms", "ms", "lower", _CHURN_ADMIT),
    ("admission.wait_ms", "ms", "lower", _CHURN_ADMIT),
    ("admission.batch_jobs", "count", "higher", _CHURN_ADMIT),
    ("admission.shed", "count", "lower", _CHURN_ADMIT),
    ("session.flush_ms", "ms", "lower", _CHURN_CAP),
    ("memo.hit_ratio", "ratio", "higher", _CHURN_CAP),
    ("session.engine_passes", "count", "lower", _CHURN_CAP),
    ("session.coalesced_per_pass", "ratio", "higher", _CHURN_CAP),
    ("backend.vectorized_ms", "ms", "lower", "grid_ms.vectorized on sweep-cold"),
    ("backend.chip_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("backend.board_ms", "ms", "lower", "grid_ms.board on sweep-cold"),
    ("backend.chip_self_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("eval.cumulative_scores_ms", "ms", "lower", "grid_ms.vectorized on sweep-cold"),
    ("eval.evaluate_scores_ms", "ms", "lower", "grid_ms.vectorized on sweep-cold"),
    ("eval.score_cache.hit_ratio", "ratio", "higher", "grid_ms.vectorized on sweep-cold"),
    ("mapping.build_corelets_ms", "ms", "lower", _CHIP_BOARD),
    ("mapping.deploy_ms", "ms", "lower", _CHIP_BOARD),
    ("mapping.program_chip_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("mapping.run_chip_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("mapping.program_board_ms", "ms", "lower", "grid_ms.board on sweep-cold"),
    ("mapping.run_board_ms", "ms", "lower", "grid_ms.board on sweep-cold"),
    ("mapping.passes_per_grid.chip", "count", "lower", "grid_ms.chip on sweep-cold"),
    ("mapping.passes_per_grid.board", "count", "lower", "grid_ms.board on sweep-cold"),
    ("encoding.encode_ms", "ms", "lower", _CHIP_BOARD),
    ("truenorth.chip_step_self_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("truenorth.core_tick_self_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("truenorth.crossbar_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("truenorth.router_ms", "ms", "lower", "grid_ms.chip on sweep-cold"),
    ("truenorth.core_ticks", "count", "lower", "grid_ms.chip on sweep-cold"),
    ("truenorth.host_us_per_core_tick", "us", "lower", "grid_ms.chip on sweep-cold"),
    ("board.step_self_ms", "ms", "lower", "grid_ms.board on sweep-cold"),
    ("board.link_spikes", "count", "lower", "grid_ms.board on sweep-cold"),
    ("setup.train_s.tea", "s", "lower", _SETUP),
    ("setup.train_s.biased", "s", "lower", _SETUP),
    ("setup.boot_s.replica", "s", "lower", _SETUP),
    ("setup.boot_s.front", "s", "lower", _SETUP),
    ("loadgen.lag_ms", "ms", "lower", "none: health of the load generator"),
    ("trace.overhead_pct", "%", "lower", "none: cost of tracing"),
)


@dataclass(frozen=True)
class Config:
    """Sizes of one benchmark run (the real one, or the tiny self-check)."""

    testbench: int = 1
    train_size: int = 200
    test_size: int = 250
    epochs: int = 2
    eval_samples: int = 200
    model_seed: int = 0
    copy_levels: Tuple[int, ...] = (1, 2, 4, 8)
    spf_levels: Tuple[int, ...] = (1, 2, 4)
    repeats: int = 2
    #: sub-grid with the same maxima as the full grid (memo slices it).
    sub_grid: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((1, 8), (4,))
    #: sub-grid with smaller maxima (its own coalescing key).
    small_grid: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((1, 2, 4), (1, 2))
    hot_seeds: int = 8
    hot_zipf: float = 1.0
    churn_seeds: int = 64
    churn_zipf: float = 0.6
    churn_warmup: int = 96
    churn_recheck: int = 32
    #: fixed seeds whose class-count digests are pinned in digests.json.
    canary_seeds: Tuple[int, ...] = (1, 2, 3)
    setup_repeats: int = 5
    replicas: int = 2
    client_timeout: float = 120.0
    rates: Optional[Dict[str, Tuple[float, float]]] = None

    def rate(self, workload: str) -> Tuple[float, float]:
        return (self.rates or RATES)[workload]

    def grid(self, variant: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(copy_levels, spf_levels)`` of a request variant."""
        if variant == "full":
            return self.copy_levels, self.spf_levels
        if variant == "sub":
            return self.sub_grid
        return self.small_grid

    def serve_args(self) -> Tuple[str, ...]:
        """``repro-serve`` replica arguments hosting this config's models."""
        return (
            "--methods", ",".join(METHODS),
            "--testbench", str(self.testbench),
            "--train-size", str(self.train_size),
            "--test-size", str(self.test_size),
            "--epochs", str(self.epochs),
            "--eval-samples", str(self.eval_samples),
            "--seed", str(self.model_seed),
        )


FULL = Config()

#: A run of every workload in seconds, for checking the benchmark itself.
SELF_CHECK = replace(
    FULL,
    train_size=60,
    test_size=40,
    epochs=1,
    eval_samples=20,
    copy_levels=(1, 2),
    spf_levels=(1, 2),
    repeats=1,
    sub_grid=((2,), (2,)),
    small_grid=((1,), (1,)),
    hot_seeds=2,
    churn_seeds=4,
    churn_warmup=4,
    churn_recheck=4,
    canary_seeds=(),
    setup_repeats=1,
    rates={name: (30.0, 40.0) for name in RATES},
)
