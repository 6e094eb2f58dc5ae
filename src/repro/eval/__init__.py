"""Evaluation harness for deployed TrueNorth networks.

This package measures the three quantities the paper co-optimizes:

* **inference accuracy** of deployed (quantized, sampled) networks under
  varying spatial duplication (network copies) and temporal duplication
  (spikes per frame) — :mod:`repro.eval.accuracy` and :mod:`repro.eval.sweep`;
* **core occupation** — :mod:`repro.eval.occupation`;
* **performance** (inference latency implied by the spike-per-frame count) —
  :mod:`repro.eval.performance`;

plus the accuracy-matched comparison procedure of Table 2
(:mod:`repro.eval.comparison`) and the synaptic-deviation analysis of
Figure 4 (:mod:`repro.eval.deviation`).

All deployed evaluation runs on the vectorized multi-copy engine
(:mod:`repro.eval.engine`): every copy's sampled weights are stacked into
per-layer tensors and whole (copies x spf x batch) spike volumes propagate
in a handful of matmuls.  :mod:`repro.eval.runner` layers the
(copies, spf) grid sweep, streamed encoding, and a results cache on top.
Deployed class scores follow the float model's merge convention (per-class
means, ``1/n_k`` weighting) — see :mod:`repro.eval.engine` for the full
scoring and firing-rule conventions.

Which evaluator do I use?
-------------------------

Callers should not pick an engine here directly: :mod:`repro.api` wraps
all of them — the vectorized engine, the batched chip simulator, the
multi-chip board simulator, and the reference loop — behind one
``EvalRequest``/``Session`` facade with backend selection, caching, and
request coalescing.  The full backend-choice guide lives in the top-level
``README.md`` ("Which backend do I use?"); in short: ``vectorized`` for
functional grid sweeps, ``chip`` for cycle-accurate validation, ``board``
for cycle-accurate sweeps whose copy budget overflows one chip (copies
spread over a chip mesh, splitting oversized copies, with inter-chip
``link_delay`` folded into the exact latency model — auto-selected when a
request sets ``link_delay`` or exceeds the chip core budget),
``reference`` for ground truth, and the session's caches for repeated
evaluations of the same configuration
(:class:`~repro.eval.runner.ScoreCache` for vectorized score tensors in
memory, :class:`repro.api.ResultMemo` for whole results of every backend,
persisted when given a ``cache_dir``).

The chip backend runs **repeat-folded multi-copy chip images**:
the requested copies of *all repeats* are programmed side by side
(stacked per-core crossbar tensors, per-copy LFSR streams; each repeat
block carries its own deployment and input volume through the chip's
grouped-input form) and advance as one ``repeats x copies x batch``
lock-step pass.  A ``(copies, spf, repeats)`` grid, stochastic synapses
included, costs **one** chip pass: it runs ``max(spf_levels)`` ticks and
reads every spf level off the run (the frames of a smaller spf are a
prefix of the larger one's, the per-copy LFSR seeds are drawn before
encoding, and every route on a chip has one latency — see
:mod:`repro.mapping.pipeline`).  Use it for any cycle-accurate request,
including multi-spf grids and ``stochastic_synapses`` sweeps; copy and
repeat levels are exact integer cumsum prefixes of the one pass,
bit-identical to the per-(spf, repeat) loop.  The board backend programs
every board chip as the same kind of image and folds repeats the same
way; only split board copies at ``link_delay > 0`` take one pass per spf
level.  Every pass runs in-process.  The property tests pin the image
against the scalar per-sample chip path
(:func:`repro.mapping.pipeline.run_chip_inference`).
"""

from repro.eval.accuracy import DeployedAccuracy, evaluate_deployed_accuracy
from repro.eval.engine import (
    VectorizedEvaluator,
    evaluate_scores_reference,
    forward_spikes_reference,
)
from repro.eval.runner import (
    GLOBAL_SCORE_CACHE,
    ScoreCache,
    SweepRunner,
    dataset_fingerprint,
    model_fingerprint,
)
from repro.eval.sweep import SweepResult, accuracy_sweep, accuracy_boost
from repro.eval.occupation import core_occupation, occupation_table
from repro.eval.performance import frames_to_latency, speedup_between
from repro.eval.comparison import (
    MatchedComparison,
    match_accuracy_levels,
    core_occupation_comparison,
    performance_comparison,
)
from repro.eval.deviation import model_deviation_report

__all__ = [
    "DeployedAccuracy",
    "evaluate_deployed_accuracy",
    "VectorizedEvaluator",
    "evaluate_scores_reference",
    "forward_spikes_reference",
    "SweepRunner",
    "ScoreCache",
    "GLOBAL_SCORE_CACHE",
    "model_fingerprint",
    "dataset_fingerprint",
    "SweepResult",
    "accuracy_sweep",
    "accuracy_boost",
    "core_occupation",
    "occupation_table",
    "frames_to_latency",
    "speedup_between",
    "MatchedComparison",
    "match_accuracy_levels",
    "core_occupation_comparison",
    "performance_comparison",
    "model_deviation_report",
]
