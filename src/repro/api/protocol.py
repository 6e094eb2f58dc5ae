"""The evaluation-backend protocol: requests, results, capabilities.

The repo grew three ways to score a deployed network — the vectorized
engine (:mod:`repro.eval.engine`), the batched chip simulator
(:mod:`repro.mapping.pipeline`), and the per-corelet reference loop — each
with its own call signature and RNG conventions.  This module pins down the
*shared contract* they all serve:

* :class:`EvalRequest` — one frozen, normalized description of an
  evaluation: which trained model, which dataset, which (copies, spf) grid,
  how many repeats, which seed, which encoder, plus the chip-only options
  (spike counters, router delay).
* :class:`EvalResult` — one normalized result shape: an accumulated
  class-score tensor of shape ``(repeats, len(copy_levels),
  len(spf_levels), batch, num_classes)`` holding exact class means
  (integer readout counts divided once by ``n_k``) plus the
  per-grid-point accuracy derived from it, regardless of which backend
  produced it.
* :class:`BackendCapabilities` / :class:`EvaluationBackend` — what a
  backend must implement and how callers (and the
  :class:`~repro.api.session.Session` auto-selector) discover what it can
  serve.  A backend that cannot serve a request raises
  :class:`UnsupportedRequestError` — never a silent fallback.

Canonical randomness
--------------------

All backends draw from the same stream layout so results are comparable
across them: ``spawn_rngs(new_rng(seed), repeats)`` yields one generator
per repeat; each repeat deploys ``max(copy_levels)`` copies from that
generator and then encodes the input spikes from its advanced state.  A
stochastic-synapse request draws its per-copy LFSR seeds in between,
after deployment and before encoding, so the seeds do not depend on the
number of frames encoded.  Two backends given the same request
therefore sample identical connectivities and identical spike volumes —
which is what makes the cross-backend equivalence invariant (the same
readout spike counts, hence bit-identical scores and accuracy, on every
backend) testable at ``atol=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset

if TYPE_CHECKING:
    from repro.eval.sweep import SweepResult

#: Encoders understood by the protocol.  Only the paper's Bernoulli encoder
#: is implemented today; the field exists so new encoders extend the request
#: instead of forking a fourth call signature.
KNOWN_ENCODERS = ("stochastic",)


class UnsupportedRequestError(ValueError):
    """A backend cannot serve a request feature it was asked for.

    Raised instead of silently falling back to another backend or silently
    ignoring the feature (e.g. asking the vectorized backend for per-core
    spike counters, or the chip backend for a multi-spf grid).
    """


class ResultShapeError(ValueError):
    """A result tensor does not match its declared grid/readout layout.

    Raised by :meth:`EvalResult.class_counts` and the chip backend's
    spike-counter plumbing when the copies axis (or the class axis) of a
    tensor disagrees with the declared levels — instead of letting numpy
    broadcasting silently produce a wrong-shaped (or wrong-valued) array.
    """


@dataclass(frozen=True)
class BackendCapabilities:
    """What one evaluation backend can serve.

    Attributes:
        name: registry name of the backend.
        description: one-line human summary.
        spf_grids: can evaluate several spikes-per-frame levels in one
            request (derived from one pass over the largest level).
        cycle_accurate: simulates the chip tick by tick — supports
            ``collect_spike_counters`` and ``router_delay`` requests.
        cacheable: integer-seed results are deterministic cache keys the
            session layer may serve from its score cache.
        stochastic_synapses: can serve ``stochastic_synapses`` requests
            (per-tick Bernoulli re-sampling of every synapse from per-copy
            hardware LFSR streams).
        board_mesh: simulates a multi-chip board mesh — supports
            ``link_delay`` requests (spikes crossing a chip boundary pay a
            per-hop link delay on top of the router delay).
        multi_chip_copies: a cycle-accurate backend whose copy budget is
            not bounded by one chip's core capacity (copies spill onto
            further chips of the board).
        cores_per_chip: core capacity of one simulated chip, or ``None``
            when the backend has no per-chip budget (functional backends).
            The session's auto-selector compares the requested duplication
            footprint against this to route chip-overflowing requests to a
            board-capable backend.
    """

    name: str
    description: str
    spf_grids: bool
    cycle_accurate: bool
    cacheable: bool
    stochastic_synapses: bool = False
    board_mesh: bool = False
    multi_chip_copies: bool = False
    cores_per_chip: Optional[int] = None


@dataclass(frozen=True)
class EvalRequest:
    """One normalized evaluation request, servable by any capable backend.

    Attributes:
        model: trained model to deploy and score.
        dataset: evaluation dataset (features in [0, 1], integer labels).
        copy_levels: spatial duplication levels to report (deduplicated,
            sorted ascending; every level is a nested prefix of the largest).
        spf_levels: temporal duplication levels to report.
        repeats: independent deployment + encoding repeats.
        seed: integer root seed (cacheable, reproducible) or ``None`` for
            fresh entropy (never cached, never coalesced).
        encoder: spike-encoding scheme; only ``"stochastic"`` exists today.
        max_samples: optional cap on evaluated samples.
        collect_spike_counters: chip-only — also return per-core readout
            spike counters.
        router_delay: chip-only — override the router delivery delay.
        stochastic_synapses: chip-only — deploy with per-tick Bernoulli
            synapse re-sampling from per-copy LFSR streams instead of one
            frozen connectivity sample per copy (the paper's temporal
            averaging alternative to spatial duplication).
        link_delay: board-only — simulate a multi-chip board whose mesh
            links add ``link_delay`` ticks per chip hop to every spike that
            crosses a chip boundary (``0`` = ideal links, still a board).
            ``None`` (the default) requests no board mesh at all.
    """

    model: TrueNorthModel
    dataset: Dataset
    copy_levels: Tuple[int, ...] = (1,)
    spf_levels: Tuple[int, ...] = (1,)
    repeats: int = 1
    seed: Optional[int] = 0
    encoder: str = "stochastic"
    max_samples: Optional[int] = None
    collect_spike_counters: bool = False
    router_delay: Optional[int] = None
    stochastic_synapses: bool = False
    link_delay: Optional[int] = None

    def __post_init__(self) -> None:
        copy_levels = tuple(sorted(set(int(c) for c in self.copy_levels)))
        spf_levels = tuple(sorted(set(int(s) for s in self.spf_levels)))
        object.__setattr__(self, "copy_levels", copy_levels)
        object.__setattr__(self, "spf_levels", spf_levels)
        if not copy_levels or copy_levels[0] <= 0:
            raise ValueError("copy_levels must be positive integers")
        if not spf_levels or spf_levels[0] <= 0:
            raise ValueError("spf_levels must be positive integers")
        if self.repeats <= 0:
            raise ValueError(f"repeats must be positive, got {self.repeats}")
        if self.seed is not None and (
            not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool)
        ):
            raise ValueError(
                f"seed must be an integer or None, got {self.seed!r}; generators "
                "carry hidden state and cannot key caches or coalescing"
            )
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.encoder not in KNOWN_ENCODERS:
            raise ValueError(
                f"unknown encoder {self.encoder!r}; known: {KNOWN_ENCODERS}"
            )
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {self.max_samples}")
        if self.router_delay is not None and self.router_delay < 1:
            raise ValueError(f"router_delay must be >= 1, got {self.router_delay}")
        if self.link_delay is not None and self.link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {self.link_delay}")

    # ------------------------------------------------------------------
    @property
    def max_copies(self) -> int:
        """Largest requested spatial duplication level."""
        return self.copy_levels[-1]

    @property
    def max_spf(self) -> int:
        """Largest requested temporal duplication level."""
        return self.spf_levels[-1]

    @property
    def needs_cycle_accuracy(self) -> bool:
        """Whether the request uses a chip-only feature."""
        return (
            self.collect_spike_counters
            or self.router_delay is not None
            or self.stochastic_synapses
            or self.link_delay is not None
        )

    @property
    def needs_board_mesh(self) -> bool:
        """Whether the request uses a board-only feature (mesh link delay)."""
        return self.link_delay is not None

    def evaluation_dataset(self) -> Dataset:
        """The (possibly capped) dataset the request evaluates.

        The taken view is memoized on the (frozen, hence immutable) request
        so repeated calls — the session key path plus the backend — share
        one object and its fingerprint memo instead of re-hashing a fresh
        copy per call.
        """
        if self.max_samples is None:
            return self.dataset
        cached = getattr(self, "_evaluation_view", None)
        if cached is None:
            cached = self.dataset.take(self.max_samples)
            object.__setattr__(self, "_evaluation_view", cached)
        return cached

    def with_levels(
        self, copy_levels: Tuple[int, ...], spf_levels: Tuple[int, ...]
    ) -> "EvalRequest":
        """A copy of this request covering a different grid (same everything
        else) — the session uses it to build coalesced union requests."""
        return replace(self, copy_levels=copy_levels, spf_levels=spf_levels)


@dataclass(frozen=True)
class EvalResult:
    """One normalized evaluation result.

    Every backend builds its result the same way: integer readout spike
    counts per class, divided once by ``n_k``.  The float ``scores`` are
    therefore exact class means, bit-identical across backends whenever
    their counts agree, and the serve wire carries the counts in their
    place (:mod:`repro.serve.codec`).

    Attributes:
        backend: name of the backend that produced the result.
        copy_levels / spf_levels: the reported grid (ascending).
        scores: accumulated class-mean score tensor of shape ``(repeats,
            len(copy_levels), len(spf_levels), batch, num_classes)``,
            float64 ``counts / n_k``; ``scores[r, i, j]`` is the score a
            ``(copy_levels[i], spf_levels[j])`` deployment accumulates for
            repeat ``r``.
        accuracy: per-repeat accuracy grid ``(repeats, len(copy_levels),
            len(spf_levels))`` (argmax of ``scores`` against the labels).
        labels: evaluated ground-truth labels ``(batch,)``.
        class_neuron_counts: readout neurons per class ``n_k`` (int64) —
            the class-mean denominator, kept so integer readout spike
            counts can be recovered exactly from the float scores.
        cores: total cores occupied at each copy level.
        seed: the request's root seed (``None`` = fresh entropy).
        repeats: number of independent repeats in the tensors.
        spike_counters: chip backend only (``collect_spike_counters``):
            per-core readout spike counters of shape ``(repeats, max_copies,
            cores_per_copy, batch)``; ``None`` elsewhere.
    """

    backend: str
    copy_levels: Tuple[int, ...]
    spf_levels: Tuple[int, ...]
    scores: np.ndarray
    accuracy: np.ndarray
    labels: np.ndarray
    class_neuron_counts: np.ndarray
    cores: np.ndarray
    seed: Optional[int]
    repeats: int
    spike_counters: Optional[np.ndarray] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    @property
    def mean_accuracy(self) -> np.ndarray:
        """Accuracy grid averaged over repeats."""
        return self.accuracy.mean(axis=0)

    @property
    def std_accuracy(self) -> np.ndarray:
        """Accuracy standard deviation over repeats."""
        return self.accuracy.std(axis=0)

    def accuracy_at(self, copies: int, spikes_per_frame: int) -> float:
        """Mean accuracy of one grid point."""
        row = self.copy_levels.index(copies)
        col = self.spf_levels.index(spikes_per_frame)
        return float(self.mean_accuracy[row, col])

    def class_counts(self) -> np.ndarray:
        """Accumulated integer readout spike counts per class.

        Scores are per-class *means* (``counts / n_k``); multiplying back by
        ``n_k`` and rounding recovers the exact integers because every count
        is a small integer and the float error of one division is orders
        of magnitude below 1/2.  Shape matches :attr:`scores`, dtype int64.

        Raises:
            ResultShapeError: when the score tensor's grid axes disagree
                with the declared copy/spf levels or its class axis
                disagrees with ``class_neuron_counts`` — numpy would
                otherwise broadcast a mismatched ``n_k`` silently and
                return well-shaped wrong integers.
        """
        scores = np.asarray(self.scores)
        n_k = np.asarray(self.class_neuron_counts)
        if scores.ndim != 5:
            raise ResultShapeError(
                "scores must be (repeats, copies, spf, batch, classes); got "
                f"{scores.ndim}-D shape {scores.shape}"
            )
        expected_grid = (len(self.copy_levels), len(self.spf_levels))
        if scores.shape[1:3] != expected_grid:
            raise ResultShapeError(
                f"scores grid axes {scores.shape[1:3]} do not match the "
                f"declared levels {expected_grid} "
                f"(copy_levels={self.copy_levels}, spf_levels={self.spf_levels})"
            )
        if n_k.ndim != 1 or scores.shape[-1] != n_k.shape[0]:
            raise ResultShapeError(
                f"class axis of scores ({scores.shape[-1]} classes) does not "
                f"match class_neuron_counts of shape {n_k.shape}"
            )
        return np.rint(scores * n_k).astype(np.int64)

    def sweep(self, label: str = "") -> "SweepResult":
        """This result as a :class:`repro.eval.sweep.SweepResult`.

        Keeps the comparison/matching machinery of Table 2 and Figures 8-9
        working unchanged on top of any backend.
        """
        from repro.eval.sweep import SweepResult

        return SweepResult(
            copy_levels=self.copy_levels,
            spf_levels=self.spf_levels,
            mean_accuracy=self.mean_accuracy,
            std_accuracy=self.std_accuracy,
            cores=self.cores,
            repeats=self.repeats,
            label=label,
        )


@runtime_checkable
class EvaluationBackend(Protocol):
    """What every registered evaluation backend implements.

    ``capabilities()`` advertises what the backend can serve (the session's
    auto-selector and validation read it); ``evaluate(request)`` serves one
    request or raises :class:`UnsupportedRequestError`.  Backends validate
    — they never silently drop a request feature they do not implement.
    """

    name: str

    def capabilities(self) -> BackendCapabilities:
        """Describe what this backend can serve."""
        ...

    def evaluate(self, request: EvalRequest) -> EvalResult:
        """Serve one evaluation request."""
        ...
