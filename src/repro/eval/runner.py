"""SweepRunner: one-pass evaluation of a whole (copies, spf) grid.

The sweep drivers of Figures 7-9 and Table 2 all need deployed accuracy over
a grid of spatial x temporal duplication levels.  :class:`SweepRunner` wires
the pieces together on top of :class:`repro.eval.engine.VectorizedEvaluator`:

* the corelets are built once and the *largest* copy count is deployed once
  per repeat;
* the input frames are encoded once per repeat, in chunks of spike frames
  written straight into the engine's float32 GEMM input (the chunk and the
  encoder's one 64 KiB block of uniform draws bound the memory), and pushed
  through all copies in a single vectorized pass;
* every smaller grid point is derived from cumulative sums of the score
  tensor (the scores of a 16-copy, 4-spf deployment contain those of every
  nested configuration — just sum fewer copies / fewer frames);
* repeated evaluations of the same (model, grid, seed) are served from an
  in-memory results cache keyed by ``(model fingerprint, copies, spf,
  seed)``, which the experiment drivers share when they re-sweep the same
  trained model (e.g. Figure 7 feeding Figure 8, or Figure 9(a) probing
  several spf levels of the same Table 2 procedure).

Results that must outlive the process — across restarts, or shared by
several processes — persist in the one result store of every backend,
:class:`repro.api.ResultMemo` with a ``cache_dir``.

Caching only engages for integer seeds — a caller-supplied generator has
hidden state, so results evaluated from one are never reused.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset
from repro.eval.engine import VectorizedEvaluator
from repro.mapping.corelet import CoreletNetwork, build_corelets
from repro.mapping.duplication import deploy_with_copies
from repro.nn.metrics import accuracy_score
from repro.utils.rng import RngLike, new_rng, spawn_rngs


#: Memoized fingerprints keyed by object identity.  Models and datasets are
#: de-facto immutable once built (Dataset is a frozen dataclass), but they
#: hold numpy arrays and thus are unhashable, so this is an ``id()`` table
#: with a weak reference guarding against id reuse after garbage collection.
_FINGERPRINT_MEMO: Dict[int, Tuple["weakref.ref", str]] = {}


def _memoized_fingerprint(obj, compute: Callable[[], str], hashed_arrays) -> str:
    """Content hash memoized per object identity.

    The memo is only sound if the hashed content does not change under it,
    so the arrays that went into the hash are frozen (``writeable = False``)
    as a best-effort guard: a direct in-place mutation afterwards raises
    instead of silently serving cached scores for the pre-mutation object.
    Objects holding view arrays are never memoized (their base buffer stays
    writable; the hash is recomputed per call, the pre-memo behaviour).
    The guard is not airtight — writing through a view taken *before* the
    first fingerprint call, or replacing a list slot with a new array,
    bypasses it — so trained models and evaluation datasets must be treated
    as immutable once they enter the evaluation layer, which everything in
    this package does.
    """
    entry = _FINGERPRINT_MEMO.get(id(obj))
    if entry is not None and entry[0]() is obj:
        return entry[1]
    fingerprint = compute()
    if any(array.base is not None for array in hashed_arrays):
        return fingerprint
    if len(_FINGERPRINT_MEMO) > 64:
        for key in [k for k, (ref, _) in _FINGERPRINT_MEMO.items() if ref() is None]:
            del _FINGERPRINT_MEMO[key]
    try:
        _FINGERPRINT_MEMO[id(obj)] = (weakref.ref(obj), fingerprint)
    except TypeError:
        return fingerprint  # no weak references; recompute next time
    for array in hashed_arrays:
        array.flags.writeable = False
    return fingerprint


def model_fingerprint(model: TrueNorthModel) -> str:
    """Stable content hash of a trained model (architecture + weights).

    Memoized per model instance so repeated sweeps of the same trained model
    (the cache-hit path of serve-style workloads) do not re-hash the full
    weight tensors on every request.  Side effect: the hashed weight arrays
    are frozen (``writeable = False``) to keep the memo sound — treat a
    model as immutable once it has been evaluated.
    """

    def compute() -> str:
        digest = hashlib.sha256()
        arch = model.architecture
        digest.update(
            f"{arch.name}|{arch.input_dim}|{arch.num_classes}|"
            f"{arch.synaptic_value}|{len(arch.layers)}".encode()
        )
        for layer_weights in model.block_weights:
            for weights in layer_weights:
                digest.update(str(weights.shape).encode())
                digest.update(
                    np.ascontiguousarray(weights, dtype=np.float64).tobytes()
                )
        return digest.hexdigest()

    arrays = [w for layer_weights in model.block_weights for w in layer_weights]
    return _memoized_fingerprint(model, compute, arrays)


def dataset_fingerprint(dataset: Dataset) -> str:
    """Stable content hash of an evaluation dataset (features + labels).

    Memoized per dataset instance; the hashed feature/label arrays are
    frozen to keep the memo sound (see :func:`model_fingerprint`).
    """

    def compute() -> str:
        digest = hashlib.sha256()
        features = np.ascontiguousarray(dataset.features, dtype=np.float64)
        labels = np.ascontiguousarray(dataset.labels)
        digest.update(str(features.shape).encode())
        digest.update(features.tobytes())
        digest.update(labels.tobytes())
        return digest.hexdigest()

    return _memoized_fingerprint(
        dataset, compute, (dataset.features, dataset.labels)
    )


class ScoreCache:
    """In-memory cache of evaluated score tensors.

    Keys are ``(model fingerprint, max copies, max spf, seed, repeats,
    dataset fingerprint)`` — everything that determines the evaluated score
    grid.
    Values are the per-repeat cumulative score tensors, from which any nested
    (copies, spf) sub-grid can be read off without re-deploying anything.

    Safe to share across threads (the serve worker pool shares one cache):
    the eviction read-modify-write in :meth:`put` and the hit/miss counters
    are guarded by a lock.
    """

    def __init__(self, max_entries: int = 16):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: Dict[Tuple, List[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[List[np.ndarray]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def put(self, key: Tuple, value: List[np.ndarray]) -> None:
        # Cached tensors are handed out by reference; freeze them so a caller
        # mutating a returned array cannot silently poison later sweeps.
        for array in value:
            array.flags.writeable = False
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                # Drop the oldest entry (insertion order) to bound memory.
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Default cache shared by every :class:`SweepRunner` that is not given one.
GLOBAL_SCORE_CACHE = ScoreCache(max_entries=16)


def _evaluate_repeat(
    model: TrueNorthModel,
    features: np.ndarray,
    max_copies: int,
    max_spf: int,
    chunk_frames: Optional[int],
    repeat_rng: np.random.Generator,
    corelet_network: CoreletNetwork,
) -> np.ndarray:
    """One repeat's cumulative score tensor.

    One independent deployment (``max_copies`` sampled connectivities) plus
    one evaluation pass, consuming ``repeat_rng`` in that order.
    """
    deployment = deploy_with_copies(
        model, copies=max_copies, rng=repeat_rng, corelet_network=corelet_network
    )
    evaluator = VectorizedEvaluator(deployment.copies)
    scores = evaluator.evaluate_scores(
        features, max_spf, rng=repeat_rng, chunk_frames=chunk_frames
    )  # (copies, spf, batch, classes)
    return np.cumsum(np.cumsum(scores, axis=0), axis=1)


@dataclass
class SweepRunner:
    """Evaluates a trained model over a (copies, spf) grid in one pass.

    Args:
        copy_levels: spatial duplication levels to report (deduplicated and
            sorted ascending).
        spf_levels: temporal duplication levels to report.
        repeats: independent deployment + encoding repeats averaged per grid
            point.
        max_samples: optional cap on evaluated samples.
        chunk_frames: spike frames encoded and propagated per chunk, each
            chunk one float32 GEMM input (``None`` = at most about 4 million
            elements per chunk).
        cache: results cache; ``None`` uses the module-level
            :data:`GLOBAL_SCORE_CACHE`.
    """

    copy_levels: Sequence[int] = (1, 2, 4, 8, 16)
    spf_levels: Sequence[int] = (1, 2, 3, 4)
    repeats: int = 3
    max_samples: Optional[int] = None
    chunk_frames: Optional[int] = None
    cache: Optional[ScoreCache] = None

    def __post_init__(self):
        self.copy_levels = tuple(sorted(set(int(c) for c in self.copy_levels)))
        self.spf_levels = tuple(sorted(set(int(s) for s in self.spf_levels)))
        if not self.copy_levels or self.copy_levels[0] <= 0:
            raise ValueError("copy_levels must be positive integers")
        if not self.spf_levels or self.spf_levels[0] <= 0:
            raise ValueError("spf_levels must be positive integers")
        if self.repeats <= 0:
            raise ValueError(f"repeats must be positive, got {self.repeats}")
        if self.cache is None:
            self.cache = GLOBAL_SCORE_CACHE
        self._take_memo: Optional[Tuple["weakref.ref", int, Dataset]] = None

    def _evaluation_view(self, dataset: Dataset) -> Dataset:
        """The (possibly capped) evaluation dataset, memoized per source.

        ``dataset.take`` builds a fresh object per call, which would defeat
        the per-instance fingerprint memo on every request of a serve-style
        workload; reusing the taken view keeps the cache-hit path hash-free.
        The memo is keyed on (source identity, ``max_samples``) so changing
        the cap on a live runner takes effect.
        """
        if self.max_samples is None:
            return dataset
        if (
            self._take_memo is not None
            and self._take_memo[0]() is dataset
            and self._take_memo[1] == self.max_samples
        ):
            return self._take_memo[2]
        taken = dataset.take(self.max_samples)
        try:
            self._take_memo = (weakref.ref(dataset), self.max_samples, taken)
        except TypeError:
            self._take_memo = None
        return taken

    # ------------------------------------------------------------------
    def cumulative_scores(
        self,
        model: TrueNorthModel,
        dataset: Dataset,
        rng: RngLike = None,
        corelet_network: Optional[CoreletNetwork] = None,
    ) -> List[np.ndarray]:
        """Per-repeat cumulative score tensors of the largest configuration.

        Each returned array has shape ``(max_copies, max_spf, batch,
        num_classes)`` and holds ``cumsum`` over the copy and frame axes, so
        ``tensor[c - 1, s - 1]`` is the accumulated score of a (c, s)
        deployment.  Served from the in-memory cache when the same (model,
        grid, seed) was evaluated before.

        Each repeat is one independent deployment plus one evaluation pass
        (:func:`_evaluate_repeat`) on its own spawned generator.
        """
        evaluation = self._evaluation_view(dataset)
        max_copies = self.copy_levels[-1]
        max_spf = self.spf_levels[-1]
        key = None
        # Only an explicit integer seed is cacheable: rng=None means fresh
        # entropy (each call must be an independent random sample) and a
        # caller-supplied generator has hidden state.
        if isinstance(rng, int) and not isinstance(rng, bool):
            key = (
                model_fingerprint(model),
                max_copies,
                max_spf,
                rng,
                self.repeats,
                dataset_fingerprint(evaluation),
            )
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        network = corelet_network or build_corelets(model)
        tensors = [
            _evaluate_repeat(
                model,
                evaluation.features,
                max_copies,
                max_spf,
                self.chunk_frames,
                repeat_rng,
                network,
            )
            for repeat_rng in spawn_rngs(new_rng(rng), self.repeats)
        ]
        if key is not None:
            self.cache.put(key, tensors)
        return tensors

    def run(
        self,
        model: TrueNorthModel,
        dataset: Dataset,
        rng: RngLike = None,
        label: str = "",
        corelet_network: Optional[CoreletNetwork] = None,
    ):
        """Full grid sweep; returns a :class:`repro.eval.sweep.SweepResult`."""
        from repro.eval.sweep import SweepResult

        evaluation = self._evaluation_view(dataset)
        labels = evaluation.labels
        tensors = self.cumulative_scores(
            model, dataset, rng=rng, corelet_network=corelet_network
        )
        accuracy_samples = np.zeros(
            (self.repeats, len(self.copy_levels), len(self.spf_levels)),
            dtype=np.float64,
        )
        for repeat_index, grid_cumulative in enumerate(tensors):
            for i, copies in enumerate(self.copy_levels):
                for j, spf in enumerate(self.spf_levels):
                    merged = grid_cumulative[copies - 1, spf - 1]
                    predictions = merged.argmax(axis=1)
                    accuracy_samples[repeat_index, i, j] = accuracy_score(
                        labels, predictions
                    )
        # cores_per_network comes from the architecture directly, so a
        # cache-served run never rebuilds the corelets.
        cores_per_copy = model.architecture.cores_per_network
        cores = np.array([c * cores_per_copy for c in self.copy_levels])
        return SweepResult(
            copy_levels=self.copy_levels,
            spf_levels=self.spf_levels,
            mean_accuracy=accuracy_samples.mean(axis=0),
            std_accuracy=accuracy_samples.std(axis=0),
            cores=cores,
            repeats=self.repeats,
            label=label,
        )
