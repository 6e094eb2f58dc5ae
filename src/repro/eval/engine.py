"""Vectorized multi-copy evaluation engine — the hot path of Figures 7-9.

The paper's evaluation sweeps push hundreds of stochastic spike frames
through up to 16 independently sampled network copies.  Doing that one
(copy, frame, corelet) triple at a time — the original
``evaluate_deployed_scores`` loop — re-gathers every corelet's input block
per call and launches a tiny matmul per (copy, frame, corelet).  This engine
removes all of those loops:

* :class:`VectorizedEvaluator` stacks every copy's sampled weights per
  corelet into one 3-D ``(copies, axons, neurons)`` tensor and propagates
  the entire ``(frames x batch)`` spike volume through all copies at once —
  one matmul per corelet per layer.  For the first layer (whose input
  spikes are shared by all copies: a splitter fans one stream out on
  hardware) the copies are folded into the output axis, so each corelet is
  a single large ``(volume, axons) @ (axons, copies * neurons)`` GEMM.
* The active-synapse firing gate is folded into the weights: propagation
  uses ``A = W + 2**-9 * |W|`` and fires iff ``x @ A > 0``, which equals
  ``(x @ W >= 0) and (x @ |W| > 0)`` exactly (see below) — no second
  mask matmul on the common path.
* :meth:`VectorizedEvaluator.evaluate_scores` encodes in chunks along the
  spikes-per-frame axis, straight into the float32 GEMM input, so what
  bounds its memory is that chunk (at most about 4 million elements unless
  ``chunk_frames`` says otherwise) plus the encoder's one 64 KiB block of
  float64 draws; the draws are the exact random stream the one-shot
  encoder would consume.

Scoring convention
------------------

Deployed class scores are **per-class means** of the readout spikes: neuron
``j`` assigned to class ``k`` contributes ``spike_j / n_k`` where ``n_k`` is
the number of readout neurons of class ``k`` — the same ``1/n_k`` merge the
float model applies via :meth:`repro.core.model.NetworkArchitecture.merge_matrix`
and :class:`repro.encoding.decoder.SpikeCountDecoder` applies to chip spike
counts.  (The pre-fix deployed path summed instead, which inflated classes
holding an extra readout neuron whenever ``output_dim % num_classes != 0``
and made deployed scores incomparable with the float model's.)

Firing rule
-----------

A neuron spikes iff its weighted sum satisfies ``y' >= 0`` *and* at least
one ON synapse received a spike this tick.  A neuron whose synapses all
sampled OFF — or any neuron on an all-zero input frame — stays silent,
matching the gated hardware rule in :mod:`repro.truenorth` (the equivalence
test checks the two spike for spike).

Exactness
---------

Sampled weights are ``0`` or ``+/-c`` with one magnitude ``c`` per network,
and spikes are 0/1, so every weighted sum is ``c`` times a small integer.
The folded gate adds ``2**-9 * c * active`` where ``active <= 256`` is the
number of contributing synapses; the perturbation is at most ``c / 2``, so
``x @ A > 0`` reproduces the two-term rule exactly: a non-negative sum with
at least one active synapse lands at ``>= 2**-9 * c``, a silent crossbar at
exactly ``0``, and a negative sum at ``<= -c / 2``.  For ``c = 1`` every
quantity is a multiple of ``2**-9`` well below 2**53, making the engine
bit-identical to the per-corelet reference loop
(:func:`evaluate_scores_reference`) regardless of accumulation order.
Networks with mixed synaptic magnitudes (not produced by the paper's
mapping, but constructible by hand) fall back to an explicit two-matmul
weights-plus-mask path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.encoding.stochastic import StochasticEncoder
from repro.mapping.corelet import CoreletNetwork
from repro.utils.rng import RngLike, new_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deploy imports us)
    from repro.mapping.deploy import DeployedNetwork

#: Gate perturbation: with at most 256 axons per core, ``2**-9 * active`` is
#: at most 1/2, strictly below the smallest nonzero |weighted sum| (one
#: synaptic magnitude), so folding never flips the sign test.
GATE_EPS = 2.0**-9

#: Soft cap on the elements of one encoded chunk (spike frames times batch
#: times features) that :meth:`VectorizedEvaluator.evaluate_scores` encodes
#: and propagates at once: 16 MB of float32 GEMM input.
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class _StackedCorelet:
    """One corelet's weights stacked over all copies.

    Attributes:
        rows: global input-channel indices of the corelet's axons.
        cols: global output-channel indices of the corelet's neurons.
        shared_folded: for first-layer corelets (shared input spikes):
            gate-folded weights of shape ``(axons, copies * neurons)`` —
            copies folded into the output axis for a single GEMM.  ``None``
            on the fallback path.
        batched_folded: for deeper corelets (per-copy input spikes):
            gate-folded weights of shape ``(copies, axons, neurons)``.
            ``None`` on the fallback path or for first-layer corelets.
        weights / mask: explicit ``(copies, axons, neurons)`` weight and
            ON-synapse tensors, kept only on the mixed-magnitude fallback
            path (both ``None`` when the gate is folded).
    """

    rows: np.ndarray
    cols: np.ndarray
    col_index: object  # slice for contiguous output channels, else the array
    shared_folded: Optional[np.ndarray]
    batched_folded: Optional[np.ndarray]
    weights: Optional[np.ndarray]
    mask: Optional[np.ndarray]


def _fold_exact(magnitude: float) -> bool:
    """True when the folded float32 gate is exact for this synaptic magnitude.

    The folded path computes ``y = c * (k + active * 2**-9)`` in float32 and
    tests ``y > 0``; that is exact when every partial sum is a float32-exact
    multiple of ``c * 2**-9``, which holds for small-integer and
    power-of-two magnitudes (``|k| <= 256``, ``active <= 256`` keep the
    integer part below 2**24).  Other magnitudes (never produced by the
    paper's Eq. (7) mapping, which uses c = 1) accumulate rounding error
    that could flip a marginal decision, so they take the explicit
    weights-plus-mask fallback instead.
    """
    if magnitude == 0.0:
        return True
    mantissa, _ = math.frexp(magnitude)
    if mantissa == 0.5:  # exact power of two
        return True
    return magnitude == int(magnitude) and magnitude <= 1024.0


def _as_slice(indices: np.ndarray):
    """A ``slice`` covering ``indices`` when they are contiguous ascending
    (the layout ``build_corelets`` produces), else the index array itself —
    slice assignment avoids fancy-indexing overhead on the hot path."""
    if indices.size and np.array_equal(
        indices, np.arange(indices[0], indices[0] + indices.size)
    ):
        return slice(int(indices[0]), int(indices[0]) + indices.size)
    return indices


def _same_structure(a: CoreletNetwork, b: CoreletNetwork) -> bool:
    """True when two corelet networks describe the same wiring.

    Copies deployed without a shared pre-built network rebuild their corelets
    independently; they can still be stacked as long as every corelet's input
    and output channels line up.
    """
    if (
        a.input_dim != b.input_dim
        or a.num_classes != b.num_classes
        or a.layer_count != b.layer_count
        or not np.array_equal(a.class_assignment, b.class_assignment)
    ):
        return False
    for layer_a, layer_b in zip(a.corelets, b.corelets):
        if len(layer_a) != len(layer_b):
            return False
        for corelet_a, corelet_b in zip(layer_a, layer_b):
            if (
                corelet_a.input_channels != corelet_b.input_channels
                or corelet_a.output_channels != corelet_b.output_channels
            ):
                return False
    return True


def class_merge_weights(network: CoreletNetwork) -> np.ndarray:
    """Class-membership indicator matrix ``(out_dim, num_classes)``.

    ``scores = (spikes @ indicator) / class_counts`` is the class-mean
    merge; the integer-summing matmul followed by one division keeps the
    result bit-identical across evaluation strategies (summation of integers
    in float64 is exact in any order).
    """
    assignment = np.asarray(network.class_assignment, dtype=np.int64)
    indicator = np.zeros((assignment.size, network.num_classes), dtype=np.float64)
    indicator[np.arange(assignment.size), assignment] = 1.0
    return indicator


def class_counts(network: CoreletNetwork) -> np.ndarray:
    """Readout-neuron count per class (``n_k``)."""
    return np.bincount(
        np.asarray(network.class_assignment, dtype=np.int64),
        minlength=network.num_classes,
    ).astype(np.float64)


class VectorizedEvaluator:
    """Evaluates many deployed copies of one corelet network at once.

    Args:
        copies: deployed copies to stack.  All copies must share the same
            corelet-network structure (the normal situation —
            :func:`repro.mapping.duplication.deploy_with_copies` builds the
            corelets once and samples N connectivities from them).
    """

    def __init__(self, copies: Sequence["DeployedNetwork"]):
        copies = list(copies)
        if not copies:
            raise ValueError("at least one deployed copy is required")
        network = copies[0].corelet_network
        for copy in copies[1:]:
            if copy.corelet_network is not network and not _same_structure(
                copy.corelet_network, network
            ):
                raise ValueError(
                    "all deployed copies must share one corelet-network structure"
                )
        self.network = network
        self.copy_count = len(copies)
        # Multi-layer networks propagate copies-first (batched matmuls need
        # the copy axis leading); single-layer networks keep the volume
        # leading and never transpose.
        self._copies_first = network.layer_count > 1
        self._layers: List[List[_StackedCorelet]] = []
        self._out_dims: List[int] = []
        for depth, layer_corelets in enumerate(network.corelets):
            stacked_layer: List[_StackedCorelet] = []
            for corelet_index, corelet in enumerate(layer_corelets):
                stacked = np.stack(
                    [
                        self._validated_weights(copy, depth, corelet_index, corelet)
                        for copy in copies
                    ]
                )  # (copies, axons, neurons)
                rows = np.asarray(corelet.input_channels, dtype=np.int64)
                cols = np.asarray(corelet.output_channels, dtype=np.int64)
                magnitudes = np.abs(stacked[stacked != 0.0])
                foldable = magnitudes.size == 0 or (
                    float(magnitudes.min()) == float(magnitudes.max())
                    and _fold_exact(float(magnitudes.min()))
                )
                if foldable:
                    # Propagation runs in float32: every weighted sum is a
                    # multiple of 2**-9 * c bounded by 257 * c, far inside
                    # float32's 24-bit exact-integer range, so the spike
                    # decisions are exact (see module docstring).
                    folded = (stacked + GATE_EPS * np.abs(stacked)).astype(np.float32)
                    if depth == 0:
                        # (copies, axons, neurons) -> (axons, copies * neurons)
                        shared = np.ascontiguousarray(
                            folded.transpose(1, 0, 2).reshape(rows.size, -1)
                        )
                        entry = _StackedCorelet(
                            rows, cols, _as_slice(cols), shared, None, None, None
                        )
                    else:
                        entry = _StackedCorelet(
                            rows, cols, _as_slice(cols), None, folded, None, None
                        )
                else:
                    entry = _StackedCorelet(
                        rows,
                        cols,
                        _as_slice(cols),
                        None,
                        None,
                        stacked,
                        (stacked != 0.0).astype(np.float64),
                    )
                stacked_layer.append(entry)
            self._layers.append(stacked_layer)
            self._out_dims.append(network.layer_output_dim(depth))
        self._buffers: dict = {}
        self._merge_indicator = class_merge_weights(network)
        self._merge_indicator32 = self._merge_indicator.astype(np.float32)
        self._class_counts = class_counts(network)
        if (self._class_counts == 0).any():
            raise ValueError("every class must have at least one readout neuron")

    @staticmethod
    def _validated_weights(copy, depth, corelet_index, corelet) -> np.ndarray:
        layer = copy.sampled_weights[depth]
        if corelet_index >= len(layer):
            raise ValueError(
                f"copy is missing sampled weights for corelet "
                f"{depth}/{corelet_index}"
            )
        sampled = layer[corelet_index]
        expected = (len(corelet.input_channels), len(corelet.output_channels))
        if sampled.shape != expected:
            raise ValueError(
                f"sampled weights of corelet {depth}/{corelet.index} have "
                f"shape {sampled.shape}, expected {expected}"
            )
        return np.asarray(sampled, dtype=np.float64)

    # ------------------------------------------------------------------
    def _scratch(self, key, shape) -> np.ndarray:
        """Reused float32 work buffer (avoids large re-allocations per call).

        Buffers never escape the evaluator un-copied (``forward_spikes``
        returns a fresh array and ``class_scores`` derives fresh arrays), but
        reuse does make one evaluator instance non-reentrant: do not share
        it across threads.
        """
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=np.float32)
            self._buffers[key] = buffer
        return buffer

    def _forward_internal(self, spike_frames: np.ndarray) -> np.ndarray:
        """Spike propagation in the engine's internal layout.

        Single-hidden-layer networks (the paper's evaluation workhorses) keep
        the spike volume as the leading axis — ``(volume, copies, out)`` —
        so the copies-folded GEMM output reshapes in place with no transpose
        at all.  Multi-layer networks switch to ``(copies, volume, out)``
        after the first layer, because a per-copy batched matmul needs the
        copy axis leading (``np.matmul`` batches over leading axes with the
        matrix in the last two).  :attr:`_copies_first` records which layout
        the final array is in.
        """
        frames = np.asarray(spike_frames)
        if frames.ndim != 2 or frames.shape[1] != self.network.input_dim:
            raise ValueError(
                f"expected spikes of shape (frames, {self.network.input_dim}), "
                f"got {frames.shape}"
            )
        volume = frames.shape[0]
        if frames.dtype == np.float32 and frames.flags.c_contiguous:
            shared = frames
        else:
            shared = self._scratch("input", (volume, frames.shape[1]))
            np.copyto(shared, frames)
        copies_first = self._copies_first
        current: Optional[np.ndarray] = None
        for depth, stacked_layer in enumerate(self._layers):
            if depth == 0 and not copies_first:
                nxt = self._scratch(
                    depth, (volume, self.copy_count, self._out_dims[depth])
                )
            else:
                nxt = self._scratch(
                    depth, (self.copy_count, volume, self._out_dims[depth])
                )
            for entry in stacked_layer:
                if entry.shared_folded is not None:
                    # First layer, gate folded: one GEMM with copies folded
                    # into the output axis.
                    mixed = shared[:, entry.rows] @ entry.shared_folded
                    spikes = (mixed > 0.0).reshape(
                        volume, self.copy_count, entry.cols.size
                    )
                    if copies_first:
                        spikes = spikes.transpose(1, 0, 2)
                elif entry.batched_folded is not None:
                    # Deeper layer, gate folded: one batched matmul per copy —
                    # (copies, volume, axons) @ (copies, axons, neurons).
                    mixed = np.matmul(current[..., entry.rows], entry.batched_folded)
                    spikes = mixed > 0.0
                else:
                    # Mixed synaptic magnitudes: explicit weights + mask pair
                    # (float64 path, not produced by the paper's mapping).
                    if depth == 0:
                        gathered = shared[:, entry.rows].astype(np.float64)
                    else:
                        gathered = current[..., entry.rows].astype(np.float64)
                    pre = np.matmul(gathered, entry.weights)
                    active = np.matmul(gathered, entry.mask)
                    spikes = (pre >= 0.0) & (active > 0.0)  # (copies, volume, n)
                    if depth == 0 and not copies_first:
                        spikes = spikes.transpose(1, 0, 2)
                nxt[:, :, entry.col_index] = spikes
            current = nxt
        return current

    def forward_spikes(self, spike_frames: np.ndarray) -> np.ndarray:
        """Propagate shared input spikes through every copy.

        Args:
            spike_frames: binary array of shape ``(frames, input_dim)``; every
                copy sees the same realizations (on hardware a splitter fans
                one spike stream out to all copies).

        Returns:
            binary float array of shape ``(copies, frames, last_out_dim)``.
        """
        internal = self._forward_internal(spike_frames)
        if not self._copies_first:
            internal = internal.transpose(1, 0, 2)
        return np.ascontiguousarray(internal, dtype=np.float64)

    def class_scores(self, spike_frames: np.ndarray) -> np.ndarray:
        """Class-mean scores for shared input spikes.

        Returns an array of shape ``(copies, frames, num_classes)``.
        """
        spikes = self._forward_internal(spike_frames)
        # Class sums are small exact integers in float32; the final division
        # runs in float64 so scores are bit-identical to the reference loop.
        summed = np.matmul(spikes, self._merge_indicator32)
        if not self._copies_first:
            summed = summed.transpose(1, 0, 2)
        return summed.astype(np.float64) / self._class_counts

    # ------------------------------------------------------------------
    def evaluate_scores(
        self,
        features: np.ndarray,
        spikes_per_frame: int,
        rng: RngLike = None,
        chunk_frames: Optional[int] = None,
    ) -> np.ndarray:
        """Score tensor over stochastic spike frames of a feature batch.

        Args:
            features: array of shape ``(batch, features)`` with values in
                [0, 1], Bernoulli-encoded into ``spikes_per_frame`` frames.
            spikes_per_frame: temporal duplication level.
            rng: randomness for the stochastic encoding (the same stream an
                unchunked :meth:`StochasticEncoder.encode` would consume).
            chunk_frames: how many spike frames to encode and propagate per
                chunk; ``None`` keeps each chunk's float32 input within
                about 4 million elements.

        Returns:
            array of shape ``(copies, spikes_per_frame, batch, num_classes)``.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(
                f"features must be 2-D (batch, features), got {features.shape}"
            )
        rng = new_rng(rng)
        batch, width = features.shape
        if chunk_frames is None:
            chunk_frames = max(1, _CHUNK_ELEMENTS // max(features.size, 1))
        if chunk_frames <= 0:
            raise ValueError(f"chunk_frames must be positive, got {chunk_frames}")
        scores = np.empty(
            (self.copy_count, spikes_per_frame, batch, self.network.num_classes),
            dtype=np.float64,
        )
        for start in range(0, spikes_per_frame, chunk_frames):
            count = min(chunk_frames, spikes_per_frame - start)
            # The encoder writes this chunk's spikes as 0.0/1.0 straight
            # into the float32 GEMM input, which _forward_internal then
            # uses as it is.
            frames = self._scratch("input", (count * batch, width))
            StochasticEncoder(spikes_per_frame=count).encode(
                features, rng=rng, out=frames.reshape(count, batch, width)
            )
            chunk_scores = self.class_scores(frames)
            scores[:, start : start + count] = chunk_scores.reshape(
                self.copy_count, count, batch, self.network.num_classes
            )
        return scores


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------
def forward_spikes_reference(
    copy: "DeployedNetwork", spike_frame: np.ndarray
) -> np.ndarray:
    """Per-corelet loop reference for one copy (used by tests/benchmarks).

    This is the original nested-loop evaluation — gather each corelet's input
    block, multiply by its sampled weights, threshold (with the explicit
    two-term firing gate) — kept as the ground truth the vectorized engine
    must match bit for bit.
    """
    spike_frame = np.asarray(spike_frame, dtype=np.float64)
    network = copy.corelet_network
    current = spike_frame
    for depth, layer_corelets in enumerate(network.corelets):
        outputs = []
        for corelet, weights in zip(layer_corelets, copy.sampled_weights[depth]):
            indices = np.asarray(corelet.input_channels, dtype=np.int64)
            gathered = current[:, indices]
            pre = gathered @ weights
            active = gathered @ (weights != 0.0).astype(np.float64)
            outputs.append(((pre >= 0.0) & (active > 0.0)).astype(np.float64))
        current = np.concatenate(outputs, axis=1)
    return current


def evaluate_scores_reference(
    copies: Sequence["DeployedNetwork"],
    features: np.ndarray,
    spikes_per_frame: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Loop-based equivalent of :meth:`VectorizedEvaluator.evaluate_scores`.

    Evaluates every (copy, frame) pair independently through
    :func:`forward_spikes_reference`.  Slow by design; the benchmark suite
    times the engine against it and the property tests assert bit-identical
    score tensors (``atol=0``).
    """
    copies = list(copies)
    if not copies:
        raise ValueError("at least one deployed copy is required")
    network = copies[0].corelet_network
    rng = new_rng(rng)
    encoder = StochasticEncoder(spikes_per_frame=spikes_per_frame)
    frames = encoder.encode(features, rng=rng)  # (spf, batch, features)
    indicator = class_merge_weights(network)
    counts = class_counts(network)
    batch = frames.shape[1]
    scores = np.zeros(
        (len(copies), spikes_per_frame, batch, network.num_classes),
        dtype=np.float64,
    )
    for copy_index, copy in enumerate(copies):
        for frame_index in range(spikes_per_frame):
            spikes = forward_spikes_reference(copy, frames[frame_index])
            scores[copy_index, frame_index] = (spikes @ indicator) / counts
    return scores
