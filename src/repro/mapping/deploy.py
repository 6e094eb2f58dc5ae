"""Deployment: sampling crossbar connectivity and evaluating the result.

Deployment turns the trained connection probabilities into concrete binary
crossbar connectivities by Bernoulli sampling (one independent sample per
network copy), exactly as the paper's flow does when it writes a model onto
the chip.  :class:`DeployedNetwork` is the functional equivalent of running
one sampled copy on hardware; since the heavy sweeps of Figures 7-9 always
evaluate many copies over many spike frames, the actual propagation is done
by :class:`repro.eval.engine.VectorizedEvaluator`, which stacks all copies'
sampled weights into per-layer tensors and pushes the whole spike volume
through in a handful of matmuls.  :class:`DeployedNetwork` remains as the
thin single-copy compatibility wrapper over that engine.

Scoring convention: deployed class scores are per-class *means* of the
readout spikes (``1/n_k`` weighting), matching the float model's
:meth:`~repro.core.model.NetworkArchitecture.merge_matrix` so float and
deployed scores are directly comparable even when ``output_dim %
num_classes != 0``.  Firing rule: a neuron spikes iff its weighted sum
satisfies ``y' >= 0`` *and* at least one ON synapse received a spike this
tick — identical to the per-core simulator in ``repro.truenorth`` (the test
suite checks the two agree spike for spike).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.model import TrueNorthModel
from repro.mapping.corelet import Corelet, CoreletNetwork, build_corelets
from repro.utils.rng import RngLike, new_rng


def sample_connectivity(corelet: Corelet, rng: RngLike = None) -> np.ndarray:
    """Draw one Bernoulli connectivity sample for a corelet.

    Returns a signed integer weight matrix: ``synaptic_value`` where the
    connection was sampled ON, zero where it was sampled OFF.
    """
    rng = new_rng(rng)
    on = rng.random(corelet.probabilities.shape) < corelet.probabilities
    return np.where(on, corelet.synaptic_values, 0.0)


@dataclass
class DeployedNetwork:
    """One sampled (deployed) copy of a corelet network.

    Attributes:
        corelet_network: the logical corelets this deployment was sampled from.
        sampled_weights: sampled signed weight matrices, grouped by layer then
            core, aligned with ``corelet_network.corelets``.
    """

    corelet_network: CoreletNetwork
    sampled_weights: List[List[np.ndarray]] = field(default_factory=list)
    _evaluator: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def core_count(self) -> int:
        """Cores occupied by this copy."""
        return self.corelet_network.core_count

    def evaluator(self):
        """The (lazily built) single-copy vectorized evaluator."""
        from repro.eval.engine import VectorizedEvaluator

        if self._evaluator is None:
            self._evaluator = VectorizedEvaluator([self])
        return self._evaluator

    # ------------------------------------------------------------------
    def forward_spikes(self, spike_frame: np.ndarray) -> np.ndarray:
        """Propagate one batch of input spike vectors through the copy.

        Args:
            spike_frame: binary array of shape (batch, input_dim).

        Returns:
            binary array of shape (batch, last_layer_output_dim) with the
            output spikes of the last hidden layer's neurons.  A neuron only
            fires when its weighted sum satisfies ``y' >= 0`` *and* at least
            one ON synapse received a spike (a silent crossbar never spikes).
        """
        spike_frame = np.asarray(spike_frame, dtype=float)
        network = self.corelet_network
        if spike_frame.ndim != 2 or spike_frame.shape[1] != network.input_dim:
            raise ValueError(
                f"expected spikes of shape (batch, {network.input_dim}), "
                f"got {spike_frame.shape}"
            )
        return self.evaluator().forward_spikes(spike_frame)[0]

    def class_scores(self, spike_frame: np.ndarray) -> np.ndarray:
        """Class-mean spike scores for one frame (batch, num_classes).

        Each readout neuron contributes ``1/n_k`` of its spike to its class
        (``n_k`` = readout neurons of that class), matching the float model's
        merge convention.
        """
        return self.evaluator().class_scores(spike_frame)[0]


def deploy_model(
    model: TrueNorthModel,
    rng: RngLike = None,
    corelet_network: Optional[CoreletNetwork] = None,
) -> DeployedNetwork:
    """Sample one deployed copy of a trained model.

    Args:
        model: the trained model.
        rng: randomness used for the Bernoulli connectivity sampling.
        corelet_network: pre-built corelets (rebuilt from the model when
            omitted); passing it avoids recomputation when deploying many
            copies of the same model.
    """
    rng = new_rng(rng)
    network = corelet_network or build_corelets(model)
    sampled: List[List[np.ndarray]] = []
    for layer_corelets in network.corelets:
        sampled.append([sample_connectivity(corelet, rng) for corelet in layer_corelets])
    return DeployedNetwork(corelet_network=network, sampled_weights=sampled)


def evaluate_deployed_scores(
    copies: List[DeployedNetwork],
    features: np.ndarray,
    spikes_per_frame: int,
    rng: RngLike = None,
    chunk_frames: Optional[int] = None,
) -> np.ndarray:
    """Class-score tensor of several deployed copies over several spike frames.

    Every copy sees the *same* input spike realizations (on hardware a
    splitter fans the one spike stream out to all copies), while each copy
    applies its own sampled connectivity.  The propagation is fully
    vectorized (:class:`repro.eval.engine.VectorizedEvaluator`), and the
    spikes are encoded in chunks of ``chunk_frames`` frames straight into
    its float32 GEMM input, so that chunk and the encoder's one 64 KiB block
    of uniform draws bound the memory the encoding takes.

    Returns:
        array of shape (copies, spikes_per_frame, batch, num_classes) holding
        the per-frame class-mean scores of each copy.  Summing over leading
        axes yields the accumulated scores of any smaller (copies, spf)
        setting, which is how the evaluation sweeps reuse one pass for a
        whole grid.
    """
    from repro.eval.engine import VectorizedEvaluator

    if not copies:
        raise ValueError("at least one deployed copy is required")
    evaluator = VectorizedEvaluator(copies)
    return evaluator.evaluate_scores(
        features, spikes_per_frame, rng=rng, chunk_frames=chunk_frames
    )
