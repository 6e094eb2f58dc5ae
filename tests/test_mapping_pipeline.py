"""Tests for chip programming: the chip simulator must agree with the fast evaluator."""

import numpy as np
import pytest

from repro.core.tea import TeaLearning
from repro.encoding.stochastic import StochasticEncoder
from repro.mapping.corelet import Corelet, CoreletNetwork
from repro.mapping.deploy import DeployedNetwork, deploy_model
from repro.mapping.pipeline import (
    program_chip,
    run_chip_inference,
    run_chip_inference_multicopy,
)


def _two_layer_network(rng: np.random.Generator) -> DeployedNetwork:
    """A small hand-built 2-layer deployed copy (2 cores -> 1 core)."""
    input_dim, hidden_per_core, out_neurons = 16, 5, 7
    corelets, weights = [], []
    layer0, w0 = [], []
    for index in range(2):
        ins = tuple(range(index * 8, (index + 1) * 8))
        outs = tuple(range(index * hidden_per_core, (index + 1) * hidden_per_core))
        sampled = rng.integers(-1, 2, size=(8, hidden_per_core)).astype(float)
        layer0.append(
            Corelet(0, index, ins, np.abs(sampled), np.sign(sampled), outs)
        )
        w0.append(sampled)
    corelets.append(layer0)
    weights.append(w0)
    ins = tuple(range(2 * hidden_per_core))
    sampled = rng.integers(-1, 2, size=(len(ins), out_neurons)).astype(float)
    corelets.append(
        [Corelet(1, 0, ins, np.abs(sampled), np.sign(sampled), tuple(range(out_neurons)))]
    )
    weights.append([sampled])
    assignment = np.array([0, 1, 2, 0, 1, 2, 0])  # 7 neurons, 3 classes
    network = CoreletNetwork(
        corelets=corelets,
        class_assignment=assignment,
        num_classes=3,
        input_dim=input_dim,
    )
    return DeployedNetwork(corelet_network=network, sampled_weights=weights)


@pytest.fixture(scope="module")
def deployed_copy(small_architecture, small_dataset):
    model = TeaLearning(epochs=3, seed=0).train(small_architecture, small_dataset).model
    return deploy_model(model, rng=0)


def test_program_chip_allocates_one_core_per_corelet(deployed_copy):
    chip, core_ids = program_chip(deployed_copy)
    assert chip.allocated_cores == deployed_copy.core_count
    flat_ids = [core_id for layer in core_ids for core_id in layer]
    assert len(set(flat_ids)) == len(flat_ids)
    assert chip.input_channels() == ["pixels"]
    assert chip.output_channels() == ["classes"]


def test_chip_matches_vectorized_evaluator_spike_for_spike(deployed_copy):
    chip, core_ids = program_chip(deployed_copy)
    rng = np.random.default_rng(3)
    network = deployed_copy.corelet_network
    encoder = StochasticEncoder(spikes_per_frame=3)
    values = rng.random((1, network.input_dim))
    frames = encoder.encode(values, rng=rng)[:, 0, :]  # (ticks, input_dim)

    chip_counts = run_chip_inference(chip, deployed_copy, core_ids, frames)

    # Fast evaluator: raw per-class spike sums accumulated frame by frame
    # (the chip reports raw sums; the class-mean convention of class_scores
    # is the same quantity divided by the readout population sizes).
    spikes = deployed_copy.forward_spikes(frames)  # (ticks, output_dim)
    fast_counts = np.zeros(network.num_classes)
    np.add.at(fast_counts, network.class_assignment, spikes.sum(axis=0))
    class_sizes = np.bincount(network.class_assignment, minlength=network.num_classes)
    mean_scores = deployed_copy.class_scores(frames).sum(axis=0)
    assert np.allclose(mean_scores, fast_counts / class_sizes)

    # This architecture has a single hidden layer, so each input frame's
    # response appears on the output channel in the same tick; the trailing
    # drain ticks are silent because a neuron with no active synapse never
    # fires (both in the fast evaluator and on the chip).
    zero_response = deployed_copy.class_scores(np.zeros((1, network.input_dim)))[0]
    assert np.array_equal(zero_response, np.zeros(network.num_classes))
    depth = len(network.corelets)
    assert depth == 1
    assert np.array_equal(chip_counts, fast_counts.astype(np.int64))


def test_run_chip_inference_validates_shape(deployed_copy):
    chip, core_ids = program_chip(deployed_copy)
    with pytest.raises(ValueError):
        run_chip_inference(chip, deployed_copy, core_ids, np.zeros((2, 5)))


def test_run_chip_inference_multicopy_validates_shape(deployed_copy):
    chip, core_ids = program_chip(deployed_copy)
    with pytest.raises(ValueError):
        run_chip_inference_multicopy(
            chip, [deployed_copy], core_ids, np.zeros((3, 2, 5))
        )
    with pytest.raises(ValueError):
        run_chip_inference_multicopy(
            chip,
            [deployed_copy],
            core_ids,
            np.zeros((4, deployed_copy.corelet_network.input_dim)),
        )


def test_chip_reset_preserves_routing():
    """Resetting a chip keeps the programmed inter-layer routes.

    The original reset re-created the router from scratch, dropping every
    route — which silently broke any multi-layer inference after the first
    reset (all hidden-layer spikes were dropped on the floor).
    """
    deployed = _two_layer_network(np.random.default_rng(0))
    chip, core_ids = program_chip(deployed)
    routes_before = chip.router.route_count
    assert routes_before > 0
    chip.reset()
    assert chip.router.route_count == routes_before


def test_drain_is_exact_for_layer_depth_and_router_delay():
    """Total ticks = input ticks + (depth - 1) * delay, spikes fully drained.

    The old heuristic (`depth * (delay + 1) + 2`) over-drained every sample;
    the exact latency model stops as soon as the last routed spike lands.
    """
    deployed = _two_layer_network(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    frames = (rng.random((5, deployed.corelet_network.input_dim)) < 0.5).astype(
        np.int8
    )
    for delay in (1, 2, 4):
        chip, core_ids = program_chip(deployed, router_delay=delay)
        counts = run_chip_inference(chip, deployed, core_ids, frames)
        assert chip.tick == frames.shape[0] + (2 - 1) * delay
        assert not chip.router.has_pending()
        batch_counts = run_chip_inference_multicopy(
            chip, [deployed], core_ids, frames[None]
        )[0]
        assert chip.tick == frames.shape[0] + (2 - 1) * delay
        assert np.array_equal(batch_counts[0], counts)


def test_empty_batch_returns_empty_counts(deployed_copy):
    chip, core_ids = program_chip(deployed_copy)
    counts = run_chip_inference_multicopy(
        chip,
        [deployed_copy],
        core_ids,
        np.zeros((0, 3, deployed_copy.corelet_network.input_dim), dtype=np.int8),
    )[0]
    assert counts.shape == (0, deployed_copy.corelet_network.num_classes)


def test_negative_leak_lif_rejected():
    """A negative leak self-charges silent neurons: no finite drain point.

    Rather than silently truncating output spikes at the router-empty
    point, the inference drivers refuse the configuration up front.
    """
    from repro.truenorth.config import NeuronConfig

    deployed = _two_layer_network(np.random.default_rng(4))
    chip, core_ids = program_chip(
        deployed, neuron_config=NeuronConfig(threshold=2, leak=-1, history_free=False)
    )
    frames = np.zeros((2, deployed.corelet_network.input_dim), dtype=np.int8)
    with pytest.raises(ValueError, match="leak"):
        run_chip_inference(chip, deployed, core_ids, frames)
    with pytest.raises(ValueError, match="leak"):
        run_chip_inference_multicopy(chip, [deployed], core_ids, frames[None])


def test_self_refiring_lif_rejected():
    """A reset potential at/above threshold re-fires every tick forever."""
    from repro.truenorth.config import NeuronConfig

    deployed = _two_layer_network(np.random.default_rng(5))
    chip, core_ids = program_chip(
        deployed, neuron_config=NeuronConfig(history_free=False)  # 0 >= 0
    )
    frames = np.zeros((2, deployed.corelet_network.input_dim), dtype=np.int8)
    with pytest.raises(ValueError, match="reset"):
        run_chip_inference(chip, deployed, core_ids, frames)
    with pytest.raises(ValueError, match="reset"):
        run_chip_inference_multicopy(chip, [deployed], core_ids, frames[None])


def test_multi_layer_rejects_zero_router_delay():
    """Zero-delay events target an already-served tick and would be lost."""
    deployed = _two_layer_network(np.random.default_rng(3))
    chip, core_ids = program_chip(deployed)
    chip.router.delay = 0
    frames = np.zeros((2, deployed.corelet_network.input_dim), dtype=np.int8)
    with pytest.raises(ValueError):
        run_chip_inference(chip, deployed, core_ids, frames)
    with pytest.raises(ValueError):
        run_chip_inference_multicopy(chip, [deployed], core_ids, frames[None])


def test_chip_predictions_reasonable_on_training_like_input(
    deployed_copy, small_dataset
):
    chip, core_ids = program_chip(deployed_copy)
    encoder = StochasticEncoder(spikes_per_frame=4)
    sample = small_dataset.test.features[:1]
    frames = encoder.encode(sample, rng=0)[:, 0, :]
    counts = run_chip_inference(chip, deployed_copy, core_ids, frames)
    assert counts.shape == (deployed_copy.corelet_network.num_classes,)
    assert (counts >= 0).all()
    # Whatever the chip reports must equal the fast evaluator's raw class
    # sums on the same frames (the counts themselves may legitimately be
    # zero for a weakly-trained copy — the firing gate means silent drain
    # ticks no longer pad them).
    network = deployed_copy.corelet_network
    spikes = deployed_copy.forward_spikes(frames)
    fast_counts = np.zeros(network.num_classes)
    np.add.at(fast_counts, network.class_assignment, spikes.sum(axis=0))
    assert np.array_equal(counts, fast_counts.astype(np.int64))
