"""Tests for the vectorized evaluation engine, SweepRunner, and the
deployed-scoring correctness fixes (class-mean merge, active-synapse firing
gate, training-history alignment)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tea import TeaLearning
from repro.eval.engine import (
    VectorizedEvaluator,
    class_counts,
    evaluate_scores_reference,
    forward_spikes_reference,
)
from repro.eval.runner import ScoreCache, SweepRunner, model_fingerprint
from repro.eval.sweep import accuracy_sweep
from repro.mapping.corelet import Corelet, CoreletNetwork
from repro.mapping.deploy import DeployedNetwork, deploy_model, evaluate_deployed_scores
from repro.mapping.duplication import deploy_with_copies
from repro.nn.trainer import TrainingHistory


@pytest.fixture(scope="module")
def trained_model(small_architecture, small_dataset):
    return TeaLearning(epochs=3, seed=0).train(small_architecture, small_dataset).model


@pytest.fixture(scope="module")
def deployed_copies(trained_model):
    return deploy_with_copies(trained_model, copies=3, rng=0).copies


# ----------------------------------------------------------------------
# Engine vs reference loop
# ----------------------------------------------------------------------
def test_engine_scores_bit_identical_to_loop(trained_model, deployed_copies):
    features = np.random.default_rng(1).random(
        (7, trained_model.architecture.input_dim)
    )
    fast = evaluate_deployed_scores(deployed_copies, features, spikes_per_frame=3, rng=5)
    reference = evaluate_scores_reference(deployed_copies, features, 3, rng=5)
    assert fast.shape == reference.shape == (3, 3, 7, 4)
    assert np.array_equal(fast, reference)  # atol=0: bit-identical


def test_engine_forward_matches_single_copy_loop(trained_model, deployed_copies):
    frames = np.random.default_rng(2).integers(
        0, 2, size=(5, trained_model.architecture.input_dim)
    )
    evaluator = VectorizedEvaluator(deployed_copies)
    stacked = evaluator.forward_spikes(frames)
    for index, copy in enumerate(deployed_copies):
        assert np.array_equal(stacked[index], forward_spikes_reference(copy, frames))
        assert np.array_equal(stacked[index], copy.forward_spikes(frames))


def test_chunked_streaming_matches_one_shot(trained_model, deployed_copies):
    features = np.random.default_rng(3).random(
        (6, trained_model.architecture.input_dim)
    )
    full = evaluate_deployed_scores(deployed_copies, features, spikes_per_frame=4, rng=9)
    chunked = evaluate_deployed_scores(
        deployed_copies, features, spikes_per_frame=4, rng=9, chunk_frames=1
    )
    assert np.array_equal(full, chunked)


def test_engine_matches_loop_on_multilayer_network(small_dataset):
    from repro.core.model import LayerSpec, NetworkArchitecture
    from repro.mapping.blocks import stride_blocks

    partition = stride_blocks((8, 16), (8, 8), 8)
    architecture = NetworkArchitecture(
        input_dim=8 * 16,
        layers=(
            LayerSpec(
                core_count=partition.block_count,
                neurons_per_core=8,
                input_indices=partition.blocks,
            ),
            LayerSpec(core_count=2, neurons_per_core=6),
        ),
        num_classes=4,
        weight_init_scale=2.0,
        name="two-layer-arch",
    )
    model = TeaLearning(epochs=2, seed=0).train(architecture, small_dataset).model
    copies = deploy_with_copies(model, copies=3, rng=0).copies
    features = small_dataset.test.features[:6]
    fast = evaluate_deployed_scores(copies, features, spikes_per_frame=2, rng=4)
    reference = evaluate_scores_reference(copies, features, 2, rng=4)
    assert fast.shape == (3, 2, 6, 4)
    assert np.array_equal(fast, reference)


def test_engine_handles_mixed_synaptic_magnitudes():
    # Hand-built corelet with two different |weight| values exercises the
    # explicit weights+mask fallback (the paper's mapping never produces
    # this, but the engine must not silently mis-gate it).
    axons, neurons = 4, 4
    values = np.array(
        [
            [1.0, -2.0, 1.0, -1.0],
            [2.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, 2.0, -2.0],
            [-1.0, 2.0, 1.0, 1.0],
        ]
    )
    corelet = Corelet(
        layer=0,
        index=0,
        input_channels=tuple(range(axons)),
        probabilities=np.ones((axons, neurons)),
        synaptic_values=values,
        output_channels=tuple(range(neurons)),
    )
    network = CoreletNetwork(
        corelets=[[corelet]],
        class_assignment=np.arange(neurons) % 2,
        num_classes=2,
        input_dim=axons,
    )
    rng = np.random.default_rng(3)
    deployed = [
        DeployedNetwork(
            corelet_network=network,
            sampled_weights=[[np.where(rng.random((axons, neurons)) < 0.7, values, 0.0)]],
        )
        for _ in range(2)
    ]
    features = rng.random((5, axons))
    fast = evaluate_deployed_scores(deployed, features, spikes_per_frame=3, rng=11)
    reference = evaluate_scores_reference(deployed, features, 3, rng=11)
    assert np.array_equal(fast, reference)


def test_non_exact_magnitude_routes_to_fallback():
    from repro.eval.engine import _fold_exact

    assert _fold_exact(1.0) and _fold_exact(2.0) and _fold_exact(0.5)
    assert _fold_exact(0.25) and _fold_exact(3.0)
    assert not _fold_exact(0.3) and not _fold_exact(1.5e6)

    axons, neurons = 3, 4
    values = np.full((axons, neurons), 0.3) * np.where(
        np.arange(axons * neurons).reshape(axons, neurons) % 2, 1.0, -1.0
    )
    corelet = Corelet(
        layer=0,
        index=0,
        input_channels=tuple(range(axons)),
        probabilities=np.ones((axons, neurons)),
        synaptic_values=values,
        output_channels=tuple(range(neurons)),
    )
    network = CoreletNetwork(
        corelets=[[corelet]],
        class_assignment=np.arange(neurons) % 2,
        num_classes=2,
        input_dim=axons,
    )
    deployed = DeployedNetwork(corelet_network=network, sampled_weights=[[values.copy()]])
    evaluator = VectorizedEvaluator([deployed])
    entry = evaluator._layers[0][0]
    # 0.3 is not float32-exact with headroom -> explicit weights+mask path.
    assert entry.weights is not None and entry.shared_folded is None
    frames = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(
        evaluator.forward_spikes(frames)[0], forward_spikes_reference(deployed, frames)
    )


def test_cached_tensors_are_frozen(trained_model, small_dataset):
    cache = ScoreCache()
    runner = SweepRunner(
        copy_levels=(1,), spf_levels=(1,), repeats=1, max_samples=10, cache=cache
    )
    tensors = runner.cumulative_scores(trained_model, small_dataset.test, rng=0)
    with pytest.raises(ValueError):
        tensors[0][0, 0, 0, 0] = 99.0  # cache entries are read-only


def test_evaluator_rejects_mismatched_copies(trained_model, deployed_copies):
    with pytest.raises(ValueError):
        VectorizedEvaluator([])
    broken = DeployedNetwork(
        corelet_network=deployed_copies[0].corelet_network,
        sampled_weights=[layer[:1] for layer in deployed_copies[0].sampled_weights],
    )
    with pytest.raises(ValueError):
        VectorizedEvaluator([deployed_copies[0], broken])


def test_evaluator_accepts_structurally_equal_networks(trained_model):
    # Copies deployed without a shared pre-built corelet network rebuild
    # their corelets independently; stacking must still work.
    copies = [deploy_model(trained_model, rng=i) for i in range(2)]
    features = np.random.default_rng(5).random(
        (4, trained_model.architecture.input_dim)
    )
    scores = evaluate_deployed_scores(copies, features, spikes_per_frame=2, rng=0)
    assert scores.shape == (2, 2, 4, 4)


# ----------------------------------------------------------------------
# Property test: random tiny corelet networks, engine == loop
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 2**16),
    copies=st.integers(1, 3),
    axons=st.integers(2, 6),
    neurons=st.integers(3, 7),
    num_classes=st.integers(2, 3),
)
@settings(max_examples=25, deadline=None)
def test_engine_matches_loop_on_random_models(seed, copies, axons, neurons, num_classes):
    rng = np.random.default_rng(seed)
    probabilities = rng.random((axons, neurons))
    synaptic_values = np.where(rng.random((axons, neurons)) < 0.5, 1.0, -1.0)
    corelet = Corelet(
        layer=0,
        index=0,
        input_channels=tuple(range(axons)),
        probabilities=probabilities,
        synaptic_values=synaptic_values,
        output_channels=tuple(range(neurons)),
    )
    network = CoreletNetwork(
        corelets=[[corelet]],
        class_assignment=np.arange(neurons) % num_classes,
        num_classes=num_classes,
        input_dim=axons,
    )
    deployed = []
    for _ in range(copies):
        on = rng.random((axons, neurons)) < probabilities
        deployed.append(
            DeployedNetwork(
                corelet_network=network,
                sampled_weights=[[np.where(on, synaptic_values, 0.0)]],
            )
        )
    features = rng.random((3, axons))
    fast = evaluate_deployed_scores(deployed, features, spikes_per_frame=2, rng=seed)
    reference = evaluate_scores_reference(deployed, features, 2, rng=seed)
    assert np.array_equal(fast, reference)


# ----------------------------------------------------------------------
# Bugfix: class-mean merge for non-divisible readout layers
# ----------------------------------------------------------------------
def _uneven_network():
    """5 readout neurons over 2 classes: class 0 holds 3 neurons, class 1 two."""
    axons, neurons = 4, 5
    corelet = Corelet(
        layer=0,
        index=0,
        input_channels=(0, 1, 2, 3),
        probabilities=np.ones((axons, neurons)),
        synaptic_values=np.ones((axons, neurons)),
        output_channels=tuple(range(neurons)),
    )
    return CoreletNetwork(
        corelets=[[corelet]],
        class_assignment=np.arange(neurons) % 2,
        num_classes=2,
        input_dim=axons,
    )


def test_class_scores_are_per_class_means_not_sums():
    network = _uneven_network()
    # All synapses ON with weight +1: every neuron spikes whenever any input
    # spikes, so both classes have identical per-neuron behaviour and must
    # score identically despite class 0 owning an extra readout neuron.
    deployed = DeployedNetwork(
        corelet_network=network,
        sampled_weights=[[np.ones((4, 5))]],
    )
    frame = np.array([[1.0, 0.0, 1.0, 0.0]])
    scores = deployed.class_scores(frame)
    assert scores.shape == (1, 2)
    assert scores[0, 0] == scores[0, 1] == 1.0  # means, not 3 vs 2
    assert np.array_equal(class_counts(network), np.array([3.0, 2.0]))


def test_class_scores_match_float_merge_convention():
    network = _uneven_network()
    deployed = DeployedNetwork(
        corelet_network=network, sampled_weights=[[np.ones((4, 5))]]
    )
    frame = np.array([[1.0, 1.0, 0.0, 0.0]])
    spikes = deployed.forward_spikes(frame)
    # The float model merges with a 1/n_k matrix (NetworkArchitecture.
    # merge_matrix); the deployed path must produce the same class means.
    assignment = network.class_assignment
    sizes = np.bincount(assignment, minlength=2).astype(float)
    merge = np.zeros((assignment.size, 2))
    merge[np.arange(assignment.size), assignment] = 1.0 / sizes[assignment]
    assert np.allclose(deployed.class_scores(frame), spikes @ merge)


# ----------------------------------------------------------------------
# Bugfix: active-synapse firing gate
# ----------------------------------------------------------------------
def test_all_off_neuron_never_fires():
    network = _uneven_network()
    weights = np.ones((4, 5))
    weights[:, 2] = 0.0  # neuron 2's synapses all sampled OFF
    deployed = DeployedNetwork(corelet_network=network, sampled_weights=[[weights]])
    frame = np.ones((2, 4))
    spikes = deployed.forward_spikes(frame)
    assert np.array_equal(spikes[:, 2], np.zeros(2))
    assert np.array_equal(spikes[:, [0, 1, 3, 4]], np.ones((2, 4)))


def test_zero_input_frame_produces_no_spikes(trained_model):
    deployed = deploy_model(trained_model, rng=0)
    spikes = deployed.forward_spikes(
        np.zeros((3, trained_model.architecture.input_dim))
    )
    assert spikes.sum() == 0.0
    scores = deployed.class_scores(
        np.zeros((1, trained_model.architecture.input_dim))
    )
    assert np.array_equal(scores, np.zeros_like(scores))


# ----------------------------------------------------------------------
# SweepRunner: grid equivalence and caching
# ----------------------------------------------------------------------
def test_sweep_runner_matches_accuracy_sweep(trained_model, small_dataset):
    dataset = small_dataset.test
    runner = SweepRunner(
        copy_levels=(1, 2), spf_levels=(1, 2), repeats=2, max_samples=25,
        cache=ScoreCache(),
    )
    from_runner = runner.run(trained_model, dataset, rng=0, label="tea")
    from_function = accuracy_sweep(
        trained_model,
        dataset,
        copy_levels=(1, 2),
        spf_levels=(1, 2),
        repeats=2,
        rng=0,
        max_samples=25,
        label="tea",
        cache=ScoreCache(),
    )
    assert np.array_equal(from_runner.mean_accuracy, from_function.mean_accuracy)
    assert np.array_equal(from_runner.std_accuracy, from_function.std_accuracy)
    assert from_runner.copy_levels == from_function.copy_levels


def test_sweep_runner_cache_hit_skips_reevaluation(trained_model, small_dataset):
    cache = ScoreCache()
    runner = SweepRunner(
        copy_levels=(1, 2), spf_levels=(1,), repeats=1, max_samples=20, cache=cache
    )
    first = runner.run(trained_model, small_dataset.test, rng=0)
    assert cache.misses == 1 and cache.hits == 0 and len(cache) == 1
    second = runner.run(trained_model, small_dataset.test, rng=0)
    assert cache.hits == 1
    assert np.array_equal(first.mean_accuracy, second.mean_accuracy)
    # A different seed is a different key.
    runner.run(trained_model, small_dataset.test, rng=1)
    assert cache.misses == 2


def test_sweep_runner_generator_rng_bypasses_cache(trained_model, small_dataset):
    cache = ScoreCache()
    runner = SweepRunner(
        copy_levels=(1,), spf_levels=(1,), repeats=1, max_samples=10, cache=cache
    )
    runner.run(trained_model, small_dataset.test, rng=np.random.default_rng(0))
    # rng=None means fresh entropy per call — also never cached.
    runner.run(trained_model, small_dataset.test, rng=None)
    assert len(cache) == 0


def test_sweep_runner_cache_distinguishes_datasets(trained_model, small_dataset):
    # Two same-sized datasets with different contents must not collide.
    cache = ScoreCache()
    runner = SweepRunner(
        copy_levels=(1,), spf_levels=(1,), repeats=1, max_samples=20, cache=cache
    )
    runner.run(trained_model, small_dataset.test, rng=0)
    runner.run(trained_model, small_dataset.train, rng=0)
    assert cache.misses == 2 and cache.hits == 0 and len(cache) == 2


def test_model_fingerprint_distinguishes_weights(trained_model, small_dataset):
    other = TeaLearning(epochs=3, seed=1).train(
        trained_model.architecture, small_dataset
    ).model
    assert model_fingerprint(trained_model) == model_fingerprint(trained_model)
    assert model_fingerprint(trained_model) != model_fingerprint(other)


def test_score_cache_eviction_bounds_entries():
    cache = ScoreCache(max_entries=2)
    cache.put(("a",), [np.zeros(1)])
    cache.put(("b",), [np.zeros(1)])
    cache.put(("c",), [np.zeros(1)])
    assert len(cache) == 2
    assert cache.get(("a",)) is None  # oldest evicted
    assert cache.get(("c",)) is not None
    with pytest.raises(ValueError):
        ScoreCache(max_entries=0)


# ----------------------------------------------------------------------
# Bugfix: training-history alignment
# ----------------------------------------------------------------------
def test_history_records_nan_without_validation_data(small_architecture, small_dataset):
    from repro.nn.layers import Dense
    from repro.nn.network import Sequential
    from repro.nn.trainer import Trainer

    rng = np.random.default_rng(0)
    features, labels = rng.normal(size=(40, 4)), rng.integers(0, 2, size=40)
    history = Trainer(Sequential([Dense(4, 2, rng=0)])).fit(
        features, labels, epochs=3, rng=0
    )
    assert len(history.validation_accuracy) == 3
    assert all(np.isnan(v) for v in history.validation_accuracy)
    assert np.isnan(history.best_validation_accuracy())


def test_history_merge_aligns_lengths():
    first = TrainingHistory(
        train_loss=[1.0, 0.5],
        train_accuracy=[0.5, 0.6],
        validation_accuracy=[],  # legacy desynchronized history
        penalty=[0.0, 0.0],
    )
    second = TrainingHistory(
        train_loss=[0.4],
        train_accuracy=[0.7],
        validation_accuracy=[0.65],
        penalty=[0.1],
    )
    merged = first.merge(second)
    assert merged is first
    assert merged.epochs == 3
    assert len(merged.validation_accuracy) == 3
    assert np.isnan(merged.validation_accuracy[0])
    assert merged.validation_accuracy[2] == 0.65
    assert merged.best_validation_accuracy() == 0.65


def test_tea_history_lists_stay_synchronized(small_architecture, small_dataset):
    result = TeaLearning(epochs=4, seed=0).train(small_architecture, small_dataset)
    history = result.history
    assert history.epochs == 4
    assert len(history.train_loss) == 4
    assert len(history.train_accuracy) == 4
    assert len(history.validation_accuracy) == 4
    assert len(history.penalty) == 4
