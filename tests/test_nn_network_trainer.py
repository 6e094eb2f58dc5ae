"""Tests for the Sequential container and the Trainer."""

import numpy as np
import pytest

from repro.experiments.testbenches import TEST_BENCHES, build_testbench_architecture
from repro.nn.activations import Sigmoid
from repro.nn.layers import Dense, Gather
from repro.nn.network import Sequential
from repro.nn.optim import Adam
from repro.nn.regularizers import NullRegularizer
from repro.nn.trainer import Trainer
from repro.core.penalties import L2Penalty


def two_moons_like(count=200, rng_seed=0):
    """A simple linearly-separable-ish 2-class problem."""
    rng = np.random.default_rng(rng_seed)
    features = rng.normal(size=(count, 4))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


def test_sequential_params_namespaced_and_state_dict_roundtrip():
    network = Sequential([Dense(4, 3, rng=0), Dense(3, 2, rng=1)])
    params = network.params()
    assert set(params) == {
        "layer0.weights",
        "layer0.bias",
        "layer1.weights",
        "layer1.bias",
    }
    state = network.state_dict()
    for array in network.params().values():
        array += 1.0
    network.load_state_dict(state)
    for name, array in network.params().items():
        assert np.array_equal(array, state[name])


def test_load_state_dict_validation():
    network = Sequential([Dense(4, 3, rng=0)])
    with pytest.raises(KeyError):
        network.load_state_dict({})
    state = network.state_dict()
    state["layer0.weights"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        network.load_state_dict(state)


def test_output_dim_requires_layers():
    with pytest.raises(ValueError):
        Sequential([]).output_dim


@pytest.mark.parametrize("bench", [1, 5])
def test_training_step_never_backpropagates_into_the_input_gather(bench, monkeypatch):
    # Every test-bench network starts with a Gather, which has no parameters:
    # its scatter into the input pixels would be read by nothing.
    def refuse(self, grad_output):
        raise AssertionError("Gather.backward was called")

    monkeypatch.setattr(Gather, "backward", refuse)
    architecture = build_testbench_architecture(TEST_BENCHES[bench])
    network = architecture.build_network(rng=0)
    assert isinstance(network.layers[0], Gather)
    rng = np.random.default_rng(bench)
    inputs = rng.random((8, architecture.input_dim))
    labels = rng.integers(0, architecture.num_classes, size=8)
    trainer = Trainer(network, optimizer=Adam(learning_rate=0.05))
    before = network.state_dict()
    trainer.train_batch(inputs, labels)
    assert any(
        not np.array_equal(before[name], array)
        for name, array in network.params().items()
    )
    # What backward returns: the gradient at the lowest parametrized layer's
    # input, i.e. at the Gather's output.
    grad = network.backward(np.ones((8, architecture.num_classes)))
    assert grad.shape == (8, network.layers[0].output_dim)


def test_trainer_learns_simple_problem():
    features, labels = two_moons_like()
    network = Sequential([Dense(4, 8, activation=Sigmoid(), rng=0), Dense(8, 2, rng=1)])
    trainer = Trainer(network, optimizer=Adam(learning_rate=0.05))
    history = trainer.fit(features, labels, epochs=15, batch_size=16, rng=0)
    assert history.epochs == 15
    assert history.train_accuracy[-1] > 0.9
    assert history.train_loss[-1] < history.train_loss[0]


def test_trainer_validation_accuracy_recorded():
    features, labels = two_moons_like()
    network = Sequential([Dense(4, 2, rng=0)])
    trainer = Trainer(network)
    history = trainer.fit(
        features[:150],
        labels[:150],
        epochs=3,
        validation_data=(features[150:], labels[150:]),
        rng=0,
    )
    assert len(history.validation_accuracy) == 3
    assert 0.0 <= history.best_validation_accuracy() <= 1.0


def test_trainer_penalty_changes_weights():
    features, labels = two_moons_like()

    def train(coefficient):
        network = Sequential([Dense(4, 2, rng=0)])
        trainer = Trainer(
            network,
            regularizer=L2Penalty(),
            penalty_coefficient=coefficient,
        )
        trainer.fit(features, labels, epochs=5, rng=0)
        return np.abs(network.params()["layer0.weights"]).mean()

    assert train(1.0) < train(0.0)


def test_trainer_penalty_value_reported_in_history():
    features, labels = two_moons_like()
    network = Sequential([Dense(4, 2, rng=0)])
    trainer = Trainer(network, regularizer=L2Penalty(), penalty_coefficient=0.1)
    history = trainer.fit(features, labels, epochs=2, rng=0)
    assert all(value > 0 for value in history.penalty)


def test_trainer_clipping_keeps_weights_in_range():
    features, labels = two_moons_like()
    network = Sequential([Dense(4, 2, rng=0)])
    trainer = Trainer(
        network, optimizer=Adam(learning_rate=0.5), clip_probabilities=(-0.2, 0.2)
    )
    trainer.fit(features, labels, epochs=3, rng=0)
    weights = network.penalized_params()["layer0.weights"]
    assert np.all(weights >= -0.2) and np.all(weights <= 0.2)


def test_trainer_input_validation():
    network = Sequential([Dense(4, 2, rng=0)])
    trainer = Trainer(network)
    with pytest.raises(ValueError):
        trainer.fit(np.zeros((5, 4)), np.zeros(4), epochs=1)
    with pytest.raises(ValueError):
        trainer.fit(np.zeros((5, 4)), np.zeros(5), epochs=0)
    with pytest.raises(ValueError):
        trainer.fit(np.zeros((5, 4)), np.zeros(5), epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        Trainer(network, penalty_coefficient=-1.0)


def test_trainer_callback_invoked_per_epoch():
    features, labels = two_moons_like(count=50)
    network = Sequential([Dense(4, 2, rng=0)])
    seen = []
    Trainer(network).fit(
        features, labels, epochs=4, rng=0, callback=lambda e, m: seen.append(e)
    )
    assert seen == [0, 1, 2, 3]


def test_null_regularizer_is_zero():
    reg = NullRegularizer()
    params = {"w": np.ones((2, 2))}
    assert reg.penalty(params) == 0.0
    assert np.all(reg.gradient(params)["w"] == 0.0)
