"""Tests for the repro.api protocol layer: requests, results, registry."""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilities,
    ChipBackend,
    EvalRequest,
    EvaluationBackend,
    ReferenceBackend,
    ResultShapeError,
    VectorizedBackend,
    backend_names,
    create_backend,
    register_backend,
)


@pytest.fixture(scope="module")
def trained(tiny_context):
    return tiny_context.result("tea").model, tiny_context.evaluation_dataset()


# ----------------------------------------------------------------------
# EvalRequest normalization and validation
# ----------------------------------------------------------------------
def test_request_normalizes_grid_levels(trained):
    model, dataset = trained
    request = EvalRequest(
        model=model, dataset=dataset, copy_levels=[4, 1, 4, 2], spf_levels=(2, 1, 2)
    )
    assert request.copy_levels == (1, 2, 4)
    assert request.spf_levels == (1, 2)
    assert request.max_copies == 4
    assert request.max_spf == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"copy_levels": ()},
        {"copy_levels": (0,)},
        {"spf_levels": (-1,)},
        {"repeats": 0},
        {"seed": True},
        {"seed": np.random.default_rng(0)},
        {"encoder": "morse"},
        {"max_samples": 0},
        {"router_delay": 0},
    ],
)
def test_request_rejects_invalid_fields(trained, kwargs):
    model, dataset = trained
    with pytest.raises(ValueError):
        EvalRequest(model=model, dataset=dataset, **kwargs)


def test_request_accepts_numpy_integer_seed(trained):
    model, dataset = trained
    request = EvalRequest(model=model, dataset=dataset, seed=np.int64(7))
    assert request.seed == 7 and isinstance(request.seed, int)


def test_request_evaluation_dataset_caps_samples(trained):
    model, dataset = trained
    request = EvalRequest(model=model, dataset=dataset, max_samples=10)
    assert request.evaluation_dataset().sample_count == 10
    assert EvalRequest(model=model, dataset=dataset).evaluation_dataset() is dataset


def test_request_cycle_accuracy_flags(trained):
    model, dataset = trained
    assert not EvalRequest(model=model, dataset=dataset).needs_cycle_accuracy
    assert EvalRequest(
        model=model, dataset=dataset, collect_spike_counters=True
    ).needs_cycle_accuracy
    assert EvalRequest(
        model=model, dataset=dataset, router_delay=2
    ).needs_cycle_accuracy
    assert EvalRequest(
        model=model, dataset=dataset, stochastic_synapses=True
    ).needs_cycle_accuracy


def test_with_levels_keeps_everything_else(trained):
    model, dataset = trained
    request = EvalRequest(model=model, dataset=dataset, repeats=2, seed=5)
    widened = request.with_levels((1, 8), (1, 2))
    assert widened.copy_levels == (1, 8)
    assert widened.spf_levels == (1, 2)
    assert widened.repeats == 2 and widened.seed == 5


# ----------------------------------------------------------------------
# backend protocol and registry
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert set(backend_names()) >= {"vectorized", "reference", "chip"}


@pytest.mark.parametrize(
    "factory", [VectorizedBackend, ReferenceBackend, ChipBackend]
)
def test_builtin_backends_satisfy_protocol(factory):
    backend = factory()
    assert isinstance(backend, EvaluationBackend)
    caps = backend.capabilities()
    assert isinstance(caps, BackendCapabilities)
    assert caps.name == backend.name


def test_capability_flags_match_design():
    assert VectorizedBackend().capabilities().spf_grids
    assert VectorizedBackend().capabilities().cacheable
    assert not VectorizedBackend().capabilities().cycle_accurate
    assert ChipBackend().capabilities().cycle_accurate
    # The chip serves (copies, spf, repeats) grids from repeat-folded
    # multi-copy images, reading every spf level of a deterministic grid
    # off one max-spf pass.
    assert ChipBackend().capabilities().spf_grids
    assert not ReferenceBackend().capabilities().cacheable


def test_create_backend_unknown_name():
    with pytest.raises(KeyError):
        create_backend("gpu-someday")


def test_register_backend_replaces_and_validates():
    class Dummy:
        name = "dummy-test-backend"

        def capabilities(self):
            return BackendCapabilities(
                name=self.name,
                description="",
                spf_grids=True,
                cycle_accurate=False,
                cacheable=False,
            )

        def evaluate(self, request):  # pragma: no cover - never called
            raise NotImplementedError

    register_backend("dummy-test-backend", Dummy)
    try:
        assert "dummy-test-backend" in backend_names()
        assert isinstance(create_backend("dummy-test-backend"), Dummy)
    finally:
        from repro.api import backends as backends_module

        del backends_module._REGISTRY["dummy-test-backend"]
    with pytest.raises(ValueError):
        register_backend("", Dummy)


# ----------------------------------------------------------------------
# EvalResult helpers
# ----------------------------------------------------------------------
def test_result_accessors_and_class_counts(trained):
    model, dataset = trained
    result = VectorizedBackend().evaluate(
        EvalRequest(
            model=model,
            dataset=dataset,
            copy_levels=(1, 2),
            spf_levels=(1, 2),
            repeats=2,
            seed=0,
        )
    )
    batch = dataset.sample_count
    classes = model.architecture.num_classes
    assert result.scores.shape == (2, 2, 2, batch, classes)
    assert result.accuracy.shape == (2, 2, 2)
    assert result.mean_accuracy.shape == (2, 2)
    assert result.accuracy_at(2, 1) == pytest.approx(result.mean_accuracy[1, 0])
    counts = result.class_counts()
    assert counts.dtype == np.int64
    # Counts recover the scores exactly: scores are counts / n_k.
    assert np.array_equal(
        counts / result.class_neuron_counts, result.scores
    )
    # Counts accumulate monotonically along the copy and spf axes.
    assert np.all(np.diff(counts, axis=1) >= 0)
    assert np.all(np.diff(counts, axis=2) >= 0)


def test_vectorized_grid_builds_the_corelet_network_once(trained, monkeypatch):
    """The backend builds the network and hands it to the runner, which
    would otherwise build it a second time."""
    from repro.api import backends as backends_module
    from repro.eval import runner as runner_module
    from repro.eval.runner import ScoreCache

    build = backends_module.build_corelets
    calls = []

    def counting(model):
        calls.append(model)
        return build(model)

    monkeypatch.setattr(backends_module, "build_corelets", counting)
    monkeypatch.setattr(runner_module, "build_corelets", counting)
    model, dataset = trained
    backend = VectorizedBackend(cache=ScoreCache())
    backend.evaluate(
        EvalRequest(
            model=model, dataset=dataset, copy_levels=(1, 2), spf_levels=(1, 2), seed=0
        )
    )
    assert backend.passes == 1
    assert calls == [model]


def test_class_counts_validates_shapes_with_typed_errors(trained):
    """Mismatched tensors raise ResultShapeError, never broadcast silently."""
    from dataclasses import replace

    model, dataset = trained
    result = VectorizedBackend().evaluate(
        EvalRequest(
            model=model, dataset=dataset, copy_levels=(1, 2), spf_levels=(1,), seed=0
        )
    )
    # Class axis disagreeing with n_k: numpy would happily broadcast a
    # same-length-1 n_k and return well-shaped wrong integers.
    bad_nk = replace(result, class_neuron_counts=np.ones(1, dtype=np.int64))
    with pytest.raises(ResultShapeError, match="class axis"):
        bad_nk.class_counts()
    bad_nk2 = replace(
        result,
        class_neuron_counts=np.ones(
            result.scores.shape[-1] + 1, dtype=np.int64
        ),
    )
    with pytest.raises(ResultShapeError, match="class axis"):
        bad_nk2.class_counts()
    # Copies axis disagreeing with the declared levels.
    bad_copies = replace(result, copy_levels=(1, 2, 4))
    with pytest.raises(ResultShapeError, match="grid axes"):
        bad_copies.class_counts()
    # Wrong rank entirely.
    bad_rank = replace(result, scores=result.scores[0])
    with pytest.raises(ResultShapeError, match="5-D|must be"):
        bad_rank.class_counts()
    # The untouched result still recovers its counts.
    assert result.class_counts().dtype == np.int64


def test_backend_spike_counter_plumbing_validates_copies_axis(trained):
    """_result_from_cumulative rejects mis-shaped tensors with typed errors."""
    from repro.api.backends import _result_from_cumulative

    model, dataset = trained
    request = EvalRequest(
        model=model, dataset=dataset, copy_levels=(1, 2), spf_levels=(2,), seed=0
    )
    batch = dataset.sample_count
    classes = model.architecture.num_classes
    n_k = np.ones(classes, dtype=np.int64)
    good = [np.zeros((2, 1, batch, classes))]  # (max_c, spf, batch, classes)

    # Cumulative tensors covering fewer copies than requested: previously a
    # bare IndexError from fancy indexing, now a typed error up front.
    with pytest.raises(ResultShapeError, match="copies"):
        _result_from_cumulative(
            request,
            "chip",
            [np.zeros((1, 1, batch, classes))],
            dataset,
            n_k,
            cores_per_copy=2,
            spf_axis_levels=(2,),
        )
    # Spike counters whose copies axis disagrees with the request.
    with pytest.raises(ResultShapeError, match="spike counters"):
        _result_from_cumulative(
            request,
            "chip",
            good,
            dataset,
            n_k,
            cores_per_copy=2,
            spike_counters=np.zeros((1, 3, 2, batch), dtype=np.int64),
            spf_axis_levels=(2,),
        )
    # Spike counters with a wrong batch axis (silent broadcasting bait).
    with pytest.raises(ResultShapeError, match="spike counters"):
        _result_from_cumulative(
            request,
            "chip",
            good,
            dataset,
            n_k,
            cores_per_copy=2,
            spike_counters=np.zeros((1, 2, 2, batch + 1), dtype=np.int64),
            spf_axis_levels=(2,),
        )
    # The well-shaped call still goes through.
    ok = _result_from_cumulative(
        request,
        "chip",
        good,
        dataset,
        n_k,
        cores_per_copy=2,
        spike_counters=np.zeros((1, 2, 2, batch), dtype=np.int64),
        spf_axis_levels=(2,),
    )
    assert ok.scores.shape == (1, 2, 1, batch, classes)


def test_result_sweep_conversion(trained):
    model, dataset = trained
    result = VectorizedBackend().evaluate(
        EvalRequest(
            model=model, dataset=dataset, copy_levels=(1, 2), spf_levels=(1,), seed=0
        )
    )
    sweep = result.sweep(label="api")
    assert sweep.copy_levels == (1, 2)
    assert sweep.label == "api"
    assert np.array_equal(sweep.mean_accuracy, result.mean_accuracy)
    assert sweep.cores[1] == 2 * model.architecture.cores_per_network
