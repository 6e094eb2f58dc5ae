"""Cross-backend equivalence properties of the repro.api protocol.

The protocol's core promise: the backend is an implementation detail.  The
same :class:`EvalRequest` must produce

* **bit-identical integer readout class counts** on every backend (the
  folded-gate engine is exact, see :mod:`repro.eval.engine`, and the chip
  simulators match it spike for spike), and therefore
* **bit-identical score tensors and accuracy grids** on every backend
  (``atol=0``): each divides its counts once, ``scores = counts / n_k``.

These are property tests over grids and seeds on tiny trained models of
test benches 1 and 5 (two layers, where float-summed class means used to
differ from the chip's in the last bits), plus the Figure 7 acceptance
check: flipping the driver's ``backend=`` config between ``"vectorized"``
and ``"reference"`` changes nothing in the scores.  On test bench 5 a
stochastic-synapse grid, read off one max-spf chip or board pass, also
equals each of its levels requested alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvalRequest, Session
from repro.api.backends import BoardBackend, ChipBackend
from repro.eval.runner import ScoreCache
from repro.truenorth.config import ChipConfig

_MODEL = {}


@pytest.fixture(scope="module", autouse=True)
def _trained(tiny_context):
    """Module-scoped trained model shared with the hypothesis tests.

    Hypothesis ``@given`` functions cannot take function-scoped fixtures, so
    the model/dataset pair is stashed in a module-level dict.
    """
    _MODEL["model"] = tiny_context.result("tea").model
    # A small slice keeps each sampled example fast; the properties do not
    # depend on the batch size.
    _MODEL["dataset"] = tiny_context.evaluation_dataset().take(24)
    yield
    _MODEL.clear()


@pytest.fixture(scope="module")
def testbench_5():
    """A trained two-layer test bench 5 model and 16 evaluation samples."""
    from repro.experiments.runner import ExperimentContext

    context = ExperimentContext(
        testbench=5,
        train_size=120,
        test_size=40,
        epochs=1,
        eval_samples=16,
        repeats=1,
        seed=0,
    )
    return context.result("tea").model, context.evaluation_dataset()


def _request(copy_levels, spf_levels, seed, repeats=1):
    return EvalRequest(
        model=_MODEL["model"],
        dataset=_MODEL["dataset"],
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        repeats=repeats,
        seed=seed,
    )


def _session():
    # A private cache so a cached vectorized tensor can never mask a
    # divergence (the reference backend is uncached by design).
    return Session(cache=ScoreCache())


# ----------------------------------------------------------------------
# vectorized vs reference: bit-identical scores
# ----------------------------------------------------------------------
@given(
    copies=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    spfs=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_vectorized_reference_scores_bit_identical(copies, spfs, seed):
    session = _session()
    request = _request(tuple(copies), tuple(spfs), seed)
    vectorized = session.evaluate(request, backend="vectorized")
    reference = session.evaluate(request, backend="reference")
    assert np.array_equal(vectorized.scores, reference.scores)
    assert np.array_equal(vectorized.accuracy, reference.accuracy)
    assert np.array_equal(vectorized.cores, reference.cores)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_vectorized_reference_identical_across_repeats(seed):
    session = _session()
    request = _request((1, 2), (2,), seed, repeats=2)
    vectorized = session.evaluate(request, backend="vectorized")
    reference = session.evaluate(request, backend="reference")
    assert np.array_equal(vectorized.scores, reference.scores)


# ----------------------------------------------------------------------
# chip vs vectorized: bit-identical integer readout counts
# ----------------------------------------------------------------------
@given(
    copies=st.integers(1, 3),
    spf=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=6, deadline=None)
def test_chip_class_counts_bit_identical_to_vectorized(copies, spf, seed):
    session = _session()
    request = _request((1, copies), (spf,), seed)
    chip = session.evaluate(request, backend="chip")
    vectorized = session.evaluate(request, backend="vectorized")
    assert np.array_equal(chip.class_counts(), vectorized.class_counts())
    # Same counts => same predictions => same accuracy grids.
    assert np.array_equal(chip.accuracy, vectorized.accuracy)


def test_chip_multilayer_counts_match_vectorized(testbench_5):
    """The multi-layer path (router hops, drain ticks) agrees too.

    The grid's spf levels are read off one max-spf chip (and board) pass,
    so this pins the level readout's ``(depth - 1) * delay`` offset on a
    trained multi-layer model against the vectorized engine.
    """
    model, dataset = testbench_5
    request = EvalRequest(
        model=model,
        dataset=dataset,
        copy_levels=(1, 2),
        spf_levels=(1, 2, 3),
        repeats=1,
        seed=3,
    )
    session = _session()
    vectorized = session.evaluate(request, backend="vectorized")
    for backend in ("chip", "board"):
        cycle_accurate = session.evaluate(request, backend=backend)
        assert np.array_equal(
            cycle_accurate.class_counts(), vectorized.class_counts()
        )


@pytest.mark.parametrize("router_delay", [None, 2])
def test_multilayer_stochastic_grid_matches_single_level_requests(
    testbench_5, router_delay
):
    """A stochastic spf grid on test bench 5 is its standalone levels.

    Two layers put the level readout at step ``s - 1 + delay``: a level
    sees only spikes of input ticks below ``s``, and the per-copy LFSR
    seeds are drawn before encoding, so one max-spf pass serves every
    level.  Checked on the chip, a whole-copy board, and a board whose
    split copies hand spikes over ideal links (``link_delay=0``).
    """
    model, dataset = testbench_5
    request = EvalRequest(
        model=model,
        dataset=dataset,
        copy_levels=(1, 2),
        spf_levels=(1, 2, 3),
        repeats=2,
        seed=5,
        stochastic_synapses=True,
        collect_spike_counters=True,
        router_delay=router_delay,
    )
    cores = model.architecture.cores_per_network
    half = ChipConfig(grid_shape=(1, (cores + 1) // 2))
    for backend in (ChipBackend(), BoardBackend(), BoardBackend(chip_config=half)):
        grid = backend.evaluate(request)
        for column, spf in enumerate(request.spf_levels):
            single = backend.evaluate(request.with_levels((1, 2), (spf,)))
            assert np.array_equal(
                grid.class_counts()[:, :, column], single.class_counts()[:, :, 0]
            ), (backend.name, spf)
        assert np.array_equal(grid.spike_counters, single.spike_counters)


# ----------------------------------------------------------------------
# every backend: one score convention, bit-identical scores
# ----------------------------------------------------------------------
@pytest.mark.parametrize("testbench", [1, 5])
@given(
    copies=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    spfs=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=4, deadline=None)
def test_every_backend_scores_and_accuracy_bit_identical(
    testbench, testbench_5, copies, spfs, seed
):
    """Scores, not only ``class_counts()``, agree at ``atol=0`` everywhere."""
    if testbench == 1:
        model, dataset = _MODEL["model"], _MODEL["dataset"]
    else:
        model, dataset = testbench_5
    request = EvalRequest(
        model=model,
        dataset=dataset,
        copy_levels=tuple(copies),
        spf_levels=tuple(spfs),
        repeats=2,
        seed=seed,
    )
    session = _session()
    results = {
        backend: session.evaluate(request, backend=backend)
        for backend in ("vectorized", "reference", "chip", "board")
    }
    chip = results.pop("chip")
    assert chip.scores.dtype == np.float64
    assert chip.class_neuron_counts.dtype == np.int64
    for backend, result in results.items():
        assert result.scores.tobytes() == chip.scores.tobytes(), backend
        assert np.array_equal(result.accuracy, chip.accuracy), backend
        assert result.class_neuron_counts.dtype == np.int64, backend


# ----------------------------------------------------------------------
# acceptance: Figure 7 backend switch is a no-op on the scores
# ----------------------------------------------------------------------
def test_figure7_backend_switch_bit_identical(tiny_context):
    from repro.experiments.figure7 import run_figure7

    reports = {
        backend: run_figure7(
            tiny_context,
            copy_levels=(1, 2),
            spf_levels=(1, 2),
            session=Session(backend=backend, cache=ScoreCache()),
        )
        for backend in ("vectorized", "reference")
    }
    for method in ("tea", "biased"):
        fast = reports["vectorized"][f"_result_{method}"]
        slow = reports["reference"][f"_result_{method}"]
        assert fast.backend == "vectorized" and slow.backend == "reference"
        assert np.array_equal(fast.scores, slow.scores)
        assert np.array_equal(
            np.asarray(reports["vectorized"][method]["surface"]),
            np.asarray(reports["reference"][method]["surface"]),
        )
