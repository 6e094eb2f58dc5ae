"""Multi-copy chip engine vs the scalar per-sample path: bit-identical.

The multi-copy engine programs C sampled copies side by side into one chip
image (stacked per-core crossbar tensors, shared route table, per-copy LFSR
streams) and advances all ``C * batch`` rows in lock-step
(:func:`repro.mapping.pipeline.run_chip_inference_multicopy`).  These
hypothesis-driven property tests pin it against the scalar reference — each
copy's own single-copy chip (:func:`program_chip`), one
:func:`run_chip_inference` per (copy, sample) — at ``atol=0`` over copies in
{1, 2, 5}, router delays > 1, history-free and stateful LIF neurons, and
stochastic-synapse deployments, comparing per-copy class counts, per-core
spike counters (``core.spike_count`` of each scalar run), summed router
delivered/hop counters, and the final per-copy LFSR register states.  A
mid-run ``reset()`` must preserve the programmed routes and replay the
identical run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapping.deploy import DeployedNetwork
from repro.mapping.pipeline import (
    program_chip,
    program_chip_multicopy,
    run_chip_inference,
    run_chip_inference_multicopy,
)
from repro.truenorth.config import NeuronConfig
from repro.truenorth.crossbar import SynapticCrossbar

from test_chip_batch_equivalence import random_deployed_network

#: cores-per-layer shape exercised at each depth (small on purpose: the
#: hypothesis matrix multiplies runtimes by copies + 1 chip runs).
_SHAPES = {1: (2,), 2: (2, 2), 3: (2, 2, 1)}

#: the stochastic deployment neuron (unit weight table, per-tick sampling).
_STOCHASTIC = NeuronConfig(
    weight_table=(1, -1, 0, 0), history_free=True, stochastic_synapses=True
)


def random_deployed_copies(
    rng: np.random.Generator,
    count: int,
    depth: int,
    fractional_probabilities: bool = False,
):
    """C copies sharing one random topology, each with its own weights."""
    base = random_deployed_network(
        rng,
        depth=depth,
        cores_per_layer=_SHAPES[depth],
        neurons_per_core=7,
        axons_per_first_core=10,
        num_classes=4,
        fractional_probabilities=fractional_probabilities,
    )
    copies = [base]
    for _ in range(count - 1):
        weights = [
            [
                rng.integers(-1, 2, size=matrix.shape).astype(float)
                for matrix in layer
            ]
            for layer in base.sampled_weights
        ]
        copies.append(
            DeployedNetwork(
                corelet_network=base.corelet_network, sampled_weights=weights
            )
        )
    return copies


def run_scalar_oracle(copies, volumes, neuron_config, delay, copy_seeds, ticks):
    """The reference: each copy's own chip, one scalar run per sample.

    A multi-copy run drains while any (copy, sample) still has spikes in
    flight, so once a copy's last sample is done its chip idles on to
    ``ticks`` (the multi-copy run's length) before the LFSR registers are
    read: every register has then drawn once per tick, like the image's.
    """
    counts, spikes, states = [], [], []
    delivered = hops = 0
    for index, copy in enumerate(copies):
        chip, core_ids = program_chip(
            copy,
            neuron_config=neuron_config,
            router_delay=delay,
            core_seed=0 if copy_seeds is None else copy_seeds[index],
        )
        order = [cid for layer in core_ids for cid in layer]
        copy_counts, copy_spikes = [], []
        for frames in volumes:
            copy_counts.append(run_chip_inference(chip, copy, core_ids, frames))
            copy_spikes.append([chip.core(k).spike_count for k in order])
            delivered += chip.router.delivered_count
            hops += chip.router.hop_count
        while chip.tick < ticks:
            chip.step()
        counts.append(copy_counts)
        spikes.append(np.array(copy_spikes, dtype=np.int64).T)
        states.append([chip.core(k).prng.state for k in order])
    return np.array(counts, dtype=np.int64), np.stack(spikes), states, (delivered, hops)


def assert_multicopy_matches_percopy(
    copies, volumes, neuron_config=None, delay=1, copy_seeds=None
):
    """Program both ways, run both engines, compare everything at atol=0."""
    chip, core_ids = program_chip_multicopy(
        copies, neuron_config=neuron_config, router_delay=delay
    )
    multi = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=copy_seeds
    )
    counts, spikes, states, router = run_scalar_oracle(
        copies, volumes, neuron_config, delay, copy_seeds, chip.tick
    )
    order = [cid for layer in core_ids for cid in layer]
    multi_spikes = np.stack(
        [chip.core(k).multicopy_spike_counts for k in order], axis=1
    )
    assert np.array_equal(counts, multi)
    assert np.array_equal(spikes, multi_spikes)
    assert (chip.router.delivered_count, chip.router.hop_count) == router
    if chip.core(order[0]).copy_prngs is not None:
        multi_states = [
            [chip.core(k).copy_prngs[c].state for k in order]
            for c in range(len(copies))
        ]
        assert multi_states == states
    assert not chip.router.has_pending()
    return chip, core_ids, multi


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_copies=st.sampled_from([1, 2, 5]),
    depth=st.sampled_from([1, 2, 3]),
    delay=st.sampled_from([1, 2, 3]),
    lif=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_multicopy_bit_identical_to_percopy_loop(n_copies, depth, delay, lif, seed):
    rng = np.random.default_rng(seed)
    copies = random_deployed_copies(rng, n_copies, depth)
    neuron_config = (
        NeuronConfig(threshold=int(rng.integers(1, 3)), history_free=False)
        if lif
        else None
    )
    volumes = (
        rng.random((4, 3, copies[0].corelet_network.input_dim)) < 0.45
    ).astype(np.int8)
    assert_multicopy_matches_percopy(
        copies, volumes, neuron_config=neuron_config, delay=delay
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_copies=st.sampled_from([1, 2, 5]),
    depth=st.sampled_from([1, 2]),
    delay=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_multicopy_stochastic_lfsr_streams_bit_identical(
    n_copies, depth, delay, seed
):
    """Per-copy LFSR streams equal the one-chip-per-copy simulation's.

    Each copy is assigned its own ``core_seed`` (scalar oracle) /
    ``copy_seeds`` entry (multi-copy image); counts, spike counters, and the
    final LFSR register of every (copy, core) must coincide.
    """
    rng = np.random.default_rng(seed)
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=True
    )
    copy_seeds = [int(s) for s in rng.integers(1, 2**16, size=n_copies)]
    volumes = (
        rng.random((3, 3, copies[0].corelet_network.input_dim)) < 0.5
    ).astype(np.int8)
    chip, _, counts = assert_multicopy_matches_percopy(
        copies,
        volumes,
        neuron_config=_STOCHASTIC,
        delay=delay,
        copy_seeds=copy_seeds,
    )
    assert chip.copies == n_copies


def test_distinct_copy_seeds_give_distinct_realizations():
    """Different LFSR streams actually change the outcome (non-vacuity)."""
    rng = np.random.default_rng(9)
    copies = random_deployed_copies(rng, 2, 2, fractional_probabilities=True)
    volumes = (
        rng.random((6, 4, copies[0].corelet_network.input_dim)) < 0.5
    ).astype(np.int8)
    chip, core_ids = program_chip_multicopy(copies, neuron_config=_STOCHASTIC)
    counts = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=[7, 4242]
    )
    assert counts.sum() > 0
    assert not np.array_equal(counts[0], counts[1])
    # Identical seeds collapse the copies onto one stream (shared
    # stochastic programming: only the PRNG distinguishes them).
    same = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=[7, 7]
    )
    assert np.array_equal(same[0], same[1])


@pytest.mark.parametrize(
    "neuron_config",
    [
        # Non-zero reset potentials shift the history-free firing rule to
        # reset + sums - leak >= threshold; the fused fast path must use
        # the same effective threshold (it once assumed reset == 0).
        NeuronConfig(threshold=0, leak=0, reset_potential=-1, history_free=True),
        NeuronConfig(threshold=1, leak=0, reset_potential=1, history_free=True),
        NeuronConfig(threshold=1, leak=0, reset_potential=-1, history_free=True),
    ],
)
def test_fused_path_respects_reset_potential(neuron_config):
    rng = np.random.default_rng(13)
    copies = random_deployed_copies(rng, 3, 2)
    volumes = (
        rng.random((5, 4, copies[0].corelet_network.input_dim)) < 0.45
    ).astype(np.int8)
    _, _, counts = assert_multicopy_matches_percopy(
        copies, volumes, neuron_config=neuron_config
    )
    assert counts.sum() > 0  # a silent run would make the case vacuous


def test_stochastic_multicopy_rejects_per_copy_probabilities():
    """Stochastic images share one programming; divergent copies must raise."""
    from repro.mapping.corelet import Corelet, CoreletNetwork

    rng = np.random.default_rng(17)
    a = random_deployed_copies(rng, 1, 1, fractional_probabilities=True)[0]
    net_a = a.corelet_network
    # Same topology, different Bernoulli probabilities: fine
    # deterministically, an error in stochastic mode instead of silently
    # programming copy 0's tensors for both copies.
    net_b = CoreletNetwork(
        corelets=[
            [
                Corelet(
                    layer=c.layer,
                    index=c.index,
                    input_channels=c.input_channels,
                    probabilities=c.probabilities * 0.5,
                    synaptic_values=c.synaptic_values,
                    output_channels=c.output_channels,
                )
                for c in layer
            ]
            for layer in net_a.corelets
        ],
        class_assignment=net_a.class_assignment,
        num_classes=net_a.num_classes,
        input_dim=net_a.input_dim,
    )
    b = DeployedNetwork(corelet_network=net_b, sampled_weights=a.sampled_weights)
    program_chip_multicopy([a, b])
    with pytest.raises(ValueError, match="stochastic multi-copy image"):
        program_chip_multicopy([a, b], neuron_config=_STOCHASTIC)
    chip, core_ids = program_chip_multicopy([a, a], neuron_config=_STOCHASTIC)
    assert chip.occupied_core_ids() == [cid for layer in core_ids for cid in layer]


def test_midrun_reset_preserves_routes_and_replays():
    """chip.reset() between multi-copy runs keeps programming and routes."""
    rng = np.random.default_rng(21)
    copies = random_deployed_copies(rng, 3, 2, fractional_probabilities=True)
    volumes = (
        rng.random((5, 4, copies[0].corelet_network.input_dim)) < 0.5
    ).astype(np.int8)
    chip, core_ids = program_chip_multicopy(copies, neuron_config=_STOCHASTIC)
    seeds = [3, 999, 31337]
    first = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=seeds
    )
    assert first.sum() > 0
    # Interrupt a fresh run mid-flight, then reset: routes must survive.
    chip.begin_batch(3 * volumes.shape[0], copies=3, copy_seeds=seeds)
    chip.step_batch()
    chip.reset()
    assert chip.batch_size is None and chip.copies == 1
    again = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=seeds
    )
    assert np.array_equal(first, again)


# ----------------------------------------------------------------------
# mode and shape guards
# ----------------------------------------------------------------------
def test_begin_batch_copy_guards():
    rng = np.random.default_rng(2)
    copies = random_deployed_copies(rng, 2, 1)
    chip, _ = program_chip_multicopy(copies)
    with pytest.raises(ValueError, match="not divisible"):
        chip.begin_batch(5, copies=2)
    with pytest.raises(ValueError, match="programmed for 2 copies"):
        chip.begin_batch(9, copies=3)
    with pytest.raises(ValueError, match="copy seeds"):
        chip.begin_batch(4, copies=2, copy_seeds=[1])
    with pytest.raises(ValueError, match="copies must be positive"):
        chip.begin_batch(4, copies=0)


def test_crossbar_copy_stack_guards():
    crossbar = SynapticCrossbar(axons=4, neurons=3)
    with pytest.raises(ValueError, match="copies, 4, 3"):
        crossbar.set_copy_signed_weights(np.zeros((4, 3), dtype=np.int64))
    crossbar.set_copy_signed_weights(np.ones((2, 4, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="does not match"):
        crossbar.set_copy_probabilities(np.full((3, 4, 3), 0.5))
    with pytest.raises(ValueError, match="programmed for 2 copies"):
        crossbar.integrate_multicopy(np.zeros((3, 5, 4), dtype=np.int8))
    with pytest.raises(ValueError, match="one PRNG per"):
        crossbar.integrate_multicopy(
            np.zeros((2, 5, 4), dtype=np.int8), stochastic=True
        )


def test_scalar_paths_reject_multicopy_programming():
    """chip.step / run_chip_inference on a multi-copy image raise loudly.

    The single-copy programming of a stacked crossbar is empty, so the
    scalar path would otherwise return well-shaped all-zero results.
    """
    rng = np.random.default_rng(8)
    copies = random_deployed_copies(rng, 2, 1)
    chip, core_ids = program_chip_multicopy(copies)
    frames = np.zeros((2, copies[0].corelet_network.input_dim), dtype=np.int8)
    with pytest.raises(ValueError, match="copy programming"):
        run_chip_inference(chip, copies[0], core_ids, frames)
    chip.reset()
    with pytest.raises(ValueError, match="copy programming"):
        chip.step()


def test_multicopy_driver_shape_guards():
    rng = np.random.default_rng(4)
    copies = random_deployed_copies(rng, 2, 1)
    chip, core_ids = program_chip_multicopy(copies)
    input_dim = copies[0].corelet_network.input_dim
    with pytest.raises(ValueError, match="expected volumes"):
        run_chip_inference_multicopy(
            chip, copies, core_ids, np.zeros((3, input_dim), dtype=np.int8)
        )
    with pytest.raises(ValueError, match="2 copy seeds"):
        run_chip_inference_multicopy(
            chip,
            copies,
            core_ids,
            np.zeros((2, 2, input_dim), dtype=np.int8),
            copy_seeds=[1, 2, 3],
        )
    empty = run_chip_inference_multicopy(
        chip, copies, core_ids, np.zeros((0, 2, input_dim), dtype=np.int8)
    )
    assert empty.shape == (2, 0, copies[0].corelet_network.num_classes)


def test_mismatched_topologies_rejected():
    rng = np.random.default_rng(6)
    a = random_deployed_copies(rng, 1, 2)[0]
    b = random_deployed_network(
        rng,
        depth=2,
        cores_per_layer=(2, 2),
        neurons_per_core=5,  # different readout layout than _SHAPES[2]
        axons_per_first_core=10,
        num_classes=4,
    )
    with pytest.raises(ValueError, match="different corelet topology"):
        program_chip_multicopy([a, b])
