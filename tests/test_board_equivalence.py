"""Board engine and backend: bit-identical to the single-chip engine.

The board subsystem's equivalence discipline, pinned at ``atol=0``:

* a 1x1 board with zero link delay replays ``run_chip_inference_multicopy``
  bit for bit — class counts, per-core spike counters, router
  delivered/hop counters, and (stochastic mode) the final per-copy LFSR
  register states;
* spreading whole copies over several chips changes *where* cores live but
  not a single count, and carries zero link traffic;
* splitting a copy across chips hands spikes off at chip edges through the
  mesh links; with deterministic (history-free) neurons the counts match
  the single chip whenever every input-to-readout path has one latency —
  at ``link_delay=0``, or when the split gives every path the same hop
  count, as the half-split layout below does — and the summed delivered
  counters across the board equal the single chip's (conservation: a
  spike crosses a link instead of vanishing).  Paths of unequal hop count
  at ``link_delay > 0`` mix spike waves of different input ticks and do
  change the counts;
* level readout: on a split-copy board at ``link_delay=0`` every spf level
  read off one max-spf run equals a standalone run of that many ticks,
  and the driver refuses several levels where paths differ in latency;
* repeat folding: a program stacking R repeats' copies onto one
  placement, fed the grouped per-repeat volume, equals one board run per
  repeat — counts, spike counters, link traffic and LFSR registers — for
  whole copies and split copies at ``link_delay`` 0 and 1, the
  unequal-path layout included;
* ``board.reset()`` drops run state but not programming — a rerun after a
  completed (or drained) run reproduces the first run exactly, link
  counters included;
* the ``board`` backend equals the ``chip`` backend on every request the
  chip can serve, and ``Session`` auto-routes
  ``link_delay`` requests and chip-overflowing copy budgets to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EvalRequest, Session, UnsupportedRequestError
from repro.api.backends import (
    BoardBackend,
    ChipBackend,
    create_backend,
    register_backend,
)
from repro.board import BoardConfig
from repro.mapping.placement import place_on_board
from repro.mapping.pipeline import (
    board_spike_counters,
    program_board_multicopy,
    program_chip_multicopy,
    run_board_inference_multicopy,
    run_chip_inference_multicopy,
)
from repro.truenorth.config import ChipConfig

from test_chip_multicopy_equivalence import _STOCHASTIC, random_deployed_copies

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _identity_chip_config(core_count: int, copies: int) -> ChipConfig:
    """A chip grid holding ``copies`` stacked copies with the *same column
    count* as the single-chip engine's ceil-sqrt grid.

    Core positions depend only on the column count (``core_id // cols,
    core_id % cols``), so the first ``core_count`` cores sit exactly where
    ``_make_chip`` puts them — which is what makes the router hop counters
    comparable, not just the spike counts.
    """
    rows = int(np.ceil(np.sqrt(core_count))) or 1
    cols = max(int(np.ceil(core_count / rows)), 1)
    tall = int(np.ceil(copies * core_count / cols))
    return ChipConfig(grid_shape=(tall, cols))


def _chip_reference(copies, volumes, neuron_config, delay, seeds):
    chip, core_ids = program_chip_multicopy(
        copies, neuron_config=neuron_config, router_delay=delay
    )
    counts = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=seeds
    )
    flat = [cid for layer in core_ids for cid in layer]
    counters = np.stack(
        [chip.core(cid).multicopy_spike_counts for cid in flat], axis=1
    )
    return chip, flat, counts, counters


def _lfsr_states(board, program):
    """``(global copy, flat corelet) -> LFSR register`` of every board core."""
    states = {}
    for chip_index, image in program.images.items():
        chip = board.chips[chip_index]
        for core_id, flat in enumerate(range(image.lo, image.hi)):
            core = chip.core(core_id)
            prngs = core.copy_prngs or [core.prng] * len(image.copies)
            for local, copy in enumerate(image.copies):
                states[(copy, flat)] = prngs[local].state
    return states


# ----------------------------------------------------------------------
# pipeline level: 1x1 board identity
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=1, max_value=3),
    stochastic=st.booleans(),
    delay=st.integers(min_value=1, max_value=2),
    grouped=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_board_1x1_bit_identical_to_single_chip(
    depth, stochastic, delay, grouped, seed
):
    rng = np.random.default_rng(seed)
    n_copies = 2
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=stochastic
    )
    network = copies[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    copy_seeds = [int(s) for s in rng.integers(1, 2**16, size=n_copies)]
    shape = (
        (n_copies, 3, 2, network.input_dim)
        if grouped
        else (3, 2, network.input_dim)
    )
    volumes = (rng.random(shape) < 0.4).astype(np.int8)

    chip, flat, ref_counts, ref_counters = _chip_reference(
        copies, volumes, neuron_config, delay, copy_seeds
    )

    config = BoardConfig(
        grid_shape=(1, 1),
        chip_config=_identity_chip_config(network.core_count, n_copies),
        link_delay=0,
    )
    # A grouped volume (one block per copy) folds the copies as repeats of
    # a one-copy placement: the one chip then holds the same image.
    board, program = program_board_multicopy(
        copies,
        config,
        neuron_config=neuron_config,
        router_delay=delay,
        placement=place_on_board(network, 1 if grouped else n_copies, config),
    )
    counts = run_board_inference_multicopy(
        board, copies, program, volumes, copy_seeds=copy_seeds
    )
    board_chip = board.chips[0]

    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    assert board.fabric.spikes_carried == 0 and board.fabric.hop_count == 0
    assert board_chip.router.delivered_count == chip.router.delivered_count
    assert board_chip.router.hop_count == chip.router.hop_count
    if stochastic:
        for core_id in flat:
            assert [
                prng.state for prng in board_chip.core(core_id).copy_prngs
            ] == [prng.state for prng in chip.core(core_id).copy_prngs]


# ----------------------------------------------------------------------
# pipeline level: whole copies spread over chips — zero link traffic
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=1, max_value=3),
    stochastic=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_whole_copy_spread_is_invariant_and_traffic_free(depth, stochastic, seed):
    rng = np.random.default_rng(seed)
    n_copies = 3
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=stochastic
    )
    network = copies[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    copy_seeds = [int(s) for s in rng.integers(1, 2**16, size=n_copies)]
    volumes = (rng.random((3, 2, network.input_dim)) < 0.4).astype(np.int8)

    _, _, ref_counts, ref_counters = _chip_reference(
        copies, volumes, neuron_config, 1, copy_seeds
    )

    # One copy per chip, non-zero link delay: whole copies never touch it.
    config = BoardConfig(
        grid_shape=(2, 2),
        chip_config=ChipConfig(grid_shape=(1, network.core_count)),
        link_delay=3,
    )
    board, program = program_board_multicopy(
        copies, config, neuron_config=neuron_config
    )
    counts = run_board_inference_multicopy(
        board, copies, program, volumes, copy_seeds=copy_seeds
    )
    assert program.placement.occupied_chips() == n_copies
    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    assert board.fabric.spikes_carried == 0


# ----------------------------------------------------------------------
# pipeline level: split copies hand off at chip edges
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=2, max_value=3),
    delay=st.integers(min_value=1, max_value=3),
    link_delay=st.integers(min_value=0, max_value=2),
    stochastic=st.booleans(),
    seeded=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_split_copy_handoff_matches_single_chip(
    depth, delay, link_delay, stochastic, seeded, seed
):
    if stochastic:
        # Synapses are re-sampled every tick, so a spike arriving later
        # meets another sample: only ideal links keep the counts.
        link_delay = 0
    rng = np.random.default_rng(seed)
    n_copies = 2
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=stochastic
    )
    network = copies[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    copy_seeds = (
        [int(s) for s in rng.integers(1, 2**16, size=n_copies)] if seeded else None
    )
    volumes = (rng.random((3, 3, network.input_dim)) < 0.45).astype(np.int8)

    chip, flat, ref_counts, ref_counters = _chip_reference(
        copies, volumes, neuron_config, delay, copy_seeds
    )

    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(2, 2), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=link_delay,
    )
    board, program = program_board_multicopy(
        copies, config, neuron_config=neuron_config, router_delay=delay
    )
    counts = run_board_inference_multicopy(
        board, copies, program, volumes, copy_seeds=copy_seeds
    )

    assert program.placement.split_copies() == tuple(range(n_copies))
    stats = program.placement.mesh_statistics()
    assert stats["max_chip_distance"] >= 1
    # Deterministic history-free neurons: the half split gives every path
    # of a layer transition the same hop count, so each path has one
    # latency and the spikes arrive later but identical.  (Unequal hop
    # counts at link_delay > 0 change the counts — see
    # test_unequal_link_paths_change_counts_and_refuse_level_readout.)
    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    # Conservation: every on-chip delivery happens somewhere on the board.
    delivered = sum(c.router.delivered_count for c in board.chips)
    assert delivered == chip.router.delivered_count
    # Link traffic is real whenever some inter-layer spike fired, and its
    # hop accounting matches the placement's worst-distance bound.
    assert board.fabric.hop_count <= (
        board.fabric.spikes_carried * max(1, stats["max_chip_distance"])
    )
    assert board.fabric.spikes_carried == sum(board.fabric.pair_counts.values())
    # Shard cores replay the unsplit chip's LFSR streams (copy seed plus
    # the shard's corelet offset).
    assert _lfsr_states(board, program) == {
        (copy, index): chip.core(core_id).copy_prngs[copy].state
        for index, core_id in enumerate(flat)
        for copy in range(n_copies)
    }


@given(
    depth=st.integers(min_value=2, max_value=3),
    delay=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_split_copy_level_readout_matches_standalone_runs(depth, delay, seed):
    rng = np.random.default_rng(seed)
    copies = random_deployed_copies(rng, 2, depth)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 4, network.input_dim)) < 0.45).astype(np.int8)
    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(2, 2), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=0,
    )
    levels = (1, 2, 4)

    def run(volume, **kwargs):
        board, program = program_board_multicopy(
            copies, config, router_delay=delay
        )
        assert program.placement.split_copies() == (0, 1)
        return run_board_inference_multicopy(
            board, copies, program, volume, **kwargs
        )

    folded = run(volumes, levels=levels)
    for index, spf in enumerate(levels):
        standalone = volumes[:, :spf]
        assert np.array_equal(folded[index], run(standalone))
        _, _, chip_counts, _ = _chip_reference(
            copies, standalone, None, delay, None
        )
        assert np.array_equal(folded[index], chip_counts)


def test_unequal_link_paths_change_counts_and_refuse_level_readout():
    # One core per chip on a 2x2 mesh: the depth-2 copy's layer-0 cores sit
    # on the top row and its layer-1 cores on the bottom row, so its
    # transition paths take 1 or 2 hops.  At link_delay=1 a layer-1 core
    # sums spikes born at different input ticks, and the counts move.
    rng = np.random.default_rng(0)
    copies = random_deployed_copies(rng, 1, 2)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 2, network.input_dim)) < 0.45).astype(np.int8)
    _, _, chip_counts, _ = _chip_reference(copies, volumes, None, 1, None)
    config = BoardConfig(
        grid_shape=(2, 2), chip_config=ChipConfig(grid_shape=(1, 1)),
        link_delay=1,
    )
    board, program = program_board_multicopy(copies, config)
    assert program.placement.split_copies() == (0,)
    assert program.placement.transition_chip_distances(0) == [2]
    counts = run_board_inference_multicopy(board, copies, program, volumes)
    assert not np.array_equal(counts, chip_counts)
    with pytest.raises(ValueError, match="unequal latency"):
        run_board_inference_multicopy(
            board, copies, program, volumes, levels=(1, 2)
        )
    # The full-run readout alone is still served, as one level.
    assert np.array_equal(
        run_board_inference_multicopy(
            board, copies, program, volumes, levels=(2,)
        )[0],
        counts,
    )


# ----------------------------------------------------------------------
# pipeline level: repeats folded onto one placement
# ----------------------------------------------------------------------
#: placed copies, chip core grid (from the copy's core count) and board
#: shape of each folding layout.
_FOLD_LAYOUTS = {
    # Two whole copies per chip: a chip's folded copies are not contiguous.
    "whole": (3, lambda cores: (2, cores), (1, 2)),
    # Every copy split over two chips, spikes crossing the mesh links.
    "split": (2, lambda cores: (1, (cores + 1) // 2), (2, 2)),
    # One core per chip on a 2x2 mesh: transition paths of 1 and 2 hops.
    "unequal": (1, lambda cores: (1, 1), (2, 2)),
}


@given(
    layout=st.sampled_from(sorted(_FOLD_LAYOUTS)),
    depth=st.integers(min_value=2, max_value=3),
    link_delay=st.integers(min_value=0, max_value=1),
    stochastic=st.booleans(),
    repeats=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_board_repeat_folding_matches_one_run_per_repeat(
    layout, depth, link_delay, stochastic, repeats, seed
):
    if layout == "unequal":
        depth = 2  # four 1-core chips hold exactly one depth-2 copy
    placed, chip_grid, board_shape = _FOLD_LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    flat = random_deployed_copies(
        rng, repeats * placed, depth, fractional_probabilities=stochastic
    )
    network = flat[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    seeds = [int(s) for s in rng.integers(1, 2**16, size=len(flat))]
    volumes = (rng.random((repeats, 3, 3, network.input_dim)) < 0.45).astype(
        np.int8
    )
    config = BoardConfig(
        grid_shape=board_shape,
        chip_config=ChipConfig(grid_shape=chip_grid(network.core_count)),
        link_delay=link_delay,
    )
    placement = place_on_board(network, placed, config)
    assert placement.copy_count == placed

    board, program = program_board_multicopy(
        flat, config, neuron_config=neuron_config, placement=placement
    )
    folded = run_board_inference_multicopy(
        board, flat, program, volumes, copy_seeds=seeds
    )
    counters = board_spike_counters(board, flat, program)
    states = _lfsr_states(board, program)

    link_spikes = 0
    per_repeat_states = {}
    for r in range(repeats):
        rows = slice(r * placed, (r + 1) * placed)
        group = flat[rows]
        alone, alone_program = program_board_multicopy(
            group, config, neuron_config=neuron_config
        )
        counts = run_board_inference_multicopy(
            alone, group, alone_program, volumes[r], copy_seeds=seeds[rows]
        )
        assert np.array_equal(folded[rows], counts)
        assert np.array_equal(
            counters[rows], board_spike_counters(alone, group, alone_program)
        )
        link_spikes += alone.fabric.spikes_carried
        # The folded run drains while any repeat has spikes in flight; idle
        # this board to the same tick so its registers drew as often.
        while alone.tick < board.tick:
            alone.step_batch()
        for (copy, core), state in _lfsr_states(alone, alone_program).items():
            per_repeat_states[(r * placed + copy, core)] = state
    assert board.fabric.spikes_carried == link_spikes
    assert states == per_repeat_states
    if layout != "whole":
        assert program.placement.split_copies()
    if placed > 1:
        # One block per copy would feed a chip's copies out of order.
        with pytest.raises(ValueError, match="takes 1 or"):
            run_board_inference_multicopy(
                board, flat, program, np.repeat(volumes, placed, axis=0)
            )


def test_board_reset_reproduces_the_run():
    rng = np.random.default_rng(7)
    copies = random_deployed_copies(rng, 2, 2)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 3, network.input_dim)) < 0.45).astype(np.int8)
    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(1, 4), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=2,
    )
    board, program = program_board_multicopy(copies, config, router_delay=2)
    first = run_board_inference_multicopy(board, copies, program, volumes)
    first_fabric = (board.fabric.spikes_carried, board.fabric.hop_count)
    assert first_fabric[0] > 0

    # Reset mid-life: run state (in-flight spikes, tick counters, link
    # counters) drops, programming (crossbars, remote routes) survives.
    board.reset()
    assert not board.has_pending()
    assert board.fabric.spikes_carried == 0 and board.fabric.pair_counts == {}
    assert all(chip.batch_size is None for chip in board.chips)

    second = run_board_inference_multicopy(board, copies, program, volumes)
    assert np.array_equal(first, second)
    assert (board.fabric.spikes_carried, board.fabric.hop_count) == first_fabric


def test_reset_during_drain_discards_in_flight_spikes():
    # Interrupt a run mid-tick-loop: reset must clear pending link spikes
    # so a fresh run is not contaminated.
    rng = np.random.default_rng(11)
    copies = random_deployed_copies(rng, 1, 2)
    network = copies[0].corelet_network
    volumes = (rng.random((2, 3, network.input_dim)) < 0.6).astype(np.int8)
    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(1, 2), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=3,
    )
    board, program = program_board_multicopy(copies, config, router_delay=2)
    reference = run_board_inference_multicopy(board, copies, program, volumes)

    board.reset()
    # Start a second run by hand and abandon it while spikes are in flight.
    from repro.mapping.pipeline import INPUT_CHANNEL, _gather_input_volumes

    per_binding = _gather_input_volumes(network, volumes)
    inputs = {}
    for chip_index, image in program.images.items():
        board.chips[chip_index].begin_batch(volumes.shape[0], copies=1)
        feed = per_binding[image.lo : image.hi]
        if feed:
            inputs[chip_index] = {
                INPUT_CHANNEL: {b: volume[:, 0, :] for b, volume in enumerate(feed)}
            }
    board.step_batch(inputs)
    board.reset()
    assert not board.has_pending()

    replay = run_board_inference_multicopy(board, copies, program, volumes)
    assert np.array_equal(reference, replay)


# ----------------------------------------------------------------------
# backend level
# ----------------------------------------------------------------------
def _request(model, dataset, **kwargs):
    kwargs.setdefault("copy_levels", (1, 2))
    kwargs.setdefault("spf_levels", (1, 2))
    kwargs.setdefault("repeats", 2)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("max_samples", 10)
    return EvalRequest(model=model, dataset=dataset, **kwargs)


@pytest.fixture(scope="module")
def model_and_dataset(tiny_context):
    return tiny_context.result("tea").model, tiny_context.evaluation_dataset()


def test_board_backend_matches_chip_backend(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(model, dataset, collect_spike_counters=True)
    chip_result = ChipBackend().evaluate(request)
    board_result = BoardBackend().evaluate(request)
    assert board_result.backend == "board"
    assert np.array_equal(chip_result.scores, board_result.scores)
    assert np.array_equal(
        chip_result.class_counts(), board_result.class_counts()
    )
    assert np.array_equal(chip_result.accuracy, board_result.accuracy)
    assert np.array_equal(
        chip_result.spike_counters, board_result.spike_counters
    )


def test_board_backend_matches_chip_backend_stochastic(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(
        model, dataset, stochastic_synapses=True, router_delay=2,
        spf_levels=(1,), max_samples=8,
    )
    chip_result = ChipBackend().evaluate(request)
    board_result = BoardBackend().evaluate(request)
    assert np.array_equal(
        chip_result.class_counts(), board_result.class_counts()
    )


def test_link_delay_changes_nothing_for_history_free_copies(model_and_dataset):
    # The tea model is single-layer: its split copies route no spike over a
    # link, so every path has one latency and mesh latency cannot change a
    # count.  (Multi-layer copies whose paths differ in hop count do change
    # at link_delay > 0 — see
    # test_unequal_link_paths_change_counts_and_refuse_level_readout.)
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    small = ChipConfig(grid_shape=(1, max(1, (cores + 1) // 2)))
    base = _request(model, dataset, spf_levels=(1,))
    delayed = _request(model, dataset, spf_levels=(1,), link_delay=2)
    ideal = BoardBackend(chip_config=small).evaluate(base)
    slow = BoardBackend(chip_config=small).evaluate(delayed)
    assert slow.backend == "board"
    assert np.array_equal(ideal.class_counts(), slow.class_counts())


def test_fixed_board_too_small_is_rejected_before_any_pass(
    model_and_dataset, monkeypatch
):
    import repro.api.backends as backends

    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    # Two one-copy chips cannot hold the four copies of copy level 4.
    backend = BoardBackend(
        chip_config=ChipConfig(grid_shape=(1, cores)), board_shape=(1, 2)
    )
    passes = []
    monkeypatch.setattr(
        backends, "_evaluate_board_pass", lambda *args: passes.append(args)
    )
    request = _request(model, dataset, copy_levels=(1, 4), spf_levels=(1,))
    with pytest.raises(
        UnsupportedRequestError, match=rf"4 copies x {cores} cores.*\(1, 2\) board"
    ):
        backend.evaluate(request)
    assert passes == [] and backend.passes == 0


def test_link_delay_is_gated_off_non_board_backends(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(model, dataset, link_delay=1)
    for name in ("chip", "vectorized", "reference"):
        with pytest.raises(UnsupportedRequestError, match="board"):
            create_backend(name).evaluate(request)


def test_session_routes_link_delay_to_board(model_and_dataset):
    model, dataset = model_and_dataset
    session = Session()
    request = _request(model, dataset, spf_levels=(1,), link_delay=0)
    assert session.select_backend(request) == "board"
    result = session.evaluate(request)
    assert result.backend == "board"


def test_session_routes_chip_overflow_to_board(model_and_dataset):
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    # A chip the size of one copy: any duplication overflows it.
    register_backend(
        "chip", lambda **kw: ChipBackend(cores_per_chip=cores, **kw)
    )
    try:
        session = Session()
        request = _request(
            model, dataset, copy_levels=(1, 2), spf_levels=(1,),
            collect_spike_counters=True,
        )
        assert session.select_backend(request) == "board"
        result = session.evaluate(request)
        assert result.backend == "board"
        # The sweep completed with conservation intact: exact integer
        # counts recoverable and counters present for every copy level.
        assert result.class_counts().dtype == np.int64
        assert result.spike_counters.shape[:2] == (request.repeats, 2)
        # An explicit chip evaluation of the same request is refused.
        with pytest.raises(UnsupportedRequestError, match="board"):
            session.evaluate(request, backend="chip")
    finally:
        register_backend("chip", ChipBackend)


def test_requests_differing_in_link_delay_do_not_coalesce(model_and_dataset):
    model, dataset = model_and_dataset
    session = Session(backend="board")
    a = session.submit(_request(model, dataset, spf_levels=(1,), link_delay=0))
    b = session.submit(_request(model, dataset, spf_levels=(1,), link_delay=1))
    session.flush()
    assert session.stats.coalesced_requests == 0
    assert np.array_equal(
        a.result().class_counts(), b.result().class_counts()
    )
