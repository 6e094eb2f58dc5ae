"""Registered evaluation backends serving the :mod:`repro.api` protocol.

Four backends wrap the repo's evaluation engines behind one
:class:`~repro.api.protocol.EvaluationBackend` contract:

* ``vectorized`` — :class:`repro.eval.runner.SweepRunner` over
  :class:`repro.eval.engine.VectorizedEvaluator`: the fast functional path
  (folded firing gate, one GEMM per corelet per layer, streamed encoding)
  with the in-memory score cache.
* ``reference`` — the kept per-corelet equivalence loop
  (:func:`repro.eval.engine.evaluate_scores_reference`): slow by design,
  never cached, the ground truth the vectorized backend must match bit for
  bit.
* ``chip`` — the batched cycle-accurate TrueNorth simulator
  (:func:`repro.mapping.pipeline.run_chip_inference_multicopy`): all
  deployed copies of **all repeats** programmed side by side into one
  multi-copy chip image, lock-step ticks over ``repeats x copies x batch``
  rows, per-core spike counters, router-delay control, and
  stochastic-synapse sweeps on per-copy LFSR streams.  Every ``(copies,
  spf, repeats)`` grid, stochastic synapses included, is served in
  **one** pass that runs ``max(spf_levels)`` ticks and reads every spf
  level off the run (level readout).  Copy and repeat levels fall out of
  the pass via exact integer cumsums.
* ``board`` — the multi-chip board mesh
  (:func:`repro.mapping.pipeline.run_board_inference_multicopy`):
  duplication sweeps whose core footprint overflows one chip spill onto a
  mesh of chips, and boundary-crossing spikes pay a configurable per-hop
  link delay.  Every board chip is a multi-copy chip image and repeats
  fold as on the chip, so a grid takes one pass that reads every spf
  level off the run when all spike paths share one latency
  (``link_delay == 0`` or no split copy); otherwise each spf level is its
  own pass.  On a 1x1 board with ideal links it is bit-identical to
  ``chip``.

All four consume the canonical randomness layout documented in
:mod:`repro.api.protocol`, so a request produces the same sampled
connectivities and the same input spike realizations on every backend.
Each backend hands per-repeat *cumulative* class counts to one funnel,
:func:`_result_from_cumulative`, which slices them to the requested grid,
divides once (``scores = counts / n_k``) and derives the accuracy.  The
chip and board passes read integer counts off the readout; the
functional engines accumulate float class means, which the funnel
converts back to counts exactly.  Every backend's scores are therefore
exact class means, equal at ``atol=0`` wherever the counts agree, and
the result shape cannot drift apart between backends.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.protocol import (
    BackendCapabilities,
    EvalRequest,
    EvalResult,
    ResultShapeError,
    UnsupportedRequestError,
)
from repro.board.topology import BoardConfig, board_shape_for
from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset
from repro.encoding.stochastic import StochasticEncoder
from repro.eval.engine import class_counts as class_neuron_counts
from repro.eval.engine import evaluate_scores_reference
from repro.eval.runner import ScoreCache, SweepRunner
from repro.mapping.corelet import CoreletNetwork, build_corelets
from repro.mapping.deploy import DeployedNetwork
from repro.mapping.duplication import deploy_with_copies
from repro.mapping.placement import BoardPlacement, place_on_board
from repro.mapping.pipeline import (
    board_spike_counters,
    paths_share_one_latency,
    program_board_multicopy,
    program_chip_multicopy,
    run_board_inference_multicopy,
    run_chip_inference_multicopy,
    stochastic_neuron_config,
)
from repro.truenorth.config import ChipConfig
from repro.utils.rng import clone_rng, new_rng, spawn_rngs


def _check_capabilities(request: EvalRequest, caps: BackendCapabilities) -> None:
    """Reject request features the backend does not implement.

    Raising here (instead of ignoring the feature or quietly delegating to
    another backend) is the protocol's no-silent-fallback rule.
    """
    if request.needs_board_mesh and not caps.board_mesh:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot simulate inter-chip mesh links "
            f"(link_delay={request.link_delay}); use the 'board' backend "
            "(or backend='auto')"
        )
    if request.needs_cycle_accuracy and not caps.cycle_accurate:
        features = []
        if request.collect_spike_counters:
            features.append("collect_spike_counters")
        if request.router_delay is not None:
            features.append(f"router_delay={request.router_delay}")
        if request.stochastic_synapses:
            features.append("stochastic_synapses")
        if request.link_delay is not None:
            features.append(f"link_delay={request.link_delay}")
        raise UnsupportedRequestError(
            f"backend {caps.name!r} is not cycle-accurate and cannot serve "
            f"{', '.join(features)}; use the 'chip' backend (or backend='auto')"
        )
    if (
        caps.cycle_accurate
        and not caps.multi_chip_copies
        and caps.cores_per_chip is not None
        and request.max_copies * request.model.architecture.cores_per_network
        > caps.cores_per_chip
    ):
        raise UnsupportedRequestError(
            f"request needs {request.max_copies} copies x "
            f"{request.model.architecture.cores_per_network} cores, which "
            f"overflows backend {caps.name!r}'s single "
            f"{caps.cores_per_chip}-core chip; use the 'board' backend "
            "(or backend='auto')"
        )
    if request.stochastic_synapses and not caps.stochastic_synapses:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot re-sample synapses per tick "
            "(stochastic_synapses); use the 'chip' backend (or backend='auto')"
        )
    if len(request.spf_levels) > 1 and not caps.spf_grids:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot derive a multi-spf grid in one "
            f"pass (requested spf_levels={request.spf_levels}); submit one "
            "request per spf level or use a grid-capable backend"
        )


def _result_from_cumulative(
    request: EvalRequest,
    backend_name: str,
    tensors: List[np.ndarray],
    evaluation: Dataset,
    n_k: np.ndarray,
    cores_per_copy: int,
    spike_counters: Optional[np.ndarray] = None,
    spf_axis_levels: Optional[Tuple[int, ...]] = None,
) -> EvalResult:
    """Slice per-repeat cumulative ``(max_c, max_s, batch, classes)`` class
    counts down to the requested grid, divide once into class-mean scores,
    and derive the accuracy tensor.

    Every backend funnels through this one helper, which is what keeps the
    result shape, the score convention (``scores = counts / n_k``, with
    ``n_k`` as int64) and the accuracy convention (argmax of the scores
    against the labels) identical across backends.

    The chip and board backends pass integer counts.  The functional
    engines pass float cumulative class means, whose per-frame sums can
    differ from ``counts / n_k`` in the last bits on multi-layer networks;
    every entry is a small integer over ``n_k``, so ``rint(means * n_k)``
    recovers the counts exactly before the one division.

    ``spf_axis_levels`` names the spf levels the tensors' second axis holds
    when it is not the dense ``1..max_spf`` range (the chip and board
    backends hold exactly the requested levels).

    Raises:
        ResultShapeError: when the copies axis of the cumulative tensors or
            of the spike counters does not cover the requested grid —
            instead of a bare ``IndexError`` (or, worse, silent numpy
            broadcasting) deep inside the slicing below.
    """
    copy_index = np.asarray(request.copy_levels, dtype=int) - 1
    if spf_axis_levels is None:
        spf_index = np.asarray(request.spf_levels, dtype=int) - 1
    else:
        spf_index = np.asarray(
            [spf_axis_levels.index(s) for s in request.spf_levels], dtype=int
        )
    stacked = np.stack(tensors)  # (repeats, max_c, max_s, batch, classes)
    if stacked.ndim != 5 or stacked.shape[1] < request.max_copies:
        raise ResultShapeError(
            f"backend {backend_name!r} produced cumulative tensors of shape "
            f"{stacked.shape}; the request needs a (repeats, >= "
            f"{request.max_copies} copies, spf, batch, classes) tensor"
        )
    if spike_counters is not None:
        batch = len(np.asarray(evaluation.labels))
        if spike_counters.ndim != 4 or spike_counters.shape[:2] != (
            request.repeats,
            request.max_copies,
        ) or spike_counters.shape[3] != batch:
            raise ResultShapeError(
                f"backend {backend_name!r} produced spike counters of shape "
                f"{spike_counters.shape}; expected (repeats="
                f"{request.repeats}, copies={request.max_copies}, "
                f"cores_per_copy, batch={batch})"
            )
    n_k = np.asarray(n_k, dtype=np.int64)
    # Fancy indexing copies, so the in-place steps below never touch a
    # caller's (possibly cached) tensor.
    counts = stacked[:, copy_index][:, :, spf_index]
    if counts.dtype.kind == "f":
        counts *= n_k
        np.rint(counts, out=counts)
    # Integer-valued floats convert to float64 exactly, so this is the
    # same division as on int64 counts.
    scores = counts / n_k
    predictions = scores.argmax(axis=-1)
    labels = np.asarray(evaluation.labels)
    accuracy = (predictions == labels).mean(axis=-1)
    return EvalResult(
        backend=backend_name,
        copy_levels=request.copy_levels,
        spf_levels=request.spf_levels,
        scores=scores,
        accuracy=accuracy,
        labels=labels,
        class_neuron_counts=n_k,
        cores=np.array([c * cores_per_copy for c in request.copy_levels]),
        seed=request.seed,
        repeats=request.repeats,
        spike_counters=spike_counters,
    )


class VectorizedBackend:
    """The fast functional path: ``SweepRunner`` + ``VectorizedEvaluator``.

    Args:
        cache: in-memory score cache shared across requests; ``None`` uses
            the process-global cache.
    """

    name = "vectorized"

    def __init__(self, cache: Optional[ScoreCache] = None) -> None:
        self.cache = cache
        #: engine passes actually computed (cache-served requests excluded).
        self.passes = 0
        #: one long-lived runner per grid config, so its evaluation-view memo
        #: persists across requests instead of being rebuilt per call.
        self._runners: Dict[Tuple, SweepRunner] = {}

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "vectorized multi-copy engine (folded gate, streamed "
                "encoding, score caches)"
            ),
            spf_grids=True,
            cycle_accurate=False,
            cacheable=True,
        )

    def _runner(self, request: EvalRequest) -> SweepRunner:
        key = (request.copy_levels, request.spf_levels, request.repeats)
        runner = self._runners.get(key)
        if runner is None:
            runner = SweepRunner(
                copy_levels=request.copy_levels,
                spf_levels=request.spf_levels,
                repeats=request.repeats,
                cache=self.cache,
            )
            self._runners[key] = runner
        return runner

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        runner = self._runner(request)
        network = build_corelets(request.model)
        cache_hits_before = runner.cache.hits
        tensors = runner.cumulative_scores(
            request.model,
            evaluation,
            rng=request.seed,
            corelet_network=network,
        )
        if runner.cache.hits == cache_hits_before:
            self.passes += 1
        return _result_from_cumulative(
            request,
            self.name,
            list(tensors),
            evaluation,
            class_neuron_counts(network),
            request.model.architecture.cores_per_network,
        )


class ReferenceBackend:
    """The kept per-corelet equivalence loop — slow, uncached ground truth.

    Never served from a cache: its whole point is to recompute from first
    principles so the vectorized backend has something independent to be
    bit-identical against.
    """

    name = "reference"

    def __init__(self) -> None:
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="per-(copy, frame, corelet) reference loop (uncached)",
            spf_grids=True,
            cycle_accurate=False,
            cacheable=False,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        network = build_corelets(request.model)
        tensors: List[np.ndarray] = []
        self.passes += 1
        for repeat_rng in spawn_rngs(new_rng(request.seed), request.repeats):
            deployment = deploy_with_copies(
                request.model,
                copies=request.max_copies,
                rng=repeat_rng,
                corelet_network=network,
            )
            scores = evaluate_scores_reference(
                deployment.copies,
                evaluation.features,
                request.max_spf,
                rng=repeat_rng,
            )
            tensors.append(np.cumsum(np.cumsum(scores, axis=0), axis=1))
        return _result_from_cumulative(
            request,
            self.name,
            tensors,
            evaluation,
            class_neuron_counts(network),
            network.core_count,
        )


def _level_groups(
    spf_levels: Tuple[int, ...], one_pass: bool
) -> List[Tuple[int, ...]]:
    """The spf levels each pass reads: all of them, or one per pass."""
    return [spf_levels] if one_pass else [(spf,) for spf in spf_levels]


def _cumulative_counts(counts: np.ndarray) -> List[np.ndarray]:
    """Per-repeat cumulative class counts from per-level readout counts.

    ``counts`` is ``(levels, repeats, copies, batch, classes)``.  Copy
    levels are nested prefixes, so an exact integer cumsum over the copies
    axis serves every copy level.  Each repeat's tensor comes back as
    ``(copies, levels, batch, classes)``.
    """
    cumulative = np.cumsum(counts, axis=2)
    return [cumulative[:, repeat].swapaxes(0, 1) for repeat in range(counts.shape[1])]


def _deploy_and_encode(
    model: TrueNorthModel,
    features: np.ndarray,
    spf_levels: Tuple[int, ...],
    repeat_rngs: List[np.random.Generator],
    network: CoreletNetwork,
    max_copies: int,
    stochastic: bool,
) -> Tuple[List[DeployedNetwork], np.ndarray, Optional[List[int]]]:
    """The repeat-folded inputs of one cycle-accurate pass.

    Each repeat clones its pristine generator (see
    :func:`repro.utils.rng.clone_rng`), deploys ``max_copies`` copies,
    draws its copies' LFSR seeds (stochastic mode only) and encodes
    ``max(spf_levels)`` frames straight into its block of the volume, in
    that order, so every pass replays identical streams.  Neither the
    deployment nor the seeds depend on the number of frames, and the frames
    of a smaller spf are a prefix of the encoded volume, which is what lets
    one run serve every level (level readout, see
    :mod:`repro.mapping.pipeline`).

    Returns ``(copies, volumes, copy_seeds)``: the ``repeats * max_copies``
    copies repeat-major, the grouped ``(repeats, batch, ticks, inputs)``
    volume (repeat ``r``'s block feeds exactly its copies), and the per-copy
    seeds or ``None``.
    """
    encoder = StochasticEncoder(spikes_per_frame=spf_levels[-1])
    copies: List[DeployedNetwork] = []
    batch, inputs = features.shape
    volumes = np.empty(
        (len(repeat_rngs), batch, spf_levels[-1], inputs), dtype=np.uint8
    )
    copy_seeds: Optional[List[int]] = [] if stochastic else None
    for repeat, rng in enumerate(repeat_rngs):
        repeat_rng = clone_rng(rng)
        copies.extend(
            deploy_with_copies(
                model, copies=max_copies, rng=repeat_rng, corelet_network=network
            ).copies
        )
        if copy_seeds is not None:
            # Drawn before encoding, so the seeds are the same at every spf
            # level, and only in stochastic mode, so deterministic requests
            # keep their exact historical streams.  Sampled *without*
            # replacement — the LFSR seed space is only 16 bits, and two
            # copies sharing a seed would replay byte-identical streams,
            # silently collapsing the copies-averaging statistic the sweep
            # measures.  (Repeats may collide with each other — they always
            # could, being independent draws.)
            copy_seeds.extend(
                int(seed)
                for seed in repeat_rng.choice(
                    np.arange(1, 2**16), size=max_copies, replace=False
                )
            )
        # Spikes go straight into this repeat's (batch, ticks, inputs) block.
        encoder.encode(features, rng=repeat_rng, out=volumes[repeat].swapaxes(0, 1))
    return copies, volumes, copy_seeds


def _pass_result(
    counts: np.ndarray, counters: Optional[np.ndarray], repeats: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Split the folded copy axis of one pass into ``(repeats, copies)``.

    ``counts`` is ``(levels, repeats * copies, batch, classes)`` and
    ``counters`` ``(repeats * copies, cores_per_copy, batch)`` or ``None``.
    """
    counts = counts.reshape(counts.shape[:1] + (repeats, -1) + counts.shape[2:])
    if counters is not None:
        counters = counters.reshape((repeats, -1) + counters.shape[1:])
    return counts, counters


def _grid_result(
    request: EvalRequest,
    backend_name: str,
    results: List[Tuple[np.ndarray, Optional[np.ndarray]]],
    evaluation: Dataset,
    network: CoreletNetwork,
) -> EvalResult:
    """The result of a cycle-accurate grid from its passes, in level order.

    ``spf_levels`` ascends, so the last pass holds the spike counters a
    single-level request at ``max_spf`` reports.
    """
    counts = np.concatenate([level_counts for level_counts, _ in results])
    return _result_from_cumulative(
        request,
        backend_name,
        _cumulative_counts(counts),
        evaluation,
        class_neuron_counts(network),
        network.core_count,
        spike_counters=results[-1][1],
        spf_axis_levels=request.spf_levels,
    )


def _evaluate_chip_level(
    model: TrueNorthModel,
    features: np.ndarray,
    spf_levels: Tuple[int, ...],
    repeat_rngs: List[np.random.Generator],
    network: CoreletNetwork,
    max_copies: int,
    stochastic: bool,
    collect_counters: bool,
    router_delay: Optional[int],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One chip pass: ``spf_levels`` read off one max-spf run, repeats folded.

    The ``repeats * max_copies`` copies of all repeats are programmed side
    by side into **one** chip image and the stacked per-repeat input
    volumes ride the chip's grouped-input form (repeat ``r``'s volume
    feeds exactly its block of ``max_copies`` copy rows); every level is
    read off the one run.

    Returns ``(counts, counters)`` with ``counts`` shaped
    ``(len(spf_levels), repeats, max_copies, batch, classes)`` (integer
    readout counts) and ``counters`` — those of the largest level — shaped
    ``(repeats, max_copies, cores_per_copy, batch)`` or ``None``.
    """
    copies, volumes, copy_seeds = _deploy_and_encode(
        model, features, spf_levels, repeat_rngs, network, max_copies, stochastic
    )
    chip, core_ids = program_chip_multicopy(
        copies,
        neuron_config=stochastic_neuron_config(network) if stochastic else None,
        router_delay=router_delay,
    )
    counts = run_chip_inference_multicopy(
        chip, copies, core_ids, volumes, copy_seeds=copy_seeds, levels=spf_levels
    )
    counters = None
    if collect_counters:
        counters = np.stack(
            [
                chip.core(core_id).multicopy_spike_counts
                for layer in core_ids
                for core_id in layer
            ],
            axis=1,
        )
    return _pass_result(counts, counters, len(repeat_rngs))


class ChipBackend:
    """The cycle-accurate path: batched TrueNorth chip simulation.

    The requested copies of **all repeats** are programmed side by side
    into **one** multi-copy chip image
    (:func:`~repro.mapping.pipeline.program_chip_multicopy`: stacked
    per-core crossbar tensors, shared route table, per-copy LFSR streams)
    and the whole ``repeats x copies x batch`` volume advances in
    lock-step ticks (:func:`~repro.mapping.pipeline.run_chip_inference_multicopy`,
    grouped-input form: repeat ``r``'s encoded volume feeds exactly its
    block of copy rows).

    ``stochastic_synapses`` requests deploy the corelets' Bernoulli
    probabilities onto the crossbars and re-sample every synapse per tick;
    each copy of each repeat draws from its own seeded LFSR stream, so
    (copies, spf, repeats) stochastic sweeps run at batch speed with
    hardware semantics.

    Full grids (``spf_grids`` capability) take **one pass for all spf
    levels**, stochastic synapses included: the pass runs
    ``max(spf_levels)`` input ticks and reads each level off the run
    (level readout, exact because every route on one chip has the same
    latency — see :mod:`repro.mapping.pipeline`).  A stochastic level is
    exact too: the LFSR seeds are drawn before encoding, and the LFSRs
    draw a fixed number of samples per tick whatever the input.  Copy and
    repeat levels fall out of the same pass: copy levels are nested
    prefixes via an exact integer cumsum over the per-copy readout counts,
    repeats are independent rows of the folded image.  Scores are the
    class-mean convention ``counts / n_k`` shared by every backend, so
    they equal the functional backends' scores bit for bit — the
    cross-backend invariant the property tests assert.

    Args:
        cores_per_chip: advertised core budget of the one simulated chip
            (default: a stock TrueNorth chip's 64x64 grid).  Requests whose
            ``max_copies x cores_per_network`` footprint overflows it are
            rejected with a pointer at the ``board`` backend — the budget
            is what makes ``backend='auto'`` route chip-overflowing
            duplication sweeps to the board.
    """

    name = "chip"

    def __init__(self, cores_per_chip: Optional[int] = None) -> None:
        self.cores_per_chip = (
            int(cores_per_chip)
            if cores_per_chip is not None
            else ChipConfig().capacity
        )
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "batched cycle-accurate TrueNorth simulation (repeat-folded "
                "multi-copy chip images, every grid read off one max-spf "
                "pass, spike counters, router delay, stochastic synapses)"
            ),
            spf_grids=True,
            cycle_accurate=True,
            cacheable=False,
            stochastic_synapses=True,
            cores_per_chip=self.cores_per_chip,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        network = build_corelets(request.model)
        self.passes += 1
        result = _evaluate_chip_level(
            request.model,
            evaluation.features,
            request.spf_levels,
            spawn_rngs(new_rng(request.seed), request.repeats),
            network,
            request.max_copies,
            request.stochastic_synapses,
            request.collect_spike_counters,
            request.router_delay,
        )
        return _grid_result(request, self.name, [result], evaluation, network)


def _evaluate_board_pass(
    model: TrueNorthModel,
    features: np.ndarray,
    spf_levels: Tuple[int, ...],
    repeat_rngs: List[np.random.Generator],
    network: CoreletNetwork,
    max_copies: int,
    stochastic: bool,
    collect_counters: bool,
    router_delay: Optional[int],
    board_config: BoardConfig,
    placement: BoardPlacement,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One board pass, all ``spf_levels`` read off one max-spf run.

    The inputs are :func:`_evaluate_chip_level`'s — the same repeat-folded
    deployments, volumes and LFSR seeds — so a 1x1 board with ideal links
    reproduces the chip backend bit for bit.  The ``repeats * max_copies``
    copies fold onto the ``max_copies`` ``placement`` (each chip image
    stacks every repeat's instances of its placed copies), the grouped
    volume feeds every chip, and every level is read off the one run
    (level readout, see :mod:`repro.mapping.pipeline`).

    Returns ``(counts, counters)`` shaped as :func:`_evaluate_chip_level`'s.
    """
    copies, volumes, copy_seeds = _deploy_and_encode(
        model, features, spf_levels, repeat_rngs, network, max_copies, stochastic
    )
    board, program = program_board_multicopy(
        copies,
        board_config,
        neuron_config=stochastic_neuron_config(network) if stochastic else None,
        router_delay=router_delay,
        placement=placement,
    )
    counts = run_board_inference_multicopy(
        board, copies, program, volumes, copy_seeds=copy_seeds, levels=spf_levels
    )
    counters = (
        board_spike_counters(board, copies, program) if collect_counters else None
    )
    return _pass_result(counts, counters, len(repeat_rngs))


class BoardBackend:
    """Cycle-accurate multi-chip board simulation with mesh link delays.

    The board-scale sibling of :class:`ChipBackend`: each requested copy
    level places onto a mesh of TrueNorth chips
    (:func:`~repro.mapping.placement.place_on_board`), so duplication
    sweeps extend past one chip's core budget — whole copies stack onto
    shared chips, copies larger than a chip shard over consecutive chips,
    and every boundary-crossing spike pays ``link_delay`` ticks per mesh
    hop on top of the router delay (:class:`repro.board.board.Board`,
    exact latency model asserted).  Every chip is one multi-copy chip
    image, and repeats fold exactly as on the chip: the ``repeats x
    max_copies`` copies share the ``max_copies`` placement, each chip
    stacking every repeat's instances of its placed copies, and the
    grouped per-repeat volume feeds every chip.

    The spf levels are planned as on the chip.  A request, stochastic
    synapses included, reads **all levels off one pass** when every spike
    path has one latency: ``link_delay == 0``, or no copy is split (whole
    copies never touch a link).  Split copies at ``link_delay > 0`` —
    whose paths differ in hop count, so one run mixes spike waves of
    different input ticks — take **one pass per spf level**, each
    replaying the pristine per-repeat generators
    (:func:`repro.utils.rng.clone_rng`).  On a 1x1 board with ideal links
    each pass is bit-identical to the single-chip engine, which transfers
    the chip backend's equivalence guarantees to the board (the property
    tests pin it).

    Args:
        chip_config: configuration of every chip on the board (default: a
            stock 64x64-core TrueNorth chip).
        board_shape: fixed mesh shape ``(rows, cols)``; by default each
            request gets the smallest square-ish board that fits its
            largest copy level (:func:`repro.board.topology.board_shape_for`).
            A request that does not fit a fixed board is rejected with
            :class:`UnsupportedRequestError` before any pass.
        link_delay: default mesh link delay (ticks per chip hop) when the
            request does not carry one; ``EvalRequest.link_delay``
            overrides it per request.
    """

    name = "board"

    def __init__(
        self,
        chip_config: Optional[ChipConfig] = None,
        board_shape: Optional[Tuple[int, int]] = None,
        link_delay: int = 0,
    ) -> None:
        if link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {link_delay}")
        self.chip_config = chip_config or ChipConfig()
        self.board_shape = board_shape
        self.link_delay = int(link_delay)
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "cycle-accurate multi-chip board mesh (copies spill across "
                "chips, split copies hand off at chip edges, mesh link "
                "delays, repeat-folded chip images, spf levels read off one "
                "pass, spike counters, stochastic synapses)"
            ),
            spf_grids=True,
            cycle_accurate=True,
            cacheable=False,
            stochastic_synapses=True,
            board_mesh=True,
            multi_chip_copies=True,
            cores_per_chip=self.chip_config.capacity,
        )

    def _board_config(
        self, network: CoreletNetwork, request: EvalRequest
    ) -> BoardConfig:
        shape = self.board_shape
        if shape is None:
            shape = board_shape_for(
                network.core_count, request.max_copies, self.chip_config
            )
        return BoardConfig(
            grid_shape=shape,
            chip_config=self.chip_config,
            link_delay=(
                self.link_delay
                if request.link_delay is None
                else int(request.link_delay)
            ),
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        network = build_corelets(request.model)
        board_config = self._board_config(network, request)
        # The placement tells whether a copy is split, and every pass
        # programs it.
        try:
            placement = place_on_board(network, request.max_copies, board_config)
        except RuntimeError as error:
            raise UnsupportedRequestError(
                f"request needs {request.max_copies} copies x "
                f"{network.core_count} cores, which does not fit backend "
                f"{self.name!r}'s {board_config.grid_shape} board of "
                f"{board_config.chip_config.capacity}-core chips ({error}); "
                "use a larger board_shape, or none to size the board per "
                "request"
            ) from error
        self.passes += 1
        repeat_rngs = spawn_rngs(new_rng(request.seed), request.repeats)
        results = [
            _evaluate_board_pass(
                request.model,
                evaluation.features,
                levels,
                repeat_rngs,
                network,
                request.max_copies,
                request.stochastic_synapses,
                request.collect_spike_counters,
                request.router_delay,
                board_config,
                placement,
            )
            for levels in _level_groups(
                request.spf_levels,
                paths_share_one_latency(placement, board_config.link_delay),
            )
        ]
        return _grid_result(request, self.name, results, evaluation, network)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_backend(name: str, factory: Callable[..., object]) -> None:
    """Register an :class:`EvaluationBackend` factory under ``name``.

    Re-registering a name replaces the factory (useful for tests and for
    out-of-tree backends like a future GPU engine).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends (sorted)."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, **config) -> object:
    """Instantiate a registered backend by name.

    Keyword arguments are passed to the backend factory (e.g. ``cache``
    for the vectorized backend).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown evaluation backend {name!r}; registered: {backend_names()}"
        ) from None
    return factory(**config)


register_backend("vectorized", VectorizedBackend)
register_backend("reference", ReferenceBackend)
register_backend("chip", ChipBackend)
register_backend("board", BoardBackend)
