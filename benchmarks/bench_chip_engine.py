"""Benchmark: batched chip-simulation engine vs the per-sample tick loop.

Times the paper's "ground truth" path — cycle-accurate TrueNorth chip
simulation of a deployed test-bench network — on the batched engine
(:func:`repro.mapping.pipeline.run_chip_inference_multicopy` run as one
copy, one crossbar matmul per core per tick for the whole batch) against
the original
per-sample loop (:func:`repro.mapping.pipeline.run_chip_inference`, one
chip pass per sample), verifies the two per-sample class-count tensors and
the per-core spike counters are bit-identical, and records the result to a
JSON file for CI tracking.  Both paths run ``--batch-repeats`` times: the
gated ``speedup`` is the median loop time over the best batched time.

A second section times the **multi-copy** engine: ``--copies C`` sampled
copies programmed side by side into one chip image and advanced as one
``C * samples`` lock-step batch
(:func:`repro.mapping.pipeline.run_chip_inference_multicopy`) against the
one-chip-per-copy loop (C ``program_chip`` chips, each run as one copy by
the same multi-copy driver), again enforcing bit-identical per-copy class
counts and per-core spike counters.  Both records land in the same JSON file.

A third section (``--grid``) times a full ``(copies, spf, repeats)``
**grid sweep**: the single-pass path (all repeats' copies in one chip
image, one max-spf pass with every spf level read off the run, every copy
level an exact cumsum prefix — what :class:`repro.api.backends.ChipBackend`
does for every grid) against the per-cell loop (one ``c``-copy program +
pass per (copy level, spf, repeat) grid cell), enforcing bit-identical
class counts and spike counters and recording ``grid_speedup``.  It runs
twice: with deterministic synapses (``grid``) and with stochastic
synapses re-sampled per tick from fixed per-copy LFSR seeds
(``grid_stochastic``).

A fourth section (``--board``) times the **multi-chip board** engine at a
fixed copy count while the board grows: the same copies packed onto one
chip, spread one per chip over a mesh, and split two-chips-per-copy with
inter-chip link handoff (:func:`repro.mapping.pipeline.
run_board_inference_multicopy`), each verified bit-identical to the
single-chip multi-copy pass — the per-chip-count scaling record behind
the ``board`` backend.  The split point runs on ideal links
(``link_delay=0``): there every spike path shares one latency, so the
identity is exact on multi-layer test benches too, while at
``link_delay > 0`` split paths of unequal hop counts change the counts
by design.

Usage::

    PYTHONPATH=src python benchmarks/bench_chip_engine.py --quick --grid --board
    PYTHONPATH=src python benchmarks/bench_chip_engine.py \
        --samples 500 --spf 4 --copies 5 --output BENCH_chip.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.encoding.stochastic import StochasticEncoder
from repro.experiments.runner import ExperimentContext
from repro.mapping.deploy import deploy_model
from repro.mapping.duplication import deploy_with_copies
from repro.mapping.pipeline import (
    program_chip,
    program_chip_multicopy,
    run_chip_inference,
    run_chip_inference_multicopy,
)

#: BLAS thread settings recorded in the record's config: speedup ratios are
#: comparable only at the same setting (CI pins all three to 1).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--testbench", type=int, default=1, help="Table 3 test bench")
    parser.add_argument("--samples", type=int, default=500, help="evaluated samples")
    parser.add_argument(
        "--spf", type=int, default=4, help="spikes per frame (input ticks per sample)"
    )
    parser.add_argument(
        "--train-size", type=int, default=600, help="training samples for the model"
    )
    parser.add_argument("--epochs", type=int, default=3, help="training epochs")
    parser.add_argument(
        "--batch-repeats",
        type=int,
        default=3,
        help="timing repeats of the batched path (best is reported) and "
        "of the per-sample loop (median is reported)",
    )
    parser.add_argument(
        "--copies",
        type=int,
        default=10,
        help="sampled copies for the multi-copy engine section (0 disables)",
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help="also benchmark the one-pass grid sweep vs the cell loop",
    )
    parser.add_argument(
        "--grid-repeats",
        type=int,
        default=8,
        help="repeats axis of the --grid sweep (the folded pass stacks all "
        "repeats' copies into one chip image)",
    )
    parser.add_argument(
        "--grid-copies",
        type=int,
        default=16,
        help="copies axis of the --grid sweep: copy levels 1..C, all served "
        "as cumsum prefixes of the one folded pass",
    )
    parser.add_argument(
        "--board",
        action="store_true",
        help="also benchmark the multi-chip board engine per chip count "
        "at fixed copies",
    )
    parser.add_argument(
        "--board-copies",
        type=int,
        default=4,
        help="fixed copies of the --board section (the board grows, the "
        "workload does not)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke settings: fewer samples so CI finishes in seconds",
    )
    parser.add_argument(
        "--output", default="BENCH_chip.json", help="where to write the JSON record"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    if args.quick:
        args.samples = min(args.samples, 60)
        args.train_size = min(args.train_size, 300)

    context = ExperimentContext(
        testbench=args.testbench,
        train_size=args.train_size,
        test_size=max(args.samples, 50),
        epochs=args.epochs,
        eval_samples=args.samples,
        repeats=1,
        seed=0,
    )
    model = context.result("tea").model
    dataset = context.evaluation_dataset()
    deployed = deploy_model(model, rng=0)
    chip, core_ids = program_chip(deployed)
    core_order = [core_id for layer in core_ids for core_id in layer]

    encoder = StochasticEncoder(spikes_per_frame=args.spf)
    volumes = encoder.encode(dataset.features, rng=0).transpose(1, 0, 2)
    volumes = np.ascontiguousarray(volumes)  # (samples, ticks, input_dim)
    samples = volumes.shape[0]

    # The loop is short in --quick mode (about 0.1 s), so one timing of it
    # can swing the gated speedup by half; the median of several damps that.
    loop_times = []
    for _ in range(args.batch_repeats):
        start = time.perf_counter()
        loop_counts = np.zeros(
            (samples, deployed.corelet_network.num_classes), np.int64
        )
        loop_spikes = np.zeros((samples, len(core_order)), dtype=np.int64)
        for index in range(samples):
            loop_counts[index] = run_chip_inference(
                chip, deployed, core_ids, volumes[index]
            )
            loop_spikes[index] = [chip.core(c).spike_count for c in core_order]
        loop_times.append(time.perf_counter() - start)
    loop_seconds = float(np.median(loop_times))

    batch_times = []
    for _ in range(args.batch_repeats):
        start = time.perf_counter()
        batch_counts = run_chip_inference_multicopy(
            chip, [deployed], core_ids, volumes
        )[0]
        batch_times.append(time.perf_counter() - start)
    batch_seconds = min(batch_times)
    batch_spikes = np.stack(
        [chip.core(c).batch_spike_counts for c in core_order], axis=1
    )

    multicopy_record = None
    if args.copies > 0:
        multicopy_record = bench_multicopy(
            model, volumes, copies=args.copies, repeats=args.batch_repeats
        )

    board_record = None
    if args.board:
        board_record = bench_board(
            model, volumes, copies=args.board_copies, repeats=args.batch_repeats
        )

    grid_records = {"grid": None, "grid_stochastic": None}
    if args.grid:
        for key, stochastic in (("grid", False), ("grid_stochastic", True)):
            grid_records[key] = bench_grid(
                model,
                dataset,
                spf_levels=tuple(sorted({1, 2, args.spf})),
                copies=args.grid_copies,
                repeats=args.grid_repeats,
                best_of=args.batch_repeats,
                stochastic=stochastic,
            )

    counts_identical = bool(np.array_equal(loop_counts, batch_counts))
    spikes_identical = bool(np.array_equal(loop_spikes, batch_spikes))
    record = {
        "benchmark": "chip-engine",
        "config": {
            "testbench": args.testbench,
            "samples": int(samples),
            "spikes_per_frame": args.spf,
            "ticks_per_sample": int(volumes.shape[1]),
            "input_dim": int(volumes.shape[2]),
            "cores": len(core_order),
            "layers": len(core_ids),
            "router_delay": chip.router.delay,
            "quick": bool(args.quick),
            "batch_repeats": args.batch_repeats,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds if batch_seconds else float("inf"),
        "class_counts_bit_identical": counts_identical,
        "spike_counters_bit_identical": spikes_identical,
        "multicopy": multicopy_record,
        **grid_records,
        "board": board_record,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    if not counts_identical:
        raise SystemExit("batched class counts diverged from the per-sample loop")
    if not spikes_identical:
        raise SystemExit("batched spike counters diverged from the per-sample loop")
    if record["speedup"] < 1.0:
        raise SystemExit("batched engine slower than the per-sample loop")
    if multicopy_record is not None:
        if not multicopy_record["class_counts_bit_identical"]:
            raise SystemExit(
                "multi-copy class counts diverged from the per-copy loop"
            )
        if not multicopy_record["spike_counters_bit_identical"]:
            raise SystemExit(
                "multi-copy spike counters diverged from the per-copy loop"
            )
        if multicopy_record["speedup"] < 1.0:
            raise SystemExit("multi-copy engine slower than the per-copy loop")
    for key, grid_record in grid_records.items():
        if grid_record is None:
            continue
        if not grid_record["class_counts_bit_identical"]:
            raise SystemExit(f"{key} class counts diverged from the cell loop")
        if not grid_record["spike_counters_bit_identical"]:
            raise SystemExit(f"{key} spike counters diverged from the cell loop")
        if grid_record["grid_speedup"] < 1.0:
            raise SystemExit(f"single-pass {key} slower than the cell loop")
    if board_record is not None:
        for point in board_record["points"]:
            if not point["class_counts_bit_identical"]:
                raise SystemExit(
                    f"board counts at {point['chips']} chips diverged from "
                    "the single-chip multi-copy pass"
                )


def bench_multicopy(model, volumes: np.ndarray, copies: int, repeats: int) -> dict:
    """Time one multi-copy chip pass against the one-chip-per-copy loop.

    Both sides include chip programming (that is the end-to-end cost a
    (copies, spf) sweep pays per grid point) and both report per-copy class
    counts and per-core spike counters, compared bit for bit.
    """
    deployment = deploy_with_copies(model, copies=copies, rng=0)

    def percopy_pass():
        counts, spikes = [], []
        for copy in deployment.copies:
            chip, core_ids = program_chip(copy)
            counts.append(
                run_chip_inference_multicopy(chip, [copy], core_ids, volumes)[0]
            )
            order = [cid for layer in core_ids for cid in layer]
            spikes.append(
                np.stack([chip.core(k).batch_spike_counts for k in order])
            )
        return np.stack(counts), np.stack(spikes)

    def multicopy_pass():
        chip, core_ids = program_chip_multicopy(deployment.copies)
        counts = run_chip_inference_multicopy(
            chip, deployment.copies, core_ids, volumes
        )
        order = [cid for layer in core_ids for cid in layer]
        spikes = np.stack(
            [chip.core(k).multicopy_spike_counts for k in order], axis=1
        )
        return counts, spikes

    def best_of(pass_fn):
        result, times = None, []
        for _ in range(repeats):
            start = time.perf_counter()
            result = pass_fn()
            times.append(time.perf_counter() - start)
        return result, min(times)

    (loop_counts, loop_spikes), percopy_seconds = best_of(percopy_pass)
    (multi_counts, multi_spikes), multicopy_seconds = best_of(multicopy_pass)

    return {
        "copies": int(copies),
        "percopy_seconds": percopy_seconds,
        "multicopy_seconds": multicopy_seconds,
        "speedup": (
            percopy_seconds / multicopy_seconds
            if multicopy_seconds
            else float("inf")
        ),
        "class_counts_bit_identical": bool(
            np.array_equal(loop_counts, multi_counts)
        ),
        "spike_counters_bit_identical": bool(
            np.array_equal(loop_spikes, multi_spikes)
        ),
    }


def bench_board(model, volumes: np.ndarray, copies: int, repeats: int) -> dict:
    """Time the board engine per chip count at a fixed copy workload.

    The workload (``copies`` sampled copies, the full encoded volume) stays
    fixed while the board grows: all copies packed onto one chip (the 1x1
    identity configuration), one copy per chip across a mesh, and every
    copy split over two chips with link handoff at the layer boundary, on
    ideal links so that every path keeps the single chip's latency.
    Every configuration's per-copy class counts are compared bit for bit
    against the single-chip multi-copy pass, so the record tracks pure
    board-engine overhead, not drift.
    """
    from repro.board import BoardConfig, board_shape_for
    from repro.mapping.pipeline import (
        program_board_multicopy,
        run_board_inference_multicopy,
    )
    from repro.truenorth.config import ChipConfig

    deployment = deploy_with_copies(model, copies=copies, rng=0)
    cores = deployment.corelet_network.core_count

    chip, core_ids = program_chip_multicopy(deployment.copies)
    start = time.perf_counter()
    reference = run_chip_inference_multicopy(
        chip, deployment.copies, core_ids, volumes
    )
    single_chip_seconds = time.perf_counter() - start

    rows = int(np.ceil(np.sqrt(cores))) or 1
    cols = max(int(np.ceil(cores / rows)), 1)
    packed = ChipConfig(grid_shape=(int(np.ceil(copies * cores / cols)), cols))
    configurations = [
        ("packed", BoardConfig(grid_shape=(1, 1), chip_config=packed)),
        (
            "copy-per-chip",
            BoardConfig(
                grid_shape=board_shape_for(
                    cores, copies, ChipConfig(grid_shape=(1, cores))
                ),
                chip_config=ChipConfig(grid_shape=(1, cores)),
            ),
        ),
        (
            "split",
            BoardConfig(
                grid_shape=board_shape_for(
                    cores, copies, ChipConfig(grid_shape=(1, (cores + 1) // 2))
                ),
                chip_config=ChipConfig(grid_shape=(1, (cores + 1) // 2)),
                link_delay=0,
            ),
        ),
    ]

    points = []
    for label, config in configurations:
        board, program = program_board_multicopy(deployment.copies, config)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            counts = run_board_inference_multicopy(
                board, deployment.copies, program, volumes
            )
            times.append(time.perf_counter() - start)
        stats = program.placement.mesh_statistics()
        points.append(
            {
                "placement": label,
                "board_shape": list(config.grid_shape),
                "chips": program.placement.occupied_chips(),
                "chip_capacity": config.chip_config.capacity,
                "link_delay": config.link_delay,
                "split_copies": stats["split_copies"],
                "link_spikes": int(board.fabric.spikes_carried),
                "seconds": min(times),
                "class_counts_bit_identical": bool(
                    np.array_equal(reference, counts)
                ),
            }
        )

    return {
        "copies": int(copies),
        "cores_per_copy": int(cores),
        "single_chip_seconds": single_chip_seconds,
        "points": points,
    }


def bench_grid(
    model,
    dataset,
    spf_levels: tuple,
    copies: int,
    repeats: int,
    best_of: int,
    stochastic: bool,
) -> dict:
    """Time a (copies, spf, repeats) sweep: single-pass grid vs cell loop.

    The cell loop evaluates every cell of the grid independently — one
    ``program_chip_multicopy`` + inference pass per (copy level, spf level,
    repeat) cell, ``c`` copies programmed for copy level ``c``, each spf
    level encoded on its own — which is what a sweep costs without the
    cumsum prefix reuse, repeat folding and level readout.  The grid side
    programs all repeats' copies side by side once and reads the whole
    grid off one max-spf pass, exactly as
    :class:`repro.api.backends.ChipBackend` does.  Both sides start from
    the same prepared deployments and encoded volumes, drawn from the
    canonical ``spawn_rngs`` randomness layout (the lower levels' volumes
    are prefixes of the max level's), so the timings isolate the chip
    engine.  Since every cell runs standalone, the cell loop is an
    independent oracle for the level readout: class counts of every grid
    cell and per-copy spike counters at the max spf level are compared bit
    for bit.  With ``stochastic`` every synapse is re-sampled per tick,
    and copy ``c`` of repeat ``r`` draws from the same fixed LFSR seed in
    every cell that holds it and in the grid pass.
    """
    from repro.mapping.corelet import build_corelets
    from repro.mapping.pipeline import stochastic_neuron_config
    from repro.utils.rng import new_rng, spawn_rngs

    network = build_corelets(model)
    neuron_config = stochastic_neuron_config(network) if stochastic else None
    seeds = None  # (repeats, copies) distinct LFSR seeds, as the backend draws
    if stochastic:
        seeds = new_rng(1).choice(
            np.arange(1, 2**16), size=(repeats, copies), replace=False
        )
    prepared = []  # per level: [(deployment, (batch, ticks, input)), ...]
    for spf in spf_levels:
        encoder = StochasticEncoder(spikes_per_frame=spf)
        level = []
        for repeat_rng in spawn_rngs(new_rng(0), repeats):
            deployment = deploy_with_copies(
                model, copies=copies, rng=repeat_rng, corelet_network=network
            )
            frames = encoder.encode(dataset.features, rng=repeat_rng)
            level.append(
                (deployment, np.ascontiguousarray(frames.transpose(1, 0, 2)))
            )
        prepared.append(level)

    def cell_pass():
        counts, counters = [], None
        for level in prepared:
            level_cells = []
            for r, (deployment, volumes) in enumerate(level):
                cells = []
                for c in range(1, copies + 1):
                    prefix = deployment.copies[:c]
                    chip, core_ids = program_chip_multicopy(
                        prefix, neuron_config=neuron_config
                    )
                    cell = run_chip_inference_multicopy(
                        chip,
                        prefix,
                        core_ids,
                        volumes,
                        copy_seeds=None if seeds is None else seeds[r, :c].tolist(),
                    )
                    cells.append(cell.sum(axis=0))
                    if c == copies:
                        order = [k for layer in core_ids for k in layer]
                        percopy = np.stack(
                            [chip.core(k).multicopy_spike_counts for k in order],
                            axis=1,
                        )
                level_cells.append((np.stack(cells), percopy))
            counts.append(np.stack([cells for cells, _ in level_cells]))
            counters = np.stack([percopy for _, percopy in level_cells])
        # stack levels onto axis 2: (R, C, levels, batch, classes)
        return np.stack(counts, axis=2), counters

    def grid_pass():
        level = prepared[-1]  # max spf: every lower level is a prefix
        flat = [copy for deployment, _ in level for copy in deployment.copies]
        volumes = np.stack([vol for _, vol in level])
        chip, core_ids = program_chip_multicopy(flat, neuron_config=neuron_config)
        raw = run_chip_inference_multicopy(
            chip,
            flat,
            core_ids,
            volumes,
            copy_seeds=None if seeds is None else seeds.ravel().tolist(),
            levels=spf_levels,
        )
        raw = raw.reshape((len(spf_levels), repeats, copies) + raw.shape[2:])
        # (levels, R, C, batch, classes) -> (R, C, levels, batch, classes)
        counts = np.cumsum(raw, axis=2).transpose(1, 2, 0, 3, 4)
        order = [k for layer in core_ids for k in layer]
        stacked = np.stack(
            [chip.core(k).multicopy_spike_counts for k in order], axis=1
        )
        return counts, stacked.reshape((repeats, copies) + stacked.shape[1:])

    def best(pass_fn):
        result, times = None, []
        for _ in range(best_of):
            start = time.perf_counter()
            result = pass_fn()
            times.append(time.perf_counter() - start)
        return result, min(times)

    (cell_grid, cell_counters), cell_seconds = best(cell_pass)
    (grid_counts, grid_counters), grid_seconds = best(grid_pass)

    return {
        "copies": int(copies),
        "spf_levels": [int(s) for s in spf_levels],
        "repeats": int(repeats),
        "stochastic": bool(stochastic),
        "cell_loop_seconds": cell_seconds,
        "grid_seconds": grid_seconds,
        "grid_speedup": (
            cell_seconds / grid_seconds if grid_seconds else float("inf")
        ),
        "class_counts_bit_identical": bool(
            np.array_equal(grid_counts, cell_grid)
        ),
        "spike_counters_bit_identical": bool(
            np.array_equal(grid_counters, cell_counters)
        ),
    }


if __name__ == "__main__":
    main()
