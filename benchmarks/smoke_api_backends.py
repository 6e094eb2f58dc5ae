"""CI smoke: one small EvalRequest through a registered repro.api backend.

Runs a tiny trained model through the requested backend via
:class:`repro.api.Session` and asserts that backend's cross-backend
equivalence invariant:

* ``vectorized`` — score tensors bit-identical to the ``reference`` loop;
* ``chip`` — scores and integer readout class counts bit-identical to
  ``vectorized`` and to the ``reference`` loop, and a multi-spf grid (one
  max-spf pass, level readout) bit-identical to its single-level requests;
* ``board`` — scores, counts and spike counters bit-identical to the
  ``chip`` backend on the same request (deterministic and
  stochastic-synapse mode), and still identical on chips small enough to
  split every copy across the mesh;
* ``reference`` — deterministic: two evaluations of the same request are
  bit-identical, and accuracy lies in [0, 1].

Exits non-zero when an invariant fails, which is what makes the CI
backend-matrix job a regression gate rather than a timing report.

Usage::

    PYTHONPATH=src python benchmarks/smoke_api_backends.py --backend chip
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from dataclasses import replace

from repro.api import BoardBackend, EvalRequest, Session, backend_names
from repro.experiments.runner import ExperimentContext
from repro.truenorth.config import ChipConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        required=True,
        choices=sorted(backend_names()),
        help="backend to smoke-test",
    )
    parser.add_argument("--copies", type=int, default=2, help="network copies")
    parser.add_argument("--spf", type=int, default=2, help="spikes per frame")
    parser.add_argument("--samples", type=int, default=40, help="evaluated samples")
    parser.add_argument(
        "--train-size", type=int, default=200, help="training samples for the model"
    )
    parser.add_argument("--epochs", type=int, default=2, help="training epochs")
    parser.add_argument(
        "--output", default=None, help="optional path for the JSON record"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    context = ExperimentContext(
        train_size=args.train_size,
        test_size=max(args.samples, 30),
        epochs=args.epochs,
        eval_samples=args.samples,
        repeats=1,
        seed=0,
    )
    request = EvalRequest(
        model=context.result("tea").model,
        dataset=context.evaluation_dataset(),
        copy_levels=(1, args.copies),
        spf_levels=(args.spf,),
        repeats=2,
        seed=0,
    )
    session = Session()
    start = time.perf_counter()
    result = session.evaluate(request, backend=args.backend)
    seconds = time.perf_counter() - start

    failures = []
    if args.backend == "vectorized":
        reference = session.evaluate(request, backend="reference")
        if not np.array_equal(result.scores, reference.scores):
            failures.append("vectorized scores diverged from the reference loop")
        invariant = "scores bit-identical to reference"
    elif args.backend == "chip":
        for oracle in ("vectorized", "reference"):
            expected = session.evaluate(request, backend=oracle)
            if not np.array_equal(result.class_counts(), expected.class_counts()):
                failures.append(f"chip class counts diverged from the {oracle} backend")
            if not np.array_equal(result.scores, expected.scores):
                failures.append(f"chip scores diverged from the {oracle} backend")
        # Grid path: a multi-spf request (one max-spf pass, level readout) must
        # match the stack of single-level requests cell for cell.
        grid_request = replace(request, spf_levels=tuple(sorted({1, args.spf})))
        grid = session.evaluate(grid_request, backend="chip")
        for column, spf in enumerate(grid_request.spf_levels):
            single = session.evaluate(
                replace(request, spf_levels=(spf,)), backend="chip"
            )
            if not np.array_equal(
                grid.class_counts()[:, :, column], single.class_counts()[:, :, 0]
            ):
                failures.append(
                    f"chip grid class counts at spf={spf} diverged from the "
                    f"single-level request"
                )
        invariant = (
            "scores and class counts bit-identical to vectorized and "
            "reference; spf grid bit-identical to single-level requests"
        )
    elif args.backend == "board":
        counters = replace(request, collect_spike_counters=True)
        for variant in (counters, replace(counters, stochastic_synapses=True)):
            label = "stochastic" if variant.stochastic_synapses else "deterministic"
            chip = session.evaluate(variant, backend="chip")
            board = session.evaluate(variant, backend="board")
            if not np.array_equal(board.class_counts(), chip.class_counts()):
                failures.append(
                    f"board class counts diverged from the chip backend ({label})"
                )
            if not np.array_equal(board.scores, chip.scores):
                failures.append(
                    f"board scores diverged from the chip backend ({label})"
                )
            if not np.array_equal(board.spike_counters, chip.spike_counters):
                failures.append(
                    f"board spike counters diverged from the chip backend ({label})"
                )
        # Split path: chips too small for one copy force every copy across
        # chip boundaries; link handoff must not change a single count.
        cores = request.model.architecture.cores_per_network
        small_chip = ChipConfig(grid_shape=(1, max(1, (cores + 1) // 2)))
        split = BoardBackend(chip_config=small_chip, link_delay=1).evaluate(counters)
        chip_ref = session.evaluate(counters, backend="chip")
        if not np.array_equal(split.class_counts(), chip_ref.class_counts()):
            failures.append(
                "split-copy board class counts diverged from the chip backend"
            )
        if not np.array_equal(split.scores, chip_ref.scores):
            failures.append("split-copy board scores diverged from the chip backend")
        if not np.array_equal(split.spike_counters, chip_ref.spike_counters):
            failures.append(
                "split-copy board spike counters diverged from the chip backend"
            )
        invariant = (
            "scores, counts and spike counters bit-identical to the chip "
            "backend (incl. stochastic synapses and split copies under link "
            "delay)"
        )
    else:
        again = session.evaluate(request, backend="reference")
        if not np.array_equal(result.scores, again.scores):
            failures.append("reference backend is not deterministic")
        invariant = "deterministic re-evaluation"
    accuracy = result.mean_accuracy
    if not (np.all(accuracy >= 0.0) and np.all(accuracy <= 1.0)):
        failures.append(f"accuracy grid out of [0, 1]: {accuracy.tolist()}")

    record = {
        "benchmark": "api-backend-smoke",
        "backend": args.backend,
        "invariant": invariant,
        "config": {
            "copy_levels": list(request.copy_levels),
            "spf_levels": list(request.spf_levels),
            "repeats": request.repeats,
            "samples": int(result.labels.shape[0]),
        },
        "seconds": seconds,
        "mean_accuracy": accuracy.tolist(),
        "ok": not failures,
        "failures": failures,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    print(json.dumps(record, indent=2))
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
