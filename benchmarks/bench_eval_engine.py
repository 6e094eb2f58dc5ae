"""Benchmark: vectorized evaluation engine vs the per-(copy, frame) loop.

Times the Figure 7-9 hot path — class scores of N deployed copies over a
(spf x batch) spike volume — on the vectorized engine
(:class:`repro.eval.engine.VectorizedEvaluator`) against the original
nested-loop reference (:func:`repro.eval.engine.evaluate_scores_reference`),
verifies the two score tensors are bit-identical (atol=0), and records the
result to a JSON file for CI tracking.

Usage::

    PYTHONPATH=src python benchmarks/bench_eval_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_eval_engine.py \
        --copies 16 --spf 4 --samples 500 --output BENCH_eval.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.eval.engine import VectorizedEvaluator, evaluate_scores_reference
from repro.experiments.runner import ExperimentContext
from repro.mapping.corelet import build_corelets
from repro.mapping.duplication import deploy_with_copies

#: BLAS thread settings recorded in the record's config: speedup ratios are
#: comparable only at the same setting (CI pins all three to 1).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, default=16, help="network copies")
    parser.add_argument("--spf", type=int, default=4, help="spikes per frame")
    parser.add_argument("--samples", type=int, default=500, help="evaluated samples")
    parser.add_argument(
        "--train-size", type=int, default=600, help="training samples for the model"
    )
    parser.add_argument("--epochs", type=int, default=3, help="training epochs")
    parser.add_argument(
        "--loop-repeats", type=int, default=1, help="timing repeats of the loop path"
    )
    parser.add_argument(
        "--engine-repeats",
        type=int,
        default=3,
        help="timing repeats of the engine path (best is reported)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke settings: fewer copies/samples so CI finishes in seconds",
    )
    parser.add_argument(
        "--output", default="BENCH_eval.json", help="where to write the JSON record"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    if args.quick:
        args.copies = min(args.copies, 8)
        args.samples = min(args.samples, 150)
        args.train_size = min(args.train_size, 300)

    context = ExperimentContext(
        train_size=args.train_size,
        test_size=max(args.samples, 50),
        epochs=args.epochs,
        eval_samples=args.samples,
        repeats=1,
        seed=0,
    )
    model = context.result("tea").model
    dataset = context.evaluation_dataset()
    network = build_corelets(model)
    deployment = deploy_with_copies(
        model, copies=args.copies, rng=0, corelet_network=network
    )

    loop_times = []
    for _ in range(args.loop_repeats):
        start = time.perf_counter()
        reference = evaluate_scores_reference(
            deployment.copies, dataset.features, args.spf, rng=0
        )
        loop_times.append(time.perf_counter() - start)

    evaluator = VectorizedEvaluator(deployment.copies)
    engine_times = []
    for _ in range(args.engine_repeats):
        start = time.perf_counter()
        fast = evaluator.evaluate_scores(dataset.features, args.spf, rng=0)
        engine_times.append(time.perf_counter() - start)

    identical = bool(np.array_equal(fast, reference))
    loop_seconds = min(loop_times)
    engine_seconds = min(engine_times)
    record = {
        "benchmark": "eval-engine",
        "config": {
            "copies": args.copies,
            "spikes_per_frame": args.spf,
            "samples": int(dataset.features.shape[0]),
            "features": int(dataset.features.shape[1]),
            "cores_per_copy": network.core_count,
            "quick": bool(args.quick),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "loop_seconds": loop_seconds,
        "engine_seconds": engine_seconds,
        "speedup": loop_seconds / engine_seconds if engine_seconds else float("inf"),
        "scores_bit_identical": identical,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    if not identical:
        raise SystemExit("engine scores diverged from the loop reference")
    if record["speedup"] < 1.0:
        raise SystemExit("engine slower than the loop reference")


if __name__ == "__main__":
    main()
