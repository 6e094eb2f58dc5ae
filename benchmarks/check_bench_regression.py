"""CI gate: compare fresh benchmark records against committed baselines.

Benchmarks (``bench_eval_engine.py``, ``bench_chip_engine.py``) emit JSON
records carrying two kinds of gateable facts:

* ``*bit_identical`` booleans — the engine's exactness promises.  A fresh
  record must still say ``true`` everywhere the baseline does; a lost
  bit-identity is always a failure.
* ``speedup`` ratios — engine time relative to the per-sample loop *on
  the same machine*, so they are hardware-normalized to first order and
  comparable across runners where absolute seconds are not.  A fresh
  speedup below ``baseline / --max-regression`` (default 2x) fails.

Baselines live in ``benchmarks/baselines/`` and are generated with the
exact flags and BLAS thread settings the CI bench job uses (``--quick``
mode, one BLAS thread: on a 2-core runner default OpenBLAS threading
drops the eval speedup below half its one-thread value).  To refresh
them after an intentional perf change::

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
    PYTHONPATH=src python benchmarks/bench_eval_engine.py --quick \
        --output BENCH_eval.json
    PYTHONPATH=src python benchmarks/bench_chip_engine.py --quick \
        --grid --board --output BENCH_chip.json
    PYTHONPATH=src python benchmarks/bench_chip_engine.py --quick \
        --testbench 5 --board --output BENCH_chip_tb5.json
    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --pair BENCH_eval.json benchmarks/baselines/BENCH_eval.json \
        --pair BENCH_chip.json benchmarks/baselines/BENCH_chip.json \
        --pair BENCH_chip_tb5.json benchmarks/baselines/BENCH_chip_tb5.json \
        --update

and commit the rewritten baselines with a line in the PR body saying why
the ratio moved.  Without ``--update`` the script only checks: exit 0
when every pair passes, exit 1 with one line per violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
from typing import Dict, List, Tuple


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("FRESH", "BASELINE"),
        required=True,
        help="fresh record + committed baseline to compare (repeatable)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a fresh speedup drops below baseline/THIS",
    )
    parser.add_argument(
        "--output", default=None, help="optional path for the JSON report"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy each fresh record over its baseline instead of checking",
    )
    return parser.parse_args()


def is_speedup_key(key: str) -> bool:
    return key == "speedup" or key.endswith("_speedup")


def is_identity_key(key: str) -> bool:
    return key.endswith("bit_identical")


def compare_nodes(
    path: str,
    baseline: object,
    fresh: object,
    max_regression: float,
    problems: List[str],
    ratios: List[Dict[str, object]],
) -> None:
    """Walk the baseline record, gating every identity/speedup fact the
    fresh record must still carry.  Extra fresh-only keys are ignored —
    new facts gate only once they land in the committed baseline."""
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            problems.append(f"{path}: fresh record lost this section")
            return
        for key, base_value in baseline.items():
            child = f"{path}.{key}" if path else key
            if is_identity_key(key):
                if fresh.get(key) is not True:
                    problems.append(
                        f"{child}: bit-identity lost "
                        f"(baseline {base_value}, fresh {fresh.get(key)!r})"
                    )
            elif is_speedup_key(key) and isinstance(base_value, (int, float)):
                fresh_value = fresh.get(key)
                if not isinstance(fresh_value, (int, float)):
                    problems.append(f"{child}: speedup missing from fresh record")
                    continue
                ratios.append(
                    {"path": child, "baseline": base_value, "fresh": fresh_value}
                )
                if fresh_value * max_regression < base_value:
                    problems.append(
                        f"{child}: speedup regressed more than "
                        f"{max_regression}x (baseline {base_value:.2f}, "
                        f"fresh {fresh_value:.2f})"
                    )
            elif isinstance(base_value, (dict, list)):
                compare_nodes(
                    child,
                    base_value,
                    fresh.get(key),
                    max_regression,
                    problems,
                    ratios,
                )
    elif isinstance(baseline, list):
        if not isinstance(fresh, list) or len(fresh) < len(baseline):
            problems.append(f"{path}: fresh record dropped list entries")
            return
        for index, base_item in enumerate(baseline):
            compare_nodes(
                f"{path}[{index}]",
                base_item,
                fresh[index],
                max_regression,
                problems,
                ratios,
            )


def check_pair(
    fresh_path: str, baseline_path: str, max_regression: float
) -> Tuple[List[str], List[Dict[str, object]]]:
    problems: List[str] = []
    ratios: List[Dict[str, object]] = []
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{baseline_path}: unreadable baseline ({error})"], ratios
    try:
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{fresh_path}: unreadable fresh record ({error})"], ratios

    # Ratio comparisons only mean something when the workloads match.  As
    # everywhere in compare_nodes, a fresh key the baseline predates (e.g.
    # config.blas_threads) gates only once it lands in the baseline.
    base_config = baseline.get("config") if isinstance(baseline, dict) else None
    fresh_config = fresh.get("config") if isinstance(fresh, dict) else None
    if isinstance(base_config, dict) and isinstance(fresh_config, dict):
        fresh_config = {
            key: value for key, value in fresh_config.items() if key in base_config
        }
    if base_config != fresh_config:
        problems.append(
            f"{fresh_path}: benchmark config differs from baseline "
            f"({fresh_config!r} vs {base_config!r}) — regenerate the "
            "baseline with the CI flags"
        )
        return problems, ratios
    compare_nodes("", baseline, fresh, max_regression, problems, ratios)
    return problems, ratios


def main() -> None:
    args = parse_args()
    if args.update:
        for fresh_path, baseline_path in args.pair:
            shutil.copyfile(fresh_path, baseline_path)
            print(f"updated {baseline_path} from {fresh_path}")
        return

    report: Dict[str, object] = {"max_regression": args.max_regression}
    failures: List[str] = []
    pairs: List[Dict[str, object]] = []
    for fresh_path, baseline_path in args.pair:
        problems, ratios = check_pair(fresh_path, baseline_path, args.max_regression)
        failures.extend(problems)
        pairs.append(
            {
                "fresh": fresh_path,
                "baseline": baseline_path,
                "speedups": ratios,
                "problems": problems,
            }
        )
    report["pairs"] = pairs
    report["ok"] = not failures
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    print(json.dumps(report, indent=2))
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
