"""Figure 7: accuracy surfaces over the (copies, spf) grid.

Two surfaces are reported — one for the Tea-trained model, one for the
probability-biased model — over spatial duplication levels (network copies)
and temporal duplication levels (spikes per frame).  The paper's shape
claims, which the corresponding benchmark asserts, are that both surfaces
rise and saturate toward the floating-point ceiling as duplication grows and
that the biased surface sits above the Tea surface.

All scoring goes through :class:`repro.api.Session`: the two sweeps are
*submitted* and flushed together so requests sharing a model fingerprint
coalesce onto one engine pass, and the backend is a one-line config —
``backend="vectorized"`` (default), ``"reference"``, or a pre-configured
session whose ``ResultMemo`` persists results under a ``cache_dir``.
Figure 8 (which differences the two surfaces) and repeated invocations
reuse the session's caches instead of re-deploying anything.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import EvalRequest, Session
from repro.experiments.runner import ExperimentContext


def run_figure7(
    context: Optional[ExperimentContext] = None,
    copy_levels: Sequence[int] = (1, 2, 4, 8, 16),
    spf_levels: Sequence[int] = (1, 2, 3, 4),
    session: Optional[Session] = None,
    backend: str = "vectorized",
) -> Dict[str, object]:
    """Regenerate Figure 7 (both accuracy surfaces).

    Args:
        context: shared trained-model context.
        copy_levels / spf_levels: grid to sweep.
        session: optional pre-configured :class:`repro.api.Session` (lets
            callers share its caches across figures); created from
            ``backend`` when omitted.
        backend: evaluation backend to score on when no session is given.

    Returns a dict with the grids, each method's mean-accuracy surface (as
    nested lists), and the float-model ceiling accuracies.
    """
    context = context or ExperimentContext()
    dataset = context.evaluation_dataset()
    session = session or Session(backend=backend)
    pending = {
        method: session.submit(
            EvalRequest(
                model=context.result(method).model,
                dataset=dataset,
                copy_levels=tuple(copy_levels),
                spf_levels=tuple(spf_levels),
                repeats=context.repeats,
                seed=context.seed,
            )
        )
        for method in ("tea", "biased")
    }
    session.flush()
    report: Dict[str, object] = {
        "copy_levels": list(pending["tea"].request.copy_levels),
        "spf_levels": list(pending["tea"].request.spf_levels),
    }
    for method, handle in pending.items():
        result = handle.result()
        sweep = result.sweep(label=method)
        report[method] = {
            "surface": sweep.mean_accuracy.tolist(),
            "std": sweep.std_accuracy.tolist(),
            "cores": sweep.cores.tolist(),
            "float_accuracy": context.result(method).float_accuracy,
        }
        report[f"_sweep_{method}"] = sweep
        report[f"_result_{method}"] = result
    return report
