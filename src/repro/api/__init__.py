"""repro.api — unified evaluation-backend protocol and serving facade.

One stable API in front of the repo's evaluation engines:

* :class:`EvalRequest` / :class:`EvalResult` — normalized request and
  result shapes (grids, seeds, encoder choice, score/accuracy tensors)
  shared by every backend.
* :class:`EvaluationBackend` + the registry (:func:`register_backend`,
  :func:`create_backend`, :func:`backend_names`) — pluggable engines:
  ``vectorized`` (SweepRunner / VectorizedEvaluator), ``chip`` (batched
  cycle-accurate TrueNorth simulation), ``board`` (multi-chip board mesh
  with link delays for duplication levels past one chip's core budget),
  ``reference`` (the per-corelet ground-truth loop).
* :class:`Session` — the serving facade: backend selection (explicit or
  capability-based ``auto``), the score cache, and request batching that
  coalesces queued requests onto shared engine passes.
* :class:`ResultMemo` — the result store of every backend, keyed by the
  session's coalescing key; with a ``cache_dir`` it persists results to
  disk for other processes and later runs.

Quickstart::

    from repro.api import EvalRequest, ResultMemo, Session
    from repro.experiments.runner import ExperimentContext

    context = ExperimentContext(train_size=400, epochs=3)
    session = Session(
        backend="vectorized", result_memo=ResultMemo(cache_dir="/tmp/results")
    )
    result = session.evaluate(
        EvalRequest(
            model=context.result("tea").model,
            dataset=context.evaluation_dataset(),
            copy_levels=(1, 2, 4),
            spf_levels=(1, 2),
            repeats=2,
            seed=0,
        )
    )
    print(result.mean_accuracy)       # (copies, spf) accuracy grid
    print(result.accuracy_at(4, 2))   # one grid point

Switching ``backend="vectorized"`` to ``"reference"``, ``"chip"`` or
``"board"`` changes nothing but the engine: the same request produces the
same integer readout counts (``result.class_counts()``) on every backend,
and every backend divides them once (``counts / n_k``), so the score
tensors and accuracy grids are bit-identical too.  See the top-level
README for the full backend-choice guide.
"""

from repro.api.backends import (
    BoardBackend,
    ChipBackend,
    ReferenceBackend,
    VectorizedBackend,
    backend_names,
    create_backend,
    register_backend,
)
from repro.api.protocol import (
    KNOWN_ENCODERS,
    BackendCapabilities,
    EvalRequest,
    EvalResult,
    EvaluationBackend,
    ResultShapeError,
    UnsupportedRequestError,
)
from repro.api.session import (
    AUTO,
    PendingEvaluation,
    ResultMemo,
    Session,
    SessionStats,
)

__all__ = [
    "AUTO",
    "BackendCapabilities",
    "BoardBackend",
    "ChipBackend",
    "EvalRequest",
    "EvalResult",
    "EvaluationBackend",
    "KNOWN_ENCODERS",
    "PendingEvaluation",
    "ReferenceBackend",
    "ResultMemo",
    "ResultShapeError",
    "Session",
    "SessionStats",
    "UnsupportedRequestError",
    "VectorizedBackend",
    "backend_names",
    "create_backend",
    "register_backend",
]
