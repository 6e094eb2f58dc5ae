"""repro.serve — HTTP/queue evaluation service over :class:`repro.api.Session`.

The transport layer the ROADMAP's serve-style workload asked for: a
stdlib-only HTTP service (``http.server`` + ``queue``-style admission) in
front of the :mod:`repro.api` serving facade.

* :class:`EvalServer` / :class:`EvalService` / :class:`ServeConfig` /
  :class:`ModelRegistry` — the server side (:mod:`repro.serve.server`):
  a statically bounded admission queue, worker threads whose per-batch
  ``Session.submit``/``flush`` drain coalesces same-fingerprint requests
  onto shared engine passes, explicit 429 + ``Retry-After`` overload
  shedding, ``/healthz`` + ``/metrics`` introspection.  One opt-in: a
  ``cache_dir`` that persists every served result, so a restarted replica
  is warm without replaying anything.
* :class:`FrontServer` / :class:`FrontService` / :class:`FrontConfig` —
  the fleet router (:mod:`repro.serve.front`): consistent model→replica
  routing over a rendezvous ring (:mod:`repro.serve.ring`), fleet-wide
  admission from aggregated drain snapshots, health-based ejection with
  deterministic failover, and merged ``/metrics`` + ``/v1/fleet``
  introspection.
* :class:`ServeClient` — the stdlib client (:mod:`repro.serve.client`)
  returning bit-identical :class:`~repro.api.EvalResult` objects and typed
  errors, with decorrelated-jitter 429 retries and base-URL failover, over
  kept-alive HTTP/1.1 connections.
* :mod:`repro.serve.codec` — the strict wire protocol: JSON requests, and
  results as binary frames of raw array bytes.

Start a server (or ``python -m repro.serve`` / the ``repro-serve`` console
script from the command line)::

    from repro.api import Session
    from repro.experiments.runner import ExperimentContext
    from repro.serve import EvalServer, ModelRegistry, ServeConfig
    from repro.serve.client import ServeClient

    registry = ModelRegistry.from_context(
        ExperimentContext(train_size=400, epochs=3), methods=("tea",)
    )
    with EvalServer(registry, ServeConfig(port=0, workers=2)) as server:
        client = ServeClient(port=server.port)
        result = client.evaluate(model="tea", copy_levels=[1, 2], spf_levels=[2])
        print(result.mean_accuracy, client.metrics()["requests"])
"""

from repro.serve.admission import (
    AdmissionController,
    Job,
    QueueFullError,
    ServiceClosedError,
)
from repro.serve.client import (
    RequestRejectedError,
    ServeClient,
    ServeError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serve.codec import (
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    WireRequest,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
)
from repro.serve.front import (
    FleetUnavailableError,
    FrontConfig,
    FrontServer,
    FrontService,
)
from repro.serve.ring import EmptyRingError, ReplicaRing
from repro.serve.server import (
    EvalServer,
    EvalService,
    ModelRegistry,
    ServeConfig,
)

__all__ = [
    "AdmissionController",
    "CodecError",
    "EmptyRingError",
    "EvalServer",
    "EvalService",
    "FleetUnavailableError",
    "FrontConfig",
    "FrontServer",
    "FrontService",
    "Job",
    "ModelRegistry",
    "QueueFullError",
    "ReplicaRing",
    "RequestRejectedError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "UnknownDatasetError",
    "UnknownModelError",
    "WireRequest",
    "decode_request",
    "decode_result",
    "encode_request",
    "encode_result",
]
