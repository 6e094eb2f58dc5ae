"""The evaluation service: model registry, worker pool, HTTP server.

Three layers, separable for testing:

* :class:`ModelRegistry` — the models and datasets the service hosts, by
  name (wire requests reference names; :func:`ModelRegistry.from_context`
  trains the paper's learning methods on one test bench and registers the
  matching evaluation splits).
* :class:`EvalService` — the transport-free core: an
  :class:`~repro.serve.admission.AdmissionController` with a static queue
  bound in front of ``workers`` worker threads, each draining *batches* of
  admitted jobs through its own :class:`repro.api.Session` (``submit`` +
  one ``flush`` per batch), so same-fingerprint requests coalesce onto
  shared engine passes exactly as they do in-process.  All workers share
  one score cache and one :class:`~repro.api.ResultMemo`, so a repeated
  configuration is a hit regardless of which worker serves it.
  Responses are **bit-identical** to a direct ``Session.evaluate`` of the
  same request — the service adds queuing, never arithmetic.
* :class:`EvalServer` — the stdlib HTTP binding
  (:class:`~repro.serve.handlers.ServiceHTTPServer` + the handler in
  :mod:`repro.serve.handlers`) exposing ``POST /v1/evaluate``,
  ``GET /v1/models``, ``GET /healthz``, and ``GET /metrics`` over
  kept-alive HTTP/1.1 connections.

``ServeConfig.cache_dir`` gives the shared memo its disk tier: every
served deterministic result, on every backend, is written through to one
file under it.  A service restarted on the same directory — or a survivor
taking over a dead replica's traffic — answers a repeated burst from disk
without running an engine pass, and boots without replaying anything.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import ResultMemo, Session, backend_names
from repro.api.protocol import EvalRequest
from repro.datasets.base import Dataset
from repro.eval.runner import ScoreCache
from repro.serve.admission import (
    AdmissionController,
    Job,
    ServiceClosedError,
)
from repro.serve.codec import (
    UnknownDatasetError,
    UnknownModelError,
    decode_request,
    to_eval_request,
)
from repro.serve.handlers import ServeHandler, ServiceHTTPServer


@dataclass
class ServeConfig:
    """Tunables of one service instance.

    Attributes:
        host / port: bind address; ``port=0`` asks the OS for an ephemeral
            port (the bound port is on :attr:`EvalServer.port`).
        backend: default backend for requests that do not name one
            (``"auto"`` selects by request capability, as in ``Session``).
        workers: worker threads draining the admission queue (``0``
            admits jobs that no worker runs).
        queue_depth: bound on queued jobs; an arrival that finds this
            many queued gets 429.
        batch_max: most jobs one worker claims per drain — the coalescing
            window.
        request_timeout: seconds an HTTP handler waits for its job before
            answering 504 (the job itself is not cancelled).
        cache_dir / cache_max_bytes: disk tier of the shared result memo
            and its size bound (see :class:`repro.api.ResultMemo`); the
            bound needs a ``cache_dir``.
        memo_entries: capacity of the shared result memo.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    backend: str = "auto"
    workers: int = 2
    queue_depth: int = 64
    batch_max: int = 8
    request_timeout: float = 300.0
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    memo_entries: int = 256

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.batch_max <= 0:
            raise ValueError(f"batch_max must be positive, got {self.batch_max}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.memo_entries <= 0:
            raise ValueError(
                f"memo_entries must be positive, got {self.memo_entries}"
            )
        if self.cache_max_bytes is not None:
            if self.cache_dir is None:
                raise ValueError(
                    "cache_max_bytes bounds cache_dir, which is not set"
                )
            if self.cache_max_bytes <= 0:
                raise ValueError(
                    "cache_max_bytes must be positive, got "
                    f"{self.cache_max_bytes}"
                )


class ModelRegistry:
    """Named models and datasets a service instance hosts."""

    def __init__(self) -> None:
        self._models: Dict[str, Tuple[object, Dict[str, object]]] = {}
        self._datasets: Dict[str, Dataset] = {}

    # ------------------------------------------------------------------
    def add_model(self, name: str, model, **metadata) -> None:
        """Host ``model`` under ``name`` (metadata shows up in /v1/models)."""
        if not name or not isinstance(name, str):
            raise ValueError(f"model name must be a non-empty string, got {name!r}")
        self._models[name] = (model, dict(metadata))

    def add_dataset(self, name: str, dataset: Dataset) -> None:
        """Host ``dataset`` under ``name``."""
        if not name or not isinstance(name, str):
            raise ValueError(f"dataset name must be a non-empty string, got {name!r}")
        self._datasets[name] = dataset

    def model(self, name: str):
        """The hosted model called ``name``."""
        try:
            return self._models[name][0]
        except KeyError:
            raise UnknownModelError(
                f"unknown model {name!r}; hosted: {sorted(self._models)}"
            ) from None

    def dataset(self, name: str) -> Dataset:
        """The hosted dataset called ``name``."""
        try:
            return self._datasets[name]
        except KeyError:
            raise UnknownDatasetError(
                f"unknown dataset {name!r}; hosted: {sorted(self._datasets)}"
            ) from None

    def describe(self) -> Dict[str, object]:
        """The ``GET /v1/models`` payload."""
        return {
            "models": [
                {"name": name, **metadata}
                for name, (_, metadata) in sorted(self._models.items())
            ],
            "datasets": [
                {
                    "name": name,
                    "samples": dataset.sample_count,
                    "features": dataset.feature_count,
                    "classes": dataset.num_classes,
                }
                for name, dataset in sorted(self._datasets.items())
            ],
            "backends": list(backend_names()),
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_context(
        cls, context, methods: Sequence[str] = ("tea", "biased")
    ) -> "ModelRegistry":
        """Train ``methods`` on an ExperimentContext and host the results.

        Hosts the capped evaluation split as ``"test"`` (the default wire
        dataset) and the full test split as ``"test-full"``.  Training
        happens here, at boot — never on the request path.
        """
        registry = cls()
        for method in methods:
            result = context.result(method)
            architecture = context.architecture()
            registry.add_model(
                method,
                result.model,
                method=method,
                testbench=context.testbench,
                input_dim=architecture.input_dim,
                num_classes=architecture.num_classes,
                cores_per_network=architecture.cores_per_network,
            )
        registry.add_dataset("test", context.evaluation_dataset())
        registry.add_dataset("test-full", context.splits().test)
        return registry


class EvalService:
    """Transport-free service core: admission queue + coalescing workers."""

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            max_depth=self.config.queue_depth,
            workers=self.config.workers,
        )
        #: one score cache shared by every worker session, so cache hits do
        #: not depend on which worker a request lands on.
        self._score_cache = ScoreCache()
        #: one result memo shared by every worker session — the all-backend
        #: result store, persistent when the config names a cache_dir.
        self.result_memo = ResultMemo(
            max_entries=self.config.memo_entries,
            cache_dir=self.config.cache_dir,
            max_bytes=self.config.cache_max_bytes,
        )
        self._sessions: List[Session] = []
        self._threads: List[threading.Thread] = []
        self._http_counts: Dict[str, int] = {}  # guarded-by: _http_lock
        self._http_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        """Start the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self.config.workers):
            session = Session(
                backend=self.config.backend,
                cache=self._score_cache,
                result_memo=self.result_memo,
            )
            self._sessions.append(session)
            thread = threading.Thread(
                target=self._worker_loop,
                args=(session,),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def close(self) -> None:
        """Stop admitting, fail still-queued jobs, join the workers."""
        for job in self.admission.close():
            job.fail(ServiceClosedError("service shut down before the job ran"))
            self.admission.job_done(job, ok=False)
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def enqueue(self, payload: object) -> Job:
        """Validate, resolve, and admit one wire payload.

        Raises the typed protocol errors (:class:`CodecError`,
        :class:`UnknownModelError`, :class:`UnknownDatasetError`,
        :class:`QueueFullError`, :class:`ServiceClosedError`) for the
        transport to map onto HTTP statuses.
        """
        wire = decode_request(payload)
        request = to_eval_request(wire, self.registry)
        return self.admission.submit(Job(request=request, backend=wire.backend))

    def evaluate_request(self, request: EvalRequest, backend: Optional[str] = None):
        """Admit an in-process :class:`EvalRequest` and wait for its result.

        The examples use this to show queue semantics without HTTP; it goes
        through the same admission + worker path as wire requests.
        """
        job = self.admission.submit(Job(request=request, backend=backend))
        job.done.wait()
        if job.error is not None:
            raise job.error
        return job.result

    def _worker_loop(self, session: Session) -> None:
        admission = self.admission
        while True:
            batch = admission.next_batch(self.config.batch_max, timeout=0.2)
            if not batch:
                if admission.closed:
                    return
                continue
            handles = []
            for job in batch:
                try:
                    handles.append(
                        (job, session.submit(job.request, backend=job.backend))
                    )
                except Exception as error:
                    job.fail(error)
                    admission.job_done(job, ok=False)
            # flush() resolves failures per handle and is not expected to
            # raise; the guard keeps a surprise from killing the worker.
            # Handles it did serve before failing still deliver below, and
            # unserved ones surface a per-job error via handle.result() —
            # a claimed batch never strands its clients.
            try:
                session.flush()
            except Exception:
                pass
            for job, handle in handles:
                try:
                    job.resolve(handle.result())
                    admission.job_done(job, ok=True)
                except Exception as error:
                    job.fail(error)
                    admission.job_done(job, ok=False)

    # ------------------------------------------------------------------
    # introspection endpoints
    # ------------------------------------------------------------------
    def record_http(self, route: str, status: int) -> None:
        """Count one HTTP response for the /metrics request table."""
        key = f"{route} {status}"
        with self._http_lock:
            self._http_counts[key] = self._http_counts.get(key, 0) + 1

    def health(self) -> Dict[str, object]:
        snapshot = self.admission.snapshot()
        return {
            "status": "shutting-down" if self.admission.closed else "ok",
            "workers": self.config.workers,
            "queue_depth": snapshot["queue_depth"],
            "in_flight": snapshot["in_flight"],
        }

    def models(self) -> Dict[str, object]:
        return self.registry.describe()

    def metrics(self) -> Dict[str, object]:
        """Queue counters, latency percentiles, session and cache stats.

        The ``requests`` block satisfies two conservation invariants the CI
        smoke asserts: ``received == admitted + rejected`` and
        ``admitted == completed + failed + in_flight``.
        """
        session_totals = {
            "submitted": 0,
            "flushes": 0,
            "engine_passes": 0,
            "coalesced_requests": 0,
        }
        caches: Dict[int, object] = {}
        for session in self._sessions:
            snapshot = session.stats()
            for key in session_totals:
                session_totals[key] += snapshot[key]
            for cache in session._cache_objects():
                caches[id(cache)] = cache
        hits = sum(cache.hits for cache in caches.values())
        misses = sum(cache.misses for cache in caches.values())
        with self._http_lock:
            http_counts = dict(sorted(self._http_counts.items()))
        return {
            "requests": self.admission.snapshot(),
            "drain": self.admission.drain_snapshot(),
            "sessions": session_totals,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if (hits + misses) else None,
            },
            "memo": self.result_memo.snapshot(),
            "http": http_counts,
        }


class EvalServer:
    """HTTP front end over one :class:`EvalService`.

    Usable as a context manager (the tests and the smoke benchmark boot it
    on an ephemeral port)::

        with EvalServer(registry, ServeConfig(port=0)) as server:
            client = ServeClient(port=server.port)
            result = client.evaluate(model="tea", copy_levels=[1, 2])
    """

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.config = config or ServeConfig()
        self.service = EvalService(registry, self.config)
        self._httpd: Optional[ServiceHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the OS choice when configured with ``port=0``)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EvalServer":
        """Bind the socket and start the worker pool + acceptor thread."""
        if self._httpd is not None:
            return self
        self.service.start()
        self._httpd = ServiceHTTPServer(
            (self.config.host, self.config.port), ServeHandler, self.service
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain: stop admissions, resolve queued jobs, stop the acceptor."""
        self.service.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
