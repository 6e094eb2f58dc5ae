"""The front tier: one router process sharding models across replicas.

:class:`FrontServer` fronts N :class:`~repro.serve.server.EvalServer`
replicas the way a spine fronts its leaves (the spine-leaf DCN surveys in
PAPERS.md are the topology playbook): clients talk to one address, and the
router owns placement, failover, and the fleet-wide overload decision.
Like a spine, it forwards answers without processing them: the body a
replica writes is the body the client reads, byte for byte.  The router
only checks an answer's shape — a 200 must be a result frame whose header
parses and whose byte counts add up to the body, any other status a JSON
object — so a torn or garbled answer fails over instead of reaching the
client.  Its connections to the replicas, proxied requests and health
probes alike, are kept alive in one
:class:`~repro.serve.client.ConnectionPool`.

**Consistent routing.**  Every request is routed by its *model
fingerprint* (a content hash of the hosted model's ``/v1/models`` entry,
discovered by polling the replicas; the bare model name is the routing key
until discovery) through a rendezvous ring
(:class:`~repro.serve.ring.ReplicaRing`), so one replica is the stable
home of each model's traffic, whose in-memory memo then holds exactly
that model's results.  The ring's descending preference order doubles as
the failover path, so even spilled traffic lands deterministically.
Replicas sharing one ``cache_dir`` share every result on disk, so after a
kill-and-restart the takeover replica and the restarted home answer
repeated requests with zero fresh engine passes.

**Fleet admission.**  The front owns its *own* shed decision, computed
from the replicas' exported drain snapshots (polled ``/metrics``
``"drain"`` blocks): queue depths and queue bounds sum across healthy
replicas, and when the fleet backlog reaches the fleet bound the front
answers ``429 Retry-After`` — with the hint derived from the
*aggregated* measured drain rate — **before a backend socket is even
picked**.  This is the call-admission-control shape (Babu et al. in
PAPERS.md) lifted one tier up: per-replica 429s protect one queue;
the front-tier decision protects the fleet without burning a connection
per shed request.

**Health and ejection.**  A poller thread probes every replica's
``/healthz`` each ``poll_interval``; a probe fails unless the replica
answers with status ``ok`` (a draining replica answers
``shutting-down``), and ``eject_after`` consecutive failures eject it
from the ring (its models re-home deterministically onto the
survivors), and a recovering replica rejoins with its old assignments
restored — rendezvous hashing moves only the ejected replica's keys in
both directions.  A proxy attempt that hits a dead socket, a torn answer
(the replica hung up inside its status line or body), or a replica
answering 503 mid-shutdown fails over to the next replica in the key's
preference order within the same request, so a mid-burst replica kill is
absorbed without a client-visible 5xx.

**Aggregated introspection.**  ``GET /metrics`` refreshes and merges the
fleet: conservation counters summed (each replica snapshot is internally
consistent, so the summed invariants hold fleet-wide), the fleet p95
computed over the *union* of the per-replica latency windows (averaging
per-replica p95s is statistically unsound).
``GET /v1/fleet`` exposes the sharding itself: ring membership, model
assignments, per-replica health and ejection counters.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.admission import (
    LatencyWindow,
    QueueFullError,
    ServiceClosedError,
)
from repro.serve.client import ConnectionPool
from repro.serve.codec import RESULT_CONTENT_TYPE, decode_request, read_frame
from repro.serve.handlers import FrontHandler, ServiceHTTPServer
from repro.serve.ring import ReplicaRing

#: ``(status, headers, body)`` of one replica answer; ``body`` is its bytes.
Answer = Tuple[int, Dict[str, str], bytes]

#: What a replica call raises when the replica is unreachable (``OSError``),
#: hangs up mid-answer (``IncompleteRead`` and ``BadStatusLine`` are
#: ``HTTPException``, not ``OSError``) or answers garbage (``ValueError``,
#: which covers the codec's ``CodecError``).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


class FleetUnavailableError(RuntimeError):
    """No healthy replica can serve this request (HTTP 503 at the front)."""


def _as_int(value: object, default: int = 0) -> int:
    if isinstance(value, bool):
        return default
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    return default


def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def model_fingerprint(entry: Dict[str, object]) -> str:
    """Content hash of one ``/v1/models`` model entry (the routing key).

    Hashing the whole entry (name plus training metadata) rather than the
    bare name means two fleets hosting *different* models under one name
    still route deterministically within themselves, and a retrained
    model re-homes explicitly instead of silently inheriting a stale
    assignment.
    """
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DrainView:
    """One replica's parsed drain snapshot (see ``AdmissionController``)."""

    queue_depth: int = 0
    in_flight: int = 0
    effective_depth: int = 0
    drain_rate_per_second: Optional[float] = None
    latency_window_seconds: Tuple[float, ...] = ()

    @classmethod
    def from_payload(cls, payload: object) -> "DrainView":
        if not isinstance(payload, dict):
            return cls()
        window_raw = payload.get("latency_window_seconds")
        window: Tuple[float, ...] = ()
        if isinstance(window_raw, list):
            window = tuple(
                sample
                for sample in (_as_float(item) for item in window_raw)
                if sample is not None
            )
        return cls(
            queue_depth=_as_int(payload.get("queue_depth")),
            in_flight=_as_int(payload.get("in_flight")),
            effective_depth=_as_int(payload.get("effective_depth")),
            drain_rate_per_second=_as_float(payload.get("drain_rate_per_second")),
            latency_window_seconds=window,
        )


@dataclass
class ReplicaState:
    """The front tier's view of one replica (mutable, lock-guarded)."""

    name: str
    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    ejections: int = 0
    rejoins: int = 0
    drain: Optional[DrainView] = None
    requests: Optional[Dict[str, object]] = None
    models_payload: Optional[Dict[str, object]] = None
    model_keys: Dict[str, str] = field(default_factory=dict)
    proxied: int = 0
    proxy_failures: int = 0


def parse_replica(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``ValueError`` when malformed."""
    host, _, port_text = spec.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(
            f"replica spec must look like 'host:port', got {spec!r}"
        )
    return host, int(port_text)


@dataclass
class FrontConfig:
    """Tunables of one front router instance.

    Attributes:
        host / port: bind address; ``port=0`` asks the OS for a port.
        replicas: the fleet, as ``"host:port"`` specs.
        poll_interval: seconds between health/drain polls of each replica.
        eject_after: consecutive failed ``/healthz`` probes (no answer,
            or a status other than ``ok``) before a replica is ejected
            from the ring.
        request_timeout: socket timeout for one proxied ``/v1/evaluate``
            call (must exceed the replicas' own request timeout).
        probe_timeout: socket timeout for health/metrics polls — short,
            so one dead replica cannot stall the poll loop.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    replicas: Tuple[str, ...] = ()
    poll_interval: float = 0.25
    eject_after: int = 2
    request_timeout: float = 330.0
    probe_timeout: float = 5.0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a front router needs at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica specs in {self.replicas}")
        for spec in self.replicas:
            parse_replica(spec)
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.eject_after <= 0:
            raise ValueError(
                f"eject_after must be positive, got {self.eject_after}"
            )
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.probe_timeout <= 0:
            raise ValueError(
                f"probe_timeout must be positive, got {self.probe_timeout}"
            )


class FrontService:
    """Transport-free router core: ring + fleet admission + proxying."""

    def __init__(self, config: FrontConfig) -> None:
        self.config = config
        self.ring = ReplicaRing(config.replicas)
        self._replicas: Dict[str, ReplicaState] = {}  # guarded-by: _lock
        for spec in config.replicas:
            host, port = parse_replica(spec)
            self._replicas[spec] = ReplicaState(name=spec, host=host, port=port)
        self._lock = threading.Lock()
        self.received = 0  # guarded-by: _lock
        self.routed = 0  # guarded-by: _lock
        self.shed = 0  # guarded-by: _lock
        self.unavailable = 0  # guarded-by: _lock
        self.failovers = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._http_counts: Dict[str, int] = {}  # guarded-by: _http_lock
        self._http_lock = threading.Lock()
        #: front-observed end-to-end proxy latencies (admission to answer).
        self.latencies = LatencyWindow()
        self._stop = threading.Event()
        self._poller: Optional[threading.Thread] = None
        #: kept-alive connections to the replicas, for proxies and probes.
        self._pool = ConnectionPool()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FrontService":
        """Poll the fleet once synchronously, then start the poller."""
        if self._poller is not None:
            return self
        self.refresh()
        self._poller = threading.Thread(
            target=self._poll_loop, name="repro-serve-front-poll", daemon=True
        )
        self._poller.start()
        return self

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=10.0)
            self._poller = None
        self._pool.close()

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            self.refresh()

    # ------------------------------------------------------------------
    # replica probing
    # ------------------------------------------------------------------
    def _get_json(
        self, state: ReplicaState, path: str, timeout: float
    ) -> Optional[Dict[str, object]]:
        """GET ``path`` from one replica; ``None`` on any failure."""
        try:
            status, _, raw = self._pool.request(
                state.host, state.port, "GET", path, None, timeout
            )
            if status != 200:
                return None
            body = json.loads(raw.decode("utf-8"))
        except _TRANSPORT_ERRORS:
            return None
        return body if isinstance(body, dict) else None

    def refresh(self) -> None:
        """Probe every replica once: health, drain state, hosted models."""
        with self._lock:
            names = list(self._replicas)
        for name in names:
            with self._lock:
                state = self._replicas[name]
                ejections = state.ejections
            alive = self._get_json(state, "/healthz", self.config.probe_timeout)
            if alive is None or alive.get("status") != "ok":
                # A draining replica answers /healthz but 503s every
                # evaluation: it must not rejoin until it reports ok.
                self._mark_failure(name, during="poll")
                continue
            metrics = self._get_json(state, "/metrics", self.config.probe_timeout)
            models: Optional[Dict[str, object]] = None
            with self._lock:
                discovered = state.models_payload is not None
                healthy = state.healthy
            if not discovered or not healthy:
                models = self._get_json(
                    state, "/v1/models", self.config.probe_timeout
                )
            self._mark_alive(name, ejections, metrics=metrics, models=models)

    def _mark_failure(self, name: str, during: str) -> None:
        with self._lock:
            state = self._replicas[name]
            state.consecutive_failures += 1
            if during == "proxy":
                state.proxy_failures += 1
            eject = (
                state.healthy
                and state.consecutive_failures >= self.config.eject_after
            )
            if during == "proxy" and state.healthy:
                # A dead socket on the request path is definitive — eject
                # immediately rather than waiting out the poll cadence.
                eject = True
            if eject:
                state.healthy = False
                state.ejections += 1
                state.drain = None
        if eject:
            self.ring.remove(name)
            self._pool.drop(state.host, state.port)

    def _mark_alive(
        self,
        name: str,
        ejections: int,
        metrics: Optional[Dict[str, object]],
        models: Optional[Dict[str, object]],
    ) -> None:
        """Apply a poll that found ``name`` ok, unless it went stale.

        ``ejections`` is the replica's ejection count when the poll began:
        a proxy failure that ejected it since is newer than the poll's
        ``ok``, so the next poll decides instead of rejoining it here.
        """
        with self._lock:
            state = self._replicas[name]
            if state.ejections != ejections:
                return
            state.consecutive_failures = 0
            rejoined = not state.healthy
            if rejoined:
                state.healthy = True
                state.rejoins += 1
            if metrics is not None:
                state.drain = DrainView.from_payload(metrics.get("drain"))
                requests = metrics.get("requests")
                state.requests = (
                    dict(requests) if isinstance(requests, dict) else None
                )
            if models is not None:
                state.models_payload = models
                state.model_keys = _model_keys(models)
        if rejoined:
            self.ring.add(name)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def model_key(self, model: str) -> str:
        """The consistent-routing key of ``model``.

        The model fingerprint once any replica has advertised the model;
        the bare name before discovery (both are stable, so a key change
        only happens when the hosted model itself changes).
        """
        with self._lock:
            for state in self._replicas.values():
                key = state.model_keys.get(model)
                if key is not None:
                    return key
        return model

    def _healthy_preference(self, key: str) -> List[ReplicaState]:
        order = self.ring.preference(key)
        with self._lock:
            return [
                self._replicas[name]
                for name in order
                if self._replicas[name].healthy
            ]

    def _check_fleet_admission(self) -> None:
        """Shed at the front when the aggregated fleet backlog is full.

        Computed entirely from the polled drain snapshots — no backend
        socket is opened for a request the fleet cannot absorb.
        """
        with self._lock:
            drains = [
                state.drain
                for state in self._replicas.values()
                if state.healthy and state.drain is not None
            ]
        if not drains:
            return  # no drain data yet: admit, the replicas decide
        fleet_depth = sum(view.queue_depth for view in drains)
        fleet_bound = sum(view.effective_depth for view in drains)
        if fleet_depth < fleet_bound:
            return
        fleet_drain = sum(
            view.drain_rate_per_second
            for view in drains
            if view.drain_rate_per_second is not None
        )
        if fleet_drain > 0:
            hint = fleet_depth / fleet_drain
        else:
            merged = [
                sample
                for view in drains
                for sample in view.latency_window_seconds
            ]
            mean = sum(merged) / len(merged) if merged else 1.0
            hint = fleet_depth * mean / max(1, len(drains))
        with self._lock:
            self.shed += 1
        raise QueueFullError(
            f"fleet saturated ({fleet_depth} queued across "
            f"{len(drains)} replicas, fleet bound {fleet_bound}); retry later",
            retry_after=float(min(60.0, max(1.0, hint))),
        )

    def evaluate(self, payload: object) -> Answer:
        """Route one wire payload; returns ``(status, headers, body)``.

        ``body`` is the replica's answer, byte for byte (the router adds
        routing, never arithmetic — bit-identity is the replica's), with
        deterministic failover along the model's preference order:

        * dead socket, torn or garbled answer, or 503 (mid-shutdown) →
          next replica, and the failed one is ejected on the spot (a
          kept-alive connection the replica closed while it sat idle is
          no failure: the pool retries it once on a new connection);
        * 429 (that one replica is saturated) → spill to the next replica
          in preference order; if every healthy replica sheds, the last
          429 passes through (its ``Retry-After`` still carries a
          measured drain hint).

        Raises the typed admission errors for the transport:
        :class:`~repro.serve.codec.CodecError` (400, validated here so a
        malformed request never costs a backend connection),
        :class:`~repro.serve.admission.QueueFullError` (fleet-level 429),
        :class:`~repro.serve.admission.ServiceClosedError` (503) and
        :class:`FleetUnavailableError` (503, no healthy replica).
        """
        wire = decode_request(payload)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("front router is shutting down")
            self.received += 1
        self._check_fleet_admission()
        key = self.model_key(wire.model)
        candidates = self._healthy_preference(key)
        if not candidates:
            with self._lock:
                self.unavailable += 1
            raise FleetUnavailableError(
                f"no healthy replica to route model {wire.model!r} "
                f"(fleet: {self.ring.replicas or 'empty'})"
            )
        started = time.monotonic()
        overloaded: Optional[Answer] = None
        for index, state in enumerate(candidates):
            answer = self._proxy_evaluate(state, payload)
            if answer is None or answer[0] == 503:
                # Dead socket, torn answer or shutting down: eject, fail over.
                self._mark_failure(state.name, during="proxy")
                if index + 1 < len(candidates):
                    with self._lock:
                        self.failovers += 1
                continue
            if answer[0] == 429:
                overloaded = answer
                continue
            with self._lock:
                self.routed += 1
                state.proxied += 1
            self.latencies.record(time.monotonic() - started)
            return answer
        if overloaded is not None:
            with self._lock:
                self.shed += 1
            return overloaded
        with self._lock:
            self.unavailable += 1
        raise FleetUnavailableError(
            f"every replica in {wire.model!r}'s preference order is "
            "unreachable"
        )

    def _proxy_evaluate(self, state: ReplicaState, payload: object) -> Optional[Answer]:
        """POST one payload to one replica; ``None`` on transport failure.

        The answer's status, ``Content-Type``, ``Retry-After`` and body are
        returned unchanged.  The body is checked, never decoded: a 200
        must be a result frame whose header parses and whose byte counts
        add up to the body, any other status a JSON object, so a garbled
        answer counts as a failure.
        """
        try:
            status, received, raw = self._pool.request(
                state.host,
                state.port,
                "POST",
                "/v1/evaluate",
                json.dumps(payload).encode("utf-8"),
                self.config.request_timeout,
            )
            if status == 200:
                if received.get("Content-Type") != RESULT_CONTENT_TYPE:
                    return None
                read_frame(raw)
            elif not isinstance(json.loads(raw), dict):
                return None
        except _TRANSPORT_ERRORS:
            return None
        headers: Dict[str, str] = {}
        for name in ("Content-Type", "Retry-After"):
            value = received.get(name)
            if value is not None:
                headers[name] = value
        return status, headers, raw

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def record_http(self, route: str, status: int) -> None:
        """Count one HTTP response for the front /metrics request table."""
        key = f"{route} {status}"
        with self._http_lock:
            self._http_counts[key] = self._http_counts.get(key, 0) + 1

    def health(self) -> Dict[str, object]:
        with self._lock:
            total = len(self._replicas)
            healthy = sum(1 for state in self._replicas.values() if state.healthy)
            closed = self._closed
        status = "ok" if healthy and not closed else (
            "shutting-down" if closed else "no-healthy-replica"
        )
        return {
            "status": status,
            "replicas": total,
            "healthy": healthy,
        }

    def models(self) -> Dict[str, object]:
        """The fleet-wide ``/v1/models`` union (names deduplicated)."""
        models: Dict[str, Dict[str, object]] = {}
        datasets: Dict[str, Dict[str, object]] = {}
        backends: List[str] = []
        with self._lock:
            payloads = [
                state.models_payload
                for state in self._replicas.values()
                if state.healthy and state.models_payload is not None
            ]
        for payload in payloads:
            for entry in _entry_list(payload.get("models")):
                name = entry.get("name")
                if isinstance(name, str):
                    models.setdefault(name, entry)
            for entry in _entry_list(payload.get("datasets")):
                name = entry.get("name")
                if isinstance(name, str):
                    datasets.setdefault(name, entry)
            names = payload.get("backends")
            if isinstance(names, list):
                for backend in names:
                    if isinstance(backend, str) and backend not in backends:
                        backends.append(backend)
        return {
            "models": [models[name] for name in sorted(models)],
            "datasets": [datasets[name] for name in sorted(datasets)],
            "backends": backends,
        }

    def fleet(self) -> Dict[str, object]:
        """``GET /v1/fleet``: the sharding introspection surface."""
        with self._lock:
            replicas = [
                {
                    "name": state.name,
                    "healthy": state.healthy,
                    "consecutive_failures": state.consecutive_failures,
                    "ejections": state.ejections,
                    "rejoins": state.rejoins,
                    "proxied": state.proxied,
                    "proxy_failures": state.proxy_failures,
                    "models": sorted(state.model_keys),
                }
                for state in self._replicas.values()
            ]
            model_keys: Dict[str, str] = {}
            for state in self._replicas.values():
                for model, key in state.model_keys.items():
                    model_keys.setdefault(model, key)
        assignments = {
            model: self.ring.route(key) for model, key in sorted(model_keys.items())
        } if len(self.ring) else {}
        return {
            "ring": list(self.ring.replicas),
            "replicas": replicas,
            "model_fingerprints": dict(sorted(model_keys.items())),
            "assignments": assignments,
        }

    def metrics(self) -> Dict[str, object]:
        """The aggregated fleet view (fresh: refreshes the fleet first).

        ``fleet.requests`` sums each replica's conservation counters, so
        the fleet-wide invariants (``received == admitted + rejected``,
        ``admitted == completed + failed + in_flight``) hold exactly —
        each per-replica snapshot is internally consistent and sums
        preserve both equalities.  The fleet p50/p95 are computed over the
        union of the per-replica latency windows.
        """
        self.refresh()
        counter_keys = (
            "received",
            "admitted",
            "rejected",
            "completed",
            "failed",
            "in_flight",
            "queue_depth",
        )
        fleet_requests = {key: 0 for key in counter_keys}
        merged_window: List[float] = []
        fleet_drain = 0.0
        drain_measured = False
        fleet_effective = 0
        replica_views: Dict[str, object] = {}
        with self._lock:
            states = list(self._replicas.values())
            for state in states:
                if state.requests is not None:
                    for count_key in counter_keys:
                        fleet_requests[count_key] += _as_int(
                            state.requests.get(count_key)
                        )
                if state.drain is not None:
                    merged_window.extend(state.drain.latency_window_seconds)
                    fleet_effective += state.drain.effective_depth
                    if state.drain.drain_rate_per_second is not None:
                        fleet_drain += state.drain.drain_rate_per_second
                        drain_measured = True
                replica_views[state.name] = {
                    "healthy": state.healthy,
                    "proxied": state.proxied,
                    "proxy_failures": state.proxy_failures,
                    "ejections": state.ejections,
                    "rejoins": state.rejoins,
                    "requests": state.requests,
                }
            healthy = sum(1 for state in states if state.healthy)
            front_counters = {
                "received": self.received,
                "routed": self.routed,
                "shed": self.shed,
                "unavailable": self.unavailable,
                "failovers": self.failovers,
            }
        with self._http_lock:
            http_counts = dict(sorted(self._http_counts.items()))
        merged_window.sort()
        return {
            "fleet": {
                "replicas": len(states),
                "healthy": healthy,
                "requests": fleet_requests,
                "effective_depth": fleet_effective,
                "drain_rate_per_second": (
                    fleet_drain if drain_measured else None
                ),
                "latency_p50_seconds": _percentile(merged_window, 0.50),
                "latency_p95_seconds": _percentile(merged_window, 0.95),
            },
            "front": {
                **front_counters,
                "latency_p50_seconds": self.latencies.percentile(0.50),
                "latency_p95_seconds": self.latencies.percentile(0.95),
            },
            "replicas": replica_views,
            "http": http_counts,
        }


def _percentile(sorted_samples: Sequence[float], fraction: float) -> Optional[float]:
    """The same quantile read ``LatencyWindow.percentile`` uses, merged."""
    if not sorted_samples:
        return None
    index = min(len(sorted_samples) - 1, int(fraction * len(sorted_samples)))
    return sorted_samples[index]


def _entry_list(value: object) -> List[Dict[str, object]]:
    if not isinstance(value, list):
        return []
    return [entry for entry in value if isinstance(entry, dict)]


def _model_keys(models_payload: Dict[str, object]) -> Dict[str, str]:
    """``{model name: fingerprint}`` from one ``/v1/models`` payload."""
    keys: Dict[str, str] = {}
    for entry in _entry_list(models_payload.get("models")):
        name = entry.get("name")
        if isinstance(name, str):
            keys[name] = model_fingerprint(entry)
    return keys


class FrontServer:
    """HTTP front end over one :class:`FrontService`.

    Usable as a context manager, exactly like
    :class:`~repro.serve.server.EvalServer`::

        config = FrontConfig(port=0, replicas=("127.0.0.1:8101",
                                               "127.0.0.1:8102"))
        with FrontServer(config) as front:
            client = ServeClient(port=front.port)
            result = client.evaluate(model="tea", copy_levels=[1, 2])
    """

    def __init__(self, config: FrontConfig) -> None:
        self.config = config
        self.service = FrontService(config)
        self._httpd: Optional[ServiceHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the OS choice when configured with ``port=0``)."""
        if self._httpd is None:
            raise RuntimeError("front server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "FrontServer":
        """Warm the fleet view, bind the socket, start the acceptor."""
        if self._httpd is not None:
            return self
        self.service.start()
        self._httpd = ServiceHTTPServer(
            (self.config.host, self.config.port), FrontHandler, self.service
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-front-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self.service.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "FrontServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
