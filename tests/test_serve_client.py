"""Client-side retry jitter, base-URL failover, and kept-alive connections.

The retry bug this pins: ``evaluate_with_retry`` used to sleep the 429
``Retry-After`` hint *exactly*, so a shed burst of clients — all handed
the same drain estimate — woke in lockstep and re-saturated the queue
they had just drained.  The nap is now AWS-style decorrelated jitter:
drawn uniformly from ``[hint, max(hint, 3 x previous nap)]`` and clamped
to ``max_backoff``, never below the server's hint.  ``sleep`` and ``rng``
are injectable, so every property here is asserted without real waiting.

The keep-alive tests boot a replica that hosts no model (and a front over
it): sequential calls share one warm connection without a Nagle stall,
and a connection the server closed while it sat idle is retried, not
failed over.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import pytest

from repro.serve import client as client_module
from repro.serve import EvalServer, ModelRegistry, ServeConfig
from repro.serve.client import (
    ServeClient,
    ServeError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serve.front import FrontConfig, FrontServer


class _SheddingService:
    """Stand-in for evaluate_payload: sheds N times, then answers."""

    def __init__(self, sheds: int, retry_after: float = 2.0) -> None:
        self.sheds = sheds
        self.retry_after = retry_after
        self.calls = 0

    def __call__(self, payload):
        self.calls += 1
        if self.calls <= self.sheds:
            raise ServiceOverloadedError(
                "shed", retry_after=self.retry_after
            )
        return {"ok": True, "payload": payload}


def _retry_client(monkeypatch, service) -> ServeClient:
    client = ServeClient(port=1)  # never actually connected
    monkeypatch.setattr(client, "evaluate_payload", service)
    return client


# ----------------------------------------------------------------------
# decorrelated jitter
# ----------------------------------------------------------------------
def test_naps_never_undercut_the_server_hint(monkeypatch):
    service = _SheddingService(sheds=6, retry_after=2.5)
    client = _retry_client(monkeypatch, service)
    naps = []
    result = client.evaluate_with_retry(
        {"model": "tea"}, retries=10, sleep=naps.append, rng=0
    )
    assert result == {"ok": True, "payload": {"model": "tea"}}
    assert len(naps) == 6
    assert all(nap >= 2.5 for nap in naps)


def test_naps_are_decorrelated_not_the_bare_hint(monkeypatch):
    """The lockstep-herd bug: every nap equal to the hint means all shed
    clients retry at the same instant.  With jitter, the naps must spread
    above the hint (all-equal-to-hint has probability ~0 under the
    uniform draw, and seeded rng makes the assertion deterministic)."""
    service = _SheddingService(sheds=8, retry_after=1.0)
    client = _retry_client(monkeypatch, service)
    naps = []
    client.evaluate_with_retry(
        {"model": "tea"}, retries=10, sleep=naps.append, rng=7
    )
    assert len(set(naps)) > 1
    assert any(nap > 1.0 for nap in naps)


def test_nap_growth_is_bounded_by_three_times_previous(monkeypatch):
    service = _SheddingService(sheds=10, retry_after=1.5)
    client = _retry_client(monkeypatch, service)
    naps = []
    client.evaluate_with_retry(
        {"model": "tea"}, retries=12, sleep=naps.append, rng=3
    )
    previous = 1.5  # the first draw's upper bound is max(hint, 3*hint)
    for nap in naps:
        assert nap <= max(1.5, 3.0 * previous) + 1e-9
        previous = nap


def test_naps_clamp_to_max_backoff(monkeypatch):
    service = _SheddingService(sheds=12, retry_after=50.0)
    client = _retry_client(monkeypatch, service)
    naps = []
    client.evaluate_with_retry(
        {"model": "tea"},
        retries=15,
        max_backoff=60.0,
        sleep=naps.append,
        rng=1,
    )
    assert all(nap <= 60.0 for nap in naps)
    assert all(nap >= 50.0 for nap in naps)


def test_same_seed_reproduces_the_same_nap_schedule(monkeypatch):
    schedules = []
    for _ in range(2):
        service = _SheddingService(sheds=5, retry_after=2.0)
        client = _retry_client(monkeypatch, service)
        naps = []
        client.evaluate_with_retry(
            {"model": "tea"}, retries=10, sleep=naps.append, rng=42
        )
        schedules.append(naps)
    assert schedules[0] == schedules[1]


def test_exhausted_retries_raise_the_final_overload(monkeypatch):
    service = _SheddingService(sheds=100, retry_after=1.0)
    client = _retry_client(monkeypatch, service)
    naps = []
    with pytest.raises(ServiceOverloadedError):
        client.evaluate_with_retry(
            {"model": "tea"}, retries=3, sleep=naps.append, rng=0
        )
    assert len(naps) == 3  # slept between attempts, not after the last


def test_non_overload_errors_propagate_immediately(monkeypatch):
    client = ServeClient(port=1)

    def explode(payload):
        raise ServeError("boom", status=500)

    monkeypatch.setattr(client, "evaluate_payload", explode)
    naps = []
    with pytest.raises(ServeError, match="boom"):
        client.evaluate_with_retry(
            {"model": "tea"}, retries=5, sleep=naps.append
        )
    assert naps == []


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries"):
        ServeClient(port=1).evaluate_with_retry({"model": "tea"}, retries=-1)


# ----------------------------------------------------------------------
# base-URL failover
# ----------------------------------------------------------------------
def test_failover_walks_targets_and_promotes_the_answering_one(monkeypatch):
    client = ServeClient(
        host="10.9.9.1", port=1, fallbacks=[("10.9.9.2", 2), ("10.9.9.3", 3)]
    )
    attempts = []

    def fake_request(host, port, method, path, body, timeout):
        attempts.append((host, port))
        if port != 3:
            raise ConnectionRefusedError(f"cannot reach {host}:{port}")
        return 200, {}, b'{"status": "ok"}'

    monkeypatch.setattr(client._pool, "request", fake_request)
    assert client.health() == {"status": "ok"}
    assert attempts == [("10.9.9.1", 1), ("10.9.9.2", 2), ("10.9.9.3", 3)]
    # The answering target is promoted: the next call goes there first.
    attempts.clear()
    assert client.health() == {"status": "ok"}
    assert attempts[0] == ("10.9.9.3", 3)


def test_all_targets_dead_raises_the_last_unreachable(monkeypatch):
    client = ServeClient(host="10.9.9.1", port=1, fallbacks=[("10.9.9.2", 2)])

    def fake_request(host, port, method, path, body, timeout):
        raise ConnectionRefusedError(f"cannot reach {host}:{port}")

    monkeypatch.setattr(client._pool, "request", fake_request)
    with pytest.raises(ServiceUnavailableError, match="10.9.9.2:2"):
        client.health()


def test_http_level_errors_do_not_fail_over(monkeypatch):
    """A 429/500 is a real answer from a live service — trying the next
    base URL would re-submit the request, not route around a dead box."""
    client = ServeClient(host="10.9.9.1", port=1, fallbacks=[("10.9.9.2", 2)])
    attempts = []

    def fake_request(host, port, method, path, body, timeout):
        attempts.append((host, port))
        error = {"type": "overloaded", "message": "shed", "retry_after": 3}
        return 429, {"Retry-After": "3"}, json.dumps({"error": error}).encode()

    monkeypatch.setattr(client._pool, "request", fake_request)
    with pytest.raises(ServiceOverloadedError) as excinfo:
        client.health()
    assert excinfo.value.retry_after == 3.0
    assert attempts == [("10.9.9.1", 1)]


# ----------------------------------------------------------------------
# kept-alive connections
# ----------------------------------------------------------------------
@pytest.fixture
def connects(monkeypatch):
    """The port of every connection the pool opens, in order."""
    opened = []

    class CountingConnection(http.client.HTTPConnection):
        def connect(self):
            opened.append(self.port)
            super().connect()

    monkeypatch.setattr(client_module, "HTTPConnection", CountingConnection)
    return opened


def _model_less_replica(port=0):
    """A replica that hosts nothing: enough for ``/healthz``."""
    return EvalServer(ModelRegistry(), ServeConfig(port=port, workers=0)).start()


def _median_health_ms(client, calls=20):
    durations = []
    for _ in range(calls):
        start = time.perf_counter()
        assert client.health()["status"] == "ok"
        durations.append(time.perf_counter() - start)
    return statistics.median(durations) * 1e3


def test_sequential_calls_share_one_connection_without_a_nagle_stall(connects):
    """Headers and body leave the server in two writes; with Nagle on, a
    kept-alive connection held each small answer for the client's delayed
    ACK, about 44 ms per call."""
    replica = _model_less_replica()
    front = FrontServer(
        FrontConfig(
            port=0,
            replicas=(f"127.0.0.1:{replica.port}",),
            poll_interval=60.0,
        )
    ).start()
    try:
        for port in (replica.port, front.port):
            before = connects.count(port)  # the front probed its replica
            with ServeClient(port=port, timeout=30.0) as client:
                assert _median_health_ms(client) < 20.0
            assert connects.count(port) == before + 1
    finally:
        front.close()
        replica.close()


def test_restarted_server_is_reached_without_a_fallback(connects):
    """The pooled connection to the first server instance is stale after
    the restart: the pool retries it once on a new connection, so the
    client never counts it as a dead target."""
    replica = _model_less_replica()
    port = replica.port
    unused = _model_less_replica()
    fallback = unused.port
    unused.close()
    client = ServeClient(port=port, timeout=30.0, fallbacks=[("127.0.0.1", fallback)])
    try:
        assert client.health()["status"] == "ok"
        replica.close()
        replica = _model_less_replica(port)
        assert client.health()["status"] == "ok"
        assert connects == [port, port]
    finally:
        client.close()
        replica.close()
