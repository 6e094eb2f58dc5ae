"""Front-tier router: consistent routing, failover, fleet admission.

The front tier's promises, each pinned here:

* responses through the router are **bit-identical** to a direct
  ``Session.evaluate`` (the router adds routing, never arithmetic) —
  including through a mid-burst replica kill, which must be absorbed by
  deterministic failover with zero client-visible 5xx;
* a saturated fleet is shed at the front (429 + ``Retry-After``) computed
  from polled drain snapshots, **before any backend socket is picked** —
  asserted by the replicas' own ``received`` counters staying flat;
* ``/metrics`` aggregates the fleet: conservation counters summed (the
  invariants hold fleet-wide), p95 merged from the union of per-replica
  latency windows;
* validation failures (400) are answered at the front without burning a
  backend connection, while replica answers (404s, 429s) pass through
  byte for byte, headers included;
* a replica that hangs up mid-answer is failed over and ejected like a
  dead socket, and a client pointed straight at it falls back.
"""

from __future__ import annotations

import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.api import EvalRequest, Session
from repro.eval.runner import ScoreCache
from repro.serve import (
    EvalServer,
    ModelRegistry,
    RequestRejectedError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serve.front import (
    FrontConfig,
    FrontServer,
    FrontService,
    model_fingerprint,
)
from repro.serve.ring import ReplicaRing


@pytest.fixture(scope="module")
def registry(tiny_context) -> ModelRegistry:
    return ModelRegistry.from_context(tiny_context, methods=("tea",))


@pytest.fixture(scope="module")
def fleet(registry):
    """Two live replicas behind one front router."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=2, queue_depth=16)
        ).start()
        for _ in range(2)
    ]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{replica.port}" for replica in replicas),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    try:
        yield front, replicas
    finally:
        front.close()
        for replica in replicas:
            replica.close()


@pytest.fixture(scope="module")
def client(fleet) -> ServeClient:
    front, _ = fleet
    return ServeClient(port=front.port, timeout=120.0)


def _direct(registry, **kwargs) -> EvalRequest:
    kwargs.setdefault("dataset", registry.dataset("test"))
    return EvalRequest(model=registry.model("tea"), **kwargs)


def _replica_received(replicas):
    return [
        ServeClient(port=replica.port, timeout=30.0).metrics()["requests"][
            "received"
        ]
        for replica in replicas
    ]


def _post_raw(port, payload):
    """``POST /v1/evaluate``; the raw ``(status, headers, body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        connection.request(
            "POST",
            "/v1/evaluate",
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _wait_queue_depth(port, depth):
    settled = threading.Event()
    for _ in range(200):
        metrics = ServeClient(port=port, timeout=30.0).metrics()
        if metrics["requests"]["queue_depth"] == depth:
            return
        settled.wait(0.05)
    raise AssertionError(f"replica on port {port} never queued {depth} jobs")


def assert_fleet_invariants(fleet_requests):
    assert (
        fleet_requests["received"]
        == fleet_requests["admitted"] + fleet_requests["rejected"]
    )
    assert fleet_requests["admitted"] == (
        fleet_requests["completed"]
        + fleet_requests["failed"]
        + fleet_requests["in_flight"]
    )


# ----------------------------------------------------------------------
# routing correctness
# ----------------------------------------------------------------------
def test_routed_result_bit_identical_to_direct_session(registry, client):
    served = client.evaluate(
        model="tea", copy_levels=[1, 2], spf_levels=[1, 2], repeats=2, seed=0
    )
    direct = Session(cache=ScoreCache()).evaluate(
        _direct(registry, copy_levels=(1, 2), spf_levels=(1, 2), repeats=2, seed=0)
    )
    assert served.backend == direct.backend
    assert np.array_equal(served.scores, direct.scores)
    assert np.array_equal(served.accuracy, direct.accuracy)
    assert np.array_equal(served.labels, direct.labels)


def test_routed_chip_result_bit_identical_including_counters(registry, client):
    served = client.evaluate(
        model="tea",
        copy_levels=[1, 2],
        spf_levels=[2],
        seed=0,
        collect_spike_counters=True,
        max_samples=16,
    )
    direct = Session().evaluate(
        _direct(
            registry,
            copy_levels=(1, 2),
            spf_levels=(2,),
            seed=0,
            collect_spike_counters=True,
            max_samples=16,
        )
    )
    assert served.backend == "chip"
    assert np.array_equal(served.class_counts(), direct.class_counts())
    assert np.array_equal(served.spike_counters, direct.spike_counters)


def test_front_forwards_replica_bodies_byte_for_byte(fleet, client):
    front, _ = fleet
    home = client.fleet()["assignments"]["tea"]
    payload = {"model": "tea", "copy_levels": [1, 2], "spf_levels": [1], "seed": 12}
    status, _, routed = _post_raw(front.port, payload)
    home_status, _, direct = _post_raw(int(home.rsplit(":", 1)[1]), payload)
    assert status == home_status == 200
    assert routed == direct


def test_same_model_requests_stick_to_one_replica(fleet, client):
    """Consistent routing is the journal-affinity mechanism: one model's
    traffic lands on one home replica, so that replica's journal holds the
    model's whole history."""
    front, _ = fleet
    before = {
        entry["name"]: entry["proxied"]
        for entry in client.fleet()["replicas"]
    }
    for seed in (201, 202):
        client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=seed)
    after = {
        entry["name"]: entry["proxied"]
        for entry in client.fleet()["replicas"]
    }
    grew = [name for name in after if after[name] > before[name]]
    assert len(grew) == 1
    assert grew[0] == client.fleet()["assignments"]["tea"]


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------
def test_healthz_counts_replicas(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["replicas"] == 2
    assert health["healthy"] == 2


def test_models_is_the_fleet_union(client):
    listing = client.models()
    assert "tea" in [entry["name"] for entry in listing["models"]]
    assert "test" in [entry["name"] for entry in listing["datasets"]]


def test_fleet_endpoint_reports_ring_and_assignments(fleet, client):
    front, replicas = fleet
    view = client.fleet()
    expected = {f"127.0.0.1:{replica.port}" for replica in replicas}
    assert set(view["ring"]) == expected
    assert {entry["name"] for entry in view["replicas"]} == expected
    assert all(entry["healthy"] for entry in view["replicas"])
    # The hosted model is fingerprinted and assigned to a ring member.
    assert "tea" in view["model_fingerprints"]
    assert view["assignments"]["tea"] in expected


def test_metrics_aggregates_fleet_counters_and_latency(fleet, client):
    front, replicas = fleet
    client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=301)
    metrics = client.metrics()
    fleet_block = metrics["fleet"]
    assert fleet_block["replicas"] == 2
    assert fleet_block["healthy"] == 2
    assert_fleet_invariants(fleet_block["requests"])
    # The summed counters equal the sum of what each replica reports.
    assert fleet_block["requests"]["received"] == sum(
        _replica_received(replicas)
    )
    # The merged percentile comes from the union of replica windows.
    p50, p95 = (
        fleet_block["latency_p50_seconds"],
        fleet_block["latency_p95_seconds"],
    )
    assert p50 is not None and p95 is not None and p50 <= p95
    merged = sorted(
        sample
        for replica in replicas
        for sample in replica.service.admission.latencies.samples()
    )
    assert p95 in merged
    # Front-side counters conserve too: received == routed + shed + unavailable.
    front_block = metrics["front"]
    assert front_block["received"] == (
        front_block["routed"] + front_block["shed"] + front_block["unavailable"]
    )
    assert front_block["routed"] >= 1
    # Per-replica controller state is exposed per replica, not merged.
    assert set(metrics["controllers"]) == {
        f"127.0.0.1:{replica.port}" for replica in replicas
    }
    assert "POST /v1/evaluate 200" in metrics["http"]


# ----------------------------------------------------------------------
# typed errors at the front
# ----------------------------------------------------------------------
def test_validation_400_is_answered_without_touching_a_backend(fleet, client):
    front, replicas = fleet
    before = _replica_received(replicas)
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate_payload({"model": "tea", "copy_level": [1]})
    assert excinfo.value.status == 400
    assert _replica_received(replicas) == before


def test_unknown_model_404_passes_through_from_the_replica(client):
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate(model="nope")
    assert excinfo.value.status == 404
    assert excinfo.value.error_type == "unknown-model"


def test_unknown_route_is_a_404(client):
    with pytest.raises(ServeError) as excinfo:
        client._call("GET", "/v2/evaluate")
    assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# failure paths (dedicated fleets: these kill and saturate replicas)
# ----------------------------------------------------------------------
def test_replica_kill_mid_burst_is_absorbed_by_failover(registry):
    """Kill the model's home replica mid-burst: every request must still
    succeed (zero client-visible 5xx) and stay bit-identical, the dead
    replica must be ejected, and a restarted replica must rejoin."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=2, queue_depth=16)
        ).start()
        for _ in range(2)
    ]
    ports = [replica.port for replica in replicas]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{port}" for port in ports),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=120.0)
    session = Session(cache=ScoreCache())
    try:
        served = {}
        for seed in range(3):
            served[seed] = client.evaluate(
                model="tea", copy_levels=[1], spf_levels=[1, 2], seed=seed
            )
        primary = client.fleet()["assignments"]["tea"]
        victim_index = ports.index(int(primary.rsplit(":", 1)[1]))
        replicas[victim_index].close()

        # The burst continues right through the kill: the first request to
        # hit the dead socket fails over within the same call.
        for seed in range(3, 6):
            served[seed] = client.evaluate(
                model="tea", copy_levels=[1], spf_levels=[1, 2], seed=seed
            )
        for seed, result in served.items():
            direct = session.evaluate(
                _direct(registry, copy_levels=(1,), spf_levels=(1, 2), seed=seed)
            )
            assert np.array_equal(result.scores, direct.scores)
            assert np.array_equal(result.accuracy, direct.accuracy)

        view = client.fleet()
        dead = {entry["name"]: entry for entry in view["replicas"]}[primary]
        assert not dead["healthy"]
        assert dead["ejections"] >= 1
        assert view["assignments"]["tea"] != primary
        assert client.health()["healthy"] == 1

        # Restart the victim on its old port: the poller must rejoin it
        # and rendezvous hashing must restore the original assignment.
        replicas[victim_index] = EvalServer(
            registry,
            ServeConfig(port=ports[victim_index], workers=2, queue_depth=16),
        ).start()
        rejoined = threading.Event()
        for _ in range(100):
            if client.health()["healthy"] == 2:
                break
            rejoined.wait(0.1)
        assert client.health()["healthy"] == 2
        assert client.fleet()["assignments"]["tea"] == primary
        result = client.evaluate(
            model="tea", copy_levels=[1], spf_levels=[1, 2], seed=0
        )
        assert np.array_equal(result.scores, served[0].scores)
    finally:
        front.close()
        for replica in replicas:
            replica.close()


def test_fleet_saturation_sheds_429_before_any_backend_socket(registry):
    """Both replicas full (workers=0 freezes the pools): the front answers
    429 from its polled drain state, and the replicas' own ``received``
    counters prove no backend connection was made for the shed request."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=0, queue_depth=1)
        ).start()
        for _ in range(2)
    ]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{replica.port}" for replica in replicas),
        poll_interval=0.1,
        request_timeout=60.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=60.0)
    hung = []
    try:
        # Fill each replica's bounded queue directly (not via the front,
        # so the front's own counters stay clean for the assertion).
        def fire(port, seed):
            try:
                ServeClient(port=port, timeout=60.0).evaluate(
                    model="tea", seed=seed
                )
            except ServeError:
                pass

        for index, replica in enumerate(replicas):
            thread = threading.Thread(target=fire, args=(replica.port, index))
            thread.start()
            hung.append(thread)
        for replica in replicas:
            _wait_queue_depth(replica.port, 1)

        front.service.refresh()  # pick up the saturated drain snapshots
        before = _replica_received(replicas)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.evaluate(model="tea", seed=99)
        assert 1.0 <= excinfo.value.retry_after <= 60.0
        # The shed request never reached a backend: replica counters flat.
        assert _replica_received(replicas) == before
        front_block = client.metrics()["front"]
        assert front_block["shed"] >= 1
    finally:
        front.close()
        for replica in replicas:
            replica.close()
        for thread in hung:
            thread.join(timeout=30)
    assert all(not thread.is_alive() for thread in hung)


def test_per_replica_429_spills_to_the_next_preference(registry):
    """One replica saturated, the other idle: the front must spill the
    request to the next replica in preference order instead of bouncing
    the client — the fleet has capacity, so the client gets a 200."""
    # Primary discovery first: build the fleet, find tea's home, then
    # saturate only that home.
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=0, queue_depth=1)
        ).start()
        for _ in range(2)
    ]
    ports = [replica.port for replica in replicas]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{port}" for port in ports),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=120.0)
    hung = []
    try:
        primary = client.fleet()["assignments"]["tea"]
        primary_index = ports.index(int(primary.rsplit(":", 1)[1]))
        spare_index = 1 - primary_index
        # Restart the spare with workers so it can actually serve.
        replicas[spare_index].close()
        replicas[spare_index] = EvalServer(
            registry,
            ServeConfig(port=ports[spare_index], workers=2, queue_depth=16),
        ).start()
        ready = threading.Event()
        for _ in range(100):
            if client.health()["healthy"] == 2:
                break
            ready.wait(0.1)
        assert client.health()["healthy"] == 2

        def fire():
            try:
                ServeClient(port=ports[primary_index], timeout=60.0).evaluate(
                    model="tea", seed=0
                )
            except ServeError:
                pass

        thread = threading.Thread(target=fire)
        thread.start()
        hung.append(thread)
        _wait_queue_depth(ports[primary_index], 1)

        result = client.evaluate(
            model="tea", copy_levels=[1], spf_levels=[1], seed=77
        )
        assert result.seed == 77  # served by the spare, not bounced
        spare_received = _replica_received([replicas[spare_index]])[0]
        assert spare_received >= 1
    finally:
        front.close()
        for replica in replicas:
            replica.close()
        for thread in hung:
            thread.join(timeout=30)


def test_replica_429_reaches_the_client_with_retry_after(registry):
    """The only replica saturates after the front's last poll, so the front
    proxies and the replica sheds: its 429 body and its ``Retry-After``
    header reach the client unchanged."""
    replica = EvalServer(registry, ServeConfig(port=0, workers=0, queue_depth=1))
    replica.start()
    config = FrontConfig(
        port=0,
        replicas=(f"127.0.0.1:{replica.port}",),
        poll_interval=60.0,
        request_timeout=60.0,
    )
    front = FrontServer(config).start()

    def fire():
        try:
            ServeClient(port=replica.port, timeout=60.0).evaluate(model="tea")
        except ServeError:
            pass

    hung = threading.Thread(target=fire)
    try:
        hung.start()
        _wait_queue_depth(replica.port, 1)
        status, headers, body = _post_raw(front.port, {"model": "tea", "seed": 99})
        assert status == 429
        detail = json.loads(body)["error"]
        assert detail["type"] == "overloaded"
        assert headers["Retry-After"] == str(detail["retry_after"])
    finally:
        front.close()
        replica.close()
        hung.join(timeout=30)
    assert not hung.is_alive()


# ----------------------------------------------------------------------
# torn answers: a replica that hangs up mid-body
# ----------------------------------------------------------------------
class _TornHandler(BaseHTTPRequestHandler):
    """GETs answer from ``server.canned`` (a path missing there is torn);
    every ``POST`` promises 1000 body bytes, sends 11 and hangs up."""

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _answer(self, body, length):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        canned = self.server.canned.get(self.path)
        if canned is None:
            self._answer(b'{"status": ', 1000)
        else:
            body = json.dumps(canned).encode("utf-8")
            self._answer(body, len(body))

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._answer(b'{"result": ', 1000)


class _TornReplica(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, canned):
        super().__init__(("127.0.0.1", 0), _TornHandler)
        self.canned = canned
        self.port = self.server_address[1]
        self.name = f"127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def close(self):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=10)


@pytest.fixture
def torn_home(registry):
    """A healthy replica, and a torn one the ring makes the home of "tea"."""
    healthy = EvalServer(registry, ServeConfig(port=0, workers=2, queue_depth=16))
    healthy.start()
    direct = ServeClient(port=healthy.port, timeout=60.0)
    canned = {
        "/healthz": direct.health(),
        "/metrics": direct.metrics(),
        "/v1/models": direct.models(),
    }
    fingerprint = next(
        model_fingerprint(entry)
        for entry in canned["/v1/models"]["models"]
        if entry["name"] == "tea"
    )
    healthy_name = f"127.0.0.1:{healthy.port}"
    # Rendezvous weights hash "host:port": rebind until the torn one wins.
    for _ in range(64):
        torn = _TornReplica(canned)
        if ReplicaRing([torn.name, healthy_name]).route(fingerprint) == torn.name:
            break
        torn.close()
    try:
        yield torn, healthy
    finally:
        torn.close()
        healthy.close()


def test_torn_replica_answer_fails_over_and_is_ejected(torn_home):
    """The torn answer's ``IncompleteRead`` is no ``OSError``: it used to
    escape the proxy, kill the handler thread and drop the client socket."""
    torn, healthy = torn_home
    config = FrontConfig(
        port=0,
        replicas=(torn.name, f"127.0.0.1:{healthy.port}"),
        poll_interval=60.0,  # no re-poll: the ejection must come from the proxy
        request_timeout=60.0,
    )
    payload = {"model": "tea", "copy_levels": [1, 2], "spf_levels": [1], "seed": 41}
    with FrontServer(config) as front:
        client = ServeClient(port=front.port, timeout=60.0)
        assert client.fleet()["assignments"]["tea"] == torn.name
        status, _, routed = _post_raw(front.port, payload)
        assert status == 200
        assert routed == _post_raw(healthy.port, payload)[2]
        view = {entry["name"]: entry for entry in client.fleet()["replicas"]}
        assert not view[torn.name]["healthy"]
        assert view[torn.name]["ejections"] == 1
        assert view[torn.name]["proxy_failures"] == 1
        assert front.service.failovers == 1


def test_client_torn_answer_is_unavailable_then_falls_back(torn_home):
    torn, healthy = torn_home
    with pytest.raises(ServiceUnavailableError):
        ServeClient(port=torn.port, timeout=60.0).evaluate(model="tea", seed=42)
    fallback = [("127.0.0.1", healthy.port)]
    client = ServeClient(port=torn.port, timeout=60.0, fallbacks=fallback)
    served = client.evaluate(model="tea", seed=42)
    direct = ServeClient(port=healthy.port, timeout=60.0).evaluate(model="tea", seed=42)
    assert served.scores.tobytes() == direct.scores.tobytes()


def test_torn_probe_answer_is_a_failed_poll(torn_home):
    """A torn ``/healthz`` used to raise out of ``refresh`` and so end the
    poller thread; it must count as one failed probe."""
    torn, _ = torn_home
    torn.canned = {}
    service = FrontService(FrontConfig(replicas=(torn.name,), eject_after=1))
    service.refresh()
    assert service.health()["healthy"] == 0
