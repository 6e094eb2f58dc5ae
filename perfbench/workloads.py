"""The three workloads: ``serve-hot``, ``serve-churn`` and ``sweep-cold``.

Each workload owns its system under test (server children, or an
in-process :class:`repro.api.Session`), builds its request sequences from
the workload seed before any clock starts, and checks every answer:

* ``serve-hot`` compares every response, bit for bit, with a reference the
  benchmark computes in-process before the timed phases;
* ``serve-churn`` requires every response for one key to hash identically
  and re-evaluates a seeded sample of served keys in-process afterwards;
* ``sweep-cold`` requires the integer class counts of the vectorized, chip
  and board backends to agree for every seed, and pins the counts of fixed
  canary seeds to the digests in ``perfbench/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import statistics
import threading
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from perfbench import spec
from perfbench.hostprobe import HostProbe, host_ms
from perfbench.loadgen import Phase, closed_loop, open_loop, percentile, poisson_arrivals
from perfbench.procs import Child, peak_rss_mb, stop_all
from repro.api import EvalRequest, EvalResult, Session
from repro.eval.runner import ScoreCache
from repro.experiments.runner import ExperimentContext
from repro.serve import ServeClient, ServeError, ServiceOverloadedError

Key = Tuple[str, str, int, str]  # (model, backend, seed, grid variant)

WORKLOAD_IDS = {"serve-hot": 1, "serve-churn": 2, "sweep-cold": 3}
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def result_digest(result: EvalResult) -> str:
    """sha256 over every field of a result, arrays by dtype, shape and bytes."""
    digest = hashlib.sha256()
    digest.update(repr((result.backend, result.copy_levels, result.spf_levels,
                        result.seed, result.repeats)).encode())
    arrays = (
        np.asarray(result.scores, dtype=np.float64),
        np.asarray(result.accuracy, dtype=np.float64),
        np.asarray(result.labels, dtype=np.int64),
        np.asarray(result.class_neuron_counts, dtype=np.int64),
        np.asarray(result.cores, dtype=np.int64),
    )
    if result.spike_counters is not None:
        arrays += (np.asarray(result.spike_counters),)
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def sliced(result: EvalResult, copy_levels: Sequence[int], spf_levels: Sequence[int]) -> EvalResult:
    """The sub-grid of ``result`` (the benchmark's own slicing)."""
    rows = [result.copy_levels.index(c) for c in copy_levels]
    cols = [result.spf_levels.index(s) for s in spf_levels]
    return EvalResult(
        backend=result.backend,
        copy_levels=tuple(copy_levels),
        spf_levels=tuple(spf_levels),
        scores=result.scores[:, rows][:, :, cols],
        accuracy=result.accuracy[:, rows][:, :, cols],
        labels=result.labels,
        class_neuron_counts=result.class_neuron_counts,
        cores=np.asarray(result.cores)[rows],
        seed=result.seed,
        repeats=result.repeats,
        spike_counters=result.spike_counters,
    )


def counts_digest(result: EvalResult) -> str:
    return hashlib.sha256(result.class_counts().tobytes()).hexdigest()[:24]


class Models:
    """The benchmark's own in-process copy of the hosted models."""

    def __init__(self, config: spec.Config) -> None:
        context = ExperimentContext(
            testbench=config.testbench,
            train_size=config.train_size,
            test_size=config.test_size,
            epochs=config.epochs,
            eval_samples=config.eval_samples,
            seed=config.model_seed,
        )
        self.config = config
        self.models = {method: context.result(method).model for method in spec.METHODS}
        self.dataset = context.evaluation_dataset()

    def request(self, key: Key) -> EvalRequest:
        model, backend, seed, variant = key
        copy_levels, spf_levels = self.config.grid(variant)
        return EvalRequest(
            model=self.models[model],
            dataset=self.dataset,
            copy_levels=copy_levels,
            spf_levels=spf_levels,
            repeats=self.config.repeats,
            seed=seed,
            link_delay=spec.LINK_DELAY[backend],
        )


def zipf_draws(rng: np.random.Generator, count: int, exponent: float, size: int) -> np.ndarray:
    """``size`` indices into ``count`` items, Zipf-ranked in a seeded order."""
    order = rng.permutation(count)
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return order[rng.choice(count, size=size, p=weights / weights.sum())]


class Workload:
    """One workload: plan sequences, run phases, collect the numbers."""

    name = ""
    #: callers (connections) of the closed and open loops
    workers = 2

    def __init__(self, root: str, rundir: str, config: spec.Config, seed: int,
                 log: Callable[[str], None]) -> None:
        self.root = root
        self.rundir = rundir
        self.config = config
        self.seed = seed
        self.log = log
        self.rng = np.random.default_rng([WORKLOAD_IDS[self.name], seed])
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.deltas: Dict[str, float] = {}
        #: median host probe time over the measured phases (see hostprobe)
        self.host_ms = 0.0
        #: span files the traced children write, and child boot times.
        self.spans_paths: List[str] = []
        self.boot_s: Dict[str, List[float]] = {}

    # subclasses provide these -----------------------------------------
    def prepare(self) -> None:
        """Work that must precede the timed phases but not count in them."""

    def launch(self, traced: bool) -> float:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def call(self, worker: int, item: object) -> str:
        raise NotImplementedError

    def items(self, phase: str, count: int) -> List[Tuple[str, object]]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    def teardown(self, graceful: bool) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def after(self) -> None:
        """Correctness checks that run after the timed phases."""

    def ring(self) -> Dict[str, object]:
        """Which replica the front homes each model on (serve-hot only)."""
        return {}

    # ------------------------------------------------------------------
    def account(self, phases: Sequence[Phase]) -> None:
        for phase in phases:
            self.attempted += len(phase.outcomes)
            self.failed += sum(1 for outcome in phase.outcomes if outcome.status != "ok")

    def run_phases(self, seconds: float) -> List[Phase]:
        """``spec.ROUNDS`` rounds of the capacity, r1 and r2 phases.

        Interleaving the rounds spreads every metric over the whole run, so
        a transient slowdown of the machine touches one round of each
        metric instead of all of one metric.  All sequences are built
        before the first clock starts.  Arrival times come from fixed-seed
        Poisson processes: the workload seed varies what is asked, not
        when, so runs on different seeds share one arrival pattern
        (common random numbers) instead of each drawing its own bursts.
        """
        rates = dict(zip(("r1", "r2"), self.config.rate(self.name)))
        plans: List[list] = []
        for round_index in range(spec.ROUNDS):
            plan = []
            for name, share in spec.PHASE_SHARES:
                duration = seconds * share / spec.ROUNDS
                if name == "capacity":
                    plan.append((name, self.items(name, 20000), duration))
                    continue
                arrivals_rng = np.random.default_rng(
                    [WORKLOAD_IDS[self.name], round_index, int(name[1])]
                )
                arrivals = poisson_arrivals(arrivals_rng, rates[name], duration)
                plan.append((name, self.items(name, len(arrivals)), arrivals))
            plans.append(plan)
        phases: List[Phase] = []
        self.deltas = {}
        probe = HostProbe(self.root)
        try:
            for plan in plans:
                for name, items, schedule in plan:
                    before = self.counters()
                    if name == "capacity":
                        phase = closed_loop(name, items, self.call, self.workers, schedule)
                    else:
                        phase = open_loop(name, items, schedule, self.call, self.workers)
                    after = self.counters()
                    phase.counters = {key: after[key] - before.get(key, 0.0) for key in after}
                    for key, value in phase.counters.items():
                        self.deltas[key] = self.deltas.get(key, 0.0) + value
                    phases.append(phase)
        finally:
            samples = probe.stop()
        self.host_ms = host_ms(samples, [(phase.start, phase.end) for phase in phases])
        with open(os.path.join(self.rundir, "probe.json"), "w", encoding="utf-8") as handle:
            json.dump(samples, handle)
        self.account(phases)
        for phase in phases:
            deltas = " ".join(f"{key}={value:g}" for key, value in sorted(phase.counters.items()))
            self.log(f"phase {phase.name}: {phase.summary()} lag_p95_ms={phase.lag_ms():.2f}"
                     f" {deltas}")
        return phases


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """HTTP load through ``repro-serve`` children from 2 client threads."""

    front = False
    replicas = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.children: List[Child] = []
        self.replica_ports: List[int] = []
        self.port = 0
        self.clients: List[ServeClient] = []
        self._lock = threading.Lock()

    def payload(self, key: Key) -> Dict[str, object]:
        model, backend, seed, variant = key
        copy_levels, spf_levels = self.config.grid(variant)
        return {
            "model": model,
            "dataset": "test",
            "backend": backend,
            "copy_levels": list(copy_levels),
            "spf_levels": list(spf_levels),
            "repeats": self.config.repeats,
            "seed": seed,
            "encoder": "stochastic",
            "max_samples": None,
            "collect_spike_counters": False,
            "router_delay": None,
            "stochastic_synapses": False,
            "link_delay": spec.LINK_DELAY[backend],
        }

    def _wait_healthy(self, port: int, replicas: Optional[int] = None) -> None:
        client = ServeClient(port=port, timeout=5.0)
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            try:
                health = client.health()
                if health.get("status") == "ok" and (
                    replicas is None or health.get("healthy") == replicas
                ):
                    return
            except ServeError:
                pass
            sleep(0.01)
        raise RuntimeError(f"service on port {port} never became healthy")

    def launch(self, traced: bool) -> float:
        start = perf_counter()

        def spans(name: str) -> Optional[str]:
            if not traced:
                return None
            path = os.path.join(self.rundir, f"spans-{name}.json")
            self.spans_paths.append(path)
            return path

        replicas = [
            Child(self.root, self.rundir, f"replica{index}",
                  ["--port", str(spec.REPLICA_PORT + index), *self.config.serve_args()],
                  spans(f"replica{index}"))
            for index in range(self.replicas)
        ]
        self.children.extend(replicas)
        self.replica_ports = []
        for index, child in enumerate(replicas):
            try:
                self.replica_ports.append(child.wait_ready())
            except RuntimeError:
                if "Address already in use" not in child.tail():
                    raise
                # The ring hashes "host:port", so another port may home the
                # models differently; the run still works and logs the ring.
                self.log(f"port {spec.REPLICA_PORT + index} is taken; using an ephemeral port")
                child.reap()
                replicas[index] = Child(self.root, self.rundir, f"replica{index}",
                                        ["--port", "0", *self.config.serve_args()],
                                        spans(f"replica{index}"))
                self.children[self.children.index(child)] = replicas[index]
                self.replica_ports.append(replicas[index].wait_ready())
        for port in self.replica_ports:
            self._wait_healthy(port)
        self.port = self.replica_ports[0]
        if self.front:
            addresses = ",".join(f"127.0.0.1:{port}" for port in self.replica_ports)
            front = Child(self.root, self.rundir, "front",
                          ["front", "--port", "0", "--replicas", addresses], spans("front"))
            self.children.append(front)
            self.port = front.wait_ready()
            self._wait_healthy(self.port, replicas=self.replicas)
        elapsed = perf_counter() - start
        for child in self.children:
            self.boot_s.setdefault(child.role, []).append(child.ready_s or 0.0)
        self.clients = [
            ServeClient(port=self.port, timeout=self.config.client_timeout)
            for _ in range(self.workers)
        ]
        return elapsed

    def teardown(self, graceful: bool) -> None:
        stop_all(self.children, graceful)

    def peak_rss_mb(self) -> float:
        return sum(child.peak_rss_mb() for child in self.children)

    def ring(self) -> Dict[str, object]:
        if not self.front:
            return {}
        return dict(ServeClient(port=self.port, timeout=10.0).fleet()["assignments"])

    def counters(self) -> Dict[str, float]:
        """Sums of the replicas' ``/metrics`` counters."""
        totals: Dict[str, float] = {}
        for port in self.replica_ports:
            metrics = ServeClient(port=port, timeout=10.0).metrics()
            values = {
                "memo_hits": metrics["memo"]["hits"],
                "memo_misses": metrics["memo"]["misses"],
                "engine_passes": metrics["sessions"]["engine_passes"],
                "coalesced": metrics["sessions"]["coalesced_requests"],
                "received": metrics["requests"]["received"],
                "rejected": metrics["requests"]["rejected"],
                "completed": metrics["requests"]["completed"],
                "failed": metrics["requests"]["failed"],
            }
            for key, value in values.items():
                totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    def send(self, worker: int, key: Key) -> Tuple[str, Optional[str]]:
        """One request; ``(status, digest of the answer)``."""
        try:
            result = self.clients[worker].evaluate_payload(self.payload(key))
        except ServiceOverloadedError:
            return "shed", None
        except ServeError as error:
            if error.status == 504 or isinstance(error.__cause__, (socket.timeout, TimeoutError)):
                return "timeout", None
            return "failed", None
        except Exception:  # noqa: BLE001 - any other failure is a failed request
            return "failed", None
        return "ok", result_digest(result)

    def warm_keys(self, keys: Sequence[Key]) -> None:
        """Send ``keys`` once through both client threads (untimed)."""
        phase = closed_loop("warm", [(key[1], key) for key in keys], self.call,
                            self.workers, 3600.0)
        self.account([phase])
        self.log(f"phase warm: {phase.summary()}")


class ServeHot(ServeWorkload):
    name = "serve-hot"
    front = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.replicas = self.config.replicas
        self.base = [
            (model, backend, seed)
            for model in spec.METHODS
            for backend in spec.BACKENDS
            for seed in range(self.config.hot_seeds)
        ]
        self.reference: Dict[Key, str] = {}

    def prepare(self) -> None:
        """In-process reference digests for every key (outside ``setup_s``)."""
        models = Models(self.config)
        session = Session()
        copy_levels, spf_levels = self.config.grid("sub")
        for model, backend, seed in self.base:
            full = session.evaluate(models.request((model, backend, seed, "full")), backend=backend)
            self.reference[(model, backend, seed, "full")] = result_digest(full)
            self.reference[(model, backend, seed, "sub")] = result_digest(
                sliced(full, copy_levels, spf_levels)
            )

    def items(self, phase: str, count: int) -> List[Tuple[str, object]]:
        # Every 9 requests ask each backend twice for the full grid and once
        # for the sub-grid, in a seeded order, and Zipf draws the (model,
        # seed).  A full grid costs several times a sub-grid, so a drawn mix
        # would move every metric from seed to seed, and an even split would
        # put the median on the gap between them.  A fixed order would let
        # the two closed-loop connections overlap the same backends with the
        # same request sizes for a whole run.  Sub-grid requests are
        # labelled apart so that the latency metrics read full grids only.
        slots = [(backend, variant) for backend in spec.BACKENDS
                 for variant in ("full", "full", "sub")]
        pairs = [(model, seed) for model in spec.METHODS for seed in range(self.config.hot_seeds)]
        draws = zipf_draws(self.rng, len(pairs), self.config.hot_zipf, count)
        items: List[Tuple[str, object]] = []
        for position, index in enumerate(draws):
            if position % len(slots) == 0:
                order = self.rng.permutation(len(slots))
            backend, variant = slots[order[position % len(slots)]]
            model, seed = pairs[index]
            label = backend if variant == "full" else f"{backend}/sub"
            items.append((label, (model, backend, seed, variant)))
        return items

    def warm(self) -> None:
        self.warm_keys(
            [base + ("full",) for base in self.base] + [base + ("sub",) for base in self.base]
        )

    def call(self, worker: int, key: Key) -> str:  # type: ignore[override]
        status, digest = self.send(worker, key)
        if status == "ok" and digest != self.reference[key]:
            return "mismatch"
        return status


class ServeChurn(ServeWorkload):
    name = "serve-churn"
    variants = ("full", "sub", "small")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.base = [
            (model, backend, seed)
            for model in spec.METHODS
            for backend in spec.BACKENDS
            for seed in range(self.config.churn_seeds)
        ]
        self.served: Dict[Key, str] = {}

    def items(self, phase: str, count: int) -> List[Tuple[str, object]]:
        # Zipf over (model, backend, seed); the grid variant cycles so each
        # stretch of requests carries the same mix of grid sizes.
        draws = zipf_draws(self.rng, len(self.base), self.config.churn_zipf, count)
        return [
            (self.base[index][1], self.base[index] + (self.variants[position % 3],))
            for position, index in enumerate(draws)
        ]

    def warm(self) -> None:
        self.warm_keys([key for _, key in self.items("warm", self.config.churn_warmup)])

    def call(self, worker: int, key: Key) -> str:  # type: ignore[override]
        status, digest = self.send(worker, key)
        if status != "ok":
            return status
        with self._lock:
            first = self.served.setdefault(key, digest or "")
        return "ok" if first == digest else "mismatch"

    def after(self) -> None:
        """Re-evaluate a seeded sample of served keys in-process (atol=0)."""
        served = sorted(self.served)
        if not served:
            self.failures.append("serve-churn served no key")
            return
        picks = self.rng.choice(len(served), size=min(len(served), self.config.churn_recheck),
                                replace=False)
        models = Models(self.config)
        session = Session()
        for index in picks:
            key = served[int(index)]
            result = session.evaluate(models.request(key), backend=key[1])
            self.attempted += 1
            if result_digest(result) != self.served[key]:
                self.failed += 1
                self.failures.append(f"served {key} differs from in-process evaluation")
        self.log(f"recheck: {len(picks)} served keys re-evaluated in-process")


# ----------------------------------------------------------------------
# in-process sweep
# ----------------------------------------------------------------------
class SweepCold(Workload):
    """One caller, a fresh seed per iteration, every backend per seed."""

    name = "sweep-cold"
    workers = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.models: Optional[Models] = None
        self.session: Optional[Session] = None
        self.pending: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
        self.next_seed = 1_000_000 + 10_000_000 * self.seed
        #: CPUs this process may run on before ``warm`` pinned it to one
        self.affinity: Set[int] = set()

    def launch(self, traced: bool) -> float:
        start = perf_counter()
        self.models = Models(self.config)
        self.session = Session(cache=ScoreCache())
        return perf_counter() - start

    def evaluate(self, model: str, backend: str, seed: int, session: Session) -> EvalResult:
        assert self.models is not None
        return session.evaluate(self.models.request((model, backend, seed, "full")),
                                backend=backend)

    def warm(self) -> None:
        # The one caller keeps one CPU busy, and the shared host's cores
        # differ in how busy their neighbours keep them.  Pinned to one CPU,
        # the sweep runs where the host probe (a child process, which
        # inherits the affinity) measures.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.affinity)})
        assert self.session is not None
        for backend in spec.BACKENDS:
            self.evaluate(spec.METHODS[0], backend, 0, self.session)

    def items(self, phase: str, count: int) -> List[Tuple[str, object]]:
        items: List[Tuple[str, object]] = []
        while len(items) < count:
            seed = self.next_seed
            self.next_seed += 1
            for model in spec.METHODS:
                for backend in spec.BACKENDS:
                    items.append((backend, (model, backend, seed)))
        return items[:count]

    def call(self, worker: int, item: Tuple[str, str, int]) -> str:  # type: ignore[override]
        model, backend, seed = item
        assert self.session is not None
        try:
            counts = self.evaluate(model, backend, seed, self.session).class_counts()
        except Exception:  # noqa: BLE001 - any failure is a failed request
            return "failed"
        group = self.pending.setdefault((model, seed), {})
        group[backend] = counts
        if len(group) < len(spec.BACKENDS):
            return "ok"
        del self.pending[(model, seed)]
        first = group[spec.BACKENDS[0]]
        if all(np.array_equal(first, other) for other in group.values()):
            return "ok"
        self.failures.append(f"class counts differ across backends for {model} seed {seed}")
        return "mismatch"

    def counters(self) -> Dict[str, float]:
        assert self.session is not None
        stats = self.session.stats()
        return {
            "engine_passes": float(stats["engine_passes"]),
            "coalesced": float(stats["coalesced_requests"]),
            "memo_hits": 0.0,
            "memo_misses": 0.0,
        }

    def teardown(self, graceful: bool) -> None:
        self.session = None
        if self.affinity:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = set()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb("self")

    def canary_digests(self) -> Dict[str, str]:
        digests = {}
        session = Session()
        for seed in self.config.canary_seeds:
            for model in spec.METHODS:
                for backend in spec.BACKENDS:
                    result = self.evaluate(model, backend, seed, session)
                    digests[f"{model}/{backend}/{seed}"] = counts_digest(result)
        return digests

    def after(self) -> None:
        """Canary seeds must reproduce the digests recorded at the seed."""
        if not self.config.canary_seeds:
            return
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)["class_counts"]
        for name, digest in self.canary_digests().items():
            self.attempted += 1
            if pinned.get(name) != digest:
                self.failed += 1
                self.failures.append(f"canary {name}: class counts digest {digest} "
                                     f"!= pinned {pinned.get(name)}")
        self.log(f"canaries: {len(self.config.canary_seeds)} seeds x "
                 f"{len(spec.METHODS)} models x {len(spec.BACKENDS)} backends checked")


WORKLOADS = {cls.name: cls for cls in (ServeHot, ServeChurn, SweepCold)}


def end_to_end(phases: Sequence[Phase], setups: Sequence[float], rss_mb: float,
               host_ms: float) -> Dict[str, float]:
    """The end-to-end metrics over every round, scaled to the reference host.

    Latency percentiles pool the full-grid requests of all rounds of their
    phase (``serve-hot`` labels its sub-grid requests ``<backend>/sub``:
    they add load, are checked and counted, and a percentile over the two
    sizes would sit on the edge of the full-grid mode and move with every
    queueing delay).  ``capacity_rps`` is the closed loop's completed
    requests over its total time, and ``grid_ms.<backend>`` is the median
    closed-loop time of one full grid on that backend.  Every timed metric
    is scaled to the reference host speed by the host probe (see
    ``hostprobe``); its measured value is kept as ``raw.<name>``.
    """

    def pooled(name: str, labels: Sequence[str] = spec.BACKENDS) -> List[float]:
        return [ms for phase in phases if phase.name == name for label in labels
                for ms in phase.latencies_ms(label)]

    raw = {}
    for name in ("r1", "r2"):
        raw[f"p50_ms.{name}"] = percentile(pooled(name), 0.50)
        raw[f"p95_ms.{name}"] = percentile(pooled(name), 0.95)
    capacity = [phase for phase in phases if phase.name == "capacity"]
    raw["capacity_rps"] = sum(phase.count("ok") for phase in capacity) / max(
        sum(phase.end - phase.start for phase in capacity), 1e-9)
    for backend in spec.BACKENDS:
        raw[f"grid_ms.{backend}"] = percentile(pooled("capacity", (backend,)), 0.50)
    speed = spec.HOST_REFERENCE_MS / host_ms
    metrics = {"setup_s": statistics.median(setups)}
    for name, value in raw.items():
        metrics[name] = value / speed if name.endswith("_rps") else value * speed
        metrics[f"raw.{name}"] = value
    metrics["rss_mb"] = rss_mb
    metrics["host.probe_ms"] = host_ms
    return metrics
