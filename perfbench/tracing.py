"""Spans around calls into each layer's public functions, from outside.

Nothing here edits ``repro``: :func:`install` replaces functions at their
import sites (``repro.api.backends.build_corelets``) and methods on their
classes (``ChipBackend.evaluate``) with timing wrappers, and
:meth:`Recorder.uninstall` puts the originals back.  A span is the tuple
``(span_id, parent_id, name, start, end, thread, request_id, attrs)``;
parents are the enclosing wrapped call on the same thread, and spans stay
in memory until :meth:`Recorder.dump` writes them out.  Times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans of the benchmark, the front and the replicas share one
time axis.

Requests are linked across threads by ``EvalRequest`` identity: the
replica's ``EvalService.enqueue`` registers the job's request under the
handler's request id, and the worker's ``Session.submit`` of that request
closes an ``admission.wait`` span carrying the same id.  Across processes
the front's and the replica's spans of one request are joined by a digest
of the wire payload plus time containment (see :func:`match_proxied`).
"""

from __future__ import annotations

import hashlib
import http.client
import importlib
import itertools
import json
import statistics
import threading
import types
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int, int, Optional[dict]]
Hook = Callable[[tuple, dict, object], Optional[dict]]


def payload_key(payload: object) -> str:
    """A short digest of one wire payload, stable across processes."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


class Recorder:
    """In-memory span store plus the installed wrappers of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        #: id(EvalRequest) -> (request id, enqueue return time)
        self._enqueued: Dict[int, Tuple[int, float]] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        function: Callable,
        name: str,
        pre: Optional[Callable[[tuple, dict], Optional[dict]]] = None,
        post: Optional[Hook] = None,
        root: bool = False,
    ) -> Callable:
        """``function`` timed as span ``name``.

        ``pre``/``post`` return extra attributes from the arguments (and the
        result); ``root`` starts a new request id instead of inheriting it.
        """
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent, request = (stack[-1][0], stack[-1][1]) if stack else (0, 0)
            if root:
                request = next(recorder._request_ids)
            span_id = next(recorder._ids)
            attrs = pre(args, kwargs) if pre is not None else None
            stack.append([span_id, request])
            start = perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as error:
                attrs = dict(attrs or {}, error=type(error).__name__)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if post is not None:
                    extra = post(args, kwargs, result)
                    if extra:
                        attrs = dict(attrs or {}, **extra)
                recorder.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), request, attrs)
                )

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def emit(self, name: str, start: float, end: float, parent: int, request: int) -> None:
        """Record a span that no single call delimits (a wait)."""
        self.spans.append(
            (next(self._ids), parent, name, start, end, threading.get_ident(), request, None)
        )

    def patch(self, owner: object, attribute: str, name: str, **hooks) -> None:
        """Replace ``owner.attribute`` with a traced version of itself."""
        original = (
            owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        )
        setattr(owner, attribute, self.wrap(original, name, **hooks))
        self._installed.append((owner, attribute, original))

    def replace(self, owner: object, attribute: str, value: object) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`uninstall`."""
        self._installed.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest first)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "spans": self.spans}, handle)

    # ------------------------------------------------------------------
    # request linking across the replica's handler and worker threads
    # ------------------------------------------------------------------
    def _after_enqueue(self, args: tuple, kwargs: dict, job: object) -> None:
        if job is None:
            return None
        now = perf_counter()
        stack = self._stack()
        request = stack[-1][1] if stack else 0
        self._enqueued[id(job.request)] = (request, now)  # type: ignore[attr-defined]
        self._local.enqueued_at = now
        return None

    def _before_submit(self, args: tuple, kwargs: dict) -> None:
        request = args[1] if len(args) > 1 else kwargs.get("request")
        queued = self._enqueued.pop(id(request), None)
        if queued is not None:
            self.emit("admission.wait", queued[1], perf_counter(), -1, queued[0])
        return None

    def _before_encode(self, args: tuple, kwargs: dict) -> None:
        enqueued_at = getattr(self._local, "enqueued_at", None)
        stack = self._stack()
        if enqueued_at is not None and stack:
            self.emit("handler.wait", enqueued_at, perf_counter(), stack[-1][0], stack[-1][1])
            self._local.enqueued_at = None
        return None


def _json_shim(recorder: Recorder, prefix: str, post_loads: Optional[Hook] = None):
    """A stand-in ``json`` module whose dumps/loads are traced."""
    shim = types.SimpleNamespace(
        **{key: getattr(json, key) for key in dir(json) if not key.startswith("__")}
    )
    shim.dumps = recorder.wrap(json.dumps, f"{prefix}.json_dumps")
    shim.loads = recorder.wrap(json.loads, f"{prefix}.json_loads", post=post_loads)
    return shim


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer the recorder's role runs (see module docstring)."""
    role = recorder.role
    patch = recorder.patch
    module = importlib.import_module
    if role in ("replica", "sweep"):
        backends = module("repro.api.backends")
        runner = module("repro.eval.runner")
        session = module("repro.api.session")
        patch(module("repro.experiments.runner").ExperimentContext, "result", "setup.train",
              pre=lambda a, k: {"method": a[1] if len(a) > 1 else k.get("method")})
        patch(session.Session, "submit", "session.submit", pre=recorder._before_submit)
        patch(session.Session, "flush", "session.flush",
              pre=lambda a, k: {"jobs": len(a[0]._queue)})
        patch(backends.VectorizedBackend, "evaluate", "backend.vectorized")
        patch(backends.ChipBackend, "evaluate", "backend.chip")
        patch(backends.BoardBackend, "evaluate", "backend.board")
        patch(backends, "_evaluate_chip_level", "backend.chip_level")
        patch(backends, "_evaluate_board_pass", "backend.board_pass")
        patch(runner.SweepRunner, "cumulative_scores", "eval.cumulative_scores")
        patch(module("repro.eval.engine").VectorizedEvaluator, "evaluate_scores",
              "eval.evaluate_scores")
        patch(runner.ScoreCache, "get", "eval.score_cache.get",
              post=lambda a, k, r: {"hit": r is not None})
        for site in (backends, runner):
            patch(site, "build_corelets", "mapping.build_corelets")
            patch(site, "deploy_with_copies", "mapping.deploy")
        patch(backends, "program_chip_multicopy", "mapping.program_chip")
        patch(backends, "run_chip_inference_multicopy", "mapping.run_chip")
        patch(backends, "program_board_multicopy", "mapping.program_board")
        patch(backends, "run_board_inference_multicopy", "mapping.run_board",
              post=lambda a, k, r: {"link_spikes": a[0].fabric.spikes_carried})
        patch(module("repro.encoding.stochastic").StochasticEncoder, "encode", "encoding.encode")
        patch(module("repro.truenorth.chip").TrueNorthChip, "step_batch", "truenorth.chip_step")
        patch(module("repro.truenorth.core").NeurosynapticCore, "tick_batch",
              "truenorth.core_tick")
        crossbar = module("repro.truenorth.crossbar").SynapticCrossbar
        for method in ("integrate_batch", "integrate_multicopy", "integrate_multicopy_raw"):
            patch(crossbar, method, "truenorth.crossbar")
        router = module("repro.truenorth.router").SpikeRouter
        for method in ("submit_batch", "deliver_batch"):
            patch(router, method, "truenorth.router")
        patch(module("repro.board.board").Board, "step_batch", "board.step")
    if role in ("replica", "front"):
        handlers = module("repro.serve.handlers")
        patch(handlers._JsonHandler, "_read_json_body", "handler.read_body",
              post=lambda a, k, r: {"key": payload_key(r)})
        patch(handlers._JsonHandler, "_send_json", "handler.send")
        recorder.replace(handlers, "json", _json_shim(recorder, "handler"))
    if role == "replica":
        handlers = module("repro.serve.handlers")
        server = module("repro.serve.server")
        patch(handlers.ServeHandler, "do_POST", "handler.post", root=True)
        patch(handlers, "encode_result", "codec.encode_result", pre=recorder._before_encode)
        patch(server, "decode_request", "codec.decode_request")
        patch(server.EvalService, "enqueue", "server.enqueue", post=recorder._after_enqueue)
        patch(module("repro.serve.admission").AdmissionController, "submit", "admission.submit")
    if role == "front":
        handlers = module("repro.serve.handlers")
        front = module("repro.serve.front")
        patch(handlers.FrontHandler, "do_POST", "front.post", root=True)
        patch(front.FrontService, "evaluate", "front.evaluate",
              pre=lambda a, k: {"key": payload_key(a[1])})
        patch(front.FrontService, "_proxy_evaluate", "front.proxy")
        patch(front.FrontService, "refresh", "front.refresh")
        patch(front, "decode_request", "codec.decode_request")
        patch(http.client.HTTPConnection, "connect", "front.connect")
        recorder.replace(front, "json", _json_shim(recorder, "front"))
    if role == "client":
        client = module("repro.serve.client")
        patch(client.ServeClient, "evaluate_payload", "client.evaluate", root=True)
        patch(client, "decode_result", "client.decode_result")
        recorder.replace(
            client,
            "json",
            _json_shim(recorder, "client", post_loads=lambda a, k, r: {"chars": len(a[0])}),
        )
    return recorder


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanSet:
    """Spans of several processes, indexed for self time and ancestry.

    Processes are named ``"<role>:<pid>"``; span ids are unique per process.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Span]] = []
        self._by_name: Dict[str, List[Tuple[str, Span]]] = {}
        self._by_id: Dict[Tuple[str, int], Span] = {}
        self._children: Dict[Tuple[str, int], List[Span]] = {}

    def add(self, process: str, spans: Iterable[Sequence]) -> None:
        for raw in spans:
            span: Span = tuple(raw)  # type: ignore[assignment]
            self.spans.append((process, span))
            self._by_name.setdefault(span[2], []).append((process, span))
            self._by_id[(process, span[0])] = span
            if span[1] > 0:
                self._children.setdefault((process, span[1]), []).append(span)

    def select(
        self,
        name: str,
        roles: Optional[Sequence[str]] = None,
        windows: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> List[Tuple[str, Span]]:
        """Spans called ``name`` from processes whose role is in ``roles``
        that start inside one of ``windows``."""
        chosen = []
        for process, span in self._by_name.get(name, ()):
            if roles is not None and process.split(":")[0] not in roles:
                continue
            if windows is not None and not any(a <= span[3] <= b for a, b in windows):
                continue
            chosen.append((process, span))
        return chosen

    def children(self, process: str, span: Span) -> List[Span]:
        return self._children.get((process, span[0]), [])

    def self_time(self, process: str, span: Span) -> float:
        """Duration minus the time its child spans on the same thread cover."""
        covered = sum(child[4] - child[3] for child in self.children(process, span))
        return span[4] - span[3] - covered

    def has_ancestor(self, process: str, span: Span, name: str) -> bool:
        parent = span[1]
        while parent > 0:
            ancestor = self._by_id.get((process, parent))
            if ancestor is None:
                return False
            if ancestor[2] == name:
                return True
            parent = ancestor[1]
        return False


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def match_proxied(spans: SpanSet, windows: Sequence[Tuple[float, float]]) -> List[float]:
    """Front evaluate time minus the replica handler time of the same request.

    A replica ``handler.post`` belongs to a front ``front.evaluate`` when
    their payload digests agree and the replica span lies inside the front
    span; each replica span is used once.
    """
    replica_posts: Dict[str, List[Tuple[float, float, str, int]]] = {}
    for process, span in spans.select("handler.post", roles=("replica",)):
        for child in spans.children(process, span):
            if child[2] == "handler.read_body" and child[7]:
                replica_posts.setdefault(child[7]["key"], []).append(
                    (span[3], span[4], process, span[0])
                )
    used = set()
    overheads = []
    for _, span in spans.select("front.evaluate", roles=("front",), windows=windows):
        key = (span[7] or {}).get("key")
        for start, end, process, span_id in replica_posts.get(key, []):
            if span[3] <= start and end <= span[4] and (process, span_id) not in used:
                used.add((process, span_id))
                overheads.append((span[4] - span[3]) - (end - start))
                break
    return overheads
