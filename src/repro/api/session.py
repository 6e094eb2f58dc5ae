"""The serving facade: backend selection, caching, request coalescing.

:class:`Session` is the one object experiment drivers, examples, and the
future service front end talk to.  It owns

* **backend selection** — explicit (``Session(backend="chip")``) or by
  capability (``backend="auto"``: requests using a chip-only feature go to
  the cycle-accurate backend, everything else to the vectorized engine).
  A request the selected backend cannot serve raises
  :class:`~repro.api.protocol.UnsupportedRequestError` — never a silent
  fallback to a different backend.
* **the in-memory score cache** — threaded into the vectorized backend,
  so a long-running session re-serves repeated configurations from
  memory instead of re-evaluating.
* **request batching** — :meth:`submit` queues requests;
  :meth:`flush` groups queued requests that share one *coalescing key*
  (backend, model fingerprint, dataset fingerprint, seed, repeats,
  encoder, and the grid maxima) and serves each group with **one** engine
  pass over the union of the requested levels, slicing every request's
  sub-grid out of the shared cumulative tensors.

Coalescing never changes results: a request's scores are defined by the
evaluation at its own ``(max(copy_levels), max(spf_levels))`` — every
smaller level is a nested prefix of that pass — so only requests with
identical maxima share a pass, and the sliced results are bit-identical to
evaluating each request alone (the property tests assert it).  Requests
with ``seed=None`` ask for fresh entropy and are therefore never coalesced
(each must be an independent random sample) and never cached.

:class:`ResultMemo` extends the same determinism argument one level up:
it memoizes whole :class:`EvalResult` objects under the coalescing key,
for *every* backend — a repeated deterministic chip or board request is a
memo hit even though the cycle-accurate runners never touch a score
cache.  With ``cache_dir`` set the memo is the one persistent result
store: results are written through to disk, so sessions in other
processes or after a restart (``Session(result_memo=ResultMemo(
cache_dir=...))``) serve them without an engine pass.  The serving layer
shares one memo across its worker sessions, which is what lets a
restarted server answer a repeated burst without recomputation.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, cast

import numpy as np

from repro.api.backends import backend_names, create_backend
from repro.api.protocol import (
    BackendCapabilities,
    EvalRequest,
    EvalResult,
    EvaluationBackend,
)
from repro.eval.runner import ScoreCache, dataset_fingerprint, model_fingerprint

#: Sentinel for capability-based backend selection.
AUTO = "auto"

#: File-name prefix of the result store's entries.  Files of any other
#: prefix are neither read nor pruned: ``result-*.npz`` files may hold
#: float-summed functional scores, which the wire refuses to send, and
#: ``exact-*.npz`` files hold stochastic-synapse realizations from before
#: the LFSR copy seeds were drawn ahead of encoding.
_ENTRY_PREFIX = "v3-"


@dataclass
class PendingEvaluation:
    """Handle for a queued request; resolved by :meth:`Session.flush`."""

    request: EvalRequest
    backend_name: str
    _session: "Session" = field(repr=False)
    _result: Optional[EvalResult] = field(default=None, repr=False)
    _error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether the request has been served (or failed)."""
        return self._result is not None or self._error is not None

    def result(self) -> EvalResult:
        """The evaluation result, flushing the session's queue if needed.

        A request that failed (e.g. with
        :class:`~repro.api.protocol.UnsupportedRequestError`) re-raises its
        error here; failures never abort the other requests of a flush.
        """
        if not self.done:
            self._session.flush()
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RuntimeError("request was never served (flush did not reach it)")
        return self._result


@dataclass
class SessionStats:
    """Counters of what a session actually did.

    ``engine_passes`` counts evaluation passes the backends actually
    computed — cache-served requests are excluded when the backend exposes
    a ``passes`` counter.  ``coalesced_requests`` counts requests served by
    slicing another request's engine pass instead of running their own.

    The instance doubles as the session's stats *hook*: calling it
    (``session.stats()``) returns a plain-dict snapshot of the counters
    plus the score-cache telemetry aggregated over the session's
    instantiated backends — the shape the serving layer's ``/metrics``
    endpoint publishes.
    """

    submitted: int = 0
    flushes: int = 0
    engine_passes: int = 0
    coalesced_requests: int = 0
    _session: Optional["Session"] = field(
        default=None, repr=False, compare=False
    )

    def __call__(self) -> Dict[str, object]:
        """Snapshot of the counters plus aggregated cache telemetry.

        ``cache_hit_rate`` is ``None`` until at least one cacheable lookup
        happened (no traffic is not a 0% hit rate).
        """
        snapshot: Dict[str, object] = {
            "submitted": self.submitted,
            "flushes": self.flushes,
            "engine_passes": self.engine_passes,
            "coalesced_requests": self.coalesced_requests,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_hit_rate": None,
        }
        if self._session is not None:
            hits, misses = self._session._cache_counts()
            snapshot["cache_hits"] = hits
            snapshot["cache_misses"] = misses
            if hits + misses:
                snapshot["cache_hit_rate"] = hits / (hits + misses)
        return snapshot


class ResultMemo:
    """Thread-safe LRU memo of :class:`EvalResult` by coalescing key.

    One entry per coalescing key, holding the *widest* union result seen
    for that key.  A lookup hits when the memoized result's level grids
    cover every level the request asks for — the slice served off it is
    then bit-identical to a fresh evaluation, by the same nested-prefix
    argument that makes coalescing exact (the key pins the grid maxima,
    the seed, and every behavioural flag).

    Requests with ``seed=None`` have no coalescing key and therefore can
    never be memoized — fresh entropy stays fresh.

    With ``cache_dir`` set the memo is also the persistent result store of
    every backend: each stored result is written through to one ``.npz``
    file named by the SHA-256 of the key's ``repr``, holding the result's
    fields and the key ``repr`` itself.  A memory miss reads that file
    (outside the lock) into the memory LRU before the cover check, so a
    fresh process on the same directory — a restarted replica, or a
    survivor taking over a dead one's traffic — is warm without running
    anything.  Entries are ``_ENTRY_PREFIX`` + ``<sha256>.npz``; files of
    any other name are neither read nor pruned.  Files are written to a
    temporary name and moved into place with ``os.replace``, so concurrent
    readers (threads or processes) see either nothing or a complete entry.
    A torn, unreadable, or key-mismatched file is a miss, files load with
    pickle disabled, and a failed write (a full disk) is counted, never
    raised.  With
    ``max_bytes`` set every write evicts least-recently-used files —
    oldest mtime first; reads touch the mtime — until the directory is
    back under the bound; the newest file is never evicted, so one
    oversized entry degrades the store to a single file instead of
    thrashing it to zero.
    """

    def __init__(
        self,
        max_entries: int = 256,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_bytes is not None and cache_dir is None:
            raise ValueError("max_bytes bounds cache_dir, which is not set")
        self.max_entries = max_entries
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.max_bytes = max_bytes
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._store_lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, EvalResult]" = (
            OrderedDict()
        )  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.disk_hits = 0  # guarded-by: _lock
        self.disk_write_errors = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    @staticmethod
    def _covers(result: EvalResult, request: EvalRequest) -> bool:
        return set(request.copy_levels) <= set(result.copy_levels) and set(
            request.spf_levels
        ) <= set(result.spf_levels)

    def lookup(self, key: Tuple, request: EvalRequest) -> Optional[EvalResult]:
        """The memoized result covering ``request``'s levels, or ``None``.

        Returns the stored union result (covering at least the requested
        levels) — the caller slices the request's sub-grid out of it with
        :func:`_slice_result`.
        """
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None and self._covers(stored, request):
                self._entries.move_to_end(key)
                self.hits += 1
                return stored
            if self.cache_dir is None:
                self.misses += 1
                return None
        loaded = self._read(key)
        with self._lock:
            if loaded is not None:
                self._remember(key, loaded)
                stored = self._entries[key]
                if self._covers(stored, request):
                    self.hits += 1
                    self.disk_hits += 1
                    return stored
            self.misses += 1
            return None

    def store(self, key: Tuple, result: EvalResult) -> None:
        """Memoize ``result`` under ``key`` (keeping a wider stored one)."""
        # Stores take turns, so the file a key ends up with is the entry
        # its last store left in memory, never an older one whose write
        # happened to finish later.
        with self._store_lock:
            with self._lock:
                replaced = self._remember(key, result)
            if replaced and self.cache_dir is not None:
                self._write(key, result)

    def _remember(self, key: Tuple, result: EvalResult) -> bool:
        """Put ``result`` in the memory LRU unless a wider one is stored.

        The caller holds ``_lock``.  Returns whether ``result`` became the
        stored entry.
        """
        stored = self._entries.get(key)
        keep_stored = (
            stored is not None
            and set(result.copy_levels) <= set(stored.copy_levels)
            and set(result.spf_levels) <= set(stored.spf_levels)
        )
        if not keep_stored:
            self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return not keep_stored

    # ------------------------------------------------------------------
    # disk tier (only with cache_dir)
    # ------------------------------------------------------------------
    def _path(self, key: Tuple) -> str:
        assert self.cache_dir is not None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"{_ENTRY_PREFIX}{digest}.npz")

    def _read(self, key: Tuple) -> Optional[EvalResult]:
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as entry:
                if str(entry["key"]) != repr(key):
                    return None
                result = EvalResult(
                    backend=str(entry["backend"]),
                    copy_levels=tuple(int(c) for c in entry["copy_levels"]),
                    spf_levels=tuple(int(s) for s in entry["spf_levels"]),
                    scores=entry["scores"],
                    accuracy=entry["accuracy"],
                    labels=entry["labels"],
                    class_neuron_counts=entry["class_neuron_counts"],
                    cores=entry["cores"],
                    seed=int(entry["seed"]),
                    repeats=int(entry["repeats"]),
                    spike_counters=(
                        entry["spike_counters"]
                        if "spike_counters" in entry.files
                        else None
                    ),
                )
        except (KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile):
            # A torn or corrupt entry (e.g. a crash mid-write) is a miss:
            # the caller recomputes and overwrites it.
            return None
        try:
            # Touch the entry so mtime-LRU eviction treats it as recent.
            os.utime(path)
        except OSError:
            pass
        return result

    def _write(self, key: Tuple, result: EvalResult) -> None:
        assert self.cache_dir is not None
        arrays = {
            "key": np.asarray(repr(key)),
            "backend": np.asarray(result.backend),
            "copy_levels": np.asarray(result.copy_levels, dtype=np.int64),
            "spf_levels": np.asarray(result.spf_levels, dtype=np.int64),
            "scores": result.scores,
            "accuracy": result.accuracy,
            "labels": result.labels,
            "class_neuron_counts": result.class_neuron_counts,
            "cores": result.cores,
            "seed": np.asarray(result.seed, dtype=np.int64),
            "repeats": np.asarray(result.repeats, dtype=np.int64),
        }
        if result.spike_counters is not None:
            arrays["spike_counters"] = result.spike_counters
        tmp_path: Optional[str] = None
        try:
            handle, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".tmp-result-", suffix=".npz"
            )
            with os.fdopen(handle, "wb") as stream:
                np.savez_compressed(stream, **arrays)
            os.replace(tmp_path, self._path(key))
            tmp_path = None
            if self.max_bytes is not None:
                self.prune()
        except OSError:
            # A full or vanished disk costs persistence, never the request
            # whose result is being stored.
            with self._lock:
                self.disk_write_errors += 1
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used files until the store fits the bound.

        Args:
            max_bytes: size bound to enforce; defaults to the instance's
                ``max_bytes`` (a no-op when neither is set).

        Returns:
            number of bytes freed.  Files are removed oldest-mtime first
            (reads refresh mtime, so this is LRU); the most recent file is
            always kept.  Races with concurrent writers/readers are benign:
            a vanished file is skipped, and an evicted entry is simply a
            future miss.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None or self.cache_dir is None:
            return 0
        entries: List[Tuple[float, int, str]] = []
        for name in os.listdir(self.cache_dir):
            if not (name.startswith(_ENTRY_PREFIX) and name.endswith(".npz")):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest mtime first
        total = sum(size for _, size, _ in entries)
        freed = evicted = 0
        for _, size, path in entries[:-1]:  # never evict the newest entry
            if total <= limit:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
        with self._lock:
            self.evictions += evicted
        return freed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` view of the memo."""
        with self._lock:
            hits, misses = self.hits, self.misses
            entries = len(self._entries)
            disk = {
                "hits": self.disk_hits,
                "write_errors": self.disk_write_errors,
                "evictions": self.evictions,
            }
        snapshot: Dict[str, object] = {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else None,
        }
        if self.cache_dir is not None:
            snapshot["disk"] = disk
        return snapshot


class Session:
    """Unified front end over the registered evaluation backends.

    Args:
        backend: default backend name for :meth:`evaluate` / :meth:`submit`
            (``"vectorized"``, ``"reference"``, ``"chip"``, or ``"auto"``
            to select by request capability).
        cache: in-memory score cache for the vectorized backend (``None``
            shares the process-global cache).
        result_memo: result-level memo consulted (and filled) by
            :meth:`flush` for deterministic requests on *every* backend;
            share one :class:`ResultMemo` across sessions to share served
            results (the serving layer does), and give it a ``cache_dir``
            to persist them across processes and restarts.  ``None``
            disables result memoization (the default — a bare session
            re-evaluates except where the score cache applies).
    """

    def __init__(
        self,
        backend: str = AUTO,
        cache: Optional[ScoreCache] = None,
        result_memo: Optional[ResultMemo] = None,
    ):
        if backend != AUTO and backend not in backend_names():
            raise KeyError(
                f"unknown evaluation backend {backend!r}; registered: "
                f"{backend_names()} (or 'auto')"
            )
        self.default_backend = backend
        self.cache = cache
        self.result_memo = result_memo
        self.stats = SessionStats(_session=self)
        self._backends: Dict[str, object] = {}
        self._queue: List[PendingEvaluation] = []

    def _cache_objects(self) -> List[object]:
        """The distinct score-cache objects this session's backends use.

        Runners may share one cache object (the session-level ``cache``),
        so caches are deduplicated by identity — a shared cache's counters
        must not be counted once per runner.  The serve layer unions these
        lists across worker sessions for the same reason.

        The backend/runner dicts are snapshotted (``list`` is atomic under
        the GIL) because a metrics scrape may run while a worker thread is
        lazily creating a backend or runner — iterating the live dict would
        raise ``RuntimeError: dictionary changed size during iteration``.
        """
        caches: Dict[int, object] = {}
        for backend in list(self._backends.values()):
            for runner in list(getattr(backend, "_runners", {}).values()):
                if runner.cache is not None:
                    caches[id(runner.cache)] = runner.cache
        return list(caches.values())

    def _cache_counts(self) -> Tuple[int, int]:
        """Aggregate (hits, misses) over the distinct score caches in use."""
        caches = self._cache_objects()
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        return hits, misses

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def backend(self, name: str) -> EvaluationBackend:
        """The (lazily created, cached) backend instance for ``name``."""
        if name not in self._backends:
            if name == "vectorized":
                self._backends[name] = create_backend(name, cache=self.cache)
            else:
                self._backends[name] = create_backend(name)
        # The registry is duck-typed (factories return object); every
        # registered backend satisfies the runtime-checkable protocol.
        return cast(EvaluationBackend, self._backends[name])

    def capabilities(self, name: str) -> BackendCapabilities:
        """Capabilities of one registered backend."""
        return self.backend(name).capabilities()

    def select_backend(self, request: EvalRequest) -> str:
        """Backend name that will serve ``request``.

        With an explicit default backend this simply returns it (the
        backend itself rejects requests it cannot serve); in ``auto`` mode
        the request's capability needs pick the backend: board-only
        features (mesh link delay) or a duplication footprint overflowing
        the chip backend's single-chip core budget route to the board,
        other chip-only features to the cycle-accurate chip backend,
        everything else to the vectorized engine.
        """
        if self.default_backend != AUTO:
            return self.default_backend
        if request.needs_board_mesh:
            return "board"
        if request.needs_cycle_accuracy:
            chip_caps = self.capabilities("chip")
            footprint = (
                request.max_copies
                * request.model.architecture.cores_per_network
            )
            if (
                chip_caps.cores_per_chip is not None
                and footprint > chip_caps.cores_per_chip
            ):
                return "board"
            return "chip"
        return "vectorized"

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def evaluate(
        self, request: EvalRequest, backend: Optional[str] = None
    ) -> EvalResult:
        """Serve one request now (submit + flush)."""
        pending = self.submit(request, backend=backend)
        self.flush()
        return pending.result()

    def submit(
        self, request: EvalRequest, backend: Optional[str] = None
    ) -> PendingEvaluation:
        """Queue a request for the next :meth:`flush`.

        Queued requests with the same coalescing key are served by one
        shared engine pass.  The returned handle's ``result()`` flushes on
        demand, so callers may also treat ``submit`` as a lazy evaluate.
        """
        if not isinstance(request, EvalRequest):
            raise TypeError(f"expected an EvalRequest, got {type(request).__name__}")
        name = backend if backend is not None else self.select_backend(request)
        if name not in backend_names():
            raise KeyError(
                f"unknown evaluation backend {name!r}; registered: {backend_names()}"
            )
        pending = PendingEvaluation(request=request, backend_name=name, _session=self)
        self._queue.append(pending)
        self.stats.submitted += 1
        return pending

    def flush(self) -> None:
        """Serve every queued request, coalescing shared engine passes."""
        if not self._queue:
            return
        queue, self._queue = self._queue, []
        self.stats.flushes += 1
        groups: Dict[Tuple, List[PendingEvaluation]] = {}
        singles: List[PendingEvaluation] = []
        for pending in queue:
            # A failure while computing the key (e.g. a backend factory that
            # cannot be constructed) resolves that handle alone — it must
            # not abort the already-detached queue.
            try:
                key = self._coalesce_key(pending.backend_name, pending.request)
            except Exception as error:
                pending._error = error
                continue
            if key is None:
                singles.append(pending)
            else:
                groups.setdefault(key, []).append(pending)
        for pending in singles:
            # Backend construction sits inside the guard too: a factory
            # that raises must resolve this handle alone, not lose the
            # rest of the detached queue.
            try:
                backend = self.backend(pending.backend_name)
                passes_before = getattr(backend, "passes", None)
                pending._result = backend.evaluate(pending.request)
            except Exception as error:
                pending._error = error
                continue
            self._count_engine_passes(backend, passes_before)
        for key, members in groups.items():
            self._serve_group(key, members)

    def _count_engine_passes(self, backend, passes_before) -> None:
        """Add a backend's actually-computed passes to the session stats.

        Backends exposing a ``passes`` counter (which excludes cache-served
        requests) contribute their delta, so ``engine_passes`` reflects real
        engine work; backends without one count one pass per evaluation.
        """
        if passes_before is None:
            self.stats.engine_passes += 1
        else:
            self.stats.engine_passes += backend.passes - passes_before

    def _serve_group(self, key: Tuple, members: List[PendingEvaluation]) -> None:
        """One engine pass over the union grid, sliced per member request.

        With a :class:`ResultMemo` attached, a memoized union result that
        covers every member's levels serves the whole group without an
        engine pass (and a freshly computed union result is memoized for
        the next flush — on this session or any session sharing the memo).
        """
        copy_union = tuple(
            sorted({c for m in members for c in m.request.copy_levels})
        )
        spf_union = tuple(sorted({s for m in members for s in m.request.spf_levels}))
        union_request = members[0].request.with_levels(copy_union, spf_union)
        if self.result_memo is not None:
            memoized = self.result_memo.lookup(key, union_request)
            if memoized is not None:
                for member in members:
                    member._result = _slice_result(memoized, member.request)
                return
        try:
            backend = self.backend(members[0].backend_name)
            passes_before = getattr(backend, "passes", None)
            union_result = backend.evaluate(union_request)
        except Exception as error:
            for member in members:
                member._error = error
            return
        self._count_engine_passes(backend, passes_before)
        self.stats.coalesced_requests += len(members) - 1
        if self.result_memo is not None:
            self.result_memo.store(key, union_result)
        for member in members:
            member._result = _slice_result(union_result, member.request)

    # ------------------------------------------------------------------
    def _coalesce_key(
        self, backend_name: str, request: EvalRequest
    ) -> Optional[Tuple]:
        """Key under which queued requests may share one engine pass.

        ``None`` marks an uncoalescible request (fresh entropy).  The grid
        *maxima* are part of the key — only passes over the same largest
        configuration produce bit-identical nested prefixes — while the
        reported levels below the maxima are free to differ (that is the
        coalescing win: many sub-grid reads off one tensor).
        """
        if request.seed is None:
            return None
        # Every built-in backend serves multi-spf grids, so grid-capable
        # backends group on the spf *maximum*: every level is a prefix read
        # off the same max-spf pass (or, for split board copies at
        # link_delay > 0, a pass of its own equal to the standalone
        # request), so the union's extra levels cannot perturb a member's
        # slice.  Keying on max_spf (not the union) also keeps spike
        # counters consistent — the cycle-accurate backends report them at
        # the largest level, which is then the same level for every member
        # of the group.  A non-grid out-of-tree backend still must only
        # group identical spf tuples, or the union request could become
        # multi-spf and fail where each member alone would not.
        if self.capabilities(backend_name).spf_grids:
            spf_key = request.max_spf
        else:
            spf_key = request.spf_levels
        # Keyed on the *source* dataset's memoized fingerprint plus the cap
        # (equivalent to fingerprinting the taken view, without building and
        # re-hashing a fresh view per request).
        return (
            backend_name,
            model_fingerprint(request.model),
            dataset_fingerprint(request.dataset),
            request.max_samples,
            request.seed,
            request.repeats,
            request.encoder,
            request.max_copies,
            spf_key,
            request.collect_spike_counters,
            request.router_delay,
            request.stochastic_synapses,
            request.link_delay,
        )


def _slice_result(union: EvalResult, request: EvalRequest) -> EvalResult:
    """A member request's result, read off a union-grid result.

    Exact by construction: the union pass is keyed on the same grid maxima,
    so every requested level indexes a nested prefix the member's own pass
    would have produced bit for bit.
    """
    copy_index = np.asarray(
        [union.copy_levels.index(c) for c in request.copy_levels], dtype=int
    )
    spf_index = np.asarray(
        [union.spf_levels.index(s) for s in request.spf_levels], dtype=int
    )
    return EvalResult(
        backend=union.backend,
        copy_levels=request.copy_levels,
        spf_levels=request.spf_levels,
        scores=union.scores[:, copy_index][:, :, spf_index],
        accuracy=union.accuracy[:, copy_index][:, :, spf_index],
        labels=union.labels,
        class_neuron_counts=union.class_neuron_counts,
        cores=union.cores[copy_index],
        seed=request.seed,
        repeats=request.repeats,
        spike_counters=union.spike_counters,
    )
