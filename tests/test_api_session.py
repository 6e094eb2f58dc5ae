"""Tests for the Session facade: backend selection, coalescing, caches.

Covers the no-silent-fallback rule (a chip-only feature requested from the
vectorized backend raises :class:`UnsupportedRequestError`), capability-based
auto-selection, and the request-batching guarantee that coalesced results
are bit-identical to individually evaluated ones.
"""

import numpy as np
import pytest

from repro.api import EvalRequest, ResultMemo, Session, UnsupportedRequestError
from repro.api.session import _ENTRY_PREFIX, _slice_result
from repro.eval.runner import ScoreCache


@pytest.fixture(scope="module")
def trained(tiny_context):
    return tiny_context.result("tea").model, tiny_context.evaluation_dataset()


def _request(trained, **kwargs):
    model, dataset = trained
    kwargs.setdefault("copy_levels", (1, 2))
    kwargs.setdefault("spf_levels", (1, 2))
    kwargs.setdefault("repeats", 1)
    kwargs.setdefault("seed", 0)
    return EvalRequest(model=model, dataset=dataset, **kwargs)


def _session(**kwargs):
    # A private in-memory cache isolates each test from the global cache.
    kwargs.setdefault("cache", ScoreCache())
    return Session(**kwargs)


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_auto_selects_vectorized_for_plain_requests(trained):
    session = _session()
    assert session.select_backend(_request(trained)) == "vectorized"


def test_auto_selects_chip_for_cycle_accurate_requests(trained):
    session = _session()
    request = _request(
        trained, spf_levels=(1,), collect_spike_counters=True
    )
    assert session.select_backend(request) == "chip"
    result = session.evaluate(request)
    assert result.backend == "chip"
    assert result.spike_counters is not None


def test_explicit_backend_overrides_auto(trained):
    session = _session(backend="reference")
    assert session.evaluate(_request(trained)).backend == "reference"


def test_unknown_backend_rejected(trained):
    with pytest.raises(KeyError):
        Session(backend="warp-drive")
    session = _session()
    with pytest.raises(KeyError):
        session.submit(_request(trained), backend="warp-drive")


# ----------------------------------------------------------------------
# capability mismatch: loud errors, never a silent fallback
# ----------------------------------------------------------------------
def test_chip_feature_on_vectorized_backend_raises(trained):
    session = _session(backend="vectorized")
    with pytest.raises(UnsupportedRequestError, match="cycle-accurate"):
        session.evaluate(
            _request(trained, spf_levels=(1,), collect_spike_counters=True)
        )


def test_router_delay_on_reference_backend_raises(trained):
    session = _session()
    with pytest.raises(UnsupportedRequestError, match="router_delay"):
        session.evaluate(
            _request(trained, spf_levels=(1,), router_delay=2), backend="reference"
        )


def test_spf_grid_on_chip_backend_matches_per_level_requests(trained):
    """Multi-spf chip grids (one folded pass per level) match the levels
    evaluated one request at a time, bit for bit."""
    session = _session()
    grid = session.evaluate(_request(trained, spf_levels=(1, 2)), backend="chip")
    assert grid.backend == "chip"
    for column, spf in enumerate(grid.spf_levels):
        single = session.evaluate(
            _request(trained, spf_levels=(spf,)), backend="chip"
        )
        np.testing.assert_array_equal(
            grid.class_counts()[:, :, column], single.class_counts()[:, :, 0]
        )
        np.testing.assert_array_equal(
            grid.scores[:, :, column], single.scores[:, :, 0]
        )


def test_capability_error_does_not_run_another_backend(trained):
    """The rejected request must not leak to a different backend."""
    session = _session(backend="vectorized")
    with pytest.raises(UnsupportedRequestError):
        session.evaluate(
            _request(trained, spf_levels=(1,), collect_spike_counters=True)
        )
    assert "chip" not in session._backends
    assert session.stats.engine_passes == 0  # nothing ran anywhere


def test_failed_request_does_not_abort_the_batch(trained):
    """A capability failure resolves its own handle; the rest still serve."""
    session = _session(backend="vectorized")
    bad = session.submit(
        _request(trained, spf_levels=(1,), collect_spike_counters=True)
    )
    good = session.submit(_request(trained))
    session.flush()
    assert good.result().backend == "vectorized"
    with pytest.raises(UnsupportedRequestError):
        bad.result()


# ----------------------------------------------------------------------
# request batching / coalescing
# ----------------------------------------------------------------------
def test_submit_flush_coalesces_same_fingerprint(trained):
    session = _session(backend="vectorized")
    full = session.submit(_request(trained, copy_levels=(1, 2), spf_levels=(1, 2)))
    point = session.submit(_request(trained, copy_levels=(2,), spf_levels=(2,)))
    sub = session.submit(_request(trained, copy_levels=(1, 2), spf_levels=(2,)))
    assert not full.done
    session.flush()
    assert full.done and point.done and sub.done
    assert session.stats.submitted == 3
    assert session.stats.engine_passes == 1
    assert session.stats.coalesced_requests == 2
    # The sliced sub-results match the full grid exactly.
    assert np.array_equal(point.result().scores[:, 0, 0], full.result().scores[:, 1, 1])
    assert np.array_equal(sub.result().scores[:, :, 0], full.result().scores[:, :, 1])


def test_coalesced_result_bit_identical_to_individual(trained):
    individual = _session(backend="vectorized").evaluate(
        _request(trained, copy_levels=(2,), spf_levels=(2,))
    )
    session = _session(backend="vectorized")
    session.submit(_request(trained, copy_levels=(1, 2), spf_levels=(1, 2)))
    coalesced = session.submit(_request(trained, copy_levels=(2,), spf_levels=(2,)))
    session.flush()
    assert np.array_equal(coalesced.result().scores, individual.scores)
    assert np.array_equal(coalesced.result().accuracy, individual.accuracy)
    assert np.array_equal(coalesced.result().cores, individual.cores)


def test_different_grid_maxima_do_not_coalesce(trained):
    """Only passes over the same largest configuration share bits."""
    session = _session(backend="vectorized")
    session.submit(_request(trained, copy_levels=(1, 2)))
    session.submit(_request(trained, copy_levels=(1, 4)))
    session.flush()
    assert session.stats.engine_passes == 2
    assert session.stats.coalesced_requests == 0


def test_fresh_entropy_requests_never_coalesce(trained):
    session = _session(backend="vectorized")
    session.submit(_request(trained, seed=None))
    session.submit(_request(trained, seed=None))
    session.flush()
    assert session.stats.engine_passes == 2
    assert session.stats.coalesced_requests == 0


def test_result_triggers_flush_on_demand(trained):
    session = _session(backend="vectorized")
    pending = session.submit(_request(trained))
    result = pending.result()  # no explicit flush
    assert result.backend == "vectorized"
    assert session.stats.flushes == 1


def test_coalescing_on_reference_backend(trained):
    """Coalescing is backend-agnostic: the uncached reference loop also
    serves grouped requests with one pass."""
    session = _session(backend="reference")
    a = session.submit(_request(trained, copy_levels=(1, 2), spf_levels=(1,)))
    b = session.submit(_request(trained, copy_levels=(2,), spf_levels=(1,)))
    session.flush()
    assert session.stats.engine_passes == 1
    assert np.array_equal(a.result().scores[:, 1], b.result().scores[:, 0])


def test_key_failure_does_not_drop_other_requests(trained):
    """A request whose coalescing key cannot be computed (here: a backend
    factory that fails to construct) resolves alone; the rest still serve."""
    from repro.api import register_backend
    from repro.api import backends as backends_module

    def _broken_factory():
        raise RuntimeError("factory needs configuration")

    register_backend("broken-test-backend", _broken_factory)
    try:
        session = _session(backend="vectorized")
        good = session.submit(_request(trained))
        bad = session.submit(_request(trained), backend="broken-test-backend")
        session.flush()
        assert good.result().backend == "vectorized"
        with pytest.raises(RuntimeError, match="factory needs configuration"):
            bad.result()
    finally:
        del backends_module._REGISTRY["broken-test-backend"]


def test_engine_passes_exclude_cache_hits(trained):
    """A cache-served evaluation is not counted as an engine pass."""
    session = _session(backend="vectorized")
    session.evaluate(_request(trained))
    assert session.stats.engine_passes == 1
    session.evaluate(_request(trained))  # served from the in-memory cache
    assert session.stats.engine_passes == 1
    backend = session.backend("vectorized")
    assert backend.passes == 1


# ----------------------------------------------------------------------
# cache ownership
# ----------------------------------------------------------------------
def test_session_threads_disk_cache_into_vectorized_backend(trained, tmp_path):
    session = _session(
        backend="vectorized", result_memo=ResultMemo(cache_dir=str(tmp_path))
    )
    first = session.evaluate(_request(trained))
    entries = [n for n in tmp_path.iterdir() if n.name.startswith(_ENTRY_PREFIX)]
    assert len(entries) == 1

    # A second session over the same directory is served from disk without
    # an engine pass: the result round-trips bit for bit.
    warm = _session(
        backend="vectorized", result_memo=ResultMemo(cache_dir=str(tmp_path))
    )
    second = warm.evaluate(_request(trained))
    assert warm.stats.engine_passes == 0
    assert warm.result_memo.disk_hits == 1
    assert np.array_equal(first.scores, second.scores)
    assert np.array_equal(first.accuracy, second.accuracy)


def test_session_cache_max_bytes_reaches_runner(trained, tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path), max_bytes=1)
    session = _session(backend="vectorized", result_memo=memo)
    session.evaluate(_request(trained))
    # The bound is enforced on write; only the newest entry survives.
    entries = [n for n in tmp_path.iterdir() if n.name.startswith(_ENTRY_PREFIX)]
    assert len(entries) == 1
    session.evaluate(_request(trained, seed=123))
    entries = [n for n in tmp_path.iterdir() if n.name.startswith(_ENTRY_PREFIX)]
    assert len(entries) == 1
    assert memo.evictions == 1


# ----------------------------------------------------------------------
# result memoization
# ----------------------------------------------------------------------
def test_result_memo_serves_repeat_without_engine_pass(trained):
    memo = ResultMemo()
    session = _session(backend="vectorized", result_memo=memo)
    first = session.evaluate(_request(trained, seed=31))
    passes = session.stats.engine_passes
    second = session.evaluate(_request(trained, seed=31))
    assert session.stats.engine_passes == passes
    assert memo.hits == 1
    assert np.array_equal(first.scores, second.scores)
    assert np.array_equal(first.accuracy, second.accuracy)


def test_result_memo_covers_chip_backend(trained):
    # The chip backend has no score cache (cacheable=False); the memo is
    # the only tier that can serve its repeats, and must do so exactly.
    memo = ResultMemo()
    session = _session(backend="chip", result_memo=memo)
    request = _request(
        trained,
        copy_levels=(1,),
        spf_levels=(2,),
        seed=5,
        collect_spike_counters=True,
        max_samples=12,
    )
    first = session.evaluate(request)
    passes = session.stats.engine_passes
    second = session.evaluate(request)
    assert session.stats.engine_passes == passes
    assert np.array_equal(first.class_counts(), second.class_counts())
    assert np.array_equal(first.spike_counters, second.spike_counters)


def test_result_memo_slices_subgrid_out_of_wider_entry(trained):
    # Same grid *maxima* (the coalescing key), fewer reported levels: the
    # memoized union entry serves the sub-grid read without recomputation.
    memo = ResultMemo()
    session = _session(backend="vectorized", result_memo=memo)
    wide = session.evaluate(
        _request(trained, copy_levels=(1, 2), spf_levels=(1, 2), seed=8)
    )
    passes = session.stats.engine_passes
    narrow = session.evaluate(
        _request(trained, copy_levels=(2,), spf_levels=(2,), seed=8)
    )
    assert session.stats.engine_passes == passes  # sliced, not recomputed
    assert np.array_equal(narrow.scores, wide.scores[:, 1:2][:, :, 1:2])


def test_result_memo_is_shared_across_sessions(trained):
    memo = ResultMemo()
    cache = ScoreCache()
    one = Session(backend="vectorized", cache=cache, result_memo=memo)
    two = Session(backend="vectorized", cache=cache, result_memo=memo)
    first = one.evaluate(_request(trained, seed=12))
    second = two.evaluate(_request(trained, seed=12))
    assert two.stats.engine_passes == 0
    assert np.array_equal(first.scores, second.scores)


def test_seed_none_is_never_memoized(trained):
    memo = ResultMemo()
    session = _session(backend="vectorized", result_memo=memo)
    session.evaluate(_request(trained, seed=None))
    assert len(memo) == 0
    assert memo.hits == 0


def test_memo_store_and_lookup_round_trip(trained):
    donor = _session(backend="vectorized", result_memo=ResultMemo())
    request = _request(trained, seed=14)
    result = donor.evaluate(request)
    key = donor._coalesce_key("vectorized", request)

    memo = ResultMemo()
    assert memo.lookup(key, request) is None
    memo.store(key, result)
    assert memo.lookup(key, request) is result
    # A second session sharing the memo serves the entry without a pass,
    # and sub-grid reads (same maxima, fewer levels) come off it too.
    receiver = Session(backend="vectorized", cache=ScoreCache(), result_memo=memo)
    served = receiver.evaluate(request)
    narrow = receiver.evaluate(
        _request(trained, copy_levels=(2,), spf_levels=(1, 2), seed=14)
    )
    assert receiver.stats.engine_passes == 0
    assert np.array_equal(served.scores, result.scores)
    assert np.array_equal(narrow.scores, result.scores[:, 1:2])


def test_memo_lru_eviction_keeps_capacity(trained):
    memo = ResultMemo(max_entries=2)
    session = _session(backend="vectorized", result_memo=memo)
    for seed in (41, 42, 43):
        session.evaluate(_request(trained, copy_levels=(1,), spf_levels=(1,), seed=seed))
    assert len(memo) == 2
    # The oldest entry (seed=41) was evicted; serving it again recomputes.
    passes = session.stats.engine_passes
    session.evaluate(_request(trained, copy_levels=(1,), spf_levels=(1,), seed=41))
    assert session.stats.engine_passes >= passes  # engine or score cache
    assert memo.snapshot()["entries"] == 2


def test_memo_store_keeps_wider_entry(trained):
    memo = ResultMemo()
    session = _session(backend="vectorized", result_memo=memo)
    wide_request = _request(trained, copy_levels=(1, 2), spf_levels=(1, 2), seed=9)
    narrow_request = _request(trained, copy_levels=(2,), spf_levels=(1, 2), seed=9)
    wide = session.evaluate(wide_request)
    key = session._coalesce_key("vectorized", wide_request)
    # Re-storing a narrower result under the same key must not shrink
    # what the memo can serve.
    memo.store(key, _slice_result(wide, narrow_request))
    still_wide = memo.lookup(key, wide_request)
    assert still_wide is not None
    assert np.array_equal(still_wide.scores, wide.scores)
    reader = Session(backend="vectorized", cache=ScoreCache(), result_memo=memo)
    assert np.array_equal(reader.evaluate(wide_request).scores, wide.scores)
    assert reader.stats.engine_passes == 0


def test_memo_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ResultMemo(max_entries=0)
