"""The persistent result store.

Covers the serve-style workload gaps: results persist across sessions and
processes through the disk tier of :class:`repro.api.ResultMemo` (one
``.npz`` file per coalescing key, atomic-rename writes, mtime-LRU
bounding), and the fingerprints and evaluation views that key them stay
sound.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import EvalRequest, EvalResult, ResultMemo, Session
from repro.api.session import _ENTRY_PREFIX
from repro.eval.runner import ScoreCache, SweepRunner


@pytest.fixture(scope="module")
def trained(tiny_context):
    model = tiny_context.result("tea").model
    dataset = tiny_context.evaluation_dataset()
    return model, dataset


def _key(seed):
    return ("chip", "model-fp", "dataset-fp", None, seed, 1, "stochastic", 2, 2)


#: A lookup asking for every level the synthetic results hold.
LEVELS = EvalRequest(model=None, dataset=None, copy_levels=(1, 2), spf_levels=(1, 2))


def _result(seed=0, spike_counters=False, batch=8):
    rng = np.random.default_rng(seed)
    return EvalResult(
        backend="chip",
        copy_levels=(1, 2),
        spf_levels=(1, 2),
        scores=rng.random((1, 2, 2, batch, 4)),
        accuracy=rng.random((1, 2, 2)),
        labels=rng.integers(0, 4, size=batch),
        class_neuron_counts=np.array([3, 3, 2, 2]),
        cores=np.array([4, 8]),
        seed=seed,
        repeats=1,
        spike_counters=(
            rng.integers(0, 9, size=(1, 2, 4, batch)) if spike_counters else None
        ),
    )


def _request(trained, **kwargs):
    model, dataset = trained
    return EvalRequest(model=model, dataset=dataset, **kwargs)


def _files(directory):
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith(_ENTRY_PREFIX) and name.endswith(".npz")
    )


def _fill(memo, count, batch=64):
    for index in range(count):
        memo.store(_key(index), _result(index, batch=batch))
    return [memo._path(_key(index)) for index in range(count)]


def test_disk_cache_round_trip(tmp_path):
    writer = ResultMemo(cache_dir=str(tmp_path))
    reader = ResultMemo(cache_dir=str(tmp_path))
    for seed, spike_counters in ((0, False), (1, True)):
        key, stored = _key(seed), _result(seed, spike_counters=spike_counters)
        assert writer.lookup(key, LEVELS) is None
        writer.store(key, stored)
        # The reader's memory tier is empty, so this hit comes off disk.
        loaded = reader.lookup(key, LEVELS)
        assert loaded is not None
        for name in ("backend", "copy_levels", "spf_levels", "seed", "repeats"):
            assert getattr(loaded, name) == getattr(stored, name)
        arrays = ["scores", "accuracy", "labels", "class_neuron_counts", "cores"]
        if spike_counters:
            arrays.append("spike_counters")
        else:
            assert loaded.spike_counters is None
        for name in arrays:
            original, restored = getattr(stored, name), getattr(loaded, name)
            assert restored.dtype == original.dtype
            assert np.array_equal(restored, original)
        # A second lookup is a memory hit.
        assert reader.lookup(key, LEVELS) is loaded
    assert reader.hits == 4 and reader.disk_hits == 2 and reader.misses == 0
    assert len(_files(tmp_path)) == 2
    # No temporary files left behind by the atomic write.
    assert all(not name.startswith(".tmp-") for name in os.listdir(tmp_path))


def test_disk_cache_treats_corrupt_entry_as_miss(tmp_path):
    key = _key(0)
    (path,) = _fill(ResultMemo(cache_dir=str(tmp_path)), 1)
    with open(path, "wb") as handle:
        handle.write(b"torn write, not a zip file")
    memo = ResultMemo(cache_dir=str(tmp_path))
    assert memo.lookup(key, LEVELS) is None and memo.misses == 1
    # Recomputing overwrites the corrupt entry and serving works again.
    memo.store(key, _result(0))
    assert ResultMemo(cache_dir=str(tmp_path)).lookup(key, LEVELS) is not None


def test_disk_cache_entry_with_mismatched_key_is_a_miss(tmp_path):
    """A file whose stored key differs from the lookup key never serves."""
    memo = ResultMemo(cache_dir=str(tmp_path))
    memo.store(_key(1), _result(1))
    # Plant key 1's entry under key 0's file name (a hash collision, or a
    # file copied into place by hand).
    os.replace(memo._path(_key(1)), memo._path(_key(0)))
    fresh = ResultMemo(cache_dir=str(tmp_path))
    assert fresh.lookup(_key(0), LEVELS) is None
    assert fresh.disk_hits == 0 and fresh.misses == 1


@pytest.mark.parametrize("old_prefix", ["result-", "exact-"])
def test_disk_cache_ignores_files_of_the_old_prefix(tmp_path, old_prefix):
    """Entries of older stores are neither read nor pruned: ``result-*.npz``
    files may hold float-summed functional scores, which the wire refuses
    to send, and ``exact-*.npz`` files hold stochastic-synapse realizations
    drawn with the LFSR copy seeds after encoding."""
    memo = ResultMemo(cache_dir=str(tmp_path))
    memo.store(_key(0), _result(0))
    new_path = memo._path(_key(0))
    digest = os.path.basename(new_path).removeprefix(_ENTRY_PREFIX)
    old_path = os.path.join(tmp_path, old_prefix + digest)
    os.replace(new_path, old_path)
    fresh = ResultMemo(cache_dir=str(tmp_path))
    assert fresh.lookup(_key(0), LEVELS) is None
    assert fresh.disk_hits == 0 and fresh.misses == 1
    assert fresh.prune(max_bytes=1) == 0
    assert os.path.exists(old_path)


def test_disk_cache_prune_evicts_oldest_first(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    paths = _fill(memo, 4)
    # Make the eviction order unambiguous regardless of write timing.
    for index, path in enumerate(paths):
        os.utime(path, (index, index))
    keep_bytes = os.path.getsize(paths[2]) + os.path.getsize(paths[3])
    drop_bytes = os.path.getsize(paths[0]) + os.path.getsize(paths[1])
    freed = memo.prune(max_bytes=keep_bytes)
    assert freed == drop_bytes
    assert not os.path.exists(paths[0]) and not os.path.exists(paths[1])
    assert os.path.exists(paths[2]) and os.path.exists(paths[3])
    assert memo.evictions == 2


def test_disk_cache_prune_keeps_newest_even_when_oversized(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    paths = _fill(memo, 2)
    os.utime(paths[0], (1, 1))
    os.utime(paths[1], (2, 2))
    memo.prune(max_bytes=1)  # smaller than any single entry
    assert not os.path.exists(paths[0])
    assert os.path.exists(paths[1])  # the newest entry always survives
    assert len(_files(tmp_path)) == 1


def test_disk_cache_max_bytes_enforced_on_put(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path), max_bytes=1)
    paths = _fill(memo, 3)
    # Every write prunes back down to the newest entry.
    assert _files(tmp_path) == [os.path.basename(paths[2])]
    assert memo.snapshot()["disk"]["evictions"] == 2


def test_disk_cache_get_refreshes_mtime_for_lru(tmp_path):
    paths = _fill(ResultMemo(cache_dir=str(tmp_path)), 2)
    old, new = paths
    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    # Reading the older entry (off disk, in a fresh memo) marks it
    # recently used...
    memo = ResultMemo(cache_dir=str(tmp_path))
    assert memo.lookup(_key(0), LEVELS) is not None
    memo.prune(max_bytes=os.path.getsize(old))
    # ...so the other entry is the one evicted.
    assert os.path.exists(old) and not os.path.exists(new)


def test_disk_cache_rejects_nonpositive_max_bytes(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        ResultMemo(cache_dir=str(tmp_path), max_bytes=0)
    with pytest.raises(ValueError, match="cache_dir"):
        ResultMemo(max_bytes=1024)


def test_concurrent_stores_leave_the_widest_entry_on_disk(tmp_path):
    """Racing stores of one key end with the memory entry on disk too.

    A narrow and a wide result of the same key race: the memory tier keeps
    the wide one, and the file must hold it as well, whichever write
    finished first.  Without ordered writes a late narrow write could
    overwrite the wide file, and a restart would lose the wide levels.
    """
    wide = _result(0)
    narrow = replace(
        wide,
        copy_levels=(2,),
        scores=wide.scores[:, 1:],
        accuracy=wide.accuracy[:, 1:],
        cores=wide.cores[1:],
    )
    memo = ResultMemo(cache_dir=str(tmp_path))
    keys = [_key(seed) for seed in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for key in keys:
            threads = [
                threading.Thread(target=memo.store, args=(key, result))
                for result in (narrow, wide, narrow, narrow)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    reader = ResultMemo(cache_dir=str(tmp_path))
    for key in keys:
        assert reader.lookup(key, LEVELS) is not None


def test_seed_none_request_writes_nothing(trained, tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    session = Session(backend="vectorized", cache=ScoreCache(), result_memo=memo)
    session.evaluate(_request(trained, seed=None, copy_levels=(1, 2)))
    assert _files(tmp_path) == []
    assert len(memo) == 0 and memo.hits == memo.misses == 0


def test_failed_disk_write_does_not_fail_the_request(trained, tmp_path, monkeypatch):
    """A full disk costs persistence, never the answer, and leaves no tmp."""

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    memo = ResultMemo(cache_dir=str(tmp_path))
    session = Session(backend="vectorized", cache=ScoreCache(), result_memo=memo)
    monkeypatch.setattr(np, "savez_compressed", disk_full)
    request = _request(trained, seed=5, copy_levels=(1, 2))
    served = session.evaluate(request)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []
    assert memo.snapshot()["disk"]["write_errors"] == 1
    # The memory tier still took the result.
    passes = session.stats.engine_passes
    again = session.evaluate(request)
    assert session.stats.engine_passes == passes
    assert np.array_equal(again.scores, served.scores)


def test_fingerprint_memo_freezes_hashed_arrays(trained):
    """After fingerprinting, in-place weight mutation raises loudly.

    The fingerprint is memoized by object identity; freezing the hashed
    arrays is what keeps that sound (a mutated model can never silently
    reuse its pre-mutation cache entries).
    """
    from repro.eval.runner import model_fingerprint

    model, _ = trained
    model_fingerprint(model)
    with pytest.raises(ValueError):
        model.block_weights[0][0][0, 0] = 123.0


def test_evaluation_view_tracks_max_samples(trained):
    model, dataset = trained
    runner = SweepRunner(
        copy_levels=(1,), spf_levels=(1,), repeats=1, cache=ScoreCache(),
        max_samples=20,
    )
    assert runner._evaluation_view(dataset).sample_count == 20
    runner.max_samples = 10
    assert runner._evaluation_view(dataset).sample_count == 10


_SUBPROCESS_SCRIPT = """
import sys
import numpy as np
from repro.api import EvalRequest, ResultMemo, Session
from repro.eval.runner import ScoreCache
from repro.experiments.runner import ExperimentContext

cache_dir, out_path = sys.argv[1], sys.argv[2]
context = ExperimentContext(
    train_size=120, test_size=60, epochs=2, eval_samples=30, repeats=1, seed=0
)
memo = ResultMemo(cache_dir=cache_dir)
session = Session(backend="chip", cache=ScoreCache(), result_memo=memo)
result = session.evaluate(
    EvalRequest(
        model=context.result("tea").model,
        dataset=context.evaluation_dataset(),
        copy_levels=(1, 2),
        spf_levels=(1, 2),
        seed=0,
        collect_spike_counters=True,
    )
)
np.savez(out_path, scores=result.scores, counters=result.spike_counters)
print("PASSES", session.stats.engine_passes, "DISK_HITS", memo.disk_hits)
"""


def test_disk_cache_shared_across_fresh_processes(tmp_path):
    """Two fresh interpreter processes: identical results, second hits disk."""
    outputs = []
    for run in range(2):
        out_path = str(tmp_path / f"result-{run}.npz")
        result = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(tmp_path / "store"), out_path],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        outputs.append((result.stdout.strip().splitlines()[-1], out_path))
    assert outputs[0][0] == "PASSES 1 DISK_HITS 0"
    assert outputs[1][0] == "PASSES 0 DISK_HITS 1"
    with np.load(outputs[0][1]) as first, np.load(outputs[1][1]) as second:
        assert np.array_equal(first["scores"], second["scores"])
        assert np.array_equal(first["counters"], second["counters"])
