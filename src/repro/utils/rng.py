"""Random-number-generator management.

Every stochastic component in the reproduction (dataset synthesis, weight
initialization, connection sampling, spike encoding) draws from a
``numpy.random.Generator`` that is injected explicitly.  This module provides
the helpers used to create and fan out those generators deterministically so
that experiments are reproducible end to end from a single integer seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def new_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged).  All public APIs in the package accept the
    same three forms and route them through this helper.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Independent generator replaying ``rng``'s stream from its current state.

    The clone gets its own bit-generator instance carrying a copy of
    ``rng``'s state, so consuming the clone never advances the original.
    Used when the same stream must be re-consumed from a known point — e.g.
    each chip or board pass replays every repeat's generator from its
    pristine spawned state, so deployments are identical across passes and
    each pass draws exactly what a standalone request would have drawn
    (a one-pass grid and its single-level requests, or the per-level
    passes of split board copies at ``link_delay > 0``).
    """
    clone = np.random.Generator(type(rng.bit_generator)())
    clone.bit_generator.state = rng.bit_generator.state
    return clone


def spawn_rngs(seed: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Used when one experiment needs several independent random streams (e.g.
    one per network copy) whose results must not depend on evaluation order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing seeds from the parent generator.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class SeedSequenceFactory:
    """Deterministic factory of named random streams.

    Each distinct ``name`` maps to a distinct child ``SeedSequence`` derived
    from the root seed, so adding a new consumer of randomness never perturbs
    the streams of existing consumers.
    """

    def __init__(self, root_seed: Optional[int] = 0):
        self._root_seed = root_seed
        self._counters: dict = {}

    @property
    def root_seed(self) -> Optional[int]:
        return self._root_seed

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the stream ``name``.

        Repeated calls with the same name return *different* generators
        (stream instances), but the overall sequence is a pure function of the
        root seed and the call history for that name.
        """
        index = self._counters.get(name, 0)
        self._counters[name] = index + 1
        # Combine the root seed with a stable hash of the name and the call
        # index.  ``SeedSequence`` accepts a sequence of integers as entropy.
        name_entropy = [ord(c) for c in name]
        entropy: Sequence[int] = [self._root_seed or 0, index, *name_entropy]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def reset(self) -> None:
        """Forget the per-name call counters (streams restart from index 0)."""
        self._counters.clear()
