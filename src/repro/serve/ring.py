"""Consistent routing of model keys onto serve replicas.

The front tier (:mod:`repro.serve.front`) shards hosted models across N
:class:`~repro.serve.server.EvalServer` replicas.  The sharding function
must satisfy two properties the spine-leaf topology literature takes for
granted and a naive ``hash(key) % N`` violates:

* **stability** — ejecting (or rejoining) one replica moves *only* the
  keys that were (or become) assigned to that replica; every other
  model keeps its replica, so its in-memory result memo and score cache
  stay warm where its traffic already landed.
* **determinism** — two front processes configured with the same replica
  set route every key identically (no shared state, no coordination).

Both fall out of *rendezvous (highest-random-weight) hashing*: each
``(replica, key)`` pair gets a score from a keyed SHA-256, and a key is
served by the highest-scoring replica among the currently healthy set.
Removing a replica only re-homes the keys for which it was the maximum;
adding one back restores exactly its old assignments.  The full
descending-score order doubles as the **failover preference list**: when a
key's primary replica is saturated or dead, the next replica in its
preference order takes the spill, which is the same replica every time —
so even spilled traffic stays memo-warm somewhere deterministic.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Iterable, List, Tuple


class EmptyRingError(RuntimeError):
    """No replica is available to route to (all ejected or none configured)."""


def _score(replica: str, key: str) -> int:
    """The rendezvous weight of ``key`` on ``replica`` (keyed SHA-256)."""
    digest = hashlib.sha256(f"{replica}\x00{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class ReplicaRing:
    """A rendezvous-hashing ring over named replicas.

    Replica names are opaque identifiers (the front tier uses
    ``"host:port"``).  The ring is safe to share between the front tier's
    HTTP threads and its health-poller thread: membership changes and
    reads are serialized by an internal lock, and every routing decision
    is computed against a consistent membership snapshot.
    """

    def __init__(self, replicas: Iterable[str] = ()) -> None:
        self._lock = threading.Lock()
        self._replicas: Dict[str, None] = {}  # guarded-by: _lock
        for replica in replicas:
            self._validate(replica)
            self._replicas[replica] = None

    @staticmethod
    def _validate(replica: str) -> None:
        if not isinstance(replica, str) or not replica:
            raise ValueError(
                f"replica name must be a non-empty string, got {replica!r}"
            )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, replica: str) -> bool:
        """Join ``replica``; returns False when it was already present."""
        self._validate(replica)
        with self._lock:
            if replica in self._replicas:
                return False
            self._replicas[replica] = None
            return True

    def remove(self, replica: str) -> bool:
        """Eject ``replica``; returns False when it was not present."""
        with self._lock:
            if replica not in self._replicas:
                return False
            del self._replicas[replica]
            return True

    @property
    def replicas(self) -> Tuple[str, ...]:
        """The current membership, in insertion order."""
        with self._lock:
            return tuple(self._replicas)

    def __len__(self) -> int:
        with self._lock:
            return len(self._replicas)

    def __contains__(self, replica: str) -> bool:
        with self._lock:
            return replica in self._replicas

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, key: str) -> str:
        """The replica serving ``key``: the highest-scoring member.

        Raises:
            EmptyRingError: the ring has no members.
        """
        with self._lock:
            members = tuple(self._replicas)
        if not members:
            raise EmptyRingError(f"no replica available to route {key!r}")
        return max(members, key=lambda replica: _score(replica, key))

    def preference(self, key: str) -> List[str]:
        """Every member ordered by descending score for ``key``.

        ``preference(key)[0] == route(key)``; the tail is the failover
        order the front tier walks when the primary is saturated or dead.
        Ties (astronomically unlikely with 128-bit scores) break on the
        replica name so the order stays deterministic regardless.
        """
        with self._lock:
            members = tuple(self._replicas)
        return sorted(
            members, key=lambda replica: (_score(replica, key), replica), reverse=True
        )

    def assignments(self, keys: Iterable[str]) -> Dict[str, str]:
        """``{key: replica}`` for every key, against one membership snapshot."""
        with self._lock:
            members = tuple(self._replicas)
        if not members:
            return {}
        return {
            key: max(members, key=lambda replica: _score(replica, key))
            for key in keys
        }
