"""Weighted rendezvous hashing for sticky, locality-aware routing.

The serving layers want the same key to land on the same node every
time (so per-node caches pay), while membership changes move as few
keys as possible.  Rendezvous (highest-random-weight) hashing gives
both without a ring data structure: every (key, node) pair gets a
deterministic score and the key goes to the highest-scoring node.

* **Minimal disruption** — adding a node only claims the keys whose new
  top score belongs to it (~1/n of the keyspace); removing a node only
  moves that node's own keys.  No other assignment changes, because
  scores of surviving (key, node) pairs are untouched.
* **Weighted** — scores use the ``-w / ln(u)`` transform (u uniform in
  (0, 1) from the pair hash), so a node with twice the weight owns
  twice the keyspace in expectation, and weight changes disturb only
  the proportional slice.
* **Bounded load** — :func:`bounded_pick` walks the rendezvous order
  and takes the first node under a caller-supplied load bound, so an
  overloaded sticky choice spills to the *next deterministic* node
  instead of scattering randomly.

Scores hash with BLAKE2b over :func:`repro.common.serde.encode_key`
bytes, so they are stable across processes (no ``PYTHONHASHSEED``
dependence) and equality-canonical: keys that compare ``==`` (``5``,
``5.0``) route identically, the same contract the hash partitioner and
the segment bloom filters already rely on.

Encoding costs more than hashing, so every routing call encodes its key
once (not once per node), and the bytes of hashable values come from one
bounded LRU memo.  Ring members and hot keys such as the broker's
``(table, segment)`` pairs repeat on every call.  Equal encodable values
share canonical bytes, so a memo keyed by ``==`` returns exactly what a
fresh encoding would, whichever of the equal values filled the entry.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Any, Callable, Iterable, Sequence

from repro.common import serde

__all__ = [
    "node_score",
    "rank",
    "pick",
    "pick_subset",
    "bounded_pick",
    "HashRing",
]

_SEPARATOR = b"\x00hrw\x00"

#: Entries in the encoded-bytes memo: every ring member plus the hottest
#: keys fit; a stream of one-off keys only churns the tail.
_MEMO_SIZE = 4096


def _encode(value: Any) -> bytes:
    """Equality-canonical bytes for an arbitrary routing key."""
    try:
        return serde.encode_key(value)
    except Exception:
        # Unencodable keys still deserve a deterministic route: fall back
        # to the repr, which is stable for any one value within a run.
        return repr(value).encode("utf-8", "backslashreplace")


_memo = functools.lru_cache(maxsize=_MEMO_SIZE)(_encode)


def _key_bytes(value: Any) -> bytes:
    """:func:`_encode` through the memo; unhashable values skip it."""
    try:
        return _memo(value)
    except TypeError:
        return _encode(value)


def _score(data: bytes, weight: float) -> float:
    if weight <= 0.0:
        return float("-inf")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    # (0, 1) exclusive on both ends: +1 over 2^64 + 2 never hits 0 or 1.
    u = (int.from_bytes(digest, "big") + 1) / (2**64 + 2)
    return -weight / math.log(u)


def node_score(key: Any, node: Any, weight: float = 1.0) -> float:
    """The rendezvous score of ``node`` for ``key`` (higher wins).

    Uses the weighted-HRW transform ``-weight / ln(u)`` where ``u`` is a
    uniform (0, 1) draw from the pair hash, so expected ownership is
    proportional to weight.
    """
    return _score(_key_bytes(node) + _SEPARATOR + _key_bytes(key), weight)


def _scored(
    key: Any,
    nodes: Sequence[Any],
    weight_of: Callable[[Any], float] | None,
) -> list[tuple[float, int, Any]]:
    """``(score, -position, node)`` for every node, encoding ``key`` once.

    The position breaks ties (possible only for duplicate nodes), so the
    order is total and no two nodes are ever compared.
    """
    suffix = _SEPARATOR + _key_bytes(key)
    return [
        (
            _score(_key_bytes(node) + suffix, weight_of(node) if weight_of else 1.0),
            -i,
            node,
        )
        for i, node in enumerate(nodes)
    ]


def rank(
    key: Any,
    nodes: Sequence[Any],
    weight_of: Callable[[Any], float] | None = None,
) -> list[Any]:
    """All nodes ordered by descending rendezvous score for ``key``.

    The first element is the sticky choice; the rest form the
    deterministic spill-over order.
    """
    scored = _scored(key, nodes, weight_of)
    scored.sort(reverse=True)
    return [node for __, __, node in scored]


def pick(
    key: Any,
    nodes: Sequence[Any],
    weight_of: Callable[[Any], float] | None = None,
) -> Any:
    """The sticky choice: the highest-scoring node for ``key``."""
    if not nodes:
        raise ValueError("cannot pick from an empty node set")
    return max(_scored(key, nodes, weight_of))[2]


def pick_subset(
    key: Any,
    nodes: Sequence[Any],
    n: int,
    weight_of: Callable[[Any], float] | None = None,
) -> list[Any]:
    """The top-``n`` nodes for ``key`` in rendezvous order.

    Subsets are nested (the top-2 set contains the top-1 choice) and
    minimally disrupted by membership change, so a key's sticky worker
    subset survives pool scaling mostly intact.
    """
    if n <= 0:
        return []
    return rank(key, nodes, weight_of)[:n]


def bounded_pick(
    key: Any,
    nodes: Sequence[Any],
    load_of: Callable[[Any], float],
    bound: float,
    weight_of: Callable[[Any], float] | None = None,
) -> tuple[Any, bool]:
    """Sticky choice with bounded-load spill-over.

    Walks the rendezvous order and returns ``(node, spilled)``: the
    first node whose ``load_of`` is within ``bound``, with ``spilled``
    True whenever that is not the sticky (top-ranked) choice.  When
    every node is over the bound the sticky node is returned with
    ``spilled=True``: the caller learns the whole pool is saturated and
    can shed or queue globally.
    """
    order = rank(key, nodes, weight_of)
    if not order:
        raise ValueError("cannot pick from an empty node set")
    for i, node in enumerate(order):
        if load_of(node) <= bound:
            return node, i > 0
    return order[0], True


class HashRing:
    """A mutable weighted-rendezvous member set with stable routing.

    Thin stateful wrapper over the module functions for callers that
    route many keys against a slowly changing membership (the broker's
    replica sets, the scheduler's worker pool)::

        ring = HashRing({"s0": 1.0, "s1": 1.0, "s2": 2.0})
        ring.pick(("rides", "seg-3"))        # -> "s2" (twice the share)
        ring.add("s3"); ring.remove("s1")    # minimal key movement
    """

    def __init__(self, members: dict[Any, float] | Iterable[Any] = ()) -> None:
        if isinstance(members, dict):
            self._weights: dict[Any, float] = dict(members)
        else:
            self._weights = {m: 1.0 for m in members}

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, member: Any) -> bool:
        return member in self._weights

    @property
    def members(self) -> list[Any]:
        return list(self._weights)

    def add(self, member: Any, weight: float = 1.0) -> None:
        self._weights[member] = weight

    def remove(self, member: Any) -> None:
        self._weights.pop(member, None)

    def weight(self, member: Any) -> float:
        return self._weights.get(member, 0.0)

    def pick(self, key: Any) -> Any:
        return pick(key, list(self._weights), self._weights.__getitem__)

    def rank(self, key: Any) -> list[Any]:
        return rank(key, list(self._weights), self._weights.__getitem__)

    def pick_subset(self, key: Any, n: int) -> list[Any]:
        return pick_subset(key, list(self._weights), n, self._weights.__getitem__)

    def bounded_pick(
        self, key: Any, load_of: Callable[[Any], float], bound: float
    ) -> tuple[Any, bool]:
        return bounded_pick(
            key, list(self._weights), load_of, bound, self._weights.__getitem__
        )
