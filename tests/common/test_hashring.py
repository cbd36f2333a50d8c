"""Properties of the weighted rendezvous hash (repro.common.hashring)."""

from __future__ import annotations

import pytest

from repro.common import hashring
from repro.common.hashring import HashRing


NODES = [f"node-{i}" for i in range(8)]
KEYS = [("table", f"seg-{i:04d}") for i in range(2_000)]


def _assignments(nodes, keys=KEYS):
    counts = {n: 0 for n in nodes}
    for key in keys:
        counts[hashring.pick(key, nodes)] += 1
    return counts


class TestBalance:
    def test_unweighted_balance_within_bound(self):
        counts = _assignments(NODES)
        expected = len(KEYS) / len(NODES)
        for node, count in counts.items():
            # HRW over blake2b spreads keys near-uniformly; 35% slack
            # over 2000 keys catches a broken transform without flaking.
            assert abs(count - expected) <= 0.35 * expected, (node, count)

    def test_weighted_ownership_tracks_weight(self):
        weights = {"a": 1.0, "b": 1.0, "c": 2.0}
        ring = HashRing(weights)
        counts = {n: 0 for n in weights}
        for key in KEYS:
            counts[ring.pick(key)] += 1
        # c has half the total weight: expect ~1000 of 2000 keys.
        assert 0.4 * len(KEYS) <= counts["c"] <= 0.6 * len(KEYS)
        assert counts["a"] > 0 and counts["b"] > 0

    def test_zero_weight_owns_nothing(self):
        ring = HashRing({"a": 1.0, "b": 0.0})
        assert all(ring.pick(key) == "a" for key in KEYS[:100])


class TestMinimalMovement:
    def test_add_node_moves_only_its_share(self):
        before = {key: hashring.pick(key, NODES) for key in KEYS}
        grown = NODES + ["node-8"]
        moved = sum(
            1 for key in KEYS if hashring.pick(key, grown) != before[key]
        )
        # Adding one node to 8 should claim ~1/9 of the keyspace; every
        # moved key must have moved *to* the new node, never sideways.
        assert moved <= 0.2 * len(KEYS)
        for key in KEYS:
            after = hashring.pick(key, grown)
            if after != before[key]:
                assert after == "node-8"

    def test_remove_node_moves_only_its_keys(self):
        before = {key: hashring.pick(key, NODES) for key in KEYS}
        shrunk = [n for n in NODES if n != "node-3"]
        for key in KEYS:
            after = hashring.pick(key, shrunk)
            if before[key] != "node-3":
                assert after == before[key]
            else:
                assert after != "node-3"

    def test_subsets_are_nested_and_stable(self):
        for key in KEYS[:200]:
            order = hashring.rank(key, NODES)
            assert hashring.pick(key, NODES) == order[0]
            assert hashring.pick_subset(key, NODES, 3) == order[:3]
            # Nesting: top-2 is a prefix of top-3.
            assert hashring.pick_subset(key, NODES, 2) == order[:2]


class TestBoundedPick:
    def test_spill_walks_rank_order_deterministically(self):
        key = ("t", "seg-42")
        order = hashring.rank(key, NODES)
        load = {n: 0.0 for n in NODES}
        load[order[0]] = 5.0  # sticky choice saturated
        node, spilled = hashring.bounded_pick(key, NODES, load.get, 1.0)
        assert node == order[1] and spilled
        # Identical inputs => identical spill target, every time.
        again, __ = hashring.bounded_pick(key, NODES, load.get, 1.0)
        assert again == node

    def test_no_spill_under_bound(self):
        key = ("t", "seg-7")
        node, spilled = hashring.bounded_pick(
            key, NODES, lambda n: 0.0, 1.0
        )
        assert node == hashring.pick(key, NODES) and not spilled

    def test_all_over_bound_returns_sticky_flagged(self):
        key = ("t", "seg-9")
        node, spilled = hashring.bounded_pick(
            key, NODES, lambda n: 9.0, 1.0
        )
        assert node == hashring.pick(key, NODES) and spilled

    def test_empty_nodes_raise(self):
        with pytest.raises(ValueError):
            hashring.pick("k", [])
        with pytest.raises(ValueError):
            hashring.bounded_pick("k", [], lambda n: 0.0, 1.0)


class TestCanonicalKeys:
    def test_equal_keys_route_identically_across_types(self):
        # serde.encode_key canonicalizes 5 == 5.0 == True-ish ints; the
        # ring must agree with the executor's Python ``==`` semantics.
        assert hashring.pick(5, NODES) == hashring.pick(5.0, NODES)
        assert hashring.pick(("t", 1), NODES) == hashring.pick(("t", 1.0), NODES)

    def test_negative_zero_routes_with_zero(self):
        # 0 == -0.0, so both must take 0's route, whichever one the
        # encoded-bytes memo saw first.
        nodes = list("abcde")
        hashring._memo.cache_clear()
        assert hashring.pick(-0.0, nodes) == "c"
        assert hashring.pick(0, nodes) == "c"
        hashring._memo.cache_clear()
        assert hashring.pick(0.0, nodes) == hashring.pick(-0.0, nodes) == "c"
        assert hashring.pick(("t", -0.0), nodes) == hashring.pick(("t", 0), nodes)

    def test_unencodable_keys_still_deterministic(self):
        key = ("t", frozenset({1, 2}))  # not serde-encodable
        assert hashring.pick(key, NODES) == hashring.pick(key, NODES)


class TestHashRingWrapper:
    def test_membership_ops(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2 and "a" in ring
        ring.add("c", weight=2.0)
        assert ring.weight("c") == 2.0
        ring.remove("a")
        assert "a" not in ring and len(ring) == 2
        assert ring.members == ["b", "c"]

    def test_wrapper_matches_module_functions(self):
        ring = HashRing(NODES)
        for key in KEYS[:100]:
            assert ring.pick(key) == hashring.pick(key, NODES)


# Outputs pinned from the implementation that encoded the key and the
# node afresh for every score: the encoded-bytes memo must not move a
# single route or change a single score bit.
SERVERS = [f"server-{i}" for i in range(5)]
WEIGHTS = {
    "server-0": 1.0,
    "server-1": 2.0,
    "server-2": 0.5,
    "server-3": 0.0,
    "server-4": 1.0,
}
LOADS = {
    "server-0": 3.0,
    "server-1": 0.5,
    "server-2": 2.0,
    "server-3": 0.0,
    "server-4": 1.5,
}
GOLDEN_KEYS = {
    "str": "rides",
    "int": 42,
    "float": 2.5,
    "tuple": ("rides", "seg-0003"),
    "nested": ("t", (1, ("x", 2.0)), None),
    "unencodable": frozenset({1, 2}),
    "unhashable": ["t", 1],
}
# node_score(key, server) for SERVERS, then node_score(key, n, 2.0) for
# n in range(4).
# fmt: off
GOLDEN_SCORES = {
    "str": (
        (0.1973321597364896, 0.7986774969486156, 2.1336237711858623,
         2.6391090643359116, 2.542959916260206),
        (1.2576680148794737, 13.708062808841168, 0.7325018660027948,
         0.6738749345839905),
    ),
    "int": (
        (1.5903141427621845, 3.7567826477600526, 0.5504935994200786,
         0.7322184460312368, 0.8758419102052032),
        (28.644764292767462, 3.5098259407414396, 1.8541261757489464,
         3.713100989603003),
    ),
    "float": (
        (1.6853269510783633, 2.923999753194302, 2.078859080947164,
         0.823435791635607, 4.331077748366538),
        (3.0431267682937873, 47.24793665134446, 0.567022842894139,
         2.364771331875705),
    ),
    "tuple": (
        (0.5523340826364673, 5.879249055487033, 1.6965341920618953,
         1.1769821716735585, 2.263904950169776),
        (5.639326213468275, 1.6233769447542725, 1.332997779208346,
         8.678122333865545),
    ),
    "nested": (
        (33.47049569700664, 1.1169067033168654, 1.402286716984639,
         0.6475314862375702, 2.0078042061404293),
        (1.0414720277471747, 1.9986929627674321, 1.190972312309934,
         5.111481229803701),
    ),
    "unencodable": (
        (2.2772126102323993, 21.202813025404183, 1.391684847399479,
         1.1188429570163, 0.5923135762356758),
        (1.4099916112509276, 120.8477039003006, 4.481563266715888,
         7.1765246272984715),
    ),
    "unhashable": (
        (3.4169208033734697, 91.20871597116168, 2.640853956114324,
         2.852897301024172, 0.28554108119334),
        (20.018192211057777, 4.969723636543094, 4.14830849616863,
         8.017236521629503),
    ),
}
# fmt: on
# rank(key, nodes, weight_of) for the unweighted servers, range(4) and the
# weighted servers.
GOLDEN_RANKS = {
    "str": ([3, 4, 2, 1, 0], [1, 0, 2, 3], [4, 1, 2, 0, 3]),
    "int": ([1, 0, 4, 3, 2], [0, 3, 1, 2], [1, 0, 4, 2, 3]),
    "float": ([4, 1, 2, 0, 3], [1, 0, 3, 2], [1, 4, 0, 2, 3]),
    "tuple": ([1, 4, 2, 3, 0], [3, 0, 1, 2], [1, 4, 2, 0, 3]),
    "nested": ([0, 4, 2, 1, 3], [3, 1, 2, 0], [0, 1, 4, 2, 3]),
    "unencodable": ([1, 0, 2, 3, 4], [1, 3, 2, 0], [1, 0, 2, 4, 3]),
    "unhashable": ([1, 0, 3, 2, 4], [0, 3, 1, 2], [1, 0, 2, 4, 3]),
}
# bounded_pick under LOADS (servers) or load n (range(4)), bound 1.0.
GOLDEN_BOUNDED = {
    "str": (("server-3", False), (1, False), ("server-1", True)),
    "int": (("server-1", False), (0, False), ("server-1", False)),
    "float": (("server-1", True), (1, False), ("server-1", False)),
    "tuple": (("server-1", False), (0, True), ("server-1", False)),
    "nested": (("server-1", True), (1, True), ("server-1", True)),
    "unencodable": (("server-1", False), (1, False), ("server-1", False)),
    "unhashable": (("server-1", False), (0, False), ("server-1", False)),
}


# (nodes, weight_of, load_of): unweighted servers, range(4), weighted servers.
RINGS = [
    (SERVERS, None, LOADS.__getitem__),
    (range(4), None, float),
    (SERVERS, WEIGHTS.__getitem__, LOADS.__getitem__),
]


def _routes(key):
    out = [
        tuple(hashring.node_score(key, n) for n in SERVERS),
        tuple(hashring.node_score(key, n, 2.0) for n in range(4)),
    ]
    for nodes, weight_of, load_of in RINGS:
        out.append(
            (
                hashring.pick(key, nodes, weight_of),
                hashring.rank(key, nodes, weight_of),
                hashring.pick_subset(key, nodes, 2, weight_of),
                hashring.bounded_pick(key, nodes, load_of, 1.0, weight_of),
            )
        )
    return out


class TestGoldenRoutes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_scores_are_pinned(self, name):
        key = GOLDEN_KEYS[name]
        servers, numbered = GOLDEN_SCORES[name]
        assert tuple(hashring.node_score(key, n) for n in SERVERS) == servers
        assert tuple(hashring.node_score(key, n, 2.0) for n in range(4)) == numbered

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_routes_are_pinned(self, name):
        key = GOLDEN_KEYS[name]
        cases = zip(RINGS, GOLDEN_RANKS[name], GOLDEN_BOUNDED[name])
        for (nodes, weight_of, load_of), positions, bounded in cases:
            order = [nodes[p] for p in positions]
            assert hashring.rank(key, nodes, weight_of) == order
            assert hashring.pick(key, nodes, weight_of) == order[0]
            assert hashring.pick_subset(key, nodes, 2, weight_of) == order[:2]
            assert hashring.pick_subset(key, nodes, 0, weight_of) == []
            assert (
                hashring.bounded_pick(key, nodes, load_of, 1.0, weight_of) == bounded
            )

    def test_weighted_ring_wrapper_matches_golden(self):
        ring = HashRing(WEIGHTS)
        for name, key in GOLDEN_KEYS.items():
            order = [SERVERS[p] for p in GOLDEN_RANKS[name][2]]
            assert ring.rank(key) == order
            assert ring.pick(key) == order[0]
            assert ring.pick_subset(key, 3) == order[:3]
            bounded = GOLDEN_BOUNDED[name][2]
            assert ring.bounded_pick(key, LOADS.__getitem__, 1.0) == bounded

    def test_cold_memo_equals_warm_memo(self):
        hashring._memo.cache_clear()
        cold = [_routes(key) for key in GOLDEN_KEYS.values()]
        warm = [_routes(key) for key in GOLDEN_KEYS.values()]
        hashring._memo.cache_clear()
        assert [_routes(key) for key in GOLDEN_KEYS.values()] == cold == warm
        assert hashring._memo.cache_info().currsize > 0

    def test_memo_is_bounded(self):
        hashring._memo.cache_clear()
        for i in range(hashring._MEMO_SIZE + 500):
            hashring.pick(("t", f"seg-{i}"), SERVERS)
        info = hashring._memo.cache_info()
        assert info.maxsize == hashring._MEMO_SIZE
        assert info.currsize == hashring._MEMO_SIZE
        # The members stay hot, so they survive a stream of one-off keys.
        assert all(hashring._key_bytes(n) for n in SERVERS)
        hits = hashring._memo.cache_info().hits
        assert hits - info.hits == len(SERVERS)
