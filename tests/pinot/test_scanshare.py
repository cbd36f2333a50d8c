"""Sticky replica routing + the per-server scan-share cache."""

from __future__ import annotations

from repro.common import serde
from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.producer import Producer
from repro.metadata.schema import Field, FieldRole, FieldType, Schema
from repro.pinot.broker import PinotBroker
from repro.pinot.controller import PinotController
from repro.pinot.query import Aggregation, Filter, PinotQuery
from repro.pinot.recovery import PeerToPeerBackup
from repro.pinot.scanshare import ScanShareCache
from repro.pinot.segment import IndexConfig
from repro.pinot.server import PinotServer
from repro.pinot.table import TableConfig
from repro.storage.blobstore import BlobStore

SCHEMA = Schema(
    "rides",
    (
        Field("city", FieldType.STRING),
        Field("ride_id", FieldType.STRING),
        Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
        Field("ts", FieldType.DOUBLE, FieldRole.TIME),
    ),
)


def build_stack(records=200, threshold=40):
    clock = SimulatedClock()
    kafka = KafkaCluster("k", 3, clock=clock)
    kafka.create_topic("rides", TopicConfig(partitions=4, replication_factor=2))
    controller = PinotController(
        [PinotServer(f"s{i}") for i in range(3)], PeerToPeerBackup(BlobStore())
    )
    state = controller.create_realtime_table(
        TableConfig(
            "rides",
            SCHEMA,
            time_column="ts",
            index_config=IndexConfig(inverted=frozenset({"city"})),
            segment_rows_threshold=threshold,
            partition_column="city",
        ),
        kafka,
        "rides",
    )
    producer = Producer(kafka, "svc", clock=clock)
    for i in range(records):
        clock.advance(1.0)
        producer.send(
            "rides",
            {
                "city": f"city-{i % 6}",
                "ride_id": f"ride-{i:06d}",
                "amount": float(i % 100),
                "ts": clock.now(),
            },
            key=f"city-{i % 6}",
        )
    producer.flush()
    state.ingestion.run_until_caught_up()
    return clock, controller, state


def scan_totals(controller):
    hits = sum(s.scan_cache.hits for s in controller.servers)
    entries = sum(s.scan_cache.entry_count() for s in controller.servers)
    return hits, entries


QUERIES = [
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
        filters=[Filter("amount", ">=", 40.0)],
    ),
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("COUNT")],
        filters=[Filter("ts", "BETWEEN", low=20.0, high=150.0)],
    ),
    PinotQuery(
        table="rides",
        aggregations=[Aggregation("SUM", "amount")],
        filters=[
            Filter("city", "=", "city-2"),
            Filter("amount", ">=", 10.0),
        ],
        group_by=["city"],
    ),
    PinotQuery(
        table="rides",
        select_columns=["city", "amount"],
        filters=[Filter("amount", ">", 95.0)],
    ),
]


class TestStickyScatterEquivalence:
    def test_results_byte_identical_across_policies_and_rounds(self):
        __, controller, __ = build_stack()
        sticky = PinotBroker(controller, enable_cache=False, sticky=True)
        scatter = PinotBroker(controller, enable_cache=False, sticky=False)
        for __round in range(3):
            for query in QUERIES:
                a = sticky.execute(query).rows
                b = scatter.execute(query).rows
                assert serde.encode(a) == serde.encode(b)
        hits, __ = scan_totals(controller)
        assert hits > 0  # stickiness actually engaged the cache

    def test_sticky_pins_each_segment_to_one_server(self):
        __, controller, state = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=True)
        query = QUERIES[0]
        routes = []
        for __round in range(3):
            subqueries, __ = broker._route(state, query)
            routes.append(
                sorted((s.name, tuple(names)) for s, names, __ in subqueries)
            )
        assert routes[0] == routes[1] == routes[2]


def routed_docs(broker, state, filters):
    """docs over the segments a real query routes to: the reference the
    estimate must match without ranking replicas."""
    query = PinotQuery(table="rides", filters=list(filters))
    subqueries, __ = broker._route(state, query)
    return sum(
        server.segments[name].num_docs
        for server, names, __ in subqueries
        for name in names
    )


ESTIMATE_FILTERS = [
    (),
    (Filter("ts", "BETWEEN", low=20.0, high=150.0),),  # zone maps prune
    (Filter("city", "=", "city-2"),),  # partition pruning
]


class TestEstimateRows:
    def test_policy_independent_and_equal_to_routed_docs(self):
        __, controller, state = build_stack(records=600)
        sticky = PinotBroker(controller, sticky=True)
        scatter = PinotBroker(controller, sticky=False)
        total = routed_docs(sticky, state, ())
        assert total == 600
        for filters in ESTIMATE_FILTERS:
            expected = (routed_docs(sticky, state, filters), not filters)
            assert sticky.estimate_rows("rides", filters) == expected
            assert scatter.estimate_rows("rides", filters) == expected
        pruned, exact = sticky.estimate_rows("rides", ESTIMATE_FILTERS[1])
        assert 0 < pruned < total and not exact

    def test_replica_death_keeps_estimate_policy_independent(self):
        __, controller, state = build_stack(records=600)
        controller.servers[1].alive = False
        sticky = PinotBroker(controller, sticky=True)
        scatter = PinotBroker(controller, sticky=False)
        for filters in ESTIMATE_FILTERS:
            expected = (routed_docs(scatter, state, filters), not filters)
            assert sticky.estimate_rows("rides", filters) == expected
            assert scatter.estimate_rows("rides", filters) == expected

    def test_estimate_does_not_advance_scatter_rotation(self):
        __, controller, __ = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=False)
        fresh = PinotBroker(controller, enable_cache=False, sticky=False)
        for filters in ESTIMATE_FILTERS:
            broker.estimate_rows("rides", filters)
        assert broker._route_seq == 0
        a = broker.execute(QUERIES[0])
        b = fresh.execute(QUERIES[0])
        assert serde.encode(a.rows) == serde.encode(b.rows)
        assert a.servers_queried == b.servers_queried

    def test_no_live_replica_falls_back_to_consuming_docs(self):
        __, controller, state = build_stack(records=600)
        assert state.ingestion.partitions[0].sealed_segments
        for server in [state.owners[0]] + state.replicas[0]:
            server.alive = False  # partition 0's sealed segments are unhosted
        consuming = sum(
            pstate.consuming.num_docs
            for pstate in state.ingestion.partitions.values()
        )
        for sticky in (True, False):
            broker = PinotBroker(controller, sticky=sticky)
            # Filters that cannot rule partition 0 out.
            for filters in ESTIMATE_FILTERS[:2]:
                assert broker.estimate_rows("rides", filters) == (consuming, False)


class TestScanShare:
    def test_repeat_predicate_is_served_from_cache(self):
        __, controller, __ = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=True)
        first = broker.execute(QUERIES[0])
        hits0, entries0 = scan_totals(controller)
        assert hits0 == 0 and entries0 > 0  # cold: all resolutions stored
        second = broker.execute(QUERIES[0])
        hits1, __ = scan_totals(controller)
        assert hits1 > 0
        assert serde.encode(first.rows) == serde.encode(second.rows)
        # Evidence replay: hits report the same docs_examined as a scan.
        assert second.docs_examined() == first.docs_examined()

    def test_epoch_advance_invalidates_and_stays_correct(self):
        clock, controller, state = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=True)
        query = QUERIES[0]
        before = broker.execute(query).rows
        broker.execute(query)  # warm the scan-share entries
        epoch0 = state.epoch
        # Mutate the table: new rows shift every aggregate.
        producer = Producer(
            controller.table("rides").ingestion.kafka, "svc2", clock=clock
        )
        for i in range(80):
            clock.advance(1.0)
            producer.send(
                "rides",
                {
                    "city": f"city-{i % 6}",
                    "ride_id": f"late-{i:06d}",
                    "amount": 99.0,
                    "ts": clock.now(),
                },
                key=f"city-{i % 6}",
            )
        producer.flush()
        state.ingestion.run_until_caught_up()
        assert state.epoch > epoch0
        after = broker.execute(query).rows
        assert serde.encode(after) != serde.encode(before)
        # Against a cache-free scatter broker: epoch-keyed entries can
        # never leak a pre-mutation resolution into the fresh result.
        scatter = PinotBroker(controller, enable_cache=False, sticky=False)
        assert serde.encode(after) == serde.encode(scatter.execute(query).rows)

    def test_index_served_filters_bypass_the_cache(self):
        __, controller, __ = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=True)
        inverted_only = PinotQuery(
            table="rides",
            aggregations=[Aggregation("COUNT")],
            filters=[Filter("city", "=", "city-1")],
        )
        broker.execute(inverted_only)
        broker.execute(inverted_only)
        hits, entries = scan_totals(controller)
        # Inverted-index lookups are cheaper than a cache hit: nothing
        # stored, nothing served.
        assert hits == 0 and entries == 0

    def test_scatter_broker_never_touches_the_cache(self):
        __, controller, __ = build_stack()
        broker = PinotBroker(controller, enable_cache=False, sticky=False)
        broker.execute(QUERIES[0])
        broker.execute(QUERIES[0])
        hits, entries = scan_totals(controller)
        assert hits == 0 and entries == 0


class TestScanShareCacheUnit:
    class _Plan:
        def __init__(self):
            self.access_paths = []
            self.docs_examined = 0

    def test_hit_replays_plan_evidence(self):
        cache = ScanShareCache()
        key = cache.key_for("seg-1", 7, Filter("amount", ">=", 5.0))
        assert key is not None
        assert cache.get(key, self._Plan()) is None
        cache.put(key, [1, 4, 9], "fwd_scan:amount", 50)
        plan = self._Plan()
        assert cache.get(key, plan) == [1, 4, 9]
        assert plan.access_paths == ["fwd_scan:amount"]
        assert plan.docs_examined == 50
        assert cache.hit_rate() == 0.5  # one miss, one hit

    def test_keys_are_equality_canonical(self):
        cache = ScanShareCache()
        a = cache.key_for("seg-1", 7, Filter("amount", ">=", 5))
        b = cache.key_for("seg-1", 7, Filter("amount", ">=", 5.0))
        assert a == b
        c = cache.key_for("seg-1", 8, Filter("amount", ">=", 5.0))
        assert c != a  # epoch is part of the key

    def test_lru_eviction_bounds_entries(self):
        cache = ScanShareCache(capacity=4)
        for i in range(10):
            key = cache.key_for("seg-1", 1, Filter("amount", ">=", float(i)))
            cache.put(key, [i], "fwd_scan:amount", 1)
        assert cache.entry_count() == 4
