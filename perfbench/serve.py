"""``serve``: the dashboard and ops-exploration read path (paper §5.2, §5.4).

Set-up pre-ingests a Pinot ``rides`` table — partitioned by city, with a
bloom filter on ``ride_id``, an inverted index on ``city`` and zone maps
on every column — and a Hive ``cities`` dimension.  The measured phase is
a closed loop with one client and one outstanding query, a fixed number
of queries sized from the requested run length, over four query types:

* ``point``: a ``ride_id`` lookup the bloom filters prune;
* ``range``: a city-partition plus time-range aggregate zone maps prune;
* ``join``: a Presto federated join of ``rides`` with Hive ``cities``
  (planner, stage scheduler, stage-artifact store);
* ``scan``: a Presto template with predicate-only pushdown over the
  columnar Pinot connector, so pages flow into the columnar kernels.

Each query's parameter is Zipf-skewed, so a share of queries repeat
exactly (and can be served by a cache) while the rest are distinct; the
run reports the measured repeat share.  Nothing is written while the loop
runs.  Every distinct query is re-run after the loop on a broker with the
result cache and scan sharing off and engines with artifact reuse off,
and every execution's result digest must match that reference.
"""

from __future__ import annotations

import random

from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    SpeedProbe,
    clock,
    e2e_metrics,
    ingest_until_caught_up,
    median_setup,
    percentile,
    rows_digest,
    scaled_s,
)

ROWS = 12_000
CITIES = 16
REGIONS = 4
SEGMENT_ROWS = 500
RIDE_DT = 0.01  # simulated seconds between rides
SPAN = ROWS * RIDE_DT
TIME_SLOTS = 64
SCAN_SLOTS = 16
FLOORS = 100  # amount floors 0 .. 99
STATUSES = ("ok", "late", "cancelled")
SKEW = 1.1  # the skew of repro.controlplane.workload.UserPopulation
#: query type -> (share of the mix, parameter space).  The shares are the
#: tier weights of ``repro.controlplane.workload.DEFAULT_MIX``: its two
#: city-and-time-window tiers (surge_pricing 0.15, eats_dashboard 0.30)
#: are ``range``; ads_attribution (0.15), which reads single events by
#: id, is ``point``; exploration (0.40), ad-hoc SQL through Presto, is
#: split evenly between its two shapes, ``join`` and ``scan``.
MIX = {
    "point": (0.15, ROWS),
    "range": (0.45, CITIES * TIME_SLOTS),
    "join": (0.20, CITIES * FLOORS),
    "scan": (0.20, len(STATUSES) * SCAN_SLOTS * FLOORS),
}
#: queries per requested second of run length
WORK_PER_S = 500
PROBE_EVERY = 10  # queries between speed-probe samples


def query_stream(seed: int):
    """Endless seeded sequence of (type, param) query keys."""
    from repro.common.rng import zipf_sampler

    rng = random.Random(f"perfbench.serve.{seed}")
    kinds = list(MIX)
    weights = [MIX[k][0] for k in kinds]
    zipf = {k: zipf_sampler(rng, MIX[k][1], SKEW) for k in kinds}
    # Scramble ranks so the popular parameters differ between seeds.
    shift = {k: rng.randrange(MIX[k][1]) for k in kinds}
    while True:
        kind = rng.choices(kinds, weights)[0]
        yield kind, (zipf[kind]() + shift[kind]) % MIX[kind][1]


def _ride_id(i: int) -> str:
    return f"ride-{i:06d}"


class _Tables:
    """The serving tables and the engines over them."""

    def __init__(self, rides: list[dict]) -> None:
        from repro.common.clock import SimulatedClock
        from repro.kafka.cluster import KafkaCluster, TopicConfig
        from repro.kafka.producer import Producer
        from repro.metadata.schema import Field, FieldRole, FieldType, Schema
        from repro.pinot.broker import PinotBroker
        from repro.pinot.controller import PinotController
        from repro.pinot.recovery import PeerToPeerBackup
        from repro.pinot.segment import IndexConfig
        from repro.pinot.server import PinotServer
        from repro.pinot.table import TableConfig
        from repro.storage.blobstore import BlobStore
        from repro.storage.hive import HiveMetastore

        self.clock = SimulatedClock()
        kafka = KafkaCluster("serve", 3, clock=self.clock)
        kafka.create_topic("rides", TopicConfig(partitions=4))
        producer = Producer(kafka, "rides-service", clock=self.clock)
        for row in rides:
            self.clock.advance(row["ts"] - self.clock.now())
            producer.send("rides", row, key=row["city"], event_time=row["ts"])
        producer.flush()
        self.controller = PinotController(
            [PinotServer(f"s{i}") for i in range(3)],
            PeerToPeerBackup(BlobStore("segments", clock=self.clock)),
        )
        schema = Schema(
            "rides",
            (
                Field("ride_id", FieldType.STRING),
                Field("city", FieldType.STRING),
                Field("status", FieldType.STRING),
                Field("amount", FieldType.DOUBLE, FieldRole.METRIC),
                Field("ts", FieldType.DOUBLE, FieldRole.TIME),
            ),
        )
        state = self.controller.create_realtime_table(
            TableConfig(
                "rides",
                schema,
                time_column="ts",
                index_config=IndexConfig(
                    inverted=frozenset({"city", "status"}),
                    bloom_filtered=frozenset({"ride_id"}),
                ),
                segment_rows_threshold=SEGMENT_ROWS,
                partition_column="city",
            ),
            kafka,
            "rides",
        )
        ingest_until_caught_up(self.controller, state.ingestion)
        dim_schema = Schema(
            "cities",
            (Field("city", FieldType.STRING), Field("region", FieldType.STRING)),
        )
        self.metastore = HiveMetastore(BlobStore("warehouse", clock=self.clock))
        self.metastore.create_table("cities", dim_schema).add_rows(
            "p0",
            [
                {"city": f"city-{i}", "region": f"region-{i % REGIONS}"}
                for i in range(CITIES)
            ],
        )
        self.broker = PinotBroker(self.controller, clock=self.clock)
        self.engines = self.make_engines(self.broker, reuse=True)

    def make_engines(self, broker, reuse: bool) -> dict:
        from repro.sql.presto.connector import HiveConnector, PinotConnector
        from repro.sql.presto.engine import PrestoEngine

        return {
            "join": PrestoEngine(
                {
                    "rides": PinotConnector(broker, pushdown="full"),
                    "cities": HiveConnector(self.metastore),
                },
                clock=self.clock,
                artifact_reuse=reuse,
                sticky=reuse,
            ),
            "scan": PrestoEngine(
                {"rides": PinotConnector(broker, pushdown="predicate", columnar=True)},
                clock=self.clock,
                artifact_reuse=reuse,
                sticky=reuse,
            ),
        }

    def execute(self, key, broker, engines) -> list:
        """Run one query key; returns its result rows."""
        from repro.pinot.query import Aggregation, Filter, PinotQuery

        kind, param = key
        if kind == "point":
            return broker.execute(
                PinotQuery(
                    table="rides",
                    select_columns=["ride_id", "city", "status", "amount", "ts"],
                    filters=[Filter("ride_id", "=", _ride_id(param))],
                    limit=10,
                )
            ).rows
        if kind == "range":
            city, slot = divmod(param, TIME_SLOTS)
            low = SPAN * 0.9 * slot / TIME_SLOTS
            return broker.execute(
                PinotQuery(
                    table="rides",
                    aggregations=[Aggregation("COUNT"), Aggregation("SUM", "amount")],
                    filters=[
                        Filter("city", "=", f"city-{city}"),
                        Filter("ts", "BETWEEN", low=low, high=low + SPAN * 0.1),
                    ],
                    group_by=["status"],
                    limit=100,
                )
            ).rows
        if kind == "join":
            city, floor = divmod(param, FLOORS)
            return engines["join"].execute(
                "SELECT d.region AS region, COUNT(*) AS n, SUM(f.amount) AS total "
                "FROM rides f JOIN cities d ON f.city = d.city "
                f"WHERE f.city = 'city-{city}' AND f.amount >= {floor} "
                "GROUP BY d.region"
            ).rows
        status, rest = divmod(param, SCAN_SLOTS * FLOORS)
        slot, floor = divmod(rest, FLOORS)
        low = SPAN * slot / SCAN_SLOTS
        return engines["scan"].execute(
            "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM rides "
            f"WHERE status = '{STATUSES[status]}' AND amount >= {floor} "
            f"AND ts >= {low} AND ts < {low + SPAN / SCAN_SLOTS} GROUP BY city"
        ).rows


def _rides(seed: int) -> list[dict]:
    rng = random.Random(f"perfbench.serve.rides.{seed}")
    return [
        {
            "ride_id": _ride_id(i),
            "city": f"city-{rng.randrange(CITIES)}",
            "status": rng.choice(STATUSES),
            "amount": float(rng.randrange(1000)) / 10,
            "ts": (i + 1) * RIDE_DT,
        }
        for i in range(ROWS)
    ]


def run(seed, work, tracer=None, corrupt=False, setups=SETUP_REPEATS):
    """Run ``work`` queries in the closed loop after ``setups`` set-ups."""
    probe = SpeedProbe()
    built = median_setup(lambda: _rides(seed), _Tables, setups, probe)
    tables, raw_setup_s, setup_s = built
    stream = query_stream(seed)
    broker, engines = tables.broker, tables.engines
    keys = []
    results = []
    latency_s = []  # (seconds, probe position)
    while len(keys) < work:
        key = next(stream)
        if tracer is not None:
            tracer.begin_op(f"q{len(keys)}")
        start = clock()
        rows = tables.execute(key, broker, engines)
        latency_s.append((clock() - start, probe.position))
        keys.append(key)
        results.append(rows)
        if len(keys) % PROBE_EVERY == 0:
            probe.sample()
    done = len(results)
    if tracer is not None:
        tracer.uninstall()  # the reference check below is not the workload

    # Reference: every distinct query on a cache-off, reuse-off stack.
    from repro.pinot.broker import PinotBroker

    ref_broker = PinotBroker(
        tables.controller, clock=tables.clock, enable_cache=False, sticky=False
    )
    ref_engines = tables.make_engines(ref_broker, reuse=False)
    reference = {
        key: rows_digest(tables.execute(key, ref_broker, ref_engines))
        for key in dict.fromkeys(keys)
    }
    if corrupt:
        reference[keys[0]] = "corrupted"
    failed = sum(
        rows_digest(rows) != reference[key] for key, rows in zip(keys, results)
    )
    repeat_share = 1.0 - len(reference) / done
    latency = [(1000.0 * seconds, pos) for seconds, pos in latency_s]
    metrics = e2e_metrics(probe, setup_s, done, latency_s, latency)
    latency_ms = [ms for ms, __ in latency]
    rate = done / sum(seconds for seconds, __ in latency_s)
    per_kind = {}
    for kind in MIX:
        own = [ms for (k, __), ms in zip(keys, latency_ms) if k == kind]
        if own:
            per_kind[f"{kind}_p50_ms"] = percentile(own, 50)
    return Outcome(
        correct=failed == 0,
        attempted=done,
        failed=failed,
        metrics=metrics,
        detail={
            "queries_per_s": rate,
            "query_p50_ms": percentile(latency_ms, 50),
            "query_p95_ms": percentile(latency_ms, 95),
            "query_p97_ms": percentile(latency_ms, 97),
            "query_p99_ms": percentile(latency_ms, 99),
            "queries": done,
            "repeat_share": repeat_share,
            "error_rate": failed / done,
            "setup_s": raw_setup_s,
            "peak_rss_mb": metrics["peak_rss_mb"],
            "speed_scale": probe.median_scale(),
            **per_kind,
        },
        wall_s=setup_s + scaled_s(probe, latency_s),
        notes=[f"{failed} results differ from the reference"] if failed else [],
    )
