"""Per-layer metrics of a traced run, named ``layer.boundary.quantity``.

Every metric is printed on every workload; a layer a workload does not
reach reads 0.  ``*.calls``, record, row, segment, doc and byte counts and
``*_ratio`` values are exact and repeat for a seed; ``*.self_ms`` values
are wall time.  Which end-to-end metric each layer should move is
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

FLINK_KINDS = ("source", "map", "interval_join", "window", "sink")

#: (name, unit, better) in print order
PER_LAYER: list[tuple[str, str, str]] = [
    ("kafka.produce.calls", "count", "lower"),
    ("kafka.produce.self_ms", "ms", "lower"),
    ("kafka.fetch.calls", "count", "lower"),
    ("kafka.fetch.records", "count", "lower"),
    ("kafka.fetch.self_ms", "ms", "lower"),
    ("kafka.fetch.empty_ratio", "ratio", "lower"),
    ("kafka.backlog_max", "records", "lower"),
    ("flink.rounds.calls", "count", "lower"),
    ("flink.rounds.self_ms", "ms", "lower"),
    ("flink.records", "count", "lower"),
    ("flink.idle_round_ratio", "ratio", "lower"),
    *[
        item
        for kind in FLINK_KINDS
        for item in (
            (f"flink.op.{kind}.self_ms", "ms", "lower"),
            (f"flink.op.{kind}.records_out", "count", "lower"),
        )
    ],
    ("flink.checkpoint.calls", "count", "lower"),
    ("flink.checkpoint.self_ms", "ms", "lower"),
    ("flink.state_bytes", "bytes", "lower"),
    ("features.write.calls", "count", "lower"),
    ("features.write.self_ms", "ms", "lower"),
    ("features.read.calls", "count", "lower"),
    ("features.read.self_ms", "ms", "lower"),
    ("features.versions", "count", "lower"),
    ("pinot.ingest.calls", "count", "lower"),
    ("pinot.ingest.rows", "count", "lower"),
    ("pinot.ingest.self_ms", "ms", "lower"),
    ("pinot.ingest.empty_ratio", "ratio", "lower"),
    ("pinot.backup.self_ms", "ms", "lower"),
    ("pinot.segments", "count", "lower"),
    ("pinot.broker.calls", "count", "lower"),
    ("pinot.broker.self_ms", "ms", "lower"),
    ("pinot.broker.cache_hit_ratio", "ratio", "higher"),
    ("pinot.server.calls", "count", "lower"),
    ("pinot.server.segments", "count", "lower"),
    ("pinot.server.docs_examined", "count", "lower"),
    ("pinot.server.self_ms", "ms", "lower"),
    ("pinot.scanshare.hit_ratio", "ratio", "higher"),
    ("pinot.estimate.self_ms", "ms", "lower"),
    ("sql.presto.calls", "count", "lower"),
    ("sql.presto.self_ms", "ms", "lower"),
    ("sql.plan.self_ms", "ms", "lower"),
    ("sql.scheduler.self_ms", "ms", "lower"),
    ("sql.scan.calls", "count", "lower"),
    ("sql.scan.self_ms", "ms", "lower"),
    ("sql.artifact_hit_ratio", "ratio", "higher"),
    ("columnar.calls", "count", "lower"),
    ("columnar.self_ms", "ms", "lower"),
    ("controlplane.admit.calls", "count", "lower"),
    ("controlplane.admit.self_ms", "ms", "lower"),
    ("controlplane.evaluate.self_ms", "ms", "lower"),
    ("controlplane.queue.self_ms", "ms", "lower"),
    ("controlplane.shed_ratio", "ratio", "lower"),
    ("common.serde.calls", "count", "lower"),
    ("common.serde.self_ms", "ms", "lower"),
    ("common.hashring.calls", "count", "lower"),
    ("common.hashring.self_ms", "ms", "lower"),
    ("storage.blob.calls", "count", "lower"),
    ("storage.blob.bytes", "bytes", "lower"),
    ("storage.blob.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER value from a finished (uninstalled) tracer."""
    t = tracer
    c = t.counts
    seen = t.seen
    values = {
        "kafka.produce.calls": t.calls("kafka.produce"),
        "kafka.produce.self_ms": t.self_ms("kafka.produce"),
        "kafka.fetch.calls": t.calls("kafka.fetch"),
        "kafka.fetch.records": c["kafka.fetch.records"],
        "kafka.fetch.self_ms": t.self_ms("kafka.fetch"),
        "kafka.fetch.empty_ratio": _ratio(
            c["kafka.fetch.empty"], t.calls("kafka.fetch")
        ),
        "kafka.backlog_max": t.maxima["kafka.backlog"],
        "flink.rounds.calls": t.calls("flink.rounds"),
        "flink.rounds.self_ms": t.self_ms("flink.rounds"),
        "flink.records": c["flink.records"],
        "flink.idle_round_ratio": _ratio(
            c["flink.idle_rounds"], t.calls("flink.rounds")
        ),
        "flink.checkpoint.calls": t.calls("flink.checkpoint"),
        "flink.checkpoint.self_ms": t.self_ms("flink.checkpoint"),
        "flink.state_bytes": sum(
            rt.total_state_bytes() for rt in seen["runtime"].values()
        ),
        "features.write.calls": t.calls("features.write"),
        "features.write.self_ms": t.self_ms("features.write"),
        "features.read.calls": t.calls("features.read"),
        "features.read.self_ms": t.self_ms("features.read"),
        "features.versions": sum(
            fs.version_count() for fs in seen["features"].values()
        ),
        "pinot.ingest.calls": t.calls("pinot.ingest"),
        "pinot.ingest.rows": c["pinot.ingest.rows"],
        "pinot.ingest.self_ms": t.self_ms("pinot.ingest"),
        "pinot.ingest.empty_ratio": _ratio(
            c["pinot.ingest.empty"], t.calls("pinot.ingest")
        ),
        "pinot.backup.self_ms": t.self_ms("pinot.backup"),
        "pinot.segments": sum(
            len(ing.segments_of_partition(p))
            for ing in seen["ingestion"].values()
            for p in ing.partitions
        ),
        "pinot.broker.calls": t.calls("pinot.broker"),
        "pinot.broker.self_ms": t.self_ms("pinot.broker"),
        "pinot.broker.cache_hit_ratio": _ratio(
            c["pinot.broker_cache.hits"], c["pinot.broker_cache.lookups"]
        ),
        "pinot.server.calls": t.calls("pinot.server"),
        "pinot.server.segments": c["pinot.server.segments"],
        "pinot.server.docs_examined": c["pinot.server.docs_examined"],
        "pinot.server.self_ms": t.self_ms("pinot.server"),
        "pinot.scanshare.hit_ratio": _ratio(
            c["pinot.scanshare.hits"], c["pinot.scanshare.lookups"]
        ),
        "pinot.estimate.self_ms": t.self_ms("pinot.estimate"),
        "sql.presto.calls": t.calls("sql.presto"),
        "sql.presto.self_ms": t.self_ms("sql.presto"),
        "sql.plan.self_ms": t.self_ms("sql.plan"),
        "sql.scheduler.self_ms": t.self_ms("sql.scheduler"),
        "sql.scan.calls": t.calls("sql.scan"),
        "sql.scan.self_ms": t.self_ms("sql.scan"),
        "sql.artifact_hit_ratio": _ratio(
            c["sql.artifact.hits"], c["sql.artifact.lookups"]
        ),
        "columnar.calls": t.calls("columnar"),
        "columnar.self_ms": t.self_ms("columnar"),
        "controlplane.admit.calls": t.calls("controlplane.admit"),
        "controlplane.admit.self_ms": t.self_ms("controlplane.admit"),
        "controlplane.evaluate.self_ms": t.self_ms("controlplane.evaluate"),
        "controlplane.queue.self_ms": t.self_ms("controlplane.queue"),
        "controlplane.shed_ratio": _ratio(
            c["controlplane.shed"], t.calls("controlplane.admit")
        ),
        "common.serde.calls": t.calls("common.serde"),
        "common.serde.self_ms": t.self_ms("common.serde"),
        "common.hashring.calls": t.calls("common.hashring"),
        "common.hashring.self_ms": t.self_ms("common.hashring"),
        "storage.blob.calls": t.calls("storage.blob"),
        "storage.blob.bytes": c["storage.blob.bytes"],
        "storage.blob.self_ms": t.self_ms("storage.blob"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for kind in FLINK_KINDS:
        values[f"flink.op.{kind}.self_ms"] = t.self_ms(f"flink.op.{kind}")
        values[f"flink.op.{kind}.records_out"] = c[f"flink.op.{kind}.records_out"]
    # A sink emits nothing downstream: its records out are those it wrote.
    values["flink.op.sink.records_out"] = sum(
        task.records_processed
        for rt in seen["runtime"].values()
        for tasks in rt.tasks.values()
        for task in tasks
        if task.spec.kind == "sink"
    )
    return values
