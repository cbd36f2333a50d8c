"""Boundary tracer for the traced benchmark run.

The tracer patches public methods of the ``repro`` layers *from outside*
(class and module attributes; nothing under ``src/`` is edited) and
restores them on :meth:`Tracer.uninstall`.  Four kinds of boundary:

* **span** boundaries record one span per call — name, start, end,
  parent span, per-op trace id — kept in memory (up to ``SPAN_LIMIT``;
  later spans are counted in ``dropped_spans`` but still aggregated)
  and written out by :meth:`Tracer.write` when the run ends;
* **leaf** boundaries (``common.serde``, ``common.hashring``,
  ``columnar``) are hot: they keep only a call count and total time,
  and a leaf called from inside the same leaf layer is not re-counted;
* **probe** boundaries (result caches) only count lookups and hits, so
  hit ratios are measured where the lookup happens;
* **hook** boundaries only feed a counter (records a Flink task emits).

Self time of a boundary is its duration minus the time covered by the
boundaries called beneath it, so the ``*.self_ms`` figures of one run sum
to at most the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter


#: spans kept in memory; later ones are aggregated and counted, not kept
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # name -> [calls, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        # Live objects whose end-of-run state is read (state bytes,
        # feature versions, segment counts).
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)
        # frames: [child seconds, name, span id]
        self._stack: list[list] = []
        self._next_span = 0
        self._op = None
        self._next_trace = 0
        self._parent_trace = None
        self._patches: list[tuple[object, str, object]] = []

    # -- trace ids -------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        """Spans from now on belong to workload op ``op_id``."""
        self._op = op_id

    def _trace_id(self):
        if self._op is not None:
            return self._op
        self._next_trace += 1
        return f"root-{self._next_trace}"

    # -- wrappers --------------------------------------------------------------

    def _span(self, orig, name, after=None, name_of=None):
        stack = self._stack
        stats = self.stats

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of is not None else name
            parent = stack[-1][2] if stack else None
            self._next_span += 1
            span_id = self._next_span
            trace_id = self._parent_trace if parent is not None else self._trace_id()
            if parent is None:
                self._parent_trace = trace_id
            frame = [0.0, label, span_id]
            stack.append(frame)
            start = _clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                stat = stats[label]
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span_id, parent, trace_id, label, start, end))
                else:
                    self.dropped_spans += 1
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _leaf(self, orig, name):
        stack = self._stack
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return orig(*args, **kwargs)
            frame = [0.0, name, stack[-1][2] if stack else None]
            stack.append(frame)
            start = _clock()
            try:
                return orig(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _probe(self, orig, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            counts[name + ".lookups"] += 1
            if result is not None:
                counts[name + ".hits"] += 1
            return result

        return wrapper

    def _hook(self, orig, after):
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            after(self, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for kind, name, owner_path, attrs in _BOUNDARIES:
            module, __, owner_name = owner_path.partition(":")
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            after = _AFTER.get(name)
            for attr in attrs:
                orig = owner.__dict__[attr]
                if kind == "span":
                    wrapper = self._span(orig, name, after, _NAME_OF.get(name))
                elif kind == "leaf":
                    wrapper = self._leaf(orig, name)
                elif kind == "probe":
                    wrapper = self._probe(orig, name)
                else:
                    wrapper = self._hook(orig, after)
                self.patch(owner, attr, wrapper)
        # A module that bound a leaf function by name at import time.
        from repro.columnar import batch

        leaf = self._leaf(batch.encoded_size, "common.serde")
        self.patch(batch, "encoded_size", leaf)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.stats[n][1] for n in names if n in self.stats)

    def layer_self_ms(self) -> dict[str, float]:
        """Self time summed per layer (the name's first component)."""
        out: dict[str, float] = defaultdict(float)
        for name, (__, self_s) in self.stats.items():
            out[name.split(".")[0]] += 1000.0 * self_s
        return dict(out)

    def write(self, path: str) -> None:
        """Write every kept span, one JSON object a line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "trace", "name", "start", "end")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- counters hooked after a boundary returns ---------------------------------


def _after_fetch(tracer: Tracer, args, result) -> None:
    cluster, topic, partition, offset = args[:4]
    tracer.counts["kafka.fetch.records"] += len(result)
    if not result:
        tracer.counts["kafka.fetch.empty"] += 1
    backlog = cluster.end_offset(topic, partition) - offset - len(result)
    if backlog > tracer.maxima["kafka.backlog"]:
        tracer.maxima["kafka.backlog"] = backlog


def _after_rounds(tracer: Tracer, args, result) -> None:
    tracer.counts["flink.records"] += result
    if result == 0:
        tracer.counts["flink.idle_rounds"] += 1
    tracer.seen["runtime"][id(args[0])] = args[0]


def _after_emit(tracer: Tracer, args, result) -> None:
    from repro.flink.time import RecordBatch, StreamRecord

    records = 0
    for element in args[1]:
        if isinstance(element, StreamRecord):
            records += 1
        elif isinstance(element, RecordBatch):
            records += len(element)
    tracer.counts[f"flink.op.{args[0].spec.kind}.records_out"] += records


def _after_feature(tracer: Tracer, args, result) -> None:
    tracer.seen["features"][id(args[0])] = args[0]


def _after_ingest(tracer: Tracer, args, result) -> None:
    tracer.counts["pinot.ingest.rows"] += result
    if result == 0:
        tracer.counts["pinot.ingest.empty"] += 1
    tracer.seen["ingestion"][id(args[0])] = args[0]


def _after_server(tracer: Tracer, args, result) -> None:
    # Scan work is counted here, where it happens: a broker cache hit
    # never reaches a server, so it adds no segments and no docs.
    tracer.counts["pinot.server.segments"] += len(args[2])
    tracer.counts["pinot.server.docs_examined"] += sum(
        p.plan.docs_examined for p in result if p.plan is not None
    )


def _after_admit(tracer: Tracer, args, result) -> None:
    if not result.admitted:
        tracer.counts["controlplane.shed"] += 1


def _after_blob(tracer: Tracer, args, result) -> None:
    data = args[2] if result is None else result
    tracer.counts["storage.blob.bytes"] += len(data)


def _step_name(args) -> str:
    return f"flink.op.{args[0].spec.kind}"


#: One boundary an entry: kind, metric name, owner ("module:Class" or a
#: module of functions), the methods or functions wrapped.
_BOUNDARIES = [
    (
        "span",
        "kafka.produce",
        "repro.kafka.producer:Producer",
        ("send", "send_columnar", "flush"),
    ),
    ("span", "kafka.fetch", "repro.kafka.cluster:KafkaCluster", ("fetch",)),
    ("span", "flink.rounds", "repro.flink.runtime:JobRuntime", ("run_rounds",)),
    (
        "span",
        "flink.checkpoint",
        "repro.flink.runtime:JobRuntime",
        ("trigger_checkpoint",),
    ),
    ("span", "flink.op", "repro.flink.runtime:SubTask", ("step",)),
    ("hook", "flink.emit", "repro.flink.runtime:SubTask", ("emit",)),
    (
        "span",
        "features.write",
        "repro.features.store:FeatureStore",
        ("write", "write_row"),
    ),
    (
        "span",
        "features.read",
        "repro.features.store:FeatureStore",
        ("get_features", "get_feature"),
    ),
    ("span", "pinot.ingest", "repro.pinot.realtime:RealtimeIngestion", ("run_step",)),
    ("span", "pinot.backup", "repro.pinot.recovery:PeerToPeerBackup", ("run_step",)),
    ("span", "pinot.backup", "repro.pinot.recovery:CentralizedBackup", ("run_step",)),
    ("span", "pinot.broker", "repro.pinot.broker:PinotBroker", ("execute",)),
    ("span", "pinot.estimate", "repro.pinot.broker:PinotBroker", ("estimate_rows",)),
    ("span", "pinot.server", "repro.pinot.server:PinotServer", ("execute",)),
    ("probe", "pinot.broker_cache", "repro.pinot.broker:BrokerResultCache", ("get",)),
    ("probe", "pinot.scanshare", "repro.pinot.scanshare:ScanShareCache", ("get",)),
    ("span", "sql.presto", "repro.sql.presto.engine:PrestoEngine", ("execute",)),
    ("span", "sql.plan", "repro.sql.presto.engine:PrestoEngine", ("plan",)),
    ("span", "sql.scheduler", "repro.sql.planner.scheduler:StageScheduler", ("run",)),
    ("span", "sql.scan", "repro.sql.presto.connector:PinotConnector", ("scan",)),
    ("span", "sql.scan", "repro.sql.presto.connector:HiveConnector", ("scan",)),
    (
        "probe",
        "sql.artifact",
        "repro.sql.planner.scheduler:StageArtifactStore",
        ("get",),
    ),
    (
        "leaf",
        "columnar",
        "repro.columnar.kernels",
        ("eval_condition_mask", "filter_batch", "aggregate_pages"),
    ),
    (
        "span",
        "controlplane.admit",
        "repro.controlplane.admission:AdmissionController",
        ("admit",),
    ),
    (
        "span",
        "controlplane.evaluate",
        "repro.controlplane.scaler:CrossLayerController",
        ("evaluate",),
    ),
    (
        "span",
        "controlplane.queue",
        "repro.controlplane.queueing:QueryQueue",
        ("submit",),
    ),
    (
        "leaf",
        "common.serde",
        "repro.common.serde",
        ("encode", "encode_key", "encoded_size", "decode"),
    ),
    (
        "leaf",
        "common.hashring",
        "repro.common.hashring",
        ("node_score", "rank", "pick", "pick_subset", "bounded_pick"),
    ),
    ("span", "storage.blob", "repro.storage.blobstore:BlobStore", ("put", "get")),
]

_AFTER = {
    "kafka.fetch": _after_fetch,
    "flink.rounds": _after_rounds,
    "flink.emit": _after_emit,
    "features.write": _after_feature,
    "pinot.ingest": _after_ingest,
    "pinot.server": _after_server,
    "controlplane.admit": _after_admit,
    "storage.blob": _after_blob,
}
_NAME_OF = {"flink.op": _step_name}
