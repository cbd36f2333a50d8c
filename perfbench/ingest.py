"""``ingest``: the prediction-monitoring write path (paper §5.3).

Seeded :class:`PredictionWorkload` streams are produced to Kafka with
``acks=all``; the :class:`PredictionMonitoring` Flink job logs request
features, interval-joins predictions with outcomes that arrive 30–600 s
late, enriches each pair point-in-time from the feature store, folds it
into a tumbling error cube and sinks the cube to Kafka, from which Pinot
ingests the star-tree ``model_accuracy`` table.  Checkpoints run every
``CHECKPOINT_EVERY_S`` simulated seconds.

The loop is closed with one client and a fixed amount of work (ticks),
sized from the requested run length: a tick produces ``TICK_S`` simulated
seconds of events, drives Flink until it is drained and Pinot until it
has caught up, then runs one visibility query; the next tick starts only
then.  Set-up deploys the pipeline and warms it for ``WARMUP_S``
simulated seconds, so join state has reached the join horizon before the
measured phase starts.

Freshness of a cube window is the wall time from the produce call of the
first event whose event time passes the window end by the sources'
out-of-orderness bound (the earliest event that can close the window) to
the completion of the first visibility query that returns the window.
Wall time between ticks (the benchmark's speed probe and the building of
the next batch) is left out of it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import islice

from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    SpeedProbe,
    clock,
    e2e_metrics,
    ingest_until_caught_up,
    median_setup,
    percentile,
    scaled_s,
)

RATE = 5.0  # predictions per simulated second
WINDOW_S = 2.0  # error-cube window
TICK_S = 4.0  # simulated seconds produced per tick
CHECKPOINT_EVERY_S = 60.0
WARMUP_S = 600.0  # the join horizon: max outcome delay
WARMUP_TICKS = int(WARMUP_S / TICK_S)
OOO_S = 30.0  # the sources' max out-of-orderness (watermark delay)
MAX_DELAY_S = 600.0
STREAM_S = 1e7  # generator horizon; never reached by a run
#: measured ticks per requested second of run length
WORK_PER_S = 30


class Events:
    """The seeded event stream, sliced into ticks outside any timing."""

    def __init__(self, seed: int) -> None:
        from repro.workloads.predictions import PredictionWorkload

        workload = PredictionWorkload(seed=seed, predictions_per_second=RATE)
        self._it = workload.streams(STREAM_S)
        self._next = next(self._it)

    def until(self, sim_end: float) -> list:
        out = []
        while self._next[2] <= sim_end:
            out.append(self._next)
            self._next = next(self._it)
        return out


class Pipeline:
    def __init__(self, tracer=None) -> None:
        from repro.common.clock import SimulatedClock
        from repro.kafka.cluster import KafkaCluster
        from repro.kafka.producer import Producer
        from repro.pinot.controller import PinotController
        from repro.pinot.recovery import PeerToPeerBackup
        from repro.pinot.server import PinotServer
        from repro.storage.blobstore import BlobStore
        from repro.usecases.prediction import PredictionMonitoring

        self.tracer = tracer
        self.clock = SimulatedClock()
        kafka = KafkaCluster("ingest", 3, clock=self.clock)
        self.controller = PinotController(
            [PinotServer(f"s{i}") for i in range(2)],
            PeerToPeerBackup(BlobStore("segments", clock=self.clock)),
        )
        self.app = PredictionMonitoring.deploy(
            kafka,
            self.controller,
            max_outcome_delay_seconds=MAX_DELAY_S,
            agg_window_seconds=WINDOW_S,
            checkpoint_store=BlobStore("checkpoints", clock=self.clock),
        )
        self.producer = Producer(
            kafka, "prediction-service", clock=self.clock, acks="all"
        )
        self.cube = self.controller.table("model_accuracy")
        self.sim_end = 0.0
        self.ticks = 0
        self.checkpoints = 0
        self.next_checkpoint = CHECKPOINT_EVERY_S
        # per produced event: (kind, row, topic, partition), produce time
        # on the program clock, running max event time
        self.produced: list = []
        self.produce_wall = array("d")
        self.max_event_time = array("d")
        # The program clock is wall time less the time between ticks.
        self.paused = 0.0
        self.tick_end = None
        self.seen_end = -1.0
        self.visible: dict[float, float] = {}  # window end -> first seen
        self.query_s: list[float] = []

    def tick(self, events: list) -> None:
        from repro.pinot.query import Aggregation, Filter, PinotQuery
        from repro.usecases.prediction import OUTCOMES_TOPIC, PREDICTIONS_TOPIC

        if self.tick_end is not None:
            self.paused += clock() - self.tick_end
        self.ticks += 1
        if self.tracer is not None:
            self.tracer.begin_op(f"tick-{self.ticks}")
        self.sim_end += TICK_S
        top = self.max_event_time[-1] if self.max_event_time else -math.inf
        for kind, row, arrival in events:
            if arrival > self.clock.now():
                self.clock.advance(arrival - self.clock.now())
            topic = PREDICTIONS_TOPIC if kind == "prediction" else OUTCOMES_TOPIC
            self.produce_wall.append(clock() - self.paused)
            partition = self.producer.send(
                topic, row, key=row["prediction_id"], event_time=row["event_time"]
            )
            top = max(top, row["event_time"])
            self.max_event_time.append(top)
            self.produced.append((kind, row, topic, partition))
        self.producer.flush()
        if self.sim_end > self.clock.now():
            self.clock.advance(self.sim_end - self.clock.now())
        runtime = self.app.join_runtime
        while runtime.run_rounds(1, 500):
            pass
        ingest_until_caught_up(self.controller, self.cube.ingestion)
        if self.sim_end >= self.next_checkpoint:
            runtime.trigger_checkpoint()
            self.checkpoints += 1
            self.next_checkpoint += CHECKPOINT_EVERY_S
        start = clock()
        result = self.app.broker.execute(
            PinotQuery(
                table="model_accuracy",
                aggregations=[Aggregation("COUNT")],
                filters=[Filter("window_end", ">", self.seen_end)],
                group_by=["window_end"],
                limit=100_000,
            )
        )
        done = clock()
        self.query_s.append(done - start)
        for row in result.rows:
            end = row["window_end"]
            if end not in self.visible:
                self.visible[end] = done - self.paused
                self.seen_end = max(self.seen_end, end)
        self.tick_end = clock()

    def freshness_ms(self, windows) -> dict[float, float]:
        """Window end -> freshness, for the given windows."""
        out = {}
        for end in windows:
            j = bisect_left(self.max_event_time, end + OOO_S)
            if j < len(self.produce_wall):
                out[end] = 1000.0 * (self.visible[end] - self.produce_wall[j])
        return out


def reference_cube(produced) -> dict:
    """Offline recomputation: interval join, point-in-time error, cube."""
    predictions = {}
    cube: dict[tuple, list] = {}
    for kind, row, *__ in produced:
        if kind == "prediction":
            predictions[row["prediction_id"]] = row
            continue
        p = predictions.get(row["prediction_id"])
        if p is None or not 0 <= row["event_time"] - p["event_time"] <= MAX_DELAY_S:
            continue
        end = math.floor(row["event_time"] / WINDOW_S) * WINDOW_S + WINDOW_S
        cell = cube.setdefault((p["model_id"], p["feature_id"], end), [0, 0.0])
        cell[0] += 1
        cell[1] += abs(p["predicted"] - row["observed"])
    return cube


def closed_until(produced) -> float:
    """The event time up to which the produced stream has closed every
    window: the least, over the source topics' partitions, of the latest
    event time sent there, less the out-of-orderness bound.  A source
    watermark is the latest event time of its own partitions less that
    bound, so the job's final watermark is at least this."""
    latest: dict[tuple, float] = {}
    for __, row, topic, partition in produced:
        key = (topic, partition)
        latest[key] = max(latest.get(key, -math.inf), row["event_time"])
    return min(latest.values(), default=-math.inf) - OOO_S


def cube_rows(pipe: Pipeline) -> dict:
    """The Pinot cube: (model, feature, window end) -> (samples, error)."""
    from repro.pinot.query import Aggregation, PinotQuery

    result = pipe.app.broker.execute(
        PinotQuery(
            table="model_accuracy",
            aggregations=[
                Aggregation("SUM", "samples"),
                Aggregation("SUM", "total_abs_error"),
            ],
            group_by=["model_id", "feature_id", "window_end"],
            limit=10_000_000,
        )
    )
    return {
        (r["model_id"], r["feature_id"], r["window_end"]): (
            r["sum(samples)"],
            r["sum(total_abs_error)"],
        )
        for r in result.rows
    }


def cube_failures(actual: dict, expected: dict, closed: float) -> int:
    """Events in wrong or missing cells: every expected window that ends
    by ``closed`` must be in ``actual``, and every window in ``actual``
    must match ``expected``."""
    failed = 0
    keys = actual.keys() | {key for key in expected if key[2] <= closed}
    for key in keys:
        want = expected.get(key)
        got = actual.get(key)
        if (
            want is None
            or got is None
            or got[0] != want[0]
            or not math.isclose(got[1], want[1], rel_tol=1e-9, abs_tol=1e-9)
        ):
            failed += max(1, want[0] if want else got[0])
    return failed


def _check(pipe: Pipeline, corrupt: bool) -> tuple[int, list]:
    """Compare the Pinot cube with the offline cube over every window the
    produced stream closed; returns (failed events, notes)."""
    notes = []
    expected = reference_cube(pipe.produced)
    if corrupt and expected:
        expected[min(expected)][0] += 1
    failed = cube_failures(cube_rows(pipe), expected, closed_until(pipe.produced))
    if failed:
        notes.append(f"cube mismatch: {failed} events in wrong or missing cells")
    report = pipe.app.feature_consistency_report()
    if not report.ok:
        failed += 1
        notes.append(report.summary())
    return failed, notes


def run(seed, work, tracer=None, corrupt=False, setups=SETUP_REPEATS):
    """Measure ``work`` ticks after ``setups`` set-ups."""

    def prepare():
        events = Events(seed)
        warmup = [events.until((t + 1) * TICK_S) for t in range(WARMUP_TICKS)]
        return events, warmup

    def build(inputs):
        events, warmup = inputs
        pipe = Pipeline(tracer)
        for batch in warmup:
            pipe.tick(batch)
        return pipe, events

    probe = SpeedProbe()
    (pipe, events), raw_setup_s, setup_s = median_setup(prepare, build, setups, probe)
    warm_events = len(pipe.produced)
    seen = len(pipe.visible)
    busy = []  # (tick seconds, probe position)
    window_pos = {}  # window end -> probe position when it became visible
    while pipe.ticks - WARMUP_TICKS < work:
        batch = events.until(pipe.sim_end + TICK_S)
        start = clock()
        pipe.tick(batch)
        busy.append((clock() - start, probe.position))
        for end in islice(pipe.visible, seen, None):
            window_pos[end] = probe.position
        seen = len(pipe.visible)
        probe.sample()
    if tracer is not None:
        tracer.uninstall()  # the checks below are not the workload
    events_n = len(pipe.produced) - warm_events
    fresh = pipe.freshness_ms(window_pos)
    failed, notes = _check(pipe, corrupt)
    latency = [(ms, window_pos[end]) for end, ms in fresh.items()]
    metrics = e2e_metrics(probe, setup_s, events_n, busy, latency)
    fresh_ms = list(fresh.values())
    return Outcome(
        correct=failed == 0,
        attempted=events_n,
        failed=failed,
        metrics=metrics,
        detail={
            "ingest_events_per_s": events_n / sum(s for s, __ in busy),
            "freshness_p50_ms": percentile(fresh_ms, 50),
            "freshness_p95_ms": percentile(fresh_ms, 95),
            "freshness_p97_ms": percentile(fresh_ms, 97),
            "freshness_p99_ms": percentile(fresh_ms, 99),
            "freshness_samples": len(fresh_ms),
            "visibility_query_p50_ms": 1000.0
            * percentile(pipe.query_s[WARMUP_TICKS:], 50),
            "join_state_bytes": pipe.app.join_runtime.total_state_bytes(),
            "checkpoints": pipe.checkpoints,
            "error_rate": failed / events_n,
            "setup_s": raw_setup_s,
            "peak_rss_mb": metrics["peak_rss_mb"],
            "speed_scale": probe.median_scale(),
        },
        wall_s=setup_s + scaled_s(probe, busy),
        notes=notes,
    )
