"""Experiment C15 — §4.1 context: streaming-substrate throughput/latency.

The paper adopted Kafka for "system throughput and latency, the primary
performance metrics for event streaming systems" (the Confluent-style
benchmark).  This bench characterizes our substrate the same way: producer
throughput across batch sizes and acks settings, and end-to-end
produce->consume wall latency — so every other experiment's numbers can be
read against the substrate's own speed.
"""

from __future__ import annotations

import time

from repro.common.clock import SimulatedClock
from repro.kafka.cluster import KafkaCluster, TopicConfig
from repro.kafka.consumer import Consumer, GroupCoordinator
from repro.kafka.producer import Producer

from benchmarks.conftest import print_table

N_MESSAGES = 10_000
# Runs per (acks, batch) configuration; the sweep keeps the fastest
# produce and consume wall of each, so one descheduled run cannot trip
# the floors or the acks ratio below.  Repeats go round the whole sweep
# rather than back to back, so a burst of host load lasting a few runs
# slows at most one run of each configuration.
REPEATS = 3


def produce_consume(acks: str, batch_size: int) -> tuple[float, float]:
    clock = SimulatedClock()
    cluster = KafkaCluster("k", 3, clock=clock)
    cluster.create_topic("t", TopicConfig(partitions=4, replication_factor=2))
    producer = Producer(cluster, "svc", acks=acks, batch_size=batch_size,
                        clock=clock)
    start = time.perf_counter()
    for i in range(N_MESSAGES):
        producer.send("t", {"i": i, "pad": "x" * 64}, key=f"k{i % 100}")
    producer.flush()
    produce_wall = time.perf_counter() - start
    consumer = Consumer(cluster, GroupCoordinator(cluster), "g", "t", "m0")
    start = time.perf_counter()
    consumed = 0
    while consumed < N_MESSAGES:
        consumed += len(consumer.poll(2000))
    consume_wall = time.perf_counter() - start
    return produce_wall, consume_wall


def run_sweep():
    configs = [
        (acks, batch_size)
        for acks in ("1", "all")
        for batch_size in (1024, 16_384, 131_072)
    ]
    runs = {config: [] for config in configs}
    for __ in range(REPEATS):
        for config in configs:
            runs[config].append(produce_consume(*config))
    return {
        config: (
            min(produce for produce, __ in walls),
            min(consume for __, consume in walls),
        )
        for config, walls in runs.items()
    }


def test_kafka_substrate_throughput(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for (acks, batch_size), (produce_wall, consume_wall) in results.items():
        rows.append([
            acks,
            batch_size,
            f"{N_MESSAGES / produce_wall:,.0f}",
            f"{N_MESSAGES / consume_wall:,.0f}",
        ])
    print_table(
        f"C15: substrate throughput, {N_MESSAGES} messages, "
        f"best of {REPEATS} (msg/s wall)",
        ["acks", "batch bytes", "produce msg/s", "consume msg/s"],
        rows,
    )
    # Sanity floor so regressions in the substrate get caught.
    for (acks, batch_size), (produce_wall, consume_wall) in results.items():
        assert N_MESSAGES / produce_wall > 5_000
        assert N_MESSAGES / consume_wall > 20_000
    # acks=all writes every replica synchronously: must not be faster
    # than acks=1 at the same batch size.
    for batch_size in (1024, 16_384, 131_072):
        assert (
            results[("all", batch_size)][0] >= results[("1", batch_size)][0] * 0.7
        )
    benchmark.extra_info["messages"] = N_MESSAGES
