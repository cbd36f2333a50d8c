"""The fixed cost model turning perf counters into deterministic time.

Wall-clock throughput depends on the machine, the Python build and the
phase of the CPU governor; a CI gate built on it either flakes or needs a
uselessly wide threshold.  Instead the harness converts the *counted*
hot-path operations (:mod:`repro.common.perf`) into virtual microseconds
through this table: each counter name has a fixed per-operation cost,
roughly calibrated against CPython wall measurements on the seed
hardware (see EXPERIMENTS.md).  Two runs of the same seeded workload
count the same ops, so virtual time — and every metric derived from it —
is byte-identical across runs and machines.

The absolute weights matter less than their *stability*: a change that
doubles the per-record work on a hot path doubles its counted ops no
matter what the weights are.  Weights only shape how ops on different
paths trade off inside one scenario.

``COST_MODEL_VERSION`` is embedded in every report; comparisons across
different versions are rejected, so re-weighting forces baselines to be
regenerated rather than silently shifting the gate.
"""

from __future__ import annotations

COST_MODEL_VERSION = 6

#: Virtual microseconds charged per counted operation.
COST_US: dict[str, float] = {
    # -- kafka ---------------------------------------------------------------
    "kafka.partition_resolutions": 1.2,  # pstate + leader/follower lookup
    "kafka.entry_allocs": 0.4,  # LogEntry construction
    "kafka.size_encodings": 3.0,  # serde encode for byte accounting
    "kafka.key_hashes": 2.0,  # FNV-1a over the serialized key
    "kafka.fetch_calls": 1.0,
    "kafka.records_fetched": 0.15,  # per entry returned (list slice share)
    # -- pinot ---------------------------------------------------------------
    "pinot.rows_ingested": 1.5,  # schema validate + consuming append
    "pinot.chunk_rows_ingested": 0.08,  # columnar chunk append, per row
    "pinot.cell_reads": 0.8,  # random-access bit-unpack + dict lookup
    "pinot.cells_decoded": 0.15,  # bulk forward-index decode, per cell
    "pinot.code_filter_evals": 0.1,  # integer compare in code space
    "pinot.row_allocs": 1.0,  # per-row dict materialization
    "pinot.filter_evals": 0.5,  # Python-level predicate call
    "pinot.tree_build_rows": 0.5,  # star-tree node aggregation, per doc
    "pinot.tree_nodes": 0.5,
    "pinot.tree_docs": 0.5,  # star-tree leaf raw-doc scan
    # -- pinot pruning & caching (broker scatter path) -----------------------
    "pinot.zonemap_checks": 0.3,  # per-filter min/max comparison
    "pinot.bloom_checks": 0.4,  # double-hash probe of the segment bloom
    "pinot.segments_scanned": 0.05,  # scatter bookkeeping per routed segment
    "pinot.segments_pruned": 0.05,  # bookkeeping per skipped segment
    "pinot.cache_hits": 1.0,  # cache lookup + epoch validation
    "pinot.cache_misses": 0.4,  # cache lookup that found nothing fresh
    "pinot.cache_row_copies": 0.2,  # per cached row copied out
    "pinot.scanshare_hits": 0.6,  # memoized filter resolution lookup
    "pinot.scanshare_misses": 0.3,  # scan-share lookup miss
    "pinot.scanshare_docs_served": 0.02,  # per memoized doc id copied out
    # -- presto (stage scheduler hot path) ------------------------------------
    "presto.stage_executions": 0.5,  # stage dispatch bookkeeping
    "presto.stage_artifact_hits": 1.0,  # artifact lookup + epoch validation
    "presto.artifact_rows_copied": 0.2,  # per served row copied out
    "presto.filter_rows": 0.5,  # Python-level predicate eval per row
    "presto.agg_rows": 0.8,  # group-key tuple + accumulator update
    "presto.project_rows": 0.8,  # output dict build per row
    "presto.sort_rows": 0.3,  # sort-key extraction share per row
    "presto.join_build_rows": 0.6,  # hash-table insert per build row
    "presto.join_probe_rows": 0.4,  # hash probe per probe-side row
    "presto.join_rows_out": 1.0,  # merged-row dict materialization
    # -- control plane -------------------------------------------------------
    "controlplane.admission_checks": 0.3,  # tier lookup + bucket/level gate
    "controlplane.shed_decisions": 0.3,  # decision-log line + counters
    "controlplane.latency_observations": 0.2,  # window append + p99 guard
    "controlplane.scaler_evals": 0.4,  # per-tick policy sweep share
    "controlplane.scale_actions": 1.0,  # actuator call + log line
    "controlplane.queue_submits": 0.3,  # earliest-free-worker scan
    "controlplane.queue_spills": 0.3,  # sticky-subset overflow to the pool
    # -- columnar (vectorized batch plane) ------------------------------------
    # Per-batch/per-chunk costs amortize fixed work over every row in the
    # batch; per-row kernel costs are an order cheaper than their row-at-a-
    # time equivalents because the inner loop is a typed array sweep, not a
    # dict-of-objects walk.
    "columnar.batch_allocs": 1.0,  # ColumnBatch header + column map build
    "columnar.batch_slices": 0.3,  # zero-copy window onto shared buffers
    "columnar.batch_serves": 1.0,  # cache/artifact serve of a shared chunk
    "columnar.cells_gathered": 0.03,  # take() copy of a code/value cell
    "columnar.cells_appended": 0.02,  # builder append into a column buffer
    "columnar.cells_sized": 0.02,  # byte-accounting share per cell
    "columnar.rows_routed": 0.04,  # partition-id append per row (hash memoized)
    "columnar.kernel_rows": 0.05,  # vectorized filter/project sweep per row
    "columnar.agg_rows": 0.12,  # vectorized group-by accumulate per row
    "columnar.rows_adapted": 0.9,  # batch<->row boundary dict (de)materialization
    "columnar.dict_evals": 0.5,  # per-distinct predicate/hash eval on a dictionary
    # -- flink ---------------------------------------------------------------
    "flink.elements": 0.5,  # scheduler dequeue + dispatch
    "flink.batch_elements": 0.2,  # micro-batched dequeue + dispatch
    "flink.cached_routes": 0.2,  # routing via pre-resolved channel wiring
    "flink.channel_pushes": 0.15,
    "flink.space_channel_checks": 0.2,  # backpressure probe per channel
    "flink.vector_batches": 0.6,  # RecordBatch dequeue + dispatch (amortized)
    # -- flink interval join (keyed join-state hot path) -----------------------
    "flink.join_probes": 0.2,  # per buffered opposite-side entry scanned
    "flink.join_rows_out": 1.0,  # joined-pair dict materialization
    "flink.join_state_appends": 0.6,  # list-state append + heap push
    "flink.join_evictions": 0.5,  # heap pop + list-state filter share
    # -- feature store ---------------------------------------------------------
    "features.writes": 1.0,  # canonical key encode + sorted insert
    "features.duplicate_writes": 0.6,  # dedup scan of the equal-ts run
    "features.reads": 0.8,  # key encode + per-read bookkeeping
    "features.versions_probed": 0.3,  # bisect step share (log2 of history)
}

#: Counters not in the table still cost something.
DEFAULT_COST_US = 0.5

#: Alloc counters (summed into the report's ``allocs`` field) end with this.
ALLOC_SUFFIX = "_allocs"


def virtual_us(counts: dict[str, int]) -> float:
    """Weighted total of counted ops, in virtual microseconds.

    Summation order is fixed (sorted keys) so the float result is
    bit-reproducible.
    """
    return sum(
        counts[name] * COST_US.get(name, DEFAULT_COST_US) for name in sorted(counts)
    )


def alloc_count(counts: dict[str, int]) -> int:
    return sum(n for name, n in counts.items() if name.endswith(ALLOC_SUFFIX))
