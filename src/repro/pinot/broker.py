"""The Pinot broker: scatter-gather-merge query execution (Section 4.3).

"The query is first decomposed into sub-plans which execute on the
distributed segments in parallel, and then the plan results are aggregated
and merged into a final one."

Two query-side optimizations ride on the scatter (the paper's Table 1
latency/cost edge: touch as little irrelevant data as possible):

* **Cross-segment pruning** — before fanning out, segments whose commit-time
  zone maps / bloom filters prove they cannot match the query's filters are
  dropped from the scatter, and an equality predicate on the table's
  partition column restricts the scatter to the partitions the producer's
  hash partitioner could have placed the value on.  Pruning is order
  preserving: surviving segments keep exactly the subquery grouping and
  ordering an unpruned scatter would give them, so results are
  byte-identical to an unpruned run.

* **Result caching** — keyed on (normalized query, table segment epoch).
  The epoch advances on every data mutation (row ingested, segment
  sealed/loaded/dropped, upsert applied), so a hit is provably fresh and
  invalidation never depends on wall-clock TTLs (which would be
  non-deterministic under the simulated clock, and stale besides).

* **Sticky replica routing + scan sharing** (``sticky=True``, the
  default) — a replica-eligible sealed segment is routed by weighted
  rendezvous hash over its live hosts (:mod:`repro.common.hashring`),
  so the same segment's subqueries keep landing on the same server and
  that server's :class:`~repro.pinot.scanshare.ScanShareCache` —
  epoch-keyed memoized filter resolutions — actually pays.  The
  ablation (``sticky=False``) load-balances the classic way instead,
  rotating replicas per query, and disables scan sharing.  Both
  policies pick from the *full* segment list (never from pruning
  decisions) and results are merged in canonical segment order, so
  routing policy is invisible in results, byte for byte.

For upsert tables the broker applies the Section 4.3.1 routing strategy:
all *surviving* segments of one input partition still go to the partition's
owning server in a single subquery, so the server's local valid-doc-id sets
keep the result consistent (a key's stale versions are skipped wherever
they live).  Pruning a whole segment is safe there too: a segment none of
whose docs can match the filters contributes nothing whether its docs are
valid or not.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.common import hashring
from repro.common.clock import Clock, SystemClock
from repro.common.errors import PinotError, QueryError
from repro.common.metrics import MetricsRegistry
from repro.common.perf import PERF
from repro.kafka.producer import hash_partitioner
from repro.observability.trace import SpanCollector
from repro.pinot.controller import PinotController, TableState
from repro.pinot.query import (
    PartialResult,
    PinotQuery,
    SegmentPlan,
    finalize_agg_state,
    merge_agg_states,
)
from repro.pinot.segment import ImmutableSegment
from repro.pinot.server import PinotServer


@dataclass
class QueryResult:
    rows: list[dict[str, Any]]
    plans: list[SegmentPlan] = field(default_factory=list)
    servers_queried: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    cache_hit: bool = False
    # Columnar selection results: ColumnBatch pages in place of ``rows``
    # (set only for ``execute(..., columnar=True)`` selection queries
    # without ORDER BY / LIMIT; ``rows`` is then empty).
    pages: list | None = None

    def docs_examined(self) -> int:
        return sum(p.docs_examined for p in self.plans)

    def num_rows(self) -> int:
        if self.pages is not None:
            return sum(len(page) for page in self.pages)
        return len(self.rows)


_SCALAR_CELL_TYPES = (str, int, float, bool, bytes, type(None))


def _copy_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rows crossing a cache boundary (broker results, Presto stage
    artifacts), isolated from caller mutation.

    A shallow ``dict(row)`` shares cell objects; that is only safe when
    every cell is an immutable scalar.  Rows with mutable cells (a
    list-valued selection column, say) fall back to deepcopy so a caller
    mutating a returned cell can never poison the cached entry.
    """
    return [
        dict(row)
        if all(isinstance(v, _SCALAR_CELL_TYPES) for v in row.values())
        else copy.deepcopy(row)
        for row in rows
    ]


def normalize_query(query: PinotQuery) -> tuple | None:
    """Canonical, hashable cache key for a query; None when the query
    holds unhashable literals (those queries simply bypass the cache).

    Filters are order-normalized — they are conjunctive, so any order
    denotes the same query.
    """
    try:
        key = (
            query.table,
            tuple(query.select_columns),
            tuple((a.func, a.column) for a in query.aggregations),
            tuple(
                sorted(
                    (
                        (f.column, f.op, f.value, f.values, f.low, f.high)
                        for f in query.filters
                    ),
                    key=repr,
                )
            ),
            tuple(query.group_by),
            tuple(query.order_by),
            query.limit,
        )
        hash(key)
    except TypeError:
        return None
    return key


class BrokerResultCache:
    """Per-table LRU of finished query results, validated by epoch.

    An entry is served only while the table's epoch still equals the epoch
    it was computed at; the first read after any mutation discards it.
    """

    def __init__(self, capacity_per_table: int = 128) -> None:
        self.capacity_per_table = capacity_per_table
        # Entry: (epoch, (rows, pages, plans)) as stored by the broker.
        self._tables: dict[str, OrderedDict[tuple, tuple[int, tuple]]] = {}
        self.invalidations = 0

    def get(self, table: str, key: tuple, epoch: int) -> tuple | None:
        entries = self._tables.get(table)
        if entries is None:
            return None
        entry = entries.get(key)
        if entry is None:
            return None
        cached_epoch, result = entry
        if cached_epoch != epoch:
            del entries[key]
            self.invalidations += 1
            return None
        entries.move_to_end(key)
        return result

    def put(self, table: str, key: tuple, epoch: int, result: tuple) -> None:
        entries = self._tables.setdefault(table, OrderedDict())
        entries[key] = (epoch, result)
        entries.move_to_end(key)
        while len(entries) > self.capacity_per_table:
            entries.popitem(last=False)

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._tables.values())


class PinotBroker:
    def __init__(
        self,
        controller: PinotController,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: SpanCollector | None = None,
        enable_pruning: bool = True,
        enable_cache: bool = True,
        cache_capacity_per_table: int = 128,
        sticky: bool = True,
    ) -> None:
        self.controller = controller
        self.clock = clock or SystemClock()
        self.tracer = tracer
        self.metrics = metrics or MetricsRegistry("pinot.broker")
        self.enable_pruning = enable_pruning
        self.enable_cache = enable_cache
        self.sticky = sticky
        self.cache = BrokerResultCache(cache_capacity_per_table)
        # Scatter-ablation rotation state: advances once per routed query
        # (never per segment), so replica choice is pruning-invariant.
        self._route_seq = 0

    def execute(self, query: PinotQuery, columnar: bool = False) -> QueryResult:
        start = self.clock.now() if self.tracer is not None else 0.0
        state = self.controller.table(query.table)
        epoch = state.epoch
        cache_key = normalize_query(query) if self.enable_cache else None
        if cache_key is not None and columnar:
            # Pages and rows are distinct result shapes; never serve one
            # form of a query to a caller expecting the other.
            cache_key = cache_key + ("columnar",)
        if cache_key is not None:
            cached = self.cache.get(query.table, cache_key, epoch)
            if cached is not None:
                return self._serve_cached(query, cached, start)
            self.metrics.counter("cache_misses").inc()
            if PERF.enabled:
                PERF.inc("pinot.cache_misses")
        self._route_seq += 1
        subqueries, pruned = self._route(state, query)
        scan_epoch = epoch if self.sticky else None
        partials: list[PartialResult] = []
        servers = 0
        scanned = 0
        for server, segment_names, upsert_partition in subqueries:
            if not segment_names:
                continue
            servers += 1
            scanned += len(segment_names)
            partials.extend(
                server.execute(
                    query,
                    segment_names,
                    upsert_partition,
                    columnar=columnar,
                    scan_epoch=scan_epoch,
                )
            )
        self.metrics.counter("queries").inc()
        self.metrics.counter("segments_scanned").inc(scanned)
        self.metrics.counter("segments_pruned").inc(pruned)
        if PERF.enabled:
            PERF.inc("pinot.segments_scanned", scanned)
            if pruned:
                PERF.inc("pinot.segments_pruned", pruned)
        result = self._merge(query, partials)
        result.servers_queried = servers
        result.segments_scanned = scanned
        result.segments_pruned = pruned
        if cache_key is not None:
            # Rows get a private copy (callers may mutate them); pages are
            # immutable views, cached and served zero-copy.  The plans ride
            # along so a hit reports the work that produced its result.
            pages = None if result.pages is None else tuple(result.pages)
            self.cache.put(
                query.table,
                cache_key,
                epoch,
                (_copy_rows(result.rows), pages, tuple(result.plans)),
            )
        if self.tracer is not None:
            self.tracer.record_table_query(
                query.table,
                "pinot",
                start=start,
                end=self.clock.now(),
                servers=servers,
                segments_scanned=scanned,
                segments_pruned=pruned,
                cache_hit=False,
            )
        return result

    def estimate_rows(self, table: str, filters=()) -> tuple[int, bool]:
        """Planning-time cardinality bound for the Presto planner.

        Routes the hypothetical scan through the same ZoneMap / partition
        pruning as a real scatter and sums ``num_docs`` of the surviving
        segments — an upper bound on matching rows that costs no data
        access.  Returns ``(docs, exact)``; ``exact`` is True only for an
        unfiltered scan, where the bound *is* the row count.  Estimation
        must never fail planning: on a degraded cluster it degrades to the
        consuming segments' counts with ``exact=False``.
        """
        state = self.controller.table(table)
        query = PinotQuery(table=table, filters=list(filters))
        try:
            # Every live replica of a segment reports the same num_docs
            # and zone maps, so any one of them answers: no replica ranking.
            subqueries, __ = self._route(state, query, first_live=True)
        except PinotError:
            docs = sum(
                pstate.consuming.num_docs
                for pstate in state.ingestion.partitions.values()
            )
            return docs, False
        docs = 0
        for server, segment_names, __ in subqueries:
            for name in segment_names:
                segment = server.segments.get(name)
                if segment is not None:
                    docs += segment.num_docs
        return docs, not filters

    def _serve_cached(
        self, query: PinotQuery, cached: tuple, start: float
    ) -> QueryResult:
        self.metrics.counter("queries").inc()
        self.metrics.counter("cache_hits").inc()
        rows, pages, plans = cached
        if PERF.enabled:
            PERF.inc("pinot.cache_hits")
            if pages is None:
                PERF.inc("pinot.cache_row_copies", len(rows))
            else:
                PERF.inc("columnar.batch_serves", len(pages))
        result = QueryResult(
            rows=_copy_rows(rows),
            plans=list(plans),
            pages=None if pages is None else list(pages),
            cache_hit=True,
        )
        if self.tracer is not None:
            self.tracer.record_table_query(
                query.table,
                "pinot",
                start=start,
                end=self.clock.now(),
                servers=0,
                segments_scanned=0,
                segments_pruned=0,
                cache_hit=True,
            )
        return result

    # -- routing -------------------------------------------------------------

    def _route(
        self, state: TableState, query: PinotQuery, first_live: bool = False
    ) -> tuple[list[tuple[PinotServer, list[str], int | None]], int]:
        """Subqueries as (server, segments, upsert_partition?) plus the
        number of segments pruned from the scatter.  ``first_live`` sends
        each sealed or offline segment to its first live host instead of
        the routing policy's pick (for estimates, which only read
        segment metadata).

        Pruning preserves subquery grouping and ordering exactly: the
        server order is derived from the *full* segment list, and pruned
        segments (which contribute zero rows by proof) are only omitted
        from the per-server name lists.  A force-unpruned run therefore
        returns byte-identical rows.
        """
        out: list[tuple[PinotServer, list[str], int | None]] = []
        pruned = 0
        filters = query.filters if self.enable_pruning else []
        allowed_partitions = self._partition_candidates(state, filters)
        upsert = state.config.upsert_enabled
        pick_host = (lambda t, s, hosts: hosts[0]) if first_live else self._pick_host
        # One name->server map per route call, instead of an O(servers)
        # linear scan per emitted subquery.
        by_name = {s.name: s for s in self.controller.servers}
        for partition, pstate in state.ingestion.partitions.items():
            segment_names = state.ingestion.segments_of_partition(partition)
            if (
                allowed_partitions is not None
                and partition not in allowed_partitions
            ):
                # The partition key cannot hash here: no segment of this
                # partition (consuming included) can hold a matching row.
                pruned += len(segment_names)
                continue
            if upsert:
                owner = state.owners[partition]
                if not owner.alive:
                    raise PinotError(
                        f"upsert partition {partition} owner {owner.name} is down"
                    )
                names = []
                for name in segment_names:
                    if self._prunable(owner.segments.get(name), filters):
                        pruned += 1
                        continue
                    names.append(name)
                if names:
                    out.append((owner, names, partition))
                continue
            # Non-upsert: sealed segments may be served by any live replica;
            # the consuming segment only lives on the owner.
            candidates = [state.owners[partition]] + state.replicas[partition]
            per_server: dict[str, list[str]] = {}
            for name in pstate.sealed_segments:
                hosts = [
                    s for s in candidates if s.alive and s.has_segment(name)
                ]
                if not hosts:
                    raise PinotError(f"no live replica hosts segment {name!r}")
                host = pick_host(query.table, name, hosts)
                # Establish the server's slot even when the segment prunes,
                # so subquery order never depends on pruning decisions.
                names = per_server.setdefault(host.name, [])
                if self._prunable(host.segments.get(name), filters):
                    pruned += 1
                    continue
                names.append(name)
            if state.owners[partition].alive:
                per_server.setdefault(state.owners[partition].name, []).append(
                    pstate.consuming.name
                )
            for server_name, names in per_server.items():
                if not names:
                    continue
                out.append((by_name[server_name], names, None))
        for segment_name, hosts in state.offline_segments.items():
            live = [s for s in hosts if s.alive]
            if not live:
                raise PinotError(f"no live host for offline segment {segment_name!r}")
            host = pick_host(query.table, segment_name, live)
            segment = host.segments.get(segment_name)
            if (
                allowed_partitions is not None
                and isinstance(segment, ImmutableSegment)
                and segment.partition_id is not None
                and segment.partition_id not in allowed_partitions
            ) or self._prunable(segment, filters):
                pruned += 1
                continue
            out.append((host, [segment_name], None))
        return out, pruned

    def _pick_host(
        self, table: str, segment_name: str, hosts: list[PinotServer]
    ) -> PinotServer:
        """The replica that serves this segment's subquery.

        Sticky: weighted rendezvous on (table, segment) over the live
        hosts — the same segment keeps hitting the same server while it
        stays alive, so that server's scan-share cache pays; membership
        change moves only the affected segment's keys.  Scatter
        ablation: rotate the live replica list per routed query.  Both
        depend only on the segment's identity and replica liveness —
        never on pruning decisions — so routing policy cannot perturb
        which segments are scanned.
        """
        if len(hosts) == 1:
            return hosts[0]
        if self.sticky:
            name = hashring.pick((table, segment_name), [s.name for s in hosts])
            return next(s for s in hosts if s.name == name)
        return hosts[self._route_seq % len(hosts)]

    @staticmethod
    def _prunable(segment, filters) -> bool:
        """Sealed segments prune on zone maps / blooms; consuming
        (mutable) segments have no commit-time metadata and always scan."""
        return (
            bool(filters)
            and isinstance(segment, ImmutableSegment)
            and not segment.may_match(filters)
        )

    def _partition_candidates(
        self, state: TableState, filters
    ) -> set[int] | None:
        """Partitions an equality/IN predicate on the partition column can
        reach, via the same hash the producer partitioned the stream with.
        None means "no partition constraint".

        Soundness rests on ``hash_partitioner`` being equality-canonical
        (it hashes ``serde.encode_key``): the executor matches rows with
        Python ``==``, so a literal ``5.0`` must map to the partition the
        producer chose for an equal key of any type (``5``, ``True``).
        Hashing the raw literal's type-sensitive encoding here would
        silently prune the partition holding the matching rows."""
        column = state.config.partition_column
        if column is None or not filters:
            return None
        num_partitions = len(state.ingestion.partitions)
        allowed: set[int] | None = None
        for flt in filters:
            if flt.column != column:
                continue
            if flt.op == "=":
                literals = (flt.value,)
            elif flt.op == "IN":
                literals = flt.values
            else:
                continue
            try:
                reachable = {
                    hash_partitioner(v, num_partitions)
                    for v in literals
                    if v is not None
                }
            except Exception:
                continue  # unencodable literal: no partition constraint
            allowed = reachable if allowed is None else (allowed & reachable)
        return allowed

    # -- merging -----------------------------------------------------------------

    def _merge(self, query: PinotQuery, partials: list[PartialResult]) -> QueryResult:
        # Canonical merge order: fold partials in segment-name order, not
        # scatter order.  Float aggregation is order-sensitive bit for
        # bit, and scatter order depends on routing policy; segment names
        # do not, so sticky on/off stays byte-identical.
        partials = sorted(
            partials, key=lambda p: p.plan.segment if p.plan is not None else ""
        )
        plans = [p.plan for p in partials if p.plan is not None]
        if query.is_aggregation():
            merged: dict[tuple, list[Any]] = {}
            for partial in partials:
                for key, states in partial.groups.items():
                    if key not in merged:
                        merged[key] = states
                    else:
                        merged[key] = [
                            merge_agg_states(agg, a, b)
                            for agg, a, b in zip(
                                query.aggregations, merged[key], states
                            )
                        ]
            rows = []
            for key, states in merged.items():
                row: dict[str, Any] = dict(zip(query.group_by, key))
                for agg, stateval in zip(query.aggregations, states):
                    row[agg.alias()] = finalize_agg_state(agg, stateval)
                rows.append(row)
        else:
            rows = [row for partial in partials for row in partial.rows]
            pages = [page for partial in partials for page in partial.pages]
            if pages:
                if rows or query.order_by or query.limit:
                    # Ordering/limits (and mixed partial shapes) need rows:
                    # materialize at this boundary and fall through.
                    from repro.columnar import pages_to_rows

                    rows.extend(pages_to_rows(pages))
                else:
                    return QueryResult(rows=[], pages=pages, plans=plans)
        rows = self._order_and_limit(query, rows)
        return QueryResult(rows=rows, plans=plans)

    @staticmethod
    def _order_and_limit(query: PinotQuery, rows: list[dict[str, Any]]) -> list:
        for name, descending in reversed(query.order_by):
            if rows and name not in rows[0]:
                raise QueryError(f"cannot ORDER BY unknown column {name!r}")
            rows.sort(
                key=lambda r: (r.get(name) is None, r.get(name)), reverse=descending
            )
        if not query.order_by and query.group_by and query.is_aggregation():
            # Deterministic default order for group-by results.
            rows.sort(key=lambda r: tuple(str(r.get(c)) for c in query.group_by))
        return rows[: query.limit] if query.limit else rows
