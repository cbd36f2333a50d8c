"""Lookup joins against dimension tables (Section 4.3, current work).

"Currently joins are performed by Presto, which federates query execution
across Pinot and Hive.  However, this is done entirely in-memory in the
Presto worker and cannot be used for critical use cases.  We are
contributing the ability to perform lookup joins to Pinot to support
joining tables with commonly used dimension tables."

A :class:`DimensionTable` is a small, fully-replicated key -> row map
(restaurant metadata, city names, model owners).  ``execute_lookup_join``
runs a normal Pinot query and enriches each result row *inside the OLAP
layer*, so no fact rows ever cross into a federating engine — the
property the C-ablation bench measures against the Presto join path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.common.errors import PinotError, QueryError
from repro.pinot.broker import PinotBroker, QueryResult
from repro.pinot.query import PinotQuery


@dataclass
class DimensionTable:
    """A replicated key->attributes table (the 'commonly used dimension
    tables' of the paper)."""

    name: str
    primary_key: str
    _rows: dict[Hashable, dict[str, Any]] = field(default_factory=dict)

    def upsert_row(self, row: dict[str, Any]) -> None:
        if self.primary_key not in row:
            raise PinotError(
                f"dimension row missing key column {self.primary_key!r}"
            )
        self._rows[row[self.primary_key]] = dict(row)

    def load(self, rows: list[dict[str, Any]]) -> int:
        for row in rows:
            self.upsert_row(row)
        return len(rows)

    def lookup(self, key: Hashable) -> dict[str, Any] | None:
        return self._rows.get(key)

    def __len__(self) -> int:
        return len(self._rows)

    def column_names(self) -> list[str]:
        names: set[str] = set()
        for row in self._rows.values():
            names.update(row)
        return sorted(names)


@dataclass
class LookupJoinSpec:
    """LOOKUP JOIN fact_query ON fact.join_column = dim.primary_key."""

    dimension: DimensionTable
    join_column: str  # column of the fact result rows
    select: list[str] | None = None  # dim columns to attach (None = all)
    prefix: str | None = None  # attached-column prefix (default: dim name)


def execute_lookup_join(
    broker: PinotBroker,
    query: PinotQuery,
    spec: LookupJoinSpec,
) -> QueryResult:
    """Run ``query`` and enrich each result row from the dimension table.

    The join column must appear in the result rows (a selected column or a
    group-by column).  Rows without a dimension match keep NULL attributes
    (left join), matching Pinot's lookup-join semantics.
    """
    result = broker.execute(query)
    prefix = spec.prefix if spec.prefix is not None else spec.dimension.name
    attach = spec.select or [
        c for c in spec.dimension.column_names()
        if c != spec.dimension.primary_key
    ]
    for row in result.rows:
        if spec.join_column not in row:
            raise QueryError(
                f"lookup join column {spec.join_column!r} is not in the "
                f"query result; add it to select/group-by"
            )
        match = spec.dimension.lookup(row[spec.join_column])
        for column in attach:
            row[f"{prefix}.{column}"] = (
                match.get(column) if match is not None else None
            )
    return result


class DimensionTableRegistry:
    """Cluster-wide dimension tables, loadable from Hive (the batch path
    of §4.3.3) or row lists."""

    def __init__(self) -> None:
        self._tables: dict[str, DimensionTable] = {}

    def create(self, name: str, primary_key: str) -> DimensionTable:
        if name in self._tables:
            raise PinotError(f"dimension table {name!r} already exists")
        table = DimensionTable(name, primary_key)
        self._tables[name] = table
        return table

    def get(self, name: str) -> DimensionTable:
        if name not in self._tables:
            raise PinotError(f"no dimension table {name!r}")
        return self._tables[name]
