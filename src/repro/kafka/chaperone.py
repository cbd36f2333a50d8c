"""Chaperone: end-to-end auditing (Section 4.1.4, Section 9.4).

Chaperone "collects key statistics like the number of unique messages in a
tumbling time window from every stage of the replication pipeline",
compares them, and alerts on mismatch.  Stages here are free-form labels —
"produced", "regional", "aggregate", "flink-in", "pinot" — and every
observed record contributes its audit uid (stamped by the producer,
Section 9.4) to the window it falls in by event time.

Loss = uids present at an upstream stage but missing downstream.
Duplication = a uid observed more than once at the same stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import KafkaError
from repro.common.records import Record


@dataclass
class _WindowStats:
    total: int = 0
    uids: set[str] = field(default_factory=set)
    duplicates: int = 0

    def observe(self, uid: str) -> None:
        self.total += 1
        if uid in self.uids:
            self.duplicates += 1
        else:
            self.uids.add(uid)


@dataclass(frozen=True)
class AuditAlert:
    """One detected mismatch between two stages in one window."""

    window_start: float
    upstream: str
    downstream: str
    missing_count: int
    duplicate_count: int
    sample_missing_uids: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"window@{self.window_start:.0f}: {self.downstream} is missing "
            f"{self.missing_count} of {self.upstream}'s messages "
            f"({self.duplicate_count} duplicates)"
        )


class Chaperone:
    """Micro-batch auditor over tumbling event-time windows."""

    def __init__(self, window_seconds: float = 60.0) -> None:
        if window_seconds <= 0:
            raise KafkaError(f"window must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        # stage -> window_start -> stats
        self._stats: dict[str, dict[float, _WindowStats]] = {}

    def _window_start(self, event_time: float) -> float:
        return math.floor(event_time / self.window_seconds) * self.window_seconds

    def observe(self, stage: str, record: Record) -> None:
        """Count one record at one pipeline stage."""
        uid = record.uid()
        if uid is None:
            raise KafkaError(
                "record has no audit uid; produce through a Producer (or "
                "stamp_audit_headers) so Chaperone can track it"
            )
        window = self._window_start(record.event_time)
        stage_stats = self._stats.setdefault(stage, {})
        window_stats = stage_stats.setdefault(window, _WindowStats())
        window_stats.observe(uid)

    def observe_many(self, stage: str, records) -> None:
        for record in records:
            self.observe(stage, record)

    def stages(self) -> list[str]:
        return sorted(self._stats)

    def compare(self, upstream: str, downstream: str) -> list[AuditAlert]:
        """Alerts for every window where downstream lost or duplicated data."""
        up = self._stats.get(upstream, {})
        down = self._stats.get(downstream, {})
        alerts = []
        for window, up_stats in sorted(up.items()):
            down_stats = down.get(window, _WindowStats())
            missing = up_stats.uids - down_stats.uids
            if missing or down_stats.duplicates:
                alerts.append(
                    AuditAlert(
                        window_start=window,
                        upstream=upstream,
                        downstream=downstream,
                        missing_count=len(missing),
                        duplicate_count=down_stats.duplicates,
                        sample_missing_uids=tuple(sorted(missing)[:5]),
                    )
                )
        return alerts

    def audit_pipeline(self, stage_order: list[str]) -> list[AuditAlert]:
        """Compare each consecutive stage pair along a pipeline."""
        alerts: list[AuditAlert] = []
        for upstream, downstream in zip(stage_order, stage_order[1:]):
            alerts.extend(self.compare(upstream, downstream))
        return alerts

    def total_loss(self, upstream: str, downstream: str) -> int:
        """Total messages seen upstream but never downstream, any window."""
        up_uids: set[str] = set()
        for stats in self._stats.get(upstream, {}).values():
            up_uids |= stats.uids
        down_uids: set[str] = set()
        for stats in self._stats.get(downstream, {}).values():
            down_uids |= stats.uids
        return len(up_uids - down_uids)
