"""Self-serve topic lifecycle: auto-provisioning, expansion, quotas.

Section 9.4 ("Seamless onboarding"): topics for application logs are
automatically provisioned when a service deploys, automatically expanded as
usage grows, and protected by byte quotas that cap any one producer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import QuotaExceededError
from repro.common.metrics import MetricsRegistry
from repro.kafka.cluster import TopicConfig
from repro.kafka.federation import FederationMetadataServer


@dataclass
class TopicQuota:
    """Per-topic produced-bytes budget per accounting window."""

    max_bytes_per_window: int
    used_bytes: int = 0

    def charge(self, nbytes: int) -> None:
        if self.used_bytes + nbytes > self.max_bytes_per_window:
            raise QuotaExceededError(
                f"quota exceeded: {self.used_bytes + nbytes} > "
                f"{self.max_bytes_per_window} bytes"
            )
        self.used_bytes += nbytes

    def reset(self) -> None:
        self.used_bytes = 0


class SelfServeAdmin:
    """Automates the topic lifecycle over a federation (or single cluster)."""

    def __init__(
        self,
        federation: FederationMetadataServer,
        default_partitions: int = 4,
        default_quota_bytes: int = 64 * 1024 * 1024,
        expansion_threshold: float = 0.8,
    ) -> None:
        self.federation = federation
        self.default_partitions = default_partitions
        self.default_quota_bytes = default_quota_bytes
        self.expansion_threshold = expansion_threshold
        self.quotas: dict[str, TopicQuota] = {}
        self.metrics = MetricsRegistry("selfserve")

    def on_service_deployed(self, service_name: str) -> str:
        """Auto-provision the service's log topic; idempotent."""
        topic = f"logs.{service_name}"
        try:
            self.federation.locate(topic)
        except Exception:
            self.federation.place_topic(
                topic, TopicConfig(partitions=self.default_partitions)
            )
            self.quotas[topic] = TopicQuota(self.default_quota_bytes)
            self.metrics.counter("topics_provisioned").inc()
        return topic

    def charge_produce(self, topic: str, nbytes: int) -> None:
        """Enforce the topic's quota for a produce of ``nbytes``."""
        quota = self.quotas.get(topic)
        if quota is not None:
            quota.charge(nbytes)

    def maybe_expand(self, topic: str) -> int:
        """Double a topic's partition count when usage crosses the
        expansion threshold of its quota.

        Kafka cannot shrink or reshuffle existing partitions; like the real
        system we only add partitions (new data spreads wider; old data
        stays put).  Returns the new partition count (0 if unchanged).
        """
        quota = self.quotas.get(topic)
        if quota is None:
            return 0
        if quota.used_bytes < self.expansion_threshold * quota.max_bytes_per_window:
            return 0
        cluster, __ = self.federation.locate(topic)
        current = cluster.partition_count(topic)
        new_count = cluster.expand_partitions(topic, additional=current)  # double
        # Give the topic headroom in the next window too.
        quota.max_bytes_per_window *= 2
        self.metrics.counter("topics_expanded").inc()
        return new_count
