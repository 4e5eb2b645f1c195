"""Shard selection: pluggable scheduling policies.

A policy sees the whole pool and the virtual clock and picks the shard
for one flushed batch.  Three policies ship:

* ``round-robin`` — rotate through the shards regardless of state; the
  serving-layer equivalent of
  :meth:`~repro.runtime.batch.BatchRunner.run`'s instance dispatch.
* ``least-loaded`` — the shard with the smallest backlog
  (``busy_until - now``).  On identical shards this degenerates to
  round-robin; on heterogeneous pools it follows the *measured* state.
* ``shortest-latency`` — the shard whose *expected completion* of this
  batch is earliest, using each shard's analytical
  :class:`~repro.estimator.latency.NetworkEstimate` (Eq. 12-15) for
  the service time.  This is the policy that exploits heterogeneous
  pools: a VU9P shard absorbs more traffic than a PYNQ shard in
  exactly the ratio of their estimated latencies.

All ties break on the lowest shard index, which keeps every policy
deterministic and makes ``least-loaded`` bit-compatible with
``round-robin`` on identical shards and back-to-back batches.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ServingError
from repro.serving.events import (
    EventKernel,
    ShardDegrade,
    ShardDown,
    ShardRestoreRate,
    ShardUp,
)
from repro.serving.shard import Shard
from repro.serving.tenancy import DEFAULT_TENANT, TenantSet

#: Policy names understood by :func:`make_policy` and the CLI.
POLICIES = (
    "round-robin", "least-loaded", "shortest-latency", "weighted-fair"
)


class SchedulingPolicy:
    """Base class: pick a shard index for one batch."""

    name = "abstract"

    def select(
        self, shards: Sequence[Shard], batch_size: int, now: float
    ) -> int:
        raise NotImplementedError

    def select_for(
        self,
        tenant: str,
        shards: Sequence[Shard],
        batch_size: int,
        now: float,
    ) -> int:
        """Tenant-aware selection; tenant-blind policies delegate to
        :meth:`select`, so the tag changes nothing for them."""
        return self.select(shards, batch_size, now)

    def reset(self) -> None:
        """Forget per-run state (stateless policies: no-op)."""


class RoundRobin(SchedulingPolicy):
    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, shards, batch_size, now) -> int:
        index = self._next % len(shards)
        self._next += 1
        return index

    def reset(self) -> None:
        self._next = 0


class LeastLoaded(SchedulingPolicy):
    name = "least-loaded"

    def select(self, shards, batch_size, now) -> int:
        return min(
            range(len(shards)),
            key=lambda i: (shards[i].backlog_seconds(now), i),
        )


class ShortestExpectedLatency(SchedulingPolicy):
    name = "shortest-latency"

    def select(self, shards, batch_size, now) -> int:
        return min(
            range(len(shards)),
            key=lambda i: (shards[i].expected_completion(batch_size, now), i),
        )


class WeightedFair(SchedulingPolicy):
    """Weight-proportional shard apportionment with per-tenant rotation.

    Each tenant owns a contiguous *slice* of the candidate shard list,
    sized by cumulative weight: with shards ``0..S-1`` and tenants of
    weights ``w_1..w_n`` (total ``W``), tenant ``i`` owns indices
    ``[floor(S * C_{i-1} / W), floor(S * C_i / W))`` where ``C_i`` is
    the cumulative weight through tenant ``i`` — so a tenant of twice
    the weight owns twice the shards (up to integer rounding) and a
    flooding tenant saturates *its* slice while the other slices stay
    quiet.  Within its slice each tenant round-robins with its own
    rotation counter.  A tenant whose slice rounds to empty (more
    tenants than shards) and any unregistered tenant fall back to
    rotating over the whole candidate list.

    With a single tenant the slice is the whole list and the rotation
    is ``turn % len(shards)`` — *exactly* :class:`RoundRobin`, event
    for event, which is the degeneracy the property suite pins.

    Slices are derived from the size of the *candidate* list the
    scheduler passes (the shards currently up), so failures shrink
    every tenant's slice proportionally instead of disabling the
    policy.  A slice depends only on the tenant set, the tenant and
    that size, so it is memoized per ``(tenant, size)`` and forgotten
    on :meth:`bind` and :meth:`reset`.
    """

    name = "weighted-fair"

    def __init__(self, tenants: Optional[TenantSet] = None):
        self.bind(tenants)

    def bind(self, tenants: Optional[TenantSet]) -> None:
        """Adopt a workload's tenant set (fresh rotation state)."""
        self.tenants = tenants if tenants is not None else (
            TenantSet.default()
        )
        self._next: Dict[str, int] = {}
        self._slices: Dict[Tuple[str, int], range] = {}

    def _slice(self, tenant: str, count: int) -> range:
        key = (tenant, count)
        indices = self._slices.get(key)
        if indices is None:
            indices = self._slices[key] = self._apportion(tenant, count)
        return indices

    def _apportion(self, tenant: str, count: int) -> range:
        total = self.tenants.total_weight
        specs = list(self.tenants)
        cumulative = 0.0
        for position, spec in enumerate(specs):
            low = math.floor(count * cumulative / total)
            cumulative += spec.weight
            # The last slice ends exactly at ``count``: the cumulative
            # quotient is 1 in exact arithmetic but can land a hair
            # under it in floats (e.g. 3 * 1.9 / 1.9), which would
            # silently strand the tail shard.
            high = count if position == len(specs) - 1 else (
                math.floor(count * cumulative / total)
            )
            if spec.name == tenant:
                if high <= low:
                    return range(count)  # slice rounds to empty
                return range(low, high)
        return range(count)  # unregistered tenant: whole pool

    def select(self, shards, batch_size, now) -> int:
        return self.select_for(DEFAULT_TENANT, shards, batch_size, now)

    def select_for(self, tenant, shards, batch_size, now) -> int:
        indices = self._slice(tenant, len(shards))
        turn = self._next.get(tenant, 0)
        self._next[tenant] = turn + 1
        return indices[turn % len(indices)]

    def reset(self) -> None:
        self._next = {}
        self._slices = {}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by CLI name."""
    registry = {
        "round-robin": RoundRobin,
        "least-loaded": LeastLoaded,
        "shortest-latency": ShortestExpectedLatency,
        "weighted-fair": WeightedFair,
    }
    if name not in registry:
        raise ServingError(
            f"unknown scheduling policy {name!r}; "
            f"expected one of {POLICIES}"
        )
    return registry[name]()


class Scheduler:
    """Routes flushed batches to shards under one policy.

    On the event kernel the scheduler is the pool-state authority:
    :meth:`attach` subscribes it to
    :class:`~repro.serving.events.ShardDown` /
    :class:`~repro.serving.events.ShardUp` (availability) and
    :class:`~repro.serving.events.ShardDegrade` /
    :class:`~repro.serving.events.ShardRestoreRate` (service rate), and
    every assignment sees only the shards that are up at that instant,
    with each shard's scheduling view scaled by its current rate.
    Policies are blind to failures — they select over the available
    subsequence, so a policy written for the full pool rebalances over
    the survivors for free (round-robin's rotation simply wraps over
    fewer shards), and a latency-aware policy routes around a degraded
    straggler with no code of its own.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        policy: Union[str, SchedulingPolicy] = "round-robin",
    ):
        if not shards:
            raise ServingError("scheduler needs at least one shard")
        self.shards: List[Shard] = list(shards)
        self._by_name = {shard.name: shard for shard in self.shards}
        self.policy = make_policy(policy) if isinstance(policy, str) else (
            policy
        )

    def attach(self, kernel: EventKernel) -> None:
        """Subscribe the availability and rate handlers on ``kernel``."""
        kernel.subscribe(ShardDown, self._on_shard_down)
        kernel.subscribe(ShardUp, self._on_shard_up)
        kernel.subscribe(ShardDegrade, self._on_shard_degrade)
        kernel.subscribe(ShardRestoreRate, self._on_shard_restore_rate)

    def _on_shard_down(self, kernel: EventKernel, event: ShardDown) -> None:
        self.shard_named(event.shard).fail()

    def _on_shard_up(self, kernel: EventKernel, event: ShardUp) -> None:
        self.shard_named(event.shard).restore()

    def _on_shard_degrade(
        self, kernel: EventKernel, event: ShardDegrade
    ) -> None:
        self.shard_named(event.shard).degrade(event.factor)

    def _on_shard_restore_rate(
        self, kernel: EventKernel, event: ShardRestoreRate
    ) -> None:
        self.shard_named(event.shard).restore_rate()

    def shard_named(self, name: str) -> Shard:
        try:
            return self._by_name[name]
        except KeyError:
            raise ServingError(
                f"unknown shard {name!r}; pool has "
                f"{sorted(self._by_name)}"
            ) from None

    def available(self) -> List[Shard]:
        """The shards currently up, in pool order."""
        return [shard for shard in self.shards if shard.up]

    def reset(self) -> None:
        """Forget per-run policy state (round-robin's rotation)."""
        self.policy.reset()

    def assign(
        self,
        batch_size: int,
        now: float,
        tenant: str = DEFAULT_TENANT,
        available: Optional[List[Shard]] = None,
    ) -> Shard:
        """The shard that should run a ``batch_size`` batch at ``now``.

        Only shards that are up are candidates; with every shard down
        this raises (the server parks batches instead of calling in).
        ``tenant`` reaches tenant-aware policies (weighted-fair);
        tenant-blind policies ignore it.  A caller that has just read
        :meth:`available` passes that list in rather than have it
        rebuilt."""
        shards = self.available() if available is None else available
        if not shards:
            raise ServingError("no shard available: the whole pool is down")
        index = self.policy.select_for(tenant, shards, batch_size, now)
        if not 0 <= index < len(shards):
            raise ServingError(
                f"policy {self.policy.name!r} selected shard {index} of "
                f"{len(shards)}"
            )
        return shards[index]
