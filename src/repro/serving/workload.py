"""The serve API: one eagerly-validated workload spec.

A :class:`WorkloadSpec` gathers everything one serve run needs —
traffic, policy, batcher, tenants, SLO, autoscaler, chaos scenario,
engine and event budget — into a single frozen dataclass, validated
*eagerly* at construction (like ``DseOptions``) so a bad combination
fails where it was written, not deep inside an event handler.
``ShardServer(pool).run(spec)`` is the one way to serve it:

>>> spec = WorkloadSpec(
...     traffic=make_requests("poisson", 256, qps=800.0),
...     policy="weighted-fair",
...     tenants=TenantSet([
...         TenantSpec("interactive", weight=3.0, p99_slo_s=0.005),
...         TenantSpec("bulk", weight=1.0, tier="batch"),
...     ]),
...     batcher=BatcherOptions(max_batch=8),
...     scenario=parse_scenario("kill:shard0@0.05..0.12"),
... )
>>> report = ShardServer(pool).run(spec)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from repro.errors import ServingError
from repro.serving.autoscaler import AutoscalerOptions
from repro.serving.batcher import BatcherOptions
from repro.serving.chaos import ChaosScenario
from repro.serving.events import EventSource
from repro.serving.scheduler import POLICIES, SchedulingPolicy
from repro.serving.slo import SloOptions
from repro.serving.tenancy import DEFAULT_TENANT, TenantSet, TenantSpec
from repro.serving.traffic import Request

#: Replay engines a spec may request.  ``auto`` picks the fast-forward
#: recurrence whenever the run is a plain open-loop replay (see
#: :func:`~repro.serving.fastforward.ineligible_reason`) and the event
#: kernel otherwise; the explicit names force one path.
ENGINES = ("auto", "kernel", "fastforward")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything one serve run needs, validated eagerly.

    ``traffic`` is a request list (open loop) or exactly one
    :class:`~repro.serving.events.EventSource`; it may be ``None`` in a
    *template* spec filled in per run with :meth:`with_traffic`.
    ``tenants`` may be a
    :class:`~repro.serving.tenancy.TenantSet` or a plain sequence of
    :class:`~repro.serving.tenancy.TenantSpec` (normalised to a set);
    ``None`` means the trivial single-tenant workload.  ``scenario``
    is a :class:`~repro.serving.chaos.ChaosScenario` (build one with
    :func:`~repro.serving.chaos.parse_scenario`); it and ``autoscale``
    are mutually exclusive, exactly as on the CLI — a scenario kills
    specific shards while the autoscaler owns the pool membership, and
    the two fighting over it has no defined semantics.
    """

    traffic: Optional[Union[Sequence[Request], EventSource]] = None
    policy: Union[str, SchedulingPolicy] = "round-robin"
    batcher: Optional[BatcherOptions] = None
    tenants: Optional[TenantSet] = None
    slo: Optional[SloOptions] = None
    autoscale: Optional[AutoscalerOptions] = None
    scenario: Optional[ChaosScenario] = None
    engine: str = "auto"
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            if self.policy not in POLICIES:
                raise ServingError(
                    f"unknown scheduling policy {self.policy!r}; "
                    f"expected one of {POLICIES}"
                )
        elif not isinstance(self.policy, SchedulingPolicy):
            raise ServingError(
                f"policy must be a name or a SchedulingPolicy, "
                f"got {type(self.policy).__name__}"
            )
        if self.batcher is not None and not isinstance(
            self.batcher, BatcherOptions
        ):
            raise ServingError(
                f"batcher must be BatcherOptions, "
                f"got {type(self.batcher).__name__}"
            )
        if self.slo is not None and not isinstance(self.slo, SloOptions):
            raise ServingError(
                f"slo must be SloOptions, got {type(self.slo).__name__}"
            )
        if self.autoscale is not None and not isinstance(
            self.autoscale, AutoscalerOptions
        ):
            raise ServingError(
                f"autoscale must be AutoscalerOptions, "
                f"got {type(self.autoscale).__name__}"
            )
        if self.scenario is not None and not isinstance(
            self.scenario, ChaosScenario
        ):
            raise ServingError(
                f"scenario must be a ChaosScenario (parse a spec string "
                f"with parse_scenario), got {type(self.scenario).__name__}"
            )
        if self.scenario is not None and self.autoscale is not None:
            raise ServingError(
                "a workload cannot combine a chaos scenario with an "
                "autoscaler: the scenario kills specific shards while "
                "the autoscaler owns the pool membership"
            )
        if self.engine not in ENGINES:
            raise ServingError(
                f"unknown serve engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ServingError(
                f"max_events must be >= 1, got {self.max_events}"
            )
        tenants = self.tenants
        if tenants is not None and not isinstance(tenants, TenantSet):
            specs = list(tenants)
            if not all(isinstance(spec, TenantSpec) for spec in specs):
                raise ServingError(
                    "tenants must be a TenantSet or a sequence of "
                    "TenantSpec"
                )
            tenants = TenantSet(specs)
            object.__setattr__(self, "tenants", tenants)
        self._check_traffic(tenants)

    def _check_traffic(self, tenants: Optional[TenantSet]) -> None:
        traffic = self.traffic
        if traffic is None or isinstance(traffic, EventSource):
            return
        requests = list(traffic)
        # Materialise: a generator would otherwise be consumed here and
        # arrive empty at the server.
        object.__setattr__(self, "traffic", requests)
        if not all(isinstance(item, Request) for item in requests):
            raise ServingError(
                "traffic must be a Request list or ONE EventSource"
            )
        tags = {request.tenant for request in requests}
        tags.discard(DEFAULT_TENANT)
        if not tags:
            return
        if tenants is None:
            raise ServingError(
                f"traffic is tagged with tenants {sorted(tags)} but the "
                "spec registers no tenant set"
            )
        unknown = sorted(tag for tag in tags if tag not in tenants)
        if unknown:
            raise ServingError(
                f"traffic references unregistered tenants {unknown}; "
                f"registered: {sorted(tenants.names)}"
            )

    # -- accessors --------------------------------------------------------

    @property
    def policy_name(self) -> str:
        if isinstance(self.policy, str):
            return self.policy
        return self.policy.name

    def tenant_set(self) -> TenantSet:
        """The spec's tenants, or the trivial default set."""
        return self.tenants if self.tenants is not None else (
            TenantSet.default()
        )

    def with_traffic(
        self, traffic: Union[Sequence[Request], EventSource]
    ) -> "WorkloadSpec":
        """A copy of this spec serving ``traffic`` — the template-spec
        idiom the sweep driver and planner replay use."""
        return replace(self, traffic=traffic)

    def describe(self) -> str:
        parts = [f"policy {self.policy_name}", f"engine {self.engine}"]
        if self.tenants is not None and not self.tenants.trivial:
            parts.append(f"tenants [{self.tenants.describe()}]")
        if self.batcher is not None:
            parts.append(
                f"batch <= {self.batcher.max_batch}, "
                f"wait {self.batcher.max_wait_s * 1e3:g} ms"
            )
        if self.slo is not None:
            parts.append(
                f"slo p99 <= {self.slo.p99_target_s * 1e3:.2f} ms "
                f"({self.slo.action})"
            )
        if self.autoscale is not None:
            parts.append("autoscaled")
        if self.scenario is not None:
            parts.append("scenario")
        if self.max_events is not None:
            parts.append(f"budget {self.max_events} events")
        return "workload: " + ", ".join(parts)

