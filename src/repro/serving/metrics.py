"""Serving metrics: per-request records and the aggregate report.

The paper reports makespan-based throughput ("CNN Perf. (GOPS)",
Table 4); a serving system additionally cares *when each request* got
its answer.  A :class:`ServingReport` therefore carries both views:

* **aggregate** — makespan (first arrival to last completion),
  images/s and GOPS over that span, directly comparable to
  :class:`~repro.runtime.batch.BatchResult`;
* **per-request** — queueing delay and end-to-end latency percentiles
  (nearest-rank), the quantities a latency-vs-throughput policy trades.

The per-request view is stored as numpy columns
(:class:`RecordColumns`), so a million-request replay's statistics are
array operations computed once; :class:`RequestRecord` stays the row
type that indexing and iteration hand out.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.tenancy import DEFAULT_TENANT


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle timestamps of one served request (virtual seconds).

    ``arrival`` -> queued; ``dispatched`` -> its batch was flushed and
    assigned to a shard; ``started`` -> the shard began the batch
    (``> dispatched`` when the shard was still draining earlier work);
    ``completed`` -> the image's round-robin slot finished.

    A report stores its records as :class:`RecordColumns`; this is the
    row view it hands out.
    """

    index: int
    arrival: float
    dispatched: float
    started: float
    completed: float
    shard: str
    batch_size: int
    tenant: str = DEFAULT_TENANT

    @property
    def latency(self) -> float:
        """End-to-end: arrival to completion."""
        return self.completed - self.arrival

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting before the shard started the batch."""
        return self.started - self.arrival


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Selection runs in O(n) via :func:`numpy.partition` — the k-th
    order statistic is the same value the old full sort produced, so
    reports over million-record replays stop paying an O(n log n)
    sort per percentile.  A sample containing NaN falls back to the
    sorted-list path: NaN ordering under ``sorted`` is
    comparison-dependent, and preserving the legacy result exactly
    matters more than speed on a degenerate sample.
    """
    if len(values) == 0:
        raise ServingError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ServingError(f"percentile must be in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100 * len(values)))
    k = min(rank, len(values)) - 1
    array = np.asarray(values, dtype=np.float64)
    if np.isnan(array).any():
        return sorted(values)[k]
    return float(np.partition(array, k)[k])


def _frozen_column(values, dtype) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


def encode_names(names: Iterable[str], count: int
            ) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Integer codes into a first-seen tuple of distinct names."""
    table: Dict[str, int] = {}
    codes = np.fromiter(
        (table.setdefault(name, len(table)) for name in names),
        np.int32, count,
    )
    return codes, tuple(table)


def _decode(codes: np.ndarray, names: Tuple[str, ...]) -> List[str]:
    return list(map(names.__getitem__, codes.tolist()))


class RecordColumns(SequenceABC):
    """A report's per-request records, stored column by column.

    A read-only ``Sequence[RequestRecord]``: ``index``, ``arrival``,
    ``dispatched``, ``started``, ``completed`` and ``batch_size`` are
    numpy arrays, and ``shard``/``tenant`` are integer codes into the
    ``shard_names``/``tenant_names`` tuples.  Statistics read the
    columns; indexing, slicing and iteration build
    :class:`RequestRecord` rows on demand (a slice is a list of rows),
    and the first full iteration caches the row list.  Equality
    compares decoded values, so two runs that interned their names in
    a different order still compare equal.  Pickling keeps only the
    columns.
    """

    def __init__(self, index, arrival, dispatched, started, completed,
                 shard, batch_size, tenant,
                 shard_names: Sequence[str],
                 tenant_names: Sequence[str]):
        self.index = _frozen_column(index, np.int64)
        self.arrival = _frozen_column(arrival, np.float64)
        self.dispatched = _frozen_column(dispatched, np.float64)
        self.started = _frozen_column(started, np.float64)
        self.completed = _frozen_column(completed, np.float64)
        self.shard = _frozen_column(shard, np.int32)
        self.batch_size = _frozen_column(batch_size, np.int64)
        self.tenant = _frozen_column(tenant, np.int32)
        self.shard_names = tuple(shard_names)
        self.tenant_names = tuple(tenant_names)
        lengths = {len(column) for column in self._columns()}
        if len(lengths) > 1:
            raise ServingError(
                f"record columns differ in length: {sorted(lengths)}"
            )
        for names in (self.shard_names, self.tenant_names):
            if len(set(names)) != len(names):
                raise ServingError(f"duplicate column names in {names}")
        self._rows: Optional[List[RequestRecord]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[RequestRecord]) -> "RecordColumns":
        """Columns of ``rows``; the row list is kept as the row cache,
        so rows the caller already built are never rebuilt."""
        if isinstance(rows, RecordColumns):
            return rows
        rows = rows if isinstance(rows, list) else list(rows)
        count = len(rows)

        def column(name: str, dtype=np.float64) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), rows), dtype, count)

        shard, shard_names = encode_names(
            map(attrgetter("shard"), rows), count
        )
        tenant, tenant_names = encode_names(
            map(attrgetter("tenant"), rows), count
        )
        columns = cls(
            column("index", np.int64), column("arrival"),
            column("dispatched"), column("started"), column("completed"),
            shard, column("batch_size", np.int64), tenant,
            shard_names, tenant_names,
        )
        columns._rows = rows
        return columns

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.index, self.arrival, self.dispatched, self.started,
            self.completed, self.shard, self.batch_size, self.tenant,
        )

    # -- derived columns --------------------------------------------------

    @property
    def latency(self) -> np.ndarray:
        """End-to-end seconds per record: ``completed - arrival``."""
        return self.completed - self.arrival

    @property
    def queue_seconds(self) -> np.ndarray:
        """Seconds before the shard started each record's batch."""
        return self.started - self.arrival

    # -- the row view -----------------------------------------------------

    def _build(self, part: slice) -> List[RequestRecord]:
        return list(map(
            RequestRecord,
            self.index[part].tolist(),
            self.arrival[part].tolist(),
            self.dispatched[part].tolist(),
            self.started[part].tolist(),
            self.completed[part].tolist(),
            _decode(self.shard[part], self.shard_names),
            self.batch_size[part].tolist(),
            _decode(self.tenant[part], self.tenant_names),
        ))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if self._rows is not None:
            return self._rows[key]
        if isinstance(key, slice):
            return self._build(key)
        position = range(len(self))[key]  # normalised and checked
        return self._build(slice(position, position + 1))[0]

    def __iter__(self):
        if self._rows is None:
            self._rows = self._build(slice(None))
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        if not isinstance(other, RecordColumns):
            return NotImplemented
        numeric = ("index", "arrival", "dispatched", "started",
                   "completed", "batch_size")
        return (
            len(self) == len(other)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in numeric
            )
            and _decode(self.shard, self.shard_names)
            == _decode(other.shard, other.shard_names)
            and _decode(self.tenant, self.tenant_names)
            == _decode(other.tenant, other.tenant_names)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (
            RecordColumns,
            self._columns() + (self.shard_names, self.tenant_names),
        )

    def __repr__(self) -> str:
        return f"RecordColumns({len(self)} records)"


def _mean(values: np.ndarray) -> float:
    """The builtin ``sum`` over a column (NaN when empty).

    Deliberately not ``np.sum``: pairwise summation rounds differently,
    and reports must stay bit-identical to row-wise accumulation on
    every interpreter.
    """
    if len(values) == 0:
        return float("nan")
    return sum(values.tolist()) / len(values)


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision: a shard scaled up or down.

    ``time`` is the *decision* instant (a scaled-up shard only accepts
    work after its warm-up elapses); ``shards_after`` counts the
    shards the pool is provisioned for — active plus warming — once
    the decision applies; ``observed`` is the windowed metric value
    (``metric`` names which: ``utilisation`` or ``p99``) that
    triggered it.
    """

    time: float
    action: str
    shard: str
    shards_after: int
    observed: float
    metric: str

    def __post_init__(self) -> None:
        if self.action not in ("up", "down"):
            raise ServingError(
                f"scale event action must be up|down, got {self.action!r}"
            )


@dataclass(frozen=True)
class TenantBreakdown:
    """One tenant's slice of a run (see :meth:`ServingReport.per_tenant`).

    ``shed`` counts every dropped request of the tenant — SLO sheds
    *plus* admission rejections; ``admission_shed`` is the admission
    subset, so ``shed - admission_shed`` is what the SLO controller
    dropped.  ``issued = count + shed + unserved`` and
    :meth:`slo_attainment` uses it as the denominator, exactly like the
    global figure.
    """

    tenant: str
    count: int
    shed: int
    admission_shed: int
    unserved: int
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    slo_target_s: Optional[float] = None
    #: Fraction of the tenant's issued requests served within its own
    #: SLO target — ``None`` when the tenant declares no target.
    slo_attainment: Optional[float] = None

    @property
    def issued(self) -> int:
        return self.count + self.shed + self.unserved

    def to_dict(self) -> Dict:
        def safe(value: Optional[float]) -> Optional[float]:
            if value is None:
                return None
            return None if value != value else value

        return {
            "count": self.count,
            "shed": self.shed,
            "admission_shed": self.admission_shed,
            "unserved": self.unserved,
            "issued": self.issued,
            "mean_latency_s": safe(self.mean_latency_s),
            "p50_latency_s": safe(self.p50_latency_s),
            "p99_latency_s": safe(self.p99_latency_s),
            "slo_target_s": safe(self.slo_target_s),
            "slo_attainment": safe(self.slo_attainment),
        }


@dataclass(frozen=True)
class ShardUsage:
    """One shard's share of the run.

    ``active_spans`` is the shard's provisioned timeline under an
    autoscaler — ``(from, to)`` virtual-time intervals the shard was
    scaled in (including warm-up).  ``None`` (the fixed-pool default)
    means the shard was active for the whole run; an *empty* tuple
    means a standby shard the autoscaler never provisioned.
    """

    name: str
    requests: int
    batches: int
    busy_seconds: float
    active_spans: Optional[Tuple[Tuple[float, float], ...]] = None

    def utilisation(self, makespan: float) -> float:
        return self.busy_seconds / makespan if makespan > 0 else 0.0

    def active_seconds(self, makespan: float) -> float:
        """Provisioned time: span lengths, or ``makespan`` when the
        shard was never autoscaled (fixed-pool shards)."""
        if self.active_spans is None:
            return makespan
        return sum(end - start for start, end in self.active_spans)


@dataclass(frozen=True)
class ServingReport:
    """Everything one :meth:`ShardServer.run` measured.

    ``shed`` counts requests the SLO controller dropped, ``rerouted``
    counts requests it steered away from the policy's pick (both zero
    without a controller), and ``unserved`` counts requests still
    parked when the run drained — a scenario that killed the whole
    pool and never restored it.  A report may legitimately hold *zero*
    records (every request shed or stranded, or a zero-length stream):
    counts and spans are then 0 and the undefined latency statistics
    are NaN — no accessor raises.

    ``scale_events`` is the autoscaler's decision log (empty without
    one) and ``shard_seconds`` the provisioned shard-time it was
    billed — ``None`` means a fixed pool, where it degenerates to
    ``len(shards) * makespan`` (see :meth:`total_shard_seconds`).

    ``events_processed``/``wall_seconds`` measure the *kernel*, not the
    modeled system: how many events the run dispatched and how much
    host wall-clock it took (:attr:`events_per_second` is the ratio —
    the serving layer's perf trajectory metric).  They describe the
    machine the simulation ran on, so they are excluded from equality
    (two runs of the same scenario compare equal even though their
    wall clocks differ).

    ``records`` is always a :class:`RecordColumns`: any row sequence
    passed in is converted on construction.  Every statistic reads the
    columns, and the ones a report renders more than once (makespan,
    means, percentiles, the per-tenant breakdowns) are computed once
    and cached on the instance.
    """

    records: RecordColumns
    shards: List[ShardUsage]
    total_ops: int
    shed: int = 0
    rerouted: int = 0
    unserved: int = 0
    scale_events: List[ScaleEvent] = field(default_factory=list)
    shard_seconds: Optional[float] = None
    #: Admission-control rejections — a *subset* of ``shed`` (``shed``
    #: stays the total drop count, so the served+shed+unserved
    #: accounting identity is unchanged by tenancy).
    admission_shed: int = 0
    #: Per-tenant drop/strand counts, populated only with nonzero
    #: entries — single-tenant runs keep the empty dicts and stay
    #: byte-identical to pre-tenancy reports.
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    admission_shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    unserved_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: ``tenant -> p99 target`` for tenants that declared an SLO.
    tenant_slo_targets: Dict[str, float] = field(default_factory=dict)
    events_processed: int = field(default=0, compare=False)
    wall_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.shed < 0 or self.rerouted < 0 or self.unserved < 0:
            raise ServingError(
                "negative shed/reroute/unserved counts: "
                f"{self.shed}/{self.rerouted}/{self.unserved}"
            )
        if not 0 <= self.admission_shed <= self.shed:
            raise ServingError(
                f"admission_shed ({self.admission_shed}) must be a "
                f"subset of shed ({self.shed})"
            )
        object.__setattr__(
            self, "records", RecordColumns.from_rows(self.records)
        )

    # -- aggregate view ---------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.records)

    @cached_property
    def makespan_seconds(self) -> float:
        """First arrival to last completion — the Table-4 span
        (0.0 when nothing completed)."""
        if not self.count:
            return 0.0
        records = self.records
        return float(records.completed.max() - records.arrival.min())

    @property
    def throughput_gops(self) -> float:
        if self.makespan_seconds <= 0.0:
            return float("nan")
        return self.total_ops / self.makespan_seconds / 1e9

    @property
    def images_per_second(self) -> float:
        if self.makespan_seconds <= 0.0:
            return float("nan")  # undefined rate, like throughput_gops
        return self.count / self.makespan_seconds

    @property
    def mean_batch_size(self) -> float:
        batches = sum(usage.batches for usage in self.shards)
        return self.count / batches if batches else 0.0

    # -- per-request view -------------------------------------------------

    def latencies(self) -> List[float]:
        return self.records.latency.tolist()

    def latency_percentile(self, q: float) -> float:
        if not self.count:
            return float("nan")
        cache = self._percentiles
        if q not in cache:
            cache[q] = percentile(self.records.latency, q)
        return cache[q]

    @cached_property
    def _percentiles(self) -> Dict[float, float]:
        return {}

    @cached_property
    def mean_latency(self) -> float:
        return _mean(self.records.latency)

    @cached_property
    def mean_queue_seconds(self) -> float:
        return _mean(self.records.queue_seconds)

    def served_within(self, target_s: float) -> int:
        """How many served requests finished within ``target_s``."""
        return int(np.count_nonzero(self.records.latency <= target_s))

    def per_shard(self) -> Dict[str, ShardUsage]:
        return {usage.name: usage for usage in self.shards}

    def tenants(self) -> List[str]:
        """Every tenant the run touched (served, shed or stranded), in
        deterministic sorted order with the default tenant first."""
        names = set(self._served_tenants())
        names.update(self.shed_by_tenant)
        names.update(self.unserved_by_tenant)
        names.update(self.tenant_slo_targets)
        if not names:
            return []
        return sorted(
            names, key=lambda name: (name != DEFAULT_TENANT, name)
        )

    def _served_tenants(self) -> Dict[str, int]:
        """Each served tenant's code in the ``tenant`` column."""
        records = self.records
        counts = np.bincount(
            records.tenant, minlength=len(records.tenant_names)
        )
        return {
            name: code for code, name in enumerate(records.tenant_names)
            if counts[code]
        }

    def per_tenant(self) -> Dict[str, TenantBreakdown]:
        """Per-tenant breakdowns: counts, latency percentiles and each
        tenant's own SLO attainment.  Sums are exhaustive — every
        tenant's ``count``/``shed``/``unserved`` adds up to the global
        accounting."""
        return dict(self._tenant_breakdowns)

    @cached_property
    def _tenant_breakdowns(self) -> Dict[str, TenantBreakdown]:
        records = self.records
        codes = self._served_tenants()
        breakdowns = {}
        for name in self.tenants():
            code = codes.get(name)
            if code is None:
                latencies = np.empty(0, dtype=np.float64)
            elif len(codes) == 1:
                latencies = records.latency
            else:
                # A boolean mask keeps record order, so sums accumulate
                # in the same sequence a row walk would.
                latencies = records.latency[records.tenant == code]
            served = len(latencies)
            target = self.tenant_slo_targets.get(name)
            shed = self.shed_by_tenant.get(name, 0)
            unserved = self.unserved_by_tenant.get(name, 0)
            attainment = None
            if target is not None:
                issued = served + shed + unserved
                attainment = (
                    int(np.count_nonzero(latencies <= target)) / issued
                    if issued else 0.0
                )
            if served == self.count:
                # The whole run is this tenant's: share the run-wide
                # statistics instead of recomputing them.
                mean = self.mean_latency
                p50 = self.latency_percentile(50)
                p99 = self.latency_percentile(99)
            else:
                mean = _mean(latencies)
                p50 = (
                    percentile(latencies, 50) if served
                    else float("nan")
                )
                p99 = (
                    percentile(latencies, 99) if served
                    else float("nan")
                )
            breakdowns[name] = TenantBreakdown(
                tenant=name,
                count=served,
                shed=shed,
                admission_shed=self.admission_shed_by_tenant.get(name, 0),
                unserved=unserved,
                mean_latency_s=mean,
                p50_latency_s=p50,
                p99_latency_s=p99,
                slo_target_s=target,
                slo_attainment=attainment,
            )
        return breakdowns

    def slo_attainment(self, target_s: float) -> float:
        """The fraction of *issued* requests served within ``target_s``.

        The denominator counts served + shed + unserved — a controller
        that sheds its way to a fast tail must not look like it met the
        SLO for the requests it dropped.  0.0 when nothing was issued.
        """
        if target_s <= 0 or target_s != target_s:
            raise ServingError(
                f"SLO target must be positive, got {target_s}"
            )
        issued = self.count + self.shed + self.unserved
        if issued == 0:
            return 0.0
        return self.served_within(target_s) / issued

    def survival(self, target_s: float,
                 multiples: Sequence[float] = (1.0, 2.0, 4.0, 8.0)
                 ) -> Dict[str, float]:
        """Survival curve over issued requests: for each multiple ``m``
        of ``target_s``, the fraction still waiting past ``m * target``
        (shed and unserved requests never completed, so they exceed
        every multiple)."""
        return {
            f"{multiple:g}x": 1.0 - self.slo_attainment(
                multiple * target_s
            )
            for multiple in multiples
        }

    # -- elasticity view --------------------------------------------------

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "down")

    @property
    def events_per_second(self) -> float:
        """Kernel dispatch rate (host events/s); NaN when unmeasured.

        The fast-forward engine reports its *equivalent* event count
        (what the kernel would have dispatched for the same run), so
        this stays one trajectory metric across both engines."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.events_processed / self.wall_seconds

    @property
    def replay_requests_per_second(self) -> float:
        """Served requests per host wall second — the replay-engine
        throughput figure the perf trajectory tracks next to
        :attr:`events_per_second`; NaN when unmeasured."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.count / self.wall_seconds

    def total_shard_seconds(self) -> float:
        """Provisioned shard-time of the run: the autoscaler's bill, or
        ``shards * makespan`` for a fixed pool.  This is the cost axis
        the elasticity studies trade against the p99 target."""
        if self.shard_seconds is not None:
            return self.shard_seconds
        return len(self.shards) * self.makespan_seconds

    # -- export -----------------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-safe summary (NaN statistics become ``None``) — the
        payload ``repro serve --report-json`` writes and CI uploads as
        a workflow artifact.

        ``schema`` versions the layout: schema 1 (pre-tenancy) was the
        same flat dictionary without ``schema``, ``admission_shed`` and
        ``tenants``; schema 2 adds them and changes nothing else, so
        schema-1 consumers keep working on the flat fields.
        """

        def safe(value: float) -> Optional[float]:
            return None if value != value else value

        return {
            "schema": 2,
            "count": self.count,
            "admission_shed": self.admission_shed,
            "tenants": {
                name: breakdown.to_dict()
                for name, breakdown in self.per_tenant().items()
            },
            "shed": self.shed,
            "rerouted": self.rerouted,
            "unserved": self.unserved,
            "total_ops": self.total_ops,
            "makespan_seconds": self.makespan_seconds,
            "images_per_second": safe(self.images_per_second),
            "throughput_gops": safe(self.throughput_gops),
            "mean_batch_size": self.mean_batch_size,
            "mean_latency_s": safe(self.mean_latency),
            "p50_latency_s": safe(self.latency_percentile(50)),
            "p90_latency_s": safe(self.latency_percentile(90)),
            "p99_latency_s": safe(self.latency_percentile(99)),
            "mean_queue_s": safe(self.mean_queue_seconds),
            "shard_seconds": self.total_shard_seconds(),
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
            "events_per_second": safe(self.events_per_second),
            "replay_requests_per_second": safe(
                self.replay_requests_per_second
            ),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_events": [
                {
                    "time": event.time,
                    "action": event.action,
                    "shard": event.shard,
                    "shards_after": event.shards_after,
                    "observed": safe(event.observed),
                    "metric": event.metric,
                }
                for event in self.scale_events
            ],
            "shards": [
                {
                    "name": usage.name,
                    "requests": usage.requests,
                    "batches": usage.batches,
                    "busy_seconds": usage.busy_seconds,
                    "active_spans": (
                        None if usage.active_spans is None
                        else [list(span) for span in usage.active_spans]
                    ),
                }
                for usage in self.shards
            ],
        }

    # -- rendering --------------------------------------------------------

    def describe(self) -> str:
        if not self.count:
            reasons = []
            if self.shed:
                slo_shed = self.shed - self.admission_shed
                if slo_shed:
                    reasons.append(
                        f"{slo_shed} shed by the SLO controller"
                    )
                if self.admission_shed:
                    reasons.append(
                        f"{self.admission_shed} rejected at admission"
                    )
            if self.rerouted:
                reasons.append(f"{self.rerouted} rerouted")
            if self.unserved:
                reasons.append(
                    f"{self.unserved} stranded by a shard outage"
                )
            text = (
                f"served 0 requests over {len(self.shards)} shard(s): "
                "nothing completed"
                + (f" ({', '.join(reasons)})" if reasons else "")
            )
            if self.shed and not self.unserved:
                # Without this note an --slo-p99 target over a stream
                # that was dropped wholesale is a silent no-op: nothing
                # completed, so no latency sample ever met the target.
                text += (
                    "\n  all requests shed: no request completed, so "
                    "the p99 SLO was never evaluated"
                )
            return text
        lines = [
            f"served {self.count} requests over "
            f"{len(self.shards)} shard(s) in "
            f"{self.makespan_seconds * 1e3:.2f} ms "
            f"(mean batch {self.mean_batch_size:.1f})",
            f"  throughput: {self.images_per_second:.1f} img/s, "
            f"{self.throughput_gops:.1f} GOPS aggregate",
            f"  latency ms: mean {self.mean_latency * 1e3:.2f}, "
            f"p50 {self.latency_percentile(50) * 1e3:.2f}, "
            f"p90 {self.latency_percentile(90) * 1e3:.2f}, "
            f"p99 {self.latency_percentile(99) * 1e3:.2f}, "
            f"max {self.records.latency.max() * 1e3:.2f} "
            f"(queue {self.mean_queue_seconds * 1e3:.2f} mean)",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  host time: {self.events_processed} events in "
                f"{self.wall_seconds:.3f} s "
                f"({self.events_per_second / 1e6:.3g} M events/s)"
            )
        # Surface the exceptional counters only when nonzero: a healthy
        # run's report should not advertise the machinery that never
        # fired.
        slo_counts = []
        if self.shed:
            shed_text = f"{self.shed} request(s) shed"
            if self.admission_shed:
                shed_text += f" ({self.admission_shed} at admission)"
            slo_counts.append(shed_text)
        if self.rerouted:
            slo_counts.append(f"{self.rerouted} request(s) rerouted")
        if slo_counts:
            lines.append("  slo: " + ", ".join(slo_counts))
        if self.unserved:
            lines.append(
                f"  {self.unserved} request(s) left unserved by a "
                "shard outage"
            )
        breakdowns = self.per_tenant()
        if len(breakdowns) > 1 or self.tenant_slo_targets:
            for name, tenant in breakdowns.items():
                p99 = tenant.p99_latency_s
                line = (
                    f"  tenant {name:12s} {tenant.count:5d} served, "
                    f"{tenant.shed:4d} shed, {tenant.unserved:4d} "
                    "unserved"
                )
                if p99 == p99:
                    line += f", p99 {p99 * 1e3:.2f} ms"
                if tenant.slo_target_s is not None:
                    verdict = (
                        "met" if p99 == p99
                        and p99 <= tenant.slo_target_s else "MISSED"
                    )
                    line += (
                        f" (target {tenant.slo_target_s * 1e3:.2f} ms "
                        f"{verdict}, attainment "
                        f"{(tenant.slo_attainment or 0.0) * 100:.1f}%)"
                    )
                lines.append(line)
        if self.scale_events:
            fixed = len(self.shards) * self.makespan_seconds
            lines.append(
                f"  autoscaler: {self.scale_ups} scale-up(s), "
                f"{self.scale_downs} scale-down(s); "
                f"{self.total_shard_seconds() * 1e3:.2f} shard-ms vs "
                f"{fixed * 1e3:.2f} for the full pool"
            )
        makespan = self.makespan_seconds
        for usage in self.shards:
            line = (
                f"  {usage.name:12s} {usage.requests:5d} requests in "
                f"{usage.batches:4d} batch(es), "
                f"{usage.utilisation(makespan) * 100:5.1f}% busy"
            )
            if usage.active_spans is not None:
                share = (
                    usage.active_seconds(makespan) / makespan
                    if makespan > 0 else 0.0
                )
                line += f", active {share * 100:5.1f}% of the run"
            lines.append(line)
        return "\n".join(lines)
