"""Discrete-event kernel: the virtual-time heart of the serving layer.

Every serving-layer behaviour — open-loop arrivals, dynamic batching,
scheduling, closed-loop clients, SLO control, shard failures — is
expressed as *typed events* on one :class:`EventKernel`: a virtual-time
heap dispatching to pluggable handlers.  The kernel is what lets
arrivals depend on completions (closed-loop clients), control loops
observe the system they steer (SLO shedding/rerouting), and scenarios
perturb it mid-stream (kill/restore a shard) without any component
knowing about the others.

Determinism is the design invariant: events pop in ``(time, priority,
sequence)`` order, handlers run in subscription order, and nothing
reads a wall clock — same sources, same pool, same policy, same
scenario ⇒ the same event trace, byte for byte.

Event taxonomy (priority breaks same-instant ties, lowest first):

====================  ========  =========================================
event                 priority  meaning
====================  ========  =========================================
``ShardDown``         0         a shard fails: in-flight work is lost
                                and re-queued
``ShardUp``           1         a failed shard rejoins the pool
``ShardDegrade``      1         a shard slows by a latency multiplier
``ShardRestoreRate``  1         a degraded shard returns to full speed
``BatchDone``         2         one completion instant of a dispatched
                                batch
``PolicyTick``        3         a control-loop heartbeat (SLO /
                                autoscaler cadence)
``Arrival``           4         one request enters the system
``Flush``             5         a batcher wait-deadline wakeup
====================  ========  =========================================

``ShardDown``/``ShardUp`` precede everything so a scenario applies
before traffic at the same instant; the degrade pair shares
``ShardUp``'s priority (same-instant ties among the three break on push
order, which the scenario compiler emits sorted); ``BatchDone``
precedes ``Arrival`` so a closed-loop client's completion is processed
before the arrival it causes; ``Arrival`` precedes ``Flush`` so a
request arriving exactly at a wait deadline joins that flush — the
ordering the pre-kernel batcher implemented inline.

The kernel is also the serving layer's hot loop — a trace replay
dispatches millions of events — so the implementation spends nothing
per event that the semantics do not require.  The heap holds plain
``(time, priority, seq, entry)`` tuples: heapq compares them at C
speed, and the unique ``seq`` guarantees the ``entry`` handle itself is
never compared.  Events are ``slots=True`` dataclasses (no per-event
``__dict__``), :meth:`EventKernel.pending` is an O(1) counter read, and
:meth:`EventKernel.run` pops same-instant runs in one batch, falling
back to the heap only when a handler schedules an event that must
interleave with the batch.  None of this changes the event trace: the
determinism tests pin pop order across both code paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Type,
)

from repro.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a cycle
    from repro.serving.metrics import RequestRecord
    from repro.serving.traffic import Request


@dataclass(frozen=True, slots=True)
class Event:
    """Base event: a virtual timestamp plus a class-level tie priority."""

    time: float
    priority: ClassVar[int] = 100


@dataclass(frozen=True, slots=True)
class ShardDown(Event):
    """Shard ``shard`` fails at ``time``; its in-flight work is lost."""

    shard: str = ""
    priority: ClassVar[int] = 0


@dataclass(frozen=True, slots=True)
class ShardUp(Event):
    """Shard ``shard`` rejoins the pool at ``time`` (fresh timeline)."""

    shard: str = ""
    priority: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class ShardDegrade(Event):
    """Shard ``shard`` slows down at ``time``: every batch dispatched
    from here on takes ``factor`` times its healthy service time.

    A degraded shard stays *up* — it keeps accepting work, just
    slowly — which is what distinguishes a straggler from a failure:
    the scheduler's latency-aware policies route around it instead of
    the server re-queueing its work.  Batches already in flight keep
    their original completion instants (the slowdown models contention
    that affects new work, and rewriting scheduled completions would
    make in-flight accounting ambiguous — a kill, by contrast, cancels
    them outright).
    """

    shard: str = ""
    factor: float = 1.0
    priority: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class ShardRestoreRate(Event):
    """Shard ``shard`` returns to full speed at ``time`` (ends a
    :class:`ShardDegrade` window; batches dispatched after this run at
    the healthy service time again)."""

    shard: str = ""
    priority: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class BatchDone(Event):
    """One completion instant of a dispatched batch.

    A batch of ``batch_size`` images round-robins over a shard's NI
    instances, so it completes in rounds: one ``BatchDone`` is emitted
    per round, carrying the records that finish at that instant
    (``final`` marks the last round).  ``busy_delta`` is the busy time
    the shard accrued since the previous round — summed over a batch's
    rounds it equals the batch makespan, and a mid-batch kill then
    counts exactly the work that actually completed.
    """

    shard: str = ""
    records: List["RequestRecord"] = field(default_factory=list)
    busy_delta: float = 0.0
    batch_size: int = 0
    first: bool = False
    final: bool = False
    priority: ClassVar[int] = 2


@dataclass(frozen=True, slots=True)
class PolicyTick(Event):
    """A control-loop heartbeat.

    Several controllers (the SLO controller, the autoscaler) tick on
    the same kernel, each at its own cadence: ``owner`` tags whose
    heartbeat this is, and each controller ignores — and never
    re-schedules — ticks it does not own, so two control loops on one
    kernel cannot multiply each other's tick chains.
    """

    owner: str = ""
    priority: ClassVar[int] = 3


@dataclass(frozen=True, slots=True)
class Arrival(Event):
    """One request enters the system at ``time``.

    ``time`` equals ``request.arrival`` for first deliveries; a request
    re-queued after a shard failure keeps its original ``arrival`` (so
    its latency accounts the lost work) but re-enters at the failure
    instant.
    """

    request: Optional["Request"] = None
    priority: ClassVar[int] = 4


@dataclass(frozen=True, slots=True)
class Flush(Event):
    """A batcher wait-deadline wakeup; ``token`` marks it stale when the
    queue head it was scheduled for has already flushed.

    ``key`` routes the wakeup to one queue of a tenant-aware batcher
    (queues are keyed by batch tier); an untenanted run's single queue
    keeps the default empty key.
    """

    token: int = 0
    key: str = ""
    priority: ClassVar[int] = 5


class _Entry:
    """Cancellable handle for a scheduled event.

    The heap itself holds ``(time, priority, seq, entry)`` tuples —
    heapq orders them with C-level tuple comparisons, and the unique
    ``seq`` means the entry in the last slot is never compared — so the
    handle carries only the mutable lifecycle flags ``cancel``/``run``
    need."""

    __slots__ = ("event", "cancelled", "popped")

    def __init__(self, event: Event):
        self.event = event
        self.cancelled = False
        self.popped = False


Handler = Callable[["EventKernel", Event], None]


class EventKernel:
    """A virtual-time event heap with per-type handler dispatch.

    * :meth:`push` schedules an event (never in the past) and returns a
      handle that :meth:`cancel` invalidates lazily;
    * :meth:`subscribe` registers a handler for one event type;
      handlers run in subscription order;
    * :meth:`run` pops events in ``(time, priority, sequence)`` order
      until the heap drains, advancing :attr:`now` monotonically.
    """

    def __init__(self) -> None:
        #: (time, priority, seq, entry) tuples — see :class:`_Entry`.
        self._heap: List[tuple] = []
        self._seq = 0
        self._live: Dict[Type[Event], int] = {}
        self._pending = 0  # sum(self._live.values()), maintained O(1)
        self._handlers: Dict[Type[Event], List[Handler]] = {}
        self.now = 0.0
        self.events_processed = 0

    # -- scheduling -------------------------------------------------------

    def push(self, event: Event) -> _Entry:
        """Schedule ``event``; returns a cancellable handle."""
        if event.time < self.now:
            raise ServingError(
                f"event {type(event).__name__} scheduled at {event.time} "
                f"in the past (now {self.now})"
            )
        entry = _Entry(event)
        kind = type(event)
        heapq.heappush(
            self._heap, (event.time, kind.priority, self._seq, entry)
        )
        self._seq += 1
        self._live[kind] = self._live.get(kind, 0) + 1
        self._pending += 1
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Invalidate a scheduled event (lazy: skipped when popped).

        Cancelling an entry that already dispatched is a no-op — the
        pending counts were settled when it popped."""
        if not entry.cancelled and not entry.popped:
            entry.cancelled = True
            self._live[type(entry.event)] -= 1
            self._pending -= 1

    def pending(self, event_type: Optional[Type[Event]] = None) -> int:
        """Live (non-cancelled, not yet popped) events, optionally of
        one type."""
        if event_type is not None:
            return self._live.get(event_type, 0)
        return self._pending

    # -- dispatch ---------------------------------------------------------

    def subscribe(self, event_type: Type[Event], handler: Handler) -> None:
        """Register ``handler`` for ``event_type`` (subscription order
        is dispatch order)."""
        self._handlers.setdefault(event_type, []).append(handler)

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the heap; returns the number of events processed.

        ``max_events`` bounds runaway feedback loops (a closed-loop
        source that never stops issuing, a tick that always
        reschedules): exceeding it raises :class:`ServingError` rather
        than spinning forever.
        """
        heap = self._heap
        live = self._live
        get_handlers = self._handlers.get
        pop = heapq.heappop
        processed = 0
        batch: List[tuple] = []
        while heap or batch:
            if batch:
                # A handler may have scheduled an event that sorts
                # before the rest of the batch (same instant, lower
                # priority or just a smaller seq than a later push):
                # one C-level tuple comparison keeps the global
                # (time, priority, seq) order without re-heaping the
                # batch.  Pushes into the past are rejected, so the
                # heap can never hold an event *earlier* than now.
                if heap and heap[0] < batch[-1]:
                    item = pop(heap)
                else:
                    item = batch.pop()
            else:
                item = pop(heap)
                # Batch the whole same-instant run in one go: the
                # common trace-replay case pops long runs of events
                # whose order is already decided.
                time = item[0]
                while heap and heap[0][0] == time:
                    batch.append(pop(heap))
                batch.reverse()  # ascending order; dispatch from the end
            entry = item[3]
            if entry.cancelled:
                # Cancelled entries settled the pending counters in
                # cancel(); handlers can cancel into the batch too, so
                # this check runs at dispatch time, not gather time.
                continue
            entry.popped = True
            event = entry.event
            kind = type(event)
            live[kind] -= 1
            self._pending -= 1
            self.now = item[0]
            processed += 1
            if processed > max_events:
                raise ServingError(
                    f"event budget exhausted after {max_events} events "
                    "- runaway event loop?"
                )
            for handler in get_handlers(kind, ()):
                handler(self, event)
        self.events_processed += processed
        return processed


class EventSource:
    """Something that feeds the kernel: open-loop lists, closed-loop
    client pools, failure scenarios.

    A source *primes* the kernel with its initial events and may react
    to completions (:meth:`on_batch_done`) and SLO sheds
    (:meth:`on_shed`) — which is exactly what makes closed-loop
    behaviour expressible: the next arrival is a function of a
    completion.  ``prime`` must (re)initialise all per-run state so one
    source instance can drive back-to-back runs.
    """

    def prime(self, kernel: EventKernel) -> None:
        """Push the source's initial events; reset per-run state."""

    def on_batch_done(self, kernel: EventKernel, event: BatchDone) -> None:
        """React to a completion instant (closed-loop hooks)."""

    def on_shed(
        self, kernel: EventKernel, requests: List["Request"], now: float
    ) -> None:
        """React to the SLO controller dropping ``requests`` at ``now``."""
