"""Dynamic batching: coalesce queued requests under a batch/wait budget.

The batcher is an event handler on the
:class:`~repro.serving.events.EventKernel`: it consumes
:class:`~repro.serving.events.Arrival` events into a queue and emits
dispatchable batches under two triggers:

* **size** — the queue reached ``max_batch``: dispatch immediately (the
  batch is full, waiting longer cannot help anyone);
* **wait** — the oldest queued request has waited ``max_wait_s``: a
  :class:`~repro.serving.events.Flush` wakeup scheduled at that
  deadline dispatches whatever is queued *by then* (a later request
  never time-travels into an earlier batch; a stale wakeup — its head
  already flushed by size — is ignored via its token).

``max_wait_s=0`` with open-loop traffic degenerates to per-request
dispatch; ``max_wait_s=0`` with simultaneous arrivals still forms full
batches, because they hit the size trigger.  At end of stream the
remainder drains at each head's promised deadline — the pending
``Flush`` wakeups simply fire once no arrivals precede them, so the
batcher never peeks at the future to learn that traffic stopped.

Requests re-queued after a shard failure enter with their *enqueue*
time as the wait-deadline base (their original ``arrival`` is kept for
latency accounting); for first-delivery arrivals the two coincide, so
open-loop behaviour is unchanged from the pre-kernel batcher — flush
for flush, byte for byte (:meth:`DynamicBatcher.batches` is the same
logic run on a private kernel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ServingError
from repro.serving.events import Arrival, EventKernel, Flush
from repro.serving.tenancy import TenantSet
from repro.serving.traffic import OpenLoopSource, Request

#: A dispatch callback: ``(kernel, flush_time, batch)``.
DispatchFn = Callable[[EventKernel, float, List[Request]], None]

#: An admission callback: ``(kernel, request) -> admitted?``.  Rejected
#: requests never enter a queue — the callback owns the accounting and
#: the source notification.
AdmitFn = Callable[[EventKernel, Request], bool]

#: Tenant-mixing modes of :class:`BatcherOptions`.
TENANT_MODES = ("tier", "shared")


@dataclass(frozen=True)
class BatcherOptions:
    """The two knobs of the latency-vs-throughput trade.

    ``max_batch`` bounds how much work one flush hands a shard (larger
    batches amortise nothing here — instances are batch-parallel — but
    they do delay early requests behind late ones); ``max_wait_s``
    bounds how long the *oldest* request may wait for company.

    ``tenant_mode`` governs multi-tenant coalescing: ``"tier"`` (the
    default) keeps one queue per batch tier, so an interactive request
    never waits out a bulk tenant's batch assembly — tenants of
    *incompatible tiers are never mixed* in one batch; ``"shared"``
    keeps the single pre-tenancy queue regardless of tenants.  With a
    trivial tenant set the modes coincide (one tier, one queue).
    """

    max_batch: int = 8
    max_wait_s: float = 0.0
    tenant_mode: str = "tier"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_s < 0:
            raise ServingError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.tenant_mode not in TENANT_MODES:
            raise ServingError(
                f"unknown tenant mode {self.tenant_mode!r}; "
                f"expected one of {TENANT_MODES}"
            )


class _TenantBatcherFeed:
    """Per-run batcher state: one queue per key, its wait-deadline
    wakeup, and an optional admission gate.

    A queue's key is its batch tier, so a bulk tenant's half-full batch
    never delays an interactive request and tenants of incompatible
    tiers are never mixed.  A trivial tenant set (or ``tenant_mode=
    "shared"``) is one queue under the empty key — the default
    :class:`Flush` key — so untenanted runs keep the single-queue event
    trace.  The key function is resolved once here, not per arrival.

    Each queue flushes on the size trigger inline and on the wait
    trigger via a keyed :class:`Flush` wakeup; any flush of a queue
    bumps its token, so a wakeup whose head has already left is
    recognised as stale and ignored.  Rejected (inadmissible) requests
    never enter any queue.
    """

    def __init__(
        self,
        options: BatcherOptions,
        dispatch: DispatchFn,
        tenants: Optional[TenantSet] = None,
        admit: Optional[AdmitFn] = None,
    ):
        self.options = options
        self.dispatch = dispatch
        self.admit = admit
        #: key -> (queued_at, request); queued_at == arrival for first
        #: deliveries, the re-queue instant for failure re-deliveries.
        self.queues: Dict[str, Deque[Tuple[float, Request]]] = {}
        self.tokens: Dict[str, int] = {}
        if (
            tenants is None
            or tenants.trivial
            or options.tenant_mode == "shared"
        ):
            self.key_of: Callable[[Request], str] = lambda request: ""
        else:
            tier_of = tenants.tier_of
            self.key_of = lambda request: tier_of(request.tenant)

    def on_arrival(self, kernel: EventKernel, event: Arrival) -> None:
        request = event.request
        if self.admit is not None and not self.admit(kernel, request):
            return  # rejected at admission; the gate did the accounting
        key = self.key_of(request)
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
            self.tokens[key] = 0
        queue.append((kernel.now, request))
        if len(queue) >= self.options.max_batch:
            self._flush(kernel, key)
        elif len(queue) == 1:
            self._schedule_wakeup(kernel, key)

    def on_flush(self, kernel: EventKernel, event: Flush) -> None:
        queue = self.queues.get(event.key)
        if (
            queue is None
            or event.token != self.tokens[event.key]
            or not queue
        ):
            return  # stale wakeup: its head already flushed by size
        self._flush(kernel, event.key)

    def _flush(self, kernel: EventKernel, key: str) -> None:
        queue = self.queues[key]
        batch: List[Request] = []
        while (
            queue
            and len(batch) < self.options.max_batch
            and queue[0][0] <= kernel.now
        ):
            batch.append(queue.popleft()[1])
        self.tokens[key] += 1  # any pending wakeup for this key is stale
        if queue:
            self._schedule_wakeup(kernel, key)
        if batch:
            self.dispatch(kernel, kernel.now, batch)

    def _schedule_wakeup(self, kernel: EventKernel, key: str) -> None:
        deadline = self.queues[key][0][0] + self.options.max_wait_s
        kernel.push(Flush(time=deadline, token=self.tokens[key], key=key))


class DynamicBatcher:
    """Coalesces a request stream into dispatchable batches."""

    def __init__(self, options: BatcherOptions = None):
        self.options = options or BatcherOptions()

    def attach(
        self,
        kernel: EventKernel,
        dispatch: DispatchFn,
        tenants: Optional[TenantSet] = None,
        admit: Optional[AdmitFn] = None,
    ):
        """Register this batcher's handlers on ``kernel``.

        Returns the per-run feed (fresh state — one ``attach`` per
        run); ``dispatch`` is called with every flushed batch.  A
        non-trivial ``tenants`` set in ``tier`` mode batches per tier;
        ``admit`` gates every arrival before it is queued.
        """
        feed = _TenantBatcherFeed(self.options, dispatch, tenants, admit)
        kernel.subscribe(Arrival, feed.on_arrival)
        kernel.subscribe(Flush, feed.on_flush)
        return feed

    def batches(
        self, requests: Iterable[Request]
    ) -> Iterator[Tuple[float, List[Request]]]:
        """Yield ``(flush_time, batch)`` in nondecreasing flush order.

        Standalone view of the batching logic: runs the arrival stream
        through a private kernel with no shards attached — exactly the
        event sequence a full serve run would see.
        """
        requests = list(requests)
        if not requests:
            return iter(())
        kernel = EventKernel()
        flushed: List[Tuple[float, List[Request]]] = []
        self.attach(
            kernel, lambda _k, at, batch: flushed.append((at, batch))
        )
        OpenLoopSource(requests).prime(kernel)
        kernel.run()
        return iter(flushed)
