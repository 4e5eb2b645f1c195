"""Autoscaling: utilisation/p99-driven shard elasticity on the kernel.

PR 3 sized the pool by hand; PR 4 let scenarios take shards away.  The
autoscaler closes the loop the other way: it *watches* the serving
system through the same :class:`~repro.serving.events.BatchDone`
stream the SLO controller uses, and drives the pool between
``min_shards`` and ``max_shards`` by emitting the very events a
failure scenario would — :class:`~repro.serving.events.ShardUp` /
:class:`~repro.serving.events.ShardDown` — so the scheduler, the
re-queue path and the usage accounting all work unchanged.

Two target modes (exactly one per controller):

* ``target_utilisation`` — windowed busy fraction of the active
  shards, from per-round ``busy_delta``: scale up while above the
  target; scale down when the pool would *still* sit at or under the
  target with one shard fewer (``value <= target * (n-1)/n``) — the
  projection rule that prevents down/up flapping at the watermark;
* ``target_p99_s`` — windowed nearest-rank p99 of observed end-to-end
  latencies, exactly the SLO controller's estimator: scale up while
  above the target, down when comfortably under it
  (``value < scale_down_margin * target``).

Decisions happen on owned :class:`~repro.serving.events.PolicyTick`
heartbeats, at most one per ``cooldown_s`` — control is
piecewise-constant, like the SLO loop.

**Warm-up** models what :meth:`PipelineSession.clone` + deployment
cost in real time: a scale-up at ``t`` schedules ``ShardUp`` at
``t + warmup_s``, so the new shard is *provisioned* (billed in
shard-seconds from ``t``) but not *routable* until the warm-up
elapses — the scheduler routes around it for free because the shard
is simply still down.  A scale-down emits ``ShardDown`` immediately;
the server re-queues the victim's in-flight work like any failure, so
elasticity never loses a request.

The controller's bill is the **shard-seconds** integral of the
provisioned timeline — the number the ``autoscale`` experiment and
``bench_serving.py`` compare against a fixed pool sized for peak.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ServingError
from repro.serving.events import (
    Arrival,
    BatchDone,
    EventKernel,
    Flush,
    PolicyTick,
    ShardDown,
    ShardUp,
)
from repro.serving.metrics import ScaleEvent, percentile
from repro.serving.shard import Shard, ShardPool

#: Metric names reported in :class:`~repro.serving.metrics.ScaleEvent`.
AUTOSCALE_METRICS = ("utilisation", "p99")

#: Fallback control period (virtual seconds) when neither ``tick_s``
#: nor a p99 target supplies a timescale.  The serving benchmarks run
#: tens to hundreds of virtual milliseconds, so 5 ms is a few batch
#: times; callers with a real workload should derive the tick from
#: their batch service time (the CLI does).
DEFAULT_UTILISATION_TICK_S = 0.005


@dataclass(frozen=True)
class AutoscalerOptions:
    """The elasticity contract and the control loop's knobs.

    Exactly one of ``target_utilisation`` (busy fraction in ``(0, 1]``)
    and ``target_p99_s`` (seconds) must be set.  ``warmup_s`` is the
    modeled provisioning delay of a scaled-up shard; ``cooldown_s``
    bounds the decision rate (default: two ticks); ``window`` /
    ``min_samples`` shape the p99 estimator exactly like
    :class:`~repro.serving.slo.SloOptions`;
    ``utilisation_window_s`` is the trailing busy-time window (default:
    eight ticks — see :attr:`effective_utilisation_window_s` for why
    it must stay several batch times wide); ``scale_down_margin`` is
    the p99-mode hysteresis (down only when the estimate is under
    ``margin * target``).
    """

    min_shards: int
    max_shards: int
    target_utilisation: Optional[float] = None
    target_p99_s: Optional[float] = None
    warmup_s: float = 0.0
    cooldown_s: Optional[float] = None
    tick_s: Optional[float] = None
    window: int = 64
    min_samples: int = 8
    utilisation_window_s: Optional[float] = None
    scale_down_margin: float = 0.5

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ServingError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ServingError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        targets = (self.target_utilisation, self.target_p99_s)
        if sum(t is not None for t in targets) != 1:
            raise ServingError(
                "exactly one of target_utilisation and target_p99_s "
                f"must be set, got {targets}"
            )
        if self.target_utilisation is not None and not (
            0.0 < self.target_utilisation <= 1.0
        ):
            raise ServingError(
                "target_utilisation must be in (0, 1], got "
                f"{self.target_utilisation}"
            )
        if self.target_p99_s is not None and self.target_p99_s <= 0:
            raise ServingError(
                f"target_p99_s must be positive, got {self.target_p99_s}"
            )
        if self.warmup_s < 0:
            raise ServingError(
                f"warmup_s must be >= 0, got {self.warmup_s}"
            )
        if self.cooldown_s is not None and self.cooldown_s < 0:
            raise ServingError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )
        if self.tick_s is not None and self.tick_s <= 0:
            raise ServingError(
                f"tick_s must be positive, got {self.tick_s}"
            )
        if self.min_samples < 1:
            raise ServingError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.window < self.min_samples:
            raise ServingError(
                f"window ({self.window}) must hold at least min_samples "
                f"({self.min_samples}) completions"
            )
        if (
            self.utilisation_window_s is not None
            and self.utilisation_window_s <= 0
        ):
            raise ServingError(
                "utilisation_window_s must be positive, got "
                f"{self.utilisation_window_s}"
            )
        if not 0.0 < self.scale_down_margin < 1.0:
            raise ServingError(
                "scale_down_margin must be in (0, 1), got "
                f"{self.scale_down_margin}"
            )

    @property
    def metric(self) -> str:
        return (
            "utilisation" if self.target_utilisation is not None else "p99"
        )

    @property
    def effective_tick_s(self) -> float:
        if self.tick_s is not None:
            return self.tick_s
        if self.target_p99_s is not None:
            return self.target_p99_s / 2.0  # Nyquist for the target
        return DEFAULT_UTILISATION_TICK_S

    @property
    def effective_cooldown_s(self) -> float:
        if self.cooldown_s is not None:
            return self.cooldown_s
        return 2.0 * self.effective_tick_s

    @property
    def effective_utilisation_window_s(self) -> float:
        """Trailing busy-time window (default: eight ticks).

        Utilisation is completion-sourced, so work still executing at
        the observation instant is invisible: a fully-busy shard reads
        ``1 - service_time / window`` in the worst phase.  Keep the
        window several batch service times wide (or the target under
        that ceiling), otherwise a saturated pool can sit just below
        the target forever.
        """
        if self.utilisation_window_s is not None:
            return self.utilisation_window_s
        return 8.0 * self.effective_tick_s


class AutoscalerController:
    """PolicyTick-driven shard elasticity as kernel event handlers.

    One controller drives one :meth:`ShardServer.run` call: shards
    beyond ``min_shards`` start as *standby* (down, zero-billed), the
    windowed metric is re-evaluated on owned ticks, and decisions emit
    ``ShardUp``/``ShardDown`` against the pool.  State is
    event-sourced: the controller learns up/down flips from the same
    events everything else does, so its shard-count invariant holds
    whatever order the handlers run in.
    """

    #: ``PolicyTick.owner`` tag of this controller's heartbeats.
    TICK_OWNER = "autoscaler"

    def __init__(self, options: AutoscalerOptions):
        self.options = options
        self.scale_events: List[ScaleEvent] = []
        self.ticks = 0
        self._pool: Optional[ShardPool] = None
        self._active: List[str] = []
        self._warming: Dict[str, float] = {}  # shard -> routable at
        self._spans: Dict[str, List[List[float]]] = {}
        self._latencies: Deque[float] = deque(maxlen=options.window)
        self._busy: Deque[Tuple[float, float]] = deque()
        self._last_action = float("-inf")

    # -- wiring -----------------------------------------------------------

    def attach(self, kernel: EventKernel, pool: ShardPool) -> None:
        """Subscribe the handlers, park the standby shards and start
        the tick chain.

        Must run *after* :meth:`ShardPool.reset` (the server's
        ``serve`` does) so the standby cut applies to a fresh pool;
        the scheduler never sees the parked shards as available.
        """
        options = self.options
        if len(pool) < options.max_shards:
            raise ServingError(
                f"autoscaler max_shards is {options.max_shards} but the "
                f"pool holds {len(pool)} shard(s); replicate the pool "
                "to max_shards"
            )
        self._pool = pool
        self._active = [
            shard.name for shard in pool.shards[: options.min_shards]
        ]
        self._warming = {}
        self._spans = {name: [[kernel.now, -1.0]] for name in self._active}
        self._latencies.clear()
        self._busy.clear()
        self._last_action = float("-inf")
        self.scale_events = []
        self.ticks = 0
        for shard in pool.shards[options.min_shards:]:
            shard.up = False  # standby: provisioned only when scaled up
        kernel.subscribe(BatchDone, self._on_batch_done)
        kernel.subscribe(PolicyTick, self._on_tick)
        kernel.subscribe(ShardUp, self._on_shard_up)
        kernel.subscribe(ShardDown, self._on_shard_down)
        kernel.push(
            PolicyTick(
                time=kernel.now + options.effective_tick_s,
                owner=self.TICK_OWNER,
            )
        )

    # -- observation ------------------------------------------------------

    def _on_batch_done(self, kernel: EventKernel, event: BatchDone) -> None:
        for record in event.records:
            self._latencies.append(record.latency)
        if event.busy_delta > 0:
            self._busy.append((event.time, event.busy_delta))

    def utilisation_estimate(self, now: float) -> float:
        """Windowed busy fraction of the active shards (NaN when the
        window is empty of both time and samples).

        Each completion round's ``busy_delta`` covers the interval
        ending at its completion instant, so only its overlap with the
        window counts — per-shard busy can then never exceed the
        window span.  The estimate still reads over 1.0 right after a
        scale-down, deliberately: busy accrued by a decommissioned
        shard is weighed against the *surviving* capacity, which is
        exactly the overload signal the next decision needs.
        """
        window = self.options.effective_utilisation_window_s
        start = now - window
        while self._busy and self._busy[0][0] <= start:
            self._busy.popleft()
        span = min(now, window)
        if span <= 0:
            return float("nan")
        busy = sum(
            min(at, now) - max(at - delta, start)
            for at, delta in self._busy
        )
        return busy / (span * max(len(self._active), 1))

    def p99_estimate(self) -> float:
        """Windowed nearest-rank p99 (NaN until ``min_samples``)."""
        if len(self._latencies) < self.options.min_samples:
            return float("nan")
        return percentile(list(self._latencies), 99)

    def observe(self, now: float) -> float:
        """The current value of the configured metric."""
        if self.options.metric == "utilisation":
            return self.utilisation_estimate(now)
        return self.p99_estimate()

    # -- event-sourced shard state ----------------------------------------

    def _on_shard_up(self, kernel: EventKernel, event: ShardUp) -> None:
        self._warming.pop(event.shard, None)
        if event.shard not in self._active:
            self._active.append(event.shard)
        self._open_span(event.shard, kernel.now)

    def _on_shard_down(self, kernel: EventKernel, event: ShardDown) -> None:
        if event.shard in self._active:
            self._active.remove(event.shard)
        self._warming.pop(event.shard, None)
        self._close_span(event.shard, kernel.now)

    def _open_span(self, name: str, at: float) -> None:
        spans = self._spans.setdefault(name, [])
        if not spans or spans[-1][1] >= 0:
            spans.append([at, -1.0])

    def _close_span(self, name: str, at: float) -> None:
        spans = self._spans.get(name)
        if spans and spans[-1][1] < 0:
            spans[-1][1] = at

    # -- control ----------------------------------------------------------

    @property
    def provisioned(self) -> int:
        """Shards the pool is currently billed for: active + warming."""
        return len(self._active) + len(self._warming)

    def _on_tick(self, kernel: EventKernel, event: PolicyTick) -> None:
        if event.owner != self.TICK_OWNER:
            return  # another controller's heartbeat
        self.ticks += 1
        self._decide(kernel)
        # Keep ticking only while the run still has non-tick events in
        # flight — the chain ends itself when everything drains.
        if kernel.pending() - kernel.pending(PolicyTick) > 0:
            kernel.push(
                PolicyTick(
                    time=kernel.now + self.options.effective_tick_s,
                    owner=self.TICK_OWNER,
                )
            )

    def _decide(self, kernel: EventKernel) -> None:
        options = self.options
        now = kernel.now
        if now - self._last_action < options.effective_cooldown_s:
            return
        # Only act while the system still has work — queued arrivals,
        # batcher wakeups or in-flight completions.  The observation
        # windows hold *past* evidence, so a drained run would
        # otherwise keep scaling up on the overload it already served
        # (and every spurious warm-up ShardUp prolongs the tick chain).
        if (
            kernel.pending(Arrival) + kernel.pending(Flush)
            + kernel.pending(BatchDone) == 0
        ):
            return
        value = self.observe(now)
        if value != value:  # NaN: not enough evidence yet
            return
        provisioned = self.provisioned
        if self._should_scale_up(value) and provisioned < options.max_shards:
            self._scale_up(kernel, value)
        elif (
            provisioned > options.min_shards
            and not self._warming  # let a provisioning decision land first
            and self._should_scale_down(value, provisioned)
        ):
            self._scale_down(kernel, value)

    def _should_scale_up(self, value: float) -> bool:
        if self.options.metric == "utilisation":
            return value > self.options.target_utilisation
        return value > self.options.target_p99_s

    def _should_scale_down(self, value: float, provisioned: int) -> bool:
        if self.options.metric == "utilisation":
            # Projection rule: only shrink when the survivors would
            # still sit at or under the target.
            projected = value * provisioned / (provisioned - 1)
            return projected <= self.options.target_utilisation
        return value < self.options.scale_down_margin * (
            self.options.target_p99_s
        )

    def _scale_up(self, kernel: EventKernel, observed: float) -> None:
        shard = self._standby_shard()
        if shard is None:
            return
        now = kernel.now
        ready = now + self.options.warmup_s
        self._warming[shard.name] = ready
        # Billed from the decision (the clone is provisioning), but
        # routable only when the ShardUp below fires.
        self._open_span(shard.name, now)
        kernel.push(ShardUp(time=ready, shard=shard.name))
        self._record(now, "up", shard.name, observed, self.provisioned)

    def _scale_down(self, kernel: EventKernel, observed: float) -> None:
        shard = self._drain_candidate(kernel.now)
        if shard is None:
            return
        kernel.push(ShardDown(time=kernel.now, shard=shard.name))
        # The ShardDown dispatches after this handler returns, so the
        # post-decision count is one under the current one.
        self._record(
            kernel.now, "down", shard.name, observed, self.provisioned - 1
        )

    def _standby_shard(self) -> Optional[Shard]:
        """The first pool shard that is neither routable nor warming."""
        for shard in self._pool.shards:
            if not shard.up and shard.name not in self._warming:
                return shard
        return None

    def _drain_candidate(self, now: float) -> Optional[Shard]:
        """The active shard with the least queued work (cheapest to
        re-queue), ties to the lowest pool index."""
        candidates = [
            shard for shard in self._pool.shards
            if shard.name in self._active
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.backlog_seconds(now))

    def _record(
        self,
        at: float,
        action: str,
        shard: str,
        observed: float,
        shards_after: int,
    ) -> None:
        self._last_action = at
        self.scale_events.append(
            ScaleEvent(
                time=at,
                action=action,
                shard=shard,
                shards_after=shards_after,
                observed=observed,
                metric=self.options.metric,
            )
        )

    # -- reporting --------------------------------------------------------

    def usage_spans(
        self, end: float
    ) -> Dict[str, Tuple[Tuple[float, float], ...]]:
        """Per-shard provisioned intervals, open spans closed at
        ``end`` — the utilisation timeline the report carries.  Every
        pool shard gets an entry; a standby shard never provisioned
        maps to an empty tuple.  A span still open at ``end`` closes
        there, floored at its own start (a decision landing after the
        last completion must not yield an inverted span)."""
        out: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        for shard in self._pool.shards:
            out[shard.name] = tuple(
                (start, stop if stop >= 0 else max(start, end))
                for start, stop in self._spans.get(shard.name, ())
            )
        return out

    def shard_seconds(self, start: float, end: float) -> float:
        """Provisioned shard-time within ``[start, end]`` — the bill a
        fixed pool would pay as ``shards * (end - start)``."""
        if end < start:
            raise ServingError(
                f"shard-second window [{start}, {end}] is inverted"
            )
        total = 0.0
        for spans in self.usage_spans(end).values():
            for span_start, span_stop in spans:
                total += max(
                    0.0, min(span_stop, end) - max(span_start, start)
                )
        return total

    def describe(self) -> str:
        options = self.options
        if options.metric == "utilisation":
            target = f"target utilisation {options.target_utilisation:.0%}"
        else:
            target = f"target p99 {options.target_p99_s * 1e3:.2f} ms"
        ups = sum(1 for e in self.scale_events if e.action == "up")
        downs = len(self.scale_events) - ups
        return (
            f"autoscaler: {options.min_shards}..{options.max_shards} "
            f"shards, {target}, warmup "
            f"{options.warmup_s * 1e3:.2f} ms; {ups} up / {downs} down "
            f"across {self.ticks} tick(s), final {self.provisioned} "
            "provisioned"
        )
