"""Steady-state fast-forward replay: the serve loop without the heap.

A plain open-loop run — a pre-materialised arrival list, no SLO
controller, no autoscaler, no chaos scenario, no closed-loop clients —
is a deterministic recurrence, not a discrete-event problem: nothing
that happens *during* the run can change what happens next, so the
entire timeline is computable from the arrival array alone.  This
module computes it batch-granularly:

* **batch formation** is a head-jump scan over the sorted arrivals.
  For head ``i`` with wait budget ``W`` and batch budget ``B``, the
  wait deadline is ``A[i] + W`` and ``limit[i] = searchsorted(A,
  A + W, side="right")`` counts the arrivals that beat it (``side=
  "right"`` is exactly the kernel's ``Arrival``-before-``Flush``
  priority: a request arriving *at* the deadline joins the flush).
  If ``i + B <= limit[i]`` the size trigger wins — the batch is
  ``A[i:i+B]`` flushed at ``A[i+B-1]``, the instant the ``B``-th
  request arrives — otherwise the wait trigger fires at the deadline
  with everything queued by then.  Either way the queue empties, so
  the next head is just the batch end: the scan replays
  :class:`~repro.serving.batcher._TenantBatcherFeed`'s token semantics
  flush for flush in O(#batches) after one vectorized searchsorted;
* **shard assignment** is a per-*batch* recurrence (``~max_batch``
  times fewer iterations than kernel events): round-robin is modular
  indexing, least-loaded and shortest-latency are K-way argmin loops
  over the ``busy_until`` horizons, computing byte-for-byte the keys
  the policies compute (including ``math.ceil`` vs floor-div and the
  first-minimum tie-break on the lowest shard index);
* **completion accounting** replays the shard timeline scalar ops in
  dispatch order — ``start = max(at, busy_until)``, per-round
  ``completed = start + r * per_image`` and the telescoping-but-not-
  in-floats ``busy_delta`` accumulation — then builds the report's
  record columns (:class:`~repro.serving.metrics.RecordColumns`) as
  numpy arrays: ``completed = start + (position // NI + 1) *
  per_image`` elementwise is IEEE-identical to the kernel's
  per-record arithmetic, and no per-request row is ever built.

The kernel is the oracle: every field of the resulting
:class:`~repro.serving.metrics.ServingReport` except the wall-clock
perf fields (``events_processed``/``wall_seconds`` are ``compare=
False``) is **byte-identical** to the kernel path's — asserted across
policies and traffic models by ``benchmarks/bench_fastforward.py``
and the hypothesis suite in ``tests/test_serving_fastforward.py``.
``events_processed`` is reported as the *equivalent* kernel event
count (arrivals + one ``Flush`` per batch when ``max_batch > 1`` +
one ``BatchDone`` per completion round), so ``events_per_second``
stays the trajectory metric it always was and the kernel's
``max_events`` runaway budget keeps its meaning — exceeding it raises
the same :class:`~repro.errors.ServingError` the kernel raises.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from repro.errors import ServingError
from repro.serving.metrics import RecordColumns, ServingReport, ShardUsage
from repro.serving.scheduler import (
    LeastLoaded,
    RoundRobin,
    ShortestExpectedLatency,
    WeightedFair,
)
from repro.serving.shard import Shard
from repro.serving.tenancy import DEFAULT_TENANT
from repro.serving.traffic import OpenLoopSource, TraceSource

#: The kernel's default runaway budget (mirrored so the fast-forward
#: path enforces the same bound with the same error).
DEFAULT_EVENT_BUDGET = 1_000_000


def ineligible_reason(server, source, scenario) -> Optional[str]:
    """Why ``server``/``source``/``scenario`` cannot fast-forward
    (``None`` when they can).

    Eligibility is *exact-type* strict: a subclassed source, policy or
    shard may override behaviour the recurrence does not model, and a
    silently-wrong fast path is worse than no fast path.
    """
    if scenario is not None:
        return "a chaos scenario perturbs the pool mid-stream"
    if server.slo is not None:
        return "an SLO controller sheds/reroutes based on observed state"
    if server.autoscale is not None:
        return "an autoscaler resizes the pool based on observed state"
    if not server.tenants.trivial:
        return (
            "a non-trivial tenant set routes, batches and sheds "
            "per tenant"
        )
    if getattr(source, "tenanted", False):
        return "the traffic carries non-default tenant tags"
    if type(source) not in (OpenLoopSource, TraceSource):
        return (
            f"source {type(source).__name__} is not a plain "
            "open-loop arrival stream"
        )
    if type(server.scheduler.policy) not in (
        RoundRobin, LeastLoaded, ShortestExpectedLatency, WeightedFair,
    ):
        return (
            f"custom scheduling policy "
            f"{type(server.scheduler.policy).__name__}"
        )
    for shard in server.pool:
        if type(shard) is not Shard:
            return f"custom shard type {type(shard).__name__}"
    return None


def _arrival_stream(source):
    """``(arrivals, indices)`` in kernel delivery order.

    Both eligible sources prime arrivals sorted by ``(arrival,
    index)``; ``indices`` is ``None`` when they are simply
    ``0..N-1`` (the trace case), saving the argsort.
    """
    if type(source) is TraceSource:
        return source.arrivals, None
    requests = source.requests  # already (arrival, index)-sorted
    return (
        [request.arrival for request in requests],
        [request.index for request in requests],
    )


def _form_batches(arrivals: List[float], max_batch: int,
                  max_wait_s: float):
    """The head-jump scan: ``(heads, sizes, flush_times)``.

    Replays the batcher exactly: a size flush takes ``B`` requests at
    the ``B``-th arrival's instant; a wait flush takes everything
    arrived by ``head + W`` (inclusive — ``Arrival`` outranks
    ``Flush``) at that deadline.  Every flush empties the queue, so
    batch boundaries chain: the sole pending ``Flush`` wakeup per
    batch head is exactly why the equivalent event count below adds
    one ``Flush`` per batch (stale size-trigger wakeups still pop).
    """
    count = len(arrivals)
    if max_batch == 1:
        # Degenerate per-request dispatch: every arrival size-flushes
        # instantly and the batcher schedules no wakeups at all.
        return list(range(count)), [1] * count, list(arrivals)
    array = np.asarray(arrivals, dtype=np.float64)
    if max_wait_s == 0.0:
        # Zero wait budget means a batch can never outlive its head's
        # instant, so batches never span runs of equal arrivals: each
        # run chops into ``max_batch`` chunks (size flushes) plus a
        # remainder that wait-flushes at the same instant.  That is a
        # pure array construction — no per-batch scan — and it is the
        # common case (the CLI default and every trace smoke).
        run_starts = np.flatnonzero(
            np.r_[True, np.diff(array) != 0.0]
        )
        run_lens = np.diff(np.r_[run_starts, count])
        per_run = (run_lens + max_batch - 1) // max_batch
        run_of = np.repeat(
            np.arange(len(run_starts), dtype=np.int64), per_run
        )
        first = np.r_[0, np.cumsum(per_run)[:-1]]
        offset = np.arange(len(run_of), dtype=np.int64) - first[run_of]
        heads_array = run_starts[run_of] + offset * max_batch
        ends = run_starts + run_lens
        sizes_array = np.minimum(max_batch, ends[run_of] - heads_array)
        # Size flushes fire at the B-th arrival, wait flushes at
        # head + 0.0 — distinct float ops even though the run's
        # arrivals are all equal (head + 0.0 normalises -0.0).
        flush_array = np.where(
            sizes_array == max_batch,
            array[heads_array + sizes_array - 1],
            array[heads_array] + max_wait_s,
        )
        return (
            heads_array.tolist(),
            sizes_array.tolist(),
            flush_array.tolist(),
        )
    limits = np.searchsorted(
        array, array + max_wait_s, side="right"
    ).tolist()
    heads: List[int] = []
    sizes: List[int] = []
    flush_times: List[float] = []
    head = 0
    while head < count:
        limit = limits[head]
        if head + max_batch <= limit:
            end = head + max_batch
            at = arrivals[end - 1]
        else:
            end = limit
            at = arrivals[head] + max_wait_s
        heads.append(head)
        sizes.append(end - head)
        flush_times.append(at)
        head = end
    return heads, sizes, flush_times


def fastforward_serve(
    server, source, max_events: Optional[int] = None
) -> ServingReport:
    """Replay ``source`` over ``server``'s pool without the kernel.

    The caller (:meth:`~repro.serving.server.ShardServer.run`) has
    already checked :func:`ineligible_reason`; this function mirrors
    the kernel path's observable effects — the report byte for byte
    (wall-clock fields aside) and the post-run pool/policy state
    (``busy_until`` horizons, round-robin rotation), so back-to-back
    serves across engines stay interchangeable.
    """
    shards = server.pool.shards
    # Warm every probe (replicas seed from their twin) before the clock
    # starts: the wall time measures the replay, not the simulator.
    per_image = [shard.probe_seconds() for shard in shards]
    wall_start = time.perf_counter()
    server.pool.reset()
    server.scheduler.reset()
    budget = DEFAULT_EVENT_BUDGET if max_events is None else max_events

    arrivals, indices = _arrival_stream(source)
    count = len(arrivals)
    if count > budget:
        raise ServingError(
            f"event budget exhausted after {budget} events "
            "- runaway event loop?"
        )
    options = server.batcher.options
    heads, sizes, flush_times = _form_batches(
        arrivals, options.max_batch, options.max_wait_s
    )
    batches = len(heads)

    pool_size = len(shards)
    instances = [shard.instances for shard in shards]
    policy = server.scheduler.policy
    # Weighted-fair over the trivial tenant set (the only set that
    # passes eligibility) is round-robin turn for turn: the single
    # tenant's slice is the whole pool.
    weighted = type(policy) is WeightedFair
    round_robin = type(policy) is RoundRobin or weighted
    least_loaded = type(policy) is LeastLoaded
    analytical = (
        [shard.analytical_seconds() for shard in shards]
        if not (round_robin or least_loaded) else None
    )

    busy = [0.0] * pool_size
    usage_busy = [0.0] * pool_size
    usage_requests = [0] * pool_size
    usage_batches = [0] * pool_size
    batch_shard = [0] * batches
    batch_start = [0.0] * batches
    total_rounds = 0
    rotation = 0
    ceil = math.ceil

    if round_robin:
        # Round-robin's shard sequence is position-only, so each
        # shard's timeline replays independently over its stride of
        # the batch list — a tight two-local loop per shard instead of
        # a policy branch per batch.  Per-shard chronological order is
        # exactly dispatch order restricted to that shard, so the
        # float accumulation sequences are unchanged.
        for j in range(pool_size):
            p = per_image[j]
            spaces = instances[j]
            shard_busy = 0.0
            shard_acc = 0.0
            shard_requests = 0
            shard_rounds = 0
            starts: List[float] = []
            append = starts.append
            for at, size in zip(
                flush_times[j::pool_size], sizes[j::pool_size]
            ):
                start = max(at, shard_busy)
                rounds = (size + spaces - 1) // spaces
                shard_rounds += rounds
                previous = start
                for r in range(1, rounds + 1):
                    completed = start + r * p
                    shard_acc += completed - previous
                    previous = completed
                shard_busy = previous
                shard_requests += size
                append(start)
            busy[j] = shard_busy
            usage_busy[j] = shard_acc
            usage_requests[j] = shard_requests
            usage_batches[j] = len(starts)
            total_rounds += shard_rounds
            batch_shard[j::pool_size] = [j] * len(starts)
            batch_start[j::pool_size] = starts
        rotation = batches
    else:
        for b in range(batches):
            at = flush_times[b]
            size = sizes[b]
            if least_loaded:
                chosen = 0
                best = max(busy[0] - at, 0.0)
                for j in range(1, pool_size):
                    key = max(busy[j] - at, 0.0)
                    if key < best:
                        chosen, best = j, key
            else:
                chosen = 0
                best = max(at, busy[0]) + (
                    ceil(size / instances[0]) * analytical[0]
                )
                for j in range(1, pool_size):
                    key = max(at, busy[j]) + (
                        ceil(size / instances[j]) * analytical[j]
                    )
                    if key < best:
                        chosen, best = j, key
            p = per_image[chosen]
            start = max(at, busy[chosen])
            rounds = (size + instances[chosen] - 1) // instances[chosen]
            total_rounds += rounds
            # busy_delta accumulation telescopes on paper but not in
            # floats: replay the kernel's per-round += sequence
            # exactly.
            previous = start
            for r in range(1, rounds + 1):
                completed = start + r * p
                usage_busy[chosen] += completed - previous
                previous = completed
            busy[chosen] = previous
            usage_requests[chosen] += size
            usage_batches[chosen] += 1
            batch_shard[b] = chosen
            batch_start[b] = start

    # Equivalent kernel event count: one Arrival per request, one
    # Flush wakeup per batch (only when max_batch > 1 — size flushes
    # at budget 1 never schedule one), one BatchDone per round.
    equivalent = count + total_rounds + (
        batches if options.max_batch > 1 else 0
    )
    if equivalent > budget:
        raise ServingError(
            f"event budget exhausted after {budget} events "
            "- runaway event loop?"
        )

    # Build the record columns.  Every elementwise op below is
    # the kernel's per-record scalar op (int // int + 1, int * float,
    # float + float) applied across the whole array.
    size_array = np.asarray(sizes, dtype=np.int64)
    shard_array = np.asarray(batch_shard, dtype=np.int64)
    started = np.repeat(
        np.asarray(batch_start, dtype=np.float64), size_array
    )
    dispatched = np.repeat(
        np.asarray(flush_times, dtype=np.float64), size_array
    )
    request_shard = np.repeat(shard_array, size_array)
    batch_size = np.repeat(size_array, size_array)
    position = np.arange(count, dtype=np.int64) - np.repeat(
        np.asarray(heads, dtype=np.int64), size_array
    )
    instance_array = np.asarray(instances, dtype=np.int64)
    per_image_array = np.asarray(per_image, dtype=np.float64)
    completed = started + (
        position // instance_array[request_shard] + 1
    ) * per_image_array[request_shard]

    arrival_array = np.asarray(arrivals, dtype=np.float64)
    index_array = (
        np.arange(count, dtype=np.int64) if indices is None
        else np.asarray(indices, dtype=np.int64)
    )
    if indices is not None:
        # The report sorts records by request index; trace indices are
        # already 0..N-1, open-loop indices need the argsort.
        order = np.argsort(index_array, kind="stable")
        index_array = index_array[order]
        arrival_array = arrival_array[order]
        dispatched = dispatched[order]
        started = started[order]
        completed = completed[order]
        request_shard = request_shard[order]
        batch_size = batch_size[order]
    records = RecordColumns(
        index_array, arrival_array, dispatched, started, completed,
        request_shard, batch_size, np.zeros(count, dtype=np.int32),
        shard_names=[shard.name for shard in shards],
        tenant_names=[DEFAULT_TENANT],
    )

    total_ops = sum(
        shard.ops_per_image * usage_requests[j]
        for j, shard in enumerate(shards)
    )
    usage = [
        ShardUsage(
            name=shard.name,
            requests=usage_requests[j],
            batches=usage_batches[j],
            busy_seconds=usage_busy[j],
            active_spans=None,
        )
        for j, shard in enumerate(shards)
    ]

    # Mirror the kernel path's post-run state so back-to-back serves
    # (and anything inspecting the pool) cannot tell the engines
    # apart.
    for j, shard in enumerate(shards):
        shard.busy_until = busy[j]
    if weighted:
        policy._next = {DEFAULT_TENANT: rotation}
    elif round_robin:
        policy._next = rotation

    wall = time.perf_counter() - wall_start
    return ServingReport(
        records=records,
        shards=usage,
        total_ops=total_ops,
        events_processed=equivalent,
        wall_seconds=wall,
    )
