"""Benchmark: multi-shard serving throughput and batching behaviour.

The workload is the scaled VGG16 stack (64x64 input, no FC tail) on
the paper's VU9P configuration — the ``batch_throughput`` example's
model, small enough that the timing probe simulates in about a second.
Traffic is open-loop Poisson at 2.5x the *two-shard* pool's analytical
capacity, so both the 1-shard and the 2-shard runs are service-bound
and the shard count is the only variable.

Checked claims:

* **uniform closed-loop traffic reproduces the analytical number** —
  the full batcher/scheduler/shard stack reports makespan throughput
  within 1% of :class:`~repro.runtime.batch.BatchRunner`'s round-robin
  accounting (it is the same arithmetic, reached through the serving
  layer);
* **two shards give >= 1.8x aggregate GOPS over one** on saturating
  Poisson traffic (each shard is its own device, so scaling is limited
  only by the arrival tail);
* **dynamic batching unlocks intra-shard batch parallelism** — full
  batches (max_batch = NI) beat per-request dispatch by more than 3x
  on a 6-instance shard;
* **closed-loop saturation reaches open-loop capacity** — a client
  pool with zero think time (2 clients per instance) sustains
  aggregate GOPS within 5% of the uniform closed-batch number: the
  event kernel's completion-driven arrivals keep every instance fed;
* **a shard failure degrades gracefully** — killing 1 of N shards at
  t=0 under least-loaded costs at most ``1/N + epsilon`` of the
  baseline throughput (the survivors absorb the stream), and a
  mid-stream kill + restore still serves every request (the lost
  in-flight work is re-queued, never dropped);
* **autoscaling beats the peak-sized pool on cost at equal SLO** — on
  bursty traffic at 2x one shard, both the p99-driven and the
  utilisation-driven elastic pools meet the p99 objective the single
  fixed shard misses, for measurably fewer shard-seconds than the
  fixed pool sized for peak (the ``repro experiments autoscale``
  headline).

Every number is printed (not only asserted) so the CI log doubles as
a perf trajectory record (``benchmarks/append_trajectory.py`` folds
the serve smokes' JSON reports into ``BENCH_serving.json``).
"""

from dataclasses import replace

from repro.experiments.common import paper_config
from repro.experiments import autoscale_study
from repro.compiler import CompilerOptions
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    ClosedLoopClientPool,
    Kill,
    ShardPool,
    ShardServer,
    WorkloadSpec,
    analytical_reference,
    make_requests,
)

REQUESTS = 96


def _session():
    cfg, device = paper_config("vu9p")
    return PipelineSession(
        zoo.vgg16(input_size=64, include_fc=False),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=False),
    )


def _serve(pool, traffic, qps=None, policy="least-loaded", max_batch=6):
    return ShardServer(pool).run(WorkloadSpec(
        traffic=make_requests(traffic, REQUESTS, qps=qps),
        policy=policy,
        batcher=BatcherOptions(max_batch=max_batch),
    ))


def test_serving_scales_and_matches_analytical(benchmark, once, capsys):
    session = _session()
    single = ShardPool.replicate(session, 1)
    double = ShardPool.replicate(session.clone(), 2)

    # Uniform closed loop vs the BatchRunner arithmetic.
    uniform = _serve(double, "uniform")
    reference_makespan = analytical_reference(double, REQUESTS)
    reference_gops = uniform.total_ops / reference_makespan / 1e9
    ratio = uniform.throughput_gops / reference_gops

    # Poisson at 2.5x the double pool's capacity saturates both pools.
    qps = 2.5 * double.capacity_images_per_second()
    one = _serve(single, "poisson", qps=qps)
    two = once(benchmark, _serve, double, "poisson", qps=qps)
    scaling = two.throughput_gops / one.throughput_gops

    with capsys.disabled():
        print()
        print(f"VGG16-64 serving on vu9p ({REQUESTS} requests, "
              f"poisson @ {qps:.0f} req/s, max_batch=6)")
        print(f"  uniform vs BatchRunner: {uniform.throughput_gops:8.1f} "
              f"vs {reference_gops:8.1f} GOPS (ratio {ratio:.4f})")
        print(f"  1 shard : {one.throughput_gops:8.1f} GOPS, "
              f"p99 {one.latency_percentile(99) * 1e3:7.2f} ms")
        print(f"  2 shards: {two.throughput_gops:8.1f} GOPS, "
              f"p99 {two.latency_percentile(99) * 1e3:7.2f} ms "
              f"({scaling:.2f}x)")

    # Acceptance: within 1% of the analytical number; >= 1.8x scaling.
    assert abs(ratio - 1.0) < 0.01, f"ratio {ratio:.4f} off by >= 1%"
    assert scaling >= 1.8, f"2-shard scaling {scaling:.2f}x < 1.8x"


def test_dynamic_batching_fills_instances(capsys):
    session = _session()
    pool = ShardPool.replicate(session, 1)
    instances = pool.shards[0].instances

    batched = _serve(pool, "uniform", max_batch=instances)
    singles = _serve(pool, "uniform", max_batch=1)
    gain = singles.makespan_seconds / batched.makespan_seconds

    with capsys.disabled():
        print()
        print(f"  batch={instances}: {batched.throughput_gops:8.1f} GOPS; "
              f"batch=1: {singles.throughput_gops:8.1f} GOPS "
              f"({gain:.2f}x from filling the instances)")

    assert gain > 3.0, f"batching gain {gain:.2f}x <= 3x"


def test_closed_loop_saturates_open_loop_capacity(capsys):
    session = _session()
    pool = ShardPool.replicate(session, 2)

    open_loop = _serve(pool, "uniform")
    clients = 2 * pool.total_instances  # one batch serving, one queued
    closed = ShardServer(pool).run(WorkloadSpec(
        traffic=ClosedLoopClientPool(
            clients=clients, requests=REQUESTS, think_time_s=0.0,
            seed=11,
        ),
        policy="least-loaded",
        batcher=BatcherOptions(max_batch=6),
    ))
    ratio = closed.throughput_gops / open_loop.throughput_gops

    with capsys.disabled():
        print()
        print(f"  closed loop ({clients} clients, zero think): "
              f"{closed.throughput_gops:8.1f} GOPS vs open-loop "
              f"{open_loop.throughput_gops:8.1f} GOPS "
              f"(ratio {ratio:.4f})")

    # Acceptance: saturated closed loop within 5% of open-loop capacity.
    assert abs(ratio - 1.0) < 0.05, f"closed/open ratio {ratio:.4f}"
    assert closed.count == REQUESTS


def test_shard_failure_degrades_gracefully(capsys):
    session = _session()
    pool = ShardPool.replicate(session, 2)
    server = ShardServer(pool)
    spec = WorkloadSpec(
        traffic=make_requests("uniform", REQUESTS),
        policy="least-loaded",
        batcher=BatcherOptions(max_batch=6),
    )

    baseline = server.run(spec)
    dead = server.run(replace(
        spec, scenario=ChaosScenario([Kill("shard0", at=0.0)])
    ))
    degradation = 1.0 - dead.throughput_gops / baseline.throughput_gops
    restore = server.run(replace(spec, scenario=ChaosScenario([Kill(
        "shard0",
        at=0.3 * baseline.makespan_seconds,
        until=0.7 * baseline.makespan_seconds,
    )])))
    stretch = restore.makespan_seconds / baseline.makespan_seconds

    with capsys.disabled():
        print()
        print(f"  kill 1/2 shards @ t=0:   "
              f"{dead.throughput_gops:8.1f} GOPS vs baseline "
              f"{baseline.throughput_gops:8.1f} "
              f"({degradation * 100:.1f}% degradation)")
        print(f"  kill @ 30% + restore @ 70%: {restore.count} / "
              f"{REQUESTS} served, makespan stretch {stretch:.2f}x")

    # Acceptance: losing 1 of N shards costs <= 1/N + epsilon, and a
    # restored shard means no request is ever lost.
    assert degradation <= 0.5 + 0.1, f"degradation {degradation:.2f}"
    assert degradation >= 0.3, "kill@0 barely degraded - scenario inert?"
    assert restore.count == REQUESTS, "kill+restore dropped requests"
    assert dead.per_shard()["shard0"].requests == 0


def test_autoscaler_meets_p99_with_fewer_shard_seconds(capsys):
    rows = autoscale_study.run_burst_study()
    (_, target, fixed_one) = rows[0]
    (_, _, fixed_peak) = rows[1]
    elastic = rows[2:]

    with capsys.disabled():
        print()
        print(f"  autoscale (burst @ "
              f"{autoscale_study.BURST_OVERLOAD:.1f}x one shard, "
              f"p99 objective {target * 1e3:.1f} ms):")
        for label, _, report in rows:
            print(f"    {label:22s} p99 "
                  f"{report.latency_percentile(99) * 1e3:7.2f} ms, "
                  f"{report.total_shard_seconds() * 1e3:6.1f} shard-ms, "
                  f"{report.scale_ups}/{report.scale_downs} up/down")

    # Acceptance: the objective is binding (one fixed shard misses
    # it), and each elastic mode meets it for less provisioned
    # shard-time than the fixed pool sized for peak.
    assert fixed_one.latency_percentile(99) > target, (
        "a single shard meets the target - the objective is not binding"
    )
    assert fixed_peak.latency_percentile(99) <= target
    peak_bill = fixed_peak.total_shard_seconds()
    for label, _, report in elastic:
        assert report.count == autoscale_study.REQUESTS, label
        assert report.scale_ups >= 1, f"{label}: autoscaler inert"
        assert report.latency_percentile(99) <= target, (
            f"{label}: p99 {report.latency_percentile(99) * 1e3:.2f} ms "
            f"misses the {target * 1e3:.1f} ms objective"
        )
        assert report.total_shard_seconds() <= 0.9 * peak_bill, (
            f"{label}: {report.total_shard_seconds() * 1e3:.1f} "
            f"shard-ms is not under 90% of the peak pool's "
            f"{peak_bill * 1e3:.1f}"
        )
