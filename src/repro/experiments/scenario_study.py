"""Scenario study — failures and SLO control beyond the paper's Table 4.

The paper measures one healthy box; a serving system has to survive the
scenarios the north star asks for.  Two studies on the event kernel:

* **mid-stream shard failure** — a 2x VU9P pool loses ``shard0`` a
  quarter of the way through a saturating Poisson stream and gets it
  back at 55%.  Every policy re-serves the lost in-flight work on the
  survivor (no request is dropped), but they rebalance differently:
  blind round-robin keeps alternating onto the loaded survivor after
  the restore, while the state-aware policies flood the fresh shard —
  visibly smaller stretch and a bigger restored-shard share.
* **SLO control under overload** — a heterogeneous vu9p + pynq-z1 pool
  under blind round-robin at 1.5x its simulated rate, with a p99
  target the embedded shard cannot hold.  ``shed`` trades completed
  requests for a bounded tail; ``reroute`` overrides the breached
  picks toward the cloud shard.

The model is the scaled VGG16 stack the ``batch_throughput`` example
uses, so the study runs in seconds while keeping the paper's layer mix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.report import Table
from repro.compiler import CompilerOptions
from repro.experiments.common import paper_config
from repro.ir import zoo
from repro.pipeline import EvaluationCache, PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    Kill,
    ServingReport,
    ShardPool,
    ShardServer,
    SloOptions,
    WorkloadSpec,
    make_requests,
)

REQUESTS = 96
MAX_BATCH = 6
#: Wait budget ~2 per-image latencies, as in the serving study: spaced
#: open-loop arrivals need it to form batches at all.
MAX_WAIT_S = 0.010
POLICIES = ("round-robin", "least-loaded", "shortest-latency")
#: Kill shard0 a quarter into the baseline run, restore at 55% — early
#: enough that the stream is still arriving, so the policies' post-
#: restore rebalancing is visible.
KILL_FRACTION, RESTORE_FRACTION = 0.25, 0.55
#: SLO-study overload factor (x the *simulated* service rate) and p99
#: target in fast-shard batch-times: a target the overloaded pool
#: cannot hold, reached while traffic is still arriving.
SLO_OVERLOAD = 1.5
SLO_TARGET_BATCHES = 4
SLO_REQUESTS = 64


def _pool(cache: EvaluationCache) -> ShardPool:
    cfg, device = paper_config("vu9p")
    session = PipelineSession(
        zoo.vgg16(input_size=64, include_fc=False),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=False),
        cache=cache,
    )
    return ShardPool.replicate(session, 2)


def _serve(
    pool: ShardPool,
    policy: str,
    qps: float,
    seed: int,
    count: int = REQUESTS,
    scenario: Optional[ChaosScenario] = None,
    slo: Optional[SloOptions] = None,
) -> ServingReport:
    requests = make_requests("poisson", count, qps=qps, seed=seed)
    return ShardServer(pool).run(WorkloadSpec(
        traffic=requests,
        policy=policy,
        batcher=BatcherOptions(max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S),
        slo=slo,
        scenario=scenario,
    ))


def run_failure_study(
    seed: int = 2020,
) -> List[Tuple[str, ServingReport, ServingReport]]:
    """Per policy: (baseline report, kill+restore report)."""
    cache = EvaluationCache()
    pool = _pool(cache)
    # The *simulated* service rate: an overload factor against the
    # analytical estimate can be off by the estimation error, turning
    # "slightly saturating" traffic into a de-facto closed batch.
    qps = 1.2 * pool.simulated_images_per_second()
    rows = []
    for policy in POLICIES:
        baseline = _serve(pool, policy, qps, seed)
        scenario = ChaosScenario([Kill(
            "shard0",
            at=KILL_FRACTION * baseline.makespan_seconds,
            until=RESTORE_FRACTION * baseline.makespan_seconds,
        )])
        failed = _serve(pool, policy, qps, seed, scenario=scenario)
        rows.append((policy, baseline, failed))
    return rows


def run_slo_study(
    seed: int = 2020,
) -> List[Tuple[str, ServingReport]]:
    """A heterogeneous vu9p + pynq-z1 pool under blind round-robin at
    ``SLO_OVERLOAD``x its simulated rate: no control vs shed vs
    reroute.

    Round-robin insists on handing every other batch to the embedded
    shard, whose latencies blow the p99 window almost immediately —
    ``shed`` then trades requests for tail, ``reroute`` overrides the
    breached picks toward the cloud shard (the controller acting as a
    measured-latency corrective on a backlog-blind policy).
    """
    cache = EvaluationCache()
    cfg_cloud, cloud = paper_config("vu9p")
    cfg_edge, edge = paper_config("pynq-z1")
    network = zoo.vgg16(input_size=64, include_fc=False)
    options = CompilerOptions(quantize=True, pack_data=False)
    pool = ShardPool.of(
        PipelineSession(network, cloud, cfg=cfg_cloud,
                        compiler_options=options, cache=cache),
        PipelineSession(network, edge, cfg=cfg_edge,
                        compiler_options=options, cache=cache),
        names=("vu9p", "pynq-z1"),
    )
    qps = SLO_OVERLOAD * pool.simulated_images_per_second()
    fast = pool.shards[0]
    target = SLO_TARGET_BATCHES * fast.probe_service_seconds(MAX_BATCH)
    rows = [
        ("none", _serve(pool, "round-robin", qps, seed,
                        count=SLO_REQUESTS))
    ]
    for action in ("shed", "reroute"):
        slo = SloOptions(
            p99_target_s=target, action=action, window=16, min_samples=4
        )
        rows.append(
            (action, _serve(pool, "round-robin", qps, seed,
                            count=SLO_REQUESTS, slo=slo))
        )
    return rows


def format_study(
    failures: List[Tuple[str, ServingReport, ServingReport]],
    slo_rows: List[Tuple[str, ServingReport]],
) -> str:
    table = Table(
        "Failure scenarios: kill shard0 @ 25%, restore @ 55% "
        "(VGG16-64, 2x vu9p, Poisson @ 1.2x simulated rate)",
        ["Policy", "GOPS", "GOPS (kill)", "stretch", "p99 ms",
         "p99 ms (kill)", "survivor share"],
    )
    for policy, baseline, failed in failures:
        survivor = failed.per_shard()["shard1"]
        table.add_row(
            policy,
            f"{baseline.throughput_gops:.1f}",
            f"{failed.throughput_gops:.1f}",
            f"{failed.makespan_seconds / baseline.makespan_seconds:.2f}x",
            f"{baseline.latency_percentile(99) * 1e3:.2f}",
            f"{failed.latency_percentile(99) * 1e3:.2f}",
            f"{survivor.requests}/{failed.count}",
        )
    served_all = all(
        failed.count == REQUESTS for _, _, failed in failures
    )
    table.add_note(
        "all policies re-serve the killed shard's in-flight work: "
        + ("no request lost" if served_all else "REQUESTS LOST")
    )

    slo_table = Table(
        f"SLO control: vu9p + pynq-z1 pool at {SLO_OVERLOAD:.1f}x "
        f"simulated rate (round-robin, p99 target = "
        f"{SLO_TARGET_BATCHES} cloud batch-times)",
        ["Action", "served", "shed", "rerouted", "p99 ms", "GOPS"],
    )
    for action, report in slo_rows:
        slo_table.add_row(
            action,
            f"{report.count}",
            f"{report.shed}",
            f"{report.rerouted}",
            f"{report.latency_percentile(99) * 1e3:.2f}",
            f"{report.throughput_gops:.1f}",
        )
    none = slo_rows[0][1]
    shed = next(r for a, r in slo_rows if a == "shed")
    if shed.count:
        slo_table.add_note(
            f"shedding cut p99 to "
            f"{shed.latency_percentile(99) / none.latency_percentile(99):.2f}"
            f"x the uncontrolled tail at the cost of {shed.shed} requests"
        )
    return table.render() + "\n\n" + slo_table.render()


def main(seed: int = 2020) -> str:
    output = format_study(run_failure_study(seed=seed),
                          run_slo_study(seed=seed))
    print(output)
    return output


if __name__ == "__main__":
    main()
