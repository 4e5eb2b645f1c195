"""Golden digests of event-kernel reports.

Each case below serves a small, fully seeded workload on the event
kernel (``engine="kernel"``) and hashes everything the report derives
from the run: the eight record columns (names decoded, so interning
order does not matter), the shed/unserved/admission counters per
tenant, per-shard usage, scale decisions and the SLO controller's tick
counts.  The SHA-256 constants were computed on the kernel as it was
before its per-request cost was cut (streamed arrivals, memoized shard
timing, records written straight into columns); any later kernel work
must keep every digest, i.e. stay byte-identical event for event.

The cases cover the paths those optimisations touch: a two-tenant
weighted-fair run under kill + degrade chaos (admission caps and
per-tenant SLO sheds), one sweep-style cell per chaos scenario and per
policy (global SLO shed and reroute), a closed-loop pool under a kill,
a trace replay under whole-pool outages (parked batches, unserved
requests), and an autoscaled run (the rebalance
re-queue).

Run this file as a script to print the current digests.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    AutoscalerOptions,
    BatcherOptions,
    ClosedLoopClientPool,
    ShardPool,
    ShardServer,
    SloOptions,
    TenantSet,
    TenantSpec,
    TraceSource,
    WorkloadSpec,
    make_requests,
    merge_streams,
    parse_scenario,
)

POLICIES = ("round-robin", "least-loaded", "shortest-latency",
            "weighted-fair")

#: Chaos scenarios at fractions of a run's arrival span (the grid of
#: ``benchmarks/bench_chaos_sweep.py``, rescaled to this session).
SCENARIOS = {
    "none": None,
    "kill-restore": "kill:shard0@{0},restore@{3}",
    "kill-window": "kill:shard0@{0}..{3}",
    "degrade": "degrade:shard0@{1}..{3}x8",
    "outage": "outage:shard0+shard1@{0}..{2}",
    "stragglers": "stragglers:shard0+shard1@0..{4}x6*3",
}
SCENARIO_AT = (0.15, 0.1, 0.5, 0.7, 0.9)

GOLDEN = {
    "tenants-chaos":
        "47da91ec2d88a4d6f39b6a4c814f959bc12f3e2e89dc99b0d632e90f6ddc7c5f",
    "closed-loop-kill":
        "fca773157ee6d563dc39320ec013e7cb11089693b83f957a0ad4d867498b279a",
    "trace-outage":
        "3c5fb838fbfa4211ed7c2649321d8a669d7564bb6a88db81a9916e142b4834f9",
    "autoscale-burst":
        "21bf2a61daaa5bd721b7c904c5369d5c701483f9c5323bbc85e29d8612fcc47a",
}
GOLDEN_CELLS = {
    "none/round-robin":
        "2c78f21cb6a9c9075857e7ef30a691ba9eb6a14a2f5672acd00fb61e075b0353",
    "none/least-loaded":
        "457d0404147d65f16f948afffdefc25bb685c85f49108de04e70eef238bac455",
    "none/shortest-latency":
        "26ab93bcc8ec0773a8bd6bc02e8cf9eeb8fb8d08633b09862940dcf174e0485b",
    "none/weighted-fair":
        "dbb000f61a6b3c1f8b07ef9c5edd77a3254c7f9db32d87eb5d6d609cbd402ad6",
    "kill-restore/round-robin":
        "dfe726d0815af2313e616340b3883b856f3eb130dcf9464e3f109c5fabce9f17",
    "kill-restore/least-loaded":
        "e3e6d66a4efb25a1855cd5750b5ef530553f74ecf6bc1b3987baf11c5be81df0",
    "kill-restore/shortest-latency":
        "86c2ad14cbad17fab1ecd73db5ef865876db0d174642446d92217bf86ffcfb6d",
    "kill-restore/weighted-fair":
        "305782fccce9f6fc991a2606a58d089058aa35e8eeda05a5003fde966f478a20",
    "kill-window/round-robin":
        "a8653ef62c0ffce3f4ad1538cdfc5cc88dca56869c09eba96dac1744476f239f",
    "kill-window/least-loaded":
        "b1e4525fda573fa530c38c82a64592816f7836cd71ab708aee5fd71c96c335eb",
    "kill-window/shortest-latency":
        "c70dad0d9205137e9c5b206e0241ddc4b671da57ed78563577cf1acbcb1e6ea8",
    "kill-window/weighted-fair":
        "fbdbf0eced6ce8ccb4cbba261e9167c0c1e2f5a9762b34664b73a69c531519dc",
    "degrade/round-robin":
        "3f5dec1a572be738d1c1a7a83fa15aa977c9188f8d3427ba6ff6b518cf7d2c84",
    "degrade/least-loaded":
        "89c98eacd20ace7cff5e0153f0992bcca9c47fd806620587e24624d753cfd175",
    "degrade/shortest-latency":
        "862916b20b5b785e00f3697d68f9ae49b610806e467942fa2b62889f869de2e9",
    "degrade/weighted-fair":
        "f195d4224b9c2c7200969f4abadc89664e95fc2ab13bf536c3d237146f11a6fd",
    "outage/round-robin":
        "bb404b5c024b3d386190a0ad669de3a2fc9cf4a6b9a9520050f13a9b455a265b",
    "outage/least-loaded":
        "802b6498f935178225df3de0028879ffdaba1be9855bbb4fdda674dda757d098",
    "outage/shortest-latency":
        "3ea89e8b7248a7b591c0d348422ab81194d372b8fc8c445cbe262142e105b643",
    "outage/weighted-fair":
        "477b9b7b6854cfb78dba3491826a346baf9f6edf7299caf8aa0ee3e3ad575247",
    "stragglers/round-robin":
        "e41454dad154eff8e47f4f887164d9c78b8537cf6ff40611a69c7fb76b5e73dc",
    "stragglers/least-loaded":
        "5538c38171f2e9240e711875ee9637b959c0d8cd54becdd0d7b2991c727379c6",
    "stragglers/shortest-latency":
        "4713b7a79dc8e74bb152449082c92b4e5609ba06ee21e2a86eab34f3e397e8f2",
    "stragglers/weighted-fair":
        "b0b03106a13eb270ca1c9bd78f4ed0e499621d547dcb5b019a6eca0cc5857764",
}


def make_session():
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=2, frequency_mhz=100.0,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    return PipelineSession(
        zoo.tiny_cnn(input_size=16, channels=8),
        get_device("vu9p"),
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=False, pack_data=False),
    )


def _hex(value):
    return None if value is None else float(value).hex()


def report_digest(report, slo=None) -> str:
    """SHA-256 over a report's record columns and counters."""
    records = report.records
    digest = hashlib.sha256()
    for name, dtype in (
        ("index", "<i8"), ("arrival", "<f8"), ("dispatched", "<f8"),
        ("started", "<f8"), ("completed", "<f8"), ("batch_size", "<i8"),
    ):
        digest.update(np.asarray(getattr(records, name), dtype).tobytes())
    summary = {
        "shard": [records.shard_names[c] for c in records.shard.tolist()],
        "tenant": [
            records.tenant_names[c] for c in records.tenant.tolist()
        ],
        "shed": report.shed,
        "rerouted": report.rerouted,
        "unserved": report.unserved,
        "admission_shed": report.admission_shed,
        "shed_by_tenant": report.shed_by_tenant,
        "admission_shed_by_tenant": report.admission_shed_by_tenant,
        "unserved_by_tenant": report.unserved_by_tenant,
        "total_ops": report.total_ops,
        "events": report.events_processed,
        "usage": [
            [usage.name, usage.requests, usage.batches,
             _hex(usage.busy_seconds),
             None if usage.active_spans is None else [
                 [_hex(a), _hex(b)] for a, b in usage.active_spans
             ]]
            for usage in report.shards
        ],
        "scale": [
            [_hex(event.time), event.action, event.shard,
             event.shards_after, _hex(event.observed), event.metric]
            for event in report.scale_events
        ],
        "shard_seconds": _hex(report.shard_seconds),
    }
    if slo is not None:
        summary["slo"] = [
            slo.ticks, slo.breach_ticks, slo.tenant_breach_ticks,
        ]
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()


def _serve(pool, **fields):
    server = ShardServer(pool)
    report = server.run(WorkloadSpec(engine="kernel", **fields))
    assert server.last_engine == "kernel"
    return report_digest(report, server.last_slo_controller)


def _scenario(template, span, seed):
    if template is None:
        return None
    return parse_scenario(
        template.format(*(f"{at * span:.9f}" for at in SCENARIO_AT)),
        seed=seed,
    )


def case_tenants_chaos(session):
    pool = ShardPool.replicate(session, 4)
    probe = pool.shards[0].probe_seconds()
    rate = pool.simulated_images_per_second()
    traffic = merge_streams(
        make_requests("poisson", 480, qps=0.45 * rate, seed=11,
                      tenant="interactive"),
        make_requests("poisson", 240, qps=0.45 * rate, seed=12,
                      tenant="bulk"),
    )
    span = traffic[-1].arrival
    return _serve(
        pool,
        traffic=traffic,
        policy="weighted-fair",
        batcher=BatcherOptions(max_batch=4, max_wait_s=probe),
        tenants=TenantSet([
            TenantSpec("interactive", weight=3.0, p99_slo_s=6 * probe),
            TenantSpec("bulk", weight=1.0, tier="batch",
                       max_outstanding=8),
        ]),
        scenario=parse_scenario(
            f"kill:shard0@{0.2 * span:.9f},restore@{0.4 * span:.9f},"
            f"degrade:shard1@{0.5 * span:.9f}..{0.8 * span:.9f}x4,"
            f"degrade:shard3@{0.5 * span:.9f}..{0.8 * span:.9f}x4",
            seed=5,
        ),
    )


def case_cell(session, scenario, policy, position):
    pool = ShardPool.replicate(session, 3)
    pool.reset()
    probe = pool.shards[0].probe_seconds()
    requests = make_requests(
        "poisson", 240, qps=1.1 * pool.simulated_images_per_second(),
        seed=100 + position,
    )
    return _serve(
        pool,
        traffic=requests,
        policy=policy,
        batcher=BatcherOptions(max_batch=2),
        slo=SloOptions(
            p99_target_s=8 * probe,
            action=("shed", "reroute")[position % 2],
            window=16, min_samples=4,
        ),
        scenario=_scenario(
            SCENARIOS[scenario], requests[-1].arrival, seed=position
        ),
    )


def case_closed_loop_kill(session):
    pool = ShardPool.replicate(session, 3)
    probe = pool.shards[0].probe_seconds()
    return _serve(
        pool,
        traffic=ClosedLoopClientPool(
            clients=8, requests=200, think_time_s=probe,
            distribution="exponential", seed=3,
        ),
        policy="least-loaded",
        batcher=BatcherOptions(max_batch=3, max_wait_s=probe / 2),
        scenario=parse_scenario(
            f"kill:shard1@{20 * probe:.9f},restore@{60 * probe:.9f}",
            seed=3,
        ),
    )


def case_trace_outage(session):
    pool = ShardPool.replicate(session, 3)
    probe = pool.shards[0].probe_seconds()
    gaps = np.random.default_rng(21).exponential(probe / 4, 150)
    source = TraceSource(np.cumsum(gaps).tolist(), loop=2)
    span = source.span_seconds
    return _serve(
        pool,
        traffic=source,
        policy="shortest-latency",
        batcher=BatcherOptions(max_batch=4, max_wait_s=probe),
        scenario=parse_scenario(
            f"outage:shard0+shard1+shard2@{0.3 * span:.9f}.."
            f"{0.5 * span:.9f},outage:shard0+shard1+shard2@"
            f"{0.95 * span:.9f}",
            seed=9,
        ),
    )


def case_autoscale_burst(session):
    pool = ShardPool.replicate(session, 4)
    probe = pool.shards[0].probe_seconds()
    return _serve(
        pool,
        traffic=make_requests(
            "burst", 160, qps=3.0 * 2.0 / probe, burst=16
        ),
        policy="least-loaded",
        batcher=BatcherOptions(max_batch=2),
        autoscale=AutoscalerOptions(
            min_shards=1, max_shards=4, target_p99_s=6 * probe,
            warmup_s=2 * probe, tick_s=probe, cooldown_s=0.0,
            min_samples=2, window=16,
        ),
    )


CASES = {
    "tenants-chaos": case_tenants_chaos,
    "closed-loop-kill": case_closed_loop_kill,
    "trace-outage": case_trace_outage,
    "autoscale-burst": case_autoscale_burst,
}


def cell_names():
    return [
        (f"{scenario}/{policy}", scenario, policy)
        for scenario in SCENARIOS for policy in POLICIES
    ]


@pytest.fixture(scope="module")
def session():
    return make_session()


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_report_matches_golden_digest(session, name):
    assert CASES[name](session) == GOLDEN[name]


def test_sweep_cells_match_golden_digests(session):
    got = {
        name: case_cell(session, scenario, policy, position)
        for position, (name, scenario, policy) in enumerate(cell_names())
    }
    mismatched = sorted(
        name for name in got if got[name] != GOLDEN_CELLS.get(name)
    )
    assert not mismatched, mismatched


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    shared = make_session()
    for name in CASES:
        print(f'    "{name}":\n        "{CASES[name](shared)}",')
    for position, (name, scenario, policy) in enumerate(cell_names()):
        cell = case_cell(shared, scenario, policy, position)
        print(f'    "{name}":\n        "{cell}",')
