"""The three benchmark workloads; each runs in a fresh interpreter.

A workload is two functions.  ``drive`` is the timed part: it calls
the program's public functions, each call wrapped in a tracer span
named after its layer (``dse``, ``params``, ``compile``, ``probe``,
``pool``, ``traffic``, ``replay``, ``report.*``, ``sweep``, ``plan``),
grouped under ``stage.*`` spans that tile the run so their sum can be
checked against the wall time.  ``evaluate`` runs after the clock
stops: it derives the modelled metrics and runs the output checks, so
neither is billed to the program.

Only generated inputs reach the program: every traffic, chaos, sweep
and planner seed is drawn from the workload seed.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

import checks

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "benchmarks" / "data" / "trace_bursty.csv"

#: p99 limit of a serving run, in service times of a full batch.
LIMIT_BATCHES = 4

# -- design-flow ------------------------------------------------------------
#: DSE coverage: the paper's networks on a cloud, a mid-range and an
#: embedded device.
DSE_MODELS = ("vgg16", "alexnet", "darknet19")
DSE_DEVICES = ("vu9p", "zcu102", "pynq-z1")
#: Cold-deploy order; each deployment is dropped before the next.
DEPLOY_DEVICES = ("pynq-z1", "vu9p")
LADDER_SHARDS = 2
LADDER_POLICY = "least-loaded"
#: Offered load as multiples of the pool's simulated images/s.
LADDER_RUNGS = (0.1, 0.25, 0.5, 0.9)
LADDER_REQUESTS = 2000
#: Independent Poisson draws served per rung: enough serving work for a
#: steady req/s, enough samples for the top rung's tail.
LADDER_DRAWS = 10

# -- replay-1m --------------------------------------------------------------
REPLAY_SHARDS = 2
REPLAY_MAX_BATCH = 4
REPLAY_LOOPS = 13158
REPLAY_SCALE = 5e-5
#: Each gap of the looped trace is scaled by a seeded factor drawn
#: uniformly from this range: seeds differ, bursts and mean rate stay.
REPLAY_JITTER = (0.9, 1.1)

# -- fleet-chaos ------------------------------------------------------------
FLEET_SHARDS = 4
FLEET_MAX_BATCH = 4
#: tenant -> (requests, weight, offered share of its weighted slice).
FLEET_TENANTS = {
    "interactive": (66_000, 3.0, 0.4),
    "bulk": (33_000, 1.0, 0.6),
}
BULK_CAP = 32
#: Mid-run chaos at fractions of the interactive stream's expected
#: span: a kill/restore of shard0, then a 4x slowdown of one shard in
#: each tenant's slice (shard1 interactive, shard3 bulk).
FLEET_CHAOS = (
    "kill:shard0@{0:.6f},restore@{1:.6f},"
    "degrade:shard1@{2:.6f}..{3:.6f}x4,degrade:shard3@{2:.6f}..{3:.6f}x4"
)
FLEET_CHAOS_AT = (0.25, 0.40, 0.55, 0.75)
#: The chaos grid of benchmarks/bench_chaos_sweep.py.
SWEEP_SCENARIOS = (
    "none",
    "kill:shard0@0.002,restore@0.01",
    "kill:shard0@0.002..0.01",
    "degrade:shard0@0.001..0.01x8",
    "outage:shard0+shard1@0.002..0.008",
    "stragglers:shard0+shard1@0..0.015x6*3",
)
SWEEP_POLICIES = ("round-robin", "least-loaded", "shortest-latency")
SWEEP_POOLS = (2, 3, 4, 5, 6, 8)
SWEEP_REQUESTS = 1000
#: Below 1, so attainment does not fall with run length.
SWEEP_LOAD = 0.7
PLAN_MODEL = "tiny_cnn"
PLAN_DEVICES = "vu9p:0..24+pynq-z1:0..23"
PLAN_BATCHES = (1, 6, 12, 24)
PLAN_RATE = 1_050_000.0
PLAN_REQUESTS = 2048
PLAN_SLO_S = 200e-6
PLAN_TOP_K = 6


def derive_seeds(seed: int) -> Dict[str, int]:
    """Per-layer seeds drawn from the workload seed."""
    rng = random.Random(seed)
    return {
        name: rng.randrange(1, 2**31)
        for name in ("traffic", "chaos", "sweep", "plan")
    }


class Run:
    """What one workload run records besides its spans."""

    def __init__(self, tracer, seed: int, checking: bool):
        self.span = tracer.span
        #: Output checks run in one child per benchmark run; the others
        #: only have to repeat its modelled values exactly.
        self.checking = checking
        self.seeds = derive_seeds(seed)
        #: When the first serve/sweep/plan call was entered.
        self.setup_end = None
        #: Host seconds from entering run/run_sweep until the report
        #: is serialised, and the simulated requests they covered.
        self.serve_seconds = 0.0
        self.serve_requests = 0
        self.counts: Dict[str, float] = {}
        #: Host seconds a layer reports about itself (planner tiers).
        self.timings: Dict[str, float] = {}
        self.modelled: Dict[str, float] = {}
        self.checks: List = []
        self.notes: List[str] = []

    def mark_setup_end(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, name: str, test, *args) -> None:
        if self.checking:
            self.checks.append((name, list(test(*args))))

    def serve(self, server, spec):
        """``ShardServer.run`` plus the report build: the window req/s
        is measured over, with one span per call."""
        self.mark_setup_end()
        start = time.perf_counter()
        with self.span("replay"):
            report = server.run(spec)
        with self.span("report.to_dict"):
            payload = report.to_dict()
        with self.span("report.json"):
            json.dumps(payload)
        self.serve_seconds += time.perf_counter() - start
        self.serve_requests += report.count + report.shed + report.unserved
        with self.span("report.describe"):
            report.describe()
        self.add("replay.events", report.events_processed)
        self.add("slo.shed", report.shed - report.admission_shed)
        self.add("tenancy.admission_shed", report.admission_shed)
        self.add("unserved", report.unserved)
        return report


def import_layers(run: Run) -> SimpleNamespace:
    """Import every layer the workloads call, as one timed stage."""
    with run.span("import"):
        import numpy
        from repro.compiler import CompilerOptions
        from repro.dse.space import DseOptions
        from repro.experiments.common import paper_config
        from repro.pipeline import EvaluationCache, PipelineSession
        from repro.planning import PlanOptions, plan_capacity
        from repro.serving import (
            BatcherOptions,
            ShardPool,
            ShardServer,
            SweepGrid,
            SweepOptions,
            TenantSet,
            TenantSpec,
            TraceSource,
            WorkloadSpec,
            make_requests,
            merge_streams,
            parse_scenario,
            percentile,
            run_sweep,
        )
    names = dict(locals())
    del names["run"]
    return SimpleNamespace(**names)


def deploy(run: Run, session) -> Dict[str, float]:
    """Cold deployment: parameters, timing-only compile, probe."""
    with run.span("params"):
        session.parameters()
    with run.span("compile"):
        compiled = session.compiled()
    with run.span("probe"):
        sim = session.simulate()
    run.add("compile.instructions", compiled.total_instructions)
    run.add("probe.cycles", sim.cycles)
    estimate_s = session.estimate().latency
    return {
        "sim_gops": (
            session.network.total_ops * session.cfg.instances
            / sim.seconds / 1e9
        ),
        "est_error_pct": abs(estimate_s - sim.seconds) / sim.seconds * 100,
    }


def tiny_cnn_session(run: Run, lib):
    """tiny_cnn pinned to the PYNQ-Z1 paper configuration, compiled
    timing-only as ``repro serve`` does."""
    with run.span("stage.deploy"):
        cfg, device = lib.paper_config("pynq-z1")
        session = lib.PipelineSession(
            "tiny_cnn", device, cfg=cfg,
            compiler_options=lib.CompilerOptions(pack_data=False),
        )
        design = deploy(run, session)
    run.modelled["est_error_pct"] = design["est_error_pct"]
    run.modelled["sim_gops.pynq-z1"] = design["sim_gops"]
    return session


def build_pool(run: Run, lib, session, shards: int):
    """Replicate ``session``; reading the pool rate warms every probe
    before any serve timer starts."""
    with run.span("stage.pool"):
        with run.span("pool"):
            pool = lib.ShardPool.replicate(session, shards)
            rate = pool.simulated_images_per_second()
    return pool, rate


def latency_metrics(run: Run, lib, latencies_s) -> None:
    percentile = lib.percentile
    run.modelled["sim_p50_ms"] = percentile(latencies_s, 50) * 1e3
    run.modelled["sim_p99_ms"] = percentile(latencies_s, 99) * 1e3
    run.modelled["sim_p999_ms"] = percentile(latencies_s, 99.9) * 1e3
    run.modelled["sim_samples"] = len(latencies_s)


def batcher_metrics(run: Run, reports) -> None:
    records = sum(report.count for report in reports)
    batches = sum(
        usage.batches for report in reports for usage in report.shards
    )
    queue_s = sum(
        report.mean_queue_seconds * report.count for report in reports
    )
    run.modelled["batcher.mean_batch"] = records / batches
    run.modelled["batcher.queue_ms"] = queue_s / records * 1e3


def serving_checks(run: Run, label: str, report, arrivals,
                   tenants) -> None:
    """Conservation and causality of one report against the issued
    requests' arrival instants and tenant tags."""
    if not run.checking:
        return
    issued = dict(Counter(tenants))
    run.check(f"{label}.conservation", checks.conservation, report, issued)
    run.check(f"{label}.causal", checks.causal, report, arrivals)


# -- design-flow ------------------------------------------------------------

def drive_design_flow(run: Run) -> Dict[str, object]:
    lib = import_layers(run)
    compiler_options = lib.CompilerOptions(pack_data=False)
    cache = lib.EvaluationCache()
    results = {}
    sessions = {}
    with run.span("stage.dse"):
        for model in DSE_MODELS:
            for device in DSE_DEVICES:
                session = lib.PipelineSession(
                    model, device, lib.DseOptions(), cache=cache,
                    compiler_options=compiler_options,
                )
                with run.span("dse"):
                    results[(model, device)] = session.dse()
                if model == "vgg16" and device in DEPLOY_DEVICES:
                    sessions[device] = session
    designs = {}
    for device in DEPLOY_DEVICES:
        with run.span("stage.deploy"):
            session = sessions.pop(device)
            designs[device] = deploy(run, session)
            if sessions:
                # Drop this deployment before the next one is built.
                del session
                gc.collect()
    pool, rate = build_pool(run, lib, session, LADDER_SHARDS)
    server = lib.ShardServer(pool)
    ladder = []
    for rung, factor in enumerate(LADDER_RUNGS):
        for draw in range(LADDER_DRAWS):
            with run.span("stage.serve"):
                with run.span("traffic"):
                    requests = lib.make_requests(
                        "poisson", LADDER_REQUESTS, qps=factor * rate,
                        seed=run.seeds["traffic"] + rung * LADDER_DRAWS
                        + draw,
                    )
                report = run.serve(server, lib.WorkloadSpec(
                    traffic=requests, policy=LADDER_POLICY,
                ))
            ladder.append((factor, requests, report, server.last_engine))
    shard = pool.shards[0]
    return {
        "lib": lib,
        "results": results,
        "designs": designs,
        "ladder": ladder,
        "limit_s": LIMIT_BATCHES * shard.probe_service_seconds(
            shard.instances
        ),
    }


def evaluate_design_flow(run: Run, out: Dict[str, object]) -> None:
    results = out["results"]
    run.check("dse.paper_points", checks.paper_points, results)
    stats = [result.cache_stats for result in results.values()]
    lookups = sum(s.lookups for s in stats)
    run.counts["cache.hit_rate"] = (
        sum(s.hits for s in stats) / lookups if lookups else 0.0
    )
    run.add("dse.evaluated", sum(
        result.candidates_evaluated for result in results.values()
    ))
    run.add("dse.pruned", sum(
        result.candidates_pruned for result in results.values()
    ))
    designs = out["designs"]
    for device, design in designs.items():
        run.modelled[f"sim_gops.{device}"] = design["sim_gops"]
    run.modelled["est_error_pct"] = max(
        design["est_error_pct"] for design in designs.values()
    )

    limit_s = out["limit_s"]
    issued = served = failed = within = 0
    rungs: Dict[float, List] = {}
    for draw, (factor, requests, report, engine) in enumerate(
        out["ladder"]
    ):
        label = f"ladder.{factor}x.{draw % LADDER_DRAWS}"
        run.check(f"{label}.engine", checks.engine, label, engine,
                  "fastforward")
        serving_checks(
            run, label, report,
            [request.arrival for request in requests],
            [request.tenant for request in requests],
        )
        latencies = report.latencies()
        lost = report.shed + report.unserved
        issued += len(requests)
        served += report.count
        failed += lost
        within += sum(1 for value in latencies if value <= limit_s)
        pooled = rungs.setdefault(factor, [0, []])
        pooled[0] += lost
        pooled[1].extend(latencies)
    percentile = out["lib"].percentile
    capacity_x = max(
        (factor for factor, (lost, latencies) in rungs.items()
         if lost == 0 and percentile(latencies, 99) <= limit_s),
        default=0.0,
    )
    # Latency is read at the top rung, where queueing shows.
    latency_metrics(run, out["lib"], rungs[LADDER_RUNGS[-1]][1])
    batcher_metrics(run, [report for _f, _r, report, _e in out["ladder"]])
    run.modelled["served_frac"] = served / issued
    run.modelled["fail_frac"] = failed / issued
    run.modelled["slo_attainment"] = within / issued
    run.modelled["sim_capacity_x"] = capacity_x
    run.notes.append(
        f"simulated GOPS: vu9p {designs['vu9p']['sim_gops']:.1f} "
        f"(paper 3375.7), pynq-z1 {designs['pynq-z1']['sim_gops']:.1f} "
        "(paper 83.3)"
    )


# -- replay-1m --------------------------------------------------------------

def drive_replay_1m(run: Run) -> Dict[str, object]:
    lib = import_layers(run)
    np = lib.numpy
    session = tiny_cnn_session(run, lib)
    pool, _rate = build_pool(run, lib, session, REPLAY_SHARDS)
    with run.span("stage.inputs"):
        with run.span("traffic"):
            base = lib.TraceSource.load(TRACE, time_scale=REPLAY_SCALE)
        gaps = np.diff(np.asarray(base.arrivals))
        # One cycle: the trace's gaps plus the one-mean-gap loop seam
        # TraceSource itself uses.
        cycle = np.append(gaps, gaps.mean())
        jitter = np.random.default_rng(run.seeds["traffic"]).uniform(
            *REPLAY_JITTER, size=cycle.size * REPLAY_LOOPS - 1
        )
        steps = np.tile(cycle, REPLAY_LOOPS)[:-1] * jitter
        arrivals = np.concatenate(([0.0], np.cumsum(steps))).tolist()
        del gaps, cycle, jitter, steps
        with run.span("traffic"):
            source = lib.TraceSource(arrivals, name="trace_bursty")
    server = lib.ShardServer(pool)
    with run.span("stage.serve"):
        report = run.serve(server, lib.WorkloadSpec(
            traffic=source,
            batcher=lib.BatcherOptions(max_batch=REPLAY_MAX_BATCH),
            max_events=4 * len(arrivals),
        ))
    return {
        "lib": lib,
        "source": source,
        "report": report,
        "engine": server.last_engine,
        "limit_s": LIMIT_BATCHES * pool.shards[0].probe_service_seconds(
            REPLAY_MAX_BATCH
        ),
    }


def evaluate_replay_1m(run: Run, out: Dict[str, object]) -> None:
    report = out["report"]
    source = out["source"]
    run.check("replay.engine", checks.engine, "replay", out["engine"],
              "fastforward")
    serving_checks(run, "replay", report, source.arrivals, source.tags)
    latencies = report.latencies()
    latency_metrics(run, out["lib"], latencies)
    batcher_metrics(run, [report])
    issued = len(source.arrivals)
    limit_s = out["limit_s"]
    run.modelled["served_frac"] = report.count / issued
    run.modelled["fail_frac"] = (report.shed + report.unserved) / issued
    run.modelled["slo_attainment"] = (
        sum(1 for value in latencies if value <= limit_s) / issued
    )


# -- fleet-chaos ------------------------------------------------------------

def drive_fleet_chaos(run: Run) -> Dict[str, object]:
    lib = import_layers(run)
    session = tiny_cnn_session(run, lib)

    # (a) two tenants under weighted-fair scheduling and chaos.
    pool, capacity = build_pool(run, lib, session, FLEET_SHARDS)
    shard = pool.shards[0]
    max_wait_s = shard.probe_seconds()
    target_s = (
        LIMIT_BATCHES * shard.probe_service_seconds(FLEET_MAX_BATCH)
        + max_wait_s
    )
    total_weight = sum(weight for _n, weight, _s in FLEET_TENANTS.values())
    rates = {
        tenant: share * weight / total_weight * capacity
        for tenant, (_n, weight, share) in FLEET_TENANTS.items()
    }
    with run.span("stage.inputs"):
        streams = []
        for offset, (tenant, (count, _w, _s)) in enumerate(
            FLEET_TENANTS.items()
        ):
            with run.span("traffic"):
                streams.append(lib.make_requests(
                    "poisson", count, qps=rates[tenant],
                    seed=run.seeds["traffic"] + offset, tenant=tenant,
                ))
        with run.span("traffic"):
            traffic = lib.merge_streams(*streams)
        span_s = FLEET_TENANTS["interactive"][0] / rates["interactive"]
        spec = lib.WorkloadSpec(
            traffic=traffic,
            policy="weighted-fair",
            batcher=lib.BatcherOptions(
                max_batch=FLEET_MAX_BATCH, max_wait_s=max_wait_s
            ),
            tenants=lib.TenantSet([
                lib.TenantSpec(
                    "interactive", weight=FLEET_TENANTS["interactive"][1],
                    p99_slo_s=target_s,
                ),
                lib.TenantSpec(
                    "bulk", weight=FLEET_TENANTS["bulk"][1], tier="batch",
                    max_outstanding=BULK_CAP,
                ),
            ]),
            scenario=lib.parse_scenario(
                FLEET_CHAOS.format(*(at * span_s for at in FLEET_CHAOS_AT)),
                seed=run.seeds["chaos"],
            ),
        )
    server = lib.ShardServer(pool)
    with run.span("stage.serve"):
        report = run.serve(server, spec)
    tenant_engine = server.last_engine
    del spec, streams

    # (b) the 108-cell chaos grid on the serial executor.
    with run.span("stage.sweep"):
        grid = lib.SweepGrid(
            SWEEP_SCENARIOS, SWEEP_POLICIES, SWEEP_POOLS
        )
        options = lib.SweepOptions(
            requests=SWEEP_REQUESTS, load_factor=SWEEP_LOAD
        )
        run.mark_setup_end()
        start = time.perf_counter()
        with run.span("sweep"):
            sweep = lib.run_sweep(
                session, grid, options, seed=run.seeds["sweep"]
            )
        with run.span("report.json"):
            sweep.to_json()
        run.serve_seconds += time.perf_counter() - start
        run.serve_requests += sweep.totals["issued"]
        with run.span("report.describe"):
            sweep.describe()

    # (c) capacity planning over a mixed VU9P + PYNQ-Z1 grid.
    with run.span("stage.plan"):
        options = lib.PlanOptions(
            slo_p99_s=PLAN_SLO_S, rate=PLAN_RATE, requests=PLAN_REQUESTS,
            top_k=PLAN_TOP_K, batch_options=PLAN_BATCHES,
            seed=run.seeds["plan"],
        )
        with run.span("plan"):
            plan = lib.plan_capacity(PLAN_MODEL, PLAN_DEVICES, options)
        with run.span("report.json"):
            plan_dict = plan.to_dict()
            json.dumps(plan_dict)
    return {
        "lib": lib,
        "traffic": traffic,
        "report": report,
        "engine": tenant_engine,
        "sweep": sweep,
        "plan": plan,
        "plan_dict": plan_dict,
    }


def evaluate_fleet_chaos(run: Run, out: Dict[str, object]) -> None:
    report = out["report"]
    traffic = out["traffic"]
    run.check("tenants.engine", checks.engine, "tenant run",
              out["engine"], "kernel")
    serving_checks(
        run, "tenants", report,
        [request.arrival for request in traffic],
        [request.tenant for request in traffic],
    )
    latency_metrics(run, out["lib"], [
        record.latency for record in report.records
        if record.tenant == "interactive"
    ])
    batcher_metrics(run, [report])

    totals = out["sweep"].totals
    run.check("sweep.cells", checks.sweep_cells, out["sweep"],
              SWEEP_REQUESTS)
    run.add("sweep.cells", totals["cell_count"])
    run.add("sweep.kernel_cells", totals["engines"].get("kernel", 0))
    run.add("replay.events", totals["events_processed"])
    run.add("slo.shed", totals["shed"])
    run.add("unserved", totals["unserved"])
    run.modelled["slo_attainment"] = totals["slo_attainment"]
    issued = len(traffic) + totals["issued"]
    failed = (
        report.shed + report.unserved + totals["shed"] + totals["unserved"]
    )
    run.modelled["served_frac"] = (report.count + totals["count"]) / issued
    run.modelled["fail_frac"] = failed / issued

    plan = out["plan"]
    run.check("plan.winner", checks.planner, out["plan_dict"])
    run.timings["plan.tier_a_s"] = plan.tier_a_seconds
    run.timings["plan.tier_b_s"] = plan.tier_b_seconds
    run.timings["plan.plans_per_s"] = plan.plans_per_second
    run.add("plan.pruned", plan.pruned_count)
    run.modelled["plan_cost_shard_s"] = (
        plan.winner["replay"]["billed_shard_seconds"]
    )


WORKLOADS: Dict[str, tuple] = {
    "design-flow": (drive_design_flow, evaluate_design_flow),
    "replay-1m": (drive_replay_1m, evaluate_replay_1m),
    "fleet-chaos": (drive_fleet_chaos, evaluate_fleet_chaos),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

