"""Tests of the benchmark itself (not collected by the repo's suite).

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

They pin the metric table, the determinism of one seed, the stage-sum
check, the tracer's self-time arithmetic, and that every output check
rejects a deliberately corrupted output while passing the real one.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(bench.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_metric_table(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    names = []
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in spec[section]:
            assert set(metric) == keys, metric
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_says_what_it_moves(spec):
    layer = {metric["name"] for metric in spec["per_layer"]}
    e2e = {metric["name"] for metric in spec["end_to_end"]}
    assert set(bench.MOVES) == layer
    for name, (targets, workloads) in bench.MOVES.items():
        assert set(targets) <= e2e, name
        assert workloads and set(workloads) <= set(bench.WORKLOADS), name


def test_tracer_self_time_and_export():
    tracer = Tracer(enabled=True, origin=0.0)
    with tracer.span("stage.outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    own = tracer.self_seconds()
    assert own[outer.index] == pytest.approx(
        outer.duration - first.duration - second.duration
    )
    assert own[first.index] == first.duration
    assert tracer.top_level() == [outer]
    assert tracer.totals()["inner"][0] == pytest.approx(
        first.duration + second.duration
    )
    trace = tracer.chrome_trace({"count": 1}, {"seed": 1})
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["stage.outer", "inner", "inner"]
    assert spans[1]["args"]["parent"] == "stage.outer"
    json.dumps(trace)

    silent = Tracer(enabled=False, origin=0.0)
    with silent.span("anything"):
        pass
    assert silent.spans == []


def _child(workload, seed, trace_out=None):
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--check",
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = {"PYTHONPATH": str(bench.ROOT / "src"), "PATH": ""}
    proc = subprocess.run(
        command, cwd=bench.ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fleet_runs(tmp_path_factory):
    trace = tmp_path_factory.mktemp("trace") / "fleet.json"
    return (
        _child("fleet-chaos", 7, trace),
        _child("fleet-chaos", 7),
        _child("fleet-chaos", 8),
        trace,
    )


def test_one_seed_repeats_exactly(fleet_runs):
    traced, plain, other, _trace = fleet_runs
    assert traced["modelled"] == plain["modelled"]
    assert traced["counts"] == plain["counts"]
    # A second seed runs cleanly on different inputs.
    assert other["modelled"] != plain["modelled"]
    for result in fleet_runs[:3]:
        assert not [name for name, problems in result["checks"]
                    if problems]


def test_stage_sum_and_trace_file(fleet_runs):
    traced, plain, _other, trace = fleet_runs
    assert "stage_sum_s" not in plain
    verdicts = bench.verify([traced, plain])
    assert ["trace.stage_sum", []] in verdicts
    assert ["seed.repeats", []] in verdicts
    events = json.loads(trace.read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"import", "replay", "sweep"}
    short = dict(traced, stage_sum_s=0.5 * traced["host"]["wall_s"])
    assert any(
        name == "trace.stage_sum" and problems
        for name, problems in bench.verify([short])
    )
    drifted = dict(plain, modelled=dict(plain["modelled"], sim_p99_ms=0))
    assert any(
        name == "seed.repeats" and problems
        for name, problems in bench.verify([traced, drifted])
    )


# -- each output check rejects a corrupted output ---------------------------

@pytest.fixture(scope="module")
def small_serve():
    from repro.serving import (
        BatcherOptions, ShardPool, ShardServer, TenantSet, TenantSpec,
        WorkloadSpec, make_requests, merge_streams,
    )
    from repro.experiments.common import paper_session
    from repro.ir import zoo

    pool = ShardPool.replicate(paper_session("pynq-z1", zoo.tiny_cnn()), 2)
    traffic = merge_streams(
        make_requests("poisson", 60, qps=20_000.0, seed=1, tenant="a"),
        make_requests("poisson", 60, qps=200_000.0, seed=2, tenant="b"),
    )
    report = ShardServer(pool).run(WorkloadSpec(
        traffic=traffic,
        batcher=BatcherOptions(max_batch=4),
        tenants=TenantSet([
            TenantSpec("a"), TenantSpec("b", max_outstanding=2),
        ]),
    ))
    issued = {"a": 60, "b": 60}
    return report, traffic, issued


def test_conservation_rejects_lost_requests(small_serve):
    report, _traffic, issued = small_serve
    assert checks.conservation(report, issued) == []
    assert report.admission_shed > 0
    assert checks.conservation(
        dataclasses.replace(report, unserved=report.unserved + 1), issued
    )
    assert checks.conservation(
        dataclasses.replace(report, records=report.records[1:]), issued
    )
    assert checks.conservation(report, {"a": 60, "b": 59})


def test_causal_rejects_time_travel(small_serve):
    report, traffic, _issued = small_serve
    arrivals = [request.arrival for request in traffic]
    assert checks.causal(report, arrivals) == []
    first = report.records[0]
    for corrupt in (
        dataclasses.replace(first, started=first.arrival - 1e-6),
        dataclasses.replace(first, completed=first.started - 1e-6),
        dataclasses.replace(first, arrival=first.arrival + 1e-9),
    ):
        bad = dataclasses.replace(
            report, records=[corrupt] + report.records[1:]
        )
        assert checks.causal(bad, arrivals), corrupt


def test_engine_rejects_wrong_label():
    assert checks.engine("x", "fastforward", "fastforward") == []
    assert checks.engine("x", "kernel", "fastforward")


def test_paper_points_reject_other_designs():
    from repro.experiments.common import paper_config

    class Result:
        def __init__(self, cfg):
            self.cfg = cfg

    results = {
        ("vgg16", device): Result(paper_config(device)[0])
        for device in checks.PAPER_POINTS
    }
    assert checks.paper_points(results) == []
    wrong = dataclasses.replace(results[("vgg16", "vu9p")].cfg, pt=4)
    assert checks.paper_points(
        {**results, ("vgg16", "vu9p"): Result(wrong)}
    )
    del results[("vgg16", "pynq-z1")]
    assert checks.paper_points(results)


@pytest.fixture(scope="module")
def small_sweep():
    from repro.experiments.common import paper_session
    from repro.ir import zoo
    from repro.serving import SweepGrid, SweepOptions, run_sweep

    grid = SweepGrid(("none", "kill:shard0@0.0005..0.001"),
                     ("round-robin",), (2,))
    return run_sweep(
        paper_session("pynq-z1", zoo.tiny_cnn()), grid,
        SweepOptions(requests=40, load_factor=0.7), seed=3,
    )


def test_sweep_cells_reject_corruption(small_sweep):
    assert checks.sweep_cells(small_sweep, 40) == []
    assert checks.sweep_cells(small_sweep, 41)
    for key, value in (("served", -1), ("engine", "kernel")):
        cells = [dict(cell) for cell in small_sweep.cells]
        cells[0][key] = value if key == "engine" else cells[0][key] + value
        bad = dataclasses.replace(small_sweep, cells=cells)
        assert checks.sweep_cells(bad, 40), key


@pytest.fixture(scope="module")
def small_plan():
    from repro.planning import PlanOptions, plan_capacity

    plan = plan_capacity("tiny_cnn", "vu9p:0..2+pynq-z1:0..4", PlanOptions(
        slo_p99_s=200e-6, rate=1_050_000.0, requests=256, top_k=4,
        batch_options=(1, 6), seed=5,
    ))
    return plan.to_dict()


def test_planner_rejects_a_wrong_winner(small_plan):
    assert checks.planner(small_plan) == []
    finalists = small_plan["finalists"]
    assert len(finalists) >= 2
    swapped = dict(small_plan, winner=finalists[1])
    assert checks.planner(swapped)
    missed = json.loads(json.dumps(small_plan))
    missed["winner"]["replay"]["slo_ok"] = False
    missed["finalists"][0] = missed["winner"]
    assert checks.planner(missed)
    slow = json.loads(json.dumps(small_plan))
    slow["winner"]["replay"]["p99_latency_s"] = 1.0
    slow["finalists"][0] = slow["winner"]
    assert checks.planner(slow)
    cheaper = json.loads(json.dumps(small_plan))
    rival = cheaper["finalists"][1]["replay"]
    rival["slo_ok"] = True
    rival["billed_shard_seconds"] = 0.0
    assert checks.planner(cheaper)
