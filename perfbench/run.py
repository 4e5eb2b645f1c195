"""Benchmark entry point: one workload, several fresh interpreters.

    python3 perfbench/run.py --workload design-flow --seed 1 \\
        --seconds 40 --trace 0

Spawns ``child.py`` (one workload run per interpreter, ``src`` of this
checkout on ``PYTHONPATH``) until another child would end after
``--seconds``, and at least ``MIN_RUNS`` untraced runs.  With
``--trace 1`` it alternates untraced and traced runs, at least
``MIN_RUNS_EACH`` of each; traced runs write a Chrome trace to
``perfbench/out/``.  The first child also runs the output checks; the
others must repeat its modelled values.

Host metrics are medians over the untraced runs (``--trace 0``) or
over the traced runs (``--trace 1``).  Modelled metrics and counts
must repeat exactly across the runs of one seed; a mismatch, a failed
output check or a stage-sum miss counts as a failed operation and the
command exits 1.  The last stdout line is the JSON result: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("design-flow", "replay-1m", "fleet-chaos")
MIN_RUNS = 3
MIN_RUNS_EACH = 2
CHILD_TIMEOUT_S = 120.0
#: Traced stage spans must cover the wall time to within this share.
STAGE_SUM_TOLERANCE = 0.03

#: Host metrics each child measures from the outside.  ``req_per_s``
#: is reported per layer: on design-flow its serve window is too short
#: to be measured steadily.
HOST = ("wall_s", "setup_s", "peak_rss_mb", "req_per_s")
#: Per-layer metric -> (child result section, key).  Span totals live
#: in ``layers``; a layer a workload never calls reads 0.
LAYER_KEYS = {
    "import.s": ("layers", "import"),
    "dse.s": ("layers", "dse"),
    "params.s": ("layers", "params"),
    "compile.s": ("layers", "compile"),
    "probe.s": ("layers", "probe"),
    "pool.s": ("layers", "pool"),
    "traffic.s": ("layers", "traffic"),
    "replay.s": ("layers", "replay"),
    "report.to_dict.s": ("layers", "report.to_dict"),
    "report.json.s": ("layers", "report.json"),
    "report.describe.s": ("layers", "report.describe"),
    "sweep.s": ("layers", "sweep"),
    "plan.s": ("layers", "plan"),
    "plan.tier_a_s": ("timings", "plan.tier_a_s"),
    "plan.tier_b_s": ("timings", "plan.tier_b_s"),
    "plan.plans_per_s": ("timings", "plan.plans_per_s"),
}

ALL = WORKLOADS
DESIGN = ("design-flow",)
REPLAY = ("replay-1m",)
FLEET = ("fleet-chaos",)
#: Per-layer metric -> (end-to-end metrics it should move, workloads
#: where it does).  No targets: a workload outcome kept per layer
#: because it exists on some workloads only, or a property of the
#: measurement itself.
MOVES = {
    "import.s": (("setup_s", "wall_s"), ALL),
    "dse.s": (("setup_s", "wall_s"), DESIGN),
    "dse.evaluated": (("setup_s", "wall_s"), DESIGN),
    "dse.pruned": (("setup_s", "wall_s"), DESIGN),
    "cache.hit_rate": (("setup_s", "wall_s"), DESIGN),
    "params.s": (("setup_s", "wall_s", "peak_rss_mb"), DESIGN),
    "compile.s": (("setup_s", "wall_s"), DESIGN),
    "compile.instructions": (("setup_s",), DESIGN),
    "probe.s": (("setup_s", "wall_s"), DESIGN),
    "probe.cycles": (("setup_s",), DESIGN),
    "pool.s": (("setup_s",), REPLAY + FLEET),
    "traffic.s": (("setup_s",), REPLAY + FLEET),
    "replay.s": (("wall_s",), REPLAY + FLEET),
    "replay.events": (("wall_s",), REPLAY + FLEET),
    "req_per_s": (("wall_s",), REPLAY + FLEET),
    "report.to_dict.s": (("wall_s", "peak_rss_mb"), REPLAY),
    "report.json.s": (("wall_s", "peak_rss_mb"), REPLAY),
    "report.describe.s": (("wall_s", "peak_rss_mb"), REPLAY),
    "batcher.mean_batch": (
        ("sim_p99_ms", "slo_attainment"), DESIGN + REPLAY
    ),
    "batcher.queue_ms": (("sim_p50_ms", "sim_p99_ms"), DESIGN + REPLAY),
    "slo.shed": (("served_frac",), FLEET),
    "tenancy.admission_shed": (("served_frac",), FLEET),
    "unserved": (("served_frac",), FLEET),
    "fail_frac": (("served_frac",), ALL),
    "sweep.s": (("wall_s",), FLEET),
    "sweep.cells": (("wall_s",), FLEET),
    "sweep.kernel_cells": (("wall_s",), FLEET),
    "plan.s": (("wall_s",), FLEET),
    "plan.tier_a_s": (("wall_s",), FLEET),
    "plan.tier_b_s": (("wall_s",), FLEET),
    "plan.plans_per_s": (("wall_s",), FLEET),
    "plan.pruned": (("wall_s",), FLEET),
    "plan_cost_shard_s": ((), FLEET),
    "sim_gops.vu9p": ((), DESIGN),
    "sim_gops.pynq-z1": ((), ALL),
    "sim_capacity_x": ((), DESIGN),
    "sim_p999_ms": ((), REPLAY),
    "trace.overhead_s": ((), ALL),
    "trace.stage_coverage": ((), ALL),
}


class ChildFailed(RuntimeError):
    pass


def load_metrics() -> Dict[str, List[dict]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {key: spec[key] for key in ("end_to_end", "per_layer")}


def spawn(workload: str, seed: int, traced: bool, check: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if check:
        command.append("--check")
    if traced:
        OUT.mkdir(exist_ok=True)
        command += [
            "--trace-out", str(OUT / f"{workload}-seed{seed}.trace.json")
        ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} run timed out") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} run exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, traced: bool):
    """Run children until ``seconds`` pass and the minimum counts are
    met; returns (untraced results, traced results)."""
    plain: List[dict] = []
    tracing: List[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(plain) + len(tracing)
        short = len(plain) < (MIN_RUNS_EACH if traced else MIN_RUNS) or (
            traced and len(tracing) < MIN_RUNS_EACH
        )
        # Start another child only if it should end within the time.
        if not short and elapsed * (done + 1) / done > seconds:
            break
        as_traced = traced and len(tracing) < len(plain)
        result = spawn(workload, seed, as_traced, check=done == 0)
        (tracing if as_traced else plain).append(result)
    return plain, tracing


def verify(results: List[dict]) -> List[List]:
    """Output checks of every run, plus two checks of the benchmark
    itself: modelled values repeat exactly for one seed, and traced
    stage spans cover the wall time."""
    verdicts = [check for result in results for check in result["checks"]]
    first = results[0]
    drift = [
        section for section in ("modelled", "counts")
        for result in results[1:]
        if result[section] != first[section]
    ]
    verdicts.append([
        "seed.repeats",
        [f"{section} differ between runs of one seed"
         for section in sorted(set(drift))],
    ])
    for result in results:
        if "stage_sum_s" in result:
            share = result["stage_sum_s"] / result["host"]["wall_s"]
            verdicts.append([
                "trace.stage_sum",
                [] if abs(share - 1.0) <= STAGE_SUM_TOLERANCE else [
                    f"stage spans cover {share:.3f} of wall_s"
                ],
            ])
    return verdicts


def median(results: List[dict], section: str, key: str) -> float:
    return statistics.median(
        result[section].get(key, 0.0) for result in results
    )


def end_to_end(metrics: List[dict], plain: List[dict]) -> Dict[str, float]:
    values = {}
    for metric in metrics:
        name = metric["name"]
        if name in HOST:
            values[name] = median(plain, "host", name)
        else:
            values[name] = plain[0]["modelled"][name]
    return values


def per_layer(metrics: List[dict], plain: List[dict],
              tracing: List[dict]) -> Dict[str, float]:
    values = {}
    first = tracing[0]
    for metric in metrics:
        name = metric["name"]
        if name == "trace.overhead_s":
            values[name] = (
                median(tracing, "host", "wall_s")
                - median(plain, "host", "wall_s")
            )
        elif name == "trace.stage_coverage":
            values[name] = statistics.median(
                result["stage_sum_s"] / result["host"]["wall_s"]
                for result in tracing
            )
        elif name in HOST:
            values[name] = median(tracing, "host", name)
        elif name in LAYER_KEYS:
            section, key = LAYER_KEYS[name]
            values[name] = median(tracing, section, key)
        elif name in first["counts"]:
            values[name] = first["counts"][name]
        else:
            values[name] = first["modelled"].get(name, 0.0)
    return values


def report(workload: str, values: Dict[str, float], metrics: List[dict],
           results: List[dict]) -> None:
    """Human-readable lines above the JSON result."""
    modelled = results[0]["modelled"]
    print(f"{workload}: {len(results)} run(s); latency percentiles over "
          f"{modelled['sim_samples']} simulated requests")
    for metric in metrics:
        name = metric["name"]
        line = (f"  {name:24s} {values[name]:>16.6g} {metric['unit']:8s} "
                f"({metric['better']} is better)")
        if name in MOVES:
            targets, where = MOVES[name]
            line += (f" -> {', '.join(targets) or 'outcome'} on "
                     f"{', '.join(where)}")
        print(line)
    for note in results[0]["notes"]:
        print(f"  {note}")
    if "self" in results[0]:
        print("  self time of the first traced run (s):")
        for name, own in sorted(results[0]["self"].items(),
                                key=lambda item: -item[1]):
            print(f"    {name:24s} {own:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        metrics = load_metrics()
        plain, tracing = collect(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (OSError, KeyError, ValueError, ChildFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = plain + tracing
    verdicts = verify(results)
    failed = [name for name, problems in verdicts if problems]
    for name, problems in verdicts:
        for problem in problems:
            print(f"check {name} FAILED: {problem}", file=sys.stderr)
    if args.trace:
        chosen = metrics["per_layer"]
        values = per_layer(chosen, plain, tracing)
        report(args.workload, values, chosen, tracing)
    else:
        chosen = metrics["end_to_end"]
        values = end_to_end(chosen, plain)
        report(args.workload, values, chosen, plain)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            for metric in chosen
        },
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
