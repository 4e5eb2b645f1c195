"""Output checks: each returns a list of problems (empty = passed).

The checks read the program's outputs, never its own verdicts, and
compare them with what the benchmark itself generated and knows: the
paper's design points, the number of requests it issued per tenant,
the engine each run must have used.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence

#: The design points the DSE must recover (paper Section 6.1):
#: (PI, PO, PT, instances) of VGG16 per device.
PAPER_POINTS = {"vu9p": (4, 4, 6, 6), "pynq-z1": (4, 4, 4, 1)}


def paper_points(dse_results: Mapping) -> List[str]:
    """``dse_results`` maps (model, device) to a DseResult."""
    problems = []
    for device, expected in PAPER_POINTS.items():
        result = dse_results.get(("vgg16", device))
        if result is None:
            problems.append(f"no VGG16 DSE result for {device}")
            continue
        cfg = result.cfg
        got = (cfg.pi, cfg.po, cfg.pt, cfg.instances)
        if got != expected:
            problems.append(
                f"VGG16/{device}: DSE picked PI,PO,PT,NI={got}, "
                f"paper point is {expected}"
            )
    return problems


def conservation(report, issued: Mapping[str, int]) -> List[str]:
    """issued = served + SLO-shed + admission-shed + unserved, for the
    run and for each tenant; ``issued`` is the benchmark's own count of
    the requests it generated per tenant."""
    problems = []
    slo_shed = report.shed - report.admission_shed
    total = report.count + slo_shed + report.admission_shed + report.unserved
    if total != sum(issued.values()):
        problems.append(
            f"run: issued {sum(issued.values())} != served {report.count}"
            f" + shed {slo_shed} + admission_shed {report.admission_shed}"
            f" + unserved {report.unserved}"
        )
    served = Counter(record.tenant for record in report.records)
    for tenant in sorted(set(issued) | set(served)):
        accounted = (
            served.get(tenant, 0)
            + report.shed_by_tenant.get(tenant, 0)
            + report.unserved_by_tenant.get(tenant, 0)
        )
        if accounted != issued.get(tenant, 0):
            problems.append(
                f"tenant {tenant}: issued {issued.get(tenant, 0)} != "
                f"served + shed + unserved = {accounted}"
            )
    return problems


def causal(report, arrivals: Sequence[float]) -> List[str]:
    """arrival <= started <= completed on every record, and every
    record keeps the arrival instant of the request it serves."""
    import numpy as np

    records = report.records
    count = len(records)
    index = np.fromiter((r.index for r in records), np.int64, count)
    arrival = np.fromiter((r.arrival for r in records), np.float64, count)
    started = np.fromiter((r.started for r in records), np.float64, count)
    completed = np.fromiter(
        (r.completed for r in records), np.float64, count
    )
    problems = []
    late = int(np.count_nonzero(started < arrival))
    if late:
        problems.append(f"{late} record(s) start before they arrive")
    early = int(np.count_nonzero(completed < started))
    if early:
        problems.append(f"{early} record(s) complete before they start")
    issued = np.asarray(arrivals, dtype=np.float64)
    if count and (index.min() < 0 or index.max() >= len(issued)):
        problems.append("record indices outside the issued requests")
    elif np.any(issued[index] != arrival):
        moved = int(np.count_nonzero(issued[index] != arrival))
        problems.append(f"{moved} record(s) changed their arrival time")
    return problems


def engine(label: str, ran: str, expected: str) -> List[str]:
    if ran != expected:
        return [f"{label}: ran on {ran!r}, expected {expected!r}"]
    return []


def sweep_cells(report, requests: int) -> List[str]:
    """Every cell issued ``requests``, accounts for all of them, and
    ran on the engine its scenario implies: the unperturbed baseline
    fast-forwards, every chaos cell needs the event kernel."""
    from repro.serving.sweep import BASELINE_SCENARIO

    problems = []
    for cell in report.cells:
        name = f"cell {cell['cell']}"
        if cell["issued"] != requests:
            problems.append(
                f"{name}: issued {cell['issued']}, expected {requests}"
            )
        accounted = cell["served"] + cell["shed"] + cell["unserved"]
        if accounted != cell["issued"]:
            problems.append(
                f"{name}: issued {cell['issued']} != served + shed + "
                f"unserved = {accounted}"
            )
        expected = (
            "fastforward" if cell["scenario"] == BASELINE_SCENARIO
            else "kernel"
        )
        problems.extend(engine(name, cell["engine"], expected))
    return problems


def planner(plan_dict: Dict) -> List[str]:
    """The winner is the first finalist and met the SLO in replay."""
    problems = []
    finalists = plan_dict.get("finalists") or []
    if not finalists:
        return ["planner returned no finalists"]
    winner = plan_dict["winner"]
    if winner != finalists[0]:
        problems.append(
            f"winner is plan {winner.get('plan')}, first finalist is "
            f"plan {finalists[0].get('plan')}"
        )
    replay = winner["replay"]
    if not replay["slo_ok"]:
        problems.append(f"winner plan {winner['plan']} missed the SLO")
    p99 = replay["p99_latency_s"]
    if p99 is None or p99 > plan_dict["slo_p99_s"]:
        problems.append(
            f"winner replay p99 {p99} exceeds the SLO "
            f"{plan_dict['slo_p99_s']}"
        )
    cheaper = [
        row["plan"] for row in finalists
        if row["replay"]["slo_ok"]
        and row["replay"]["billed_shard_seconds"]
        < replay["billed_shard_seconds"]
    ]
    if cheaper:
        problems.append(
            f"finalists {cheaper} meet the SLO for fewer billed "
            f"shard-seconds than winner plan {winner['plan']}"
        )
    return problems
