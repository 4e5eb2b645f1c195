"""DSE Steps 2 and 3: per-layer mapping and candidate selection.

Step 2 evaluates, for a fixed hardware candidate, every compute layer
under the four (mode x dataflow) combinations with the Eq. 12-15 model
and keeps the argmin — the per-layer design choices are independent
given the hardware, so this is exact, not heuristic.  Step 3 ranks the
candidates by the chosen objective.

Step 3 is one loop, and it returns the exhaustive ranking
(:func:`exhaustive_dse`) bit for bit:

* a lower bound over *all four* module times (``latency >= sum of
  per-layer min-over-modes max(T_CP, T_LDI, T_LDW, T_SV)``, Eq. 6-11)
  is admissible, so candidates are visited in ascending-bound order and
  the first one whose bound exceeds the current ``top_k``-th objective
  ends the loop — every later candidate's bound is at least as large,
  so none of them can reach the ranking; the bandwidth terms end the
  loop before memory-bound candidates a compute-only bound would have
  to evaluate;
* per-layer estimates go through an
  :class:`~repro.pipeline.cache.EvaluationCache`, deduplicating repeated
  layer shapes and the final re-estimate of the selected mapping.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.params import AcceleratorConfig
from repro.errors import DseError, ReproError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.latency import (
    CandidateRates,
    LayerWork,
    NetworkEstimate,
    candidate_rates,
    estimate_layer,
    estimate_network,
    layer_work,
    module_times,
)
from repro.fpga.device import FpgaDevice
from repro.fpga.resources import ResourceBudget
from repro.ir.graph import Network
from repro.mapping.partition import fused_pool_for
from repro.mapping.strategy import (
    DATAFLOWS,
    MODES,
    LayerMapping,
    NetworkMapping,
    winograd_supported,
)
from repro.pipeline.cache import CacheStats, EvaluationCache
from repro.dse.space import DseOptions, HardwareCandidate, explore_hardware


@dataclass(frozen=True)
class DseResult:
    """The selected design point."""

    device_name: str
    cfg: AcceleratorConfig
    mapping: NetworkMapping
    estimate: NetworkEstimate
    per_instance: ResourceBudget
    total: ResourceBudget
    candidates_considered: int
    runners_up: Tuple["DseResult", ...] = ()
    candidates_evaluated: int = 0
    candidates_pruned: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def throughput_gops(self) -> float:
        return self.estimate.gops

    @property
    def latency_ms(self) -> float:
        return self.estimate.latency * 1e3

    def summary(self) -> str:
        counts = self.mapping.counts()
        return (
            f"{self.device_name}: {self.cfg.describe()}\n"
            f"  latency {self.latency_ms:.2f} ms/image, "
            f"{self.throughput_gops:.1f} GOPS aggregate\n"
            f"  resources {self.total}\n"
            f"  modes: {counts['wino']} wino / {counts['spat']} spat; "
            f"dataflows: {counts['is']} IS / {counts['ws']} WS"
        )


def map_network(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    network: Network,
    cal: Optional[CalibrationProfile] = None,
    cache: Optional[EvaluationCache] = None,
) -> Tuple[NetworkMapping, NetworkEstimate]:
    """Step 2: best (mode, dataflow) per layer for a fixed candidate.

    Raises :class:`DseError` when some layer fits no combination (e.g.
    buffers too small for even one group).  With ``cache`` the per-layer
    estimates are memoized (identical results, fewer model evaluations).
    """
    if cal is None:
        cal = get_calibration(device.name)
    estimate_fn = cache.estimate if cache is not None else estimate_layer
    selections: List[LayerMapping] = []
    for info in network.compute_layers():
        pool = fused_pool_for(network, info.index)
        best = None
        for mode in MODES:
            if mode == "wino" and not winograd_supported(info):
                continue
            for dataflow in DATAFLOWS:
                try:
                    est = estimate_fn(
                        cfg, device, info, mode, dataflow, cal, pool
                    )
                except ReproError:
                    continue
                if best is None or est.latency < best[0]:
                    best = (est.latency, mode, dataflow)
        if best is None:
            raise DseError(
                f"layer {info.layer.name!r} fits no (mode, dataflow) on "
                f"{device.name} with {cfg.describe()}"
            )
        selections.append(LayerMapping(info.layer.name, best[1], best[2]))
    mapping = NetworkMapping(network.name, selections)
    estimate = estimate_network(cfg, device, network, mapping, cal, cache)
    return mapping, estimate


def _objective(estimate: NetworkEstimate, objective: str) -> float:
    """Lower is better."""
    if objective == "latency":
        return estimate.latency
    if objective == "throughput":
        return -estimate.gops
    raise DseError(f"unknown objective {objective!r}")


def _network_work(network: Network) -> List[Tuple[LayerWork, bool]]:
    """Per compute layer: its Eq. 6-11 work and whether Winograd
    applies — everything the bound needs that no candidate changes."""
    return [
        (layer_work(info), winograd_supported(info))
        for info in network.compute_layers()
    ]


def _latency_bound(
    works: List[Tuple[LayerWork, bool]], rates: CandidateRates
) -> float:
    """Sum over layers of the cheapest supported mode's largest module
    time (see :func:`latency_lower_bound`)."""
    total = 0.0
    for work, wino in works:
        bound = max(module_times(work, rates, "spat"))
        if wino:
            bound = min(bound, max(module_times(work, rates, "wino")))
        total += bound
    return total


def latency_lower_bound(
    cfg: AcceleratorConfig, device: FpgaDevice, network: Network
) -> float:
    """Admissible network-latency bound for one candidate (seconds).

    Every (mode, dataflow) latency is ``body + T_penalty`` where the
    body maxes the Eq. 6-11 module times (Eq. 12-15): ``T_CP`` and
    ``T_SV`` appear directly, and the load terms appear scaled by a
    group count ``>= 1`` (``T_LDI`` / ``GK * T_LDI``,
    ``N_rows * T_LDW`` / ``T_LDW``).  Hence for *either* dataflow

        latency >= max(T_CP, T_LDI, T_LDW, T_SV)

    without partitioning a single layer.  Summing each layer's cheapest
    supported mode bounds the network from below; including the
    bandwidth terms (not just ``T_CP``) prunes memory-bound candidates
    that a compute-only bound would have to evaluate.
    """
    return _latency_bound(
        _network_work(network), candidate_rates(cfg, device)
    )


def objective_lower_bound(
    lb_latency: float, objective: str, ops: int, instances: int
) -> float:
    """Lower bound on ``_objective`` given a latency lower bound."""
    if objective == "latency":
        return lb_latency
    if objective == "throughput":
        if lb_latency <= 0:
            return -math.inf
        # gops <= ops / lb_latency * NI  =>  -gops >= this bound.
        return -(ops / lb_latency / 1e9) * instances
    raise DseError(f"unknown objective {objective!r}")


def _candidate_bounds(
    candidates: List[HardwareCandidate],
    device: FpgaDevice,
    network: Network,
    objective: str,
) -> List[float]:
    """Objective lower bound per candidate.

    The layers' work is derived once per network and each candidate's
    rates once per candidate, so a bound costs a few divisions per
    layer and mode.
    """
    total_ops = sum(info.ops for info in network.compute_layers())
    works = _network_work(network)
    return [
        objective_lower_bound(
            _latency_bound(works, candidate_rates(candidate.cfg, device)),
            objective, total_ops, candidate.cfg.instances,
        )
        for candidate in candidates
    ]


def _ranked(
    device: FpgaDevice,
    network: Network,
    candidates: List[HardwareCandidate],
    scored: List[Tuple[float, int, HardwareCandidate, NetworkMapping,
                       NetworkEstimate]],
    top_k: int,
    pruned: int,
    cache_stats: Optional[CacheStats],
) -> DseResult:
    """The best of ``scored`` with its ``top_k - 1`` runners-up.

    Items are ``(objective, enumeration index, candidate, mapping,
    estimate)``; sorting on (objective, index) is the stable sort of
    the exhaustive path, whatever order the items were evaluated in.
    """
    if not scored:
        raise DseError(
            f"no candidate can run {network.name!r} on {device.name}"
        )
    scored.sort(key=lambda item: (item[0], item[1]))

    def to_result(item, runners=()) -> DseResult:
        _, _, candidate, mapping, estimate = item
        return DseResult(
            device_name=device.name,
            cfg=candidate.cfg,
            mapping=mapping,
            estimate=estimate,
            per_instance=candidate.per_instance,
            total=candidate.total,
            candidates_considered=len(candidates),
            runners_up=tuple(runners),
            candidates_evaluated=len(scored),
            candidates_pruned=pruned,
            cache_stats=cache_stats,
        )

    runners = [to_result(item) for item in scored[1:top_k]]
    return to_result(scored[0], runners)


def exhaustive_dse(
    device: FpgaDevice,
    network: Network,
    options: Optional[DseOptions] = None,
    cal: Optional[CalibrationProfile] = None,
) -> DseResult:
    """Reference Step 3: every candidate through the uncached scalar
    model, stably sorted by (objective, enumeration index).

    No bound and no cache — the oracle :func:`run_dse` must equal,
    runners-up included.
    """
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    candidates = explore_hardware(device, options, cal)
    scored = []
    for index, candidate in enumerate(candidates):
        try:
            mapping, estimate = map_network(candidate.cfg, device, network, cal)
        except DseError:
            continue
        objective = _objective(estimate, options.objective)
        scored.append((objective, index, candidate, mapping, estimate))
    return _ranked(device, network, candidates, scored, options.top_k, 0, None)


def run_dse(
    device: FpgaDevice,
    network: Network,
    options: Optional[DseOptions] = None,
    cal: Optional[CalibrationProfile] = None,
    cache: Optional[EvaluationCache] = None,
    candidates: Optional[List[HardwareCandidate]] = None,
) -> DseResult:
    """Full 3-step DSE; returns the best design point (with runners-up
    in ``runners_up`` for inspection).

    Candidates are visited in stable ascending order of their
    admissible objective bound and mapped through ``cache`` (a fresh
    :class:`EvaluationCache` when none is given).  The first candidate
    whose bound exceeds the current ``top_k``-th objective ends the
    loop; it and every candidate after it count as pruned.  The result
    equals :func:`exhaustive_dse` bit for bit.  ``candidates`` may carry
    a pre-enumerated Step-1 result (it must match
    ``explore_hardware(device, options)``).
    """
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    if cache is None:
        cache = EvaluationCache()
    stats_before = cache.stats
    if candidates is None:
        candidates = explore_hardware(device, options, cal)

    bounds = _candidate_bounds(candidates, device, network, options.objective)
    order = sorted(range(len(candidates)), key=bounds.__getitem__)
    scored = []
    worst_of_top_k: List[float] = []  # max-heap (negated) of size <= top_k
    pruned = 0
    for position, index in enumerate(order):
        # Strict inequality: a candidate tying the k-th best objective
        # could still displace it on enumeration order, so it must be
        # evaluated for the ranking to stay byte-identical.
        if (
            len(worst_of_top_k) == options.top_k
            and bounds[index] > -worst_of_top_k[0]
        ):
            pruned = len(order) - position
            break
        candidate = candidates[index]
        try:
            mapping, estimate = map_network(
                candidate.cfg, device, network, cal, cache=cache
            )
        except DseError:
            continue
        objective = _objective(estimate, options.objective)
        scored.append((objective, index, candidate, mapping, estimate))
        if len(worst_of_top_k) < options.top_k:
            heapq.heappush(worst_of_top_k, -objective)
        elif objective < -worst_of_top_k[0]:
            heapq.heapreplace(worst_of_top_k, -objective)

    return _ranked(
        device, network, candidates, scored, options.top_k, pruned,
        cache.stats - stats_before,
    )
