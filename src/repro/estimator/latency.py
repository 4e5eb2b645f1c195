"""Latency models (Eq. 6-15).

Per-layer timing of the four functional modules, the four
(mode x dataflow) combinations, and the ``T_penalty`` term for memory
latency that cannot be hidden.

Notation, matching the paper: a layer has ``C`` input channels of
``H x W`` input, ``K`` output channels of ``H_out x W_out`` output, an
``R x S`` kernel, and runs on a PE with parallel factors ``PI, PO, PT``
at ``FREQ``.  ``GK`` weight groups follow from the weight-buffer sizing
(Section 4.2.4, computed in :mod:`repro.mapping.partition`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple

from repro.arch.params import AcceleratorConfig
from repro.arch.pe import PIPELINE_DEPTH
from repro.errors import UnsupportedLayerError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.fpga.device import FpgaDevice
from repro.ir.graph import LayerInfo, Network
from repro.mapping.partition import fused_pool_for, partition_layer
from repro.mapping.strategy import NetworkMapping

#: Per-instruction overhead folded into T_penalty: DDR setup plus COMP
#: pipeline fill (see repro.arch.dram / repro.arch.pe).
GROUP_OVERHEAD_CYCLES = 64 + PIPELINE_DEPTH


@dataclass(frozen=True)
class LayerEstimate:
    """Analytical latency breakdown of one layer (seconds)."""

    layer_name: str
    mode: str
    dataflow: str
    t_comp: float
    t_ldi: float
    t_ldw: float
    t_sv: float
    t_penalty: float
    latency: float
    bound: str  # "compute" | "input" | "weight" | "save"
    ops: int

    @property
    def gops(self) -> float:
        """Effective single-instance throughput while running this layer."""
        return self.ops / self.latency / 1e9 if self.latency > 0 else 0.0


@dataclass(frozen=True)
class NetworkEstimate:
    """Whole-network analytical estimate.

    ``latency`` and ``ops`` are O(layers) sums that sit inside DSE sort
    keys and objectives, so they are computed once per instance
    (``cached_property`` writes straight into ``__dict__``, which the
    frozen dataclass permits).
    """

    network_name: str
    layers: List[LayerEstimate]
    instances: int

    @cached_property
    def latency(self) -> float:
        """End-to-end latency of one image (seconds, Table-2 objective)."""
        return sum(layer.latency for layer in self.layers)

    @cached_property
    def ops(self) -> int:
        return sum(layer.ops for layer in self.layers)

    @property
    def gops_per_instance(self) -> float:
        return self.ops / self.latency / 1e9 if self.latency else 0.0

    @property
    def gops(self) -> float:
        """Aggregate throughput: instances run batch-parallel images."""
        return self.gops_per_instance * self.instances

    def bound_histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for layer in self.layers:
            counts[layer.bound] = counts.get(layer.bound, 0) + 1
        return counts


class LayerWork(NamedTuple):
    """The candidate-independent numerators of Eq. 6-11 (exact ints).

    Winograd terms omit their ``PT^2`` factor, which belongs to the
    candidate: Eq. 7's numerator is ``wino_macs * PT^2`` and Eq. 9's is
    ``wino_weights * PT^2``.
    """

    spat_macs: int  # K*C*R*S*H_out*W_out (Eq. 6)
    wino_macs: int  # K*C*blocks*H_out*W_out (Eq. 7 / PT^2)
    spat_weights: int  # K*C*R*S (Eq. 8)
    wino_weights: int  # K*C*blocks (Eq. 9 / PT^2)
    inputs: int  # C*H*W (Eq. 10)
    outputs: int  # K*H_out*W_out (Eq. 11)


class CandidateRates(NamedTuple):
    """The layer-independent denominators of Eq. 6-11 (elements/s).

    Each product is formed left to right as written in the equations,
    so dividing a :class:`LayerWork` term by it rounds exactly as the
    one-expression form does.
    """

    spat_comp: float  # FREQ*PI*PO*PT*PT
    wino_comp: float  # FREQ*PI*PO*PT*PT*m*m
    pt2: int  # PT*PT
    weights: float  # min(BW_w, FREQ*PI*PO*PT)
    inputs: float  # min(BW_f, FREQ*PI*PT)
    outputs: float  # min(BW_f, FREQ*PO*PT)


def layer_work(info: LayerInfo) -> LayerWork:
    """One layer's Eq. 6-11 numerators; Dense runs as a 1x1 conv."""
    from repro.ir.layers import Dense

    layer = info.layer
    if isinstance(layer, Dense):
        c, h, w = info.input_shape.size, 1, 1
        r = s = 1
        k = layer.out_features
    else:
        c = info.input_shape.channels
        h, w = info.input_shape.height, info.input_shape.width
        r, s = layer.kernel_size
        k = layer.out_channels
    out_h, out_w = info.output_shape.height, info.output_shape.width
    blocks = (-(-r // 3)) * (-(-s // 3))
    return LayerWork(
        spat_macs=k * c * r * s * out_h * out_w,
        wino_macs=k * c * blocks * out_h * out_w,
        spat_weights=k * c * r * s,
        wino_weights=k * c * blocks,
        inputs=c * h * w,
        outputs=k * out_h * out_w,
    )


def candidate_rates(cfg: AcceleratorConfig, device: FpgaDevice) -> CandidateRates:
    """One candidate's Eq. 6-11 denominators (instances share DRAM)."""
    freq = cfg.frequency_hz
    bw_f = device.bandwidth_elems(cfg.data_width, cfg.instances)
    bw_w = device.bandwidth_elems(cfg.weight_width, cfg.instances)
    pi, po, pt, m = cfg.pi, cfg.po, cfg.pt, cfg.m
    spat_comp = freq * pi * po * pt * pt
    return CandidateRates(
        spat_comp=spat_comp,
        wino_comp=spat_comp * m * m,
        pt2=pt * pt,
        weights=min(bw_w, freq * pi * po * pt),
        inputs=min(bw_f, freq * pi * pt),
        outputs=min(bw_f, freq * po * pt),
    )


def module_times(work: LayerWork, rates: CandidateRates, mode: str):
    """T_CP, T_LDI, T_LDW, T_SV of Eq. 6-11 (whole layer, seconds)."""
    if mode == "wino":
        t_comp = work.wino_macs * rates.pt2 / rates.wino_comp  # Eq. 7
        t_ldw = work.wino_weights * rates.pt2 / rates.weights  # Eq. 9
    else:
        t_comp = work.spat_macs / rates.spat_comp  # Eq. 6
        t_ldw = work.spat_weights / rates.weights  # Eq. 8
    t_ldi = work.inputs / rates.inputs  # Eq. 10
    t_sv = work.outputs / rates.outputs  # Eq. 11
    return t_comp, t_ldi, t_ldw, t_sv


def _module_times(cfg, device, info, mode):
    """T_CP, T_LDI, T_LDW, T_SV of Eq. 6-11 for one (candidate, layer)."""
    return module_times(layer_work(info), candidate_rates(cfg, device), mode)


def estimate_layer(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    info: LayerInfo,
    mode: str,
    dataflow: str,
    cal: CalibrationProfile = None,
    fused_pool: int = 1,
    partition=None,
) -> LayerEstimate:
    """Eq. 12-15: one layer's latency under (mode, dataflow).

    ``T_penalty`` models the un-hidable prologue (first strip + first
    weight group loads), epilogue (last save) and per-group DDR/pipeline
    overheads — the effects the max() of Eq. 12-15 abstracts away.

    ``cal`` is **accepted and ignored**: the latency equations are
    calibration-free (calibration feeds the resource model, Eq. 3-5).
    The parameter survives for signature symmetry with the cached path
    — :meth:`repro.pipeline.cache.EvaluationCache.estimate` keeps
    ``cal`` in its memo key so a future calibrated latency term can
    never read stale entries — and every call site threads
    the session's profile through uniformly.

    ``partition`` may carry a precomputed
    :class:`~repro.mapping.partition.LayerPartition` for this
    (layer, cfg, mode, fused_pool) — the group geometry is independent of
    the dataflow, data widths, clock and instance count, so the
    evaluation cache shares it across those dimensions.
    """
    if partition is None:
        partition = partition_layer(cfg, info, mode, fused_pool)
    if dataflow == "is" and partition.n_c_groups > 1:
        # IS keeps a whole strip resident across all weight groups, which
        # is impossible once the channel depth is chunked (GC > 1); the
        # compiler enforces the same rule.
        raise UnsupportedLayerError(
            f"{info.layer.name}: IS dataflow requires GC == 1 "
            f"(got {partition.n_c_groups})"
        )
    t_comp, t_ldi, t_ldw, t_sv = _module_times(cfg, device, info, mode)
    gk = partition.n_k_groups * partition.n_c_groups
    n_rows = partition.n_row_groups

    if dataflow == "is":
        # Eq. 12 / 14: weights stream once per row group.
        body = max(t_ldi, n_rows * t_ldw, t_comp, t_sv)
    elif dataflow == "ws":
        # Eq. 13 / 15: inputs stream once per weight group.
        body = max(gk * t_ldi, t_ldw, t_comp, t_sv)
    else:
        raise UnsupportedLayerError(f"unknown dataflow {dataflow!r}")

    groups = partition.total_groups
    t_penalty = (
        t_ldi / max(n_rows, 1)
        + t_ldw / max(gk, 1)
        + t_sv / max(n_rows, 1)
        + groups * GROUP_OVERHEAD_CYCLES / cfg.frequency_hz
    )
    terms = {
        "input": t_ldi if dataflow == "is" else gk * t_ldi,
        "weight": n_rows * t_ldw if dataflow == "is" else t_ldw,
        "compute": t_comp,
        "save": t_sv,
    }
    bound = max(terms, key=terms.get)
    return LayerEstimate(
        layer_name=info.layer.name,
        mode=mode,
        dataflow=dataflow,
        t_comp=t_comp,
        t_ldi=t_ldi,
        t_ldw=t_ldw,
        t_sv=t_sv,
        t_penalty=t_penalty,
        latency=body + t_penalty,
        bound=bound,
        ops=info.ops,
    )


def estimate_network(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    network: Network,
    mapping: NetworkMapping,
    cal: CalibrationProfile = None,
    cache=None,
) -> NetworkEstimate:
    """Sum of per-layer estimates — the Table-2 objective.

    ``cache`` is an optional :class:`repro.pipeline.cache.EvaluationCache`
    (accepted duck-typed to keep the estimator import-free of the
    pipeline layer); the DSE threads one through so re-estimating the
    selected mapping costs dictionary lookups, not model evaluations.
    """
    if cal is None:
        cal = get_calibration(device.name)
    estimate_fn = cache.estimate if cache is not None else estimate_layer
    mapping.validate_against(network)
    layers = []
    for info in network.compute_layers():
        m = mapping.for_layer(info.layer.name)
        pool = fused_pool_for(network, info.index)
        layers.append(
            estimate_fn(cfg, device, info, m.mode, m.dataflow, cal, pool)
        )
    return NetworkEstimate(
        network_name=network.name, layers=layers, instances=cfg.instances
    )
