"""Analytical performance / resource estimation (Section 5).

``resources``
    Eq. 3-5: DSP, BRAM and LUT utilisation of one configuration.
``latency``
    Eq. 6-15: per-layer latency under each (mode, dataflow) combination
    and whole-network estimates.
``calibration``
    The profiled constants (alpha, beta, gamma, delta, ...) fitted per
    device so the models reproduce the paper's Table 3.
"""

from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.resources import (
    estimate_resources,
    hybrid_lut_overhead,
    spatial_only_resources,
)
from repro.estimator.latency import (
    LayerEstimate,
    NetworkEstimate,
    estimate_layer,
    estimate_network,
)
from repro.estimator.power import PowerEstimate, estimate_power

__all__ = [
    "CalibrationProfile",
    "LayerEstimate",
    "NetworkEstimate",
    "PowerEstimate",
    "estimate_layer",
    "estimate_network",
    "estimate_power",
    "estimate_resources",
    "get_calibration",
    "hybrid_lut_overhead",
    "spatial_only_resources",
]
