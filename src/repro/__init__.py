"""HybridDNN reproduction — hybrid Spatial/Winograd DNN accelerator
framework (Ye et al., DAC 2020).

The package mirrors the paper's four-step design flow:

1. **Parse** — :mod:`repro.ir` (models) and :mod:`repro.fpga` (devices).
2. **Explore** — :mod:`repro.dse` driven by :mod:`repro.estimator`.
3. **Generate** — :mod:`repro.compiler` (instructions + data files) and
   :mod:`repro.hls` (synthesizable C++ templates).
4. **Run** — :mod:`repro.runtime` on the cycle-approximate, functionally
   exact simulator in :mod:`repro.sim`.

Above the flow, :mod:`repro.pipeline` caches the evaluation chain
behind one ``PipelineSession`` facade, and
:mod:`repro.serving` serves traffic over pools of deployed sessions
(multi-shard scheduling + dynamic batching — ``repro serve``).

Quickstart
----------
>>> from repro import zoo, get_device, run_dse
>>> result = run_dse(get_device("pynq-z1"), zoo.vgg16())
>>> result.cfg.pt, result.cfg.instances
(4, 1)
"""

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions, compile_network
from repro.dse import run_dse
from repro.dse.space import DseOptions
from repro.errors import ReproError
from repro.estimator import estimate_network, estimate_resources
from repro.fpga import get_device
from repro.ir import Network, NetworkBuilder, TensorShape, zoo
from repro.mapping import NetworkMapping
from repro.runtime import (
    HostRuntime,
    generate_parameters,
    reference_inference,
)
from repro.sim import AcceleratorSimulator

__version__ = "0.1.0"

__all__ = [
    "AcceleratorConfig",
    "AcceleratorSimulator",
    "CompilerOptions",
    "DseOptions",
    "HostRuntime",
    "Network",
    "NetworkBuilder",
    "NetworkMapping",
    "ReproError",
    "TensorShape",
    "compile_network",
    "estimate_network",
    "estimate_resources",
    "generate_parameters",
    "get_device",
    "reference_inference",
    "run_dse",
    "zoo",
]
