"""Shared experiment plumbing.

``paper_config`` returns the exact VGG16 case-study configurations
(which the DSE also discovers on its own — checked by the vgg16_case
experiment); ``paper_session`` wraps one in a
:class:`~repro.pipeline.session.PipelineSession` pinned to that
configuration; ``simulate_network`` compiles and runs a network on the
cycle-approximate simulator, returning the merged timing.  All three
feed the same session facade, so every experiment shares the
calibration-resolved, cached evaluation pipeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import DeviceError
from repro.fpga import FpgaDevice, get_device
from repro.ir.graph import Network
from repro.mapping.strategy import NetworkMapping
from repro.pipeline import EvaluationCache, PipelineSession
from repro.sim.simulator import SimulationResult

#: Buffer presets (input, weight, output ping-pong halves, in vectors).
CLOUD_BUFFERS = (32768, 16384, 16384)
EMBEDDED_BUFFERS = (8192, 4096, 4096)


def paper_config(device_name: str) -> Tuple[AcceleratorConfig, FpgaDevice]:
    """The paper's Section-6.1 configuration for ``device_name``."""
    device = get_device(device_name)
    if device.name == "vu9p":
        cfg = AcceleratorConfig(
            pi=4, po=4, pt=6, instances=6, frequency_mhz=167.0,
            input_buffer_vecs=CLOUD_BUFFERS[0],
            weight_buffer_vecs=CLOUD_BUFFERS[1],
            output_buffer_vecs=CLOUD_BUFFERS[2],
        )
    elif device.name == "pynq-z1":
        cfg = AcceleratorConfig(
            pi=4, po=4, pt=4, instances=1, frequency_mhz=100.0,
            input_buffer_vecs=EMBEDDED_BUFFERS[0],
            weight_buffer_vecs=EMBEDDED_BUFFERS[1],
            output_buffer_vecs=EMBEDDED_BUFFERS[2],
        )
    else:
        raise DeviceError(
            f"no paper configuration for {device_name!r} "
            "(use repro.dse.run_dse for other devices)"
        )
    return cfg, device


def paper_session(
    device_name: str,
    network: Network,
    functional: bool = False,
    cache: Optional[EvaluationCache] = None,
    seed: int = 2020,
) -> PipelineSession:
    """A session pinned to the paper's Section-6.1 configuration.

    ``functional`` selects whether compiled data images are materialised
    (matching :func:`simulate_network`'s compile options).
    """
    cfg, device = paper_config(device_name)
    return PipelineSession(
        network,
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=functional),
        cache=cache,
        seed=seed,
    )


def simulate_network(
    network: Network,
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    mapping: NetworkMapping,
    functional: bool = False,
    params: Optional[dict] = None,
    seed: int = 2020,
) -> SimulationResult:
    """Compile ``network`` and run it through the simulator once."""
    session = PipelineSession(
        network,
        device,
        cfg=cfg,
        mapping=mapping,
        compiler_options=CompilerOptions(quantize=True, pack_data=functional),
        params=params,
        seed=seed,
    )
    return session.simulate(functional=functional)
