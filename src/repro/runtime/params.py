"""Synthetic parameter generation.

The paper evaluates with pretrained VGG16 weights; every metric it
reports (GOPS, resource counts, estimation error) depends only on layer
geometry, so deterministic seeded weights preserve all evaluated
behaviour (see the substitution table in DESIGN.md).  Magnitudes are
scaled per layer (He-style) so fixed-point quantisation behaves
realistically.

Parameters are drawn lazily: a timing-only deployment compiles from
layer geometry alone (:func:`~repro.ir.graph.kernel_shape`) and never
pays for the 138M VGG16 weights it would not read.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, Optional

import numpy as np

from repro.errors import ReproError
from repro.ir.graph import Network, kernel_shape
from repro.ir.layers import Dense


class ParameterSet(Mapping):
    """Read-only ``{layer_name: {"weights": ndarray, "bias": ndarray}}``.

    Holds only ``(network, seed, scale)`` until a value is first read
    (``[]``, ``get``, iteration, ``len``, ``in``); that read draws every
    layer, in network order, from one ``default_rng(seed)`` stream, so
    the values never depend on which layer is read first.  The values
    are a pure function of the three arguments, so a set pickles as
    them alone: process workers never receive weights and draw their
    own only if they read a value.  Two threads reading an undrawn set
    at once may both draw; they draw the same values.
    """

    def __init__(self, network: Network, seed: int = 2020,
                 scale: float = 1.0):
        self.network = network
        self.seed = seed
        self.scale = scale
        self._values: Optional[Dict[str, dict]] = None

    @property
    def drawn(self) -> bool:
        """Whether the values have been materialised."""
        return self._values is not None

    def _draw(self) -> Dict[str, dict]:
        if self._values is None:
            rng = np.random.default_rng(self.seed)
            values: Dict[str, dict] = {}
            for info in self.network.compute_layers():
                shape = kernel_shape(info)
                if isinstance(info.layer, Dense):
                    shape = shape[:2]
                fan_in = int(np.prod(shape[1:]))
                std = self.scale * np.sqrt(2.0 / fan_in)
                values[info.layer.name] = {
                    "weights": rng.normal(0.0, std, size=shape),
                    "bias": rng.normal(0.0, 0.05, size=shape[0]),
                }
            self._values = values
        return self._values

    def __getitem__(self, name: str) -> dict:
        return self._draw()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._draw())

    def __len__(self) -> int:
        return len(self._draw())

    def __reduce__(self):
        return (ParameterSet, (self.network, self.seed, self.scale))


def generate_parameters(network: Network, seed: int = 2020,
                        scale: float = 1.0) -> ParameterSet:
    """Weights/biases for every compute layer of ``network``.

    Returns a lazy :class:`ParameterSet` mapping ``layer_name`` to
    ``{"weights": ndarray, "bias": ndarray}`` with ``(K, C, R, S)``
    kernels for convolutions and ``(M, N)`` matrices for Dense layers.
    Nothing is drawn until a value is read.
    """
    return ParameterSet(network, seed, scale)


def check_parameters(network: Network, params: Mapping) -> None:
    """Raise :class:`~repro.errors.ReproError` naming the first compute
    layer of ``network`` whose weights are missing or mis-shaped, or
    whose bias has the wrong length.

    Reads shapes only (``np.shape``), so no array is copied.  Dense
    weights may be ``(M, N)`` or ``(M, N, 1, 1)``; a missing bias packs
    as zeros and is allowed.
    """
    for info in network.compute_layers():
        name = info.layer.name
        shape = kernel_shape(info)
        entry = params.get(name)
        weights = None if entry is None else entry.get("weights")
        if weights is None:
            raise ReproError(f"params: missing weights for layer {name!r}")
        allowed = [shape]
        if isinstance(info.layer, Dense):
            allowed.append(shape[:2])
        if np.shape(weights) not in allowed:
            raise ReproError(
                f"params: layer {name!r} weights have shape "
                f"{np.shape(weights)}, expected {allowed[-1]}"
            )
        bias = entry.get("bias")
        if bias is not None and np.shape(bias) != (shape[0],):
            raise ReproError(
                f"params: layer {name!r} bias has shape {np.shape(bias)}, "
                f"expected ({shape[0]},)"
            )
