"""Sequential network graph with shape inference.

HybridDNN's accelerator is a folded, instruction-driven design that
executes one layer at a time, so the natural IR is an ordered chain of
layers.  The graph validates name uniqueness and shape compatibility at
construction time and pre-computes per-layer input/output shapes, MACs and
parameter counts — everything the compiler, estimator and DSE need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import GraphError
from repro.ir.layers import Conv2D, Dense, Layer
from repro.ir.tensor import TensorShape


@dataclass(frozen=True)
class LayerInfo:
    """Shape/cost information of one layer inside a network."""

    index: int
    layer: Layer
    input_shape: TensorShape
    output_shape: TensorShape
    macs: int
    ops: int
    weights: int
    biases: int


def kernel_shape(info: LayerInfo) -> Tuple[int, int, int, int]:
    """``(K, C, R, S)`` kernel shape of a compute layer.

    Dense layers are ``(M, N, 1, 1)``: the compiler runs them as 1x1
    convolutions over the flattened input.
    """
    layer = info.layer
    if isinstance(layer, Conv2D):
        r, s = layer.kernel_size
        return (layer.out_channels, info.input_shape.channels, r, s)
    if isinstance(layer, Dense):
        return (layer.out_features, info.input_shape.size, 1, 1)
    raise GraphError(f"{layer.name!r} is not a compute layer")


class Network:
    """An ordered chain of layers with a fixed input shape.

    Parameters
    ----------
    name:
        Model name (used in reports and emitted files).
    input_shape:
        Shape of the single input tensor.
    layers:
        Layers in execution order.  Layer names must be unique and shapes
        must chain correctly; violations raise :class:`GraphError`.
    """

    def __init__(self, name: str, input_shape: TensorShape, layers: List[Layer]):
        self.name = name
        self.input_shape = input_shape
        self._layers = list(layers)
        self._infos = self._build_infos()

    def _build_infos(self) -> List[LayerInfo]:
        seen = set()
        infos = []
        shape = self.input_shape
        for index, layer in enumerate(self._layers):
            if layer.name in seen:
                raise GraphError(f"duplicate layer name: {layer.name!r}")
            seen.add(layer.name)
            try:
                out_shape = layer.output_shape(shape)
            except Exception as exc:
                raise GraphError(
                    f"shape inference failed at layer {index} "
                    f"({layer.name!r}): {exc}"
                ) from exc
            infos.append(
                LayerInfo(
                    index=index,
                    layer=layer,
                    input_shape=shape,
                    output_shape=out_shape,
                    macs=layer.macs(shape),
                    ops=layer.ops(shape),
                    weights=layer.weight_count(shape),
                    biases=layer.bias_count(shape),
                )
            )
            shape = out_shape
        return infos

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerInfo]:
        return iter(self._infos)

    def __getitem__(self, index: int) -> LayerInfo:
        return self._infos[index]

    # -- queries ---------------------------------------------------------

    @property
    def layers(self) -> List[Layer]:
        return list(self._layers)

    @property
    def output_shape(self) -> TensorShape:
        if not self._infos:
            return self.input_shape
        return self._infos[-1].output_shape

    def find(self, name: str) -> LayerInfo:
        """Look up a layer by name."""
        for info in self._infos:
            if info.layer.name == name:
                return info
        raise GraphError(f"no layer named {name!r} in network {self.name!r}")

    def compute_layers(self) -> List[LayerInfo]:
        """CONV / FC layers — the work the PE executes."""
        return [info for info in self._infos if info.layer.is_compute]

    def conv_layers(self) -> List[LayerInfo]:
        return [info for info in self._infos if isinstance(info.layer, Conv2D)]

    def dense_layers(self) -> List[LayerInfo]:
        return [info for info in self._infos if isinstance(info.layer, Dense)]

    @property
    def total_macs(self) -> int:
        return sum(info.macs for info in self._infos)

    @property
    def total_ops(self) -> int:
        return sum(info.ops for info in self._infos)

    @property
    def total_weights(self) -> int:
        return sum(info.weights for info in self._infos)

    def fused_relu_after(self, index: int) -> bool:
        """True if the layer after ``index`` is a fusable stand-alone ReLU."""
        from repro.ir.layers import ReLU

        nxt = index + 1
        return nxt < len(self._layers) and isinstance(self._layers[nxt], ReLU)

    def summary(self) -> str:
        """Human-readable per-layer table."""
        lines = [
            f"Network {self.name!r}  input={self.input_shape}  "
            f"{self.total_macs / 1e9:.2f} GMACs"
        ]
        header = f"{'#':>3} {'name':<16} {'type':<10} {'output':<14} {'MACs':>14}"
        lines.append(header)
        for info in self._infos:
            lines.append(
                f"{info.index:>3} {info.layer.name:<16} "
                f"{type(info.layer).__name__:<10} "
                f"{str(info.output_shape):<14} {info.macs:>14,}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Network(name={self.name!r}, layers={len(self._layers)}, "
            f"input={self.input_shape})"
        )


def validate_network(network: Network) -> Optional[str]:
    """Re-run structural validation; return None or an error message.

    ``Network.__init__`` already validates, so this is mainly useful for
    networks deserialised from external JSON whose layer objects may have
    been mutated afterwards.
    """
    try:
        Network(network.name, network.input_shape, network.layers)
    except GraphError as exc:
        return str(exc)
    return None
