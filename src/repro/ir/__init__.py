"""Intermediate representation of DNN models (framework Step 1, parser).

The IR is deliberately small: HybridDNN accelerates CONV and FC layers and
streams the light element-wise work (ReLU, quantisation, pooling) through
the SAVE module, so the IR only needs the layer types the accelerator and
its compiler understand.

Public API
----------
``TensorShape``, ``DataType``
    Shape and fixed-point type descriptors (:mod:`repro.ir.tensor`).
``Layer`` and subclasses
    Conv2D, Dense, MaxPool2D/AvgPool2D, ReLU, Flatten
    (:mod:`repro.ir.layers`).
``Network`` / ``NetworkBuilder``
    Sequential layer graph with shape inference (:mod:`repro.ir.graph`,
    :mod:`repro.ir.builder`).
``kernel_shape``
    ``(K, C, R, S)`` kernel shape of a compute layer.
``zoo``
    Reference models: VGG16, AlexNet, and small test networks.
``load_network`` / ``save_network``
    JSON (de)serialisation used by the framework parser.
"""

from repro.ir.tensor import DataType, TensorShape
from repro.ir.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.ir.graph import Network, kernel_shape
from repro.ir.builder import NetworkBuilder
from repro.ir.serialize import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from repro.ir import zoo

__all__ = [
    "AvgPool2D",
    "Conv2D",
    "DataType",
    "Dense",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "Network",
    "NetworkBuilder",
    "ReLU",
    "TensorShape",
    "kernel_shape",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "save_network",
    "zoo",
]
