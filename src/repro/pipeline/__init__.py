"""Unified evaluation pipeline (cache + session facade).

``EvaluationCache`` memoizes the per-layer analytical model in memory;
``PipelineSession`` chains candidates -> design point ->
compiled model -> runtime behind one lazily-evaluated object shared by
the CLI, the experiments and the examples.

Exports are resolved lazily: :mod:`repro.dse.engine` imports the cache
from this package while :mod:`repro.pipeline.session` imports the engine,
and the module-level ``__getattr__`` keeps that mutual dependency
acyclic at import time.
"""

from __future__ import annotations

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "PipelineSession",
    "layer_signature",
]

_EXPORTS = {
    "CacheStats": "repro.pipeline.cache",
    "EvaluationCache": "repro.pipeline.cache",
    "layer_signature": "repro.pipeline.cache",
    "PipelineSession": "repro.pipeline.session",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
