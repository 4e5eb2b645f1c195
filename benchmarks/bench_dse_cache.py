"""Benchmark: full-sweep DSE wall-clock and cache hit rate, seed vs
pipeline.

The sweep is the VGG16 tradeoff study on VU9P: the full 621-candidate
space explored once per objective (throughput, then latency) — the
many-scenario pattern the unified pipeline exists for.  The *seed* path
is the exhaustive reference (:func:`~repro.dse.exhaustive_dse`: no
cache, no bound); the *pipeline* path is :func:`~repro.dse.run_dse`,
which visits candidates in admissible-bound order, stops once none can
reach the ranking, and shares one
:class:`~repro.pipeline.cache.EvaluationCache` across the two runs.

Checked claims:

* the pipeline selects the byte-identical ranking per objective;
* >= 3x wall-clock speedup over the seed path;
* the bound order prunes >= 600 of the 621 candidates per objective;
* >= 50% cache hit rate across the sweep.
"""

import time

from repro.dse import exhaustive_dse, run_dse
from repro.dse.space import DseOptions
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import EvaluationCache

OBJECTIVES = ("throughput", "latency")


def _sweep_seed(device, network):
    return {
        objective: exhaustive_dse(
            device, network,
            DseOptions(frequency_mhz=device.frequency_mhz,
                       objective=objective),
        )
        for objective in OBJECTIVES
    }


def _sweep_pipeline(device, network, cache):
    return {
        objective: run_dse(
            device, network,
            DseOptions(frequency_mhz=device.frequency_mhz,
                       objective=objective),
            cache=cache,
        )
        for objective in OBJECTIVES
    }


def _ranking(result):
    return [
        (r.cfg, r.mapping, r.estimate) for r in (result, *result.runners_up)
    ]


def test_dse_cache_speedup(benchmark, once, capsys):
    device = get_device("vu9p")
    network = zoo.vgg16()

    start = time.perf_counter()
    seed = _sweep_seed(device, network)
    seed_seconds = time.perf_counter() - start

    cache = EvaluationCache()
    start = time.perf_counter()
    fast = once(benchmark, _sweep_pipeline, device, network, cache)
    fast_seconds = time.perf_counter() - start

    stats = cache.stats
    speedup = seed_seconds / fast_seconds
    with capsys.disabled():
        print()
        print("VGG16 full sweep on vu9p "
              f"({seed['throughput'].candidates_considered} candidates "
              f"x {len(OBJECTIVES)} objectives)")
        print(f"  seed (exhaustive):  {seed_seconds * 1e3:8.1f} ms")
        print(f"  pipeline:           {fast_seconds * 1e3:8.1f} ms "
              f"({speedup:.1f}x)")
        print(f"  cache: {stats.describe()}")
        for objective in OBJECTIVES:
            result = fast[objective]
            print(f"  {objective}: evaluated {result.candidates_evaluated}, "
                  f"pruned {result.candidates_pruned} of "
                  f"{result.candidates_considered}")

    # Identical ranking per objective.
    for objective in OBJECTIVES:
        assert _ranking(fast[objective]) == _ranking(seed[objective]), (
            objective
        )
    # Acceptance: >= 3x wall-clock, >= 50% cache hit rate.
    assert speedup >= 3.0, f"speedup {speedup:.2f}x < 3x"
    assert stats.hit_rate >= 0.5, f"hit rate {stats.hit_rate:.2%} < 50%"


def test_dse_bound_order_prunes_vgg16_vu9p(capsys):
    """Both objectives stop after a handful of VGG16/VU9P candidates."""
    device = get_device("vu9p")
    network = zoo.vgg16()
    fast = _sweep_pipeline(device, network, EvaluationCache())
    with capsys.disabled():
        print()
        for objective in OBJECTIVES:
            result = fast[objective]
            print(f"VGG16 {objective} on vu9p: evaluated "
                  f"{result.candidates_evaluated}, pruned "
                  f"{result.candidates_pruned} of "
                  f"{result.candidates_considered}")
    for objective in OBJECTIVES:
        result = fast[objective]
        assert result.candidates_considered == 621, objective
        assert result.candidates_pruned >= 600, (
            f"{objective}: pruned {result.candidates_pruned} < 600"
        )
