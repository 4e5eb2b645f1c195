"""Hypothesis properties of the DSE: the search must stay inside the
Table-2 constraint set, behave monotonically in its options, and rank
exactly like the exhaustive reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    exhaustive_dse,
    explore_hardware,
    objective_lower_bound,
    run_dse,
)
from repro.dse.engine import _candidate_bounds
from repro.dse.space import DseOptions
from repro.errors import DseError
from repro.estimator.latency import _module_times, layer_work
from repro.fpga import DEVICES, get_device
from repro.ir import zoo
from repro.ir.layers import Dense
from repro.mapping.strategy import MODES, winograd_supported


def _ranking(result):
    return [
        (r.cfg, r.mapping, r.estimate) for r in (result, *result.runners_up)
    ]


@settings(max_examples=10, deadline=None)
@given(
    device_name=st.sampled_from(["vu9p", "zcu102", "pynq-z1", "ku115"]),
    max_instances=st.one_of(st.none(), st.integers(1, 4)),
)
def test_candidates_respect_constraints(device_name, max_instances):
    device = get_device(device_name)
    candidates = explore_hardware(
        device, DseOptions(max_instances=max_instances)
    )
    assert candidates
    for cand in candidates:
        cfg = cand.cfg
        # Table 2's constraint set.
        assert cfg.pi >= cfg.po >= 1
        assert cfg.pt in (4, 6)
        assert cand.total.fits_in(device.resources)
        if max_instances is not None:
            assert cfg.instances <= max_instances
        # Consistency of the reported budgets.
        assert cand.total.dsps == cand.per_instance.dsps * cfg.instances


@settings(max_examples=6, deadline=None)
@given(cap=st.integers(1, 3))
def test_capping_instances_never_helps_throughput(cap):
    device = get_device("vu9p")
    net = zoo.tiny_cnn(input_size=32)
    capped = run_dse(device, net, DseOptions(max_instances=cap))
    free = run_dse(device, net, DseOptions())
    assert free.throughput_gops >= capped.throughput_gops - 1e-9


def test_bigger_buffers_never_hurt_latency():
    """Under the latency objective, larger on-chip buffers can only
    reduce group counts / widen the feasible mapping set.  (Under the
    throughput objective the comparison is not monotone: more BRAM per
    instance competes with instance count.)"""
    device = get_device("zcu102")
    net = zoo.vgg16(input_size=64, include_fc=False)
    small = run_dse(
        device, net,
        DseOptions(buffer_presets=(8192, 4096, 4096),
                   objective="latency"),
    )
    big = run_dse(
        device, net,
        DseOptions(buffer_presets=(32768, 16384, 16384),
                   objective="latency"),
    )
    assert big.estimate.latency <= small.estimate.latency * 1.0001


def test_dse_deterministic():
    device = get_device("pynq-z1")
    net = zoo.tiny_cnn(input_size=32)
    a = run_dse(device, net)
    b = run_dse(device, net)
    assert _ranking(a) == _ranking(b)


_NETWORKS = st.one_of(
    st.sampled_from([zoo.tiny_cnn, zoo.tiny_mlp]).map(lambda build: build()),
    st.builds(
        zoo.single_conv,
        channels_in=st.integers(1, 64),
        channels_out=st.integers(1, 64),
        feature_size=st.integers(8, 32),
        kernel_size=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    ),
)


@settings(max_examples=20, deadline=None)
@given(
    device_name=st.sampled_from(sorted(DEVICES)),
    network=_NETWORKS,
    objective=st.sampled_from(["throughput", "latency"]),
    top_k=st.integers(1, 6),
    max_instances=st.one_of(st.none(), st.integers(1, 4)),
    buffer_presets=st.one_of(
        st.none(),
        st.sampled_from([(8192, 4096, 4096), (32768, 16384, 16384)]),
    ),
)
def test_ranking_equals_exhaustive_reference(
    device_name, network, objective, top_k, max_instances, buffer_presets
):
    """Bound-ordered Step 3 returns the exhaustive ranking, runners-up
    included, and never counts a candidate twice."""
    device = get_device(device_name)
    options = DseOptions(
        objective=objective, top_k=top_k, max_instances=max_instances,
        buffer_presets=buffer_presets,
    )
    try:
        reference = exhaustive_dse(device, network, options)
    except DseError:
        try:
            run_dse(device, network, options)
        except DseError:
            return
        raise AssertionError("run_dse found a design the reference did not")
    result = run_dse(device, network, options)
    assert _ranking(result) == _ranking(reference)
    assert (
        result.candidates_evaluated + result.candidates_pruned
        <= result.candidates_considered
    )


#: Networks whose Eq. 6-11 work exceeds 2^53, so a float64 (or any
#: fixed-width) shortcut on the work terms would round them.
_HUGE_BUILDS = (
    lambda: zoo.single_conv(131071, 131069, 1001, 3, padding=1),
    lambda: zoo.tiny_mlp(in_features=2**27 + 1, hidden=2**27 - 1),
)
_HUGE_NETWORKS = st.sampled_from(_HUGE_BUILDS).map(lambda build: build())


def _eq_6_11(cfg, device, info, mode):
    """Eq. 6-11 written out as one expression per module time."""
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
    freq = cfg.frequency_hz
    bw_f = device.bandwidth_elems(cfg.data_width, cfg.instances)
    bw_w = device.bandwidth_elems(cfg.weight_width, cfg.instances)
    pi, po, pt, m = cfg.pi, cfg.po, cfg.pt, cfg.m
    if mode == "wino":
        blocks = (-(-r // 3)) * (-(-s // 3))
        t_comp = (k * c * blocks * pt * pt * out_h * out_w) / (
            freq * pi * po * pt * pt * m * m
        )
        wgt_elems = k * c * blocks * pt * pt
    else:
        t_comp = (k * c * r * s * out_h * out_w) / (freq * pi * po * pt * pt)
        wgt_elems = k * c * r * s
    t_ldw = wgt_elems / min(bw_w, freq * pi * po * pt)
    t_ldi = (c * h * w) / min(bw_f, freq * pi * pt)
    t_sv = (k * out_h * out_w) / min(bw_f, freq * po * pt)
    return t_comp, t_ldi, t_ldw, t_sv


def test_huge_networks_exceed_float_exact_range():
    for build in _HUGE_BUILDS:
        work = layer_work(build().compute_layers()[0])
        assert work.spat_macs > 2**53
        assert int(float(work.spat_macs)) != work.spat_macs


@settings(max_examples=20, deadline=None)
@given(
    device_name=st.sampled_from(sorted(DEVICES)),
    network=st.one_of(_NETWORKS, _HUGE_NETWORKS),
    objective=st.sampled_from(["throughput", "latency"]),
    max_instances=st.one_of(st.none(), st.integers(1, 4)),
)
def test_bound_is_sum_of_cheapest_mode_module_times(
    device_name, network, objective, max_instances
):
    """Every candidate's bound is exactly the sum over layers of the
    cheapest supported mode's largest Eq. 6-11 module time, and each
    module time is exactly the one-expression Eq. 6-11 value."""
    device = get_device(device_name)
    candidates = explore_hardware(
        device, DseOptions(max_instances=max_instances)
    )
    bounds = _candidate_bounds(candidates, device, network, objective)
    layers = network.compute_layers()
    total_ops = sum(info.ops for info in layers)
    for candidate, bound in zip(candidates, bounds):
        cfg = candidate.cfg
        latency = 0.0
        for info in layers:
            per_mode = []
            for mode in MODES:
                if mode == "wino" and not winograd_supported(info):
                    continue
                times = _module_times(cfg, device, info, mode)
                assert times == _eq_6_11(cfg, device, info, mode)
                per_mode.append(max(times))
            latency += min(per_mode)
        assert bound == objective_lower_bound(
            latency, objective, total_ops, cfg.instances
        )
