"""Hypothesis properties of the DSE: the search must stay inside the
Table-2 constraint set, behave monotonically in its options, and rank
exactly like the exhaustive reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import exhaustive_dse, explore_hardware, run_dse
from repro.dse.space import DseOptions
from repro.errors import DseError
from repro.fpga import DEVICES, get_device
from repro.ir import zoo


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
