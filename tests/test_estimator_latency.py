"""Tests for repro.estimator.latency — Eq. 6-15."""

from dataclasses import replace

import pytest

from repro.errors import UnsupportedLayerError
from repro.estimator import estimate_layer, estimate_network
from repro.fpga.device import ExternalMemory
from repro.ir import zoo
from repro.mapping import NetworkMapping


def conv_info(c, k, h, kernel, padding=None):
    if padding is None:
        padding = kernel // 2
    net = zoo.single_conv(c, k, h, kernel, padding=padding)
    return net.compute_layers()[0]


class TestComputeTime:
    def test_eq6_spatial(self, cfg_pt6, vu9p):
        info = conv_info(64, 64, 28, 3)
        est = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        expected = (64 * 64 * 9 * 28 * 28) / (
            cfg_pt6.frequency_hz * 4 * 4 * 36
        )
        assert est.t_comp == pytest.approx(expected)

    def test_eq7_winograd_4x_faster_for_3x3(self, cfg_pt6, vu9p):
        info = conv_info(64, 64, 28, 3)
        spat = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        wino = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        # blocks*PT^2/m^2 / (R*S) = 36/16/9 -> 4x reduction.
        assert spat.t_comp / wino.t_comp == pytest.approx(4.0)

    def test_eq7_decomposition_factor(self, cfg_pt6, vu9p):
        info = conv_info(64, 64, 28, 5)
        wino = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        spat = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        # 5x5: 4 blocks x 36 / (25 * 16) -> 2.78x gain only.
        assert spat.t_comp / wino.t_comp == pytest.approx(25 * 16 / 144)

    def test_winograd_1x1_slower_than_spatial(self, cfg_pt6, vu9p):
        # Tile overhead PT^2/m^2 makes Winograd a loss for 1x1.
        info = conv_info(128, 128, 14, 1)
        spat = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        wino = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        assert wino.t_comp > spat.t_comp


class TestMemoryTime:
    def test_eq9_winograd_loads_more_weights(self, cfg_pt6, vu9p):
        info = conv_info(64, 64, 28, 3)
        spat = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        wino = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        # Paper Sec. 5.2: PT^2 coefficients instead of R*S.
        assert wino.t_ldw / spat.t_ldw == pytest.approx(36 / 9)

    def test_paper_5x5_loading_example(self, cfg_pt6, vu9p):
        # Sec. 5.2: m=4, r=3, 5x5 kernel -> 2*2*36/25 = 5.76x loading.
        info = conv_info(64, 64, 28, 5)
        spat = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
        wino = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        assert wino.t_ldw / spat.t_ldw == pytest.approx(5.76)

    def test_low_bandwidth_binds(self, cfg_pt6, vu9p):
        info = conv_info(256, 256, 14, 3)
        starved = replace(
            vu9p, memory=ExternalMemory(bandwidth_gbps=0.5)
        )
        est = estimate_layer(cfg_pt6, starved, info, "wino", "ws")
        assert est.bound in ("weight", "input")
        rich = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        assert rich.latency < est.latency


class TestDataflows:
    def test_is_multiplies_weight_loads(self, cfg_pt6, vu9p):
        # Eq. 12/14: IS reloads weights per row group.
        info = conv_info(32, 256, 28, 3)
        is_est = estimate_layer(cfg_pt6, vu9p, info, "wino", "is")
        ws_est = estimate_layer(cfg_pt6, vu9p, info, "wino", "ws")
        assert is_est.t_ldw == ws_est.t_ldw  # per-load time identical
        assert is_est.latency >= ws_est.t_comp

    def test_unknown_dataflow(self, cfg_pt6, vu9p):
        with pytest.raises(UnsupportedLayerError):
            estimate_layer(cfg_pt6, vu9p, conv_info(8, 8, 8, 3), "wino", "os")

    def test_is_rejected_when_chunked(self, vu9p):
        from repro.arch.params import AcceleratorConfig

        tiny = AcceleratorConfig(
            pi=4, po=4, pt=4, input_buffer_vecs=512,
            weight_buffer_vecs=4096, output_buffer_vecs=2048,
        )
        info = conv_info(128, 16, 56, 3)
        with pytest.raises(UnsupportedLayerError):
            estimate_layer(tiny, vu9p, info, "wino", "is")
        estimate_layer(tiny, vu9p, info, "wino", "ws")  # WS still fine


class TestNetworkEstimate:
    def test_latency_is_sum(self, cfg_pt6, vu9p):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, "wino", "ws")
        est = estimate_network(cfg_pt6, vu9p, net, mapping)
        assert est.latency == pytest.approx(
            sum(l.latency for l in est.layers)
        )
        assert est.ops == sum(i.ops for i in net.compute_layers())

    def test_instances_multiply_throughput(self, cfg_vu9p_paper, vu9p):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, "wino", "ws")
        est = estimate_network(cfg_vu9p_paper, vu9p, net, mapping)
        assert est.gops == pytest.approx(6 * est.gops_per_instance)

    def test_bound_histogram(self, cfg_pt6, vu9p):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        est = estimate_network(cfg_pt6, vu9p, net, mapping)
        assert sum(est.bound_histogram().values()) == len(est.layers)

    def test_gops_positive(self, cfg_pt6, vu9p):
        net = zoo.tiny_mlp()
        mapping = NetworkMapping.uniform(net, "spat", "ws")
        est = estimate_network(cfg_pt6, vu9p, net, mapping)
        assert est.gops > 0


def test_scalar_estimate_ignores_cal(cfg_pt6, vu9p):
    """estimate_layer accepts-and-ignores cal: any profile, same bits."""
    from repro.estimator.calibration import get_calibration

    info = zoo.tiny_cnn().compute_layers()[0]
    base = estimate_layer(cfg_pt6, vu9p, info, "spat", "ws")
    for cal in (None, get_calibration("generic"),
                get_calibration(vu9p.name)):
        assert estimate_layer(cfg_pt6, vu9p, info, "spat", "ws", cal) == base
