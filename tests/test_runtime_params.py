"""Lazy parameter sets and the timing-only (shape-only) compile.

The seeded weights are pinned by digest: laziness may change *when*
they are drawn, never *what* is drawn.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_network
from repro.errors import ReproError
from repro.experiments.common import paper_config
from repro.ir import Dense, kernel_shape, zoo
from repro.mapping import NetworkMapping
from repro.pipeline import PipelineSession
from repro.runtime import ParameterSet, generate_parameters

#: SHA-256 over (name, weights bytes, bias bytes) per layer, in
#: iteration order, of the eager generator these sets replaced.
DIGESTS = {
    ("tiny_cnn", 7): (
        "2579c2079e907a53e091935d415aafc6187dce995ca403a20d26533f6cf54da8"
    ),
    ("tiny_mlp", 2020): (
        "abf4509048104e5b78091a74bb483f53c21b492987f17d2ede5b0596425dd53d"
    ),
}


def _digest(params) -> str:
    sha = hashlib.sha256()
    for name, entry in params.items():
        sha.update(name.encode())
        sha.update(entry["weights"].tobytes())
        sha.update(entry["bias"].tobytes())
    return sha.hexdigest()


class TestParameterSet:
    @pytest.mark.parametrize("model,seed", sorted(DIGESTS))
    def test_digest_pinned_when_last_layer_read_first(self, model, seed):
        params = generate_parameters(zoo.get_model(model), seed=seed)
        assert not params.drawn
        last = params.network.compute_layers()[-1].layer.name
        params[last]
        assert params.drawn
        assert _digest(params) == DIGESTS[model, seed]

    @pytest.mark.parametrize("model,seed", sorted(DIGESTS))
    def test_digest_pinned_after_pickling_undrawn(self, model, seed):
        params = generate_parameters(zoo.get_model(model), seed=seed)
        blob = pickle.dumps(params)
        assert not params.drawn
        copy = pickle.loads(blob)
        assert isinstance(copy, ParameterSet) and not copy.drawn
        assert _digest(copy) == DIGESTS[model, seed]

    def test_undrawn_pickle_ships_no_weights(self):
        net = zoo.vgg16()
        params = generate_parameters(net)
        assert len(pickle.dumps(params)) < 100_000
        assert not params.drawn

    def test_drawn_set_pickles_as_its_arguments(self):
        params = generate_parameters(zoo.tiny_cnn(), seed=7)
        params["conv1"]
        copy = pickle.loads(pickle.dumps(params))
        assert not copy.drawn
        assert _digest(copy) == DIGESTS["tiny_cnn", 7]

    @pytest.mark.parametrize(
        "read",
        [
            lambda p: p["conv1"],
            lambda p: p.get("conv1"),
            lambda p: list(p),
            len,
            lambda p: "conv1" in p,
        ],
        ids=["getitem", "get", "iter", "len", "in"],
    )
    def test_any_value_access_draws(self, read):
        params = generate_parameters(zoo.tiny_cnn(), seed=7)
        read(params)
        assert params.drawn

    def test_read_only_mapping(self, tiny_params):
        with pytest.raises(TypeError):
            tiny_params["conv1"] = {}
        assert dict(tiny_params).keys() == tiny_params.keys()

    def test_shapes_follow_kernel_shape(self, tiny_params):
        for info in tiny_params.network.compute_layers():
            entry = tiny_params[info.layer.name]
            shape = kernel_shape(info)
            if isinstance(info.layer, Dense):
                shape = shape[:2]
            assert entry["weights"].shape == shape
            assert entry["bias"].shape == shape[:1]


def _assert_same_compile(timing, packed):
    assert len(timing.programs()) == len(packed.programs())
    for a, b in zip(timing.programs(), packed.programs()):
        assert a.to_bytes() == b.to_bytes()
    assert timing.weights.keys() == packed.weights.keys()
    for name, directory in timing.weights.items():
        assert directory.slots == packed.weights[name].slots
        assert directory.total_elems == packed.weights[name].total_elems
        assert directory.image.size == 0
        assert not timing.biases[name].any()


class TestTimingOnlyCompile:
    @pytest.mark.parametrize("mode", ["spat", "wino"])
    def test_tiny_cnn_matches_packed_compile(self, cfg_pt4, mode):
        net = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(net, mode, "ws")
        params = generate_parameters(net, seed=7)
        packed = compile_network(
            net, cfg_pt4, mapping, params, CompilerOptions(quantize=True)
        )
        timing = compile_network(
            net, cfg_pt4, mapping, {},
            CompilerOptions(quantize=True, pack_data=False),
        )
        _assert_same_compile(timing, packed)

    def test_tiny_mlp_matches_packed_compile(self, cfg_pt4):
        net = zoo.tiny_mlp()
        mapping = NetworkMapping.uniform(net, "spat", "is")
        params = generate_parameters(net)
        packed = compile_network(
            net, cfg_pt4, mapping, params, CompilerOptions(quantize=True)
        )
        lazy = generate_parameters(net)
        timing = compile_network(
            net, cfg_pt4, mapping, lazy,
            CompilerOptions(quantize=True, pack_data=False),
        )
        assert not lazy.drawn
        _assert_same_compile(timing, packed)

    def test_vgg16_timing_session_never_draws(self):
        cfg, device = paper_config("vu9p")
        session = PipelineSession(
            "vgg16", device, cfg=cfg,
            compiler_options=CompilerOptions(pack_data=False),
        )
        session.compiled()
        assert session.simulate().cycles > 0
        params = session.parameters()
        assert isinstance(params, ParameterSet) and not params.drawn
        assert session.clone().parameters() is params


class TestSessionParamsCheck:
    @pytest.fixture
    def params(self):
        return dict(generate_parameters(zoo.tiny_cnn(), seed=7))

    @pytest.mark.parametrize("pack_data", [True, False])
    def test_missing_layer_named(self, pynq, params, pack_data):
        del params["conv2"]
        with pytest.raises(ReproError, match="conv2"):
            PipelineSession(
                zoo.tiny_cnn(), pynq, params=params,
                compiler_options=CompilerOptions(pack_data=pack_data),
            )

    @pytest.mark.parametrize("pack_data", [True, False])
    def test_misshaped_weights_named(self, pynq, params, pack_data):
        weights = params["conv1"]["weights"]
        params["conv1"] = {
            "weights": np.swapaxes(weights, 0, 1),
            "bias": params["conv1"]["bias"],
        }
        with pytest.raises(ReproError, match="conv1.*weights"):
            PipelineSession(
                zoo.tiny_cnn(), pynq, params=params,
                compiler_options=CompilerOptions(pack_data=pack_data),
            )

    def test_wrong_bias_length_named(self, pynq, params):
        name = list(params)[-1]
        params[name] = {
            "weights": params[name]["weights"],
            "bias": np.zeros(3),
        }
        with pytest.raises(ReproError, match=f"{name}.*bias"):
            PipelineSession(zoo.tiny_cnn(), pynq, params=params)

    def test_valid_dict_accepted_without_copy(self, pynq, params):
        session = PipelineSession(zoo.tiny_cnn(), pynq, params=params)
        assert session.parameters() is params
