"""Golden digests of DSE Steps 1 and 3's inputs.

``_candidate_bounds`` orders Step 3's visits and decides when it stops,
so any change to its floats changes ``candidates_evaluated`` /
``candidates_pruned`` even when the ranking survives.  The SHA-256
constants below were computed with the bound written as one
``_module_times`` call per (candidate, layer, mode); a faster bound must
reproduce every float bit for bit.  The candidate digests pin Step 1's
enumeration (configs and resource budgets) the same way.

Run this file as a script to print the current digests.
"""

import hashlib

import numpy as np
import pytest

from repro.dse.engine import _candidate_bounds
from repro.dse.space import OBJECTIVES, DseOptions, explore_hardware
from repro.fpga import DEVICES, get_device
from repro.ir import zoo

MODELS = ("vgg16", "alexnet", "darknet19", "tiny_cnn", "tiny_mlp")

GOLDEN_CANDIDATES = {
    "ku115":
        "602761a94171d925d9f51f1857d5d3700616348e16f8d6edcbfa558466a6bc3e",
    "pynq-z1":
        "7f6bb5cf4bd9616366ee0bcea8c88051e59d17a93a907397522bbc88aa472589",
    "vu9p":
        "2f58acc672ac92fda1a721f4c95be131ab5a10c347016515f11e026802493781",
    "zcu102":
        "a7c7b25498d672862c81a0299f6be0da026a28e9bcac39f84f5ee307810c25e3",
}

GOLDEN_BOUNDS = {
    "vgg16/ku115/throughput":
        "fe17d196473363bc2d511e8c6b1f5c46dbbb78d9a1e4d3e1a3bbe458e0bb075d",
    "vgg16/ku115/latency":
        "68ae59f69e5835b05e09b32e12332c0f38d5a24c2f5445fc2457ae5a1a67fbef",
    "vgg16/pynq-z1/throughput":
        "29c44646fd0eb0ac0669e0a6db9ad8b901bdc35affaf3f7b56b2c37c1788d5b9",
    "vgg16/pynq-z1/latency":
        "e64c826246ca830f35bf60bd5cab8f5d08deef0723730a4f802b958882fbd9c8",
    "vgg16/vu9p/throughput":
        "0a8ad5467fd0feb6120d64fdd358964cc3d75751354655c111a6651ba5111c2b",
    "vgg16/vu9p/latency":
        "6a6faaf49e98a30c000fb06284333b3f1df56ba6115c072d454d273ae0476d74",
    "vgg16/zcu102/throughput":
        "e6eaebd21bbaabf25604af464c50e57fecd5f41938b855cc655e98a9692c3742",
    "vgg16/zcu102/latency":
        "aac0ec4ddc893a07a249a883f6afcb3bbb950b749af320b19d9077f413df891f",
    "alexnet/ku115/throughput":
        "404ca15fd82bab675fab5b4f26a457108639cc07d1db462dabb2cdb181328490",
    "alexnet/ku115/latency":
        "336a20b9a15718f22e03696edffa6a7258a039675841e4d550c17011b5f3d0e0",
    "alexnet/pynq-z1/throughput":
        "06773651a18cd9adc8ebd37950cb8e93a2fafa2754797263404748ed38bde27b",
    "alexnet/pynq-z1/latency":
        "e896a3adaf46f1f37524d16e9919885f8631ae28ad4ec4632c04d87c7e4a1892",
    "alexnet/vu9p/throughput":
        "bb51cfae3bb274db8eb3d88083a7d095a8e5808c1c4c7b462adc55d0ad42b6e6",
    "alexnet/vu9p/latency":
        "78de0fb3ff7c569fd33baa5776d46a35e143e48186fa8c09ed481f05f971e365",
    "alexnet/zcu102/throughput":
        "9ca38634ccc47864c87e9119c3ee0b79deb62465a5027d22aa63127b11f9125b",
    "alexnet/zcu102/latency":
        "00899d792181b4030e7f0e15860a6e3c4d6dcfd4de324d27a8c50f8535a6aaf8",
    "darknet19/ku115/throughput":
        "e362d8b834e113b9486e1e5d664f328074c73033a65f70501e1564d43b0a697b",
    "darknet19/ku115/latency":
        "c1d273189c189118821f7c2c63b5b8608d50394ffa9305fe5971318182413ca8",
    "darknet19/pynq-z1/throughput":
        "ae1b103da191d77b5f5ef9e7d9b6d26cc868fe6c4a2e69a860fce1c33ac476dc",
    "darknet19/pynq-z1/latency":
        "2c737adcc9caf05e812a8ff16def96755891d980988c1d18118d71cf6d1de24f",
    "darknet19/vu9p/throughput":
        "6e03764b778e1ededc32b5454350bd268af583424fa8fce80c761f85ce66c181",
    "darknet19/vu9p/latency":
        "59c2c8f62914b38f19559db16c5910fd0e463ffc7d441dd5904a491186491bca",
    "darknet19/zcu102/throughput":
        "3fda9bfcb5ec1b0985b92ef0a41664380027fe03b3464cbea2d2dbfc8a72b690",
    "darknet19/zcu102/latency":
        "53cd815af17effef7d0d66132115eeb0fb6074e0bacb1c4aca97949db7749b80",
    "tiny_cnn/ku115/throughput":
        "2ac9e0854b01ab7fdc097544e36f9707c84b18c74c6ebedbacfe637fa357e36b",
    "tiny_cnn/ku115/latency":
        "3f9322be8d8dd8e4b8179d4aa49c6aa573392652ad96885c107d452dafc9deda",
    "tiny_cnn/pynq-z1/throughput":
        "fa07abd6356e5fb91ffffdee03696cd771a19bb179a680c8f0dd9ded17b426fe",
    "tiny_cnn/pynq-z1/latency":
        "6e2c4520b9c33bcae999bc9edd73d0feced942a3d3ead2a01a3b117e314671bd",
    "tiny_cnn/vu9p/throughput":
        "fca131c7a4356ef276af7ac67aab53bcc5d5a1d8c17736b0d8bff15127740e3d",
    "tiny_cnn/vu9p/latency":
        "055e4d199c8948213e232964de63510dc92682906d91146dbe43d3e899950f33",
    "tiny_cnn/zcu102/throughput":
        "583f21963df06e0c084614a65b212b5c78230736190ae3a5b7a41feedb90ebd6",
    "tiny_cnn/zcu102/latency":
        "70e15d7d7c71aa1ed5bf8bd72a200e18e7c2338c981d0dce43e8bb4302f51cf1",
    "tiny_mlp/ku115/throughput":
        "78d8a599d96bacf56918d34454355d327c454d44c25822c730490dd8f1308c85",
    "tiny_mlp/ku115/latency":
        "3a5a3fee812088cb006196fe517e831f9a68645d169189bd1ba4da8a78d9d55a",
    "tiny_mlp/pynq-z1/throughput":
        "e9a2b9af639818c83684842903623b99c1f72665d5a613f1e8cedafe322fe113",
    "tiny_mlp/pynq-z1/latency":
        "7754d101e4d85643478abc5ea5cc3ae16bc85556984f9de44a078f8ecd3f8658",
    "tiny_mlp/vu9p/throughput":
        "589b8b5445ddd2af37c68f48f9c9f428b0d9a16184add49c9bfc0c7782e23c9c",
    "tiny_mlp/vu9p/latency":
        "064f1ff1ec09597e8d5e796bf7ec4c08f25071fd245860d6d1bdfcfea166875f",
    "tiny_mlp/zcu102/throughput":
        "8331f244f503e29693e7fb80f7aa92bb86c3b6f4f6a7f3753404a797ec87b85b",
    "tiny_mlp/zcu102/latency":
        "95745dbe83e7f6c20a6d98b1ce27c1e374b01a9cd1d87edf7a704d4092039186",
}


def candidates_digest(candidates) -> str:
    """SHA-256 over the repr of every candidate, in enumeration order."""
    digest = hashlib.sha256()
    for candidate in candidates:
        digest.update(repr(candidate).encode())
    return digest.hexdigest()


def bounds_digest(bounds) -> str:
    return hashlib.sha256(np.asarray(bounds, "<f8").tobytes()).hexdigest()


def case_bounds(model, device_name):
    """``{objective: digest}`` of one (model, device) pair."""
    device = get_device(device_name)
    network = zoo.get_model(model)
    candidates = explore_hardware(device, DseOptions())
    return {
        objective: bounds_digest(
            _candidate_bounds(candidates, device, network, objective)
        )
        for objective in OBJECTIVES
    }


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_candidates_match_golden_digest(device_name):
    candidates = explore_hardware(get_device(device_name), DseOptions())
    assert candidates_digest(candidates) == GOLDEN_CANDIDATES[device_name]


@pytest.mark.parametrize("device_name", sorted(DEVICES))
@pytest.mark.parametrize("model", MODELS)
def test_bounds_match_golden_digest(model, device_name):
    got = case_bounds(model, device_name)
    want = {
        objective: GOLDEN_BOUNDS[f"{model}/{device_name}/{objective}"]
        for objective in OBJECTIVES
    }
    assert got == want


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    for name in sorted(DEVICES):
        digest = candidates_digest(explore_hardware(get_device(name)))
        print(f'    "{name}":\n        "{digest}",')
    for model in MODELS:
        for name in sorted(DEVICES):
            for objective, digest in case_bounds(model, name).items():
                print(f'    "{model}/{name}/{objective}":\n        "{digest}",')
