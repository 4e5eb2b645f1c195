"""Tests for repro.serving.chaos — the scenario algebra.

The oracle tests pin the contract the kill/restore grammar hangs on:
each spec compiles to exactly the down/up events its steps name, and
serving it is identical to serving the same scenario built from
:class:`Kill`/:class:`Restore` ops.  The property tests then cover the
rest of the algebra: any valid program compiles to a nondecreasing,
well-nested event sequence, and seeded runs are bit-reproducible.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    Degrade,
    Diurnal,
    FlashCrowd,
    Kill,
    Outage,
    Restore,
    ShardDegrade,
    ShardDown,
    ShardPool,
    ShardRestoreRate,
    ShardUp,
    ShardServer,
    Stragglers,
    WorkloadSpec,
    make_requests,
    parse_scenario,
    parse_shape,
    shape_arrivals,
)


def make_session(instances=1, frequency=100.0):
    device = get_device("vu9p")
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=instances, frequency_mhz=frequency,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    return PipelineSession(
        zoo.tiny_cnn(input_size=16, channels=8),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=False, pack_data=False),
    )


@pytest.fixture(scope="module")
def pool():
    return ShardPool.replicate(make_session(), 2)


def serve(pool, traffic, scenario=None, policy="round-robin",
          max_batch=4):
    return ShardServer(pool).run(WorkloadSpec(
        traffic=traffic,
        policy=policy,
        batcher=BatcherOptions(max_batch=max_batch),
        scenario=scenario,
    ))


# -- ops -------------------------------------------------------------------


class TestChaosOps:
    def test_kill_window_emits_down_then_up(self):
        events = Kill("shard0", at=0.1, until=0.3).events()
        assert [type(e).__name__ for e in events] == [
            "ShardDown", "ShardUp",
        ]
        assert [e.time for e in events] == [0.1, 0.3]

    def test_degrade_validates_factor(self):
        with pytest.raises(ServingError, match="factor"):
            Degrade("shard0", factor=0.5, at=0.1)
        with pytest.raises(ServingError, match="factor"):
            Degrade("shard0", factor=float("nan"), at=0.1)

    def test_window_must_be_ordered(self):
        with pytest.raises(ServingError):
            Kill("shard0", at=0.3, until=0.1)
        with pytest.raises(ServingError):
            Degrade("shard0", factor=2.0, at=0.3, until=0.3)

    def test_outage_rejects_duplicate_shards(self):
        with pytest.raises(ServingError, match="twice"):
            Outage(("shard0", "shard0"), at=0.1)

    def test_stragglers_windows_nest_and_are_seeded(self):
        op = Stragglers(("shard0", "shard1"), factor=4.0,
                        start=0.0, until=0.9, pulses=3, seed=7)
        windows = op.windows()
        assert len(windows) == 3
        slot = 0.3
        for index, (shard, begin, end) in enumerate(windows):
            assert shard in ("shard0", "shard1")
            assert index * slot <= begin < end <= (index + 1) * slot
        assert windows == op.windows()  # same seed, same pulse train
        other = Stragglers(("shard0", "shard1"), factor=4.0,
                           start=0.0, until=0.9, pulses=3, seed=8)
        assert windows != other.windows()


# -- parsing ---------------------------------------------------------------


class TestChaosParse:
    def test_each_verb_round_trips(self):
        scenario = parse_scenario(
            "kill:shard0@0.01..0.02, degrade:shard1@0.03..0.04x8, "
            "outage:shard0+shard1@0.05..0.06, "
            "stragglers:shard0+shard1@0.07..0.09x2*2"
        )
        kinds = [type(op).__name__ for op in scenario.ops]
        assert kinds == ["Kill", "Degrade", "Outage", "Stragglers"]
        assert scenario.names() == ["shard0", "shard1"]

    def test_legacy_kill_restore_grammar_still_parses(self):
        scenario = parse_scenario("kill:shard0@0.05,restore@0.1")
        assert scenario.spans() == [("shard0", 0.05, 0.1)]

    def test_windowed_kill_equals_kill_plus_restore(self):
        window = parse_scenario("kill:shard0@0.05..0.1")
        explicit = parse_scenario("kill:shard0@0.05,restore:shard0@0.1")
        assert window.compile() == explicit.compile()

    def test_restore_without_any_kill_is_an_error(self):
        with pytest.raises(ServingError, match="preceding open-ended"):
            parse_scenario("restore@0.1")

    def test_restore_after_windowed_kill_is_an_error(self):
        # The windowed kill restores itself: a bare restore after it
        # has no shard left to name.
        with pytest.raises(ServingError, match="preceding open-ended"):
            parse_scenario("kill:shard0@0.01..0.02,restore@0.1")

    def test_restore_after_outage_is_ambiguous(self):
        with pytest.raises(ServingError, match="ambiguous"):
            parse_scenario("outage:shard0+shard1@0.01,restore@0.1")
        # Naming the shard resolves it.
        scenario = parse_scenario(
            "outage:shard0+shard1@0.01,"
            "restore:shard0@0.1,restore:shard1@0.2"
        )
        assert len(scenario.compile()) == 4

    @pytest.mark.parametrize("spec", [
        "kill:shard0",                       # no @time
        "kill:shard0@0.1x4",                 # kill takes no factor
        "kill:shard0+shard1@0.1",            # correlated kill is outage
        "restore:shard0@0.1..0.2",           # restore takes an instant
        "degrade:shard0@0.1..0.2",           # degrade needs a factor
        "degrade:shard0+shard1@0.1..0.2x4",  # one shard per degrade
        "stragglers:shard0@0.1x4",           # stragglers need a window
        "frobnicate:shard0@0.1",             # unknown verb
        "",                                  # empty spec
    ])
    def test_bad_specs_fail_with_serving_errors(self, spec):
        with pytest.raises(ServingError):
            parse_scenario(spec)

    def test_stragglers_seed_comes_from_parse(self):
        a = parse_scenario("stragglers:shard0@0..0.9x4", seed=1)
        b = parse_scenario("stragglers:shard0@0..0.9x4", seed=1)
        c = parse_scenario("stragglers:shard0@0..0.9x4", seed=2)
        assert a.compile() == b.compile()
        assert a.compile() != c.compile()


# -- compilation -----------------------------------------------------------


class TestChaosCompile:
    def test_events_sorted_and_typed(self):
        scenario = parse_scenario(
            "degrade:shard0@0.01..0.05x4,kill:shard1@0.02..0.04"
        )
        events = scenario.compile()
        times = [event.time for event in events]
        assert times == sorted(times)
        assert [type(e) for e in events] == [
            ShardDegrade, ShardDown, ShardUp, ShardRestoreRate,
        ]

    def test_restore_sorts_before_new_perturbation_at_same_instant(self):
        # Back-to-back degrade windows share the instant 0.02: the
        # restore of the first must precede the start of the second or
        # the state machine would see a double-degrade.
        scenario = parse_scenario(
            "degrade:shard0@0.01..0.02x4,degrade:shard0@0.02..0.03x2"
        )
        kinds = [type(e).__name__ for e in scenario.compile()]
        assert kinds == [
            "ShardDegrade", "ShardRestoreRate",
            "ShardDegrade", "ShardRestoreRate",
        ]

    def test_double_kill_rejected(self):
        with pytest.raises(ServingError, match="already down"):
            ChaosScenario([Kill("s", 0.1), Kill("s", 0.2)])

    def test_degrade_while_down_rejected(self):
        with pytest.raises(ServingError, match="while it is down"):
            ChaosScenario([
                Kill("s", 0.1),
                Degrade("s", factor=2.0, at=0.2),
            ])

    def test_overlapping_degrades_rejected(self):
        with pytest.raises(ServingError, match="must not overlap"):
            ChaosScenario([
                Degrade("s", factor=2.0, at=0.1, until=0.3),
                Degrade("s", factor=4.0, at=0.2, until=0.4),
            ])

    def test_kill_inside_degrade_window_rejected(self):
        with pytest.raises(ServingError, match="degrade window"):
            ChaosScenario([
                Degrade("s", factor=2.0, at=0.1, until=0.4),
                Kill("s", 0.2),
            ])

    def test_restore_before_kill_rejected(self):
        with pytest.raises(ServingError, match="before any kill"):
            ChaosScenario([Restore("s", 0.1)])

    def test_degraded_spans(self):
        scenario = parse_scenario(
            "degrade:shard0@0.01..0.05x4,degrade:shard1@0.02x2"
        )
        assert scenario.degraded_spans() == [
            ("shard0", 0.01, 0.05),
            ("shard1", 0.02, math.inf),
        ]


# -- oracle: kill/restore specs compile to their steps ---------------------


class TestOracle:
    SPECS = [
        "kill:shard0@0.002,restore@0.01",
        "kill:shard0@0.002",
        "kill:shard0@0.001, kill:shard1@0.003, restore:shard0@0.005",
    ]
    #: Per spec: the (event, shard, time) sequence it must compile to,
    #: and the same scenario spelled as Kill/Restore ops.
    EXPECTED = {
        SPECS[0]: (
            [("ShardDown", "shard0", 0.002), ("ShardUp", "shard0", 0.01)],
            [Kill("shard0", 0.002, until=0.01)],
        ),
        SPECS[1]: (
            [("ShardDown", "shard0", 0.002)],
            [Kill("shard0", 0.002)],
        ),
        SPECS[2]: (
            [
                ("ShardDown", "shard0", 0.001),
                ("ShardDown", "shard1", 0.003),
                ("ShardUp", "shard0", 0.005),
            ],
            [
                Kill("shard0", 0.001),
                Kill("shard1", 0.003),
                Restore("shard0", 0.005),
            ],
        ),
    }

    @pytest.mark.parametrize("spec", SPECS)
    def test_compiled_events_match_legacy_steps(self, spec):
        events = parse_scenario(spec).compile()
        assert [
            (type(e).__name__, e.shard, e.time) for e in events
        ] == self.EXPECTED[spec][0]

    @pytest.mark.parametrize("spec", SPECS)
    def test_serve_reports_identical(self, pool, spec):
        traffic = make_requests("poisson", 32, qps=4000.0, seed=11)
        parsed = serve(pool, traffic, parse_scenario(spec))
        built = serve(pool, traffic, ChaosScenario(self.EXPECTED[spec][1]))
        assert parsed == built
        # Every issued request is accounted for, and the killed shard
        # served nothing while it was down.
        assert parsed.count + parsed.unserved == 32
        for shard, down, up in parse_scenario(spec).spans():
            assert not any(
                down < record.started < up
                for record in parsed.records if record.shard == shard
            )
        drop = ("wall_seconds", "events_per_second",
                "replay_requests_per_second")
        assert (
            {k: v for k, v in parsed.to_dict().items() if k not in drop}
            == {k: v for k, v in built.to_dict().items() if k not in drop}
        )


# -- degrade semantics -----------------------------------------------------


class TestDegrade:
    def test_degrade_stretches_tail_but_serves_everything(self, pool):
        traffic = make_requests("poisson", 32, qps=4000.0, seed=3)
        baseline = serve(pool, traffic)
        degraded = serve(pool, traffic, parse_scenario(
            "degrade:shard0@0..1x8"
        ))
        assert degraded.count == baseline.count == 32
        assert degraded.unserved == 0
        assert (
            degraded.latency_percentile(99)
            > baseline.latency_percentile(99)
        )

    def test_shortest_latency_routes_around_straggler(self, pool):
        traffic = make_requests("poisson", 32, qps=2000.0, seed=3)
        report = serve(pool, traffic, parse_scenario(
            "degrade:shard0@0..1x50"
        ), policy="shortest-latency")
        shares = report.per_shard()
        assert shares["shard1"].requests == 32
        assert shares["shard0"].requests == 0

    def test_restore_rate_ends_the_slowdown(self, pool):
        for shard in pool:
            shard.reset()
        shard = pool.shards[0]
        base = shard.probe_service_seconds(4)
        shard.degrade(4.0)
        assert shard.probe_service_seconds(4) == pytest.approx(4 * base)
        shard.restore_rate()
        assert shard.probe_service_seconds(4) == pytest.approx(base)

    def test_kill_clears_degradation(self, pool):
        shard = pool.shards[0]
        shard.degrade(4.0)
        shard.fail()
        assert shard.rate_factor == 1.0
        shard.reset()

    def test_degrade_factor_validation(self, pool):
        shard = pool.shards[0]
        with pytest.raises(ServingError):
            shard.degrade(0.9)
        with pytest.raises(ServingError):
            shard.degrade(float("inf"))


# -- properties ------------------------------------------------------------


@st.composite
def scenario_programs(draw):
    """Valid programs: globally disjoint windows, so any shard/kind
    assignment passes the compile-time state machine."""
    count = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(
        st.floats(min_value=0.001, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        min_size=2 * count, max_size=2 * count, unique=True,
    )))
    ops = []
    for index in range(count):
        at, until = times[2 * index], times[2 * index + 1]
        shard = draw(st.sampled_from(("shard0", "shard1")))
        if draw(st.booleans()):
            ops.append(Kill(shard, at, until))
        else:
            factor = draw(st.floats(min_value=1.0, max_value=32.0,
                                    allow_nan=False))
            ops.append(Degrade(shard, factor, at, until))
    return ops


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=scenario_programs())
    def test_compiles_to_nondecreasing_well_nested_events(self, ops):
        scenario = ChaosScenario(ops)
        events = scenario.compile()
        assert len(events) == 2 * len(ops)
        times = [event.time for event in events]
        assert times == sorted(times)
        assert set(scenario.names()) <= {"shard0", "shard1"}
        # Every window closes after it opens, and none is left open.
        for _, begin, end in scenario.spans() + scenario.degraded_spans():
            assert begin < end < math.inf

    @settings(max_examples=60, deadline=None)
    @given(ops=scenario_programs(), seed=st.integers(0, 2**32 - 1))
    def test_parse_describe_compile_is_deterministic(self, ops, seed):
        scenario = ChaosScenario(ops)
        again = ChaosScenario(list(ops))
        assert scenario.compile() == again.compile()
        assert scenario.describe() == again.describe()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_seeded_runs_are_bit_reproducible(self, pool, seed):
        spec = "stragglers:shard0+shard1@0..0.02x8*3"
        drop = ("wall_seconds", "events_per_second",
                "replay_requests_per_second")

        def run():
            traffic = make_requests("poisson", 24, qps=4000.0, seed=seed)
            report = serve(pool, traffic,
                           parse_scenario(spec, seed=seed))
            return {
                k: v for k, v in report.to_dict().items()
                if k not in drop
            }

        assert run() == run()


# -- traffic shapes --------------------------------------------------------


class TestShapes:
    def test_parse_shape_grammar(self):
        diurnal = parse_shape("diurnal:0.5x0.2")
        assert isinstance(diurnal, Diurnal)
        assert diurnal.amplitude == 0.5 and diurnal.period_s == 0.2
        flash = parse_shape("flash:3@0.05~0.01")
        assert isinstance(flash, FlashCrowd)
        assert flash.at == 0.05 and flash.width_s == 0.01

    @pytest.mark.parametrize("spec", [
        "diurnal:1.5x0.2",   # amplitude >= 1 goes negative
        "diurnal:0.5",       # no period
        "flash:3@0.05",      # no width
        "square:1x2",        # unknown shape
    ])
    def test_bad_shapes_rejected(self, spec):
        with pytest.raises(ServingError):
            parse_shape(spec)

    def test_warp_preserves_order_and_endpoints(self):
        arrivals = [i * 0.01 for i in range(32)]
        warped = shape_arrivals(
            arrivals, [parse_shape("flash:4@0.1~0.03")]
        )
        assert len(warped) == len(arrivals)
        assert warped == sorted(warped)
        assert warped[0] == pytest.approx(arrivals[0])
        assert warped[-1] == pytest.approx(arrivals[-1])
        # The flash packs arrivals toward its centre: strictly more
        # of the stream lands inside the crowd window than before.
        inside = [a for a in warped if 0.07 <= a <= 0.13]
        assert len(inside) > len(
            [a for a in arrivals if 0.07 <= a <= 0.13]
        )

    def test_no_shapes_is_identity(self):
        arrivals = [0.0, 0.01, 0.05]
        assert shape_arrivals(arrivals, []) == arrivals
