"""Oracle tests for the fast-forward replay engine.

The event kernel is the oracle: on every eligible configuration the
fast-forward recurrence must reproduce its :class:`ServingReport`
field for field (wall-clock perf fields use the *equivalent* event
count, asserted explicitly since they are ``compare=False``), and on
every ineligible configuration ``engine="auto"`` must quietly select
the kernel.
"""

import math
from dataclasses import replace

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
    ENGINES,
    BatcherOptions,
    Request,
    ShardPool,
    ShardServer,
    TraceSource,
    WorkloadSpec,
    ineligible_reason,
    make_requests,
    parse_scenario,
    percentile,
)
from repro.serving.autoscaler import AutoscalerOptions
from repro.serving.scheduler import POLICIES
from repro.serving.slo import SloOptions
from repro.serving.traffic import ClosedLoopClientPool

#: Report keys that measure the host, not the modeled system — the
#: only ones the two engines may legitimately disagree on.
WALL_KEYS = (
    "events_processed",
    "wall_seconds",
    "events_per_second",
    "replay_requests_per_second",
)


def make_session(instances=1):
    device = get_device("vu9p")
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=instances, frequency_mhz=100.0,
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
def session():
    return make_session(instances=2)


def comparable(report):
    return {
        key: value for key, value in report.to_dict().items()
        if key not in WALL_KEYS
    }


def serve_both(server, spec):
    """The same workload on both engines; returns (kernel, fast)."""
    kernel = server.run(replace(spec, engine="kernel"))
    assert server.last_engine == "kernel"
    fast = server.run(replace(spec, engine="fastforward"))
    assert server.last_engine == "fastforward"
    return kernel, fast


class TestByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        pool_size=st.integers(min_value=1, max_value=3),
        max_batch=st.integers(min_value=1, max_value=6),
        wait_ms=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
        kind=st.sampled_from(
            ["uniform", "fixed-qps", "poisson", "burst"]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fastforward_equals_kernel(
        self, session, policy, pool_size, max_batch, wait_ms, kind, seed
    ):
        server = ShardServer(ShardPool.replicate(session, pool_size))
        spec = WorkloadSpec(
            traffic=make_requests(kind, 40, qps=500.0, seed=seed, burst=5),
            policy=policy,
            batcher=BatcherOptions(
                max_batch=max_batch, max_wait_s=wait_ms * 1e-3
            ),
        )
        kernel, fast = serve_both(server, spec)
        # Dataclass equality covers records, usage, counters and
        # shard_seconds; the wall fields are compare=False, so the
        # equivalent event count gets its own assertion.
        assert fast == kernel
        assert fast.events_processed == kernel.events_processed
        assert comparable(fast) == comparable(kernel)

    def test_trace_source_replays_identically(self, session):
        server = ShardServer(ShardPool.replicate(session, 2))
        arrivals = [0.0, 0.0, 1e-4, 2.5e-4, 2.5e-4, 2.5e-4, 9e-4]
        spec = WorkloadSpec(batcher=BatcherOptions(max_batch=3))
        kernel = server.run(replace(
            spec,
            traffic=TraceSource(arrivals, time_scale=0.5, loop=3),
            engine="kernel",
        ))
        fast = server.run(replace(
            spec,
            traffic=TraceSource(arrivals, time_scale=0.5, loop=3),
            engine="fastforward",
        ))
        assert fast == kernel
        assert fast.events_processed == kernel.events_processed

    def test_post_run_state_mirrors_kernel(self, session):
        pool = ShardPool.replicate(session, 2)
        server = ShardServer(pool)
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 17, qps=800.0, seed=4),
            batcher=BatcherOptions(max_batch=2),
        )
        server.run(replace(spec, engine="kernel"))
        kernel_busy = [shard.busy_until for shard in pool]
        kernel_next = server.scheduler.policy._next
        server.run(replace(spec, engine="fastforward"))
        assert [shard.busy_until for shard in pool] == kernel_busy
        assert server.scheduler.policy._next == kernel_next

    def test_event_budget_error_matches_kernel(self, session):
        server = ShardServer(ShardPool.replicate(session, 2))
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 30, qps=500.0, seed=1),
            batcher=BatcherOptions(max_batch=4),
            max_events=20,
        )
        with pytest.raises(ServingError) as kernel_error:
            server.run(replace(spec, engine="kernel"))
        with pytest.raises(ServingError) as fast_error:
            server.run(replace(spec, engine="fastforward"))
        assert str(fast_error.value) == str(kernel_error.value)


class TestEligibility:
    def plain_run(self, session, traffic=None, **fields):
        """Run ``traffic`` (default: 8 Poisson requests) on a plain
        2-shard round-robin pool; returns the server."""
        if traffic is None:
            traffic = make_requests("poisson", 8, qps=500.0)
        server = ShardServer(ShardPool.replicate(session, 2))
        server.run(WorkloadSpec(
            traffic=traffic, batcher=BatcherOptions(max_batch=2), **fields
        ))
        return server

    def test_auto_selects_fastforward_on_plain_open_loop(self, session):
        server = self.plain_run(session)
        assert server.last_engine == "fastforward"

    def test_explicit_kernel_forces_kernel(self, session):
        server = self.plain_run(session, engine="kernel")
        assert server.last_engine == "kernel"

    def test_closed_loop_selects_kernel(self, session):
        server = self.plain_run(session, ClosedLoopClientPool(
            clients=2, requests=6, think_time_s=0.0
        ))
        assert server.last_engine == "kernel"

    def test_chaos_scenario_selects_kernel(self, session):
        scenario = parse_scenario("kill:shard0@0.001,restore@0.002")
        server = self.plain_run(session, scenario=scenario)
        assert server.last_engine == "kernel"

    def test_slo_controller_selects_kernel(self, session):
        server = self.plain_run(
            session, slo=SloOptions(p99_target_s=0.5)
        )
        assert server.last_engine == "kernel"

    def test_autoscaler_selects_kernel(self, session):
        server = self.plain_run(session, autoscale=AutoscalerOptions(
            min_shards=1, max_shards=2, target_utilisation=0.5,
        ))
        assert server.last_engine == "kernel"

    def test_forced_fastforward_on_ineligible_run_raises(self, session):
        scenario = parse_scenario("kill:shard0@0.001,restore@0.002")
        with pytest.raises(ServingError, match="plain open-loop"):
            self.plain_run(
                session, scenario=scenario, engine="fastforward"
            )

    def test_unknown_engine_rejected(self, session):
        with pytest.raises(ServingError, match="unknown serve engine"):
            self.plain_run(session, engine="warp")
        assert ENGINES == ("auto", "kernel", "fastforward")

    def test_ineligible_reason_spells_out_each_gate(self, session):
        server = ShardServer(ShardPool.replicate(session, 2))
        from repro.serving.traffic import OpenLoopSource

        open_loop = OpenLoopSource([Request(0, 0.0)])
        assert ineligible_reason(server, open_loop, None) is None
        assert "scenario" in ineligible_reason(
            server, open_loop, parse_scenario("kill:shard0@0.001")
        )
        closed = ClosedLoopClientPool(
            clients=1, requests=2, think_time_s=0.0
        )
        assert "open-loop" in ineligible_reason(server, closed, None)


class TestPercentileSelection:
    """The numpy.partition rewrite must reproduce the sorted-list
    nearest-rank values exactly."""

    @staticmethod
    def legacy(values, q):
        rank = max(1, math.ceil(q / 100 * len(values)))
        return sorted(values)[min(rank, len(values)) - 1]

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_sorted_nearest_rank(self, values, q):
        assert percentile(values, q) == self.legacy(values, q)

    def test_tied_samples(self):
        values = [3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0, 3.0]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(values, q) == self.legacy(values, q)

    def test_empty_sample_raises(self):
        with pytest.raises(ServingError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ServingError):
            percentile([1.0], 101)

    def test_nan_sample_keeps_legacy_sorted_semantics(self):
        values = [2.0, float("nan"), 1.0]
        for q in (0, 50, 100):
            result = percentile(values, q)
            expected = self.legacy(values, q)
            assert result == expected or (
                math.isnan(result) and math.isnan(expected)
            )


class TestServeCli:
    def test_profile_writes_top_cumulative_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "profile.json"
        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "8",
            "--qps", "500", "--profile", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"profile written to {out}" in printed
        assert "engine: fastforward" in printed
        rows = json.loads(out.read_text())
        assert 0 < len(rows) <= 25
        assert set(rows[0]) == {
            "function", "file", "line", "ncalls",
            "primitive_calls", "tottime", "cumtime",
        }
        # Rows come ordered by descending cumulative time.
        cumtimes = [row["cumtime"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_engine_flag_forces_kernel(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "--model", "tiny_cnn", "--device", "pynq-z1",
            "--shards", "2", "--traffic", "poisson", "--requests", "8",
            "--qps", "500", "--engine", "kernel",
        ])
        assert rc == 0
        assert "engine: kernel" in capsys.readouterr().out
