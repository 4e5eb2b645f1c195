"""Tests for repro.serving — shards, scheduling, batching, metrics."""

import pytest

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    DynamicBatcher,
    Kill,
    Request,
    ShardPool,
    ShardServer,
    WorkloadSpec,
    analytical_reference,
    make_requests,
    percentile,
)
from repro.serving.scheduler import Scheduler, make_policy
from repro.serving.traffic import (
    burst_arrivals,
    fixed_qps_arrivals,
    poisson_arrivals,
)


def make_session(instances=1, frequency=100.0):
    """A tiny pinned deployment that keeps the probe simulation fast."""
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


def spec(traffic, policy="round-robin", max_batch=None, **fields):
    """A workload spec for ``traffic`` with a ``max_batch`` batcher."""
    batcher = None if max_batch is None else BatcherOptions(max_batch)
    return WorkloadSpec(
        traffic=traffic, policy=policy, batcher=batcher, **fields
    )


def requests_at(arrivals):
    return [Request(index, arrival) for index, arrival in
            enumerate(arrivals)]


# -- traffic ---------------------------------------------------------------


class TestTraffic:
    def test_uniform_all_at_zero(self):
        requests = make_requests("uniform", 5)
        assert [r.arrival for r in requests] == [0.0] * 5
        assert [r.index for r in requests] == list(range(5))

    def test_fixed_qps_spacing(self):
        assert fixed_qps_arrivals(4, 10.0) == pytest.approx(
            [0.0, 0.1, 0.2, 0.3]
        )

    def test_poisson_deterministic_and_sorted(self):
        a = poisson_arrivals(50, 100.0, seed=7)
        b = poisson_arrivals(50, 100.0, seed=7)
        assert a == b
        assert a == sorted(a)
        assert all(t > 0 for t in a)
        assert poisson_arrivals(50, 100.0, seed=8) != a

    def test_burst_groups(self):
        arrivals = burst_arrivals(6, qps=10.0, burst=3)
        assert arrivals == pytest.approx([0.0, 0.0, 0.0, 0.3, 0.3, 0.3])

    def test_bad_inputs(self):
        with pytest.raises(ServingError):
            make_requests("diurnal", 4)
        with pytest.raises(ServingError):
            make_requests("poisson", 4)  # qps required
        with pytest.raises(ServingError):
            make_requests("uniform", 0)
        with pytest.raises(ServingError):
            make_requests("poisson", 4, qps=-1.0)
        with pytest.raises(ServingError):
            make_requests("burst", 4, qps=1.0, burst=0)
        with pytest.raises(ServingError):
            Request(0, -1.0)


# -- dynamic batcher -------------------------------------------------------


def flushes(requests, max_batch, max_wait_s):
    batcher = DynamicBatcher(
        BatcherOptions(max_batch=max_batch, max_wait_s=max_wait_s)
    )
    return [
        (at, [r.index for r in batch])
        for at, batch in batcher.batches(requests)
    ]


class TestDynamicBatcher:
    def test_size_trigger_on_simultaneous_arrivals(self):
        out = flushes(requests_at([0.0] * 5), max_batch=2, max_wait_s=0.0)
        assert out == [
            (0.0, [0, 1]), (0.0, [2, 3]), (0.0, [4]),
        ]

    def test_max_wait_flush(self):
        # Neither request fills the batch; the head's wait budget does.
        out = flushes(requests_at([0.0, 0.2]), max_batch=8,
                      max_wait_s=0.5)
        assert out == [(0.5, [0, 1])]

    def test_empty_queue_wakeup_uses_fresh_deadline(self):
        # After the 1.0 flush empties the queue, the next head (t=10)
        # starts a fresh window — it must not inherit the stale
        # deadline and must still fill by size at 10.2.
        out = flushes(requests_at([0.0, 10.0, 10.2]), max_batch=2,
                      max_wait_s=1.0)
        assert out == [(1.0, [0]), (10.2, [1, 2])]

    def test_no_time_travel_into_earlier_batches(self):
        # Request 1 arrives after request 0's deadline fired: it must
        # not appear in the earlier batch even though it arrived before
        # the generator got around to it.
        out = flushes(requests_at([0.0, 0.9]), max_batch=8,
                      max_wait_s=0.5)
        assert out == [(0.5, [0]), (1.4, [1])]

    def test_flush_times_nondecreasing(self):
        requests = make_requests("poisson", 40, qps=50.0, seed=3)
        out = flushes(requests, max_batch=3, max_wait_s=0.01)
        times = [at for at, _ in out]
        assert times == sorted(times)
        served = [i for _, batch in out for i in batch]
        assert sorted(served) == list(range(40))

    def test_options_validated(self):
        with pytest.raises(ServingError):
            BatcherOptions(max_batch=0)
        with pytest.raises(ServingError):
            BatcherOptions(max_wait_s=-0.1)


# -- shards and pools ------------------------------------------------------


class TestShardPool:
    def test_replicate_shares_deployment(self):
        pool = ShardPool.replicate(make_session(), 3)
        compiled = pool.shards[0].session.compiled()
        for shard in pool.shards[1:]:
            assert shard.session.compiled() is compiled
            assert shard.session.cache is pool.shards[0].session.cache
            assert shard._probe_of is pool.shards[0]
        # Runtimes must NOT be shared (mutable DRAM state per shard).
        assert pool.shards[0].runner.runtime is not \
            pool.shards[1].runner.runtime

    def test_replicated_probe_simulated_once(self):
        pool = ShardPool.replicate(make_session(instances=2), 2)
        first = pool.shards[0].probe_seconds()
        # Breaking the replica's own runtime proves delegation.
        pool.shards[1].runner.runtime = None
        assert pool.shards[1].probe_seconds() == first

    def test_pool_validation(self):
        with pytest.raises(ServingError):
            ShardPool([])
        with pytest.raises(ServingError):
            ShardPool.replicate(make_session(), 0)
        session = make_session()
        with pytest.raises(ServingError):
            ShardPool.of(session, session, names=("same", "same"))

    def test_capacity_and_instances(self):
        pool = ShardPool.replicate(make_session(instances=2), 2)
        assert pool.total_instances == 4
        assert pool.capacity_images_per_second() > 0


# -- scheduler policies ----------------------------------------------------


class TestScheduler:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ServingError):
            make_policy("fifo")
        with pytest.raises(ServingError):
            Scheduler([], "round-robin")

    def test_uneven_round_robin_tail(self):
        # 10 single-request batches over 3 shards: 4/3/3, and the
        # makespan is the most-loaded shard's chain.
        pool = ShardPool.replicate(make_session(), 3)
        report = ShardServer(pool).run(
            spec(make_requests("uniform", 10), max_batch=1)
        )
        counts = [usage.requests for usage in report.shards]
        assert counts == [4, 3, 3]
        per_image = pool.shards[0].probe_seconds()
        assert report.makespan_seconds == pytest.approx(4 * per_image)

    def test_single_shard_degenerate_case(self):
        # One shard serves everything and matches BatchRunner exactly.
        pool = ShardPool.replicate(make_session(instances=2), 1)
        report = ShardServer(pool).run(
            spec(make_requests("uniform", 8), "least-loaded", max_batch=8)
        )
        assert report.per_shard()["shard0"].requests == 8
        assert report.makespan_seconds == pytest.approx(
            analytical_reference(pool, 8)
        )

    @pytest.mark.parametrize("policy", ["least-loaded",
                                        "shortest-latency"])
    def test_policy_equivalence_on_identical_shards(self, policy):
        """With identical shards and equal-size back-to-back batches,
        the stateful policies degenerate to round-robin, record for
        record.  (They may legitimately diverge once the queue drains
        and every shard goes idle — round-robin's rotation is the only
        state that survives an idle gap — so the equivalence case is
        closed-loop traffic.)"""
        session = make_session(instances=2)
        requests = make_requests("uniform", 30)
        pool_a = ShardPool.replicate(session, 2)
        baseline = ShardServer(pool_a).run(spec(requests, max_batch=1))
        pool_b = ShardPool.replicate(session.clone(), 2)
        other = ShardServer(pool_b).run(
            spec(requests, policy, max_batch=1)
        )
        assert other.records == baseline.records

    def test_shortest_latency_prefers_faster_shard(self):
        # Same design at 100 vs 25 MHz: the Eq. 12-15 estimate makes
        # the fast shard absorb most of a saturating stream.
        fast = make_session(frequency=100.0)
        slow = make_session(frequency=25.0)
        pool = ShardPool.of(fast, slow, names=("fast", "slow"))
        qps = 2.0 * pool.capacity_images_per_second()
        report = ShardServer(pool).run(spec(
            make_requests("poisson", 40, qps=qps, seed=5),
            "shortest-latency",
            max_batch=1,
        ))
        shares = report.per_shard()
        assert shares["fast"].requests > 2 * shares["slow"].requests

    def test_least_loaded_follows_backlog(self):
        # A pre-loaded shard receives nothing until its backlog drains.
        pool = ShardPool.replicate(make_session(), 2)
        pool.shards[0].busy_until = 1e9
        report = ShardServer(pool).run(
            spec(make_requests("uniform", 4), "least-loaded", max_batch=1)
        )
        # run() resets timelines -- reload and drive the scheduler
        # directly instead.
        scheduler = Scheduler(pool.shards, "least-loaded")
        pool.shards[0].busy_until = 1e9
        assert scheduler.assign(1, now=0.0) is pool.shards[1]
        assert report.count == 4


# -- end-to-end serving ----------------------------------------------------


class TestShardServer:
    def test_uniform_matches_batchrunner_reference(self):
        # The acceptance criterion: uniform traffic through the full
        # batcher/scheduler stack reproduces the analytical makespan.
        pool = ShardPool.replicate(make_session(instances=2), 2)
        report = ShardServer(pool).run(
            spec(make_requests("uniform", 32), "least-loaded", max_batch=4)
        )
        reference = analytical_reference(pool, 32)
        assert abs(report.makespan_seconds - reference) / reference < 0.01
        assert report.throughput_gops == pytest.approx(
            report.total_ops / reference / 1e9, rel=0.01
        )

    def test_serve_is_repeatable(self):
        pool = ShardPool.replicate(make_session(), 2)
        server = ShardServer(pool)
        # 13 requests / max_batch 2 = 7 batches — an odd count, so a
        # round-robin rotation surviving across runs would flip every
        # assignment of the second run.
        workload = spec(
            make_requests("fixed-qps", 13, qps=1000.0), max_batch=2
        )
        first = server.run(workload)
        second = server.run(workload)
        assert first.records == second.records
        assert first.shards == second.shards

    def test_records_sorted_and_complete(self):
        pool = ShardPool.replicate(make_session(), 2)
        report = ShardServer(pool).run(
            spec(make_requests("poisson", 17, qps=500.0))
        )
        assert [r.index for r in report.records] == list(range(17))
        for record in report.records:
            assert record.arrival <= record.dispatched <= record.started
            assert record.completed > record.started

    def test_empty_stream_rejected(self):
        pool = ShardPool.replicate(make_session(), 1)
        with pytest.raises(ServingError):
            ShardServer(pool).run(WorkloadSpec(traffic=[]))

    def test_batching_unlocks_instance_parallelism(self):
        # Batches of NI images keep all instances busy; singles leave
        # NI-1 idle -- the dynamic batcher's reason to exist.
        session = make_session(instances=4)
        batched = ShardServer(ShardPool.replicate(session, 1)).run(
            spec(make_requests("uniform", 16), max_batch=4)
        )
        singles = ShardServer(ShardPool.replicate(session.clone(), 1)).run(
            spec(make_requests("uniform", 16), max_batch=1)
        )
        assert batched.makespan_seconds < singles.makespan_seconds / 3


# -- run independence and heterogeneous pools ------------------------------


class TestServeIndependence:
    def test_back_to_back_serves_reset_pool_and_policy_state(self):
        """A run() after a different workload matches a fresh server
        bit for bit: no timeline, counter or rotation state leaks."""
        session = make_session(instances=2)
        pool = ShardPool.replicate(session, 2)
        server = ShardServer(pool)
        # An odd batch count, so a leaked rotation would flip every
        # assignment of the next run; uniform-after-poisson would also
        # expose leaked busy_until timelines.
        server.run(spec(
            make_requests("poisson", 13, qps=500.0, seed=3), max_batch=2
        ))
        second = server.run(spec(make_requests("uniform", 12), max_batch=2))
        fresh_pool = ShardPool.replicate(session.clone(), 2)
        fresh = ShardServer(fresh_pool).run(
            spec(make_requests("uniform", 12), max_batch=2)
        )
        assert second.records == fresh.records
        assert second.shards == fresh.shards
        assert second.total_ops == fresh.total_ops

    def test_serve_resets_scenario_damage(self):
        """A failed shard from a scenario run is back for the next
        run() — pool.reset() restores availability."""
        pool = ShardPool.replicate(make_session(), 2)
        server = ShardServer(pool)
        requests = make_requests("uniform", 8)
        baseline = server.run(spec(requests, "least-loaded", max_batch=1))
        killed = server.run(spec(
            requests, "least-loaded", max_batch=1,
            scenario=ChaosScenario([Kill("shard0", at=0.0)]),
        ))
        assert killed.per_shard()["shard0"].requests == 0
        again = server.run(spec(requests, "least-loaded", max_batch=1))
        assert again.records == baseline.records
        assert again.per_shard()["shard0"].requests > 0


class TestHeterogeneousPools:
    def test_named_pool_serves_and_reports_by_name(self):
        fast = make_session(instances=2, frequency=100.0)
        slow = make_session(instances=1, frequency=50.0)
        pool = ShardPool.of(fast, slow, names=("cloud", "edge"))
        assert [shard.name for shard in pool] == ["cloud", "edge"]
        assert pool.total_instances == 3
        assert "cloud" in pool.describe() and "edge" in pool.describe()
        report = ShardServer(pool).run(spec(
            make_requests("uniform", 18), "shortest-latency", max_batch=2
        ))
        assert report.count == 18
        assert set(report.per_shard()) == {"cloud", "edge"}
        # Both shards contribute, the fast one more.
        shares = report.per_shard()
        assert shares["cloud"].requests > shares["edge"].requests > 0

    def test_default_names_and_name_mismatch(self):
        a, b = make_session(), make_session()
        pool = ShardPool.of(a, b)
        assert [shard.name for shard in pool] == ["shard0", "shard1"]
        with pytest.raises(ServingError):
            ShardPool.of(a, b, names=("only-one",))


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 11))
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 99) == 10
        assert percentile(values, 100) == 10

    def test_percentile_validation(self):
        with pytest.raises(ServingError):
            percentile([], 50)
        with pytest.raises(ServingError):
            percentile([1.0], 101)

    def test_report_latency_includes_queueing(self):
        pool = ShardPool.replicate(make_session(), 1)
        report = ShardServer(pool).run(
            spec(make_requests("uniform", 3), max_batch=1)
        )
        per_image = pool.shards[0].probe_seconds()
        # Requests run back to back on one instance: latencies are
        # 1x, 2x, 3x the per-image time.
        assert report.latencies() == pytest.approx(
            [per_image, 2 * per_image, 3 * per_image]
        )
        assert report.mean_queue_seconds == pytest.approx(per_image)
        assert report.describe()  # renders without crashing
