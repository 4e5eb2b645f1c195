"""Tests for repro.serving.autoscaler + trace replay.

The elasticity invariants are property-tested: whatever the seeded
trace and the autoscaler contract, the shard count stays within
[min, max], no request is ever dispatched to a shard still in
warm-up, and the open-loop request set is served in full (scale-downs
re-queue, never drop).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.errors import ServingError
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import (
    AutoscalerOptions,
    BatcherOptions,
    Request,
    RequestRecord,
    ScaleEvent,
    ServingReport,
    ShardPool,
    ShardServer,
    ShardUsage,
    SloOptions,
    TraceSource,
    WorkloadSpec,
    load_trace,
    make_requests,
)


def make_session(instances=2, frequency=100.0):
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
def pool4():
    """One 4-shard pool shared by every test: ``run`` resets all
    per-run state, so back-to-back runs are independent."""
    return ShardPool.replicate(make_session(), 4)


@pytest.fixture(scope="module")
def probe(pool4):
    return pool4.shards[0].probe_seconds()


def serve(pool, traffic, autoscale, policy="least-loaded", max_batch=2,
          slo=None):
    server = ShardServer(pool)
    return server, server.run(WorkloadSpec(
        traffic=traffic,
        policy=policy,
        batcher=BatcherOptions(max_batch=max_batch),
        slo=slo,
        autoscale=autoscale,
    ))


def p99_options(probe, **kw):
    base = dict(
        min_shards=1, max_shards=4, target_p99_s=6 * probe,
        warmup_s=2 * probe, tick_s=probe, cooldown_s=0.0,
        min_samples=2, window=16,
    )
    base.update(kw)
    return AutoscalerOptions(**base)


def overload_requests(probe, count=64, factor=3.0, burst=16):
    """Bursty open-loop traffic at ``factor``x one 2-instance shard."""
    qps = factor * 2.0 / probe
    return make_requests("burst", count, qps=qps, burst=burst)


# -- options validation ----------------------------------------------------


class TestAutoscalerOptions:
    def test_rejects_bad_configs(self):
        bad = [
            dict(min_shards=0, max_shards=2, target_p99_s=1.0),
            dict(min_shards=3, max_shards=2, target_p99_s=1.0),
            dict(min_shards=1, max_shards=2),  # no target
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 target_utilisation=0.5),  # both targets
            dict(min_shards=1, max_shards=2, target_utilisation=0.0),
            dict(min_shards=1, max_shards=2, target_utilisation=1.5),
            dict(min_shards=1, max_shards=2, target_p99_s=-1.0),
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 warmup_s=-0.1),
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 cooldown_s=-0.1),
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 tick_s=0.0),
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 window=4, min_samples=8),
            dict(min_shards=1, max_shards=2, target_p99_s=1.0,
                 scale_down_margin=1.0),
            dict(min_shards=1, max_shards=2, target_utilisation=0.5,
                 utilisation_window_s=0.0),
        ]
        for kwargs in bad:
            with pytest.raises(ServingError):
                AutoscalerOptions(**kwargs)

    def test_defaults_derive_from_the_target(self):
        p99 = AutoscalerOptions(
            min_shards=1, max_shards=2, target_p99_s=0.1
        )
        assert p99.metric == "p99"
        assert p99.effective_tick_s == pytest.approx(0.05)
        assert p99.effective_cooldown_s == pytest.approx(0.1)
        util = AutoscalerOptions(
            min_shards=1, max_shards=2, target_utilisation=0.8,
            tick_s=0.01,
        )
        assert util.metric == "utilisation"
        assert util.effective_utilisation_window_s == pytest.approx(0.08)

    def test_pool_smaller_than_max_is_rejected(self):
        pool = ShardPool.replicate(make_session(), 2)
        with pytest.raises(ServingError):
            ShardServer(pool).run(WorkloadSpec(
                traffic=make_requests("uniform", 4),
                autoscale=AutoscalerOptions(
                    min_shards=1, max_shards=4, target_p99_s=1.0
                ),
            ))


# -- elasticity behaviour --------------------------------------------------


class TestAutoscaling:
    def test_overload_scales_up_and_spreads_the_backlog(
        self, pool4, probe
    ):
        requests = overload_requests(probe)
        server, report = serve(pool4, requests, p99_options(probe))
        assert report.count == len(requests)
        assert report.scale_ups >= 1
        # The rebalance on scale-up moves queued work onto the new
        # shards: the run must beat a single fixed shard.
        _, fixed = serve(
            ShardPool.replicate(make_session(), 1), requests, None
        )
        assert report.makespan_seconds < fixed.makespan_seconds
        served_by_new = sum(
            report.per_shard()[shard.name].requests
            for shard in pool4.shards[1:]
        )
        assert served_by_new > 0
        assert server.last_autoscaler is not None
        assert "autoscaler" in server.last_autoscaler.describe()

    def test_min_equals_max_matches_the_fixed_pool(self, pool4, probe):
        requests = overload_requests(probe)
        _, fixed = serve(pool4, requests, None)
        _, pinned = serve(
            pool4, requests,
            p99_options(probe, min_shards=4, max_shards=4),
        )
        assert pinned.records == fixed.records
        assert pinned.scale_events == []
        # The only difference is the explicit elasticity accounting.
        assert pinned.shard_seconds is not None
        assert fixed.shard_seconds is None
        assert pinned.total_shard_seconds() == pytest.approx(
            fixed.total_shard_seconds()
        )

    def test_warming_shard_takes_no_work(self, pool4, probe):
        warmup = 5 * probe
        _, report = serve(
            pool4, overload_requests(probe),
            p99_options(probe, warmup_s=warmup),
        )
        assert report.scale_ups >= 1
        for event in report.scale_events:
            if event.action != "up":
                continue
            for record in report.records:
                if record.shard == event.shard:
                    assert not (
                        event.time <= record.dispatched
                        < event.time + warmup
                    )

    def test_lull_earns_a_scale_down(self, pool4, probe):
        # A dense head then a long sparse tail: the p99 window drains
        # to tail latencies, which sit far under the target.
        head = [Request(i, 0.0) for i in range(32)]
        tail = [
            Request(32 + i, 20 * probe + i * 6 * probe) for i in range(24)
        ]
        _, report = serve(
            pool4, head + tail,
            p99_options(probe, min_samples=4),
        )
        assert report.scale_ups >= 1
        assert report.scale_downs >= 1
        assert report.count == len(head) + len(tail)
        downs = [e for e in report.scale_events if e.action == "down"]
        ups = {e.shard: e.time for e in report.scale_events
               if e.action == "up"}
        for event in downs:
            # No dispatch lands on a downed shard until it is re-upped.
            revived = [
                t for shard, t in ups.items()
                if shard == event.shard and t > event.time
            ]
            horizon = min(revived) if revived else float("inf")
            for record in report.records:
                if record.shard == event.shard:
                    assert not (event.time <= record.dispatched < horizon)

    def test_cooldown_bounds_the_decision_rate(self, pool4, probe):
        cooldown = 10 * probe
        _, report = serve(
            pool4, overload_requests(probe),
            p99_options(probe, cooldown_s=cooldown),
        )
        times = [event.time for event in report.scale_events]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= cooldown - 1e-12

    def test_utilisation_mode_scales_up(self, pool4, probe):
        options = AutoscalerOptions(
            min_shards=1, max_shards=4, target_utilisation=0.75,
            warmup_s=probe, tick_s=probe, cooldown_s=0.0,
            utilisation_window_s=4 * probe,
        )
        _, report = serve(pool4, overload_requests(probe), options)
        assert report.scale_ups >= 1
        assert all(e.metric == "utilisation" for e in report.scale_events)
        # Window-clipped busy: at most 1.0 per active shard (readings
        # right after a scale-down may exceed 1 — busy accrued by the
        # decommissioned shard weighed against surviving capacity).
        assert all(0.0 <= e.observed <= 2.0 for e in report.scale_events)

    def test_composes_with_the_slo_controller(self, pool4, probe):
        # Both controllers tick on one kernel; owner tags keep their
        # chains apart (without them every tick would re-schedule
        # twice — a tick explosion).
        slo = SloOptions(
            p99_target_s=8 * probe, action="shed", window=16,
            min_samples=4, tick_s=probe,
        )
        server, report = serve(
            pool4, overload_requests(probe), p99_options(probe), slo=slo,
        )
        assert server.last_slo_controller.ticks > 0
        assert server.last_autoscaler.ticks > 0
        assert report.count + report.shed == 64


# -- report plumbing -------------------------------------------------------


class TestElasticityReporting:
    def test_shard_seconds_and_spans(self, pool4, probe):
        requests = overload_requests(probe)
        _, report = serve(pool4, requests, p99_options(probe))
        assert report.shard_seconds is not None
        # Elastic bill strictly under the full-pool bill (standby
        # shards start parked), and at least the single-shard bill.
        assert report.total_shard_seconds() < (
            len(pool4) * report.makespan_seconds
        )
        assert report.total_shard_seconds() >= report.makespan_seconds
        for usage in report.shards:
            assert usage.active_spans is not None
            for start, end in usage.active_spans:
                assert 0.0 <= start <= end
        # shard0 is active for the whole run.
        first = report.per_shard()["shard0"]
        assert first.active_seconds(report.makespan_seconds) == (
            pytest.approx(report.makespan_seconds)
        )

    def test_report_json_round_trips(self, pool4, probe):
        _, report = serve(pool4, overload_requests(probe),
                          p99_options(probe))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["count"] == report.count
        assert payload["scale_ups"] == report.scale_ups >= 1
        assert payload["shard_seconds"] == pytest.approx(
            report.total_shard_seconds()
        )
        assert len(payload["scale_events"]) == len(report.scale_events)
        assert len(payload["shards"]) == 4

    def test_empty_report_json_has_no_nans(self):
        report = ServingReport(records=[], shards=[], total_ops=0)
        text = json.dumps(report.to_dict())
        assert "NaN" not in text
        assert json.loads(text)["images_per_second"] is None

    def test_describe_surfaces_only_nonzero_counters(self):
        usage = [ShardUsage("s0", 1, 1, 0.5)]
        record = RequestRecord(
            index=0, arrival=0.0, dispatched=0.0, started=0.0,
            completed=1.0, shard="s0", batch_size=1,
        )
        plain = ServingReport([record], usage, total_ops=10)
        assert "shed" not in plain.describe()
        assert "rerouted" not in plain.describe()
        assert "autoscaler" not in plain.describe()
        shed_only = ServingReport([record], usage, total_ops=10, shed=3)
        assert "3 request(s) shed" in shed_only.describe()
        assert "rerouted" not in shed_only.describe()
        reroute_only = ServingReport(
            [record], usage, total_ops=10, rerouted=2
        )
        assert "2 request(s) rerouted" in reroute_only.describe()
        assert "shed" not in reroute_only.describe()

    def test_describe_includes_scale_counts(self, pool4, probe):
        _, report = serve(pool4, overload_requests(probe),
                          p99_options(probe))
        text = report.describe()
        assert f"{report.scale_ups} scale-up(s)" in text
        assert "shard-ms" in text
        assert "active" in text

    def test_scale_event_validates_action(self):
        with pytest.raises(ServingError):
            ScaleEvent(0.0, "sideways", "s0", 1, 0.5, "p99")


# -- trace replay ----------------------------------------------------------


class TestTraceReplay:
    def test_csv_with_header_and_extra_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "shape,timestamp\n3x224x224,100.5\n3x224x224,100.0\n"
            "3x224x224,101.0\n"
        )
        assert load_trace(path) == [100.5, 100.0, 101.0]
        source = TraceSource.load(path)
        # Rebased to the earliest arrival, sorted.
        assert source.arrivals == [0.0, 0.5, 1.0]

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.0\n0.25\n0.5\n")
        assert load_trace(path) == [0.0, 0.25, 0.5]

    def test_jsonl_numbers_and_objects(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '1.5\n{"timestamp": 2.0, "shape": [3, 224, 224]}\n'
            '{"arrival": 0.5}\n'
        )
        assert load_trace(path) == [1.5, 2.0, 0.5]

    def test_json_top_level_array(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('[\n  0.1,\n  {"ts": 0.2},\n  0.3\n]\n')
        assert load_trace(path) == [0.1, 0.2, 0.3]

    def test_time_scale_and_loop(self):
        source = TraceSource([0.0, 1.0, 2.0], time_scale=0.5, loop=2)
        # Scaled span 1.0, mean gap 0.5: the second pass starts one
        # mean gap after the first ends.
        assert source.arrivals == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        requests = source.requests()
        assert [r.index for r in requests] == list(range(6))
        assert source.mean_qps() == pytest.approx(2.0)

    def test_epoch_timestamps_rebase(self):
        source = TraceSource([1690000000.0, 1690000001.0])
        assert source.arrivals == [0.0, 1.0]

    def test_serves_like_the_equivalent_request_list(self, pool4):
        source = TraceSource([0.0, 0.001, 0.002, 0.003], loop=2)
        _, from_source = serve(pool4, source, None)
        _, from_list = serve(pool4, source.requests(), None)
        assert from_source.records == from_list.records

    def test_bad_traces_are_rejected(self, tmp_path):
        cases = {
            "empty.csv": "",
            "badts.csv": "timestamp\nsoon\n",
            "nokey.jsonl": '{"shape": "3x3"}\n',
            "notjson.jsonl": "{nope\n",
            "noheader.csv": "shape,size\n3x3,1\n",
            "inf.csv": "timestamp\ninf\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ServingError):
                load_trace(path)
        with pytest.raises(ServingError):
            load_trace(tmp_path / "missing.csv")
        with pytest.raises(ServingError):
            TraceSource([])
        with pytest.raises(ServingError):
            TraceSource([0.0], time_scale=0.0)
        with pytest.raises(ServingError):
            TraceSource([0.0], loop=0)

    def test_describe_names_the_trace(self, tmp_path):
        path = tmp_path / "prod.csv"
        path.write_text("0.0\n1.0\n")
        source = TraceSource.load(path, time_scale=0.5, loop=3)
        assert "prod.csv" in source.describe()
        assert "6 arrivals" in source.describe()


# -- the elasticity properties ---------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    data=hst.data(),
    min_shards=hst.integers(1, 2),
    max_shards=hst.integers(2, 4),
    warmup_ticks=hst.floats(0.0, 3.0),
    cooldown_ticks=hst.floats(0.0, 2.0),
    use_util=hst.booleans(),
)
def test_elasticity_invariants(
    pool4, probe, data, min_shards, max_shards, warmup_ticks,
    cooldown_ticks, use_util,
):
    """For any seeded trace and autoscaler contract: the shard count
    stays within [min, max], no request is dispatched to a shard
    still in warm-up (or parked in standby), and every open-loop
    request is served."""
    min_shards = min(min_shards, max_shards)
    arrivals = data.draw(
        hst.lists(
            hst.floats(0.0, 30.0 * probe), min_size=1, max_size=48
        ),
        label="arrivals",
    )
    if use_util:
        target = dict(
            target_utilisation=data.draw(
                hst.floats(0.5, 0.95), label="target_util"
            ),
            utilisation_window_s=4 * probe,
        )
    else:
        target = dict(
            target_p99_s=data.draw(
                hst.floats(2.0, 12.0), label="target_p99_ticks"
            ) * probe,
            min_samples=2,
            window=16,
        )
    options = AutoscalerOptions(
        min_shards=min_shards,
        max_shards=max_shards,
        warmup_s=warmup_ticks * probe,
        tick_s=probe,
        cooldown_s=cooldown_ticks * probe,
        **target,
    )
    trace = TraceSource(arrivals)
    _, report = serve(pool4, trace, options)

    # Every request served: scale-downs re-queue, never drop.
    assert report.count == len(arrivals)

    # No decision on a drained system: every scale event precedes the
    # last completion (the windows hold only past evidence there).
    last_completed = max(r.completed for r in report.records)
    assert all(e.time <= last_completed for e in report.scale_events)

    # Spans never invert, even for decisions near the end of the run.
    for usage in report.shards:
        for start, end in usage.active_spans:
            assert start <= end

    # The provisioned count walks within [min, max].
    count = min_shards
    for event in sorted(report.scale_events, key=lambda e: e.time):
        count += 1 if event.action == "up" else -1
        assert min_shards <= count <= max_shards
        assert event.shards_after == count
    assert count == report.scale_ups - report.scale_downs + min_shards

    # No dispatch to a warming or standby shard: a shard beyond the
    # initial min takes work only inside a provisioned span that
    # started warmup_s after its scale-up decision.
    ups = {}
    for event in report.scale_events:
        if event.action == "up":
            ups.setdefault(event.shard, []).append(event.time)
    initial = {shard.name for shard in pool4.shards[:min_shards]}
    for record in report.records:
        if record.shard in initial:
            continue
        active_at = [
            t + options.warmup_s for t in ups.get(record.shard, [])
        ]
        assert any(
            record.dispatched >= ready - 1e-12 for ready in active_at
        ), (
            f"{record.shard} took work at {record.dispatched} but "
            f"activates at {active_at}"
        )
