"""Tests for the columnar report: RecordColumns and its statistics.

The oracle is the row-wise arithmetic reports used before they stored
columns, copied below: every ``to_dict()`` field and the ``describe()``
text must come out identical when recomputed from
``list(report.records)``.
"""

import math
import pickle
from dataclasses import replace

import numpy as np
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
    RecordColumns,
    RequestRecord,
    ServingReport,
    ShardPool,
    ShardServer,
    ShardUsage,
    TenantSet,
    TenantSpec,
    TraceSource,
    WorkloadSpec,
    make_requests,
    merge_streams,
)
from repro.serving.tenancy import DEFAULT_TENANT


def make_session(instances=2):
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
    return make_session()


# -- the row-wise oracle ---------------------------------------------------


def row_percentile(values, q):
    rank = max(1, math.ceil(q / 100 * len(values)))
    return sorted(values)[min(rank, len(values)) - 1]


def safe(value):
    if value is None:
        return None
    return None if value != value else value


def row_stats(report):
    """The statistics a report derives from its records, walked row by
    row over ``list(report.records)``."""
    rows = list(report.records)
    count = len(rows)
    latencies = [r.completed - r.arrival for r in rows]
    nan = float("nan")
    makespan = (
        max(r.completed for r in rows) - min(r.arrival for r in rows)
        if rows else 0.0
    )
    grouped = {}
    for record in rows:
        grouped.setdefault(record.tenant, []).append(
            record.completed - record.arrival
        )
    names = set(grouped)
    names.update(report.shed_by_tenant)
    names.update(report.unserved_by_tenant)
    names.update(report.tenant_slo_targets)
    tenants = {}
    for name in sorted(names, key=lambda n: (n != DEFAULT_TENANT, n)):
        values = grouped.get(name, [])
        target = report.tenant_slo_targets.get(name)
        shed = report.shed_by_tenant.get(name, 0)
        unserved = report.unserved_by_tenant.get(name, 0)
        issued = len(values) + shed + unserved
        attainment = None
        if target is not None:
            attainment = (
                sum(1 for value in values if value <= target) / issued
                if issued else 0.0
            )
        tenants[name] = {
            "count": len(values),
            "shed": shed,
            "admission_shed": report.admission_shed_by_tenant.get(name, 0),
            "unserved": unserved,
            "issued": issued,
            "mean_latency_s": (
                sum(values) / len(values) if values else nan
            ),
            "p50_latency_s": (
                row_percentile(values, 50) if values else nan
            ),
            "p99_latency_s": (
                row_percentile(values, 99) if values else nan
            ),
            "slo_target_s": target,
            "slo_attainment": attainment,
        }
    return {
        "rows": rows,
        "count": count,
        "latencies": latencies,
        "makespan": makespan,
        "mean_latency": sum(latencies) / count if rows else nan,
        "mean_queue": (
            sum(r.started - r.arrival for r in rows) / count
            if rows else nan
        ),
        "percentile": lambda q: (
            row_percentile(latencies, q) if rows else nan
        ),
        "tenants": tenants,
    }


def row_to_dict(report):
    stats = row_stats(report)
    count = stats["count"]
    makespan = stats["makespan"]
    batches = sum(usage.batches for usage in report.shards)
    rate = count / makespan if makespan > 0.0 else float("nan")
    gops = (
        report.total_ops / makespan / 1e9 if makespan > 0.0
        else float("nan")
    )
    wall = report.wall_seconds
    shard_seconds = (
        report.shard_seconds if report.shard_seconds is not None
        else len(report.shards) * makespan
    )
    return {
        "schema": 2,
        "count": count,
        "admission_shed": report.admission_shed,
        "tenants": {
            name: {key: safe(value) for key, value in fields.items()}
            for name, fields in stats["tenants"].items()
        },
        "shed": report.shed,
        "rerouted": report.rerouted,
        "unserved": report.unserved,
        "total_ops": report.total_ops,
        "makespan_seconds": makespan,
        "images_per_second": safe(rate),
        "throughput_gops": safe(gops),
        "mean_batch_size": count / batches if batches else 0.0,
        "mean_latency_s": safe(stats["mean_latency"]),
        "p50_latency_s": safe(stats["percentile"](50)),
        "p90_latency_s": safe(stats["percentile"](90)),
        "p99_latency_s": safe(stats["percentile"](99)),
        "mean_queue_s": safe(stats["mean_queue"]),
        "shard_seconds": shard_seconds,
        "events_processed": report.events_processed,
        "wall_seconds": wall,
        "events_per_second": safe(
            report.events_processed / wall if wall > 0.0 else float("nan")
        ),
        "replay_requests_per_second": safe(
            count / wall if wall > 0.0 else float("nan")
        ),
        "scale_ups": sum(
            1 for e in report.scale_events if e.action == "up"
        ),
        "scale_downs": sum(
            1 for e in report.scale_events if e.action == "down"
        ),
        "scale_events": [
            {
                "time": event.time,
                "action": event.action,
                "shard": event.shard,
                "shards_after": event.shards_after,
                "observed": safe(event.observed),
                "metric": event.metric,
            }
            for event in report.scale_events
        ],
        "shards": [
            {
                "name": usage.name,
                "requests": usage.requests,
                "batches": usage.batches,
                "busy_seconds": usage.busy_seconds,
                "active_spans": (
                    None if usage.active_spans is None
                    else [list(span) for span in usage.active_spans]
                ),
            }
            for usage in report.shards
        ],
    }


def row_describe(report):
    stats = row_stats(report)
    payload = row_to_dict(report)
    if not stats["rows"]:
        reasons = []
        if report.shed:
            slo_shed = report.shed - report.admission_shed
            if slo_shed:
                reasons.append(f"{slo_shed} shed by the SLO controller")
            if report.admission_shed:
                reasons.append(
                    f"{report.admission_shed} rejected at admission"
                )
        if report.rerouted:
            reasons.append(f"{report.rerouted} rerouted")
        if report.unserved:
            reasons.append(f"{report.unserved} stranded by a shard outage")
        text = (
            f"served 0 requests over {len(report.shards)} shard(s): "
            "nothing completed"
            + (f" ({', '.join(reasons)})" if reasons else "")
        )
        if report.shed and not report.unserved:
            text += (
                "\n  all requests shed: no request completed, so "
                "the p99 SLO was never evaluated"
            )
        return text
    percentile = stats["percentile"]
    makespan = stats["makespan"]
    lines = [
        f"served {stats['count']} requests over "
        f"{len(report.shards)} shard(s) in "
        f"{makespan * 1e3:.2f} ms "
        f"(mean batch {payload['mean_batch_size']:.1f})",
        f"  throughput: {stats['count'] / makespan:.1f} img/s, "
        f"{report.total_ops / makespan / 1e9:.1f} GOPS aggregate",
        f"  latency ms: mean {stats['mean_latency'] * 1e3:.2f}, "
        f"p50 {percentile(50) * 1e3:.2f}, "
        f"p90 {percentile(90) * 1e3:.2f}, "
        f"p99 {percentile(99) * 1e3:.2f}, "
        f"max {max(stats['latencies']) * 1e3:.2f} "
        f"(queue {stats['mean_queue'] * 1e3:.2f} mean)",
    ]
    if report.wall_seconds > 0.0:
        lines.append(
            f"  host time: {report.events_processed} events in "
            f"{report.wall_seconds:.3f} s "
            f"({payload['events_per_second'] / 1e6:.3g} M events/s)"
        )
    slo_counts = []
    if report.shed:
        shed_text = f"{report.shed} request(s) shed"
        if report.admission_shed:
            shed_text += f" ({report.admission_shed} at admission)"
        slo_counts.append(shed_text)
    if report.rerouted:
        slo_counts.append(f"{report.rerouted} request(s) rerouted")
    if slo_counts:
        lines.append("  slo: " + ", ".join(slo_counts))
    if report.unserved:
        lines.append(
            f"  {report.unserved} request(s) left unserved by a "
            "shard outage"
        )
    tenants = stats["tenants"]
    if len(tenants) > 1 or report.tenant_slo_targets:
        for name, tenant in tenants.items():
            p99 = tenant["p99_latency_s"]
            line = (
                f"  tenant {name:12s} {tenant['count']:5d} served, "
                f"{tenant['shed']:4d} shed, {tenant['unserved']:4d} "
                "unserved"
            )
            if p99 == p99:
                line += f", p99 {p99 * 1e3:.2f} ms"
            target = tenant["slo_target_s"]
            if target is not None:
                verdict = "met" if p99 == p99 and p99 <= target else (
                    "MISSED"
                )
                line += (
                    f" (target {target * 1e3:.2f} ms "
                    f"{verdict}, attainment "
                    f"{(tenant['slo_attainment'] or 0.0) * 100:.1f}%)"
                )
            lines.append(line)
    for usage in report.shards:
        line = (
            f"  {usage.name:12s} {usage.requests:5d} requests in "
            f"{usage.batches:4d} batch(es), "
            f"{usage.utilisation(makespan) * 100:5.1f}% busy"
        )
        lines.append(line)
    return "\n".join(lines)


def trace_replay(session):
    """20k looped-trace arrivals, fast-forwarded with max_batch=4."""
    rng = np.random.default_rng(11)
    base = np.cumsum(rng.exponential(2e-5, size=200)).tolist()
    source = TraceSource(base, time_scale=0.8, loop=100)
    server = ShardServer(ShardPool.replicate(session, 2))
    report = server.run(WorkloadSpec(
        traffic=source, batcher=BatcherOptions(max_batch=4),
    ))
    assert server.last_engine == "fastforward"
    assert report.count == 20_000
    return report


def shedding_tenant_run(session):
    """Two weighted-fair tenants on the kernel; "fast" declares an
    unholdable p99 SLO and gets shed."""
    tenants = TenantSet([
        TenantSpec("fast", weight=3.0, p99_slo_s=1e-6),
        TenantSpec("bulk", weight=1.0),
    ])
    traffic = merge_streams(
        make_requests("poisson", 60, qps=4000.0, seed=3, tenant="fast"),
        make_requests("poisson", 30, qps=2000.0, seed=4, tenant="bulk"),
    )
    server = ShardServer(ShardPool.replicate(session, 2))
    report = server.run(WorkloadSpec(
        traffic=traffic, policy="weighted-fair",
        batcher=BatcherOptions(max_batch=2), tenants=tenants,
    ))
    assert server.last_engine == "kernel"
    assert report.shed_by_tenant.get("fast", 0) > 0
    assert report.count > 0
    return report


def empty_report():
    return ServingReport(
        records=[],
        shards=[ShardUsage("shard0", 0, 0, 0.0)],
        total_ops=0,
        shed=5,
        admission_shed=2,
        shed_by_tenant={"a": 5},
        admission_shed_by_tenant={"a": 2},
        tenant_slo_targets={"a": 0.01},
    )


class TestRowOracle:
    @pytest.mark.parametrize(
        "build", [trace_replay, shedding_tenant_run, None],
        ids=["trace-fastforward", "tenants-kernel-shed", "empty"],
    )
    def test_to_dict_and_describe_match_row_wise(self, session, build):
        report = empty_report() if build is None else build(session)
        assert isinstance(report.records, RecordColumns)
        assert report.to_dict() == row_to_dict(report)
        # NaN-free rendering must be identical too, down to the text.
        assert report.describe() == row_describe(report)

    def test_report_caches_do_not_leak_across_replace(self, session):
        report = shedding_tenant_run(session)
        report.to_dict()
        fewer = replace(report, records=list(report.records)[1:])
        assert fewer.to_dict() == row_to_dict(fewer)
        assert fewer.count == report.count - 1


# -- row-view semantics ----------------------------------------------------


def columns_of(rows):
    return RecordColumns.from_rows(rows)


ROWS = [
    RequestRecord(0, 0.0, 0.1, 0.2, 0.5, "s1", 2, "a"),
    RequestRecord(1, 0.05, 0.1, 0.2, 0.7, "s0", 2, DEFAULT_TENANT),
    RequestRecord(2, 0.3, 0.3, 0.8, 1.1, "s1", 1, "a"),
]


class TestRowView:
    def fresh(self):
        rows = [replace(row) for row in ROWS]
        columns = columns_of(rows)
        # A round trip through pickle drops the row cache, so rows are
        # rebuilt from the columns below.
        return pickle.loads(pickle.dumps(columns))

    def test_len_and_indexing(self):
        columns = self.fresh()
        assert len(columns) == 3
        assert columns[0] == ROWS[0]
        assert columns[-1] == ROWS[2]
        assert columns[-3] == ROWS[0]
        assert columns[np.int64(1)] == ROWS[1]
        with pytest.raises(IndexError):
            columns[3]
        with pytest.raises(IndexError):
            columns[-4]
        with pytest.raises(TypeError):
            columns["0"]
        assert columns._rows is None  # single rows never cache

    def test_slices_are_row_lists(self):
        columns = self.fresh()
        assert columns[1:] == ROWS[1:]
        assert columns[::-1] == ROWS[::-1]
        assert columns[5:] == []
        assert isinstance(columns[:2], list)

    def test_iteration_caches_rows(self):
        columns = self.fresh()
        assert list(columns) == ROWS
        cached = columns._rows
        assert cached is not None
        assert list(columns)[0] is cached[0]
        assert [r.tenant for r in columns] == ["a", DEFAULT_TENANT, "a"]

    def test_from_rows_keeps_the_callers_rows(self):
        rows = list(ROWS)
        columns = columns_of(rows)
        assert columns._rows is rows
        assert columns[0] is rows[0]
        assert columns.shard_names == ("s1", "s0")
        assert columns.shard.tolist() == [0, 1, 0]
        assert columns_of(columns) is columns

    def test_columns_are_read_only(self):
        columns = self.fresh()
        with pytest.raises(ValueError):
            columns.arrival[0] = 1.0

    def test_equality_compares_decoded_values(self):
        recoded = RecordColumns(
            [0, 1, 2], [0.0, 0.05, 0.3], [0.1, 0.1, 0.3],
            [0.2, 0.2, 0.8], [0.5, 0.7, 1.1], [1, 0, 1], [2, 2, 1],
            [1, 0, 1], shard_names=("s0", "s1"),
            tenant_names=(DEFAULT_TENANT, "a"),
        )
        columns = self.fresh()
        assert recoded == columns
        assert recoded == ROWS
        assert recoded != ROWS[:2]
        moved = replace(ROWS[2], shard="s0")
        assert columns_of(ROWS[:2] + [moved]) != recoded
        assert columns_of(ROWS[:2] + [replace(ROWS[2], tenant="b")]) != (
            recoded
        )
        assert columns_of(ROWS[:2]) != recoded

    def test_invalid_columns_are_rejected(self):
        with pytest.raises(ServingError):
            RecordColumns([0], [0.0, 1.0], [0.0], [0.0], [0.0], [0], [1],
                          [0], ("s",), ("t",))
        with pytest.raises(ServingError):
            RecordColumns([0], [0.0], [0.0], [0.0], [0.0], [0], [1],
                          [0], ("s", "s"), ("t",))

    def test_engines_compare_equal(self, session):
        server = ShardServer(ShardPool.replicate(session, 3))
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 60, qps=3000.0, seed=9),
            policy="least-loaded",
            batcher=BatcherOptions(max_batch=3, max_wait_s=2e-4),
        )
        kernel = server.run(replace(spec, engine="kernel"))
        fast = server.run(replace(spec, engine="fastforward"))
        # Neither engine builds a row: both write columns directly.
        assert kernel.records._rows is None
        assert fast.records._rows is None
        assert fast.records == kernel.records
        assert list(fast.records) == list(kernel.records)
        assert fast == kernel

    def test_pickle_round_trip_drops_the_row_cache(self, session):
        report = shedding_tenant_run(session)
        list(report.records)
        report.to_dict()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.records._rows is None
        assert clone == report
        assert clone.to_dict() == report.to_dict()
        assert list(clone.records) == list(report.records)


# -- columnar statistics vs the row-wise reference -------------------------


record_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e-2),
        st.floats(min_value=0.0, max_value=1e-2),
        st.sampled_from([DEFAULT_TENANT, "a", "b"]),
        st.sampled_from(["s0", "s1"]),
    ),
    max_size=60,
)


class TestColumnarStatistics:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=record_rows,
        target=st.floats(min_value=1e-5, max_value=3e-2),
        q=st.floats(min_value=0.0, max_value=100.0),
        shed=st.integers(min_value=0, max_value=5),
    )
    def test_matches_row_wise_reference(self, rows, target, q, shed):
        records = [
            RequestRecord(
                index, arrival, arrival, arrival + wait,
                arrival + wait + service, shard, 1, tenant,
            )
            for index, (arrival, wait, service, tenant, shard)
            in enumerate(rows)
        ]
        report = ServingReport(
            records=records,
            shards=[ShardUsage("s0", 0, 1, 0.0),
                    ShardUsage("s1", 0, 1, 0.0)],
            total_ops=len(records),
            shed=shed,
            shed_by_tenant={"a": shed} if shed else {},
            tenant_slo_targets={"a": target},
        )
        stats = row_stats(report)
        issued = len(records) + shed
        within = sum(1 for value in stats["latencies"] if value <= target)
        assert report.slo_attainment(target) == (
            within / issued if issued else 0.0
        )
        expected = stats["percentile"](q)
        got = report.latency_percentile(q)
        assert got == expected or (got != got and expected != expected)
        breakdowns = {
            name: {key: safe(value) for key, value in fields.items()}
            for name, fields in stats["tenants"].items()
        }
        assert {
            name: breakdown.to_dict()
            for name, breakdown in report.per_tenant().items()
        } == breakdowns
        assert list(report.per_tenant()) == list(breakdowns)

    def test_a_latency_equal_to_the_target_meets_it(self):
        report = ServingReport(
            records=ROWS, shards=[ShardUsage("s0", 1, 1, 0.0)],
            total_ops=3, shed=1,
        )
        target = ROWS[0].completed - ROWS[0].arrival
        assert report.served_within(target) == 1
        assert report.slo_attainment(target) == 1 / 4
        assert report.survival(target / 2, (2.0,)) == {"2x": 1 - 1 / 4}
