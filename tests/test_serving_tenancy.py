"""Tests for multi-tenant serving and the WorkloadSpec serve API."""

import json
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
    BatcherOptions,
    ClosedLoopClientPool,
    Request,
    ShardPool,
    ShardServer,
    TenantSet,
    TenantSpec,
    TraceSource,
    WeightedFair,
    WorkloadSpec,
    assign_tenants,
    make_requests,
    merge_streams,
    parse_tenant,
    parse_tenants,
)
from repro.serving.scheduler import Scheduler
from repro.serving.tenancy import DEFAULT_TENANT, split_clients
from repro.serving.traffic import load_tagged_trace


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


@pytest.fixture(scope="module")
def session():
    return make_session(instances=2)


TWO_TENANTS = TenantSet([
    TenantSpec("fast", weight=3.0, p99_slo_s=0.010),
    TenantSpec("bulk", weight=1.0, tier="batch", max_outstanding=4),
])


# -- tenancy primitives ----------------------------------------------------


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("a")
        assert spec.weight == 1.0
        assert spec.tier == "interactive"
        assert spec.p99_slo_s is None
        assert spec.max_outstanding is None

    def test_validation(self):
        with pytest.raises(ServingError):
            TenantSpec("")
        with pytest.raises(ServingError):
            TenantSpec("a,b")
        with pytest.raises(ServingError):
            TenantSpec("a", weight=0.0)
        with pytest.raises(ServingError):
            TenantSpec("a", tier="gold")
        with pytest.raises(ServingError):
            TenantSpec("a", p99_slo_s=-1.0)
        with pytest.raises(ServingError):
            TenantSpec("a", max_outstanding=0)

    def test_parse_grammar(self):
        spec = parse_tenant("fast:weight=2.5:tier=batch:p99=12:cap=8")
        assert spec.name == "fast"
        assert spec.weight == 2.5
        assert spec.tier == "batch"
        assert spec.p99_slo_s == pytest.approx(0.012)
        assert spec.max_outstanding == 8
        assert parse_tenant("x").weight == 1.0
        with pytest.raises(ServingError):
            parse_tenant("x:weight")
        with pytest.raises(ServingError):
            parse_tenant("x:speed=2")
        with pytest.raises(ServingError):
            parse_tenant("x:cap=nope")


class TestTenantSet:
    def test_registration_and_lookups(self):
        assert TWO_TENANTS.names == ("fast", "bulk")
        assert TWO_TENANTS.tier_of("fast") == "interactive"
        assert TWO_TENANTS.tier_of("bulk") == "batch"
        assert TWO_TENANTS.total_weight == pytest.approx(4.0)
        assert TWO_TENANTS.slo_targets() == {"fast": 0.010}
        assert TWO_TENANTS.admission_caps() == {"bulk": 4}
        assert not TWO_TENANTS.trivial
        assert TenantSet.default().trivial

    def test_duplicate_names_rejected(self):
        with pytest.raises(ServingError):
            TenantSet([TenantSpec("a"), TenantSpec("a")])

    def test_default_set_with_slo_is_not_trivial(self):
        tuned = TenantSet([TenantSpec(DEFAULT_TENANT, p99_slo_s=0.01)])
        assert not tuned.trivial

    def test_parse_tenants(self):
        tenants = parse_tenants(["a:weight=2", "b:tier=batch"])
        assert tenants.names == ("a", "b")
        assert tenants.get("b").tier == "batch"


class TestAssignment:
    def test_weight_proportional_counts(self):
        requests = [Request(i, i * 1e-3) for i in range(8)]
        tagged = assign_tenants(
            requests,
            TenantSet([TenantSpec("a", weight=3.0), TenantSpec("b")]),
        )
        counts = {}
        for request in tagged:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        assert counts == {"a": 6, "b": 2}
        # Arrival order and indices are untouched.
        assert [r.index for r in tagged] == [r.index for r in requests]
        assert [r.arrival for r in tagged] == [
            r.arrival for r in requests
        ]

    def test_existing_tags_kept(self):
        requests = [Request(0, 0.0, tenant="keep"), Request(1, 0.0)]
        tagged = assign_tenants(
            requests, TenantSet([TenantSpec("keep"), TenantSpec("x")])
        )
        assert tagged[0].tenant == "keep"

    def test_split_clients_largest_remainder(self):
        groups = split_clients(
            5, TenantSet([TenantSpec("a", weight=3.0), TenantSpec("b")])
        )
        assert dict(groups) == {"a": 4, "b": 1}
        assert sum(count for _, count in groups) == 5


class TestMergeStreams:
    def test_indices_reminted_and_sorted(self):
        a = make_requests("fixed-qps", 3, qps=100.0, tenant="a")
        b = make_requests("fixed-qps", 3, qps=150.0, tenant="b")
        merged = merge_streams(a, b)
        assert [r.index for r in merged] == list(range(6))
        arrivals = [r.arrival for r in merged]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in merged} == {"a", "b"}
        with pytest.raises(ServingError):
            merge_streams()


# -- weighted-fair policy --------------------------------------------------


class TestWeightedFair:
    def test_slices_follow_weights(self):
        policy = WeightedFair(TenantSet([
            TenantSpec("a", weight=3.0), TenantSpec("b", weight=1.0),
        ]))
        assert policy._slice("a", 4) == range(0, 3)
        assert policy._slice("b", 4) == range(3, 4)
        # Unregistered tenants and empty slices fall back to the pool.
        assert policy._slice("ghost", 4) == range(4)
        assert policy._slice("b", 1) == range(1)

    def test_slices_partition_the_pool_despite_float_error(self):
        # 3 * 1.9 / 1.9 floats to 2.999...96; the last slice must
        # still end at the pool boundary.
        solo = WeightedFair(TenantSet([TenantSpec("a", weight=1.9)]))
        assert solo._slice("a", 3) == range(0, 3)
        pair = WeightedFair(TenantSet([
            TenantSpec("a", weight=1.9), TenantSpec("b", weight=0.2),
        ]))
        assert pair._slice("a", 7).start == 0
        assert pair._slice("b", 7).stop == 7
        assert pair._slice("a", 7).stop == pair._slice("b", 7).start

    def test_single_tenant_is_round_robin(self, session):
        pool = ShardPool.replicate(session, 3)
        fair = Scheduler(pool.shards, "weighted-fair")
        robin = Scheduler(pool.shards, "round-robin")
        for step in range(7):
            assert fair.assign(1, 0.0).name == robin.assign(1, 0.0).name

    def test_flood_stays_in_slice(self, session):
        pool = ShardPool.replicate(session, 4)
        policy = WeightedFair(TenantSet([
            TenantSpec("fast", weight=3.0), TenantSpec("bulk"),
        ]))
        scheduler = Scheduler(pool.shards, policy)
        picks = {
            scheduler.assign(1, 0.0, tenant="bulk").name
            for _ in range(10)
        }
        assert picks == {"shard3"}
        fast_picks = {
            scheduler.assign(1, 0.0, tenant="fast").name
            for _ in range(9)
        }
        assert fast_picks == {"shard0", "shard1", "shard2"}


# -- the WorkloadSpec API --------------------------------------------------


class TestWorkloadSpec:
    def test_eager_validation(self):
        with pytest.raises(ServingError):
            WorkloadSpec(policy="warp-speed")
        with pytest.raises(ServingError):
            WorkloadSpec(engine="psychic")
        with pytest.raises(ServingError):
            WorkloadSpec(max_events=0)
        with pytest.raises(ServingError):
            WorkloadSpec(batcher="not options")

    def test_tagged_traffic_needs_registered_tenants(self):
        traffic = [Request(0, 0.0, tenant="ghost")]
        with pytest.raises(ServingError):
            WorkloadSpec(traffic=traffic)
        with pytest.raises(ServingError):
            WorkloadSpec(
                traffic=traffic, tenants=TenantSet([TenantSpec("real")])
            )
        spec = WorkloadSpec(
            traffic=traffic, tenants=[TenantSpec("ghost")]
        )
        assert spec.tenants.names == ("ghost",)

    def test_traffic_generator_materialised(self):
        spec = WorkloadSpec(
            traffic=(Request(i, 0.0) for i in range(3))
        )
        assert len(spec.traffic) == 3
        assert len(spec.with_traffic(spec.traffic).traffic) == 3

    def test_scenario_must_be_a_chaos_scenario(self):
        # A spec string is refused where it is written, not with an
        # AttributeError when the run primes the kernel.
        with pytest.raises(ServingError, match="parse_scenario"):
            WorkloadSpec(scenario="kill:shard0@0.01")
        with pytest.raises(ServingError, match="ChaosScenario"):
            WorkloadSpec(scenario=[("kill", "shard0", 0.01)])

    def test_scenario_excludes_autoscaler(self):
        from repro.serving import AutoscalerOptions, parse_scenario

        with pytest.raises(ServingError):
            WorkloadSpec(
                scenario=parse_scenario("kill:shard0@0.01"),
                autoscale=AutoscalerOptions(
                    min_shards=1, max_shards=2,
                    target_utilisation=0.5, warmup_s=0.01, tick_s=0.01,
                ),
            )

    def test_run_requires_traffic(self, session):
        pool = ShardPool.replicate(session, 1)
        with pytest.raises(ServingError):
            ShardServer(pool).run(WorkloadSpec())

    def test_describe_mentions_tenants(self):
        spec = WorkloadSpec(
            policy="weighted-fair", tenants=TWO_TENANTS
        )
        text = spec.describe()
        assert "weighted-fair" in text
        assert "fast" in text and "bulk" in text


# -- serving with tenants --------------------------------------------------


def two_tenant_traffic(count=24, seed=5):
    fast = make_requests(
        "poisson", count, qps=800.0, seed=seed, tenant="fast"
    )
    bulk = make_requests(
        "poisson", count, qps=1200.0, seed=seed + 1, tenant="bulk"
    )
    return merge_streams(fast, bulk)


class TestTenantServing:
    def test_tiers_never_mix_in_a_batch(self, session):
        pool = ShardPool.replicate(session, 2)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=two_tenant_traffic(),
            policy="weighted-fair",
            batcher=BatcherOptions(max_batch=4, max_wait_s=2e-3),
            tenants=TWO_TENANTS,
        ))
        by_batch = {}
        for record in report.records:
            by_batch.setdefault(
                (record.shard, record.started), set()
            ).add(TWO_TENANTS.tier_of(record.tenant))
        assert by_batch, "no batches dispatched"
        for tiers in by_batch.values():
            assert len(tiers) == 1, "a batch mixed incompatible tiers"

    def test_shared_mode_mixes(self, session):
        pool = ShardPool.replicate(session, 2)
        tenants = TenantSet([
            TenantSpec("fast", weight=3.0),
            TenantSpec("bulk", tier="batch"),
        ])
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=[
                Request(0, 0.0, tenant="fast"),
                Request(1, 0.0, tenant="bulk"),
            ],
            batcher=BatcherOptions(max_batch=2, tenant_mode="shared"),
            tenants=tenants,
        ))
        sizes = {record.batch_size for record in report.records}
        assert sizes == {2}

    def test_admission_cap_sheds_and_accounts(self, session):
        pool = ShardPool.replicate(session, 1)
        tenants = TenantSet([TenantSpec("bulk", max_outstanding=2)])
        burst = [
            Request(i, 0.0, tenant="bulk") for i in range(8)
        ]
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=burst,
            batcher=BatcherOptions(max_batch=2),
            tenants=tenants,
        ))
        assert report.admission_shed > 0
        assert report.admission_shed == report.shed
        assert report.admission_shed_by_tenant == {
            "bulk": report.admission_shed
        }
        assert report.count + report.shed + report.unserved == 8
        breakdown = report.per_tenant()["bulk"]
        assert breakdown.admission_shed == report.admission_shed
        assert breakdown.issued == 8

    def test_per_tenant_slo_sheds_surgically(self, session):
        pool = ShardPool.replicate(session, 1)
        tenants = TenantSet([
            # An unholdable target: every window breaches immediately.
            TenantSpec("fast", p99_slo_s=1e-7),
            TenantSpec("steady"),
        ])
        fast = make_requests(
            "fixed-qps", 20, qps=2000.0, tenant="fast"
        )
        steady = make_requests(
            "fixed-qps", 20, qps=2000.0, seed=1, tenant="steady"
        )
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=merge_streams(fast, steady),
            batcher=BatcherOptions(max_batch=2),
            tenants=tenants,
        ))
        assert report.shed_by_tenant.get("fast", 0) > 0
        assert report.shed_by_tenant.get("steady", 0) == 0
        assert report.tenant_slo_targets == {"fast": 1e-7}
        served_tenants = {r.tenant for r in report.records}
        assert "steady" in served_tenants

    def test_closed_loop_tenant_groups(self, session):
        pool = ShardPool.replicate(session, 2)
        tenants = TenantSet([
            TenantSpec("a", weight=2.0), TenantSpec("b"),
        ])
        source = ClosedLoopClientPool(
            clients=3, requests=12, think_time_s=0.0, tenants=tenants
        )
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=source, tenants=tenants,
        ))
        counts = {}
        for record in report.records:
            counts[record.tenant] = counts.get(record.tenant, 0) + 1
        assert set(counts) == {"a", "b"}
        assert sum(counts.values()) == 12

    def test_trace_tenant_column(self, session, tmp_path):
        trace = tmp_path / "tagged.csv"
        trace.write_text(
            "arrival,tenant\n0.0,a\n0.001,b\n0.002,a\n"
        )
        pairs = load_tagged_trace(trace)
        assert pairs == [(0.0, "a"), (0.001, "b"), (0.002, "a")]
        source = TraceSource.load(trace)
        assert source.tenanted
        pool = ShardPool.replicate(session, 1)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=source,
            tenants=TenantSet([TenantSpec("a"), TenantSpec("b")]),
        ))
        assert report.per_tenant()["a"].count == 2
        assert report.per_tenant()["b"].count == 1


# -- report schema ---------------------------------------------------------


class TestReportSchema:
    def test_schema_2_and_tenant_breakdowns(self, session):
        pool = ShardPool.replicate(session, 2)
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=two_tenant_traffic(),
            policy="weighted-fair",
            batcher=BatcherOptions(max_batch=4, max_wait_s=2e-3),
            tenants=TWO_TENANTS,
        ))
        payload = report.to_dict()
        assert payload["schema"] == 2
        assert set(payload["tenants"]) == {"fast", "bulk"}
        fast = payload["tenants"]["fast"]
        assert fast["slo_target_s"] == pytest.approx(0.010)
        assert fast["count"] + fast["shed"] + fast["unserved"] == (
            fast["issued"]
        )
        json.dumps(payload)  # round-trippable

    def test_all_shed_note_in_describe(self, session):
        pool = ShardPool.replicate(session, 1)
        tenants = TenantSet([TenantSpec("x", p99_slo_s=1e-9)])
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=[Request(i, 0.0, tenant="x") for i in range(4)],
            batcher=BatcherOptions(max_batch=1),
            tenants=tenants,
        ))
        if report.shed and not report.records:
            assert "all requests shed" in report.describe()

    def test_default_run_schema_unchanged_otherwise(self, session):
        pool = ShardPool.replicate(session, 1)
        report = ShardServer(pool).run(
            WorkloadSpec(traffic=make_requests("uniform", 4))
        )
        payload = report.to_dict()
        assert payload["schema"] == 2
        assert payload["admission_shed"] == 0
        assert payload["tenants"] == {
            DEFAULT_TENANT: payload["tenants"][DEFAULT_TENANT]
        }


# -- engine identity and properties ----------------------------------------


class TestEngineIdentity:
    def test_default_tenant_byte_identity(self, session):
        pool = ShardPool.replicate(session, 2)
        server = ShardServer(pool)
        spec = WorkloadSpec(
            traffic=make_requests("poisson", 30, qps=900.0, seed=9),
            policy="weighted-fair",
            batcher=BatcherOptions(max_batch=3, max_wait_s=5e-4),
        )
        kernel = server.run(replace(spec, engine="kernel"))
        fast = server.run(replace(spec, engine="fastforward"))
        assert fast == kernel

    def test_tenanted_run_falls_back_to_kernel(self, session):
        pool = ShardPool.replicate(session, 2)
        server = ShardServer(pool)
        report = server.run(WorkloadSpec(
            traffic=two_tenant_traffic(),
            tenants=TWO_TENANTS,
            engine="auto",
        ))
        assert server.last_engine == "kernel"
        assert report.count > 0

    def test_forced_fastforward_rejects_tenants(self, session):
        pool = ShardPool.replicate(session, 2)
        with pytest.raises(ServingError):
            ShardServer(pool).run(WorkloadSpec(
                traffic=two_tenant_traffic(),
                tenants=TWO_TENANTS,
                engine="fastforward",
            ))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        weight=st.floats(min_value=0.25, max_value=8.0,
                         allow_nan=False, allow_infinity=False),
        pool_size=st.integers(min_value=1, max_value=3),
        max_batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_single_tenant_weighted_fair_is_round_robin(
        self, session, weight, pool_size, max_batch, seed
    ):
        """Any single-tenant weight: weighted-fair == round-robin,
        event for event."""
        pool = ShardPool.replicate(session, pool_size)
        traffic = make_requests("poisson", 24, qps=700.0, seed=seed)
        tenants = TenantSet([TenantSpec("solo", weight=weight)])
        tagged = [
            Request(r.index, r.arrival, tenant="solo") for r in traffic
        ]
        options = BatcherOptions(max_batch=max_batch, max_wait_s=1e-3)
        fair = ShardServer(pool).run(WorkloadSpec(
            traffic=tagged, policy="weighted-fair",
            batcher=options, tenants=tenants, engine="kernel",
        ))
        robin = ShardServer(pool).run(WorkloadSpec(
            traffic=tagged, policy="round-robin",
            batcher=options, tenants=tenants, engine="kernel",
        ))
        def strip(report):
            return [
                (r.index, r.arrival, r.dispatched, r.started,
                 r.completed, r.shard, r.batch_size)
                for r in report.records
            ]

        assert strip(fair) == strip(robin)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch=st.integers(min_value=1, max_value=4),
        cap=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        slo_ms=st.one_of(
            st.none(), st.floats(min_value=0.01, max_value=5.0)
        ),
    )
    def test_per_tenant_accounting_sums_to_global(
        self, session, seed, max_batch, cap, slo_ms
    ):
        """served + shed + unserved per tenant folds to the report's
        global counters for random tenant mixes and controls."""
        pool = ShardPool.replicate(session, 2)
        tenants = TenantSet([
            TenantSpec("fast", weight=2.0, p99_slo_s=(
                slo_ms * 1e-3 if slo_ms is not None else None
            )),
            TenantSpec("bulk", tier="batch", max_outstanding=cap),
        ])
        report = ShardServer(pool).run(WorkloadSpec(
            traffic=two_tenant_traffic(count=16, seed=seed),
            policy="weighted-fair",
            batcher=BatcherOptions(max_batch=max_batch),
            tenants=tenants,
            engine="kernel",
        ))
        breakdowns = report.per_tenant()
        assert sum(b.count for b in breakdowns.values()) == report.count
        assert sum(b.shed for b in breakdowns.values()) == report.shed
        assert sum(
            b.admission_shed for b in breakdowns.values()
        ) == report.admission_shed
        assert sum(
            b.unserved for b in breakdowns.values()
        ) == report.unserved
        assert (
            report.count + report.shed + report.unserved == 32
        )
        for breakdown in breakdowns.values():
            assert breakdown.count + breakdown.shed + (
                breakdown.unserved
            ) == breakdown.issued
            assert breakdown.admission_shed <= breakdown.shed
