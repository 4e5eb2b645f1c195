"""Tests for repro.pipeline — evaluation cache, pruned/parallel DSE
equivalence, and the PipelineSession facade."""

import gc
import weakref

import pytest

from repro.dse import latency_lower_bound, map_network, objective_lower_bound, run_dse
from repro.dse.space import DseOptions, explore_hardware
from repro.errors import DseError, ReproError
from repro.estimator.calibration import get_calibration
from repro.estimator.latency import estimate_layer, estimate_network
from repro.ir import zoo
from repro.pipeline import CacheStats, EvaluationCache, PipelineSession, layer_signature


# -- cache keying and dedup ------------------------------------------------


class TestLayerSignature:
    def test_identical_shapes_share_signature(self):
        net = zoo.vgg16()
        conv5_1 = net.find("conv5_1")
        conv5_2 = net.find("conv5_2")
        assert conv5_1.layer.name != conv5_2.layer.name
        assert layer_signature(conv5_1) == layer_signature(conv5_2)

    def test_fused_pool_distinguishes(self):
        net = zoo.vgg16()
        info = net.find("conv5_3")
        assert layer_signature(info, 1) != layer_signature(info, 2)

    def test_different_shapes_differ(self):
        net = zoo.vgg16()
        assert layer_signature(net.find("conv1_1")) != layer_signature(
            net.find("conv1_2")
        )
        assert layer_signature(net.find("fc6")) != layer_signature(
            net.find("fc7")
        )


class TestEvaluationCache:
    def test_hit_returns_identical_estimate(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cal = get_calibration(pynq.name)
        first = cache.estimate(cfg_pt4, pynq, info, "spat", "is", cal)
        second = cache.estimate(cfg_pt4, pynq, info, "spat", "is", cal)
        direct = estimate_layer(cfg_pt4, pynq, info, "spat", "is", cal)
        assert first == second == direct
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1

    def test_shape_dedup_relabels_layer_name(self, cfg_vu9p_paper, vu9p):
        cache = EvaluationCache()
        net = zoo.vgg16()
        cal = get_calibration(vu9p.name)
        a = cache.estimate(
            cfg_vu9p_paper, vu9p, net.find("conv5_1"), "wino", "ws", cal
        )
        b = cache.estimate(
            cfg_vu9p_paper, vu9p, net.find("conv5_2"), "wino", "ws", cal
        )
        assert a.layer_name == "conv5_1"
        assert b.layer_name == "conv5_2"
        assert a.latency == b.latency
        stats = cache.stats
        assert stats.shape_dedup_hits == 1

    def test_mode_dataflow_cfg_are_distinct_keys(self, cfg_pt4, cfg_pt6, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(cfg_pt4, pynq, info, "spat", "ws")
        cache.estimate(cfg_pt4, pynq, info, "wino", "ws")
        cache.estimate(cfg_pt6, pynq, info, "spat", "is")
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_errors_are_memoized_and_reraised(self, cfg_pynq_paper, pynq):
        cache = EvaluationCache()
        # fc6 of full VGG16 needs an input-channel split (GC > 1) on the
        # embedded buffers, which the IS dataflow rejects.
        info = zoo.vgg16().find("fc6")
        with pytest.raises(ReproError):
            cache.estimate(cfg_pynq_paper, pynq, info, "spat", "is")
        with pytest.raises(ReproError):
            cache.estimate(cfg_pynq_paper, pynq, info, "spat", "is")
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 1
        assert stats.error_entries == 1

    def test_memoized_error_relabelled_on_dedup_hit(
        self, cfg_vu9p_paper, vu9p
    ):
        cache = EvaluationCache()
        net = zoo.vgg16()
        # conv5_1 and conv5_2 share a shape; GK > 1 makes IS infeasible
        # once buffers shrink enough — force it with a tiny weight buffer.
        from dataclasses import replace

        cfg = replace(cfg_vu9p_paper, weight_buffer_vecs=64)
        with pytest.raises(ReproError) as first:
            cache.estimate(cfg, vu9p, net.find("conv5_1"), "spat", "is")
        with pytest.raises(ReproError) as second:
            cache.estimate(cfg, vu9p, net.find("conv5_2"), "spat", "is")
        assert "conv5_1" in str(first.value)
        assert "conv5_2" in str(second.value)
        assert "conv5_1" not in str(second.value)
        assert type(second.value) is type(first.value)

    def test_partition_memo_shared_across_dataflows(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(cfg_pt4, pynq, info, "spat", "ws")
        stats = cache.stats
        # Second dataflow misses the estimate level but reuses the
        # partition geometry.
        assert stats.partition_misses == 1
        assert stats.partition_hits == 1

    def test_partition_memo_instance_independent(self, cfg_pt4, pynq):
        from dataclasses import replace

        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        cache.estimate(replace(cfg_pt4, instances=2), pynq, info, "spat", "is")
        stats = cache.stats
        assert stats.misses == 2  # different bandwidth share => new estimate
        assert stats.partition_hits == 1  # ... but the same partition

    def test_clear_resets(self, cfg_pt4, pynq):
        cache = EvaluationCache()
        info = zoo.tiny_cnn().compute_layers()[0]
        cache.estimate(cfg_pt4, pynq, info, "spat", "is")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_stats_subtraction(self):
        a = CacheStats(hits=5, misses=5, partition_hits=2, partition_misses=2)
        b = CacheStats(hits=2, misses=1, partition_hits=1, partition_misses=0)
        delta = a - b
        assert delta.hits == 3 and delta.misses == 4
        assert delta.lookups == 7
        assert 0.0 <= delta.hit_rate <= 1.0


# -- prune-bound admissibility --------------------------------------------


class TestPruneBound:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp", "alexnet"])
    @pytest.mark.parametrize("objective", ["throughput", "latency"])
    def test_bound_is_admissible(self, pynq, model, objective):
        """The compute-bound objective bound never exceeds the truth."""
        network = zoo.get_model(model)
        cal = get_calibration(pynq.name)
        total_ops = sum(i.ops for i in network.compute_layers())
        for candidate in explore_hardware(pynq, cal=cal):
            try:
                _, estimate = map_network(candidate.cfg, pynq, network, cal)
            except DseError:
                continue
            lb_latency = latency_lower_bound(candidate.cfg, pynq, network)
            assert lb_latency <= estimate.latency
            bound = objective_lower_bound(
                lb_latency, objective, total_ops, candidate.cfg.instances
            )
            if objective == "latency":
                assert bound <= estimate.latency
            else:
                assert bound <= -estimate.gops

    def test_unknown_objective_rejected(self):
        with pytest.raises(DseError):
            objective_lower_bound(1.0, "area", 100, 1)

    def test_bound_includes_bandwidth_terms(self, pynq):
        """The bound exceeds pure compute time on a memory-bound layer.

        tiny_mlp is dominated by Dense layers, whose weight streaming
        (Eq. 8) dwarfs T_CP on a small device — the Eq. 8-11 terms must
        make the bound strictly tighter than the compute-only sum.
        """
        from repro.estimator.latency import _module_times

        network = zoo.tiny_mlp()
        cfg = explore_hardware(pynq)[-1].cfg
        compute_only = sum(
            _module_times(cfg, pynq, info, "spat")[0]
            for info in network.compute_layers()
        )
        assert latency_lower_bound(cfg, pynq, network) > compute_only

    @pytest.mark.parametrize("objective", ["throughput", "latency"])
    def test_bandwidth_bound_equivalence(self, pynq, objective):
        """Pruning with the tightened bound keeps the selection *and*
        the runner-up ranking byte-identical to brute force."""
        network = zoo.tiny_mlp()  # memory-bound: the new terms do prune
        seed = run_dse(
            pynq, network,
            DseOptions(objective=objective, use_cache=False, prune=False),
        )
        fast = run_dse(
            pynq, network,
            DseOptions(objective=objective, prune=True, best_first=True),
        )
        assert fast.candidates_pruned > 0
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]


# -- DSE equivalence: cached / pruned / parallel vs brute force ------------


BRUTE_FORCE = DseOptions(use_cache=False, prune=False)


def _design_point(result):
    return result.cfg, result.mapping, result.estimate


class TestDseEquivalence:
    @pytest.mark.parametrize(
        "model", ["tiny_cnn", "tiny_mlp", "alexnet", "darknet19", "vgg16"]
    )
    def test_pipeline_matches_brute_force_on_zoo(self, pynq, model):
        network = zoo.get_model(model)
        seed = run_dse(pynq, network, BRUTE_FORCE)
        fast = run_dse(
            pynq, network,
            DseOptions(use_cache=True, prune=True, best_first=True, jobs=2),
        )
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]

    def test_vgg16_full_sweep_vu9p(self, vu9p):
        network = zoo.vgg16()
        seed = run_dse(vu9p, network,
                       DseOptions(frequency_mhz=167, **_brute_kwargs()))
        fast = run_dse(
            vu9p, network,
            DseOptions(frequency_mhz=167, best_first=True, jobs=2),
        )
        assert _design_point(fast) == _design_point(seed)
        assert fast.candidates_considered == seed.candidates_considered
        assert fast.candidates_pruned > 0
        assert fast.cache_stats is not None
        assert fast.cache_stats.hits > 0

    def test_latency_objective_equivalence(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        options = dict(objective="latency", top_k=3)
        seed = run_dse(pynq, network, DseOptions(**options, **_brute_kwargs()))
        fast = run_dse(pynq, network, DseOptions(**options, best_first=True))
        assert _design_point(fast) == _design_point(seed)
        assert [_design_point(r) for r in fast.runners_up] == [
            _design_point(r) for r in seed.runners_up
        ]

    def test_use_cache_false_wins_over_explicit_cache(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        cache = EvaluationCache()
        result = run_dse(
            pynq, network, DseOptions(use_cache=False), cache=cache
        )
        assert result.cache_stats is None
        assert cache.stats.lookups == 0  # cache untouched

    def test_precomputed_candidates(self, pynq):
        from repro.dse import explore_hardware

        network = zoo.tiny_cnn(input_size=32)
        candidates = explore_hardware(pynq)
        direct = run_dse(pynq, network, DseOptions())
        seeded = run_dse(pynq, network, DseOptions(), candidates=candidates)
        assert _design_point(direct) == _design_point(seeded)

    def test_shared_cache_across_runs(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        cache = EvaluationCache()
        first = run_dse(pynq, network, DseOptions(), cache=cache)
        second = run_dse(pynq, network, DseOptions(), cache=cache)
        assert _design_point(first) == _design_point(second)
        # The second run re-reads every estimate from the shared cache.
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits > 0

    def test_map_network_cached_equivalence(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        cal = get_calibration(pynq.name)
        plain = map_network(cfg_pynq_paper, pynq, network, cal)
        cached = map_network(
            cfg_pynq_paper, pynq, network, cal, cache=EvaluationCache()
        )
        assert plain == cached

    def test_estimate_network_cached_equivalence(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        cal = get_calibration(pynq.name)
        mapping, _ = map_network(cfg_pynq_paper, pynq, network, cal)
        plain = estimate_network(cfg_pynq_paper, pynq, network, mapping, cal)
        cached = estimate_network(
            cfg_pynq_paper, pynq, network, mapping, cal, EvaluationCache()
        )
        assert plain == cached


def _brute_kwargs():
    return dict(use_cache=False, prune=False)


# -- eager DseOptions validation -------------------------------------------


class TestDseOptionsValidation:
    def test_unknown_objective(self):
        with pytest.raises(DseError):
            DseOptions(objective="area")

    def test_non_positive_top_k(self):
        with pytest.raises(DseError):
            DseOptions(top_k=0)

    def test_non_positive_max_instances(self):
        with pytest.raises(DseError):
            DseOptions(max_instances=0)

    def test_non_positive_jobs(self):
        with pytest.raises(DseError):
            DseOptions(jobs=0)

    def test_bad_frequency(self):
        with pytest.raises(DseError):
            DseOptions(frequency_mhz=-100.0)

    def test_bad_buffer_presets(self):
        with pytest.raises(DseError):
            DseOptions(buffer_presets=(1024, 0, 1024))

    def test_valid_options_construct(self):
        options = DseOptions(jobs=4, top_k=1, best_first=True)
        assert options.jobs == 4


# -- NetworkEstimate memoization -------------------------------------------


class TestNetworkEstimateMemo:
    def test_latency_and_ops_cached(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        mapping, estimate = map_network(cfg_pynq_paper, pynq, network)
        first = estimate.latency
        assert estimate.latency == first  # second read: cached
        assert "latency" in estimate.__dict__
        assert "ops" not in estimate.__dict__
        assert estimate.ops == sum(l.ops for l in estimate.layers)
        assert "ops" in estimate.__dict__


# -- PipelineSession -------------------------------------------------------


class TestPipelineSession:
    def test_dse_computed_once(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq)
        assert session.dse() is session.dse()

    def test_matches_direct_run_dse(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        session = PipelineSession(network, pynq)
        direct = run_dse(pynq, network, DseOptions())
        assert _design_point(session.dse()) == _design_point(direct)

    def test_accepts_names(self):
        session = PipelineSession("tiny_cnn", "pynq-z1")
        assert session.network.name == "tiny_cnn"
        assert session.device.name == "pynq-z1"
        assert session.calibration.name == "pynq-z1"

    def test_unknown_model_name(self):
        with pytest.raises(ReproError):
            PipelineSession("resnet-9000", "pynq-z1")

    def test_pinned_cfg_matches_map_network(self, cfg_pynq_paper, pynq):
        network = zoo.tiny_cnn()
        session = PipelineSession(network, pynq, cfg=cfg_pynq_paper)
        cal = get_calibration(pynq.name)
        mapping, estimate = map_network(cfg_pynq_paper, pynq, network, cal)
        assert session.cfg == cfg_pynq_paper
        assert session.mapping() == mapping
        assert session.estimate() == estimate

    def test_pinned_cfg_forbids_dse(self, cfg_pynq_paper, pynq):
        session = PipelineSession(zoo.tiny_cnn(), pynq, cfg=cfg_pynq_paper)
        with pytest.raises(ReproError):
            session.dse()

    def test_pinned_mapping_requires_cfg(self, pynq):
        from repro.mapping.strategy import NetworkMapping

        network = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(network)
        with pytest.raises(ReproError):
            PipelineSession(network, pynq, mapping=mapping)

    def test_pinned_mapping_used_verbatim(self, cfg_pynq_paper, pynq):
        from repro.mapping.strategy import NetworkMapping

        network = zoo.tiny_cnn()
        mapping = NetworkMapping.uniform(network, mode="spat", dataflow="ws")
        session = PipelineSession(
            network, pynq, cfg=cfg_pynq_paper, mapping=mapping
        )
        assert session.mapping() is mapping
        estimate = session.estimate()
        assert {l.mode for l in estimate.layers} == {"spat"}

    def test_compiled_and_runtime_cached(self, cfg_pynq_paper, pynq):
        session = PipelineSession(
            zoo.tiny_cnn(), pynq, cfg=cfg_pynq_paper, seed=7
        )
        assert session.compiled() is session.compiled()
        assert session.runtime(False) is session.runtime(False)

    def test_simulate_matches_simulate_network(self, cfg_pynq_paper, pynq):
        from repro.experiments.common import simulate_network

        network = zoo.tiny_cnn()
        session = PipelineSession(
            network, pynq, cfg=cfg_pynq_paper,
            compiler_options=_timing_compiler_options(),
        )
        direct = simulate_network(
            network, cfg_pynq_paper, pynq, session.mapping()
        )
        assert session.simulate().cycles == direct.cycles

    def test_describe_renders(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(), pynq)
        text = session.describe()
        assert "tiny_cnn" in text and "pynq-z1" in text

    def test_sessions_share_cache(self, pynq, vu9p):
        cache = EvaluationCache()
        net = zoo.tiny_cnn(input_size=32)
        PipelineSession(net, pynq, cache=cache).dse()
        lookups_after_first = cache.stats.lookups
        PipelineSession(net, pynq, cache=cache).dse()
        stats = cache.stats
        # Second session repeats the same lookups, all hits.
        assert stats.lookups == 2 * lookups_after_first
        assert stats.misses < lookups_after_first

    def test_memoized_errors_do_not_pin_dropped_sessions(self, pynq):
        """A shared cache outlives the sessions that filled it: the
        errors it memoizes must not keep a dropped session (and its
        parameters) alive through their tracebacks."""
        cache = EvaluationCache()
        session = PipelineSession(zoo.alexnet(), pynq, cache=cache)
        session.dse()
        assert cache.stats.error_entries > 0
        dropped = weakref.ref(session)
        del session
        gc.collect()
        assert dropped() is None


def _timing_compiler_options():
    from repro.compiler import CompilerOptions

    return CompilerOptions(quantize=True, pack_data=False)
