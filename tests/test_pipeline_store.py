"""Tests for repro.pipeline.store — on-disk persistence of the
evaluation cache — and DSE runs backed by it."""

import pickle
import zlib

import pytest

from repro.dse import exhaustive_dse, run_dse
from repro.dse.space import DseOptions
from repro.errors import ReproError
from repro.estimator.calibration import get_calibration
from repro.ir import zoo
from repro.pipeline import EvaluationCache, EvaluationStore, PipelineSession
from repro.pipeline.store import MAGIC, STORE_VERSION


def _populate(cache, cfg, device, *, with_error=False):
    """Run a few real estimates (and optionally a memoized failure)."""
    cal = get_calibration(device.name)
    net = zoo.tiny_cnn()
    for info in net.compute_layers():
        for dataflow in ("is", "ws"):
            try:
                cache.estimate(cfg, device, info, "spat", dataflow, cal)
            except ReproError:
                pass
    if with_error:
        # fc6 of VGG16 needs GC > 1 on embedded buffers, which IS
        # rejects — a memoized failure entry.
        info = zoo.vgg16().find("fc6")
        with pytest.raises(ReproError):
            cache.estimate(cfg, device, info, "spat", "is", cal)


class TestStoreRoundTrip:
    def test_estimates_and_partitions_round_trip(
        self, tmp_path, cfg_pt4, pynq
    ):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path / "cache")
        written = store.flush(cache)
        assert written > 0

        estimates, partitions = cache.snapshot_entries()
        loaded_est, loaded_part = EvaluationStore(tmp_path / "cache").load()
        assert loaded_est == estimates
        assert loaded_part == partitions

    def test_warm_cache_serves_hits_without_recompute(
        self, tmp_path, cfg_pt4, pynq
    ):
        first = EvaluationCache()
        _populate(first, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)
        store.flush(first)

        second = EvaluationCache()
        EvaluationStore(tmp_path).warm(second)
        _populate(second, cfg_pt4, pynq)
        stats = second.stats
        assert stats.misses == 0
        assert stats.hits == stats.lookups > 0

    def test_memoized_failures_round_trip(self, tmp_path, cfg_pynq_paper,
                                          pynq):
        first = EvaluationCache()
        _populate(first, cfg_pynq_paper, pynq, with_error=True)
        store = EvaluationStore(tmp_path)
        store.flush(first)

        second = EvaluationCache()
        EvaluationStore(tmp_path).warm(second)
        info = zoo.vgg16().find("fc6")
        cal = get_calibration(pynq.name)
        with pytest.raises(ReproError) as excinfo:
            second.estimate(cfg_pynq_paper, pynq, info, "spat", "is", cal)
        assert "fc6" in str(excinfo.value)
        assert second.stats.misses == 0  # served from the persisted entry

    def test_flush_is_delta_only_and_idempotent(self, tmp_path, cfg_pt4,
                                                pynq):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)
        assert store.flush(cache) > 0
        # Nothing new computed: the second flush writes nothing.
        assert store.flush(cache) == 0
        assert len(store.segments()) == 1

    def test_warmed_entries_are_not_reflushed(self, tmp_path, cfg_pt4,
                                              pynq):
        first = EvaluationCache()
        _populate(first, cfg_pt4, pynq)
        EvaluationStore(tmp_path).flush(first)

        second = EvaluationCache()
        store = EvaluationStore(tmp_path)
        store.warm(second)
        assert store.flush(second) == 0  # all warm, no dirty delta

    def test_concurrent_writers_use_distinct_segments(self, tmp_path,
                                                      cfg_pt4, cfg_pt6,
                                                      pynq):
        store = EvaluationStore(tmp_path)
        a, b = EvaluationCache(), EvaluationCache()
        _populate(a, cfg_pt4, pynq)
        _populate(b, cfg_pt6, pynq)
        store.flush(a)
        store.flush(b)
        assert len(store.segments()) == 2
        estimates, _ = EvaluationStore(tmp_path).load()
        merged = dict(a.snapshot_entries()[0])
        merged.update(b.snapshot_entries()[0])
        assert estimates == merged

    def test_compact_merges_segments(self, tmp_path, cfg_pt4, cfg_pt6,
                                     pynq):
        store = EvaluationStore(tmp_path)
        for cfg in (cfg_pt4, cfg_pt6):
            cache = EvaluationCache()
            _populate(cache, cfg, pynq)
            store.flush(cache)
        before, _ = EvaluationStore(tmp_path).load()
        assert store.compact() == 2
        assert len(store.segments()) == 1
        after, _ = EvaluationStore(tmp_path).load()
        assert after == before


class TestStoreRobustness:
    def _flushed_store(self, tmp_path, cfg, device):
        cache = EvaluationCache()
        _populate(cache, cfg, device)
        store = EvaluationStore(tmp_path)
        store.flush(cache)
        return store

    def test_version_mismatch_rejected(self, tmp_path, cfg_pt4, pynq):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        EvaluationStore(tmp_path, version=STORE_VERSION + 1).flush(cache)
        reader = EvaluationStore(tmp_path)
        estimates, partitions = reader.load()
        assert estimates == {} and partitions == {}
        assert reader.stats.segments_skipped == 1

    def test_truncated_segment_skipped(self, tmp_path, cfg_pt4, pynq):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        segment = store.segments()[0]
        blob = segment.read_bytes()
        segment.write_bytes(blob[: len(blob) // 2])
        reader = EvaluationStore(tmp_path)
        estimates, _ = reader.load()
        assert estimates == {}
        assert reader.stats.segments_skipped == 1

    def test_flipped_byte_fails_checksum(self, tmp_path, cfg_pt4, pynq):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        segment = store.segments()[0]
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF
        segment.write_bytes(bytes(blob))
        reader = EvaluationStore(tmp_path)
        assert reader.load() == ({}, {})
        assert reader.stats.segments_skipped == 1

    def test_foreign_file_skipped_good_segment_survives(
        self, tmp_path, cfg_pt4, pynq
    ):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        (tmp_path / "zz-garbage.seg").write_bytes(b"not a segment")
        # Well-formed envelope around a non-store payload is skipped too.
        payload = pickle.dumps(["not", "a", "store", "dict"])
        (tmp_path / "zz-list.seg").write_bytes(
            MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload
        )
        reader = EvaluationStore(tmp_path)
        estimates, _ = reader.load()
        assert len(estimates) > 0
        assert reader.stats.segments_loaded == 1
        assert reader.stats.segments_skipped == 2

    def test_failed_flush_keeps_delta_dirty(self, tmp_path, cfg_pt4,
                                            pynq, monkeypatch):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(type(store), "flush_entries", explode)
        with pytest.raises(OSError):
            store.flush(cache)
        monkeypatch.undo()
        # The delta survived the failure and persists on retry.
        assert store.flush(cache) > 0
        loaded_est, _ = EvaluationStore(tmp_path).load()
        assert loaded_est == cache.snapshot_entries()[0]

    def test_no_tmp_files_left_behind(self, tmp_path, cfg_pt4, pynq):
        self._flushed_store(tmp_path, cfg_pt4, pynq)
        assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []

    def test_path_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("hello")
        with pytest.raises(ReproError):
            EvaluationStore(target)

    def test_empty_store_loads_empty(self, tmp_path):
        store = EvaluationStore(tmp_path / "never-created")
        assert store.load() == ({}, {})
        assert store.stats.segments_loaded == 0


# -- session integration ----------------------------------------------------


class TestSessionStore:
    def test_session_close_flushes_and_warms_next(self, tmp_path, pynq):
        network = zoo.tiny_cnn(input_size=32)
        with PipelineSession(network, pynq, store=tmp_path) as session:
            cold = session.dse()
        assert session.store.stats.estimates_flushed > 0

        warm_session = PipelineSession(network, pynq, store=tmp_path)
        warm = warm_session.dse()
        stats = warm_session.cache_stats
        assert stats.misses == 0
        assert stats.estimate_hit_rate == 1.0
        assert (warm.cfg, warm.mapping, warm.estimate) == (
            cold.cfg, cold.mapping, cold.estimate
        )
        assert warm_session.close() == 0  # nothing new to persist

    def test_store_accepts_instance(self, tmp_path, pynq):
        store = EvaluationStore(tmp_path)
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq,
                                  store=store)
        assert session.store is store

    def test_sessionless_close_is_noop(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq)
        assert session.close() == 0


# -- store-backed DSE -------------------------------------------------------


def _ranking(result):
    return [
        (r.cfg, r.mapping, r.estimate) for r in (result, *result.runners_up)
    ]


class TestStoreBackedDse:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_mlp"])
    def test_warm_run_matches_exhaustive_reference(self, tmp_path, pynq,
                                                   model):
        network = zoo.get_model(model)
        with PipelineSession(network, pynq, store=tmp_path) as session:
            session.dse()
        warm = PipelineSession(network, pynq, store=tmp_path)
        assert _ranking(warm.dse()) == _ranking(exhaustive_dse(pynq, network))
        assert warm.cache_stats.misses == 0

    def test_computed_entries_are_dirty(self, pynq):
        network = zoo.tiny_cnn(input_size=32)
        cache = EvaluationCache()
        run_dse(pynq, network, DseOptions(), cache=cache)
        assert len(cache) > 0
        # Every computed entry is dirty: a store flush would persist it.
        estimates, partitions = cache.take_dirty()
        assert len(estimates) == len(cache)
        assert len(partitions) > 0


# -- CLI --------------------------------------------------------------------


class TestCliCacheDir:
    def test_dse_cache_dir_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["dse", "--model", "tiny_cnn", "--device", "pynq-z1",
                "--cache-dir", str(tmp_path / "cache"), "-v"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "store" in first and "flushed" in first
        assert main(argv) == 0  # second invocation starts warm
        second = capsys.readouterr().out
        assert "100.0%" in second  # estimate hit rate served from disk
