"""Persistent autotune cache: keying, eviction, concurrency, integration.

A wrong cache entry does not crash — it silently picks the wrong kernel
and corrupts every benchmark downstream. So the battery here is about
*correctness of reuse*: a hit must only ever be a measurement this host,
this shape, this candidate set, and this thread budget could have made,
and anything suspect must degrade to a re-race, never be trusted.
"""

import json
import os
import time

import pytest

from repro.engine.cache import (
    AUTOTUNE_CACHE_VERSION,
    AutotuneCache,
    MAX_CACHE_BYTES,
    _FileLock,
)
from repro.ir.shape_inference import infer_shapes
from repro.runtime.autotune import autotune, cache_key
from tests.conftest import make_conv_node, tiny_classifier

_CANDIDATES = {"Conv": ("im2col", "direct")}


def _conv_shapes(spatial=8):
    return [(1, 3, spatial, spatial), (4, 3, 3, 3), (4,)]


# -- cache keys ----------------------------------------------------------------


class TestCacheKey:
    def test_deterministic(self):
        node = make_conv_node()
        key = cache_key(node, _conv_shapes(), ("im2col", "direct"), 1)
        assert key == cache_key(node, _conv_shapes(), ("im2col", "direct"), 1)

    def test_changes_with_shape(self):
        node = make_conv_node()
        assert (cache_key(node, _conv_shapes(8), ("im2col",), 1)
                != cache_key(node, _conv_shapes(16), ("im2col",), 1))

    def test_changes_with_threads(self):
        node = make_conv_node()
        assert (cache_key(node, _conv_shapes(), ("im2col",), 1)
                != cache_key(node, _conv_shapes(), ("im2col",), 4))

    def test_changes_with_candidate_set(self):
        """A winner raced against fewer rivals is not the same decision."""
        node = make_conv_node()
        assert (cache_key(node, _conv_shapes(), ("im2col",), 1)
                != cache_key(node, _conv_shapes(), ("im2col", "direct"), 1))

    def test_changes_with_node_attrs(self):
        strided = make_conv_node(strides=(2, 2))
        assert (cache_key(make_conv_node(), _conv_shapes(), ("im2col",), 1)
                != cache_key(strided, _conv_shapes(), ("im2col",), 1))

    def test_ignores_node_name(self):
        """Identity is the tuning *signature*, not the node's label."""
        a = make_conv_node(name="conv_1")
        b = make_conv_node(name="conv_99")
        assert (cache_key(a, _conv_shapes(), ("im2col",), 1)
                == cache_key(b, _conv_shapes(), ("im2col",), 1))


# -- store semantics -----------------------------------------------------------


class TestAutotuneCacheStore:
    def test_put_get_flush_reload(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = AutotuneCache(path)
        assert cache.get("k1") is None
        assert cache.misses == 1
        cache.put("k1", "im2col")
        assert cache.get("k1") == "im2col"
        assert cache.hits == 1
        assert cache.flush() == 1
        reloaded = AutotuneCache(path)
        assert reloaded.get("k1") == "im2col"
        assert len(reloaded) == 1

    def test_flush_without_changes_is_free(self, tmp_path):
        cache = AutotuneCache(tmp_path / "tune.json")
        assert cache.flush() == 0
        assert not os.path.exists(cache.path)

    def test_host_mismatch_evicts_whole_file(self, tmp_path):
        path = tmp_path / "tune.json"
        other = AutotuneCache(path, host={"machine": "some-other-box"})
        other.put("k1", "im2col")
        other.flush()
        mine = AutotuneCache(path)  # real host fingerprint
        assert "k1" not in mine
        assert mine.evicted == 1

    def test_version_mismatch_evicts_whole_file(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = AutotuneCache(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": AUTOTUNE_CACHE_VERSION + 1,
                       "host": cache.host,
                       "entries": {"k1": "im2col"}}, handle)
        stale = AutotuneCache(path)
        assert "k1" not in stale
        assert stale.evicted == 1

    @pytest.mark.parametrize("payload", [
        b"not json at all", b"[1,2,3]", b'{"entries": "not-a-dict"}', b""])
    def test_corrupt_file_reads_as_cold(self, tmp_path, payload):
        path = tmp_path / "tune.json"
        path.write_bytes(payload)
        assert len(AutotuneCache(path)) == 0

    def test_oversized_file_reads_as_cold(self, tmp_path, monkeypatch):
        from repro.engine import cache as cache_module
        path = tmp_path / "tune.json"
        first = AutotuneCache(path)
        first.put("k1", "im2col")
        first.flush()
        monkeypatch.setattr(cache_module, "MAX_CACHE_BYTES", 8)
        assert len(AutotuneCache(path)) == 0
        assert MAX_CACHE_BYTES > 8  # the real cap is untouched

    def test_non_string_entries_dropped(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = AutotuneCache(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": AUTOTUNE_CACHE_VERSION,
                       "host": cache.host,
                       "entries": {"ok": "im2col", "bad": 7}}, handle)
        survivor = AutotuneCache(path)
        assert survivor.get("ok") == "im2col"
        assert "bad" not in survivor


# -- concurrency ---------------------------------------------------------------


class TestConcurrentWriters:
    def test_sibling_flushes_merge(self, tmp_path):
        """Read-merge-replace: the second flush keeps the first one's keys."""
        path = tmp_path / "tune.json"
        one, two = AutotuneCache(path), AutotuneCache(path)
        one.put("k1", "im2col")
        two.put("k2", "direct")
        one.flush()
        two.flush()
        merged = AutotuneCache(path)
        assert merged.get("k1") == "im2col"
        assert merged.get("k2") == "direct"

    def test_lock_contention_proceeds_after_timeout(self, tmp_path):
        path = str(tmp_path / "tune.json")
        with _FileLock(path):
            # A second writer with a tiny budget gives up on the lock but
            # still completes — a lost update beats a deadlocked benchmark.
            # Not held means it left by the timeout path: waiting out
            # stale_s instead would have broken the lock and taken it.
            contender = _FileLock(path, timeout_s=0.05, stale_s=60.0)
            with contender:
                assert not contender._held

    def test_stale_lock_is_broken(self, tmp_path):
        path = str(tmp_path / "tune.json")
        lock_path = path + ".lock"
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write("12345")
        ancient = time.time() - 3600
        os.utime(lock_path, (ancient, ancient))
        with _FileLock(path, timeout_s=0.5, stale_s=30.0) as lock:
            assert lock._held  # abandoned lock was swept aside
        assert not os.path.exists(lock_path)


# -- autotune integration ------------------------------------------------------


class TestAutotuneIntegration:
    def test_second_run_hits_and_agrees(self, tmp_path):
        graph = tiny_classifier()
        path = tmp_path / "tune.json"
        cold_cache = AutotuneCache(path)
        cold = autotune(graph, _CANDIDATES, cache=cold_cache)
        assert cold  # the conv was tuned and flushed
        assert os.path.exists(path)
        warm_cache = AutotuneCache(path)
        warm = autotune(graph, _CANDIDATES, cache=warm_cache)
        assert warm == cold
        assert warm_cache.hits >= 1
        # a hit skips the race entirely, so nothing new was written
        assert warm_cache.flush() == 0

    def test_unregistered_winner_is_reraced(self, tmp_path):
        """A stale winner that no longer resolves must never be trusted."""
        graph = tiny_classifier()
        value_types = infer_shapes(graph)
        conv = next(n for n in graph.nodes if n.op_type == "Conv")
        shapes = [value_types[name][0] for name in conv.inputs]
        names = _CANDIDATES["Conv"]
        key = cache_key(conv, shapes, names, 1)
        path = tmp_path / "tune.json"
        poisoned = AutotuneCache(path)
        poisoned.put(key, "kernel_deleted_in_v2")
        poisoned.flush()
        cache = AutotuneCache(path)
        overrides = autotune(graph, _CANDIDATES, cache=cache)
        assert overrides[conv.name] in names
        # the re-race overwrote the poisoned entry in place
        assert cache.get(key) in names

    def test_winner_outside_candidate_set_is_reraced(self, tmp_path):
        """Same key discipline: shrinking the candidate set re-races."""
        graph = tiny_classifier()
        path = tmp_path / "tune.json"
        first = AutotuneCache(path)
        autotune(graph, _CANDIDATES, cache=first)
        narrowed = {"Conv": ("direct",)}
        second = AutotuneCache(path)
        overrides = autotune(graph, narrowed, cache=second)
        conv = next(n for n in graph.nodes if n.op_type == "Conv")
        assert overrides[conv.name] == "direct"

    def test_threads_partition_the_cache(self, tmp_path):
        graph = tiny_classifier()
        path = tmp_path / "tune.json"
        one = AutotuneCache(path)
        autotune(graph, _CANDIDATES, threads=1, cache=one)
        two = AutotuneCache(path)
        autotune(graph, _CANDIDATES, threads=2, cache=two)
        assert two.hits == 0  # different thread budget, different keys
        assert len(AutotuneCache(path)) == 2
