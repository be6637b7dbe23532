"""LRU cache + the executor's bounded format cache."""

import threading

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.gpu import KEPLER_K40C, SpMVExecutor
from repro.gpu.cache import LRUCache


class TestLRUCache:
    def test_put_get(self):
        c = LRUCache(2)
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.get("missing") is None
        assert "a" in c and len(c) == 1

    def test_evicts_least_recently_used(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # refresh "a"; "b" is now the LRU entry
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c

    def test_setdefault_keeps_first_value(self):
        c = LRUCache(4)
        first = object()
        assert c.setdefault("k", first) is first
        assert c.setdefault("k", object()) is first

    def test_unbounded_when_maxsize_none(self):
        c = LRUCache(None)
        for i in range(1000):
            c.put(i, i)
        assert len(c) == 1000

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.clear()
        assert len(c) == 0 and "a" not in c

    def test_concurrent_hammer(self):
        """put/get/setdefault/clear from many threads: no corruption.

        The cache carries its own lock (serving threads share it
        without external synchronisation), so a mixed workload must
        never raise and must end within the size bound.
        """
        c = LRUCache(32)
        errors = []
        start = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                start.wait(timeout=10)
                for i in range(500):
                    key = int(rng.integers(64))
                    op = i % 4
                    if op == 0:
                        c.put(key, (seed, i))
                    elif op == 1:
                        got = c.get(key)
                        assert got is None or isinstance(got, tuple)
                    elif op == 2:
                        assert isinstance(c.setdefault(key, (seed, i)), tuple)
                    elif seed == 0 and i % 400 == 0:
                        c.clear()
                    else:
                        len(c)
                        key in c
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(c) <= 32


class TestExecutorFormatCache:
    def test_repeat_run_skips_conversion(self, small_coo, monkeypatch):
        import repro.gpu.executor as executor_mod

        calls = []
        real = executor_mod.as_format

        def counting(coo, fmt):
            calls.append(fmt)
            return real(coo, fmt)

        monkeypatch.setattr(executor_mod, "as_format", counting)
        ex = SpMVExecutor(KEPLER_K40C)
        y1, _ = ex.run(small_coo, "csr")
        y2, _ = ex.run(small_coo, "csr")
        assert calls == ["csr"]          # second run served from cache
        assert np.array_equal(y1, y2)

    def test_same_structure_different_values_not_conflated(self):
        """The digest covers structure only; values must still be honest."""
        dense = np.zeros((6, 6))
        dense[np.arange(6), np.arange(6)] = 1.0
        m1 = COOMatrix.from_dense(dense)
        m2 = COOMatrix.from_dense(dense * 3.0)
        ex = SpMVExecutor(KEPLER_K40C)
        y1, _ = ex.run(m1, "csr")
        y2, _ = ex.run(m2, "csr")
        assert np.allclose(y1, np.ones(6))
        assert np.allclose(y2, 3.0 * np.ones(6))

    def test_cache_is_bounded(self, small_coo):
        ex = SpMVExecutor(KEPLER_K40C, format_cache_maxsize=1)
        ex.run(small_coo, "csr")
        ex.run(small_coo, "coo")
        assert len(ex._format_cache) == 1
