"""Tests for the shared content-keyed result cache (repro.cache).

The cache-key property the whole serving layer rests on: the key
depends only on *(namespace, version, parameters, input bytes)* — not
on how the bytes are fed in (file path vs in-memory, any chunking) —
and changes whenever any ingredient changes.  With ``max_bytes`` set
the cache must also stay under its cap by evicting least-recently-used
entries, with reads refreshing recency.
"""

import io
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ReportCache, content_key, iter_chunks
from repro.errors import ReproError


class TestContentKey:
    def test_path_and_data_agree(self, tmp_path):
        payload = b'{"rank": 0}\n' * 1000
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(payload)
        assert content_key("ns", 1, {"a": 1}, path=trace) \
            == content_key("ns", 1, {"a": 1}, data=payload)

    def test_key_tracks_every_ingredient(self, tmp_path):
        base = content_key("ns", 1, {"a": 1}, data=b"xyz")
        assert content_key("ns", 1, {"a": 1}, data=b"xyz") == base
        assert content_key("other", 1, {"a": 1}, data=b"xyz") != base
        assert content_key("ns", 2, {"a": 1}, data=b"xyz") != base
        assert content_key("ns", 1, {"a": 2}, data=b"xyz") != base
        assert content_key("ns", 1, {"a": 1}, data=b"xyzz") != base

    def test_param_order_is_canonicalized(self):
        assert content_key("ns", 1, {"a": 1, "b": 2}) \
            == content_key("ns", 1, {"b": 2, "a": 1})

    def test_path_and_data_are_exclusive(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b"x")
        with pytest.raises(ValueError):
            content_key("ns", 1, {}, path=trace, data=b"x")

    @given(data=st.binary(min_size=0, max_size=1 << 16),
           params=st.dictionaries(
               st.text(max_size=8),
               st.one_of(st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=8), st.none()),
               max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_chunked_file_read_matches_eager_bytes(self, tmp_path_factory,
                                                   data, params):
        """The satellite invariant: hashing a file (read in bounded
        chunks internally) and hashing the same bytes eagerly yield the
        same key — the cache never depends on I/O granularity."""
        scratch = tmp_path_factory.mktemp("key") / "blob"
        scratch.write_bytes(data)
        assert content_key("ns", 3, params, path=scratch) \
            == content_key("ns", 3, params, data=data)


class TestReportCache:
    def test_round_trip(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, "payload")
        assert cache.get("k" * 64) == "payload"
        assert ("k" * 64) in cache
        assert len(cache) == 1
        assert list(cache.keys()) == ["k" * 64]

    def test_read_only_consumer_never_creates_the_directory(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        assert cache.get("missing") is None
        assert len(cache) == 0
        assert not (tmp_path / "cache").exists()

    def test_put_is_atomic_no_scratch_left_behind(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        cache.put("abc", "one")
        cache.put("abc", "two")
        assert cache.get("abc") == "two"
        assert [p.name for p in (tmp_path / "cache").iterdir()] \
            == ["abc.json"]

    def test_hit_miss_counters(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        cache.get("a")
        cache.put("a", "x")
        cache.get("a")
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_concurrent_writers_of_one_key_never_tear(self, tmp_path):
        """N threads hammering the same key: every read observes one
        writer's complete payload, never a mix."""
        cache = ReportCache(tmp_path / "cache")
        payloads = [str(i) * 2048 for i in range(8)]
        barrier = threading.Barrier(len(payloads))

        def writer(text):
            barrier.wait()
            for _ in range(10):
                cache.put("contended", text)

        threads = [threading.Thread(target=writer, args=(text,))
                   for text in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.get("contended") in payloads


class TestIterChunks:
    def test_reassembles_exactly(self):
        payload = bytes(range(256)) * 37
        chunks = list(iter_chunks(io.BytesIO(payload), chunk_size=100))
        assert b"".join(chunks) == payload
        assert all(len(chunk) <= 100 for chunk in chunks)
        assert all(chunks)          # EOF terminates, no empty chunks

    def test_empty_stream_yields_nothing(self):
        assert list(iter_chunks(io.BytesIO(b""))) == []

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(io.BytesIO(b"x"), chunk_size=0))


class TestEviction:
    """The bounded cache: LRU eviction keeps the directory under cap."""

    @staticmethod
    def _age(cache, key, mtime):
        os.utime(cache.path(key), (mtime, mtime))

    def test_oldest_entry_evicted_when_over_cap(self, tmp_path):
        cache = ReportCache(tmp_path / "cache", max_bytes=250)
        for stamp, key in enumerate(("old", "mid", "new")):
            cache.put(key, "x" * 100)
            self._age(cache, key, 1_000_000 + stamp)
        cache.put("newest", "x" * 100)    # 400 bytes total: evict two
        assert cache.get("old") is None
        assert cache.get("mid") is None
        assert cache.get("new") == "x" * 100
        assert cache.get("newest") == "x" * 100
        assert cache.stats()["evictions"] == 2
        assert cache.total_bytes() <= 250

    def test_read_refreshes_recency(self, tmp_path):
        cache = ReportCache(tmp_path / "cache", max_bytes=250)
        for stamp, key in enumerate(("a", "b")):
            cache.put(key, "x" * 100)
            self._age(cache, key, 1_000_000 + stamp)
        assert cache.get("a") == "x" * 100   # now newer than "b"
        cache.put("c", "x" * 100)
        assert cache.get("b") is None
        assert cache.get("a") == "x" * 100
        assert cache.get("c") == "x" * 100

    def test_just_written_entry_survives_even_oversized(self, tmp_path):
        cache = ReportCache(tmp_path / "cache", max_bytes=10)
        cache.put("big", "x" * 100)
        assert cache.get("big") == "x" * 100
        assert cache.stats()["evictions"] == 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        for index in range(20):
            cache.put(f"key{index}", "x" * 1000)
        assert len(cache) == 20
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["max_bytes"] is None

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ReproError):
            ReportCache(tmp_path / "cache", max_bytes=0)

    def test_stats_report_size_and_cap(self, tmp_path):
        cache = ReportCache(tmp_path / "cache", max_bytes=1 << 20)
        cache.put("a", "x" * 123)
        stats = cache.stats()
        assert stats["bytes"] == 123
        assert stats["max_bytes"] == 1 << 20


class TestSweepRewire:
    """The sweep's cache behavior survives the factoring-out."""

    def test_trace_key_is_a_content_key(self, tmp_path):
        from repro.sweep import CACHE_FORMAT, trace_key
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b'{"rank": 0}\n')
        assert trace_key(trace, {"windows": 4, "chunk_size": 9}) \
            == content_key("repro-temporal-sweep", CACHE_FORMAT,
                           {"windows": 4, "index": "euclidean",
                            "strict": False}, path=trace)
