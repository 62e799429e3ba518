"""TTL + LRU semantics of the service's results cache."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import TTLCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_put_get_roundtrip():
    cache = TTLCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", "fallback") == "fallback"
    assert cache.stats()["entries"] == 1


def test_lru_eviction_order():
    cache = TTLCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a's recency; b becomes LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_ttl_expiry_with_fake_clock():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(9.9)
    assert cache.get("a") == 1
    clock.advance(0.2)
    assert cache.get("a") is None
    assert cache.stats()["expirations"] == 1


def test_get_refreshes_recency_not_deadline():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(6.0)
    assert cache.get("a") == 1  # read does not reset the deadline
    clock.advance(6.0)
    assert cache.get("a") is None


def test_put_resets_deadline():
    clock = FakeClock()
    cache = TTLCache(4, ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(6.0)
    cache.put("a", 2)
    clock.advance(6.0)
    assert cache.get("a") == 2


def test_validation():
    with pytest.raises(ValueError, match="max_entries"):
        TTLCache(0)
    with pytest.raises(ValueError, match="ttl"):
        TTLCache(4, ttl=0)


def test_stats_shape():
    cache = TTLCache(2, ttl=60.0)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats == {
        "entries": 1,
        "max_entries": 2,
        "ttl_s": 60.0,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "expirations": 0,
    }


def test_concurrent_mutation_is_safe():
    cache = TTLCache(8)
    errors: list[Exception] = []

    def worker(base: int) -> None:
        try:
            for i in range(200):
                key = (base + i) % 12
                cache.put(key, i)
                cache.get(key)
                cache.get((key + 1) % 12)
        except Exception as exc:  # pragma: no cover - only on race
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.stats()["entries"] <= 8
