"""EnginePool routing and lifecycle, and the engine's LRU compile memo.

Digest routing must be a stable pure function (same digest -> same
shard, across pool instances) and reasonably balanced.  The compile
memo backing each engine must be LRU (hot entries survive cold bursts)
and safe under concurrent access.
"""

import threading

import pytest

from repro.api import AnalyzeRequest, EngineConfig, JsonDiskCache
from repro.api.engine import _EvictingMemo
from repro.server import EnginePool, PoolClosed, consistent_ring

SOURCE = """
program pool_test
param N
array A(100), B(100)

main
  do i = 1, N @ copy
    A[i] = B[i] + 1
  end
end
"""


def _digests(count):
    return [JsonDiskCache.digest(f"program {i}") for i in range(count)]


class TestConsistentRouting:
    def test_ring_is_deterministic(self):
        assert consistent_ring(4) == consistent_ring(4)
        assert len(consistent_ring(3, vnodes=16)) == 48

    def test_same_digest_same_shard_across_pools(self):
        a = EnginePool(workers=4)
        b = EnginePool(workers=4)
        for digest in _digests(50):
            assert a.shard_for(digest) == b.shard_for(digest)

    def test_routing_is_stable_per_digest(self):
        pool = EnginePool(workers=4)
        for digest in _digests(20):
            first = pool.shard_for(digest)
            assert all(pool.shard_for(digest) == first for _ in range(5))

    def test_every_shard_gets_work(self):
        pool = EnginePool(workers=4)
        shards = {pool.shard_for(d) for d in _digests(200)}
        assert shards == {0, 1, 2, 3}

    def test_balance_within_reason(self):
        pool = EnginePool(workers=4)
        counts = [0, 0, 0, 0]
        for digest in _digests(2000):
            counts[pool.shard_for(digest)] += 1
        assert min(counts) > 2000 / 4 * 0.5  # no starving shard

    def test_digest_mode_has_private_engines(self):
        pool = EnginePool(workers=3)
        assert len({id(pool.engine_for(i)) for i in range(3)}) == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EnginePool(workers=0)
        with pytest.raises(ValueError):
            EnginePool(queue_depth=0)


class TestPoolLifecycle:
    def test_serves_after_start_and_rejects_after_stop(self):
        from concurrent.futures import Future

        pool = EnginePool(
            workers=2, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        request = AnalyzeRequest(source=SOURCE, loop="copy")
        digest = JsonDiskCache.digest(SOURCE)
        future = Future()
        pool.submit(pool.shard_for(digest), digest, request, future)
        assert future.result(timeout=60).classification == "STATIC-PAR"
        pool.stop()
        with pytest.raises(PoolClosed):
            pool.submit(0, digest, request, Future())

    def test_restart_after_stop_fails_fast(self):
        pool = EnginePool(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        ).start()
        pool.stop()
        with pytest.raises(PoolClosed, match="create a new one"):
            pool.start()

    def test_stop_without_drain_fails_pending(self):
        from concurrent.futures import Future

        pool = EnginePool(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        )  # never started: queued work stays queued
        future = Future()
        digest = JsonDiskCache.digest(SOURCE)
        pool.submit(0, digest, AnalyzeRequest(source=SOURCE, loop="copy"), future)
        pool.stop(drain=False)
        with pytest.raises(PoolClosed):
            future.result(timeout=5)

    def test_stop_of_never_started_pool_fails_queued_futures(self):
        # drain=True cannot drain without workers; queued futures must
        # fail with PoolClosed instead of being stranded forever
        from concurrent.futures import Future

        pool = EnginePool(
            workers=1, engine_config=EngineConfig(use_disk_cache=False)
        )
        future = Future()
        digest = JsonDiskCache.digest(SOURCE)
        pool.submit(0, digest, AnalyzeRequest(source=SOURCE, loop="copy"), future)
        pool.stop()  # default drain=True
        with pytest.raises(PoolClosed):
            future.result(timeout=5)


class TestEvictingMemoLRU:
    def test_get_touches_entry(self):
        memo = _EvictingMemo("test.lru.touch", max_size=3)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        memo.get("a")  # a becomes most-recent; b is now LRU
        memo.put("d", 4)
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        assert memo.get("d") == 4

    def test_hot_entry_survives_cold_burst(self):
        memo = _EvictingMemo("test.lru.hot", max_size=8)
        memo.put("hot", "plan")
        for i in range(100):  # cold fuzz-like churn
            memo.put(f"cold-{i}", i)
            memo.get("hot")
        assert memo.get("hot") == "plan"

    def test_overwrite_at_capacity_does_not_evict(self):
        memo = _EvictingMemo("test.lru.overwrite", max_size=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)  # same key: no eviction
        assert memo.get("a") == 10
        assert memo.get("b") == 2

    def test_concurrent_put_get_is_safe_and_bounded(self):
        memo = _EvictingMemo("test.lru.threads", max_size=64)
        errors = []

        def pound(tid):
            try:
                for i in range(2000):
                    memo.put((tid, i % 40), i)
                    memo.get((tid, (i * 7) % 40))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=pound, args=(tid,)) for tid in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(memo.data) <= 64
