"""Unit tests for the id-only LRU BufferPool and its hit/miss counting."""

import pytest

from repro.em import (
    Block,
    BufferPool,
    CachedDisk,
    ConfigurationError,
    Disk,
    MemoryBudget,
    STRICT_POLICY,
    IOStats,
)
from repro.em.cache import CacheStats
from repro.service.service import ServiceLedger


@pytest.fixture
def disk():
    return Disk(4, stats=IOStats(policy=STRICT_POLICY))


def fill(disk, n):
    ids = disk.allocate_many(n)
    for bid in ids:
        disk.write(bid, Block(4, data=[bid]))
    disk.stats.reset()
    return ids


def access(pool, block_id):
    """One access the way CachedDisk makes it: a miss admits the id."""
    if pool.touch(block_id):
        return True
    pool.admit(block_id)
    return False


def cached(capacity):
    disk = CachedDisk(4, cache_blocks=capacity, stats=IOStats(policy=STRICT_POLICY))
    return disk, fill(disk, 3)


class TestHitsAndMisses:
    def test_first_get_misses_then_hits(self):
        disk, ids = cached(2)
        disk.read(ids[0])
        disk.read(ids[0])
        assert disk.cache.stats.misses == 1
        assert disk.cache.stats.hits == 1
        assert disk.stats.reads == 1  # only the miss touched disk

    def test_hit_charges_no_io(self):
        disk, ids = cached(2)
        disk.read(ids[0])
        before = disk.stats.total
        assert disk.read(ids[0]).records() == [ids[0]]
        assert disk.probe_record(ids[0], ids[0])
        assert disk.stats.total == before

    def test_hit_rate(self):
        disk, ids = cached(2)
        for _ in range(3):
            disk.read(ids[0])
        assert disk.cache.stats.hit_rate == pytest.approx(2 / 3)


class TestEvictionAndWriteback:
    def test_lru_eviction_order(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        for bid in ids:  # the third admission evicts ids[0]
            access(pool, bid)
        assert not pool.is_resident(ids[0])
        assert pool.is_resident(ids[1])
        assert pool.is_resident(ids[2])
        assert pool.stats.evictions == 1

    def test_get_refreshes_lru_position(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        access(pool, ids[0])
        access(pool, ids[1])
        assert access(pool, ids[0])  # refresh 0; 1 is now LRU
        access(pool, ids[2])
        assert pool.is_resident(ids[0])
        assert not pool.is_resident(ids[1])

    def test_clean_eviction_no_writeback(self):
        disk, ids = cached(2)
        for bid in ids:
            disk.read(bid)
        assert disk.cache.stats.evictions == 1
        assert disk.cache.stats.writebacks == 0
        assert disk.stats.writes == 0

    def test_admitting_a_resident_id_refreshes_it(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        pool.admit(ids[0])
        pool.admit(ids[1])
        pool.admit(ids[0])  # already resident: no eviction, now MRU
        assert pool.resident() == [ids[1], ids[0]]
        pool.admit(ids[2])
        assert pool.resident() == [ids[0], ids[2]]
        assert pool.stats.evictions == 1

    def test_invalidate_drops_only_that_id(self, disk):
        ids = fill(disk, 2)
        pool = BufferPool(disk, 2)
        access(pool, ids[0])
        access(pool, ids[1])
        pool.invalidate(ids[0])
        pool.invalidate(ids[0])  # absent: a no-op
        assert pool.resident() == [ids[1]]
        assert pool.stats.evictions == 0


class TestMemo:
    def test_memo_leaves_with_its_id(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        pool.admit(ids[0])
        pool.remember(ids[0], "m0")
        pool.admit(ids[0])  # a refresh keeps the memo
        assert pool.memo(ids[0]) == "m0"
        pool.remember(ids[2], "absent")  # not resident: a no-op
        assert pool.memo(ids[2]) is None and not pool.is_resident(ids[2])
        pool.invalidate(ids[0])
        pool.admit(ids[0])
        assert pool.memo(ids[0]) is None
        pool.remember(ids[0], "m0")
        pool.admit(ids[1])
        pool.admit(ids[2])  # evicts ids[0]
        pool.admit(ids[0])
        assert pool.memo(ids[0]) is None
        pool.remember(ids[0], "m0")
        pool.clear()
        assert pool.memo(ids[0]) is None


class TestBudgetIntegration:
    def test_frames_charged_to_budget(self, disk):
        budget = MemoryBudget(100)
        BufferPool(disk, 3, budget=budget, owner="pool")
        assert budget.charge_of("pool") == 3 * disk.b

    def test_close_releases_charge(self, disk):
        budget = MemoryBudget(100)
        pool = BufferPool(disk, 3, budget=budget, owner="pool")
        pool.close()
        assert budget.charge_of("pool") == 0

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(ConfigurationError):
            BufferPool(disk, 0)


def test_resident_order_is_lru_first(disk):
    ids = fill(disk, 3)
    pool = BufferPool(disk, 3)
    for bid in ids:
        access(pool, bid)
    access(pool, ids[0])
    assert pool.resident() == [ids[1], ids[2], ids[0]]
    assert len(pool) == 3


class TestStatsLifecycle:
    def test_negative_hits_outside_hit_rate(self):
        s = CacheStats(hits=3, misses=1, negative_hits=10)
        assert s.accesses == 4
        assert s.hit_rate == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "ledger, start, bump",
        [
            (
                CacheStats,
                dict(hits=5, misses=2, negative_hits=1, writebacks=1, evictions=3),
                dict(hits=10, misses=4, negative_hits=2),
            ),
            (
                IOStats,
                dict(reads=7, writes=3, combined=2, allocations=1),
                dict(reads=5, combined=1),
            ),
            (
                ServiceLedger,
                dict(migrated_slots=2, keys_moved=40, migration_io=9,
                     migrations_applied=1),
                dict(migrated_slots=3, keys_moved=11, migration_io=6,
                     migrations_applied=1),
            ),
        ],
        ids=["cache", "io", "migration"],
    )
    def test_snapshot_delta_absorb_roundtrip(self, ledger, start, bump):
        """Every ledger shares one checkpoint/merge implementation."""
        s = ledger(**start)
        snap = s.snapshot()
        for name, value in bump.items():
            setattr(s, name, getattr(s, name) + value)
        d = s.delta_since(snap)
        assert d.as_dict() == {name: bump.get(name, 0) for name in ledger.FIELDS}
        assert s - snap == d
        agg = ledger()
        agg.absorb(snap)
        agg.absorb(d)
        assert agg == s

    def test_clear_preserves_stats(self):
        disk, ids = cached(4)
        disk.read(ids[0])
        disk.read(ids[0])
        disk.read(ids[1])
        disk.cache.clear()
        assert len(disk.cache) == 0
        assert disk.cache.stats.hits == 1 and disk.cache.stats.misses == 2
        disk.read(ids[0])  # cleared: a miss again
        assert disk.cache.stats.misses == 3

    def test_close_preserves_stats(self):
        budget = MemoryBudget(100)
        disk = CachedDisk(4, cache_blocks=2, budget=budget, cache_owner="pool")
        (bid,) = fill(disk, 1)
        disk.read(bid)
        disk.read(bid)
        disk.cache.close()
        assert budget.charge_of("pool") == 0
        assert disk.cache.stats.hits == 1 and disk.cache.stats.misses == 1
