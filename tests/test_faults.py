"""Fault injection, retry healing, and the crashing journal.

What must hold: seeded schedules are exactly reproducible; a fault
burst within the retry budget heals invisibly (I/O ledgers untouched —
retries live below the disk's charging layer); a burst beyond it
surfaces as ``RetryExhausted`` with the block, shard, and epoch named;
a hard crash is never retried and leaves torn state behind that
recovery must ignore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em import (
    Disk,
    MappingBackend,
    RetryExhausted,
    SimulatedCrash,
    StorageBackend,
    StorageFault,
    make_context,
)
from repro.core.buffered import BufferedHashTable
from repro.em.cache import INDEX_AFTER_HITS
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import (
    BackendDecorator,
    CrashingJournal,
    DictionaryService,
    EpochJournal,
    FaultClock,
    FaultInjectingBackend,
    FaultSchedule,
    RetryPolicy,
    RetryingBackend,
    install_fault_stack,
)


def _stack(schedule, policy=None, sleeps=None):
    inner = MappingBackend(8, 1)
    faulty = FaultInjectingBackend(inner, schedule=schedule)
    retrier = RetryingBackend(
        faulty,
        policy=policy or RetryPolicy(max_retries=3, backoff_s=0.001),
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
    )
    return inner, faulty, retrier


class TestDecoratorProtocol:
    def test_every_protocol_member_is_declared_exactly_once(self):
        """A member added to StorageBackend later cannot bypass fault
        injection silently: it must be sorted into one of the sets."""
        sets = (
            BackendDecorator.READ,
            BackendDecorator.WRITE,
            BackendDecorator.PASSTHROUGH,
        )
        for member in StorageBackend.__abstractmethods__:
            assert sum(member in s for s in sets) == 1, member
        declared = set().union(*sets)
        assert sum(len(s) for s in sets) == len(declared)
        assert all(hasattr(StorageBackend, m) for m in declared)

    def test_decorators_define_no_per_method_forwarders(self):
        members = (
            BackendDecorator.READ
            | BackendDecorator.WRITE
            | BackendDecorator.PASSTHROUGH
        )
        for cls in (FaultInjectingBackend, RetryingBackend):
            assert not members & set(vars(cls)), cls.__name__


class TestSchedule:
    def test_sample_deterministic(self):
        a = FaultSchedule.sample(7, 500, read_sites=5, write_sites=5)
        b = FaultSchedule.sample(7, 500, read_sites=5, write_sites=5)
        assert a == b
        c = FaultSchedule.sample(8, 500, read_sites=5, write_sites=5)
        assert a != c

    def test_sample_sites_in_range(self):
        s = FaultSchedule.sample(1, 50, read_sites=10, write_sites=10, burst=3)
        for site, burst in {**s.read_faults, **s.write_faults}.items():
            assert 1 <= site <= 50
            assert burst == 3


class TestInjection:
    def test_fault_fires_at_site_then_heals(self):
        inner, faulty, _ = _stack(FaultSchedule(read_faults={2: 1}))
        inner.create(0)
        inner.append(0, [5])
        faulty.fetch(0)  # op 1: clean
        with pytest.raises(StorageFault, match="read fault"):
            faulty.fetch(0)  # op 2: scheduled
        assert faulty.fetch(0).records() == [5]  # op 3: healed

    def test_burst_spans_consecutive_calls(self):
        inner, faulty, _ = _stack(FaultSchedule(write_faults={1: 3}))
        inner.create(0)
        for _ in range(3):
            with pytest.raises(StorageFault):
                faulty.append(0, [1])
        faulty.append(0, [1])  # burst exhausted
        assert inner.records(0) == [1]

    def test_crash_tears_multi_record_write(self):
        inner, faulty, _ = _stack(FaultSchedule(crash_at_op=1))
        inner.create(0)
        with pytest.raises(SimulatedCrash):
            faulty.append(0, [1, 2, 3, 4])
        # A prefix landed: the abandoned state is genuinely torn.
        assert inner.records(0) == [1, 2]

    def test_crash_fires_at_first_op_past_index(self):
        inner, faulty, _ = _stack(FaultSchedule(crash_at_op=3))
        inner.create(0)
        inner.append(0, [9])
        faulty.fetch(0)
        faulty.fetch(0)
        with pytest.raises(SimulatedCrash):
            faulty.fetch(0)

    def test_passthrough_without_schedule(self):
        inner = MappingBackend(8, 1)
        faulty = FaultInjectingBackend(inner)
        inner.create(0)
        faulty.append(0, [1, 2])
        assert faulty.records(0) == [1, 2]
        assert faulty.clock.ops == 2
        assert faulty.injected == 0


class TestRetry:
    def test_heals_within_budget(self):
        inner, faulty, retrier = _stack(FaultSchedule(read_faults={1: 2}))
        inner.create(0)
        inner.append(0, [7])
        assert retrier.fetch(0).records() == [7]
        assert retrier.retries == 2

    def test_exhaustion_names_block(self):
        inner, faulty, retrier = _stack(FaultSchedule(read_faults={1: 10}))
        inner.create(0)
        with pytest.raises(RetryExhausted, match=r"block 0: gave up after 3"):
            retrier.fetch(0)

    def test_backoff_exponential_and_capped(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_retries=4, backoff_s=0.001, max_backoff_s=0.003)
        inner, faulty, retrier = _stack(
            FaultSchedule(write_faults={1: 4}), policy=policy, sleeps=sleeps
        )
        inner.create(0)
        retrier.append(0, [1])
        assert sleeps == [0.001, 0.002, 0.003, 0.003]  # doubled, then capped
        assert retrier.total_backoff_s == pytest.approx(sum(sleeps))

    def test_crash_is_not_retried(self):
        inner, faulty, retrier = _stack(FaultSchedule(crash_at_op=1))
        inner.create(0)
        with pytest.raises(SimulatedCrash):
            retrier.fetch(0)
        assert retrier.retries == 0

    def test_healed_faults_leave_accounting_untouched(self):
        """The acceptance invariant: retries are invisible to IOStats."""

        def run(schedule):
            disk = Disk(8)
            disk.backend = RetryingBackend(
                FaultInjectingBackend(disk.backend, schedule=schedule),
                policy=RetryPolicy(max_retries=4, backoff_s=0),
            )
            from repro.em import Block

            ids = [disk.allocate() for _ in range(10)]
            for i, bid in enumerate(ids):
                disk.write(bid, Block(8, data=[i]))
            for bid in ids:
                with disk.modify(bid) as blk:
                    blk.append(99)
                disk.read(bid)
            return (disk.stats.reads, disk.stats.writes, disk.stats.combined)

        clean = run(FaultSchedule())
        faulted = run(FaultSchedule.sample(3, 40, read_sites=5, write_sites=5, burst=2))
        assert clean == faulted


class TestServiceFaultNaming:
    """Satellite: surfaced faults name the shard and the epoch."""

    def _service(self, schedule):
        ctx = make_context(b=16, m=128, u=10**12, backend="mapping")
        svc = DictionaryService(
            ctx,
            lambda c: BufferedHashTable(c, MULTIPLY_SHIFT.sample(c.u, seed=7)),
            shards=2,
            executor="serial",
            epoch_ops=64,
        )
        for sub in svc._contexts:
            svc_retrier = RetryingBackend(
                FaultInjectingBackend(sub.disk.backend, schedule=schedule),
                policy=RetryPolicy(max_retries=2, backoff_s=0),
            )
            sub.disk.backend = svc_retrier
        return svc

    def test_retry_exhausted_names_shard_and_epoch(self):
        svc = self._service(FaultSchedule(write_faults={1: 50}))
        keys = np.arange(1, 400, dtype=np.uint64)
        kinds = np.zeros(len(keys), dtype=np.uint8)  # all inserts
        with pytest.raises(RetryExhausted) as exc_info:
            svc.run(kinds, keys)
        msg = str(exc_info.value)
        assert "epoch " in msg and "shard " in msg and "block " in msg

    def test_simulated_crash_propagates_unwrapped(self):
        svc = self._service(FaultSchedule(crash_at_op=5))
        keys = np.arange(1, 400, dtype=np.uint64)
        kinds = np.zeros(len(keys), dtype=np.uint8)
        with pytest.raises(SimulatedCrash) as exc_info:
            svc.run(kinds, keys)
        assert "shard" not in str(exc_info.value)  # kill -9 has no courtesy


class TestCacheHitsBypassFaults:
    """Cache hits are answered from the undecorated block store: they
    charge nothing, so they must not tick the fault clock either, or a
    cached chaos schedule would shift with the pool's residency."""

    def test_hit_paths_leave_the_clock_alone(self):
        from repro.em import Block, CachedDisk

        clock = FaultClock()
        disk = CachedDisk(8, cache_blocks=4)
        disk.backend = FaultInjectingBackend(disk.backend, clock=clock)
        ids = [disk.allocate() for _ in range(3)]
        for bid in ids:
            disk.write(bid, Block(8, data=[bid]))
            disk.read(bid)  # miss: ticks, admits
        ticks, hits = clock.ops, disk.cache.stats.hits
        assert disk.read(ids[0]).records() == [ids[0]]
        # Past INDEX_AFTER_HITS the hits build a membership set: both
        # ways of answering a probe hit read the store, undecorated.
        for _ in range(INDEX_AFTER_HITS):
            assert disk.probe_record(ids[1], ids[1])
        assert not disk.probe_record(ids[1], 999)
        assert not disk.remove_record(ids[2], 999)
        assert [b.records() for b in disk.scan(ids)] == [[i] for i in ids]
        assert disk.read_records(ids) == ids
        assert clock.ops == ticks
        assert disk.cache.stats.hits == (
            hits + 3 + INDEX_AFTER_HITS + 2 * len(ids)
        )

    def test_resident_lookups_do_not_tick_a_cached_shard(self):
        clock = FaultClock()
        ctx = make_context(b=16, m=128, u=10**12, backend="mapping",
                           cache_blocks=64, hard_memory=False)
        svc = DictionaryService(
            ctx,
            lambda c: BufferedHashTable(c, MULTIPLY_SHIFT.sample(c.u, seed=7)),
            shards=2,
            executor="serial",
            epoch_ops=64,
        )
        install_fault_stack(svc, clock=clock, retry=RetryPolicy())
        keys = np.arange(1, 2000, dtype=np.uint64)
        svc.run(np.zeros(len(keys), dtype=np.uint8), keys)  # all inserts
        hot = keys[::200]
        lookups = np.ones(len(hot), dtype=np.uint8)
        warm = clock.ops
        assert svc.run(lookups, hot).lookup_found.all()  # warms the pools
        assert clock.ops > warm, "warm-up charged no backend read"
        ticks, hits = clock.ops, svc.cache_snapshot().hits
        for _ in range(3):
            assert svc.run(lookups, hot).lookup_found.all()
        assert clock.ops == ticks
        assert svc.cache_snapshot().hits > hits
        svc.close()


class TestCrashingJournal:
    def test_crash_on_append_leaves_torn_record(self, tmp_path):
        path = tmp_path / "j.bin"
        kinds = np.zeros(10, dtype=np.uint8)
        keys = np.arange(10, dtype=np.uint64)
        j = CrashingJournal(path, crash_append_at=1, fsync=False)
        j.append_epoch(0, 0, 10, kinds, keys)
        j.commit(0, 0, 10)
        with pytest.raises(SimulatedCrash):
            j.append_epoch(1, 10, 20, kinds, keys)
        j.close()
        scan = EpochJournal.scan(path)
        assert [r.epoch for r in scan.committed] == [0]
        assert scan.valid_bytes < path.stat().st_size  # the torn bytes

    def test_crash_on_commit_discards_executed_epoch(self, tmp_path):
        path = tmp_path / "j.bin"
        kinds = np.zeros(10, dtype=np.uint8)
        keys = np.arange(10, dtype=np.uint64)
        j = CrashingJournal(path, crash_commit_at=0, fsync=False)
        j.append_epoch(0, 0, 10, kinds, keys)
        with pytest.raises(SimulatedCrash):
            j.commit(0, 0, 10)
        j.close()
        scan = EpochJournal.scan(path)
        assert scan.committed == []
        assert scan.uncommitted_ops == 10
