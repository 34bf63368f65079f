"""The concurrent dictionary service: epochs × shards × executors.

:class:`DictionaryService` is the layer that turns the reproduction's
dictionaries into a *servable system*: it accepts interleaved
insert/lookup/delete request streams, coalesces them into conflict-free
**epochs** (:mod:`repro.service.epochs`), partitions each epoch by shard
with the same vectorized stable shard-of-key routing the
:class:`~repro.tables.sharded.ShardedDictionary` uses, and executes the
per-shard work through a pluggable **executor**:

* ``"serial"`` — shards run one after another, ascending shard order;
* ``"threads"`` — shards run concurrently on a thread pool.

Concurrency is safe *and deterministic* because the service gives every
shard a fully private machine: its own strided-namespace
:class:`~repro.em.disk.Disk`, its own ``m``-word
:class:`~repro.em.memory.MemoryBudget`, **and its own
:class:`~repro.em.iostats.IOStats` ledger** (unlike the sharded router,
whose shards share the parent ledger and would interleave
nondeterministically under threads).  A shard's charges depend only on
its own program-order request subsequence, so per-shard ledgers, disks,
layouts and memory peaks are bit-identical whatever the executor; at
epoch close the service folds each shard's ledger delta into a cluster
:attr:`~DictionaryService.ledger` in ascending shard order — pure
counter addition, so the merged totals are executor-invariant too.  The
determinism suite (``tests/test_service.py``) pins serial-vs-threads
equality of all of it.

Within an epoch each shard executes its batches in the fixed kind order
**insert → delete → lookup**; the epoch builder guarantees no key
crosses kinds inside an epoch, so every per-key observable matches
program order (see :mod:`repro.service.epochs`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.config import ObsConfig, RebalanceConfig
from ..em.cache import CacheStats
from ..em.errors import ConfigurationError, StorageFault
from ..em.iostats import IOSnapshot, IOStats
from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..hashing.family import MULTIPLY_SHIFT
from ..obs import MetricsRegistry, TraceRecorder
from ..tables.base import ExternalDictionary, LayoutSnapshot, TableStats
from ..tables.batching import partition_positions
from ..tables.rebalance import Rebalancer, SlotMove, apply_moves
from ..tables.sharded import ShardFactory, SlotDirectory, _ROUTER_SEED, shard_view
from ..workloads.trace import OP_DELETE, OP_INSERT, OP_LOOKUP, Op, encode_ops
from .epochs import Epoch, build_epochs
from .journal import EpochJournal

__all__ = [
    "DictionaryService",
    "EpochReport",
    "ServiceLedger",
    "ServiceRun",
    "SerialExecutor",
    "ThreadExecutor",
    "EXECUTORS",
    "make_executor",
    "service_shard_view",
]


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Runs shard thunks one after another, ascending shard order."""

    name = "serial"

    def run(self, thunks: Sequence[Callable[[], object]]) -> list[object]:
        return [thunk() for thunk in thunks]

    def close(self) -> None:
        """Nothing to release."""


class ThreadExecutor:
    """Runs shard thunks concurrently on a persistent thread pool.

    Shards own disjoint state (disk, memory budget, I/O ledger), so the
    only cross-thread contention is the interpreter lock — results and
    accounting are bit-identical to :class:`SerialExecutor` by
    construction, which the determinism tests assert.
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def run(self, thunks: Sequence[Callable[[], object]]) -> list[object]:
        if len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-shard"
            )
        futures = [self._pool.submit(thunk) for thunk in thunks]
        # Wait for *every* future before raising: abandoning in-flight
        # shard work on the first failure would leave threads mutating
        # shard state behind the caller's back and make the pool's next
        # run() racy.  First failure in submission (= shard) order wins,
        # deterministically; the pool itself stays reusable.
        results, first_exc = [], None
        for f in futures:
            try:
                results.append(f.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Executor registry, keyed by the name the CLI/bench ``--executor``
#: flags use.
EXECUTORS = {"serial": SerialExecutor, "threads": ThreadExecutor}


def make_executor(kind: str, **kwargs):
    """Build an executor by registry name."""
    try:
        cls = EXECUTORS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {kind!r}; choose from {sorted(EXECUTORS)}"
        ) from None
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Per-shard machines
# ---------------------------------------------------------------------------


def service_shard_view(parent: EMContext, index: int) -> EMContext:
    """A fully private per-shard context: own disk, memory, *and* ledger.

    :func:`repro.tables.sharded.shard_view` with a private
    :class:`IOStats` swapped in — concurrent shards must never race on
    a shared counter object, and the pending read-modify-write block
    (which decides footnote-2 combining) is meaningful only against the
    shard's own disk.  Ledgers merge at epoch close.
    """
    return shard_view(parent, index, stats=IOStats(policy=parent.policy))


def _universe_keys(keys, u: int) -> np.ndarray:
    """``keys`` as a contiguous ``uint64`` array of integers in ``[0, u)``.

    The bare cast would wrap negatives, truncate fractions and keep keys
    outside the universe; each is rejected instead, naming the first bad
    position.  An in-range integer array costs one ``max`` (and one
    ``min`` when signed).
    """
    arr = np.asarray(keys)
    kind = arr.dtype.kind
    if kind in "iu":
        if arr.size == 0 or ((kind == "u" or arr.min() >= 0) and arr.max() < u):
            return np.ascontiguousarray(arr, dtype=np.uint64)
        bad = (arr < 0) | (arr >= u)
    elif kind == "f":
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(arr) | (arr != np.floor(arr)) | (arr < 0) | (arr >= u)
    else:
        ok = [isinstance(k, (int, np.integer)) and 0 <= k < u for k in arr.ravel()]
        bad = ~np.array(ok, dtype=bool)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"key at position {i} is {arr.ravel().tolist()[i]!r}: keys must be "
            f"integers in [0, u) with u={u}"
        )
    return np.ascontiguousarray(arr, dtype=np.uint64)


@dataclass
class ServiceLedger(IOSnapshot):
    """The service's counters in one ledger: charged I/O, buffer pool, migrations.

    The I/O counters come from :class:`IOSnapshot`.  A shard's reading
    (:meth:`of_shard`) fills them and the cache counters; the cluster
    ledger also tallies migrations — slots repointed, live keys drained
    and re-inserted, the drains' charged I/O (already counted in
    ``reads``/``writes``: no free moves), and applied migration
    decisions (the REBALANCE-record sequence number).
    """

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    writebacks: int = 0
    evictions: int = 0
    migrated_slots: int = 0
    keys_moved: int = 0
    migration_io: int = 0
    migrations_applied: int = 0

    FIELDS = IOSnapshot.FIELDS + CacheStats.FIELDS + (
        "migrated_slots",
        "keys_moved",
        "migration_io",
        "migrations_applied",
    )
    METRICS = {
        **IOSnapshot.METRICS,
        **CacheStats.METRICS,
        "migrated_slots": "repro_migrated_slots_total",
        "keys_moved": "repro_migration_keys_total",
        "migration_io": "repro_migration_io_total",
        "migrations_applied": "repro_migrations_total",
    }

    @classmethod
    def of_shard(cls, ctx: EMContext) -> "ServiceLedger":
        """A shard machine's I/O and buffer-pool counters (zero uncached)."""
        cache = ctx.cache_stats() or _NO_CACHE
        return cls(*ctx.stats.values(), *cache.values())


_NO_CACHE = CacheStats()


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochReport:
    """Bookkeeping for one executed epoch.

    ``seconds`` is the epoch's whole request path inside
    :meth:`DictionaryService.run`: journal append, shard execution,
    ledger merge, journal commit and rebalance, with ``build_epochs``
    charged to the call's first epoch.  A call's reports tile its wall
    time, so latency samples summed from them miss none of it.  For
    :meth:`DictionaryService.replay_epoch` it is the replay's own path.
    """

    start: int
    stop: int
    inserts: int
    lookups: int
    deletes: int
    seconds: float
    io: int

    @property
    def ops(self) -> int:
        return self.stop - self.start

    @classmethod
    def of(cls, epoch: Epoch, io: int, seconds: float) -> "EpochReport":
        return cls(
            start=epoch.start,
            stop=epoch.stop,
            inserts=len(epoch.insert_keys),
            lookups=len(epoch.lookup_keys),
            deletes=len(epoch.delete_keys),
            seconds=seconds,
            io=io,
        )


@dataclass(frozen=True)
class ServiceRun:
    """Results of one :meth:`DictionaryService.run` call.

    ``lookup_found`` / ``delete_removed`` are stream-aligned boolean
    arrays: entry ``i`` is meaningful when op ``i`` was of the matching
    kind (and ``False`` elsewhere).
    """

    ops: int
    lookup_found: np.ndarray
    delete_removed: np.ndarray
    epochs: list[EpochReport]

    @property
    def seconds(self) -> float:
        return sum(e.seconds for e in self.epochs)

    @property
    def io_total(self) -> int:
        return sum(e.io for e in self.epochs)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class DictionaryService:
    """A dictionary served over N shard machines by a pluggable executor.

    Parameters
    ----------
    ctx:
        Template context: supplies the ``(b, m, u)`` geometry, I/O
        policy, record width and storage backend every shard machine is
        built with (its disk/stats/memory are *not* shared — each shard
        gets a :func:`service_shard_view`).
    shard_factory:
        Builds the inner table from a per-shard context (the drivers'
        ``TableFactory`` shape).
    shards:
        Number of shard machines ``N >= 1``.
    executor:
        ``"serial"``, ``"threads"``, or an executor instance.
    epoch_ops:
        Maximum ops coalesced into one epoch (bounds staging memory).
    router:
        Shard-of-key hash; the fixed-seed multiply-shift default matches
        the sharded router's, so a service over N shards stores keys
        exactly where a :class:`ShardedDictionary` over N shards would.
    journal:
        Optional :class:`~repro.service.journal.EpochJournal`.  When
        set, every epoch's encoded ops are durably appended *before*
        execution and fsync-marked committed *after* the ledger merge,
        so :func:`repro.service.recovery.recover` can rebuild the exact
        service state from the last snapshot plus the committed suffix.
    slots:
        Slot-directory fan-out (must divide by ``shards``); defaults to
        ``DEFAULT_SLOTS_PER_SHARD * shards``.  The directory starts on
        the static split, so routing is bit-identical to ``hash %
        shards`` until a migration moves a slot.
    rebalance:
        Enables skew-adaptive routing: a
        :class:`~repro.tables.rebalance.Rebalancer`, a
        :class:`~repro.core.config.RebalanceConfig`, or ``True`` for
        the default config.  When set, the service samples per-shard
        charged I/O and per-slot op counts at every epoch close and —
        between epochs, never inside one — migrates hot slots, with the
        journal (if attached) recording each migration write-ahead.
        ``None`` (the default) keeps the static router: bit-identical
        results, layouts and ledgers to every earlier release.
    obs:
        Observability (:mod:`repro.obs`): an
        :class:`~repro.core.config.ObsConfig`, a prebuilt
        :class:`~repro.obs.TraceRecorder` (bench harnesses that read
        the records in memory), or ``None``.  Strictly relabelling —
        ledgers, layouts and results are bit-identical with it on or
        off.  The :class:`~repro.obs.MetricsRegistry` behind
        :meth:`metrics` is always maintained (a handful of integer
        folds per epoch); ``obs`` only controls span tracing and
        periodic metric dumps.
    """

    def __init__(
        self,
        ctx: EMContext,
        shard_factory: ShardFactory,
        *,
        shards: int = 1,
        executor: str | SerialExecutor | ThreadExecutor = "serial",
        epoch_ops: int = 8192,
        router: HashFunction | None = None,
        name: str | None = None,
        journal: EpochJournal | None = None,
        slots: int | None = None,
        rebalance: Rebalancer | RebalanceConfig | bool | None = None,
        obs: ObsConfig | TraceRecorder | None = None,
    ) -> None:
        if shards <= 0:
            raise ConfigurationError(f"shard count must be positive, got {shards}")
        if epoch_ops <= 0:
            raise ConfigurationError(f"epoch_ops must be positive, got {epoch_ops}")
        self.ctx = ctx
        self.shards = shards
        self.epoch_ops = epoch_ops
        self.name = name or f"DictionaryService[{shards}]"
        self.router = (
            router
            if router is not None
            else MULTIPLY_SHIFT.sample(ctx.u, seed=_ROUTER_SEED)
        )
        self.directory = SlotDirectory(self.router, shards, slots=slots)
        if rebalance is True:
            self.rebalancer: Rebalancer | None = Rebalancer()
        elif isinstance(rebalance, RebalanceConfig):
            self.rebalancer = Rebalancer(rebalance)
        else:
            self.rebalancer = rebalance or None
        self.executor = make_executor(executor) if isinstance(executor, str) else executor
        self._contexts = [service_shard_view(ctx, i) for i in range(shards)]
        #: Cluster ledger: per-shard deltas folded in at epoch close,
        #: ascending shard order, plus the migration tallies.
        self.ledger = ServiceLedger()
        self._marks = [ServiceLedger.of_shard(sub) for sub in self._contexts]
        #: Always-on cluster metrics; fed the same ledger deltas the
        #: epoch-close merge folds, so it is executor-invariant and
        #: rides the snapshot/restore path.  See :meth:`metrics`.
        self._metrics = MetricsRegistry()
        if isinstance(obs, TraceRecorder):
            self.obs: ObsConfig | None = ObsConfig()
            self.recorder: TraceRecorder | None = obs
        elif isinstance(obs, ObsConfig):
            self.obs = obs
            self.recorder = (
                TraceRecorder(obs.trace_path, wall=obs.wall_clock)
                if obs.trace_path
                else None
            )
        else:
            self.obs = None
            self.recorder = None
        #: Callback ``(epochs_run, registry)`` fired every
        #: ``obs.metrics_every`` closed epochs (the CLI's periodic
        #: Prometheus dump); ``None`` disables.
        self.metrics_listener = None
        self._run_seq = 0
        self._trace_base = 0
        self._journal_bytes_mark = 0
        self._tables: list[ExternalDictionary] = [
            shard_factory(sub) for sub in self._contexts
        ]
        # Fold any I/O a factory charged at construction into the ledger
        # right away, so io_snapshot() always equals the sum of
        # shard_io_snapshots() (construction belongs to no epoch).
        self.setup_io = self._merge_ledgers()
        self.epochs_run = 0
        self.journal = journal
        if self.recorder is not None:
            describe = ctx.disk.describe() if ctx.disk is not None else {}
            self.recorder.emit(
                "run_start",
                name=self.name,
                shards=shards,
                epoch_ops=epoch_ops,
                slots=self.directory.slots,
                executor=getattr(self.executor, "name", "?"),
                combine_rmw=bool(ctx.policy.combine_rmw),
                io=self.setup_io,
                **describe,
            )
        #: Global stream position of the last committed epoch's ``stop``
        #: — how far into the client's trace durable state extends.
        self.ops_committed = 0

    # Migration tallies (all zero for static runs), read off the ledger.
    migrated_slots = property(lambda self: self.ledger.migrated_slots)
    keys_moved = property(lambda self: self.ledger.keys_moved)
    migration_io = property(lambda self: self.ledger.migration_io)
    migrations_applied = property(lambda self: self.ledger.migrations_applied)

    # -- snapshots -----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Everything but the handles: the executor pickles by name; the
        journal, trace recorder and metrics listener are left behind, so
        a restored service starts unjournaled and untraced."""
        state = self.__dict__.copy()
        state.update(
            executor=getattr(self.executor, "name", "serial"),
            journal=None,
            obs=None,
            recorder=None,
            metrics_listener=None,
            _run_seq=0,
            _trace_base=self.ops_committed,
            _journal_bytes_mark=0,
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.executor = make_executor(self.executor)

    # -- request execution --------------------------------------------------

    def run(
        self,
        kinds: np.ndarray | Sequence[int],
        keys: np.ndarray | Sequence[int],
    ) -> ServiceRun:
        """Execute an encoded request stream; results in arrival order.

        Raises ``ValueError`` naming the first key that is not an
        integer in ``[0, ctx.u)`` — before anything runs.
        """
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        keys = _universe_keys(keys, self.ctx.u)
        n = len(kinds)
        lookup_found = np.zeros(n, dtype=bool)
        delete_removed = np.zeros(n, dtype=bool)
        reports: list[EpochReport] = []
        # Every previous run() committed all of its epochs before
        # returning, so the committed position is also this call's
        # global stream offset.
        base = self.ops_committed
        self._trace_base = base
        run_seq = self._run_seq
        self._run_seq += 1
        t_run = mark = time.perf_counter()
        for epoch in build_epochs(kinds, keys, max_ops=self.epoch_ops):
            idx = self.epochs_run
            if self.journal is not None:
                self.journal.append_epoch(
                    idx,
                    base + epoch.start,
                    base + epoch.stop,
                    kinds[epoch.start : epoch.stop],
                    keys[epoch.start : epoch.stop],
                )
            io = self._run_epoch(epoch, lookup_found, delete_removed)
            if self.journal is not None:
                self.journal.commit(idx, base + epoch.start, base + epoch.stop)
                self._fold_journal_metrics("commit")
                if self.recorder is not None:
                    self.recorder.emit(
                        "fsync",
                        kind="commit",
                        epoch=idx,
                        bytes=self.journal.bytes_written,
                    )
            self.ops_committed = base + epoch.stop
            # Between epochs only: an epoch's program order is never
            # split by a migration.
            self._maybe_rebalance()
            every = self.obs.metrics_every if self.obs is not None else 0
            if (
                every
                and self.metrics_listener is not None
                and self.epochs_run % every == 0
            ):
                self.metrics_listener(self.epochs_run, self._metrics)
            now = time.perf_counter()
            reports.append(EpochReport.of(epoch, io, now - mark))
            mark = now
        if self.recorder is not None:
            self.recorder.emit(
                "run",
                run=run_seq,
                start=base,
                stop=base + n,
                epochs=len(reports),
                wall_ms=round((time.perf_counter() - t_run) * 1e3, 3),
            )
        return ServiceRun(
            ops=n,
            lookup_found=lookup_found,
            delete_removed=delete_removed,
            epochs=reports,
        )

    def run_trace(self, ops: Iterable[Op]) -> ServiceRun:
        """Convenience: execute a :class:`~repro.workloads.trace.Op` list."""
        kinds, keys = encode_ops(ops)
        return self.run(kinds, keys)

    def replay_epoch(
        self, start: int, stop: int, kinds: np.ndarray, keys: np.ndarray
    ) -> EpochReport:
        """Re-execute one journaled epoch during recovery.

        The journal recorded exactly one conflict-free epoch per OPS
        record, so the slice is executed as a single epoch verbatim —
        no re-segmentation — and is *not* re-journaled (it is already
        durable).  Charges the same I/O as the original execution.
        """
        if stop - start != len(kinds):
            raise ConfigurationError(
                f"journal record [{start}, {stop}) does not match "
                f"{len(kinds)} replayed ops"
            )
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        self._trace_base = start
        n = len(kinds)
        lookup_pos = np.flatnonzero(kinds == OP_LOOKUP)
        delete_pos = np.flatnonzero(kinds == OP_DELETE)
        epoch = Epoch(
            start=0,
            stop=n,
            insert_keys=keys[kinds == OP_INSERT],
            lookup_keys=keys[lookup_pos],
            lookup_pos=lookup_pos,
            delete_keys=keys[delete_pos],
            delete_pos=delete_pos,
        )
        t0 = time.perf_counter()
        io = self._run_epoch(
            epoch, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        )
        self.ops_committed = stop
        # Replay feeds the rebalancer the same observations the live run
        # saw but never *decides* — journaled REBALANCE records supply
        # the moves, so recovered policy state matches an uninterrupted
        # run bit for bit.
        if self.rebalancer is not None:
            self.rebalancer.observe(self._last_epoch_shard_io, self._epoch_slot_ops)
        return EpochReport.of(epoch, io, time.perf_counter() - t0)

    def snapshot(self, path) -> None:
        """Checkpoint the full service state to ``path`` (atomic).

        Thin wrapper over :func:`repro.service.recovery.snapshot_service`
        (local import: recovery builds on this module).
        """
        from .recovery import snapshot_service

        snapshot_service(self, path)

    def _run_epoch(
        self,
        epoch: Epoch,
        lookup_found: np.ndarray,
        delete_removed: np.ndarray,
    ) -> int:
        """Execute ``epoch`` on the shards and merge their ledgers.

        Returns the epoch's charged I/O.  Timing is the caller's; with
        tracing on, the ``epoch`` span's ``wall_ms`` is this execution
        alone (shard batches plus the ledger merge).
        """
        t0 = time.perf_counter()
        if self.rebalancer is not None:
            self._epoch_slot_ops = np.zeros(self.directory.slots, dtype=np.int64)
        ins_groups = self._kind_groups(epoch.insert_keys, None)
        del_groups = self._kind_groups(epoch.delete_keys, epoch.delete_pos)
        look_groups = self._kind_groups(epoch.lookup_keys, epoch.lookup_pos)
        work: dict[int, list] = {}
        for shard, arr, _ in ins_groups:
            work.setdefault(shard, [None, None, None, None, None])[0] = arr
        for shard, arr, pos in del_groups:
            slot = work.setdefault(shard, [None, None, None, None, None])
            slot[1], slot[2] = arr, pos
        for shard, arr, pos in look_groups:
            slot = work.setdefault(shard, [None, None, None, None, None])
            slot[3], slot[4] = arr, pos
        shard_order = sorted(work)
        thunks = [
            self._shard_thunk(self._tables[shard], work[shard], shard)
            for shard in shard_order
        ]
        timings: list[float] | None = None
        if self.recorder is not None:
            # Wrap thunks with per-batch wall timing only when tracing —
            # the obs-off hot path is untouched.  Each wrapper writes its
            # own slot, so the timing is thread-safe under any executor.
            timings = [0.0] * len(thunks)
            thunks = [
                self._timed_thunk(thunk, timings, j)
                for j, thunk in enumerate(thunks)
            ]
        try:
            results = self.executor.run(thunks)
        except StorageFault as exc:
            wrapped = type(exc)(f"epoch {self.epochs_run}: {exc}")
            # Keep the faulting shard visible to overload control: the
            # open-loop client's circuit breaker quarantines by shard.
            wrapped.shard = getattr(exc, "shard", None)
            raise wrapped from exc
        for shard, (del_res, look_res) in zip(shard_order, results):
            _, _, dpos, _, lpos = work[shard]
            if del_res is not None:
                delete_removed[dpos] = del_res
            if look_res is not None:
                lookup_found[lpos] = look_res
        io = self._merge_ledgers()
        idx = self.epochs_run
        self.epochs_run += 1
        self._fold_epoch_metrics(epoch, io)
        if self.recorder is not None:
            self._emit_epoch_span(
                epoch, io, idx, shard_order, timings, time.perf_counter() - t0
            )
        return io

    @staticmethod
    def _shard_thunk(
        table: ExternalDictionary, slot: list, shard: int
    ) -> Callable[[], tuple]:
        ins, dels, _, looks, _ = slot

        def thunk() -> tuple:
            # Fixed kind order per shard: insert -> delete -> lookup.
            # The epoch builder guarantees no key crosses kinds inside
            # an epoch, so this order is observationally program order.
            try:
                if ins is not None and len(ins):
                    table.insert_batch(ins)
                del_res = table.delete_batch(dels) if dels is not None else None
                look_res = table.lookup_batch(looks) if looks is not None else None
            except StorageFault as exc:
                wrapped = type(exc)(f"shard {shard}: {exc}")
                wrapped.shard = shard
                raise wrapped from exc
            return del_res, look_res

        return thunk

    def _kind_groups(
        self, arr: np.ndarray, pos: np.ndarray | None
    ) -> list[tuple[int, np.ndarray, np.ndarray | None]]:
        """Stable shard split of one kind's keys (+ stream positions).

        Routed through the slot directory (one ``hash_array`` call, one
        slot-map gather); with the static map this reproduces
        ``hash % shards`` exactly.  When the rebalancer is on, the slot
        ids are also tallied into the epoch's per-slot op counts — the
        load signal :meth:`_maybe_rebalance` feeds it.
        """
        if len(arr) == 0:
            return []
        if self.shards == 1:
            return [(0, arr, pos)]
        slots = self.directory.slots_of(arr)
        if self.rebalancer is not None:
            self._epoch_slot_ops += np.bincount(
                slots, minlength=self.directory.slots
            )
        idx = self.directory.slot_map[slots]
        return [
            (shard, arr[group], pos[group] if pos is not None else None)
            for shard, group in partition_positions(idx)
        ]

    def _merge_ledgers(self) -> int:
        """Fold per-shard ledger deltas into the cluster ledger.

        One delta and one absorb per shard, ascending shard order; the
        merged delta feeds the metric series.  Returns the charged I/O
        total.  Cache counters ride in the same ledger, so ``hits +
        misses`` stays aligned with the reads the same epochs charged.
        """
        before = self.ledger.snapshot()
        deltas: list[ServiceLedger] = []
        metrics = self._metrics
        for i, sub in enumerate(self._contexts):
            reading = ServiceLedger.of_shard(sub)
            delta = reading - self._marks[i]
            self._marks[i] = reading
            self.ledger.absorb(delta)
            deltas.append(delta)
            if delta.total:
                metrics.inc("repro_shard_io_total", delta.total, shard=str(i))
        merged = self.ledger - before
        merged.fold_metrics(metrics)
        # The per-shard split of the merge just folded — the epoch-close
        # load sample _maybe_rebalance observes.  Migration drains merge
        # through here too, so their charges never pollute the next
        # epoch's sample (they are read before the migration merges).
        self._last_epoch_shard_io = [d.total for d in deltas]
        # Per-shard and merged deltas for the trace's epoch span
        # (relabelling: read, never re-charged).
        self._last_epoch_shard_deltas = deltas
        self._last_merge = merged
        return merged.total

    # -- observability -------------------------------------------------------

    @staticmethod
    def _timed_thunk(
        thunk: Callable[[], tuple], timings: list[float], j: int
    ) -> Callable[[], tuple]:
        def timed() -> tuple:
            t0 = time.perf_counter()
            try:
                return thunk()
            finally:
                timings[j] = time.perf_counter() - t0

        return timed

    def _fold_epoch_metrics(self, epoch: Epoch, io: int) -> None:
        """Fold one closed epoch into the metrics registry.

        Only deterministic quantities: op counts, charged I/O, and the
        epoch's shard imbalance.  No wall-time series, so two same-seed
        runs — under any executor — produce equal registries.
        """
        metrics = self._metrics
        metrics.inc("repro_epochs_total")
        metrics.inc("repro_ops_total", len(epoch.insert_keys), kind="insert")
        metrics.inc("repro_ops_total", len(epoch.lookup_keys), kind="lookup")
        metrics.inc("repro_ops_total", len(epoch.delete_keys), kind="delete")
        metrics.observe("repro_epoch_io", io)
        metrics.observe("repro_epoch_ops", epoch.stop - epoch.start)
        shard_io = self._last_epoch_shard_io
        total = sum(shard_io)
        if total:
            metrics.set_gauge(
                "repro_epoch_imbalance", max(shard_io) * len(shard_io) / total
            )

    def _fold_journal_metrics(self, kind: str) -> None:
        delta = self.journal.bytes_written - self._journal_bytes_mark
        self._journal_bytes_mark = self.journal.bytes_written
        self._metrics.inc(f"repro_journal_{kind}s_total")
        self._metrics.inc("repro_journal_bytes_total", delta)

    def _emit_epoch_span(
        self,
        epoch: Epoch,
        io: int,
        idx: int,
        shard_order: list[int],
        timings: list[float] | None,
        exec_seconds: float,
    ) -> None:
        """One ``epoch`` span (shard batches embedded) + eviction events.

        Emitted by the coordinator after the ledger merge, never from
        worker threads, so record order is executor-invariant.
        """
        deltas = self._last_epoch_shard_deltas
        shards = []
        for j, shard in enumerate(shard_order):
            d = deltas[shard]
            batch = {"shard": shard, "io": d.total, **IOSnapshot.of(d).as_dict()}
            if timings is not None:
                batch["wall_ms"] = round(timings[j] * 1e3, 3)
            shards.append(batch)
        span = {
            "run": self._run_seq - 1 if self._run_seq else 0,
            "epoch": idx,
            "start": self._trace_base + epoch.start,
            "stop": self._trace_base + epoch.stop,
            "ops": epoch.stop - epoch.start,
            "inserts": len(epoch.insert_keys),
            "lookups": len(epoch.lookup_keys),
            "deletes": len(epoch.delete_keys),
            "io": io,
            "wall_ms": round(exec_seconds * 1e3, 3),
            "shards": shards,
        }
        cache = CacheStats.of(self._last_merge)
        if cache.accesses or cache.negative_hits or cache.evictions:
            span["cache"] = cache.as_dict()
        self.recorder.emit("epoch", **span)
        if cache.evictions or cache.writebacks:
            self.recorder.emit(
                "cache_evict",
                epoch=idx,
                evictions=cache.evictions,
                writebacks=cache.writebacks,
            )

    def metrics(self) -> MetricsRegistry:
        """The cluster metrics registry (see :mod:`repro.obs.metrics`).

        Always on; survives :func:`~repro.service.recovery.restore_service`
        and counts on after a restore.  ``metrics().render()`` gives the
        Prometheus text dump.
        """
        return self._metrics

    # -- rebalancing ---------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        """Observe the closed epoch; migrate hot slots if the policy fires.

        The protocol per decision: journal the REBALANCE record
        (write-ahead, fsynced) **then** execute the moves — a crash at
        any point mid-migration leaves the record durable and recovery
        re-executes the drains deterministically.
        """
        if self.rebalancer is None:
            return
        self.rebalancer.observe(self._last_epoch_shard_io, self._epoch_slot_ops)
        moves = self.rebalancer.decide(self.epochs_run, self.directory)
        if not moves:
            return
        if self.journal is not None:
            self.journal.append_rebalance(
                self.migrations_applied,
                self.ops_committed,
                [(m.slot, m.src, m.dst) for m in moves],
            )
            self._fold_journal_metrics("rebalance")
            if self.recorder is not None:
                self.recorder.emit(
                    "fsync",
                    kind="rebalance",
                    migration=self.migrations_applied,
                    bytes=self.journal.bytes_written,
                )
        self._apply_moves(moves)
        self.rebalancer.note_moved(self.epochs_run, moves)

    def _apply_moves(self, moves: Sequence[SlotMove]) -> None:
        """Drain + refill + repoint, charging the drains to the ledgers."""
        report = apply_moves(self.directory, self._tables, moves)
        # Fold the migration's charges in immediately: the cluster
        # ledger sees every drain I/O (no free moves), the per-shard
        # marks advance past it, and migration_io keeps the separate
        # tally reports surface.
        io = self._merge_ledgers()
        seq = self.migrations_applied
        tally = ServiceLedger(
            migrated_slots=report.slots_moved,
            keys_moved=report.keys_moved,
            migration_io=io,
            migrations_applied=1,
        )
        self.ledger.absorb(tally)
        tally.fold_metrics(self._metrics)
        if self.recorder is not None:
            self.recorder.emit(
                "rebalance",
                migration=seq,
                epoch=max(self.epochs_run - 1, 0),
                moves=len(moves),
                slots_moved=report.slots_moved,
                keys_moved=report.keys_moved,
                io=io,
            )

    def apply_rebalance_record(
        self, seq: int, moves: Sequence[tuple[int, int, int]]
    ) -> bool:
        """Re-execute one journaled migration during recovery.

        Returns ``False`` (a no-op) when the snapshot already contains
        migration ``seq``; raises on a sequence gap.  The re-executed
        drains are pure functions of the shard state the committed-epoch
        replay rebuilt, so the outcome is bit-identical to the original
        migration.
        """
        if seq < self.migrations_applied:
            return False
        if seq != self.migrations_applied:
            raise ValueError(
                f"migration gap: journal has migration {seq} but durable "
                f"state ends at {self.migrations_applied}"
            )
        slot_moves = [SlotMove(*m) for m in moves]
        self._apply_moves(slot_moves)
        if self.rebalancer is not None:
            self.rebalancer.note_moved(self.epochs_run, slot_moves)
        return True

    # -- aggregation / instrumentation --------------------------------------

    @property
    def stats(self) -> TableStats:
        """Aggregated operation counters over all shard tables."""
        return TableStats.summed(self._tables)

    def io_snapshot(self) -> IOSnapshot:
        """Cluster I/O counters (merged ledger) as of the last epoch close."""
        return IOSnapshot.of(self.ledger)

    def cache_snapshot(self) -> CacheStats:
        """Cluster cache counters as of the last epoch close.

        All-zero for uncached clusters (``cache_blocks=0``) — reports
        stay schema-stable across the caching axis.
        """
        return CacheStats.of(self.ledger)

    def shard_io_snapshots(self) -> list[IOSnapshot]:
        """Per-shard ledger snapshots, shard order (determinism tests)."""
        return [sub.stats.snapshot() for sub in self._contexts]

    def shard_tables(self) -> list[ExternalDictionary]:
        return list(self._tables)

    def shard_sizes(self) -> list[int]:
        return [len(table) for table in self._tables]

    def memory_high_water(self) -> int:
        """Sum of per-shard memory peaks (each machine peaks on its own)."""
        return sum(sub.memory.high_water for sub in self._contexts)

    def layout_snapshot(self) -> LayoutSnapshot:
        """Union of the (disjoint) shard snapshots, routed by shard."""
        snaps = [table.layout_snapshot() for table in self._tables]
        blocks: dict[int, tuple[int, ...]] = {}
        memory_items: frozenset[int] = frozenset()
        for snap in snaps:
            blocks.update(snap.blocks)
            memory_items |= snap.memory_items
        addresses = [snap.address for snap in snaps]
        directory = self.directory
        shards = self.shards

        def address(key: int) -> int | None:
            if shards == 1:
                return addresses[0](key)
            return addresses[directory.shard_of(key)](key)

        # Static map: router seed + shard count (2 words, as ever).  A
        # migrated map must be written down slot by slot — the honest
        # description cost of adaptivity.
        route_words = 2 if directory.is_static() else 2 + directory.slots
        return LayoutSnapshot(
            memory_items=memory_items,
            blocks=blocks,
            address=address,
            address_description_words=sum(
                snap.address_description_words for snap in snaps
            )
            + route_words,
        )

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    def check_invariants(self) -> None:
        for table in self._tables:
            table.check_invariants()

    def close(self) -> None:
        """Release executor + trace-file resources (idempotent)."""
        self.executor.close()
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "DictionaryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.name}(shards={self.shards}, "
            f"executor={getattr(self.executor, 'name', self.executor)!r}, "
            f"epoch_ops={self.epoch_ops}, n={len(self)})"
        )
