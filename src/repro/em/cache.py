"""Caching as a policy axis: the id-only LRU pool and the cached disk.

The paper's whole subject is the limit of what buffering can buy an
external-memory dictionary.  This module makes that buying power an
explicit **third I/O-policy axis**, alongside PAPER/STRICT read-modify-
write combining and the mapping/arena/durable-arena storage backends:

* :class:`BufferPool` — an LRU set of block **ids** with hit/miss/
  eviction counters and a memory-budget charge.  It holds no block
  data, only an optional per-id memo for its owner;
* :class:`CachedDisk` — a :class:`~repro.em.disk.Disk` whose charged hot
  paths (``read``/``write``/``load``/``store`` plus the record-level
  ``probe_record``/``remove_record``/``scan``/``read_records``) consult
  a private pool.

Cache hits charge **no** I/O — that is the entire point of buffering and
exactly the effect whose limits the paper studies.  Exactness is
preserved, not abandoned:

* uncached configs (``cache_blocks=0``) never construct a pool and stay
  bit-identical to the uncached ledgers and layouts;
* in a cached run every charged backend read is counted as a **miss**
  and every avoided one as a **hit**, so
  ``hits + misses == uncached charged reads`` — the cache only
  *relabels* I/Os, it never loses them.  (Bloom-filter rejections, which
  charge nothing in either configuration, are counted separately as
  ``negative_hits``.)

Why ids suffice: writes go through, and every mutating path —
``write``/``store``/``free``, the copy-light loans (``load``/``stage``),
``remove_record`` on a hit, and the uncharged bulk mutators — drops the
id from the pool first.  A resident block is therefore always equal to
the stored one, so a hit is answered straight from the block store,
uncharged, and nothing is ever written back.  A record probe hit
(``probe_record``/``remove_record``) asks the store's ``contains_key``
until the id has had :data:`INDEX_AFTER_HITS` of them; that hit builds
a membership set of the block's records, kept as the id's memo in the
pool until the id leaves, which answers every later one.  So a miss
costs no copy, and a hot block's hits cost one set lookup each.  Hits
read the backend's :attr:`~repro.em.backends.StorageBackend.undecorated`
store, so a fault-injecting decorator's clock ticks only for the reads
a miss charges.  Streaming bulk reads (``scan``/``read_records``) count
hits and misses but never admit ids, keeping one cold table scan from
flushing the pool (scan resistance).

A pool of ``capacity_blocks`` ids is charged ``capacity_blocks * b``
words of the memory budget, the footprint of the frames it models.
Cached contexts model a machine with ``m`` structure words *plus* a
dedicated cache — the structures' layout under ``m`` stays identical
to the uncached run, which is what makes the cold-vs-warm comparison a
controlled experiment.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .block import Block
from .disk import Disk
from .errors import ConfigurationError, InvalidBlockError
from .iostats import IOStats, Ledger
from .memory import MemoryBudget


#: The probe hit, counted within one residency of a block, that builds
#: its membership set; earlier hits ask the store's ``contains_key``.
#: Building the set costs several store probes, and most residencies
#: end after a hit or two: on the skewed-reads service benchmark half
#: get no hit and 4% get 8 or more, but those 4% take 3/4 of the hits.
INDEX_AFTER_HITS = 8


@dataclass
class CacheStats(Ledger):
    """Hit/miss/eviction counters for a :class:`BufferPool`.

    ``negative_hits`` counts lookups answered by a Bloom filter acting
    as a negative cache: the probe skipped the pool *and* the disk.
    Those charge no I/O in uncached runs either, so they sit outside the
    ``hits + misses == uncached reads`` exactness contract.
    """

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    writebacks: int = 0
    evictions: int = 0

    FIELDS = ("hits", "misses", "negative_hits", "writebacks", "evictions")
    METRICS = {name: f"repro_cache_{name}_total" for name in FIELDS}

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """LRU set of resident block ids: residency and counters, no data.

    Each resident id carries one *memo* slot for its owner (``None``
    until :meth:`remember` fills it; a :class:`CachedDisk` keeps the
    block's record-membership set there).  A memo leaves with its id —
    on eviction, :meth:`invalidate` or :meth:`clear` — so it can never
    outlive the residency that made it valid.

    Parameters
    ----------
    disk:
        The disk whose blocks the pool tracks; its ``b`` sizes the
        memory charge.
    capacity_blocks:
        Number of resident ids; the charged footprint is
        ``capacity_blocks * disk.b`` words.
    budget:
        Optional memory budget to charge the footprint against.
    owner:
        Charge label used with ``budget``.

    The pool decides hits, misses and evictions; its owner (a
    :class:`CachedDisk`) serves the data and counts hits and misses
    against its charged reads.
    """

    def __init__(
        self,
        disk: Disk,
        capacity_blocks: int,
        *,
        budget: MemoryBudget | None = None,
        owner: str = "buffer-pool",
    ) -> None:
        if capacity_blocks <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.budget = budget
        self.owner = owner
        if budget is not None:
            budget.charge(owner, capacity_blocks * disk.b)
        self._ids: OrderedDict[int, object] = OrderedDict()
        self.stats = CacheStats()

    def touch(self, block_id: int) -> bool:
        """Is ``block_id`` resident?  A resident id becomes most recent.

        No accounting: the caller counts the hit or miss.
        """
        ids = self._ids
        if block_id in ids:
            ids.move_to_end(block_id)
            return True
        return False

    def admit(self, block_id: int) -> None:
        """Make ``block_id`` the most recent id, evicting LRU ids past capacity."""
        ids = self._ids
        ids.setdefault(block_id, None)
        ids.move_to_end(block_id)
        while len(ids) > self.capacity_blocks:
            ids.popitem(last=False)
            self.stats.evictions += 1

    def memo(self, block_id: int):
        """The memo of resident ``block_id`` (``None`` if unset or absent)."""
        return self._ids.get(block_id)

    def remember(self, block_id: int, memo) -> None:
        """Attach ``memo`` to resident ``block_id`` (no LRU update)."""
        if block_id in self._ids:
            self._ids[block_id] = memo

    def invalidate(self, block_id: int) -> None:
        """Drop ``block_id`` if resident (before its stored block changes)."""
        self._ids.pop(block_id, None)

    def clear(self) -> None:
        """Empty the pool.  Counters survive for post-run reporting."""
        self._ids.clear()

    def close(self) -> None:
        """Empty the pool and release the memory charge.

        :attr:`stats` is deliberately left intact so hit rates can be
        reported after the run is torn down.
        """
        self.clear()
        if self.budget is not None:
            self.budget.release(self.owner)

    # -- inspection -------------------------------------------------------------

    def resident(self) -> list[int]:
        """Block ids currently cached, LRU first."""
        return list(self._ids)

    def is_resident(self, block_id: int) -> bool:
        return block_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)


class CachedDisk(Disk):
    """A disk whose charged hot paths consult a private buffer pool.

    Constructed by :class:`~repro.em.storage.EMContext` when its
    ``cache_blocks`` axis is positive; ``disk.cache`` is the pool
    (``None`` on a plain :class:`Disk`), which is how the batch engine's
    vectorized bulk-charging branches detect a cached run and fall back
    to the cache-aware scalar paths.

    Accounting contract (see module docstring): every read the uncached
    configuration would charge is either charged here (a **miss**, which
    admits the id) or answered uncharged from the block store or the
    id's membership memo (a **hit**), so ``hits + misses`` equals the
    uncached run's charged reads access for access.  Writes are write-through and charged
    exactly as uncached.  A cache hit does *not* update the pending
    read-modify-write block — no physical seek happened — so a store
    after a hit-load charges a full write where the uncached run charged
    read + combined write: the same total, relabelled.
    """

    def __init__(
        self,
        block_size_words: int,
        *,
        cache_blocks: int,
        budget: MemoryBudget | None = None,
        cache_owner: str = "buffer-pool",
        stats: IOStats | None = None,
        record_words: int = 1,
        backend=None,
        first_id: int = 0,
    ) -> None:
        super().__init__(
            block_size_words,
            stats=stats,
            record_words=record_words,
            backend=backend,
            first_id=first_id,
        )
        self.cache = BufferPool(
            self, cache_blocks, budget=budget, owner=cache_owner
        )

    def _holds(self, block_id: int, key: int) -> bool:
        """Does resident ``block_id`` hold ``key``?  Answers a probe hit.

        The id's memo counts its probe hits until the
        :data:`INDEX_AFTER_HITS`-th builds the membership set that
        answers every later one.
        """
        pool = self.cache
        memo = pool.memo(block_id)
        if memo.__class__ is set:
            return key in memo
        hits = (memo or 0) + 1
        store = self.backend.undecorated
        if hits < INDEX_AFTER_HITS:
            pool.remember(block_id, hits)
            return store.contains_key(block_id, key)
        keys = set(store.records(block_id))
        pool.remember(block_id, keys)
        return key in keys

    # -- copying I/O ---------------------------------------------------------

    def read(self, block_id: int, *, copy: bool = True) -> Block:
        pool = self.cache
        if pool.touch(block_id):
            pool.stats.hits += 1
            blk = self.backend.undecorated.fetch(block_id)
            return blk.copy() if copy else blk
        blk = super().read(block_id, copy=copy)
        pool.stats.misses += 1
        pool.admit(block_id)
        return blk

    def write(self, block_id: int, block: Block) -> None:
        self.cache.invalidate(block_id)
        super().write(block_id, block)

    # -- copy-light I/O ------------------------------------------------------

    def load(self, block_id: int) -> Block:
        if self.cache.is_resident(block_id):
            # Hit: the charged read is avoided, but the caller needs the
            # live backend handle for the in-place store — an uncharged
            # stage, which drops the id for the duration of the loan.
            self.cache.stats.hits += 1
            return self.stage(block_id)
        self.cache.stats.misses += 1
        return super().load(block_id)

    def stage(self, block_id: int) -> Block:
        # Uncharged in both configurations: no hit/miss accounting.
        self.cache.invalidate(block_id)
        return super().stage(block_id)

    def store(self, block_id: int, block: Block | None = None) -> None:
        self.cache.invalidate(block_id)
        super().store(block_id, block)

    # -- streaming bulk reads (count, never admit) ---------------------------

    def scan(self, block_ids, visit=None):
        touch = self.cache.touch
        backend = self.backend
        fetch, hit_fetch = backend.fetch, backend.undecorated.fetch
        out: list[Block] = []
        missed: list[int] = []
        try:
            for bid in block_ids:
                if touch(bid):
                    out.append(hit_fetch(bid))
                else:
                    missed.append(bid)
                    out.append(fetch(bid))
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        self._count_stream(len(block_ids), missed)
        if visit is not None:
            for bid, blk in zip(block_ids, out):
                visit(bid, blk)
        return out

    def read_records(self, block_ids):
        touch = self.cache.touch
        backend = self.backend
        records, hit_records = backend.records, backend.undecorated.records
        out: list[int] = []
        missed: list[int] = []
        try:
            for bid in block_ids:
                if touch(bid):
                    out.extend(hit_records(bid))
                else:
                    missed.append(bid)
                    out.extend(records(bid))
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        self._count_stream(len(block_ids), missed)
        return out

    def _count_stream(self, accesses: int, missed: list[int]) -> None:
        stats = self.cache.stats
        stats.hits += accesses - len(missed)
        stats.misses += len(missed)
        self.stats.record_reads(missed)

    # -- record-level fast paths ---------------------------------------------

    def probe_record(self, block_id: int, key: int) -> bool:
        pool = self.cache
        if pool.touch(block_id):
            pool.stats.hits += 1
            return self._holds(block_id, key)
        backend = self.backend
        if block_id not in backend:
            raise InvalidBlockError(f"access to unknown block {block_id}")
        pool.stats.misses += 1
        self.stats.record_read(block_id)
        found = backend.contains_key(block_id, key)
        pool.admit(block_id)
        return found

    def remove_record(self, block_id: int, key: int) -> bool:
        pool = self.cache
        if pool.touch(block_id):
            pool.stats.hits += 1
            if not self._holds(block_id, key):
                return False
            pool.invalidate(block_id)
            backend = self.backend
            fresh = backend.is_fresh(block_id)
            backend.remove_key(block_id, key)
            self._gen[block_id] = self._gen.get(block_id, 0) + 1
            self._loans.pop(block_id, None)
            self.stats.record_write(block_id, fresh=fresh)
            return True
        pool.stats.misses += 1
        return super().remove_record(block_id, key)

    # -- mutation coherence ----------------------------------------------------

    def free(self, block_id: int) -> None:
        self.cache.invalidate(block_id)
        super().free(block_id)

    def append_uncharged(self, block_id: int, items) -> None:
        self.cache.invalidate(block_id)
        super().append_uncharged(block_id, items)

    def replace_uncharged(self, block_id: int, items) -> None:
        self.cache.invalidate(block_id)
        super().replace_uncharged(block_id, items)

    def drain_uncharged(self, block_id: int):
        self.cache.invalidate(block_id)
        return super().drain_uncharged(block_id)
