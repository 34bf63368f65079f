"""Caching as a policy axis: the LRU buffer pool and the cached disk.

The paper's whole subject is the limit of what buffering can buy an
external-memory dictionary.  This module makes that buying power an
explicit **third I/O-policy axis**, alongside PAPER/STRICT read-modify-
write combining and the mapping/arena/durable-arena storage backends:

* :class:`BufferPool` — a write-back LRU cache of disk blocks with
  hit/dirty accounting, usable standalone by baselines;
* :class:`CachedDisk` — a :class:`~repro.em.disk.Disk` whose charged hot
  paths (``read``/``write``/``modify``/``load``/``store`` plus the
  record-level ``probe_record``/``remove_record``/``scan``/
  ``read_records``) route through a private pool.

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

Coherence discipline of :class:`CachedDisk`: frames are always *clean
copies* of committed backend state.  Every mutating path —
``write``/``store``/``free``, the copy-light loans (``load``/``stage``),
``remove_record`` on a hit, and the uncharged bulk mutators — drops the
resident frame first (write-invalidate), so a frame can never go stale
behind an outstanding loan or a backend-level bulk append.  Streaming
bulk reads (``scan``/``read_records``) count hits and misses but never
install frames, keeping one cold table scan from flushing the pool
(scan resistance).

A cache of ``capacity_blocks`` blocks consumes ``capacity_blocks * b``
words of the memory budget.  Cached contexts model a machine with ``m``
structure words *plus* a dedicated cache — the structures' layout under
``m`` stays identical to the uncached run, which is what makes the
cold-vs-warm comparison a controlled experiment.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .block import Block
from .disk import Disk
from .errors import ConfigurationError, InvalidBlockError
from .iostats import IOStats, Ledger
from .memory import MemoryBudget


@dataclass
class CacheStats(Ledger):
    """Hit/miss/writeback counters for a :class:`BufferPool`.

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
    """Write-back LRU cache of disk blocks.

    Parameters
    ----------
    disk:
        Underlying disk; all misses and writebacks are charged there.
    capacity_blocks:
        Number of block frames; total memory footprint is
        ``capacity_blocks * disk.b`` words.
    budget:
        Optional memory budget to charge the frames against.
    owner:
        Charge label used with ``budget``.

    Copy semantics: :meth:`get` returns a **private copy** of the cached
    block, matching :meth:`Disk.read` — mutating the returned block
    never silently mutates the frame (which would bypass
    :meth:`mark_dirty` tracking).  ``get(..., copy=False)`` loans the
    live frame for read-only bulk inspection, mirroring
    ``Disk.read(copy=False)``'s backend-handle loan.

    :attr:`on_evict` is an optional hook called with the block id
    whenever a frame leaves the pool (LRU eviction, :meth:`invalidate`,
    or :meth:`clear`); :class:`CachedDisk` uses it to keep its
    record-membership index in sync with residency.
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
        self.disk = disk
        self.capacity_blocks = capacity_blocks
        self.budget = budget
        self.owner = owner
        if budget is not None:
            budget.charge(owner, capacity_blocks * disk.b)
        self._frames: OrderedDict[int, Block] = OrderedDict()
        self._dirty: set[int] = set()
        self.stats = CacheStats()
        self.on_evict: Callable[[int], None] | None = None

    # -- core operations -----------------------------------------------------

    def get(self, block_id: int, *, copy: bool = True) -> Block:
        """Return the cached block, faulting it in from disk on a miss.

        Returns a private copy by default (see class docstring);
        ``copy=False`` loans the live frame, read-only by convention.
        """
        frame = self._frames.get(block_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(block_id)
            return frame.copy() if copy else frame
        self.stats.misses += 1
        blk = self.disk.read(block_id)
        self._install(block_id, blk)
        return blk.copy() if copy else blk

    def put(self, block_id: int, block: Block) -> None:
        """Install ``block`` as the new contents of ``block_id`` (dirty).

        Ownership transfers to the pool: the caller must not mutate
        ``block`` afterwards.
        """
        if block_id in self._frames:
            self._frames[block_id] = block
            self._frames.move_to_end(block_id)
        else:
            self._install(block_id, block)
        self._dirty.add(block_id)

    def mark_dirty(self, block_id: int) -> None:
        """Mark an already-cached block as modified in place."""
        if block_id not in self._frames:
            raise KeyError(f"block {block_id} not resident in cache")
        self._dirty.add(block_id)

    def peek_frame(self, block_id: int) -> Block | None:
        """The resident frame or ``None``, refreshing its LRU position.

        No hit/miss accounting — :class:`CachedDisk` uses this and does
        its own counting against the charged-read contract.
        """
        frame = self._frames.get(block_id)
        if frame is not None:
            self._frames.move_to_end(block_id)
        return frame

    def install_clean(self, block_id: int, block: Block) -> None:
        """Install ``block`` as a clean frame (no dirty mark, no accounting).

        Ownership transfers to the pool.  Replacing a resident frame
        clears any dirty mark: the new contents are committed state.
        """
        if block_id in self._frames:
            self._frames[block_id] = block
            self._frames.move_to_end(block_id)
            self._dirty.discard(block_id)
        else:
            self._install(block_id, block)

    def _install(self, block_id: int, block: Block) -> None:
        while len(self._frames) >= self.capacity_blocks:
            self._evict_lru()
        self._frames[block_id] = block
        self._frames.move_to_end(block_id)

    def _evict_lru(self) -> None:
        victim, blk = self._frames.popitem(last=False)
        self.stats.evictions += 1
        if victim in self._dirty:
            # Eviction write-backs are "cold" writes: the read that brought
            # the block in is long past, so footnote-2 combining must not
            # apply.
            self.disk.stats.invalidate_rmw()
            self.disk.write(victim, blk)
            self._dirty.discard(victim)
            self.stats.writebacks += 1
        if self.on_evict is not None:
            self.on_evict(victim)

    # -- maintenance -----------------------------------------------------------

    def flush(self) -> int:
        """Write back every dirty block; return the number written."""
        written = 0
        for bid in sorted(self._dirty):
            self.disk.stats.invalidate_rmw()
            self.disk.write(bid, self._frames[bid])
            written += 1
            self.stats.writebacks += 1
        self._dirty.clear()
        return written

    def invalidate(self, block_id: int, *, discard: bool = False) -> None:
        """Drop a block from the cache (writing it back unless ``discard``)."""
        if block_id not in self._frames:
            return
        blk = self._frames.pop(block_id)
        if block_id in self._dirty:
            self._dirty.discard(block_id)
            if not discard:
                self.disk.stats.invalidate_rmw()
                self.disk.write(block_id, blk)
                self.stats.writebacks += 1
        if self.on_evict is not None:
            self.on_evict(block_id)

    def clear(self) -> None:
        """Flush and empty the pool.  Counters survive for post-run reporting."""
        self.flush()
        if self.on_evict is not None:
            for bid in list(self._frames):
                self.on_evict(bid)
        self._frames.clear()

    def close(self) -> None:
        """Flush, empty, and release the memory charge.

        :attr:`stats` is deliberately left intact so hit rates can be
        reported after the run is torn down.
        """
        self.clear()
        if self.budget is not None:
            self.budget.release(self.owner)

    # -- inspection -------------------------------------------------------------

    def resident(self) -> list[int]:
        """Block ids currently cached, LRU first."""
        return list(self._frames)

    def is_resident(self, block_id: int) -> bool:
        return block_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)


class CachedDisk(Disk):
    """A disk whose charged hot paths route through a private buffer pool.

    Constructed by :class:`~repro.em.storage.EMContext` when its
    ``cache_blocks`` axis is positive; ``disk.cache`` is the pool
    (``None`` on a plain :class:`Disk`), which is how the batch engine's
    vectorized bulk-charging branches detect a cached run and fall back
    to the cache-aware scalar paths.

    Accounting contract (see module docstring): every read the uncached
    configuration would charge is either charged here (a **miss**) or
    served from a frame (a **hit**), so ``hits + misses`` equals the
    uncached run's charged reads access for access.  Writes are
    write-through and charged exactly as uncached; frames are therefore
    always clean and evictions never write back.  A cache hit does *not*
    update the pending read-modify-write block — no physical seek
    happened — so a store after a hit-load charges a full write where
    the uncached run charged read + combined write: the same total,
    relabelled.

    The pool's frames are managed exclusively by the disk; use the
    standalone :class:`BufferPool` API (``get``/``put``) only over a
    plain :class:`Disk`.
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
        #: Record-membership index per resident frame: O(1) probe hits.
        self._sets: dict[int, set[int]] = {}
        self.cache.on_evict = self._on_frame_drop

    def _on_frame_drop(self, block_id: int) -> None:
        self._sets.pop(block_id, None)

    def _admit(self, block_id: int, block: Block) -> None:
        """Install a clean frame (pool takes ownership of ``block``)."""
        self._sets[block_id] = set(block)
        self.cache.install_clean(block_id, block)

    def _drop_frame(self, block_id: int) -> None:
        """Invalidate before a mutation; frames are clean, nothing writes back."""
        self.cache.invalidate(block_id, discard=True)

    # -- copying I/O ---------------------------------------------------------

    def read(self, block_id: int, *, copy: bool = True) -> Block:
        frame = self.cache.peek_frame(block_id)
        if frame is not None:
            self.cache.stats.hits += 1
            return frame.copy() if copy else frame
        blk = super().read(block_id)
        self.cache.stats.misses += 1
        self._admit(block_id, blk)
        return blk.copy() if copy else blk

    def write(self, block_id: int, block: Block) -> None:
        self._drop_frame(block_id)
        super().write(block_id, block)

    # -- copy-light I/O ------------------------------------------------------

    def load(self, block_id: int) -> Block:
        frame = self.cache.peek_frame(block_id)
        if frame is not None:
            # Hit: the charged read is avoided, but the caller needs the
            # live backend handle for the in-place store, so the frame is
            # dropped for the duration of the loan (invalidate-on-loan).
            self.cache.stats.hits += 1
            self._drop_frame(block_id)
            blk = self._fetch(block_id)
            self._loans[block_id] = (
                self._gen.get(block_id, 0),
                blk.empty and not blk.header,
                blk,
            )
            return blk
        self.cache.stats.misses += 1
        return super().load(block_id)

    def stage(self, block_id: int) -> Block:
        # Uncharged in both configurations: no hit/miss accounting.
        self._drop_frame(block_id)
        return super().stage(block_id)

    def store(self, block_id: int, block: Block | None = None) -> None:
        self._drop_frame(block_id)
        super().store(block_id, block)

    # -- streaming bulk reads (count, never install) -------------------------

    def scan(self, block_ids, visit=None):
        pool = self.cache
        fetch = self.backend.fetch
        out: list[Block] = []
        missed: list[int] = []
        hits = 0
        try:
            for bid in block_ids:
                frame = pool.peek_frame(bid)
                if frame is not None:
                    hits += 1
                    out.append(frame)
                else:
                    missed.append(bid)
                    out.append(fetch(bid))
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        pool.stats.hits += hits
        pool.stats.misses += len(missed)
        self.stats.record_reads(missed)
        if visit is not None:
            for bid, blk in zip(block_ids, out):
                visit(bid, blk)
        return out

    def read_records(self, block_ids):
        pool = self.cache
        records = self.backend.records
        out: list[int] = []
        missed: list[int] = []
        hits = 0
        try:
            for bid in block_ids:
                frame = pool.peek_frame(bid)
                if frame is not None:
                    hits += 1
                    out.extend(frame.records())
                else:
                    missed.append(bid)
                    out.extend(records(bid))
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        pool.stats.hits += hits
        pool.stats.misses += len(missed)
        self.stats.record_reads(missed)
        return out

    # -- record-level fast paths ---------------------------------------------

    def probe_record(self, block_id: int, key: int) -> bool:
        if self.cache.peek_frame(block_id) is not None:
            self.cache.stats.hits += 1
            return key in self._sets[block_id]
        backend = self.backend
        if block_id not in backend:
            raise InvalidBlockError(f"access to unknown block {block_id}")
        self.cache.stats.misses += 1
        self.stats.record_read(block_id)
        blk = backend.fetch(block_id).copy()
        self._admit(block_id, blk)
        return key in self._sets[block_id]

    def remove_record(self, block_id: int, key: int) -> bool:
        if self.cache.peek_frame(block_id) is not None:
            self.cache.stats.hits += 1
            if key not in self._sets[block_id]:
                return False
            self._drop_frame(block_id)
            backend = self.backend
            fresh = backend.is_fresh(block_id)
            backend.remove_key(block_id, key)
            self._gen[block_id] = self._gen.get(block_id, 0) + 1
            self._loans.pop(block_id, None)
            self.stats.record_write(block_id, fresh=fresh)
            return True
        self.cache.stats.misses += 1
        return super().remove_record(block_id, key)

    # -- mutation coherence ----------------------------------------------------

    def free(self, block_id: int) -> None:
        self._drop_frame(block_id)
        super().free(block_id)

    def append_uncharged(self, block_id: int, items) -> None:
        self._drop_frame(block_id)
        super().append_uncharged(block_id, items)

    def replace_uncharged(self, block_id: int, items) -> None:
        self._drop_frame(block_id)
        super().replace_uncharged(block_id, items)

    def drain_uncharged(self, block_id: int):
        self._drop_frame(block_id)
        return super().drain_uncharged(block_id)
