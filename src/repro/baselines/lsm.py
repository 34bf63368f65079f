"""A leveled LSM-tree: the buffered dictionary that dominates practice.

The paper's novelty band notes that buffered external *hashing* is rare
in the wild because LSM-trees won instead: they buffer inserts in a
memtable and amortize writes through sorted-run merges, paying
``O((γ/b)·log_γ(n/m))`` I/Os per insert — but a lookup must consult
``Θ(log_γ(n/m))`` levels, i.e. ``t_q = ω(1)`` unless filters help.
That is precisely the regime the paper's Lemma 5 structure occupies,
so the LSM is both a practical baseline and a cross-check of the
logarithmic method's cost profile.

Design (classic leveled compaction):

* a **memtable** holding up to ``memtable_items`` keys in main memory
  (charged to the budget);
* disk **levels** ``L_1, L_2, ...`` of capacity ``γ^k · memtable_items``
  each holding one sorted run stored across ``ceil(size/b)`` blocks;
* flushing the memtable merges it into ``L_1``; an overfull ``L_k``
  merges into ``L_{k+1}`` (read both runs, write the merged run);
* per-level **fence pointers** (first key of each block) kept in
  memory, so a lookup reads at most one block per level;
* optional per-level **Bloom filters** that skip levels which cannot
  contain the key — the standard practical fix for the multi-level
  lookup cost.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..em.block import Block
from ..em.errors import ConfigurationError
from ..em.storage import EMContext
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.batching import concat_records, membership, normalize_keys
from .bloom import BloomFilter


class _Run:
    """One sorted run: block ids plus in-memory fences and filter."""

    __slots__ = ("block_ids", "fences", "size", "bloom")

    def __init__(self) -> None:
        self.block_ids: list[int] = []
        self.fences: list[int] = []  # first key of each block
        self.size = 0
        self.bloom: BloomFilter | None = None


class LSMTree(ExternalDictionary):
    """Leveled LSM-tree with set semantics over integer keys.

    Parameters
    ----------
    ctx:
        Shared external-memory context.
    gamma:
        Level size ratio ``γ ≥ 2``.
    memtable_items:
        Memtable capacity; defaults to ``m // 2`` so fences, filters
        and the memtable together respect the budget in typical runs.
    bloom_bits_per_key:
        Per-level Bloom filter size; 0 disables filters.
    """

    def __init__(
        self,
        ctx: EMContext,
        *,
        gamma: int = 4,
        memtable_items: int | None = None,
        bloom_bits_per_key: float = 0.0,
    ) -> None:
        super().__init__(ctx)
        if gamma < 2:
            raise ConfigurationError(f"γ must be at least 2, got {gamma}")
        if bloom_bits_per_key < 0:
            raise ConfigurationError(
                f"bloom_bits_per_key must be non-negative, got {bloom_bits_per_key}"
            )
        self.gamma = gamma
        self.memtable_capacity = (
            memtable_items if memtable_items is not None else max(1, ctx.m // 2)
        )
        if self.memtable_capacity < 1:
            raise ConfigurationError("memtable must hold at least one item")
        self.bloom_bits_per_key = bloom_bits_per_key
        self._memtable: set[int] = set()
        #: Deleted-but-not-yet-compacted keys (memory-resident, charged).
        self._tombstones: set[int] = set()
        self._levels: list[_Run | None] = []
        self._charge_memory()

    # -- memory ------------------------------------------------------------

    def memory_words(self) -> int:
        words = len(self._memtable) + len(self._tombstones) + 2
        for run in self._levels:
            if run is not None:
                words += len(run.fences)
                if run.bloom is not None:
                    words += run.bloom.memory_words
        return words

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- geometry ------------------------------------------------------------

    def level_capacity(self, k: int) -> int:
        """Capacity of ``L_{k+1}`` (0-indexed): ``γ^{k+1} · memtable``."""
        return self.gamma ** (k + 1) * self.memtable_capacity

    @property
    def depth(self) -> int:
        """Number of allocated levels."""
        return len(self._levels)

    # -- run I/O ------------------------------------------------------------

    def _write_run(self, items: list[int]) -> _Run:
        """Write a sorted item list as a fresh run (one write per block).

        Blocks are handed to the disk via the ownership-transfer
        ``store`` (no copy — they are built here and never touched
        again).
        """
        run = _Run()
        run.size = len(items)
        b = self.ctx.b
        for off in range(0, len(items), b):
            chunk = items[off : off + b]
            bid = self.ctx.disk.allocate()
            self.ctx.disk.store(bid, Block(b, data=chunk))
            run.block_ids.append(bid)
            run.fences.append(chunk[0])
        if self.bloom_bits_per_key > 0 and items:
            run.bloom = BloomFilter.for_items(
                len(items), bits_per_item=self.bloom_bits_per_key, seed=len(items)
            )
            for x in items:
                run.bloom.add(x)
        return run

    def _read_run(self, run: _Run) -> list[int]:
        """Read a run back (one read per block), returning sorted items.

        Routed through :meth:`Disk.read_records` — charge-identical to
        per-block ``read`` (one bulk charge, same pending RMW block) and
        scan-resistant on a cached disk: compaction reads count hits and
        misses but never admit blocks, so a merge cannot flush the
        pool.
        """
        return self.ctx.disk.read_records(run.block_ids)

    def _free_run(self, run: _Run) -> None:
        for bid in run.block_ids:
            self.ctx.disk.free(bid)

    # -- operations -----------------------------------------------------------

    def insert(self, key: int) -> None:
        # Re-inserting a tombstoned key resurrects the physical copy.
        if key in self._tombstones:
            self._tombstones.discard(key)
            self._size += 1
            self.stats.inserts += 1
            self._charge_memory()
            return
        # Set semantics: duplicate inserts are no-ops.  The memtable
        # check is genuinely free; the levels check uses an
        # instrumentation peek because the modelled algorithm relies on
        # merge-time deduplication rather than a probe per insert, and
        # charging lookup I/Os here would distort t_u.
        if key in self._memtable or self._in_levels_free(key):
            return
        self._memtable.add(key)
        self._size += 1
        self.stats.inserts += 1
        if len(self._memtable) >= self.memtable_capacity:
            self._flush_memtable()
        self._charge_memory()

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Bulk insert with the scalar path's exact flush schedule.

        The per-key ``_in_levels_free`` fence-probe is replaced by one
        membership set built from uncharged peeks at batch start and
        maintained incrementally — the duplicate screen costs O(1) per
        key instead of O(levels · log b).  Flushes fire at exactly the
        scalar boundaries, so charged I/Os are identical.
        """
        keys, _ = normalize_keys(keys)
        tombstones = self._tombstones
        cap = self.memtable_capacity
        memory = self.ctx.memory
        # Duplicate screen: for batches large relative to the table, one
        # membership set built from uncharged peeks (O(stored) once,
        # then O(1)/key) beats the per-key fence probe; smaller batches
        # keep the scalar screen so incremental callers never pay
        # O(stored) per call.  The crossover weighs the ~per-key probe
        # cost against the ~per-stored-record set-build cost.
        # "Present" means logically present — memtable plus physical
        # level contents, minus tombstoned keys (those route through
        # the resurrect branch and must not be screened by presence).
        present: set[int] | None = None
        if len(keys) >= 256 and 24 * len(keys) >= self._size:
            present = set(self._memtable)
            disk = self.ctx.disk
            for run in self._levels:
                if run is None or run.size == 0:
                    continue
                for bid in run.block_ids:
                    present.update(disk.peek(bid, copy=False).records())
            present -= tombstones
        for key in keys:
            if key in tombstones:
                # Re-inserting a tombstoned key resurrects the physical
                # copy.  Charge memory *before* the discard: the running
                # footprint is about to shrink, so this is a local
                # maximum the scalar path's per-insert charges recorded.
                memory.set_charge(self._charge_key, self.memory_words())
                tombstones.discard(key)
                if present is not None:
                    present.add(key)
                self._size += 1
                self.stats.inserts += 1
                continue
            memtable = self._memtable
            if present is not None:
                if key in present:
                    continue
                present.add(key)
            elif key in memtable or self._in_levels_free(key):
                continue
            memtable.add(key)
            self._size += 1
            self.stats.inserts += 1
            if len(memtable) >= cap:
                # Scalar memory peak: the charge after the previous
                # insert saw the memtable one item short of capacity.
                memory.set_charge(self._charge_key, self.memory_words() - 1)
                self._flush_memtable()
        self._charge_memory()

    def _in_levels_free(self, key: int) -> bool:
        """Instrumentation-only duplicate check (peeks, charges no I/O)."""
        for run in self._levels:
            if run is None or run.size == 0:
                continue
            i = max(0, bisect.bisect_right(run.fences, key) - 1)
            blk = self.ctx.disk.peek(run.block_ids[i])
            if key in blk:
                return True
        return False

    def _flush_memtable(self) -> None:
        """Merge the memtable into L1, cascading overfull levels down."""
        self.stats.merges += 1
        carry = sorted(self._memtable)
        self._memtable = set()
        k = 0
        while carry:
            if k >= len(self._levels):
                self._levels.append(None)
            run = self._levels[k]
            if run is not None and run.size > 0:
                existing = self._read_run(run)
                self._free_run(run)
                if run.bloom is not None:
                    run.bloom = None
                # Compaction applies tombstones: physically drop deleted
                # keys from the rewritten run and retire their markers.
                if self._tombstones:
                    kept = [x for x in existing if x not in self._tombstones]
                    self._tombstones.difference_update(existing)
                    existing = kept
                carry = self._merge_sorted(existing, carry)
            if len(carry) <= self.level_capacity(k):
                self._levels[k] = self._write_run(carry)
                carry = []
            else:
                # Level would overflow: push the whole merged run down.
                self._levels[k] = None
                k += 1
        self._charge_memory()

    @staticmethod
    def _merge_sorted(a: list[int], b: list[int]) -> list[int]:
        """Merge two sorted distinct lists, dropping cross-duplicates."""
        if len(a) + len(b) >= 1024:
            # Sorted union of sorted distinct inputs — identical output,
            # numpy prices.
            return np.union1d(
                np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
            ).tolist()
        out: list[int] = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                out.append(a[i])
                i += 1
            elif a[i] > b[j]:
                out.append(b[j])
                j += 1
            else:
                out.append(a[i])
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return out

    def delete(self, key: int) -> bool:
        """Tombstone deletion, LSM-style.

        A delete is a *write*, not a search: the key goes into the
        memory-resident tombstone set and is filtered from lookups; the
        physical copy dies when a merge next rewrites its run.  Costs
        0 I/Os up front (the merge work is already accounted), which is
        exactly why LSMs love delete-heavy streams.

        Returns whether the key was actually present (checked with an
        instrumentation peek so the modelled algorithm stays blind).
        """
        if key in self._memtable:
            self._memtable.discard(key)
            self._size -= 1
            self.stats.deletes += 1
            return True
        if key in self._tombstones or not self._in_levels_free(key):
            return False
        self._tombstones.add(key)
        self._size -= 1
        self.stats.deletes += 1
        self._charge_memory()
        return True

    def delete_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Bulk tombstone deletes: one level-membership screen per batch.

        The scalar path's only non-O(1) work is the per-key
        ``_in_levels_free`` fence probe; for batches that are not tiny
        relative to the table it is replaced by one vectorised
        membership scan over the (delete-invariant) run contents.  No
        branch charges I/O, so bit-identity reduces to replicating the
        scalar set bookkeeping and the per-tombstone memory charges in
        key order — which the loop below does verbatim.
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        in_levels: list[bool] | None = None
        if n >= 256 and 24 * n >= self._size:
            stored = concat_records(
                self.ctx.disk.records_arr(bid)
                for run in self._levels
                if run is not None and run.size > 0
                for bid in run.block_ids
            )
            in_levels = membership(arr, stored).tolist()
        memtable = self._memtable
        tombstones = self._tombstones
        removed = 0
        for i in range(n):
            key = key_list[i]
            if key in memtable:
                memtable.discard(key)
                out[i] = True
                removed += 1
            elif key in tombstones or not (
                in_levels[i] if in_levels is not None else self._in_levels_free(key)
            ):
                out[i] = False
            else:
                tombstones.add(key)
                out[i] = True
                removed += 1
                self._charge_memory()
        self._size -= removed
        self.stats.deletes += removed
        if cost_out is not None:
            cost_out.extend([0] * n)
        return out

    def lookup(self, key: int) -> bool:
        """Memtable, then each level newest-first: ≤ 1 I/O per level
        (0 when a Bloom filter rejects).

        The per-level Bloom filters double as a *negative cache* on a
        cached disk: a rejection answers the probe without touching the
        buffer pool or the disk and is counted as a ``negative_hit``
        (rejections charge nothing in uncached runs too, so the
        hits+misses exactness contract is untouched).
        """
        self.stats.lookups += 1
        if key in self._tombstones:
            return False
        if key in self._memtable:
            self.stats.hits += 1
            return True
        disk = self.ctx.disk
        cache = disk.cache
        for run in self._levels:
            if run is None or run.size == 0:
                continue
            if run.bloom is not None and not run.bloom.might_contain(key):
                if cache is not None:
                    cache.stats.negative_hits += 1
                continue
            i = max(0, bisect.bisect_right(run.fences, key) - 1)
            if disk.probe_record(run.block_ids[i], key):
                self.stats.hits += 1
                return True
        return False

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Vectorised level probing: one bulk membership scan per run.

        A run is a sorted sequence partitioned by its fences, so
        membership in a key's fence-indicated block equals membership in
        the whole run — one concatenate + searchsorted replaces the
        per-key fence bisect and block scan.  Bloom screens go through
        :meth:`BloomFilter.might_contain_array` (bit-identical to the
        scalar probes), reads are charged in bulk per level, and the
        pending read-modify-write block is restored to the scalar
        walk's.  Batches tiny relative to the table keep the scalar
        loop (materialising every run costs O(stored)).
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        if n == 0:
            return np.empty(0, dtype=bool)
        if 24 * n < self._size or self.ctx.disk.cache is not None:
            # Tiny batches keep the scalar loop; so do cached runs, whose
            # per-key probes label every read hit or miss (and let the
            # Bloom screens count negative hits).
            return super().lookup_batch(key_list, cost_out=cost_out)
        runs = [run for run in self._levels if run is not None and run.size > 0]
        out = np.zeros(n, dtype=bool)
        costs = np.zeros(n, dtype=np.int64)
        self.stats.lookups += n
        tomb = self._tombstones
        dead = (
            membership(arr, np.fromiter(tomb, dtype=np.uint64, count=len(tomb)))
            if tomb
            else np.zeros(n, dtype=bool)
        )
        memtable = self._memtable
        in_mem = (
            membership(
                arr, np.fromiter(memtable, dtype=np.uint64, count=len(memtable))
            )
            & ~dead
            if memtable
            else np.zeros(n, dtype=bool)
        )
        out |= in_mem
        searching = np.flatnonzero(~dead & ~in_mem)
        records_arr = self.ctx.disk.records_arr
        for run in runs:
            if searching.size == 0:
                break
            if run.bloom is not None:
                passed = run.bloom.might_contain_array(arr[searching])
                probed = searching[passed]
            else:
                passed = None
                probed = searching
            if probed.size == 0:
                continue
            costs[probed] += 1
            run_arr = concat_records(records_arr(bid) for bid in run.block_ids)
            pos = np.minimum(
                np.searchsorted(run_arr, arr[probed]), run_arr.size - 1
            )
            hit = run_arr[pos] == arr[probed]
            out[probed[hit]] = True
            keep = np.ones(searching.size, dtype=bool)
            if passed is None:
                keep[hit] = False
            else:
                keep[np.flatnonzero(passed)[hit]] = False
            searching = searching[keep]
        total_reads = int(costs.sum())
        if total_reads:
            stats = self.ctx.stats
            stats.reads += total_reads
            last = int(np.flatnonzero(costs > 0)[-1])
            stats._last_read_block = self._final_probe_block(key_list[last], runs)
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        self.stats.hits += int(np.count_nonzero(out))
        return out

    def _final_probe_block(self, key: int, runs: list[_Run]) -> int | None:
        """The block id of ``key``'s last charged probe (scalar walk)."""
        key_in = self.ctx.disk.key_in
        last: int | None = None
        for run in runs:
            if run.bloom is not None and not run.bloom.might_contain(key):
                continue
            bid = run.block_ids[max(0, bisect.bisect_right(run.fences, key) - 1)]
            last = bid
            if key_in(bid, key):
                break
        return last

    # -- instrumentation ---------------------------------------------------------

    def level_sizes(self) -> list[int]:
        return [run.size if run else 0 for run in self._levels]

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        for run in self._levels:
            if run is None:
                continue
            for bid in run.block_ids:
                blocks[bid] = tuple(self.ctx.disk.peek(bid).records())
        levels = [run for run in self._levels if run is not None and run.size > 0]

        def address(key: int) -> int | None:
            # The memory can compute one block guess: the fence-indicated
            # block of the *largest* level (where most items live).
            if not levels:
                return None
            run = max(levels, key=lambda r: r.size)
            i = max(0, bisect.bisect_right(run.fences, key) - 1)
            return run.block_ids[i]

        return LayoutSnapshot(
            memory_items=frozenset(self._memtable),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        assert len(self._memtable) < max(2, self.memtable_capacity)
        assert not (self._tombstones & self._memtable)
        total = len(self._memtable) - len(self._tombstones)
        for k, run in enumerate(self._levels):
            if run is None:
                continue
            items = []
            for bid in run.block_ids:
                items.extend(self.ctx.disk.peek(bid).records())
            assert items == sorted(items), f"level {k} run not sorted"
            assert len(items) == run.size
            assert len(items) == len(set(items)), f"level {k} has duplicates"
            assert run.size <= self.level_capacity(k), f"level {k} overfull"
            assert run.fences == [
                self.ctx.disk.peek(bid).records()[0] for bid in run.block_ids
            ]
            total += run.size
        assert total == self._size, f"{total} stored vs size {self._size}"
