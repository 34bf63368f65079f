"""Overflow-chain buckets.

Several structures (chained hashing, linear hashing, the big table ``Ĥ``
of Theorem 2) share the same bucket shape: one *primary* block plus a
linked chain of *overflow* blocks, each holding up to ``b`` items, with
the chain pointer kept in the block header (O(1) words, conventionally
un-charged in EM analyses).

:class:`ChainedBucket` encapsulates the I/O discipline:

* a lookup reads the primary block, then overflow blocks until found —
  expected ``1 + 2^{-Ω(b)}`` I/Os at constant load;
* an insert reads/writes the first block with room (one combined I/O
  under the footnote-2 policy), allocating a new tail block when all are
  full.

All charged accesses ride the disk's copy-light loan API
(:meth:`~repro.em.disk.Disk.load` / :meth:`~repro.em.disk.Disk.store`),
so a read-merge-write cycle moves each record once; the I/O counters are
identical to the copying path by the disk's contract.
"""

from __future__ import annotations

from typing import Iterator

from ..em.disk import Disk


class ChainedBucket:
    """A primary disk block with an overflow chain."""

    __slots__ = ("disk", "primary", "_chain")

    def __init__(self, disk: Disk, *, primary: int | None = None) -> None:
        self.disk = disk
        self.primary = disk.allocate() if primary is None else primary
        # Chain block ids, in order after the primary.  Kept in memory by
        # the *bucket object* only as a convenience mirror of the header
        # pointers; the I/O discipline below never uses it to skip reads.
        self._chain: list[int] = []

    @classmethod
    def bulk_row(cls, disk: Disk, count: int) -> list["ChainedBucket"]:
        """Allocate ``count`` buckets over one bulk primary-block grab.

        Used by the rebuild/merge code so doubling a ``d``-bucket table
        costs one :meth:`~repro.em.disk.Disk.allocate_many` instead of
        ``d`` allocator round trips.  Block ids come out identical to a
        loop of single allocations.
        """
        return [cls(disk, primary=bid) for bid in disk.allocate_many(count)]

    # -- chain structure -----------------------------------------------------

    @property
    def block_ids(self) -> list[int]:
        return [self.primary, *self._chain]

    @property
    def chain_length(self) -> int:
        """Number of overflow blocks."""
        return len(self._chain)

    # -- charged operations ------------------------------------------------------

    def lookup(self, key: int) -> tuple[bool, int]:
        """Search the chain for ``key``.

        Returns ``(found, ios)`` where ``ios`` is the number of blocks
        read (the chain is walked via header pointers, so the search
        stops one block after the hit or at the chain's end).
        """
        disk = self.disk
        if not self._chain:
            # Chain-free bucket: one charged read, served record-level.
            return disk.probe_record(self.primary, key), 1
        ios = 0
        for bid in self.block_ids:
            blk = disk.read(bid, copy=False)
            ios += 1
            if key in blk:
                return True, ios
            if blk.header.get("next") is None:
                break
        return False, ios

    def insert(self, key: int) -> bool:
        """Insert ``key`` unless present; returns ``True`` if inserted.

        Walks the chain once: the first block with room receives the key
        (read + write, combining to one I/O); a full chain grows a new
        tail block.
        """
        disk = self.disk
        prev_bid: int | None = None
        for bid in self.block_ids:
            blk = disk.load(bid)
            if key in blk:
                return False
            if not blk.full:
                blk.append(key)
                disk.store(bid)
                return True
            prev_bid = bid
        # Every block full: allocate a tail and link it from the last block.
        new_bid = disk.allocate()
        assert prev_bid is not None
        with disk.modify(prev_bid) as prev_blk:
            prev_blk.header["next"] = new_bid
        with disk.modify(new_bid) as new_blk:
            new_blk.append(key)
        self._chain.append(new_bid)
        return True

    def delete(self, key: int) -> bool:
        """Remove ``key`` from whichever chain block holds it."""
        disk = self.disk
        if not self._chain:
            # Chain-free bucket: the probe is a single read (+ combining
            # write on a hit), served record-level without materialising
            # a Block — same charge, same resulting record order.
            return disk.remove_record(self.primary, key)
        for bid in self.block_ids:
            blk = disk.load(bid)
            if blk.remove(key):
                disk.store(bid)
                return True
            if blk.header.get("next") is None:
                break
        return False

    def read_all(self) -> list[int]:
        """Read every block of the chain (charged) and return all items."""
        return self.disk.read_records(self.block_ids)

    def absorb(self, incoming: list[int]) -> None:
        """Read the chain, append ``incoming``, rewrite — one RMW pass.

        Charges exactly like ``replace_all(read_all() + incoming)``,
        which is also its literal fallback implementation.
        """
        self.replace_all(self.read_all() + incoming)

    def replace_all(self, items: list[int]) -> None:
        """Rewrite the bucket to contain exactly ``items`` (charged writes).

        Packs items ``b`` per block, reusing existing chain blocks and
        allocating/freeing as needed.
        """
        disk = self.disk
        b = disk.b // disk.record_words
        needed = max(1, -(-len(items) // b)) - 1  # overflow blocks needed
        while len(self._chain) < needed:
            self._chain.append(disk.allocate())
        while len(self._chain) > needed:
            victim = self._chain.pop()
            disk.free(victim)
        ids = self.block_ids
        last = len(ids) - 1
        for i, bid in enumerate(ids):
            blk = disk.stage(bid)
            blk.replace_contents(items[i * b : (i + 1) * b])
            blk.header.pop("next", None)
            if i < last:
                blk.header["next"] = ids[i + 1]
            # No rmw invalidation: a rewrite immediately after reading
            # the same block (the read_all → replace_all merge pattern)
            # is footnote 2's one-I/O read-modify-write.
            disk.store(bid)

    # -- uncharged introspection ---------------------------------------------------

    def peek_all(self) -> list[int]:
        """All items in the bucket without charging I/O (instrumentation)."""
        items: list[int] = []
        for bid in self.block_ids:
            items.extend(self.disk.peek(bid, copy=False).records())
        return items

    def peek_blocks(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for bid in self.block_ids:
            yield bid, tuple(self.disk.peek(bid, copy=False).records())

    def item_count(self) -> int:
        return len(self.peek_all())

    def free_all(self) -> None:
        """Release every block of the bucket back to the disk."""
        for bid in self.block_ids:
            self.disk.free(bid)
        self._chain.clear()


def bulk_merge_into(
    buckets: list[ChainedBucket],
    parts: list[tuple[int, list[int]]],
    disk: Disk,
) -> None:
    """Merge per-bucket item groups into ``buckets`` at bulk prices.

    ``parts`` is the output of
    :func:`~repro.tables.batching.partition_by_bucket` — the staged
    groups the scalar merge loops feed through ``read_all`` +
    ``replace_all`` one bucket at a time.  The common case (chain-free
    bucket, merged contents still fit one block) is executed as an
    in-place read-modify-write with *deferred bulk charging* that
    reproduces the scalar counter arithmetic exactly:

    * each bucket costs one read, and its write immediately follows the
      read of the same block, so under a ``combine_rmw`` policy it nets
      to ``combined`` instead of ``writes``;
    * a previously empty, header-less block counts one allocation, and
      is uncharged when the policy says allocations are free;
    * the pending read-modify-write block ends as ``None`` (the last
      charged I/O is always a write), exactly as the scalar loop leaves
      it.

    Chained or overflowing buckets fall back to
    :meth:`ChainedBucket.absorb`, which charges through the normal
    path.  I/O totals are bit-identical either way; the parity suite
    exercises both branches.

    On a cached disk each fast-path bucket first consults the buffer
    pool: a resident block is a **hit** (the read is not charged, its
    id is dropped from the pool before the backend-level append, and
    the following write cannot combine — no physical read happened), a
    non-resident one is a charged **miss**
    that combines exactly like the uncached arithmetic.  Reads avoided
    equal hits counted, preserving the
    ``hits + misses == uncached charged reads`` contract.
    """
    if not parts:
        return
    # Record-level backend access plus the disk's generation table:
    # module-internal fast path shared with Disk (same library, see the
    # uncharged record-level API in em.disk).
    backend = disk.backend
    gen = disk._gen
    stats = disk.stats
    cache = disk.cache
    cap = disk.b // disk.record_words
    fast = 0
    nfresh = 0
    hit_count = 0
    hit_fresh = 0
    for idx, incoming in parts:
        bkt = buckets[idx]
        if bkt._chain:
            bkt.absorb(incoming)
            continue
        bid = bkt.primary
        if backend.length(bid) + len(incoming) > cap:
            bkt.absorb(incoming)
            continue
        fresh = backend.is_fresh(bid)
        if fresh:
            nfresh += 1
        if cache is not None and cache.is_resident(bid):
            cache.invalidate(bid)
            hit_count += 1
            if fresh:
                hit_fresh += 1
        backend.append(bid, incoming)
        gen[bid] = gen.get(bid, 0) + 1
        fast += 1
    if fast:
        policy = stats.policy
        stats.allocations += nfresh
        if cache is None:
            stats.reads += fast
            charged_writes = fast if policy.charge_allocation else fast - nfresh
            if policy.combine_rmw:
                stats.combined += charged_writes
            else:
                stats.writes += charged_writes
        else:
            miss_count = fast - hit_count
            cache.stats.hits += hit_count
            cache.stats.misses += miss_count
            stats.reads += miss_count
            if policy.charge_allocation:
                miss_charged = miss_count
                hit_charged = hit_count
            else:
                miss_charged = miss_count - (nfresh - hit_fresh)
                hit_charged = hit_count - hit_fresh
            if policy.combine_rmw:
                stats.combined += miss_charged
            else:
                stats.writes += miss_charged
            stats.writes += hit_charged
    stats._last_read_block = None


def bulk_fill_buckets(
    buckets: list[ChainedBucket],
    parts: list[tuple[int, list[int]]],
    disk: Disk,
) -> None:
    """Write staged groups into freshly allocated, never-written buckets.

    The rebuild counterpart of :func:`bulk_merge_into`: every receiving
    bucket is brand new (one empty, header-less primary block), so each
    single-block write is a first write — one allocation, charged as a
    write (or free when the policy says allocations are) and never
    combining, since a fresh block cannot be the pending RMW block.
    Groups too large for one block fall back to
    :meth:`ChainedBucket.replace_all`.  Charges are bit-identical to the
    per-bucket scalar loop.
    """
    if not parts:
        return
    backend = disk.backend
    gen = disk._gen
    stats = disk.stats
    cache = disk.cache
    cap = disk.b // disk.record_words
    written = 0
    for idx, items in parts:
        bkt = buckets[idx]
        if len(items) > cap:
            bkt.replace_all(items)
            continue
        bid = bkt.primary
        if cache is not None:
            # Fresh targets are normally never resident; drop the id
            # defensively, as every backend-level mutation must.
            cache.invalidate(bid)
        backend.replace(bid, items)
        gen[bid] = gen.get(bid, 0) + 1
        written += 1
    if written:
        stats.allocations += written
        if stats.policy.charge_allocation:
            stats.writes += written
        stats._last_read_block = None
