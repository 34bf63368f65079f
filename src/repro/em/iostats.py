"""I/O accounting for the external-memory model.

The complexity measure of the paper (and of the Aggarwal--Vitter model
[1]) is the number of block transfers between disk and memory.  The
paper's footnote 2 additionally adopts the convention that *writing a
block immediately after reading it* counts as a single I/O, because disk
cost is dominated by the seek.  :class:`IOPolicy` makes that convention
explicit and togglable so the ablation in ``bench_knuth_table`` can
quantify its effect.

:class:`IOStats` is a plain counter object shared by a :class:`~repro.em.disk.Disk`
and everything layered above it.  It supports cheap checkpointing
(:meth:`IOStats.snapshot` / :meth:`IOStats.delta_since`) so drivers can
attribute I/Os to individual operations without resetting global state.
That bookkeeping is written once, in :class:`Ledger`, for every counter
type the repository merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterator, Sequence
import contextlib
import operator


@dataclass(frozen=True)
class IOPolicy:
    """Conventions for charging I/Os.

    Attributes
    ----------
    combine_rmw:
        If ``True`` (the paper's footnote-2 convention), a write of block
        ``i`` that immediately follows a read of block ``i`` — with no
        intervening I/O — is free: the read-modify-write pair costs one
        I/O in total.  If ``False``, reads and writes are each one I/O.
    charge_allocation:
        If ``True``, allocating a fresh block (its first write) costs one
        I/O like any other write.  The paper never needs free allocation;
        this exists for sensitivity checks and defaults to ``True``.
    """

    combine_rmw: bool = True
    charge_allocation: bool = True


#: The policy used throughout the paper's accounting.
PAPER_POLICY = IOPolicy(combine_rmw=True, charge_allocation=True)

#: Strict policy: every block transfer costs one I/O.
STRICT_POLICY = IOPolicy(combine_rmw=False, charge_allocation=True)


class Ledger:
    """Counter bookkeeping written once, over a declared tuple of fields.

    A subclass is a dataclass that lists its integer counters in
    ``FIELDS`` and the metric series each one folds into in ``METRICS``.
    ``FIELDS`` must be the leading dataclass fields, in order, of the
    type :meth:`snapshot` builds — the class itself unless ``SNAPSHOT``
    names another.  Checkpoints, deltas and merges are then the same
    order-independent counter addition for every ledger: charged I/O,
    buffer-pool hits, and the service's cluster ledger.
    """

    #: The counter attributes, in declaration order.
    FIELDS: ClassVar[tuple[str, ...]] = ()
    #: Metric series name per counter (see :meth:`fold_metrics`).
    METRICS: ClassVar[dict[str, str]] = {}
    #: Type :meth:`snapshot` returns (``None``: the class itself).
    SNAPSHOT: ClassVar[type | None] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls.FIELDS)
        cls._make = cls.SNAPSHOT or cls

    @classmethod
    def of(cls, source) -> "Ledger":
        """A snapshot of this ledger's counters as carried by ``source``."""
        return cls._make(*cls._values(source))

    def values(self) -> tuple[int, ...]:
        """The counter values, ``FIELDS`` order."""
        return self._values(self)

    def snapshot(self) -> "Ledger":
        """Capture the current counter values."""
        return self._make(*self._values(self))

    def __sub__(self, other: "Ledger") -> "Ledger":
        # A list, not a bare ``*map``: unpacking an iterator of unknown
        # length leaves the collector's allocation count one higher per
        # call, which shifts garbage collections into the epochs.
        diff = list(map(operator.sub, self._values(self), self._values(other)))
        return self._make(*diff)

    def delta_since(self, snap: "Ledger") -> "Ledger":
        """Counters accumulated since ``snap`` was taken."""
        return self - snap

    def absorb(self, delta: "Ledger") -> None:
        """Fold another ledger's counter delta into this one.

        Pure counter addition, so a cluster total merged from per-shard
        deltas is independent of shard execution order.
        """
        for name, value in zip(self.FIELDS, self._values(delta)):
            if value:
                setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> dict:
        """Plain-dict counter view (trace spans, metrics folding)."""
        return dict(zip(self.FIELDS, self._values(self)))

    def fold_metrics(self, metrics) -> None:
        """Add every counter to its ``METRICS`` series in ``metrics``."""
        for name, value in zip(self.FIELDS, self._values(self)):
            metrics.inc(self.METRICS[name], value)


@dataclass
class IOSnapshot(Ledger):
    """Immutable view of counter values at a point in time."""

    reads: int = 0
    writes: int = 0
    combined: int = 0
    allocations: int = 0

    FIELDS = ("reads", "writes", "combined", "allocations")
    METRICS = {name: f"repro_io_{name}_total" for name in FIELDS}

    @property
    def total(self) -> int:
        """Total charged I/Os (combined read-modify-writes already netted out)."""
        return self.reads + self.writes


@dataclass
class IOStats(Ledger):
    """Mutable I/O counters with checkpoint support.

    ``reads`` and ``writes`` count *charged* I/Os: when the policy
    combines read-modify-write pairs, the elided write increments
    ``combined`` instead of ``writes``.  Checkpoints are
    :class:`IOSnapshot` values; :meth:`~Ledger.absorb` deliberately leaves
    the pending read-modify-write block alone — combining is a per-disk
    (per-shard) affair and stays on the shard's own ledger.
    """

    FIELDS = IOSnapshot.FIELDS
    SNAPSHOT = IOSnapshot

    policy: IOPolicy = field(default_factory=lambda: PAPER_POLICY)
    reads: int = 0
    writes: int = 0
    combined: int = 0
    allocations: int = 0
    _last_read_block: int | None = field(default=None, repr=False)

    # -- recording ---------------------------------------------------------

    def record_read(self, block_id: int) -> None:
        """Charge one read I/O of ``block_id``."""
        self.reads += 1
        self._last_read_block = block_id

    def record_reads(self, block_ids: Sequence[int]) -> None:
        """Charge one read I/O per block in ``block_ids`` in O(1) Python ops.

        Equivalent to calling :meth:`record_read` once per id in order:
        the read counter advances by ``len(block_ids)`` and the pending
        read-modify-write block becomes the *last* id, so a write that
        immediately follows the final read still combines under the
        footnote-2 policy.  Bulk scans and merges use this so charging
        ``n`` I/Os does not cost ``n`` interpreter-level calls.
        """
        n = len(block_ids)
        if n == 0:
            return
        self.reads += n
        self._last_read_block = block_ids[-1]

    def record_write(self, block_id: int, *, fresh: bool = False) -> None:
        """Charge a write of ``block_id``.

        ``fresh`` marks the first write of a newly allocated block; it is
        free when the policy's ``charge_allocation`` is ``False``.
        """
        if fresh:
            self.allocations += 1
            if not self.policy.charge_allocation:
                self._last_read_block = None
                return
        if self.policy.combine_rmw and self._last_read_block == block_id:
            # Footnote 2: a write immediately after reading the same block
            # rides on the same seek and is not charged.
            self.combined += 1
            self._last_read_block = None
            return
        self.writes += 1
        self._last_read_block = None

    def invalidate_rmw(self) -> None:
        """Forget the pending read so the next write is charged normally."""
        self._last_read_block = None

    # -- reading back ------------------------------------------------------

    @property
    def total(self) -> int:
        """Total charged I/Os so far."""
        return self.reads + self.writes

    @property
    def raw_total(self) -> int:
        """Total block transfers ignoring the read-modify-write netting."""
        return self.reads + self.writes + self.combined

    @contextlib.contextmanager
    def measure(self) -> Iterator[IOSnapshot]:
        """Context manager yielding a snapshot that is updated in place on exit.

        >>> stats = IOStats()
        >>> with stats.measure() as cost:
        ...     stats.record_read(3)
        >>> cost.total
        1
        """
        before = self.snapshot()
        out = IOSnapshot()
        yield out
        out.absorb(self.delta_since(before))

    def reset(self) -> None:
        """Zero every counter (policy is kept)."""
        for name in self.FIELDS:
            setattr(self, name, 0)
        self._last_read_block = None

    def with_policy(self, **changes) -> "IOStats":
        """Return a fresh zeroed ``IOStats`` with a modified policy."""
        return IOStats(policy=replace(self.policy, **changes))
